// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Unit tests for the reservoir substrate: Algorithm R (single and k-item)
// and Algorithm L -- including the distributional properties the paper's
// constructions rely on.

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "reservoir/algorithm_l.h"
#include "reservoir/reservoir.h"
#include "stats/tests.h"
#include "util/rng.h"

namespace swsample {
namespace {

Item MakeItem(uint64_t i) { return Item{i * 10, i, static_cast<Timestamp>(i)}; }

TEST(SingleReservoirTest, FirstItemAlwaysSampled) {
  SingleReservoir r;
  Rng rng(1);
  r.Observe(MakeItem(0), rng);
  ASSERT_TRUE(r.sample().has_value());
  EXPECT_EQ(r.sample()->index, 0u);
  EXPECT_EQ(r.count(), 1u);
}

TEST(SingleReservoirTest, UniformOverStream) {
  const uint64_t stream_len = 20;
  const int trials = 40000;
  std::vector<uint64_t> counts(stream_len, 0);
  Rng rng(2);
  for (int t = 0; t < trials; ++t) {
    SingleReservoir r;
    for (uint64_t i = 0; i < stream_len; ++i) r.Observe(MakeItem(i), rng);
    ++counts[r.sample()->index];
  }
  auto result = ChiSquareUniform(counts);
  EXPECT_GT(result.p_value, 1e-4) << "stat=" << result.statistic;
}

TEST(SingleReservoirTest, ResetForgets) {
  SingleReservoir r;
  Rng rng(3);
  r.Observe(MakeItem(0), rng);
  r.Reset();
  EXPECT_FALSE(r.sample().has_value());
  EXPECT_EQ(r.count(), 0u);
  EXPECT_EQ(r.MemoryWords(), 0u);
}

TEST(SingleReservoirTest, IndependencePrefixSuffix) {
  // Section 1.3.4: the sample after i arrivals is independent of whether
  // the FINAL sample lands in the suffix. Empirically: P(final in suffix |
  // prefix sample = p) must equal suffix/total for every p.
  const uint64_t prefix = 8, total = 16;
  const int trials = 60000;
  std::vector<uint64_t> in_suffix(prefix, 0), seen(prefix, 0);
  Rng rng(4);
  for (int t = 0; t < trials; ++t) {
    SingleReservoir r;
    uint64_t i = 0;
    for (; i < prefix; ++i) r.Observe(MakeItem(i), rng);
    uint64_t prefix_sample = r.sample()->index;
    for (; i < total; ++i) r.Observe(MakeItem(i), rng);
    ++seen[prefix_sample];
    if (r.sample()->index >= prefix) ++in_suffix[prefix_sample];
  }
  for (uint64_t p = 0; p < prefix; ++p) {
    ASSERT_GT(seen[p], 0u);
    double frac = static_cast<double>(in_suffix[p]) / seen[p];
    EXPECT_NEAR(frac, 0.5, 0.05) << "prefix sample " << p;
  }
}

TEST(KReservoirTest, HoldsAllWhenFewer) {
  KReservoir r(5);
  Rng rng(5);
  for (uint64_t i = 0; i < 3; ++i) r.Observe(MakeItem(i), rng);
  EXPECT_EQ(r.items().size(), 3u);
}

TEST(KReservoirTest, CapsAtK) {
  KReservoir r(5);
  Rng rng(6);
  for (uint64_t i = 0; i < 100; ++i) r.Observe(MakeItem(i), rng);
  EXPECT_EQ(r.items().size(), 5u);
  EXPECT_EQ(r.count(), 100u);
  // All items distinct.
  std::set<uint64_t> idx;
  for (const Item& item : r.items()) idx.insert(item.index);
  EXPECT_EQ(idx.size(), 5u);
}

TEST(KReservoirTest, PerElementInclusionUniform) {
  // Every element must be included with probability k/N.
  const uint64_t n = 12, k = 3;
  const int trials = 40000;
  std::vector<uint64_t> counts(n, 0);
  Rng rng(7);
  for (int t = 0; t < trials; ++t) {
    KReservoir r(k);
    for (uint64_t i = 0; i < n; ++i) r.Observe(MakeItem(i), rng);
    for (const Item& item : r.items()) ++counts[item.index];
  }
  auto result = ChiSquareUniform(counts);
  EXPECT_GT(result.p_value, 1e-4) << "stat=" << result.statistic;
}

TEST(KReservoirTest, SubsetDistributionUniform) {
  // All C(6,2)=15 subsets equiprobable.
  const uint64_t n = 6, k = 2;
  const int trials = 60000;
  std::vector<uint64_t> counts(15, 0);
  Rng rng(8);
  for (int t = 0; t < trials; ++t) {
    KReservoir r(k);
    for (uint64_t i = 0; i < n; ++i) r.Observe(MakeItem(i), rng);
    std::vector<uint64_t> idx;
    for (const Item& item : r.items()) idx.push_back(item.index);
    std::sort(idx.begin(), idx.end());
    // Rank the pair {a<b} lexicographically.
    uint64_t rank = 0;
    for (uint64_t a = 0; a < idx[0]; ++a) rank += n - 1 - a;
    rank += idx[1] - idx[0] - 1;
    ++counts[rank];
  }
  auto result = ChiSquareUniform(counts);
  EXPECT_GT(result.p_value, 1e-4) << "stat=" << result.statistic;
}

TEST(KReservoirTest, SubsampleUniform) {
  // A uniform 1-subset of the k-reservoir is a uniform element of the
  // stream (the X_V^i property used by Theorem 2.2).
  const uint64_t n = 10, k = 4;
  const int trials = 50000;
  std::vector<uint64_t> counts(n, 0);
  Rng rng(9);
  for (int t = 0; t < trials; ++t) {
    KReservoir r(k);
    for (uint64_t i = 0; i < n; ++i) r.Observe(MakeItem(i), rng);
    std::vector<Item> out;
    r.SubsampleInto(1, rng, &out);
    ASSERT_EQ(out.size(), 1u);
    ++counts[out[0].index];
  }
  auto result = ChiSquareUniform(counts);
  EXPECT_GT(result.p_value, 1e-4) << "stat=" << result.statistic;
}

TEST(KReservoirTest, SubsampleSizesAndDistinctness) {
  KReservoir r(6);
  Rng rng(10);
  for (uint64_t i = 0; i < 50; ++i) r.Observe(MakeItem(i), rng);
  for (uint64_t take = 0; take <= 6; ++take) {
    std::vector<Item> out;
    r.SubsampleInto(take, rng, &out);
    EXPECT_EQ(out.size(), take);
    std::set<uint64_t> idx;
    for (const Item& item : out) idx.insert(item.index);
    EXPECT_EQ(idx.size(), take);
  }
}

TEST(KReservoirTest, MemoryWordsTracksContents) {
  KReservoir r(4);
  Rng rng(11);
  EXPECT_EQ(r.MemoryWords(), 0u);
  r.Observe(MakeItem(0), rng);
  EXPECT_EQ(r.MemoryWords(), kWordsPerItem);
  for (uint64_t i = 1; i < 100; ++i) r.Observe(MakeItem(i), rng);
  EXPECT_EQ(r.MemoryWords(), 4 * kWordsPerItem);
}

TEST(SkipReservoirTest, SameDistributionAsAlgorithmR) {
  const uint64_t n = 30, k = 3;
  const int trials = 40000;
  std::vector<uint64_t> counts(n, 0);
  Rng rng(12);
  for (int t = 0; t < trials; ++t) {
    SkipReservoir r(k);
    for (uint64_t i = 0; i < n; ++i) r.Observe(MakeItem(i), rng);
    for (const Item& item : r.items()) ++counts[item.index];
  }
  auto result = ChiSquareUniform(counts);
  EXPECT_GT(result.p_value, 1e-4) << "stat=" << result.statistic;
}

TEST(SkipReservoirTest, HoldsAllWhenFewer) {
  SkipReservoir r(8);
  Rng rng(13);
  for (uint64_t i = 0; i < 5; ++i) r.Observe(MakeItem(i), rng);
  EXPECT_EQ(r.items().size(), 5u);
}

TEST(SkipReservoirTest, DistinctSlots) {
  SkipReservoir r(5);
  Rng rng(14);
  for (uint64_t i = 0; i < 10000; ++i) r.Observe(MakeItem(i), rng);
  std::set<uint64_t> idx;
  for (const Item& item : r.items()) idx.insert(item.index);
  EXPECT_EQ(idx.size(), 5u);
}

}  // namespace
}  // namespace swsample
