// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Cross-shard merge algebra: SamplerSnapshot::MergeFrom / MergedSnapshot
// (weighted selection must be uniform over the union) and MergeEstimates
// (shard-sum, weighted-mean and entropy-grouping identities).

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "apps/estimator.h"
#include "baseline/exact_window.h"
#include "core/api.h"
#include "core/registry.h"
#include "stat_check.h"
#include "stats/tests.h"

namespace swsample {
namespace {

Item MakeItem(uint64_t value, StreamIndex index) {
  return Item{value, index, static_cast<Timestamp>(index)};
}

/// An exact sequence-window shard preloaded with `count` items whose
/// values start at `first_value` (locally re-indexed, like a sharded
/// replica's stream).
std::unique_ptr<ExactWindow> MakeExactShard(uint64_t window, uint64_t k,
                                            bool with_replacement,
                                            uint64_t first_value,
                                            uint64_t count, uint64_t seed) {
  auto shard =
      ExactWindow::CreateSequence(window, k, with_replacement, seed)
          .ValueOrDie();
  for (uint64_t i = 0; i < count; ++i) {
    shard->Observe(MakeItem(first_value + i, i));
  }
  return shard;
}

TEST(SamplerSnapshotTest, MergeCapableSamplersSnapshot) {
  for (const char* name :
       {"bop-seq-single", "bop-seq-swr", "bop-seq-swor", "exact-seq",
        "exact-ts"}) {
    SinkSpec config;
    config.name = name;
    config.window_n = 64;
    config.window_t = 64;
    config.k = std::string_view(name) == "bop-seq-single" ? 1 : 8;
    config.seed = 7;
    auto sampler = CreateSampler(config).ValueOrDie();
    EXPECT_TRUE(sampler->mergeable()) << name;
    for (uint64_t i = 0; i < 100; ++i) sampler->Observe(MakeItem(i, i));
    auto snapshot = sampler->Snapshot();
    ASSERT_TRUE(snapshot.ok()) << name;
    EXPECT_EQ(snapshot.value().active, 64u) << name;
    EXPECT_EQ(snapshot.value().k, config.k) << name;
    EXPECT_FALSE(snapshot.value().sample.empty()) << name;
  }
}

TEST(SamplerSnapshotTest, NonMergeableSamplersRefuse) {
  for (const char* name : {"bdm-chain", "oversample-swor", "bop-ts-swr",
                           "bop-ts-swor", "bdm-priority"}) {
    SinkSpec config;
    config.name = name;
    config.window_n = 64;
    config.window_t = 64;
    config.k = 4;
    auto sampler = CreateSampler(config).ValueOrDie();
    EXPECT_FALSE(sampler->mergeable()) << name;
    auto snapshot = sampler->Snapshot();
    ASSERT_FALSE(snapshot.ok()) << name;
    EXPECT_EQ(snapshot.status().code(), StatusCode::kFailedPrecondition);
  }
}

TEST(SamplerSnapshotTest, MergeRejectsIncompatibleSnapshots) {
  Rng rng(1);
  SamplerSnapshot a{/*active=*/4, /*k=*/2, /*without_replacement=*/false,
                    {MakeItem(0, 0), MakeItem(1, 1)}};
  SamplerSnapshot mismatched_k{4, 3, false,
                               {MakeItem(0, 0), MakeItem(1, 1),
                                MakeItem(2, 2)}};
  EXPECT_FALSE(a.MergeFrom(mismatched_k, rng).ok());
  SamplerSnapshot mismatched_mode{4, 2, true,
                                  {MakeItem(0, 0), MakeItem(1, 1)}};
  EXPECT_FALSE(a.MergeFrom(mismatched_mode, rng).ok());
}

TEST(SamplerSnapshotTest, EmptyShardsMergeAsNoOps) {
  Rng rng(2);
  SamplerSnapshot merged{/*active=*/0, /*k=*/2, false, {}};
  SamplerSnapshot empty{0, 2, false, {}};
  ASSERT_TRUE(merged.MergeFrom(empty, rng).ok());
  EXPECT_EQ(merged.active, 0u);
  SamplerSnapshot full{3, 2, false, {MakeItem(5, 0), MakeItem(6, 1)}};
  ASSERT_TRUE(merged.MergeFrom(full, rng).ok());
  EXPECT_EQ(merged.active, 3u);
  EXPECT_EQ(merged.sample.size(), 2u);
  ASSERT_TRUE(merged.MergeFrom(empty, rng).ok());
  EXPECT_EQ(merged.active, 3u);
}

// Uniformity of the merged WITH-replacement sample over the union of two
// unevenly occupied shards: every value must land with probability
// proportional to nothing but its membership (1/300 per slot draw).
TEST(SamplerSnapshotTest, MergedWithReplacementIsUniformOverUnion) {
  constexpr uint64_t kK = 8;
  constexpr uint64_t kTrials = 1500;
  auto shard_a = MakeExactShard(/*window=*/100, kK, /*wr=*/true,
                                /*first_value=*/0, /*count=*/100, 11);
  auto shard_b = MakeExactShard(/*window=*/200, kK, /*wr=*/true,
                                /*first_value=*/100, /*count=*/200, 12);
  std::vector<WindowSampler*> shards = {shard_a.get(), shard_b.get()};
  std::vector<uint64_t> counts(30, 0);  // 30 cells of 10 values
  for (uint64_t trial = 0; trial < kTrials; ++trial) {
    auto merged = MergedSnapshot(shards, /*seed=*/trial).ValueOrDie();
    EXPECT_EQ(merged.active, 300u);
    ASSERT_EQ(merged.sample.size(), kK);
    for (const Item& item : merged.sample) {
      ASSERT_LT(item.value, 300u);
      ++counts[item.value / 10];
    }
  }
  EXPECT_TRUE(IsUniform(counts, /*seed=*/0));
}

// Without replacement: merged samples must be distinct and uniform; the
// hypergeometric allocation gives every union member inclusion
// probability k / |union|.
TEST(SamplerSnapshotTest, MergedWithoutReplacementIsUniformOverUnion) {
  constexpr uint64_t kK = 10;
  constexpr uint64_t kTrials = 1200;
  auto shard_a = MakeExactShard(/*window=*/60, kK, /*wr=*/false,
                                /*first_value=*/0, /*count=*/60, 21);
  auto shard_b = MakeExactShard(/*window=*/240, kK, /*wr=*/false,
                                /*first_value=*/60, /*count=*/240, 22);
  std::vector<WindowSampler*> shards = {shard_a.get(), shard_b.get()};
  std::vector<uint64_t> counts(30, 0);  // 30 cells of 10 values
  for (uint64_t trial = 0; trial < kTrials; ++trial) {
    auto merged = MergedSnapshot(shards, /*seed=*/trial ^ 0xabcd).ValueOrDie();
    EXPECT_EQ(merged.active, 300u);
    ASSERT_EQ(merged.sample.size(), kK);
    std::set<uint64_t> distinct;
    for (const Item& item : merged.sample) {
      ASSERT_LT(item.value, 300u);
      distinct.insert(item.value);
      ++counts[item.value / 10];
    }
    EXPECT_EQ(distinct.size(), kK) << "merged WOR sample has duplicates";
  }
  EXPECT_TRUE(IsUniform(counts, /*seed=*/0xabcd));
}

// Folding more than two shards must stay uniform (associativity in
// distribution) — three uneven WOR shards.
TEST(SamplerSnapshotTest, ThreeWayMergeStaysUniform) {
  constexpr uint64_t kK = 6;
  constexpr uint64_t kTrials = 1500;
  auto shard_a = MakeExactShard(50, kK, /*wr=*/false, 0, 50, 31);
  auto shard_b = MakeExactShard(130, kK, /*wr=*/false, 50, 130, 32);
  auto shard_c = MakeExactShard(120, kK, /*wr=*/false, 180, 120, 33);
  std::vector<WindowSampler*> shards = {shard_a.get(), shard_b.get(),
                                        shard_c.get()};
  std::vector<uint64_t> counts(30, 0);
  for (uint64_t trial = 0; trial < kTrials; ++trial) {
    auto merged = MergedSnapshot(shards, trial * 3 + 1).ValueOrDie();
    EXPECT_EQ(merged.active, 300u);
    for (const Item& item : merged.sample) ++counts[item.value / 10];
  }
  EXPECT_TRUE(IsUniform(counts, /*seed=*/1));
}

// A shard whose window is still filling contributes proportionally to its
// occupancy, not its configured window size.
TEST(SamplerSnapshotTest, PartialShardWeightsByOccupancy) {
  constexpr uint64_t kK = 4;
  constexpr uint64_t kTrials = 4000;
  // Shard A holds only 20 of its 100-item window; B holds a full 80.
  auto shard_a = MakeExactShard(100, kK, /*wr=*/true, 0, 20, 41);
  auto shard_b = MakeExactShard(80, kK, /*wr=*/true, 1000, 80, 42);
  std::vector<WindowSampler*> shards = {shard_a.get(), shard_b.get()};
  uint64_t from_a = 0;
  uint64_t total = 0;
  for (uint64_t trial = 0; trial < kTrials; ++trial) {
    auto merged = MergedSnapshot(shards, trial).ValueOrDie();
    EXPECT_EQ(merged.active, 100u);
    for (const Item& item : merged.sample) {
      from_a += item.value < 1000 ? 1 : 0;
      ++total;
    }
  }
  // E[from_a / total] = 20 / 100; binomial std over 16000 draws ~ 0.003.
  const double frac = static_cast<double>(from_a) / total;
  EXPECT_NEAR(frac, 0.20, 0.02);
}

TEST(MergedSnapshotTest, RejectsEmptyAndNonMergeable) {
  EXPECT_FALSE(MergedSnapshot({}, 0).ok());
  SinkSpec config;
  config.name = "bdm-chain";
  config.window_n = 64;
  config.k = 4;
  auto chain = CreateSampler(config).ValueOrDie();
  std::vector<WindowSampler*> shards = {chain.get()};
  auto merged = MergedSnapshot(shards, 0);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kFailedPrecondition);
}

EstimateReport Report(double value, double window, uint64_t support) {
  EstimateReport report;
  report.value = value;
  report.metric = "test";
  report.window_size = window;
  report.support = support;
  return report;
}

TEST(MergeEstimatesTest, SumAddsValuesAndProvenance) {
  std::vector<EstimateReport> shards = {Report(10.0, 100, 8),
                                        Report(2.5, 50, 4)};
  auto merged = MergeEstimates(EstimateMergeKind::kSum, shards).ValueOrDie();
  EXPECT_DOUBLE_EQ(merged.value, 12.5);
  EXPECT_DOUBLE_EQ(merged.window_size, 150.0);
  EXPECT_EQ(merged.support, 12u);
  EXPECT_EQ(merged.metric, "test");
}

TEST(MergeEstimatesTest, WeightedMeanWeightsByWindowSize) {
  std::vector<EstimateReport> shards = {Report(1.0, 300, 1),
                                        Report(5.0, 100, 1)};
  auto merged =
      MergeEstimates(EstimateMergeKind::kWeightedMean, shards).ValueOrDie();
  EXPECT_DOUBLE_EQ(merged.value, 2.0);  // (300*1 + 100*5) / 400
  // All-empty shards degrade to 0, not NaN.
  std::vector<EstimateReport> empty = {Report(3.0, 0, 0), Report(4.0, 0, 0)};
  EXPECT_DOUBLE_EQ(
      MergeEstimates(EstimateMergeKind::kWeightedMean, empty).ValueOrDie()
          .value,
      0.0);
}

// Shannon grouping rule: shard 1 holds {a:2, b:2} (H = 1 bit over n=4),
// shard 2 holds {c:4} (H = 0, n=4); the union {a:2, b:2, c:4} over n=8
// has H = 1.5 bits.
TEST(MergeEstimatesTest, EntropyFollowsGroupingRule) {
  std::vector<EstimateReport> shards = {Report(1.0, 4, 2),
                                        Report(0.0, 4, 1)};
  auto merged =
      MergeEstimates(EstimateMergeKind::kEntropy, shards).ValueOrDie();
  EXPECT_NEAR(merged.value, 1.5, 1e-12);
  // Empty shards contribute nothing (and no NaN from log2(n/0)).
  std::vector<EstimateReport> with_empty = {Report(1.0, 4, 2),
                                            Report(0.0, 4, 1),
                                            Report(0.0, 0, 0)};
  EXPECT_NEAR(
      MergeEstimates(EstimateMergeKind::kEntropy, with_empty).ValueOrDie()
          .value,
      1.5, 1e-12);
}

TEST(MergeEstimatesTest, RejectsNoneKindAndEmptySpan) {
  std::vector<EstimateReport> shards = {Report(1.0, 4, 2)};
  EXPECT_FALSE(MergeEstimates(EstimateMergeKind::kNone, shards).ok());
  EXPECT_FALSE(MergeEstimates(EstimateMergeKind::kSum, {}).ok());
}

}  // namespace
}  // namespace swsample
