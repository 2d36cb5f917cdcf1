// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Tests for Theorem 4.4 (and the TsSwr wrapper of Theorem 3.9): timestamp-
// based k-sampling. For the without-replacement reduction the claims are:
// k DISTINCT active elements whenever n >= k, the exact window when n < k,
// all C(n, k) subsets equiprobable, and O(k log n) memory.

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/ts_swor.h"
#include "core/ts_swr.h"
#include "stats/tests.h"
#include "stream/workload.h"
#include "util/bits.h"

namespace swsample {
namespace {

TEST(TsSwrTest, CreateValidation) {
  EXPECT_FALSE(TsSwrSampler::Create(0, 1, 1).ok());
  EXPECT_FALSE(TsSwrSampler::Create(5, 0, 1).ok());
  EXPECT_TRUE(TsSwrSampler::Create(5, 3, 1).ok());
}

TEST(TsSwrTest, ReturnsKSamplesAllActive) {
  auto s = TsSwrSampler::Create(10, 4, 2).ValueOrDie();
  for (Timestamp t = 0; t < 100; ++t) {
    s->Observe(Item{static_cast<uint64_t>(t), static_cast<uint64_t>(t), t});
    auto sample = s->Sample();
    ASSERT_EQ(sample.size(), 4u);
    for (const Item& item : sample) EXPECT_LT(t - item.timestamp, 10);
  }
}

TEST(TsSwrTest, UnitsJointlyUniform) {
  // Two units over a 4-element window: 16 pairs equiprobable.
  const int trials = 64000;
  std::vector<uint64_t> counts(16, 0);
  for (int trial = 0; trial < trials; ++trial) {
    auto s = TsSwrSampler::Create(4, 2, 500 + trial).ValueOrDie();
    for (Timestamp t = 0; t < 10; ++t) {
      s->Observe(Item{static_cast<uint64_t>(t), static_cast<uint64_t>(t), t});
    }
    auto sample = s->Sample();
    ASSERT_EQ(sample.size(), 2u);
    const uint64_t a = sample[0].index - 6, b = sample[1].index - 6;
    ++counts[a * 4 + b];
  }
  auto result = ChiSquareUniform(counts);
  EXPECT_GT(result.p_value, 1e-4) << "stat=" << result.statistic;
}

TEST(TsSworTest, CreateValidation) {
  EXPECT_FALSE(TsSworSampler::Create(0, 1, 1).ok());
  EXPECT_FALSE(TsSworSampler::Create(5, 0, 1).ok());
  EXPECT_TRUE(TsSworSampler::Create(5, 3, 1).ok());
}

TEST(TsSworTest, SmallWindowReturnsExactContents) {
  // n < k: the sample must be exactly the active set.
  auto s = TsSworSampler::Create(4, 6, 3).ValueOrDie();
  for (Timestamp t = 0; t < 30; ++t) {
    s->Observe(Item{static_cast<uint64_t>(t), static_cast<uint64_t>(t), t});
    auto sample = s->Sample();
    // Window holds min(t+1, 4) elements, always < k = 6.
    const uint64_t expect = std::min<uint64_t>(t + 1, 4);
    ASSERT_EQ(sample.size(), expect) << "t=" << t;
    std::set<uint64_t> idx;
    for (const Item& item : sample) idx.insert(item.index);
    EXPECT_EQ(idx.size(), expect);
    for (const Item& item : sample) EXPECT_LT(t - item.timestamp, 4);
  }
}

TEST(TsSworTest, KDistinctActiveWhenWindowLarge) {
  auto s = TsSworSampler::Create(20, 5, 4).ValueOrDie();
  for (Timestamp t = 0; t < 200; ++t) {
    s->Observe(Item{static_cast<uint64_t>(t), static_cast<uint64_t>(t), t});
    if (t < 5) continue;
    auto sample = s->Sample();
    ASSERT_EQ(sample.size(), 5u) << "t=" << t;
    std::set<uint64_t> idx;
    for (const Item& item : sample) {
      EXPECT_LT(t - item.timestamp, 20) << "t=" << t;
      idx.insert(item.index);
    }
    EXPECT_EQ(idx.size(), 5u) << "duplicates at t=" << t;
  }
}

TEST(TsSworTest, DistinctUnderBursts) {
  auto stream =
      WorkloadGenerator::Create("poisson,lambda=2.5,domain=1048576", 77)
          .ValueOrDie();
  auto s = TsSworSampler::Create(15, 4, 5).ValueOrDie();
  uint64_t active_total = 0;
  for (Timestamp t = 0; t < 2000; ++t) {
    for (const Item& item : stream->Step()) s->Observe(item);
    s->AdvanceTime(t);
    auto sample = s->Sample();
    std::set<uint64_t> idx;
    for (const Item& item : sample) {
      EXPECT_LT(t - item.timestamp, 15);
      idx.insert(item.index);
    }
    EXPECT_EQ(idx.size(), sample.size()) << "t=" << t;
    active_total += sample.size();
  }
  EXPECT_GT(active_total, 0u);
}

TEST(TsSworTest, SubsetsUniformOnePerStep) {
  // Window = last 6 arrivals (rate 1), k = 2: all 15 pairs equiprobable.
  const Timestamp t0 = 6;
  const uint64_t k = 2;
  const int trials = 60000;
  std::map<std::vector<uint64_t>, uint64_t> counts;
  for (int trial = 0; trial < trials; ++trial) {
    auto s = TsSworSampler::Create(t0, k, 900 + trial).ValueOrDie();
    for (Timestamp t = 0; t < 17; ++t) {
      s->Observe(Item{static_cast<uint64_t>(t), static_cast<uint64_t>(t), t});
    }
    auto sample = s->Sample();
    ASSERT_EQ(sample.size(), k);
    std::vector<uint64_t> key;
    for (const Item& item : sample) key.push_back(item.index);
    std::sort(key.begin(), key.end());
    ++counts[key];
  }
  ASSERT_EQ(counts.size(), 15u);  // C(6,2)
  std::vector<uint64_t> flat;
  for (const auto& [key, c] : counts) flat.push_back(c);
  auto result = ChiSquareUniform(flat);
  EXPECT_GT(result.p_value, 1e-4) << "stat=" << result.statistic;
}

TEST(TsSworTest, SubsetsUniformUnderFixedBurstyStream) {
  // A fixed bursty stream; uniformity over algorithm randomness.
  const Timestamp t0 = 5;
  const uint64_t k = 2;
  std::vector<Item> items;
  uint64_t index = 0;
  Timestamp now = 0;
  for (uint64_t burst : {3u, 1u, 0u, 2u, 1u, 2u}) {
    for (uint64_t i = 0; i < burst; ++i) {
      items.push_back(Item{index, index, now});
      ++index;
    }
    ++now;
  }
  const Timestamp end = now - 1;
  std::vector<uint64_t> active;
  for (const Item& item : items) {
    if (end - item.timestamp < t0) active.push_back(item.index);
  }
  ASSERT_EQ(active.size(), 6u);  // bursts at t=1..5: 1+0+2+1+2 = 6
  const int trials = 60000;
  std::map<std::vector<uint64_t>, uint64_t> counts;
  for (int trial = 0; trial < trials; ++trial) {
    auto s = TsSworSampler::Create(t0, k, 40000 + trial).ValueOrDie();
    for (const Item& item : items) s->Observe(item);
    s->AdvanceTime(end);
    auto sample = s->Sample();
    ASSERT_EQ(sample.size(), k);
    std::vector<uint64_t> key;
    for (const Item& item : sample) key.push_back(item.index);
    std::sort(key.begin(), key.end());
    ++counts[key];
  }
  ASSERT_EQ(counts.size(), 15u);
  std::vector<uint64_t> flat;
  for (const auto& [key, c] : counts) flat.push_back(c);
  auto result = ChiSquareUniform(flat);
  EXPECT_GT(result.p_value, 1e-4) << "stat=" << result.statistic;
}

TEST(TsSworTest, PerElementInclusionUniform) {
  // Marginal inclusion k/n over a window of 8, k = 3.
  const Timestamp t0 = 8;
  const int trials = 40000;
  std::vector<uint64_t> counts(t0, 0);
  for (int trial = 0; trial < trials; ++trial) {
    auto s = TsSworSampler::Create(t0, 3, 7000 + trial).ValueOrDie();
    for (Timestamp t = 0; t < 19; ++t) {
      s->Observe(Item{static_cast<uint64_t>(t), static_cast<uint64_t>(t), t});
    }
    for (const Item& item : s->Sample()) {
      ++counts[item.index - (19 - t0)];
    }
  }
  auto result = ChiSquareUniform(counts);
  EXPECT_GT(result.p_value, 1e-4) << "stat=" << result.statistic;
}

TEST(TsSworTest, MemoryIsKLogN) {
  const Timestamp t0 = 1 << 12;
  const uint64_t k = 8;
  auto s = TsSworSampler::Create(t0, k, 6).ValueOrDie();
  uint64_t max_words = 0;
  uint64_t index = 0;
  for (Timestamp t = 0; t < (1 << 13); ++t) {
    s->Observe(Item{index, index, t});
    ++index;
    max_words = std::max(max_words, s->MemoryWords());
  }
  // Very generous constant, but must scale like k log n, far below k*n.
  const uint64_t log_n = FloorLog2(t0);
  EXPECT_LE(max_words, 40 * k * log_n);
  EXPECT_GE(max_words, k * log_n / 4);
}

TEST(TsSworTest, AllExpireThenResume) {
  auto s = TsSworSampler::Create(3, 4, 7).ValueOrDie();
  uint64_t index = 0;
  for (Timestamp t = 0; t < 10; ++t) s->Observe(Item{index, index++, t});
  s->AdvanceTime(100);
  EXPECT_TRUE(s->Sample().empty());
  for (Timestamp t = 100; t < 110; ++t) s->Observe(Item{index, index++, t});
  auto sample = s->Sample();
  EXPECT_EQ(sample.size(), 3u);  // window of 3 at rate 1 < k=4 -> exact
}

}  // namespace
}  // namespace swsample
