// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Tests for Theorem 3.9 / Lemma 3.5: timestamp-based single-sample
// maintenance. Claims verified: uniformity over the active window for
// constant-rate AND bursty arrivals (where the window size is unknowable),
// correct expiry across empty steps, Theta(log n) memory, and the internal
// state machine invariants.

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/ts_single.h"
#include "stats/tests.h"
#include "stream/workload.h"
#include "util/bits.h"

namespace swsample {
namespace {

TEST(TsSingleTest, CreateValidation) {
  EXPECT_FALSE(TsSingleSampler::Create(0, 1).ok());
  EXPECT_TRUE(TsSingleSampler::Create(10, 1).ok());
}

TEST(TsSingleTest, EmptyUntilFirstInsert) {
  auto s = TsSingleSampler::Create(10, 1).ValueOrDie();
  EXPECT_FALSE(s.SampleOne().has_value());
  EXPECT_FALSE(s.has_active());
}

TEST(TsSingleTest, SingleElementWindow) {
  auto s = TsSingleSampler::Create(10, 2).ValueOrDie();
  s.Observe(Item{7, 0, 100});
  auto sample = s.SampleOne();
  ASSERT_TRUE(sample.has_value());
  EXPECT_EQ(sample->index, 0u);
}

TEST(TsSingleTest, ExpiryByClockAlone) {
  auto s = TsSingleSampler::Create(10, 3).ValueOrDie();
  s.Observe(Item{7, 0, 100});
  s.AdvanceTime(109);
  EXPECT_TRUE(s.SampleOne().has_value());  // 109 - 100 < 10
  s.AdvanceTime(110);
  EXPECT_FALSE(s.SampleOne().has_value());  // exactly t0 old: expired
}

TEST(TsSingleTest, RestartAfterEmpty) {
  auto s = TsSingleSampler::Create(5, 4).ValueOrDie();
  s.Observe(Item{1, 0, 0});
  s.AdvanceTime(100);
  EXPECT_FALSE(s.has_active());
  s.Observe(Item{2, 1, 100});
  auto sample = s.SampleOne();
  ASSERT_TRUE(sample.has_value());
  EXPECT_EQ(sample->index, 1u);
}

TEST(TsSingleTest, PreExpiredInsertIsSkipped) {
  // Lemma 4.1: a delayed element already outside the window must not
  // poison an empty structure.
  auto s = TsSingleSampler::Create(5, 5).ValueOrDie();
  s.AdvanceTime(100);
  s.Insert(Item{1, 0, 90});  // expired (100 - 90 >= 5)
  EXPECT_FALSE(s.has_active());
  s.Insert(Item{2, 1, 98});  // active
  ASSERT_TRUE(s.has_active());
  EXPECT_EQ(s.SampleOne()->index, 1u);
}

TEST(TsSingleTest, SampleAlwaysActive) {
  // Long bursty run: every query must return an element inside the window.
  auto stream =
      WorkloadGenerator::Create("poisson,lambda=3,domain=1000", 42)
          .ValueOrDie();
  const Timestamp t0 = 25;
  auto s = TsSingleSampler::Create(t0, 6).ValueOrDie();
  for (Timestamp t = 0; t < 3000; ++t) {
    for (const Item& item : stream->Step()) s.Observe(item);
    s.AdvanceTime(t);
    ASSERT_TRUE(s.CheckInvariants()) << "t=" << t;
    auto sample = s.SampleOne();
    if (sample) {
      EXPECT_LT(t - sample->timestamp, t0) << "expired sample at t=" << t;
    }
  }
}

TEST(TsSingleTest, InvariantsUnderAdversarialBursts) {
  // Doubling bursts then a silent gap then more bursts.
  auto s = TsSingleSampler::Create(8, 7).ValueOrDie();
  uint64_t index = 0;
  Timestamp t = 0;
  auto burst = [&](uint64_t count) {
    for (uint64_t i = 0; i < count; ++i) {
      s.Observe(Item{index, index, t});
      ++index;
    }
    ++t;
  };
  for (uint64_t c : {64u, 32u, 16u, 8u, 4u, 2u, 1u, 1u, 1u}) burst(c);
  ASSERT_TRUE(s.CheckInvariants());
  t += 20;  // silence: everything expires
  s.AdvanceTime(t);
  EXPECT_FALSE(s.has_active());
  for (uint64_t c : {5u, 0u, 9u, 0u, 0u, 3u}) burst(c);
  ASSERT_TRUE(s.CheckInvariants());
  EXPECT_TRUE(s.has_active());
}

// Uniformity for a FIXED stream over algorithm randomness.
void CheckUniformOverWindow(double lambda, Timestamp horizon, Timestamp t0,
                            uint64_t seed, int trials) {
  // Materialize one stream.
  WorkloadSpec spec;
  spec.arrivals = WorkloadArrivals::kPoisson;
  spec.lambda = lambda;
  spec.domain = 1 << 20;
  auto stream = WorkloadGenerator::Create(spec, seed).ValueOrDie();
  std::vector<Item> items;
  for (Timestamp t = 0; t < horizon; ++t) {
    for (const Item& item : stream->Step()) items.push_back(item);
  }
  // Active set at the end.
  std::vector<uint64_t> active;  // indices
  for (const Item& item : items) {
    if (horizon - 1 - item.timestamp < t0) active.push_back(item.index);
  }
  ASSERT_GE(active.size(), 2u);
  const uint64_t lo = active.front();
  std::vector<uint64_t> counts(active.size(), 0);
  for (int trial = 0; trial < trials; ++trial) {
    auto s = TsSingleSampler::Create(t0, seed * 131 + trial).ValueOrDie();
    for (const Item& item : items) s.Observe(item);
    s.AdvanceTime(horizon - 1);
    auto sample = s.SampleOne();
    ASSERT_TRUE(sample.has_value());
    ASSERT_GE(sample->index, lo);
    ++counts[sample->index - lo];
  }
  auto result = ChiSquareUniform(counts);
  EXPECT_GT(result.p_value, 1e-4)
      << "lambda=" << lambda << " t0=" << t0 << " stat=" << result.statistic
      << " window=" << active.size();
}

TEST(TsSingleTest, UniformConstantish) {
  CheckUniformOverWindow(/*lambda=*/1.5, /*horizon=*/60, /*t0=*/12,
                         /*seed=*/11, /*trials=*/30000);
}

TEST(TsSingleTest, UniformBursty) {
  CheckUniformOverWindow(/*lambda=*/4.0, /*horizon=*/50, /*t0=*/7,
                         /*seed=*/13, /*trials=*/30000);
}

TEST(TsSingleTest, UniformLongWindow) {
  CheckUniformOverWindow(/*lambda=*/1.0, /*horizon=*/80, /*t0=*/40,
                         /*seed=*/17, /*trials=*/30000);
}

TEST(TsSingleTest, UniformOnePerStep) {
  // Rate exactly 1/step: active window has exactly t0 elements.
  const Timestamp t0 = 16;
  const Timestamp horizon = 100;
  const int trials = 30000;
  std::vector<uint64_t> counts(t0, 0);
  for (int trial = 0; trial < trials; ++trial) {
    auto s = TsSingleSampler::Create(t0, 7000 + trial).ValueOrDie();
    for (Timestamp t = 0; t < horizon; ++t) {
      s.Observe(Item{static_cast<uint64_t>(t), static_cast<uint64_t>(t), t});
    }
    auto sample = s.SampleOne();
    ASSERT_TRUE(sample.has_value());
    const uint64_t lo = static_cast<uint64_t>(horizon - t0);
    ASSERT_GE(sample->index, lo);
    ++counts[sample->index - lo];
  }
  auto result = ChiSquareUniform(counts);
  EXPECT_GT(result.p_value, 1e-4) << "stat=" << result.statistic;
}

TEST(TsSingleTest, MemoryIsLogarithmic) {
  // n active elements with one burst per step: structures must stay
  // O(log n) even as n reaches 2^14.
  const Timestamp t0 = 1 << 14;
  auto s = TsSingleSampler::Create(t0, 23).ValueOrDie();
  uint64_t max_structures = 0;
  uint64_t index = 0;
  for (Timestamp t = 0; t < (1 << 15); ++t) {
    s.Observe(Item{index, index, t});
    ++index;
    max_structures = std::max(max_structures, s.StructureCount());
  }
  EXPECT_LE(max_structures, 2 * FloorLog2(1 << 15) + 3);
  EXPECT_GE(max_structures, FloorLog2(1 << 14) / 2);
}

TEST(TsSingleTest, MemoryDropsWhenWindowShrinks) {
  const Timestamp t0 = 100;
  auto s = TsSingleSampler::Create(t0, 29).ValueOrDie();
  uint64_t index = 0;
  // Big burst at t=0 ...
  for (int i = 0; i < 4096; ++i) s.Observe(Item{index, index++, 0});
  const uint64_t words_full = s.MemoryWords();
  // ... wait until it all expires with a trickle arriving.
  for (Timestamp t = 1; t < 150; ++t) s.Observe(Item{index, index++, t});
  const uint64_t words_after = s.MemoryWords();
  EXPECT_LT(words_after, words_full);
  ASSERT_TRUE(s.CheckInvariants());
}

TEST(TsSingleTest, BatchSameTimestamp) {
  // Many items with one shared timestamp must all be sampleable.
  const int trials = 20000;
  const uint64_t burst = 10;
  std::vector<uint64_t> counts(burst, 0);
  for (int trial = 0; trial < trials; ++trial) {
    auto s = TsSingleSampler::Create(5, 31000 + trial).ValueOrDie();
    for (uint64_t i = 0; i < burst; ++i) s.Observe(Item{i, i, 7});
    auto sample = s.SampleOne();
    ASSERT_TRUE(sample.has_value());
    ++counts[sample->index];
  }
  auto result = ChiSquareUniform(counts);
  EXPECT_GT(result.p_value, 1e-4) << "stat=" << result.statistic;
}

}  // namespace
}  // namespace swsample
