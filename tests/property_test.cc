// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Parameterized property sweeps (TEST_P) over (n, k) and (t0, k, lambda)
// grids. For each configuration the invariants that must hold at EVERY
// stream position are re-checked:
//   P1  sample size == k (WR) or min(k, window) (WOR);
//   P2  all sampled items active, WOR samples distinct;
//   P3  memory within the deterministic bound of the matching theorem;
//   P4  per-element inclusion frequencies uniform (coarse chi-square).

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/seq_swor.h"
#include "core/seq_swr.h"
#include "core/ts_swor.h"
#include "core/ts_swr.h"
#include "stats/tests.h"
#include "stream/workload.h"
#include "util/bits.h"

namespace swsample {
namespace {

// ---------------------------------------------------------------- sequence

class SeqSweep : public ::testing::TestWithParam<std::tuple<uint64_t, uint64_t>> {};

TEST_P(SeqSweep, SwrInvariantsHoldEverywhere) {
  const auto [n, k] = GetParam();
  auto s = SequenceSwrSampler::Create(n, k, n * 1000 + k).ValueOrDie();
  const uint64_t kBound = 2 + k * (2 * kWordsPerItem + 2);  // O(k) formula
  for (uint64_t i = 0; i < 6 * n + 5; ++i) {
    s->Observe(Item{i, i, static_cast<Timestamp>(i)});
    auto sample = s->Sample();
    ASSERT_EQ(sample.size(), k);                                   // P1
    const uint64_t lo = (i + 1 > n) ? i + 1 - n : 0;
    for (const Item& item : sample) {                              // P2
      ASSERT_GE(item.index, lo);
      ASSERT_LE(item.index, i);
    }
    ASSERT_LE(s->MemoryWords(), kBound);                           // P3
  }
}

TEST_P(SeqSweep, SworInvariantsHoldEverywhere) {
  const auto [n, k] = GetParam();
  if (k > n) GTEST_SKIP() << "SWOR requires k <= n";
  auto s = SequenceSworSampler::Create(n, k, n * 999 + k).ValueOrDie();
  const uint64_t kBound = 4 + 2 * k * kWordsPerItem + 2;
  for (uint64_t i = 0; i < 6 * n + 5; ++i) {
    s->Observe(Item{i, i, static_cast<Timestamp>(i)});
    auto sample = s->Sample();
    const uint64_t expect = std::min(k, i + 1);
    ASSERT_EQ(sample.size(), expect);                              // P1
    const uint64_t lo = (i + 1 > n) ? i + 1 - n : 0;
    std::set<uint64_t> idx;
    for (const Item& item : sample) {                              // P2
      ASSERT_GE(item.index, lo);
      ASSERT_LE(item.index, i);
      idx.insert(item.index);
    }
    ASSERT_EQ(idx.size(), sample.size());
    ASSERT_LE(s->MemoryWords(), kBound);                           // P3
  }
}

TEST_P(SeqSweep, SwrInclusionFrequenciesUniform) {
  const auto [n, k] = GetParam();
  if (n > 64) GTEST_SKIP() << "chi-square sweep kept to small windows";
  const int trials = 8000;
  const uint64_t len = 2 * n + n / 2 + 1;
  std::vector<uint64_t> counts(n, 0);
  for (int t = 0; t < trials; ++t) {
    auto s =
        SequenceSwrSampler::Create(n, k, t * 31 + n * 7 + k).ValueOrDie();
    for (uint64_t i = 0; i < len; ++i) {
      s->Observe(Item{i, i, static_cast<Timestamp>(i)});
    }
    for (const Item& item : s->Sample()) ++counts[item.index - (len - n)];
  }
  auto result = ChiSquareUniform(counts);                          // P4
  EXPECT_GT(result.p_value, 1e-5)
      << "n=" << n << " k=" << k << " stat=" << result.statistic;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SeqSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 8, 16, 64, 257),
                       ::testing::Values(1, 2, 7, 16)),
    [](const auto& param_info) {
      std::string name = "n";
      name += std::to_string(std::get<0>(param_info.param));
      name += "_k";
      name += std::to_string(std::get<1>(param_info.param));
      return name;
    });

// --------------------------------------------------------------- timestamp

class TsSweep
    : public ::testing::TestWithParam<std::tuple<int64_t, uint64_t, double>> {
};

// Poisson(lambda) bursts of uniform values over [0, 2^16).
std::unique_ptr<WorkloadGenerator> PoissonStream(double lambda,
                                                 uint64_t seed) {
  WorkloadSpec spec;
  spec.arrivals = WorkloadArrivals::kPoisson;
  spec.lambda = lambda;
  spec.domain = 1 << 16;
  return WorkloadGenerator::Create(spec, seed).ValueOrDie();
}

TEST_P(TsSweep, SwrInvariantsHoldEverywhere) {
  const auto [t0, k, lambda] = GetParam();
  auto stream = PoissonStream(lambda, static_cast<uint64_t>(t0) * 100 + k);
  auto s = TsSwrSampler::Create(t0, k, k * 17 + 5).ValueOrDie();
  uint64_t active = 0;
  uint64_t max_active = 0;
  std::vector<Item> window;
  for (Timestamp t = 0; t < 400; ++t) {
    for (const Item& item : stream->Step()) {
      s->Observe(item);
      window.push_back(item);
    }
    s->AdvanceTime(t);
    // Trim the oracle window.
    std::erase_if(window,
                  [&](const Item& item) { return t - item.timestamp >= t0; });
    active = window.size();
    max_active = std::max(max_active, active);
    auto sample = s->Sample();
    if (active == 0) {
      ASSERT_TRUE(sample.empty()) << "t=" << t;
      continue;
    }
    ASSERT_EQ(sample.size(), k) << "t=" << t;                      // P1
    for (const Item& item : sample) {                              // P2
      ASSERT_LT(t - item.timestamp, t0);
    }
  }
  // P3: deterministic O(k log n) bound; max_active bounds n.
  if (max_active >= 2) {
    const uint64_t bound =
        2 + k * (6 + 2 * (2 * FloorLog2(max_active) + 2) *
                         BucketStructure::kWords);
    EXPECT_LE(s->MemoryWords(), bound);
  }
}

TEST_P(TsSweep, SworInvariantsHoldEverywhere) {
  const auto [t0, k, lambda] = GetParam();
  auto stream = PoissonStream(lambda, static_cast<uint64_t>(t0) * 131 + k);
  auto s = TsSworSampler::Create(t0, k, k * 13 + 3).ValueOrDie();
  std::vector<Item> window;
  for (Timestamp t = 0; t < 400; ++t) {
    for (const Item& item : stream->Step()) {
      s->Observe(item);
      window.push_back(item);
    }
    s->AdvanceTime(t);
    std::erase_if(window,
                  [&](const Item& item) { return t - item.timestamp >= t0; });
    const uint64_t active = window.size();
    auto sample = s->Sample();
    ASSERT_EQ(sample.size(), std::min<uint64_t>(k, active)) << "t=" << t;
    std::set<uint64_t> idx;
    for (const Item& item : sample) {
      ASSERT_LT(t - item.timestamp, t0);
      idx.insert(item.index);
    }
    ASSERT_EQ(idx.size(), sample.size()) << "t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TsSweep,
    ::testing::Combine(::testing::Values<int64_t>(1, 2, 5, 17, 50),
                       ::testing::Values<uint64_t>(1, 2, 5, 8),
                       ::testing::Values(0.5, 2.0, 8.0)),
    [](const auto& param_info) {
      return "t0_" + std::to_string(std::get<0>(param_info.param)) + "_k" +
             std::to_string(std::get<1>(param_info.param)) + "_lam" +
             std::to_string(
                 static_cast<int>(std::get<2>(param_info.param) * 10));
    });

}  // namespace
}  // namespace swsample
