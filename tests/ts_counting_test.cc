// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Tests for the timestamp-window payload tracker and the timestamp halves
// of Corollaries 5.2/5.4 behind the estimator registry: forward counts
// must be exact for the sampled position, candidates must survive merges
// and re-straddling (item-wise AND batched), and F_k / entropy estimates
// must track the exact windowed value with the extra (1 +/- eps) count
// factor — including under bursty arrivals with AdvanceTime-only steps.

#include <cmath>
#include <cstdint>
#include <deque>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/estimator_registry.h"
#include "apps/payload_substrate.h"
#include "stats/exact.h"
#include "stream/workload.h"
#include "util/rng.h"

namespace swsample {
namespace {

TsForwardCountUnit MakeUnit(Timestamp t0, uint64_t seed) {
  return TsForwardCountUnit(t0, seed, CountOnSampled{}, CountOnArrival{});
}

TEST(TsForwardCountTest, CountsExactOnFixedStream) {
  // One-per-step arrivals with known values; whatever position is sampled,
  // the reported count must equal the true forward occurrence count.
  const std::vector<uint64_t> values = {1, 2, 1, 3, 1, 2, 2, 1, 3, 1,
                                        2, 1, 1, 3, 2, 1, 2, 3, 3, 1};
  for (int trial = 0; trial < 300; ++trial) {
    auto unit = MakeUnit(/*t0=*/12, Rng::ForkSeed(100, trial));
    for (uint64_t i = 0; i < values.size(); ++i) {
      unit.Observe(Item{values[i], i, static_cast<Timestamp>(i)});
    }
    auto s = unit.Sample();
    ASSERT_TRUE(s.has_value());
    uint64_t expected = 0;
    for (uint64_t j = s->item.index; j < values.size(); ++j) {
      expected += (values[j] == values[s->item.index]);
    }
    EXPECT_EQ(s->payload.count, expected)
        << "sampled index " << s->item.index;
  }
}

/// Same-timestamp runs of 16-20 items (at or above the batch path's
/// ExtendRun cutover of 16), singleton stretches, and idle gaps longer
/// than t0 that empty the window, ending in a straddle: batched feeding
/// reaches ExtendRun, expiry boundaries and re-straddling under payloads.
std::vector<Item> BurstyItems(Timestamp t0, uint64_t value_domain,
                              uint64_t seed) {
  struct Segment {
    Timestamp gap;  // clock step before the segment's first item
    uint64_t run;   // items sharing the segment's timestamp
  };
  const Segment segments[] = {{0, 20},      {1, 1},  {1, 1},  {1, 1},
                              {t0 + 1, 17}, {1, 1},  {1, 1},  {t0 + 2, 18},
                              {1, 1},       {1, 1},  {1, 1},  {1, 1},
                              {1, 1},       {3, 16}, {9, 2}};
  Rng rng(seed);
  std::vector<Item> items;
  Timestamp ts = 0;
  for (const Segment& segment : segments) {
    ts += segment.gap;
    for (uint64_t i = 0; i < segment.run; ++i) {
      items.push_back(Item{rng.UniformIndex(value_domain), items.size(), ts});
    }
  }
  return items;
}

TEST(TsForwardCountTest, BatchedCountsExactOnFixedStream) {
  // The batched path runs the sampler's own batch fast path, then syncs
  // the candidate map once: survivors replay the batch, new candidates
  // replay the span after their position. The forward counts must come
  // out exact at every ragged batch size, on a ts = index stream and on a
  // bursty one (batch 24 is longer than any run).
  const std::vector<uint64_t> values = {1, 2, 1, 3, 1, 2, 2, 1, 3, 1,
                                        2, 1, 1, 3, 2, 1, 2, 3, 3, 1};
  std::vector<Item> indexed;
  for (uint64_t i = 0; i < values.size(); ++i) {
    indexed.push_back(Item{values[i], i, static_cast<Timestamp>(i)});
  }
  const Timestamp t0 = 12;
  const std::vector<Item> bursty = BurstyItems(t0, 3, /*seed=*/41);
  const std::vector<Item>* const streams[] = {&indexed, &bursty};
  for (const std::vector<Item>* items : streams) {
    for (uint64_t batch : {1u, 3u, 7u, 20u, 24u}) {
      for (int trial = 0; trial < 100; ++trial) {
        auto unit = MakeUnit(t0, Rng::ForkSeed(4000 + batch, trial));
        for (uint64_t pos = 0; pos < items->size(); pos += batch) {
          const uint64_t take =
              std::min<uint64_t>(batch, items->size() - pos);
          unit.ObserveBatch(
              std::span<const Item>(items->data() + pos, take));
        }
        auto s = unit.Sample();
        ASSERT_TRUE(s.has_value());
        uint64_t expected = 0;
        for (uint64_t j = s->item.index; j < items->size(); ++j) {
          expected += ((*items)[j].value == s->item.value);
        }
        EXPECT_EQ(s->payload.count, expected)
            << "stream of " << items->size() << ", batch " << batch
            << ", sampled index " << s->item.index;
      }
    }
  }
}

TEST(TsForwardCountTest, CountsSurviveExpiryRestructuring) {
  // Bursts then silence force straddle transitions; counts stay exact.
  Rng value_rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    auto unit = MakeUnit(/*t0=*/6, Rng::ForkSeed(500, trial));
    std::vector<uint64_t> values;
    uint64_t index = 0;
    Timestamp t = 0;
    for (uint64_t burst : {5u, 0u, 3u, 0u, 0u, 4u, 1u, 2u}) {
      for (uint64_t i = 0; i < burst; ++i) {
        uint64_t v = value_rng.UniformIndex(3);
        values.push_back(v);
        unit.Observe(Item{v, index++, t});
      }
      unit.AdvanceTime(t);
      ++t;
    }
    auto s = unit.Sample();
    if (!s) continue;
    uint64_t expected = 0;
    for (uint64_t j = s->item.index; j < values.size(); ++j) {
      expected += (values[j] == values[s->item.index]);
    }
    EXPECT_EQ(s->payload.count, expected);
  }
}

TEST(TsForwardCountTest, MemoryStaysLogarithmic) {
  auto unit = MakeUnit(/*t0=*/1 << 12, /*seed=*/9);
  uint64_t max_words = 0;
  for (uint64_t i = 0; i < (1 << 13); ++i) {
    unit.Observe(Item{i % 64, i, static_cast<Timestamp>(i)});
    max_words = std::max(max_words, unit.MemoryWords());
  }
  EXPECT_LT(max_words, 1000u);  // O(log n) structures + payload map
}

SinkSpec TsConfig(std::string name, Timestamp t0, uint64_t r,
                  double count_eps, uint64_t seed) {
  SinkSpec config;
  config.name = std::move(name);
  config.substrate = "bop-ts-single";
  config.window_t = t0;
  config.r = r;
  config.count_eps = count_eps;
  config.seed = seed;
  return config;
}

TEST(TsFkEstimatorTest, CreateValidation) {
  EXPECT_FALSE(CreateEstimator(TsConfig("ams-fk", 0, 8, 0.1, 1)).ok());
  SinkSpec bad_moment = TsConfig("ams-fk", 8, 8, 0.1, 1);
  bad_moment.moment = 0;
  EXPECT_FALSE(CreateEstimator(bad_moment).ok());
  EXPECT_FALSE(CreateEstimator(TsConfig("ams-fk", 8, 0, 0.1, 1)).ok());
  EXPECT_FALSE(CreateEstimator(TsConfig("ams-fk", 8, 8, 0.0, 1)).ok());
  EXPECT_TRUE(CreateEstimator(TsConfig("ams-fk", 8, 8, 0.1, 1)).ok());
}

TEST(TsFkEstimatorTest, EmptyWindowEstimatesZero) {
  auto est = CreateEstimator(TsConfig("ams-fk", 5, 8, 0.1, 2)).ValueOrDie();
  EXPECT_DOUBLE_EQ(est->Estimate().value, 0.0);
  est->Observe(Item{1, 0, 0});
  est->AdvanceTime(100);
  EXPECT_DOUBLE_EQ(est->Estimate().value, 0.0);
}

TEST(TsFkEstimatorTest, F1TracksWindowSizeUnderBurst) {
  // F1 = n; with the AMS telescoping at moment 1 the per-unit estimate is
  // exactly the histogram's n-hat, so the error is the EH eps alone. The
  // bursty stream with AdvanceTime-only steps exercises expiry under the
  // clock, the satellite correctness requirement.
  SinkSpec config = TsConfig("ams-fk", 64, 4, 0.05, 3);
  config.moment = 1;
  auto est = CreateEstimator(config).ValueOrDie();
  Rng rng(4);
  uint64_t index = 0;
  std::deque<Timestamp> active;
  for (Timestamp t = 0; t < 300; ++t) {
    const uint64_t burst = rng.UniformIndex(4);  // 0..3: some steps empty
    for (uint64_t i = 0; i < burst; ++i) {
      est->Observe(Item{rng.UniformIndex(100), index++, t});
      active.push_back(t);
    }
    est->AdvanceTime(t);
    while (!active.empty() && t - active.front() >= 64) active.pop_front();
  }
  EstimateReport report = est->Estimate();
  EXPECT_DOUBLE_EQ(report.value, report.window_size);
  const double exact = static_cast<double>(active.size());
  EXPECT_NEAR(report.window_size / exact, 1.0, 0.06);
}

TEST(TsEntropyEstimatorTest, CreateValidation) {
  EXPECT_FALSE(CreateEstimator(TsConfig("ccm-entropy", 0, 8, 0.1, 1)).ok());
  EXPECT_FALSE(CreateEstimator(TsConfig("ccm-entropy", 8, 0, 0.1, 1)).ok());
  EXPECT_FALSE(CreateEstimator(TsConfig("ccm-entropy", 8, 8, 0.0, 1)).ok());
  EXPECT_TRUE(CreateEstimator(TsConfig("ccm-entropy", 8, 8, 0.1, 1)).ok());
}

TEST(TsEntropyEstimatorTest, ConstantStreamNearZero) {
  auto est =
      CreateEstimator(TsConfig("ccm-entropy", 64, 2000, 0.05, 2)).ValueOrDie();
  uint64_t index = 0;
  for (Timestamp t = 0; t < 200; ++t) {
    est->Observe(Item{7, index++, t});
    est->Observe(Item{7, index++, t});
  }
  EXPECT_NEAR(est->Estimate().value, 0.0, 0.25);
}

TEST(TsEntropyEstimatorTest, CloseToExactOnZipfWindow) {
  const Timestamp t0 = 512;
  auto est =
      CreateEstimator(TsConfig("ccm-entropy", t0, 2500, 0.05, 3)).ValueOrDie();
  auto zipf =
      WorkloadGenerator::Create("constant@zipf,rate=1,domain=32,alpha=1", 4)
          .ValueOrDie();
  Rng rng(4);
  std::deque<std::pair<Timestamp, uint64_t>> window;
  uint64_t index = 0;
  for (Timestamp t = 0; t < 3 * t0; ++t) {
    const uint64_t burst = 1 + rng.UniformIndex(3);
    for (const Item& item : zipf->Take(burst)) {
      est->Observe(Item{item.value, index++, t});
      window.emplace_back(t, item.value);
    }
    est->AdvanceTime(t);
    while (!window.empty() && t - window.front().first >= t0) {
      window.pop_front();
    }
  }
  std::vector<uint64_t> values;
  for (const auto& [ts, v] : window) values.push_back(v);
  const double exact = ExactEntropy(values);
  EXPECT_NEAR(est->Estimate().value, exact, 0.15 * exact + 0.1);
}

TEST(TsFkEstimatorTest, F2CloseToExactOnSkewedWindow) {
  const Timestamp t0 = 512;
  auto est =
      CreateEstimator(TsConfig("ams-fk", t0, 1500, 0.05, 5)).ValueOrDie();
  auto zipf =
      WorkloadGenerator::Create("constant@zipf,rate=1,domain=8,alpha=1.4", 6)
          .ValueOrDie();
  Rng rng(6);
  std::deque<std::pair<Timestamp, uint64_t>> window;
  uint64_t index = 0;
  for (Timestamp t = 0; t < 3 * t0; ++t) {
    const uint64_t burst = 1 + rng.UniformIndex(3);
    for (const Item& item : zipf->Take(burst)) {
      est->Observe(Item{item.value, index++, t});
      window.emplace_back(t, item.value);
    }
    est->AdvanceTime(t);
    while (!window.empty() && t - window.front().first >= t0) {
      window.pop_front();
    }
  }
  std::vector<uint64_t> values;
  for (const auto& [ts, v] : window) values.push_back(v);
  const double exact = ExactFrequencyMoment(values, 2);
  const double estimate = est->Estimate().value;
  EXPECT_NEAR(estimate / exact, 1.0, 0.25)
      << "estimate=" << estimate << " exact=" << exact;
}

TEST(WindowCountTest, TracksActiveCountUnderBurst) {
  // window-count over the DGIM substrate vs the exact-ts oracle on the
  // same bursty stream with AdvanceTime gaps: the oracle is exact, the
  // histogram within eps.
  SinkSpec config = TsConfig("window-count", 32, 1, 0.05, 7);
  auto dgim = CreateEstimator(config).ValueOrDie();
  config.substrate = "exact-ts";
  auto oracle = CreateEstimator(config).ValueOrDie();
  Rng rng(8);
  std::deque<Timestamp> active;
  uint64_t index = 0;
  for (Timestamp t = 0; t < 400; ++t) {
    const uint64_t burst = rng.UniformIndex(5);
    for (uint64_t i = 0; i < burst; ++i) {
      const Item item{rng.UniformIndex(10), index++, t};
      dgim->Observe(item);
      oracle->Observe(item);
      active.push_back(t);
    }
    dgim->AdvanceTime(t);
    oracle->AdvanceTime(t);
    while (!active.empty() && t - active.front() >= 32) active.pop_front();
    const double exact = static_cast<double>(active.size());
    EXPECT_DOUBLE_EQ(oracle->Estimate().value, exact);
    // eps-relative plus a small additive slack: the straddling bucket's
    // half-weight rounding costs up to ~1 element at tiny counts.
    EXPECT_NEAR(dgim->Estimate().value, exact,
                std::max(0.06 * exact, 1.5))
        << "t=" << t;
  }
}

}  // namespace
}  // namespace swsample
