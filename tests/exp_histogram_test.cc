// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Tests for the DGIM exponential histogram: the (1 +/- eps) window-count
// guarantee under constant-rate and bursty arrivals, logarithmic bucket
// growth, and expiry across silence.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>

#include <gtest/gtest.h>

#include "stream/exp_histogram.h"
#include "stream/workload.h"
#include "util/bits.h"
#include "util/rng.h"

namespace swsample {
namespace {

TEST(ExpHistogramTest, CreateValidation) {
  EXPECT_FALSE(ExpHistogram::Create(0, 0.1).ok());
  EXPECT_FALSE(ExpHistogram::Create(10, 0.0).ok());
  EXPECT_FALSE(ExpHistogram::Create(10, 1.5).ok());
  EXPECT_TRUE(ExpHistogram::Create(10, 1.0).ok());
}

TEST(ExpHistogramTest, ExactForTinyCounts) {
  auto h = ExpHistogram::Create(100, 0.1).ValueOrDie();
  EXPECT_EQ(h.Estimate(), 0u);
  h.Add(0);
  EXPECT_EQ(h.Estimate(), 1u);
  h.Add(1);
  h.Add(2);
  EXPECT_EQ(h.Estimate(), 3u);
}

TEST(ExpHistogramTest, AllExpire) {
  auto h = ExpHistogram::Create(5, 0.2).ValueOrDie();
  for (Timestamp t = 0; t < 20; ++t) h.Add(t);
  EXPECT_GT(h.Estimate(), 0u);
  h.AdvanceTime(100);
  EXPECT_EQ(h.Estimate(), 0u);
  EXPECT_EQ(h.BucketCount(), 0u);
}

void CheckRelativeError(double eps, double lambda, Timestamp t0,
                        uint64_t seed) {
  auto h = ExpHistogram::Create(t0, eps).ValueOrDie();
  WorkloadSpec spec;
  spec.arrivals = WorkloadArrivals::kPoisson;
  spec.lambda = lambda;
  spec.domain = 16;
  auto stream = WorkloadGenerator::Create(spec, seed).ValueOrDie();
  std::deque<Timestamp> exact;  // timestamps of active arrivals
  for (Timestamp t = 0; t < 6 * t0; ++t) {
    for (const Item& item : stream->Step()) {
      h.Add(item.timestamp);
      exact.push_back(item.timestamp);
    }
    h.AdvanceTime(t);
    while (!exact.empty() && t - exact.front() >= t0) exact.pop_front();
    const double truth = static_cast<double>(exact.size());
    const double got = static_cast<double>(h.Estimate());
    if (truth >= 8) {
      EXPECT_LE(std::fabs(got - truth), eps * truth + 1.0)
          << "t=" << t << " truth=" << truth << " got=" << got;
    }
  }
}

TEST(ExpHistogramTest, RelativeErrorEps20) {
  CheckRelativeError(0.2, 4.0, 200, 1);
}
TEST(ExpHistogramTest, RelativeErrorEps10) {
  CheckRelativeError(0.1, 8.0, 300, 2);
}
TEST(ExpHistogramTest, RelativeErrorEps5Bursty) {
  CheckRelativeError(0.05, 20.0, 150, 3);
}

TEST(ExpHistogramTest, BucketCountLogarithmic) {
  auto h = ExpHistogram::Create(1 << 16, 0.1).ValueOrDie();
  for (Timestamp t = 0; t < (1 << 16); ++t) h.Add(t);
  // O(eps^-1 log n): k/2+2 = 7 per size class, ~17 classes.
  EXPECT_LE(h.BucketCount(), 7u * 18u);
  EXPECT_GE(h.BucketCount(), 17u);
}

TEST(ExpHistogramTest, MemoryWordsTracksBuckets) {
  auto h = ExpHistogram::Create(1000, 0.25).ValueOrDie();
  for (Timestamp t = 0; t < 500; ++t) h.Add(t);
  EXPECT_EQ(h.MemoryWords(), 3 + h.BucketCount() * 2);
}

TEST(ExpHistogramTest, BurstAtOneTimestamp) {
  auto h = ExpHistogram::Create(10, 0.1).ValueOrDie();
  for (int i = 0; i < 10000; ++i) h.Add(50);
  const double got = static_cast<double>(h.Estimate());
  EXPECT_NEAR(got, 10000.0, 0.1 * 10000.0);
  h.AdvanceTime(59);
  EXPECT_GT(h.Estimate(), 0u);
  h.AdvanceTime(60);
  EXPECT_EQ(h.Estimate(), 0u);
}

// Long steady-state run: the ring-backed bucket list cycles through many
// evict/append/merge rounds (head wraps repeatedly) and the estimate must
// honor the eps bound in every window position, not just the first fill.
TEST(ExpHistogramTest, SteadyStateCyclingHonorsEps) {
  const Timestamp t0 = 512;
  const double eps = 0.1;
  auto h = ExpHistogram::Create(t0, eps).ValueOrDie();
  uint64_t arrivals = 0;
  Rng rng(2024);
  std::deque<Timestamp> window;  // reference arrival times
  for (Timestamp t = 0; t < 20 * t0; ++t) {
    const uint64_t burst = rng.UniformIndex(3);
    for (uint64_t b = 0; b < burst; ++b) {
      h.Add(t);
      window.push_back(t);
      ++arrivals;
    }
    h.AdvanceTime(t);
    while (!window.empty() && t - window.front() >= t0) window.pop_front();
    const double exact = static_cast<double>(window.size());
    const double estimate = static_cast<double>(h.Estimate());
    if (exact >= 8) {
      EXPECT_LE(std::fabs(estimate - exact), eps * exact + 1.0)
          << "t=" << t << " exact=" << exact << " got=" << estimate;
    }
  }
  ASSERT_GT(arrivals, t0);
}

}  // namespace
}  // namespace swsample
