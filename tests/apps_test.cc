// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Tests for the Section 5 applications behind the WindowEstimator
// interface: frequency moments (Cor 5.2), entropy (Cor 5.4), triangle
// counting (Cor 5.3), step-biased sampling. Estimators are built through
// the estimator registry and checked against exact window aggregates on
// streams whose window contents we replay exactly.

#include <cmath>
#include <cstdint>
#include <deque>
#include <vector>

#include <gtest/gtest.h>

#include "apps/biased.h"
#include "apps/estimator_registry.h"
#include "apps/triangles.h"
#include "stats/exact.h"
#include "stats/tests.h"
#include "stream/workload.h"
#include "util/rng.h"

namespace swsample {
namespace {

// Replays a value stream through an estimator and an exact window buffer.
double RunOnStream(WindowEstimator& est, const std::vector<uint64_t>& values,
                   uint64_t n, std::vector<uint64_t>* window_out) {
  std::deque<uint64_t> window;
  for (uint64_t i = 0; i < values.size(); ++i) {
    est.Observe(Item{values[i], i, static_cast<Timestamp>(i)});
    window.push_back(values[i]);
    if (window.size() > n) window.pop_front();
  }
  window_out->assign(window.begin(), window.end());
  return est.Estimate().value;
}

std::vector<uint64_t> ZipfStream(uint64_t len, uint64_t domain, double alpha,
                                 uint64_t seed) {
  WorkloadSpec spec;
  spec.values = WorkloadValues::kZipf;
  spec.rate = 1;
  spec.domain = domain;
  spec.alpha = alpha;
  std::vector<uint64_t> values;
  for (const Item& item :
       WorkloadGenerator::Create(spec, seed).ValueOrDie()->Take(len)) {
    values.push_back(item.value);
  }
  return values;
}

EstimatorConfig SeqConfig(uint64_t n, uint64_t r, uint64_t seed) {
  EstimatorConfig config;
  config.substrate = "bop-seq-single";
  config.window_n = n;
  config.r = r;
  config.seed = seed;
  return config;
}

TEST(FkEstimatorTest, CreateValidation) {
  EXPECT_FALSE(CreateEstimator("ams-fk", SeqConfig(0, 10, 1)).ok());
  EstimatorConfig bad_moment = SeqConfig(8, 10, 1);
  bad_moment.moment = 0;
  EXPECT_FALSE(CreateEstimator("ams-fk", bad_moment).ok());
  EXPECT_FALSE(CreateEstimator("ams-fk", SeqConfig(8, 0, 1)).ok());
}

TEST(FkEstimatorTest, F1IsWindowSize) {
  // F_1 = sum of frequencies = window size; the AMS estimate with k=1 is
  // n * (c - (c-1)) = n exactly, with zero variance.
  EstimatorConfig config = SeqConfig(16, 4, 2);
  config.moment = 1;
  auto est = CreateEstimator("ams-fk", config).ValueOrDie();
  std::vector<uint64_t> window;
  double estimate =
      RunOnStream(*est, ZipfStream(100, 10, 1.0, 3), 16, &window);
  EXPECT_DOUBLE_EQ(estimate, 16.0);
}

TEST(FkEstimatorTest, F2CloseToExactOnSkewedWindow) {
  const uint64_t n = 256;
  auto est = CreateEstimator("ams-fk", SeqConfig(n, 2000, 4)).ValueOrDie();
  std::vector<uint64_t> window;
  double estimate =
      RunOnStream(*est, ZipfStream(3 * n, 8, 1.5, 5), n, &window);
  double exact = ExactFrequencyMoment(window, 2);
  EXPECT_NEAR(estimate / exact, 1.0, 0.15)
      << "estimate=" << estimate << " exact=" << exact;
}

TEST(FkEstimatorTest, F3CloseToExact) {
  const uint64_t n = 256;
  EstimatorConfig config = SeqConfig(n, 4000, 6);
  config.moment = 3;
  auto est = CreateEstimator("ams-fk", config).ValueOrDie();
  std::vector<uint64_t> window;
  double estimate =
      RunOnStream(*est, ZipfStream(3 * n, 6, 1.5, 7), n, &window);
  double exact = ExactFrequencyMoment(window, 3);
  EXPECT_NEAR(estimate / exact, 1.0, 0.2)
      << "estimate=" << estimate << " exact=" << exact;
}

TEST(FkEstimatorTest, UnbiasedOverManyRuns) {
  // Average the estimate over independent runs of the SAME stream: the
  // mean must converge to the exact value (unbiasedness).
  const uint64_t n = 32;
  auto values = ZipfStream(2 * n + 7, 5, 1.2, 8);
  std::vector<uint64_t> window;
  double mean = 0.0;
  const int runs = 400;
  double exact = 0.0;
  for (int r = 0; r < runs; ++r) {
    auto est = CreateEstimator(
                   "ams-fk", SeqConfig(n, 32, Rng::ForkSeed(100, r)))
                   .ValueOrDie();
    mean += RunOnStream(*est, values, n, &window);
  }
  exact = ExactFrequencyMoment(window, 2);
  mean /= runs;
  EXPECT_NEAR(mean / exact, 1.0, 0.08)
      << "mean=" << mean << " exact=" << exact;
}

TEST(FkEstimatorTest, ExactOracleSubstrateMatches) {
  // The exact-seq substrate draws positions from the buffered window; at
  // moment 1 it reports the window size exactly, like the paper substrate.
  EstimatorConfig config = SeqConfig(16, 4, 2);
  config.substrate = "exact-seq";
  config.moment = 1;
  auto est = CreateEstimator("ams-fk", config).ValueOrDie();
  std::vector<uint64_t> window;
  double estimate =
      RunOnStream(*est, ZipfStream(100, 10, 1.0, 3), 16, &window);
  EXPECT_DOUBLE_EQ(estimate, 16.0);
}

TEST(EntropyEstimatorTest, CreateValidation) {
  EXPECT_FALSE(CreateEstimator("ccm-entropy", SeqConfig(0, 10, 1)).ok());
  EXPECT_FALSE(CreateEstimator("ccm-entropy", SeqConfig(8, 0, 1)).ok());
}

TEST(EntropyEstimatorTest, ConstantStreamHasZeroEntropy) {
  // Per-unit estimates are nonzero (c log(n/c) terms), but the estimator is
  // unbiased with H = 0, so a large unit average must be near zero.
  auto est =
      CreateEstimator("ccm-entropy", SeqConfig(32, 4000, 9)).ValueOrDie();
  std::vector<uint64_t> values(100, 7);
  std::vector<uint64_t> window;
  double estimate = RunOnStream(*est, values, 32, &window);
  EXPECT_NEAR(estimate, 0.0, 0.15);
}

TEST(EntropyEstimatorTest, CloseToExactOnZipfWindow) {
  const uint64_t n = 256;
  auto est =
      CreateEstimator("ccm-entropy", SeqConfig(n, 3000, 10)).ValueOrDie();
  std::vector<uint64_t> window;
  double estimate =
      RunOnStream(*est, ZipfStream(3 * n, 16, 1.0, 11), n, &window);
  double exact = ExactEntropy(window);
  EXPECT_NEAR(estimate, exact, 0.15 * exact + 0.05)
      << "estimate=" << estimate << " exact=" << exact;
}

TEST(EntropyEstimatorTest, UniformWindowApproachesLogDomain) {
  const uint64_t n = 512;
  auto est =
      CreateEstimator("ccm-entropy", SeqConfig(n, 3000, 12)).ValueOrDie();
  // Round-robin over 16 values -> exactly uniform window -> H = 4 bits.
  std::vector<uint64_t> values(3 * n);
  for (uint64_t i = 0; i < values.size(); ++i) values[i] = i % 16;
  std::vector<uint64_t> window;
  double estimate = RunOnStream(*est, values, n, &window);
  EXPECT_NEAR(estimate, 4.0, 0.3);
}

TEST(TriangleTest, EdgeCodec) {
  uint32_t a, b;
  DecodeEdge(EncodeEdge(5, 3), &a, &b);
  EXPECT_EQ(a, 3u);
  EXPECT_EQ(b, 5u);
  EXPECT_EQ(EncodeEdge(3, 5), EncodeEdge(5, 3));
}

EstimatorConfig TriangleConfig(uint64_t n, uint32_t v, uint64_t r,
                               uint64_t seed) {
  EstimatorConfig config = SeqConfig(n, r, seed);
  config.num_vertices = v;
  return config;
}

TEST(TriangleTest, CreateValidation) {
  EXPECT_FALSE(
      CreateEstimator("buriol-triangles", TriangleConfig(0, 10, 5, 1)).ok());
  EXPECT_FALSE(
      CreateEstimator("buriol-triangles", TriangleConfig(8, 2, 5, 1)).ok());
  EXPECT_FALSE(
      CreateEstimator("buriol-triangles", TriangleConfig(8, 10, 0, 1)).ok());
}

TEST(TriangleTest, NoTrianglesEstimatesZero) {
  // A star graph has no triangles.
  const uint32_t v = 32;
  auto est = CreateEstimator("buriol-triangles",
                             TriangleConfig(64, v, 500, 13))
                 .ValueOrDie();
  uint64_t idx = 0;
  for (uint32_t leaf = 1; leaf < v; ++leaf) {
    est->Observe(Item{EncodeEdge(0, leaf), idx++, 0});
  }
  EXPECT_DOUBLE_EQ(est->Estimate().value, 0.0);
}

TEST(TriangleTest, PlantedTrianglesExactExpectation) {
  // Distinct-edge window: 10 disjoint triangles, each edge streamed once
  // (grouped per triangle). The estimator detects a triangle exactly via
  // its first edge, so E[estimate] = T3 = 10; a large unit count must land
  // in a comfortable band around it.
  const uint32_t v = 30;
  const uint64_t n = 300;  // window larger than the 30 streamed edges
  auto est = CreateEstimator("buriol-triangles",
                             TriangleConfig(n, v, 20000, 14))
                 .ValueOrDie();
  uint64_t idx = 0;
  for (uint32_t t = 0; t < v / 3; ++t) {
    est->Observe(Item{EncodeEdge(3 * t, 3 * t + 1), idx++, 0});
    est->Observe(Item{EncodeEdge(3 * t + 1, 3 * t + 2), idx++, 0});
    est->Observe(Item{EncodeEdge(3 * t, 3 * t + 2), idx++, 0});
  }
  double estimate = est->Estimate().value;
  EXPECT_GT(estimate, 5.0);
  EXPECT_LT(estimate, 18.0);
}

TEST(TriangleTest, UnbiasedOverManyRuns) {
  // Mean of the estimate over independent runs converges to T3 on a
  // distinct-edge window (3 disjoint triangles + non-closing background).
  const uint32_t v = 24;
  const uint64_t n = 64;
  std::vector<uint64_t> edge_stream;
  for (uint32_t t = 0; t < 3; ++t) {
    edge_stream.push_back(EncodeEdge(3 * t, 3 * t + 1));
    edge_stream.push_back(EncodeEdge(3 * t + 1, 3 * t + 2));
    edge_stream.push_back(EncodeEdge(3 * t, 3 * t + 2));
  }
  // Star background from vertex 20: no extra triangles.
  for (uint32_t leaf = 9; leaf < 20; ++leaf) {
    edge_stream.push_back(EncodeEdge(20, leaf));
  }
  double mean = 0.0;
  const int runs = 300;
  for (int r = 0; r < runs; ++r) {
    auto est = CreateEstimator(
                   "buriol-triangles",
                   TriangleConfig(n, v, 64, Rng::ForkSeed(900, r)))
                   .ValueOrDie();
    uint64_t idx = 0;
    for (uint64_t e : edge_stream) est->Observe(Item{e, idx++, 0});
    mean += est->Estimate().value;
  }
  mean /= runs;
  EXPECT_NEAR(mean, 3.0, 1.0);
}

TEST(BiasedTest, CreateValidation) {
  EXPECT_FALSE(StepBiasedSampler::Create({}, 1).ok());
  EXPECT_FALSE(
      StepBiasedSampler::Create({{8, 1.0}, {8, 1.0}}, 1).ok());  // not increasing
  EXPECT_FALSE(StepBiasedSampler::Create({{8, 0.0}}, 1).ok());  // zero weight
  EXPECT_FALSE(StepBiasedSampler::Create({{8, 1.0}}, 1, "bop-ts-swr").ok());
  EXPECT_FALSE(StepBiasedSampler::Create({{8, 1.0}}, 1, "no-such").ok());
  EXPECT_TRUE(StepBiasedSampler::Create({{8, 1.0}, {32, 1.0}}, 1).ok());
}

TEST(BiasedTest, InclusionProbabilitiesFormStaircase) {
  auto s =
      StepBiasedSampler::Create({{4, 1.0}, {16, 1.0}}, 2).ValueOrDie();
  // Normalized weights: 0.5 each. Age < 4: 0.5/4 + 0.5/16; age in [4,16):
  // 0.5/16; age >= 16: 0.
  EXPECT_NEAR(s->InclusionProbability(0), 0.5 / 4 + 0.5 / 16, 1e-12);
  EXPECT_NEAR(s->InclusionProbability(3), 0.5 / 4 + 0.5 / 16, 1e-12);
  EXPECT_NEAR(s->InclusionProbability(4), 0.5 / 16, 1e-12);
  EXPECT_NEAR(s->InclusionProbability(15), 0.5 / 16, 1e-12);
  EXPECT_DOUBLE_EQ(s->InclusionProbability(16), 0.0);
}

TEST(BiasedTest, EmpiricalDistributionMatchesStaircase) {
  const int trials = 60000;
  std::vector<uint64_t> counts(16, 0);
  for (int t = 0; t < trials; ++t) {
    auto s = StepBiasedSampler::Create({{4, 1.0}, {16, 1.0}},
                                       Rng::ForkSeed(300, t))
                 .ValueOrDie();
    const uint64_t len = 40;
    for (uint64_t i = 0; i < len; ++i) {
      s->Observe(Item{i, i, static_cast<Timestamp>(i)});
    }
    auto sample = s->Sample();
    ASSERT_TRUE(sample.has_value());
    ++counts[len - 1 - sample->index];  // age
  }
  std::vector<double> probs(16);
  auto s = StepBiasedSampler::Create({{4, 1.0}, {16, 1.0}}, 1).ValueOrDie();
  double total = 0.0;
  for (uint64_t age = 0; age < 16; ++age) {
    probs[age] = s->InclusionProbability(age);
    total += probs[age];
  }
  ASSERT_NEAR(total, 1.0, 1e-9);
  auto result = ChiSquareExpected(counts, probs);
  EXPECT_GT(result.p_value, 1e-4) << "stat=" << result.statistic;
}

TEST(BiasedTest, RecentElementsMoreLikely) {
  auto s = StepBiasedSampler::Create({{8, 2.0}, {64, 1.0}}, 4).ValueOrDie();
  EXPECT_GT(s->InclusionProbability(0), s->InclusionProbability(20));
}

TEST(BiasedTest, MeanEstimatorTracksRecencyWeightedMean) {
  // Old half of the window holds value 0, recent quarter holds 1000: the
  // biased mean must sit between the plain window mean and the recent
  // mean, reflecting the staircase's recency weighting.
  EstimatorConfig config;
  config.substrate = "bop-seq-swr";
  config.window_n = 64;
  config.r = 64;
  config.seed = 6;
  auto est = CreateEstimator("biased-mean", config).ValueOrDie();
  uint64_t i = 0;
  for (; i < 48; ++i) est->Observe(Item{0, i, static_cast<Timestamp>(i)});
  for (; i < 64; ++i) est->Observe(Item{1000, i, static_cast<Timestamp>(i)});
  EstimateReport report = est->Estimate();
  // Plain window mean = 250; recent-16 mean = 1000; the default two-level
  // staircase averages the full window (mean 250) and the last 16 (1000)
  // at weight 1/2 each -> expectation 625.
  EXPECT_GT(report.value, 400.0);
  EXPECT_LT(report.value, 850.0);
  EXPECT_GT(report.support, 0u);
}

}  // namespace
}  // namespace swsample
