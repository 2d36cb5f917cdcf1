// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Tests for the estimator registry and the estimator batch path:
// (1) every registered estimator constructs by name over EVERY compatible
// sampler substrate from one common SinkSpec and reports itself
// under the registry key; (2) unknown names, unknown substrates,
// incompatible pairs and invalid configs are rejected through the status
// mechanism with teaching error messages; (3) estimator ObserveBatch —
// including the PayloadWindowUnit skip-ahead and the sampler fast paths
// the quantile estimator inherits — is distributionally identical to
// item-wise Observe (chi-square, mirroring registry_test.cc); (4) the
// StreamDriver pumps estimators like samplers, with reports.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/estimator_registry.h"
#include "core/registry.h"
#include "stat_check.h"
#include "stats/tests.h"
#include "stream/driver.h"

namespace swsample {
namespace {

Item MakeItem(uint64_t i) {
  return Item{i, i, static_cast<Timestamp>(i)};
}

SinkSpec BasicConfig(std::string name, uint64_t seed = 1) {
  SinkSpec config;
  config.name = std::move(name);
  config.window_n = 32;
  config.window_t = 32;
  config.r = 4;
  config.seed = seed;
  config.num_vertices = 8;
  return config;
}

TEST(EstimatorRegistryTest, SixEstimatorsRegistered) {
  EXPECT_EQ(RegisteredEstimators().size(), 6u);
}

TEST(EstimatorRegistryTest, EveryCompatiblePairConstructsAndRuns) {
  // The Theorem 5.1 grid: every estimator x every compatible substrate
  // builds from one config, ingests a stream, and answers Estimate().
  uint64_t pairs = 0;
  for (const EstimatorSpec& spec : RegisteredEstimators()) {
    EXPECT_TRUE(IsRegisteredEstimator(spec.name));
    EXPECT_TRUE(
        EstimatorSupportsSubstrate(spec.name, spec.default_substrate))
        << spec.name;
    for (const char* substrate : spec.substrates) {
      SinkSpec config = BasicConfig(spec.name);
      config.substrate = substrate;
      // dkw-quantile requires an explicit r = 1 over single-sample
      // substrates rather than silently clamping the DKW sample size.
      if (std::string_view(spec.name) == "dkw-quantile" &&
          FindSamplerSpec(substrate)->single_sample) {
        config.r = 1;
      }
      auto created = CreateEstimator(config);
      ASSERT_TRUE(created.ok()) << spec.name << " x " << substrate << ": "
                                << created.status().ToString();
      auto est = std::move(created).ValueOrDie();
      EXPECT_STREQ(est->name(), spec.name);
      for (uint64_t i = 0; i < 100; ++i) est->Observe(MakeItem(i));
      EstimateReport report = est->Estimate();
      EXPECT_FALSE(report.metric.empty()) << spec.name;
      EXPECT_GT(est->MemoryWords(), 0u) << spec.name << " x " << substrate;
      ++pairs;
    }
  }
  // 3 payload estimators x 6 + quantile x 12 + biased x 6 + count x 12.
  EXPECT_EQ(pairs, 3u * 6 + 12 + 6 + 12);
}

TEST(EstimatorRegistryTest, DefaultSubstrateUsedWhenEmpty) {
  for (const EstimatorSpec& spec : RegisteredEstimators()) {
    SinkSpec config = BasicConfig(spec.name);
    config.substrate.clear();
    auto created = CreateEstimator(config);
    ASSERT_TRUE(created.ok()) << spec.name << ": "
                              << created.status().ToString();
  }
}

TEST(EstimatorRegistryTest, UnknownEstimatorRejected) {
  auto created = CreateEstimator(BasicConfig("no-such-estimator"));
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
  // The error should teach the caller the registered names.
  EXPECT_NE(created.status().message().find("ams-fk"), std::string::npos);
}

TEST(EstimatorRegistryTest, UnknownSubstrateRejected) {
  SinkSpec config = BasicConfig("ams-fk");
  config.substrate = "no-such-sampler";
  auto created = CreateEstimator(config);
  ASSERT_FALSE(created.ok());
  EXPECT_NE(created.status().message().find("bop-seq-swr"),
            std::string::npos);
}

TEST(EstimatorRegistryTest, IncompatibleSubstrateRejected) {
  // bdm-priority cannot carry forward payloads; the error must list the
  // compatible substrates.
  SinkSpec config = BasicConfig("ams-fk");
  config.substrate = "bdm-priority";
  auto created = CreateEstimator(config);
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(created.status().message().find("bop-seq-single"),
            std::string::npos);
  EXPECT_FALSE(EstimatorSupportsSubstrate("ams-fk", "bdm-priority"));
  // biased-mean is sequence-only.
  EXPECT_FALSE(EstimatorSupportsSubstrate("biased-mean", "bop-ts-swr"));
}

TEST(EstimatorRegistryTest, MissingWindowParameterRejected) {
  for (const EstimatorSpec& spec : RegisteredEstimators()) {
    for (const char* substrate : spec.substrates) {
      SinkSpec config = BasicConfig(spec.name);
      config.substrate = substrate;
      if (FindSamplerSpec(substrate)->model == WindowModel::kSequence) {
        config.window_n = 0;
      } else {
        config.window_t = 0;
      }
      auto created = CreateEstimator(config);
      EXPECT_FALSE(created.ok()) << spec.name << " x " << substrate;
      EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument)
          << spec.name << " x " << substrate;
    }
  }
}

TEST(EstimatorRegistryTest, InvalidParametersRejected) {
  SinkSpec config = BasicConfig("ams-fk");
  config.r = 0;
  EXPECT_FALSE(CreateEstimator(config).ok());
  config = BasicConfig("dkw-quantile");
  config.q = 1.5;
  EXPECT_FALSE(CreateEstimator(config).ok());
  config = BasicConfig("buriol-triangles");
  config.num_vertices = 2;
  EXPECT_FALSE(CreateEstimator(config).ok());
  // Substrate's own factory validation propagates: SWOR needs k <= n.
  config = BasicConfig("dkw-quantile");
  config.window_n = 4;
  config.r = 5;
  EXPECT_FALSE(CreateEstimator(config).ok());
  // Single-sample substrates cannot honor a DKW sample size r > 1; the
  // registry refuses rather than silently degrading the guarantee.
  config = BasicConfig("dkw-quantile");
  config.substrate = "bop-seq-single";
  auto clamped = CreateEstimator(config);
  ASSERT_FALSE(clamped.ok());
  EXPECT_NE(clamped.status().message().find("set r=1"),
            std::string::npos);
}

// --- ObserveBatch vs Observe equivalence -------------------------------

// Feeds `stream_len` items through a fresh quantile estimator per trial
// (value = index, r = 1, so the estimate IS the substrate's sampled
// position), batched or item-wise, and returns per-position counts.
std::vector<uint64_t> QuantilePositionCounts(uint64_t n, uint64_t stream_len,
                                             uint64_t batch, int trials,
                                             uint64_t seed) {
  std::vector<uint64_t> counts(n, 0);
  std::vector<Item> items;
  items.reserve(stream_len);
  for (uint64_t i = 0; i < stream_len; ++i) items.push_back(MakeItem(i));
  for (int t = 0; t < trials; ++t) {
    SinkSpec config;
    config.name = "dkw-quantile";
    config.substrate = "bop-seq-swr";
    config.window_n = n;
    config.r = 1;
    config.seed = Rng::ForkSeed(seed, t);
    auto est = CreateEstimator(config).ValueOrDie();
    if (batch == 0) {
      for (const Item& item : items) est->Observe(item);
    } else {
      for (uint64_t pos = 0; pos < stream_len; pos += batch) {
        const uint64_t take = std::min(batch, stream_len - pos);
        est->ObserveBatch(
            std::span<const Item>(items.data() + pos, take));
      }
    }
    const uint64_t sampled =
        static_cast<uint64_t>(est->Estimate().value);
    EXPECT_GE(sampled, stream_len - n) << "trial " << t;
    if (sampled >= stream_len - n) ++counts[sampled - (stream_len - n)];
  }
  return counts;
}

// Same for ams-fk over the bop-seq-single substrate on a constant-value
// stream: the F2 estimate is n * (2c - 1) with c = forward count of the
// sampled position, so the estimate identifies the position and the
// PayloadWindowUnit skip-ahead path is tested distributionally.
std::vector<uint64_t> FkPositionCounts(uint64_t n, uint64_t stream_len,
                                       uint64_t batch, int trials,
                                       uint64_t seed) {
  std::vector<uint64_t> counts(n, 0);
  std::vector<Item> items;
  items.reserve(stream_len);
  for (uint64_t i = 0; i < stream_len; ++i) {
    items.push_back(Item{7, i, static_cast<Timestamp>(i)});  // constant
  }
  for (int t = 0; t < trials; ++t) {
    SinkSpec config;
    config.name = "ams-fk";
    config.substrate = "bop-seq-single";
    config.window_n = n;
    config.r = 1;
    config.seed = Rng::ForkSeed(seed, t);
    auto est = CreateEstimator(config).ValueOrDie();
    if (batch == 0) {
      for (const Item& item : items) est->Observe(item);
    } else {
      for (uint64_t pos = 0; pos < stream_len; pos += batch) {
        const uint64_t take = std::min(batch, stream_len - pos);
        est->ObserveBatch(
            std::span<const Item>(items.data() + pos, take));
      }
    }
    // estimate = n (2c - 1), c in [1, n]; recover c, then the position:
    // c counts occurrences at/after the sampled position within the
    // window, and on a constant stream c = n - position_in_window.
    const double estimate = est->Estimate().value;
    const uint64_t c = static_cast<uint64_t>(
        (estimate / static_cast<double>(n) + 1.0) / 2.0 + 0.5);
    EXPECT_GE(c, 1u);
    EXPECT_LE(c, n);
    if (c >= 1 && c <= n) ++counts[n - c];
  }
  return counts;
}

// The batched paths must stay uniform over the window, at a stream length
// that straddles bucket boundaries, with a ragged batch size.
TEST(EstimatorBatchTest, BatchedQuantileUniform) {
  const uint64_t n = 24;
  auto counts = QuantilePositionCounts(n, 3 * n + 7, /*batch=*/17,
                                       /*trials=*/30000, /*seed=*/1000);
  auto result = ChiSquareUniform(counts);
  EXPECT_GT(result.p_value, 1e-4) << "stat=" << result.statistic;
}

TEST(EstimatorBatchTest, BatchedFkUniform) {
  const uint64_t n = 24;
  auto counts = FkPositionCounts(n, 3 * n + 7, /*batch=*/17,
                                 /*trials=*/30000, /*seed=*/2000);
  auto result = ChiSquareUniform(counts);
  EXPECT_GT(result.p_value, 1e-4) << "stat=" << result.statistic;
}

/// Constant-value stream with ts = index.
std::vector<Item> IndexStampedItems(uint64_t stream_len) {
  std::vector<Item> items;
  for (uint64_t i = 0; i < stream_len; ++i) {
    items.push_back(Item{7, i, static_cast<Timestamp>(i)});
  }
  return items;
}

/// Constant-value stream for t0 = 16: same-timestamp runs of 16-20 items
/// (at or above the batch path's ExtendRun cutover of 16), singletons,
/// and an idle gap longer than t0 that empties the window. At the end
/// (clock 59) the 22 items stamped 44..59 are active, and the expired run
/// at 42 straddles the window edge.
std::vector<Item> BurstyItems() {
  const std::pair<Timestamp, uint64_t> runs[] = {
      {0, 20},  {1, 1},  {2, 1},  {20, 17}, {21, 1}, {24, 1},  {42, 18},
      {43, 1},  {44, 1}, {45, 1}, {46, 1},  {47, 1}, {50, 16}, {59, 2}};
  std::vector<Item> items;
  for (const auto& [ts, run] : runs) {
    for (uint64_t i = 0; i < run; ++i) {
      items.push_back(Item{7, items.size(), ts});
    }
  }
  return items;
}

// Timestamp-substrate counterpart: the flat-map candidate payloads and
// the sampler's batch fast path (TsSingleSampler::ObserveBatch) must leave
// the sampled-position distribution untouched. Constant stream over
// window t0: the forward count identifies the position among the n items
// active at the end.
std::vector<uint64_t> TsFkPositionCounts(const std::vector<Item>& items,
                                         Timestamp t0, uint64_t batch,
                                         int trials, uint64_t seed) {
  const Timestamp now = items.back().timestamp;
  const uint64_t n = static_cast<uint64_t>(std::count_if(
      items.begin(), items.end(),
      [&](const Item& item) { return now - item.timestamp < t0; }));
  const uint64_t stream_len = items.size();
  std::vector<uint64_t> counts(n, 0);
  for (int t = 0; t < trials; ++t) {
    SinkSpec config;
    config.name = "ams-fk";
    config.substrate = "bop-ts-single";
    config.window_t = t0;
    config.r = 1;
    // Tight DGIM eps: at this window size n-hat is exact, so the position
    // recovery below cannot collide adjacent cells.
    config.count_eps = 0.001;
    config.seed = Rng::ForkSeed(seed, t);
    auto est = CreateEstimator(config).ValueOrDie();
    if (batch == 0) {
      for (const Item& item : items) est->Observe(item);
    } else {
      for (uint64_t pos = 0; pos < stream_len; pos += batch) {
        const uint64_t take = std::min(batch, stream_len - pos);
        est->ObserveBatch(
            std::span<const Item>(items.data() + pos, take));
      }
    }
    // With ts = index and t0 = n the active window is the last n arrivals.
    // estimate = n_hat (2c - 1): n_hat may carry the DGIM eps, but c is
    // recoverable because estimate / (2c - 1) must be within eps of n —
    // pick the c in [1, n] minimizing the relative mismatch.
    const double estimate = est->Estimate().value;
    uint64_t best_c = 0;
    double best_err = 1e18;
    for (uint64_t c = 1; c <= n; ++c) {
      const double n_hat = estimate / static_cast<double>(2 * c - 1);
      const double err =
          std::fabs(n_hat - static_cast<double>(n)) / static_cast<double>(n);
      if (err < best_err) {
        best_err = err;
        best_c = c;
      }
    }
    EXPECT_LT(best_err, 0.2);
    ++counts[n - best_c];
  }
  return counts;
}

TEST(EstimatorBatchTest, TsBatchedFkUniform) {
  auto counts = TsFkPositionCounts(IndexStampedItems(3 * 16 + 5),
                                   /*t0=*/16, /*batch=*/13,
                                   /*trials=*/20000, /*seed=*/3000);
  auto result = ChiSquareUniform(counts);
  EXPECT_GT(result.p_value, 1e-4) << "stat=" << result.statistic;
}

TEST(EstimatorBatchTest, TsBatchMatchesObserveDistributionally) {
  // The ts = index stream at batch 13, and the bursty stream at batches
  // 1, 7 and 24 (longer than any run, so runs go through ExtendRun).
  const Timestamp t0 = 16;
  const int trials = 20000;
  const std::vector<Item> indexed = IndexStampedItems(3 * 16 + 5);
  EXPECT_TRUE(SameDistribution(
      TsFkPositionCounts(indexed, t0, /*batch=*/13, trials, 7100),
      TsFkPositionCounts(indexed, t0, /*batch=*/0, trials, 9100), 7100));
  const std::vector<Item> bursty = BurstyItems();
  const std::vector<uint64_t> unbatched =
      TsFkPositionCounts(bursty, t0, /*batch=*/0, trials, 9200);
  ASSERT_EQ(unbatched.size(), 22u);
  EXPECT_TRUE(IsUniform(unbatched, 9200));
  for (uint64_t batch : {1u, 7u, 24u}) {
    const uint64_t seed = 7200 + batch;
    const std::vector<uint64_t> batched =
        TsFkPositionCounts(bursty, t0, batch, trials, seed);
    EXPECT_TRUE(IsUniform(batched, seed)) << "batch " << batch;
    EXPECT_TRUE(SameDistribution(batched, unbatched, seed))
        << "batch " << batch;
  }
}

// Batched and unbatched ingestion must agree with each other cell by cell
// (two-sample chi-square at equal trial counts, as in registry_test.cc).
TEST(EstimatorBatchTest, BatchMatchesObserveDistributionally) {
  const uint64_t n = 16;
  const uint64_t stream_len = 2 * n + 5;
  const int trials = 30000;
  struct Case {
    const char* label;
    std::vector<uint64_t> batched, unbatched;
  };
  Case cases[] = {
      {"dkw-quantile",
       QuantilePositionCounts(n, stream_len, /*batch=*/13, trials, 7000),
       QuantilePositionCounts(n, stream_len, /*batch=*/0, trials, 9000)},
      {"ams-fk",
       FkPositionCounts(n, stream_len, /*batch=*/13, trials, 7500),
       FkPositionCounts(n, stream_len, /*batch=*/0, trials, 9500)},
  };
  for (const Case& c : cases) {
    double stat = 0.0;
    for (uint64_t i = 0; i < n; ++i) {
      const double a = static_cast<double>(c.batched[i]);
      const double b = static_cast<double>(c.unbatched[i]);
      if (a + b == 0) continue;
      stat += (a - b) * (a - b) / (a + b);
    }
    // df = n - 1 = 15; the 1e-4 quantile of chi^2_15 is ~44.3.
    EXPECT_LT(stat, 44.3) << c.label;
  }
}

// --- StreamDriver pumps estimators -------------------------------------

TEST(EstimatorDriverTest, DriverPumpsEveryEstimator) {
  std::vector<Item> items;
  for (uint64_t i = 0; i < 1000; ++i) items.push_back(MakeItem(i));
  for (const EstimatorSpec& spec : RegisteredEstimators()) {
    auto est = CreateEstimator(BasicConfig(spec.name, 5)).ValueOrDie();
    StreamDriver::Options options;
    options.batch_size = 64;
    DriveReport report =
        StreamDriver(options).Drive(std::span<const Item>(items), *est);
    EXPECT_EQ(report.items, 1000u) << spec.name;
    EXPECT_EQ(report.batches, (1000u + 63) / 64) << spec.name;
    EXPECT_EQ(report.memory_words, est->MemoryWords()) << spec.name;
    EXPECT_GE(report.peak_memory_words, report.memory_words) << spec.name;
  }
}

}  // namespace
}  // namespace swsample
