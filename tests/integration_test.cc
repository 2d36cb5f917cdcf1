// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Integration tests: full pipelines (generator -> sampler -> statistics)
// exercising several modules together, the ExactWindow oracle as a
// membership checker for every registered sampler, the disjoint-window
// independence property (Section 1.3.4), and the Theorem 5.1 adapter.
// Samplers are constructed through the registry so the pipeline exercises
// the same entry point production call sites use.

#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/exact_window.h"
#include "core/registry.h"
#include "core/sliding_adapter.h"
#include "stats/tests.h"
#include "stream/workload.h"

namespace swsample {
namespace {

// Every registered sampler's output must lie inside the exact window at
// all times, under a bursty timestamped stream with silent gaps.
TEST(IntegrationTest, AllRegisteredSamplersAgreeWithOracleOnMembership) {
  auto stream =
      WorkloadGenerator::Create("poisson,lambda=2,domain=65536", 99)
          .ValueOrDie();
  const Timestamp t0 = 20;
  const uint64_t seq_n = 64, k = 4;

  // One instance of every registered sampler, bucketed by window model.
  std::vector<std::unique_ptr<WindowSampler>> ts_samplers, seq_samplers;
  uint64_t seed = 1;
  for (const SamplerSpec& spec : RegisteredSamplers()) {
    SinkSpec config;
    config.name = spec.name;
    config.window_n = seq_n;
    config.window_t = t0;
    config.k = spec.single_sample ? 1 : k;
    config.seed = seed++;
    auto sampler = CreateSampler(config).ValueOrDie();
    (spec.model == WindowModel::kTimestamp ? ts_samplers : seq_samplers)
        .push_back(std::move(sampler));
  }
  auto ts_oracle = ExactWindow::CreateTimestamp(t0, 1, true, 31).ValueOrDie();
  auto seq_oracle =
      ExactWindow::CreateSequence(seq_n, 1, true, 32).ValueOrDie();

  for (Timestamp t = 0; t < 1500; ++t) {
    for (const Item& item : stream->Step()) {
      for (auto& s : ts_samplers) s->Observe(item);
      for (auto& s : seq_samplers) s->Observe(item);
      ts_oracle->Observe(item);
      seq_oracle->Observe(item);
    }
    for (auto& s : ts_samplers) s->AdvanceTime(t);
    ts_oracle->AdvanceTime(t);

    // Membership sets from the oracles.
    std::set<uint64_t> ts_active, seq_active;
    for (const Item& item : ts_oracle->contents()) ts_active.insert(item.index);
    for (const Item& item : seq_oracle->contents())
      seq_active.insert(item.index);

    for (auto& s : ts_samplers) {
      for (const Item& item : s->Sample()) {
        EXPECT_TRUE(ts_active.count(item.index))
            << s->name() << " sampled non-active index " << item.index
            << " at t=" << t;
      }
    }
    for (auto& s : seq_samplers) {
      for (const Item& item : s->Sample()) {
        EXPECT_TRUE(seq_active.count(item.index))
            << s->name() << " sampled non-active index " << item.index
            << " at t=" << t;
      }
    }
  }
}

// Section 1.3.4: samples for disjoint (non-overlapping) windows are
// independent. Sample the window ending at bucket boundary 2n and the
// window ending at 4n; both windows are disjoint; the joint distribution
// over (age1, age2) must be uniform on n x n cells.
TEST(IntegrationTest, DisjointWindowSamplesIndependent) {
  const uint64_t n = 4;
  const int trials = 80000;
  std::vector<uint64_t> joint(n * n, 0);
  for (int t = 0; t < trials; ++t) {
    SinkSpec config;
    config.name = "bop-seq-single";
    config.window_n = n;
    config.seed = 7000 + static_cast<uint64_t>(t);
    auto s = CreateSampler(config).ValueOrDie();
    uint64_t first = 0, second = 0;
    for (uint64_t i = 0; i < 4 * n; ++i) {
      s->Observe(Item{i, i, static_cast<Timestamp>(i)});
      if (i + 1 == 2 * n) first = s->Sample()[0].index - n;
      if (i + 1 == 4 * n) second = s->Sample()[0].index - 3 * n;
    }
    ++joint[first * n + second];
  }
  auto result = ChiSquareUniform(joint);
  EXPECT_GT(result.p_value, 1e-4) << "stat=" << result.statistic;
}

// The same independence claim for the timestamp sampler.
TEST(IntegrationTest, DisjointWindowIndependenceTimestamp) {
  const Timestamp t0 = 4;
  const int trials = 80000;
  std::vector<uint64_t> joint(t0 * t0, 0);
  for (int t = 0; t < trials; ++t) {
    SinkSpec config;
    config.name = "bop-ts-single";
    config.window_t = t0;
    config.seed = 90000 + static_cast<uint64_t>(t);
    auto s = CreateSampler(config).ValueOrDie();
    uint64_t first = 0, second = 0;
    for (Timestamp i = 0; i < 8; ++i) {
      s->Observe(Item{static_cast<uint64_t>(i), static_cast<uint64_t>(i), i});
      if (i == 3) first = s->Sample()[0].index;           // window {0..3}
      if (i == 7) second = s->Sample()[0].index - 4;      // window {4..7}
    }
    ++joint[first * t0 + second];
  }
  auto result = ChiSquareUniform(joint);
  EXPECT_GT(result.p_value, 1e-4) << "stat=" << result.statistic;
}

// Correlation-based independence check on values over a long bursty run.
TEST(IntegrationTest, SampleValuesUncorrelatedAcrossDisjointWindows) {
  const uint64_t n = 32;
  const int trials = 4000;
  std::vector<double> xs, ys;
  for (int t = 0; t < trials; ++t) {
    SinkSpec config;
    config.name = "bop-seq-swor";
    config.window_n = n;
    config.k = 1;
    config.seed = 333 + static_cast<uint64_t>(t);
    auto s = CreateSampler(config).ValueOrDie();
    Rng value_rng(5555 + t);
    std::vector<uint64_t> values(2 * n);
    for (auto& v : values) v = value_rng.UniformIndex(1000);
    double first = 0, second = 0;
    for (uint64_t i = 0; i < 2 * n; ++i) {
      s->Observe(Item{values[i], i, static_cast<Timestamp>(i)});
      if (i + 1 == n) first = static_cast<double>(s->Sample()[0].value);
      if (i + 1 == 2 * n) second = static_cast<double>(s->Sample()[0].value);
    }
    xs.push_back(first);
    ys.push_back(second);
  }
  EXPECT_LT(std::fabs(PearsonCorrelation(xs, ys)), 0.06);
}

// Theorem 5.1 adapter: windowed mean via sampling tracks the exact
// windowed mean of a drifting signal. The adapter consumes any
// registry-built sampler.
TEST(IntegrationTest, SlidingAdapterTracksWindowedMean) {
  const uint64_t n = 256, k = 64;
  SinkSpec config;
  config.name = "bop-seq-swr";
  config.window_n = n;
  config.k = k;
  config.seed = 11;
  auto sampler = CreateSampler(config).ValueOrDie();
  auto estimator = [](const std::vector<Item>& sample) {
    double acc = 0;
    for (const Item& item : sample) acc += static_cast<double>(item.value);
    return sample.empty() ? 0.0 : acc / static_cast<double>(sample.size());
  };
  SlidingAdapter adapter(std::move(sampler), estimator);
  auto oracle = ExactWindow::CreateSequence(n, 1, true, 12).ValueOrDie();

  // Signal drifts: values around i/4.
  Rng rng(13);
  for (uint64_t i = 0; i < 4 * n; ++i) {
    Item item{i / 4 + rng.UniformIndex(8), i, static_cast<Timestamp>(i)};
    adapter.Observe(item);
    oracle->Observe(item);
  }
  double exact_mean = 0;
  for (const Item& item : oracle->contents()) {
    exact_mean += static_cast<double>(item.value);
  }
  exact_mean /= static_cast<double>(oracle->size());
  double est = adapter.Estimate();
  EXPECT_NEAR(est / exact_mean, 1.0, 0.1);
}

// End-to-end determinism: identical seeds yield identical sample streams.
TEST(IntegrationTest, FullyDeterministic) {
  auto run = [] {
    auto stream = WorkloadGenerator::Create(
                      "poisson@zipf,lambda=1.7,domain=100,alpha=1.1", 21)
                      .ValueOrDie();
    SinkSpec config;
    config.name = "bop-ts-swor";
    config.window_t = 9;
    config.k = 3;
    config.seed = 22;
    auto s = CreateSampler(config).ValueOrDie();
    std::vector<uint64_t> trace;
    for (Timestamp t = 0; t < 300; ++t) {
      for (const Item& item : stream->Step()) s->Observe(item);
      s->AdvanceTime(t);
      for (const Item& item : s->Sample()) trace.push_back(item.index);
    }
    return trace;
  };
  EXPECT_EQ(run(), run());
}

// Seq samplers must tolerate items whose timestamps are nonsense (they
// ignore time entirely).
TEST(IntegrationTest, SequenceSamplersIgnoreTimestamps) {
  SinkSpec config;
  config.name = "bop-seq-swr";
  config.window_n = 8;
  config.k = 2;
  config.seed = 31;
  auto s = CreateSampler(config).ValueOrDie();
  for (uint64_t i = 0; i < 40; ++i) {
    s->Observe(Item{i, i, static_cast<Timestamp>(1000 - i)});
    s->AdvanceTime(0);  // no-op
  }
  EXPECT_EQ(s->Sample().size(), 2u);
}

}  // namespace
}  // namespace swsample
