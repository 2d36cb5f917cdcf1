// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Differential fuzzing: random operation sequences (bursts of random size,
// silent steps, clock jumps, query storms, and mid-stream checkpoint/
// restore cycles) run against the ExactWindow oracle. At every step, for
// every sampler variant, the harness asserts the full safety contract:
//
//   (1) every sampled item is in the oracle's active set;
//   (2) without-replacement samples are duplicate-free with the exact
//       min(k, n) size;
//   (3) with-replacement samplers return k samples whenever n > 0;
//   (4) internal invariants hold (timestamp machinery);
//   (5) restored checkpoints behave identically to the originals.
//
// Each TEST_P seed is an independent random scenario; failures print the
// seed for deterministic replay.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/sink_spec.h"
#include "baseline/exact_window.h"
#include "core/registry.h"
#include "util/rng.h"

namespace swsample {
namespace {

class FuzzSweep : public ::testing::TestWithParam<uint64_t> {};

/// Round-trips a registry sampler through the sink envelope, as a
/// different process would restore it.
std::unique_ptr<WindowSampler> Resume(const WindowSampler& sampler,
                                      const SinkSpec& spec) {
  Sink restored =
      RestoreSink(SaveSink(sampler, spec).ValueOrDie()).ValueOrDie().sink;
  restored.sink.release();  // ownership moves to the typed pointer
  return std::unique_ptr<WindowSampler>(restored.sampler);
}

TEST_P(FuzzSweep, TimestampSamplersAgainstOracle) {
  const uint64_t seed = GetParam();
  Rng scenario(seed);
  const Timestamp t0 = 1 + static_cast<Timestamp>(scenario.UniformIndex(40));
  const uint64_t k = 1 + scenario.UniformIndex(6);

  SinkSpec swr_config;
  swr_config.name = "bop-ts-swr";
  swr_config.window_t = t0;
  swr_config.k = k;
  swr_config.seed = seed * 3 + 1;
  SinkSpec swor_config = swr_config;
  swor_config.name = "bop-ts-swor";
  swor_config.seed = seed * 3 + 2;
  auto swr = CreateSampler(swr_config).ValueOrDie();
  auto swor = CreateSampler(swor_config).ValueOrDie();
  auto oracle =
      ExactWindow::CreateTimestamp(t0, 1, true, seed * 3 + 3).ValueOrDie();

  uint64_t index = 0;
  Timestamp now = 0;
  for (int step = 0; step < 600; ++step) {
    // Random event mix.
    const uint64_t dice = scenario.UniformIndex(100);
    if (dice < 50) {
      // Burst of 1..12 items.
      const uint64_t burst = 1 + scenario.UniformIndex(12);
      for (uint64_t i = 0; i < burst; ++i) {
        Item item{scenario.NextU64() % 1000, index++, now};
        swr->Observe(item);
        swor->Observe(item);
        oracle->Observe(item);
      }
    } else if (dice < 90) {
      // Silent step(s).
      now += 1 + static_cast<Timestamp>(scenario.UniformIndex(3));
    } else {
      // Clock jump past the whole window.
      now += t0 + static_cast<Timestamp>(scenario.UniformIndex(10));
    }
    swr->AdvanceTime(now);
    swor->AdvanceTime(now);
    oracle->AdvanceTime(now);

    // Occasionally checkpoint-cycle the SWOR sampler through the
    // self-describing envelope (a different process could do this half).
    if (scenario.UniformIndex(20) == 0) {
      swor = Resume(*swor, swor_config);
    }

    // Oracle membership set.
    std::set<uint64_t> active;
    for (const Item& item : oracle->contents()) active.insert(item.index);

    auto wr_sample = swr->Sample();
    if (active.empty()) {
      ASSERT_TRUE(wr_sample.empty()) << "seed=" << seed << " step=" << step;
    } else {
      ASSERT_EQ(wr_sample.size(), k) << "seed=" << seed << " step=" << step;
    }
    for (const Item& item : wr_sample) {
      ASSERT_TRUE(active.count(item.index))
          << "seed=" << seed << " step=" << step << " idx=" << item.index;
    }

    auto wor_sample = swor->Sample();
    ASSERT_EQ(wor_sample.size(), std::min<uint64_t>(k, active.size()))
        << "seed=" << seed << " step=" << step;
    std::set<uint64_t> seen;
    for (const Item& item : wor_sample) {
      ASSERT_TRUE(active.count(item.index))
          << "seed=" << seed << " step=" << step << " idx=" << item.index;
      seen.insert(item.index);
    }
    ASSERT_EQ(seen.size(), wor_sample.size())
        << "duplicate in SWOR sample, seed=" << seed << " step=" << step;

    ++now;
  }
}

TEST_P(FuzzSweep, SequenceSamplersAgainstOracle) {
  const uint64_t seed = GetParam();
  Rng scenario(seed ^ 0xabcdef);
  const uint64_t n = 1 + scenario.UniformIndex(100);
  const uint64_t k = 1 + scenario.UniformIndex(std::min<uint64_t>(n, 8));

  SinkSpec swr_config;
  swr_config.name = "bop-seq-swr";
  swr_config.window_n = n;
  swr_config.k = k;
  swr_config.seed = seed * 5 + 1;
  SinkSpec swor_config = swr_config;
  swor_config.name = "bop-seq-swor";
  swor_config.seed = seed * 5 + 2;
  auto swr = CreateSampler(swr_config).ValueOrDie();
  auto swor = CreateSampler(swor_config).ValueOrDie();
  auto oracle =
      ExactWindow::CreateSequence(n, 1, true, seed * 5 + 3).ValueOrDie();

  uint64_t index = 0;
  for (int step = 0; step < 400; ++step) {
    const uint64_t burst = 1 + scenario.UniformIndex(5);
    for (uint64_t i = 0; i < burst; ++i) {
      Item item{scenario.NextU64() % 1000, index,
                static_cast<Timestamp>(index)};
      ++index;
      swr->Observe(item);
      swor->Observe(item);
      oracle->Observe(item);
    }
    if (scenario.UniformIndex(15) == 0) {
      swr = Resume(*swr, swr_config);
      swor = Resume(*swor, swor_config);
    }
    std::set<uint64_t> active;
    for (const Item& item : oracle->contents()) active.insert(item.index);

    auto wr_sample = swr->Sample();
    ASSERT_EQ(wr_sample.size(), k) << "seed=" << seed << " step=" << step;
    for (const Item& item : wr_sample) {
      ASSERT_TRUE(active.count(item.index))
          << "seed=" << seed << " step=" << step;
    }
    auto wor_sample = swor->Sample();
    ASSERT_EQ(wor_sample.size(), std::min<uint64_t>(k, index))
        << "seed=" << seed << " step=" << step;
    std::set<uint64_t> seen;
    for (const Item& item : wor_sample) {
      ASSERT_TRUE(active.count(item.index))
          << "seed=" << seed << " step=" << step;
      seen.insert(item.index);
    }
    ASSERT_EQ(seen.size(), wor_sample.size())
        << "duplicate in SWOR sample, seed=" << seed << " step=" << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep,
                         ::testing::Range<uint64_t>(1, 17),
                         [](const auto& param_info) {
                           return "seed" + std::to_string(param_info.param);
                         });

}  // namespace
}  // namespace swsample
