// Copyright (c) swsample authors. Licensed under the MIT license.
//
// E17: checkpoint cost. The paper's deterministic state bounds (O(k)
// words for sequence windows, O(k log n) for timestamp windows, Theorems
// 2.1-4.4) price full-state checkpointing: a sampler's envelope blob
// should track those bounds — and stay FLAT as the window grows for the
// sequence samplers — while the exact-window oracle's blob grows
// linearly. The experiment sweeps window sizes and reports, per sampler:
// blob size (bytes and words), the k*max(1, log2 n) word yardstick, and
// save/restore round-trip latency.
//
// Honors SWSAMPLE_BENCH_SMOKE (tiny windows, few reps) like every bench.

#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "apps/sink_spec.h"
#include "core/registry.h"
#include "stream/driver.h"
#include "util/rng.h"

namespace swsample {
namespace {

using bench::Banner;
using bench::F;
using bench::Row;
using bench::Scaled;
using bench::U;

using Clock = std::chrono::steady_clock;

double MicrosPerOp(const std::function<void()>& op, uint64_t reps) {
  const auto begin = Clock::now();
  for (uint64_t r = 0; r < reps; ++r) op();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - begin).count();
  return seconds / static_cast<double>(reps) * 1e6;
}

void RunSweep() {
  Banner("E17: checkpoint blob size vs the O(k log n) state bound",
         "sequence blobs are flat in n, timestamp blobs ~ k log n words, "
         "the exact oracle pays Theta(n); save+restore are microseconds");
  Row({"sampler", "window", "k", "blob_B", "words", "k*log2n", "save_us",
       "restore_us"});

  const uint64_t k = 16;
  const uint64_t max_exp = bench::SmokeMode() ? 12 : 19;
  const uint64_t reps = Scaled(64, 8);
  const char* names[] = {"bop-seq-single", "bop-seq-swr", "bop-seq-swor",
                         "bop-ts-single",  "bop-ts-swr",  "bop-ts-swor",
                         "exact-seq"};
  StreamDriver driver;
  for (uint64_t exp = 10; exp <= max_exp; exp += 3) {
    const uint64_t window = uint64_t{1} << exp;
    // Two windows' worth of arrivals, one per clock tick.
    const uint64_t items_count = 2 * window;
    std::vector<Item> items;
    items.reserve(items_count);
    Rng value_rng(exp);
    for (uint64_t i = 0; i < items_count; ++i) {
      items.push_back(Item{value_rng.UniformIndex(1 << 16), i,
                           static_cast<Timestamp>(i)});
    }
    for (const char* name : names) {
      const SamplerSpec* spec = FindSamplerSpec(name);
      SinkSpec config;
      config.name = name;
      config.window_n = window;
      config.window_t = static_cast<Timestamp>(window);
      config.k = spec->single_sample ? 1 : k;
      config.seed = 0xe17;
      auto sampler = CreateSampler(config).ValueOrDie();
      driver.Drive(items, *sampler);

      std::string blob = SaveSink(*sampler, config).ValueOrDie();
      const double save_us = MicrosPerOp(
          [&] { SaveSink(*sampler, config).ValueOrDie(); }, reps);
      const double restore_us =
          MicrosPerOp([&] { RestoreSink(blob).ValueOrDie(); }, reps);
      const double bound =
          static_cast<double>(config.k) *
          std::max(1.0, std::log2(static_cast<double>(window)));
      Row({name, U(window), U(config.k), U(blob.size()),
           U(blob.size() / 8), F(bound, 0), F(save_us, 1),
           F(restore_us, 1)});
    }
  }
  std::printf(
      "\nshape check: bop-seq-* rows are flat across windows (O(k) words);\n"
      "bop-ts-* rows grow ~ log n; exact-seq grows ~ n. Restore cost\n"
      "includes registry construction + full validation.\n");
}

}  // namespace
}  // namespace swsample

int main() {
  swsample::RunSweep();
  return 0;
}
