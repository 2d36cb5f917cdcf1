// Copyright (c) swsample authors. Licensed under the MIT license.
//
// E15: batched ingestion throughput. Compares per-item Observe against
// ObserveBatch across batch sizes for every registered sampler, through
// the shared StreamDriver. The sequence-based paper samplers override
// ObserveBatch with the skip-ahead replacement schedule (one RNG draw per
// reservoir replacement instead of per item) and the timestamp-based ones
// with a batch-scoped merge-coin cache, so their batched columns should
// pull ahead; samplers on the default ObserveBatch should show parity.
//
// Every row is also funneled into the BenchReporter: running with
// SWSAMPLE_BENCH_JSON=<path> emits the machine-readable BENCH.json
// (items/s per mode, speedups, state bytes/item, p50/p99 batch latency)
// that the committed repo-root baseline and the CI regression gate use.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/estimator_registry.h"
#include "bench/bench_util.h"
#include "core/registry.h"
#include "stream/driver.h"

using namespace swsample;
using namespace swsample::bench;

namespace {

const uint64_t kItems = Scaled(1 << 20, 64);  // 1M arrivals (full mode)
constexpr uint64_t kWindow = 1 << 14;
constexpr uint64_t kK = 16;

std::vector<Item> MakeStream(uint64_t items, uint64_t seed) {
  Rng rng(seed);
  std::vector<Item> out;
  out.reserve(items);
  for (uint64_t i = 0; i < items; ++i) {
    out.push_back(Item{rng.UniformIndex(1 << 20), i,
                       static_cast<Timestamp>(i)});
  }
  return out;
}

double MItemsPerSec(const DriveReport& report) {
  return report.items_per_sec / 1e6;
}

DriveReport Run(std::span<const Item> stream, StreamSink& sink,
                uint64_t batch, bool track_latency = false) {
  StreamDriver::Options options;
  options.batch_size = batch;
  options.memory_probe_every = 0;
  options.track_batch_latency = track_latency;
  return StreamDriver(options).Drive(stream, sink);
}

/// One sweep of per-item vs batched modes for a sink factory; prints the
/// table row and records the reporter entry.
template <typename MakeSink>
void SweepModes(const std::string& bench, const std::string& name,
                std::span<const Item> stream, uint64_t window,
                MakeSink&& make_sink) {
  std::vector<std::string> cells = {name};
  auto item_sink = make_sink();
  const DriveReport item_report = Run(stream, *item_sink, 0);
  cells.push_back(F(MItemsPerSec(item_report), 2));
  DriveReport batch16k;
  for (uint64_t batch : {uint64_t{64}, uint64_t{1024}, uint64_t{16384}}) {
    auto sink = make_sink();
    const DriveReport report =
        Run(stream, *sink, batch, /*track_latency=*/batch == 16384);
    if (batch == 16384) batch16k = report;
    cells.push_back(F(MItemsPerSec(report), 2));
  }
  cells.push_back("M items/s");
  Row(cells);

  const double fill =
      static_cast<double>(std::min<uint64_t>(window, stream.size()));
  BenchReporter::Global().Report(
      bench, name,
      {{"items_per_sec_item", item_report.items_per_sec},
       {"items_per_sec_batch16k", batch16k.items_per_sec},
       {"speedup_batch16k",
        item_report.items_per_sec > 0
            ? batch16k.items_per_sec / item_report.items_per_sec
            : 0.0},
       {"state_bytes_per_item",
        fill > 0 ? static_cast<double>(batch16k.memory_words) * 8.0 / fill
                 : 0.0},
       {"p50_batch_seconds", batch16k.p50_batch_seconds},
       {"p99_batch_seconds", batch16k.p99_batch_seconds}});
}

}  // namespace

int main() {
  Banner("E15: Observe vs ObserveBatch throughput",
         "batched skip-ahead ingestion beats per-item Observe for the "
         "sequence samplers; ts samplers batch their merge coins; "
         "default-path samplers show parity");

  const std::vector<Item> stream = MakeStream(kItems, /*seed=*/15);

  Row({"sampler", "per-item", "batch=64", "batch=1k", "batch=16k", "unit"});
  for (const SamplerSpec& spec : RegisteredSamplers()) {
    // The O(n)-word oracles hold the whole window; keep them in the table
    // (they exercise the default path) but skip nothing else.
    SamplerConfig config;
    config.window_n = kWindow;
    config.window_t = static_cast<Timestamp>(kWindow);
    config.k = spec.single_sample ? 1 : kK;
    config.seed = 15;
    SweepModes("e15", spec.name, std::span<const Item>(stream), kWindow,
               [&] { return CreateSampler(spec.name, config).ValueOrDie(); });
  }

  std::printf(
      "\nnote: bop-seq-{single,swr,swor} override ObserveBatch with the\n"
      "skip-ahead replacement schedule and bop-ts-* with horizon-scanned\n"
      "batched expiry plus the closed-form run append; the baselines carry\n"
      "devirtualized (bdm-*, gl-*, oversample) or bulk-append (exact-*)\n"
      "overrides, so no row pays per-item virtual dispatch.\n");

  // --- Estimator layer: the same comparison through the estimator
  // registry. dkw-quantile inherits the sampler fast path wholesale;
  // ams-fk/ccm-entropy amortize the per-item reservoir draw with the
  // PayloadWindowUnit skip-ahead (payload updates stay per item, so the
  // margin is narrower than for raw samplers by design).
  std::printf("\n-- estimators (default substrates, r=64) --\n");
  Row({"estimator", "per-item", "batch=64", "batch=1k", "batch=16k",
       "unit"});
  for (const char* name : {"ams-fk", "ccm-entropy", "dkw-quantile"}) {
    EstimatorConfig config;
    config.window_n = kWindow;
    config.r = 64;
    config.seed = 15;
    SweepModes("e15", std::string(name) + "/bop-seq-single",
               std::span<const Item>(stream), kWindow,
               [&] { return CreateEstimator(name, config).ValueOrDie(); });
  }

  // --- Timestamp substrates: the sampler's batch fast path plus one
  // payload reconciliation per batch is what this block exercises.
  // Smaller stream and r: the ts units carry O(log n) payload candidates
  // each.
  const uint64_t ts_items = std::max<uint64_t>(kItems / 8, 1);
  const std::vector<Item> ts_stream = MakeStream(ts_items, /*seed=*/16);
  std::printf("\n-- estimators (bop-ts-single substrate, r=8) --\n");
  Row({"estimator", "per-item", "batch=64", "batch=1k", "batch=16k",
       "unit"});
  for (const char* name : {"ams-fk", "ccm-entropy"}) {
    EstimatorConfig config;
    config.substrate = "bop-ts-single";
    config.window_t = static_cast<Timestamp>(kWindow);
    config.r = 8;
    config.seed = 16;
    SweepModes("e15", std::string(name) + "/bop-ts-single",
               std::span<const Item>(ts_stream), kWindow,
               [&] { return CreateEstimator(name, config).ValueOrDie(); });
  }

  if (BenchReporter::Global().WriteJsonIfRequested()) {
    std::printf("\nwrote BENCH json to $SWSAMPLE_BENCH_JSON\n");
  }
  return 0;
}
