// Copyright (c) swsample authors. Licensed under the MIT license.
//
// E16: sharded ingestion scaling. Partitions one pre-materialized stream
// across N worker threads (round-robin chunks, shard windows n/N) and
// measures aggregate and per-core throughput against the single-threaded
// batched StreamDriver baseline, for the samplers whose merged output the
// engine can recombine (bop-seq-swr / bop-seq-swor) and for a merge-capable
// estimator (ams-fk over key-hash partitioning). The scaling claim needs
// real cores: on a 1-core host every multi-thread row collapses to ~1x,
// so the table prints the detected core count for context.

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/estimator_registry.h"
#include "apps/sink_spec.h"
#include "bench/bench_util.h"
#include "core/registry.h"
#include "stream/driver.h"
#include "stream/sharded_driver.h"

using namespace swsample;
using namespace swsample::bench;

namespace {

// Sizes keep the kChunks exact-union alignment in both modes: the shard
// window (kWindow / threads) stays a multiple of kChunkItems and the
// stream length a multiple of kChunkItems * threads for threads <= 8.
const uint64_t kItems = Scaled(1 << 24, 256);  // 16M arrivals (full mode)
const uint64_t kWindow = Scaled(1 << 20, 256);
constexpr uint64_t kK = 64;
const uint64_t kChunkItems = Scaled(1 << 14, 256);

std::vector<Item> MakeStream(uint64_t items, uint64_t seed) {
  Rng rng(seed);
  std::vector<Item> out;
  out.reserve(items);
  for (uint64_t i = 0; i < items; ++i) {
    out.push_back(
        Item{rng.UniformIndex(1 << 16), i, static_cast<Timestamp>(i)});
  }
  return out;
}

/// Shard-count sweep for one sampler: aggregate M items/s, speedup over
/// the 1-thread StreamDriver baseline, and per-core efficiency.
void SamplerSweep(const char* name, std::span<const Item> stream,
                  const std::vector<uint64_t>& thread_counts) {
  SinkSpec config;
  config.name = name;
  config.window_n = kWindow;
  config.k = kK;
  config.seed = 16;

  double baseline = 0.0;
  {
    auto sampler = CreateSampler(config).ValueOrDie();
    StreamDriver::Options options;
    options.batch_size = kChunkItems;
    options.memory_probe_every = 0;
    auto report = StreamDriver(options).Drive(stream, *sampler);
    baseline = report.items_per_sec;
    Row({name, "baseline", F(baseline / 1e6, 2), "1.00", "1.00",
         U(report.peak_memory_words)});
  }
  for (uint64_t threads : thread_counts) {
    auto shards = CreateShardedSinks(config, threads).ValueOrDie();
    auto sinks = SinkPointers(shards);
    ShardedStreamDriver::Options options;
    options.threads = threads;
    options.chunk_items = kChunkItems;
    options.memory_probe_every = 0;
    options.partition = ShardPartition::kChunks;
    auto report =
        ShardedStreamDriver(options).Drive(stream, sinks).ValueOrDie();
    const double aggregate = report.total.items_per_sec;
    const double speedup = baseline > 0 ? aggregate / baseline : 0.0;
    Row({name, U(threads) + " thr", F(aggregate / 1e6, 2), F(speedup, 2),
         F(speedup / static_cast<double>(threads), 2),
         U(report.total.peak_memory_words)});
    // The merged draw must exist and stay inside the window — a cheap
    // end-to-end guard that the sweep measured a correct configuration.
    auto merged =
        MergedSnapshot(SamplerPointers(shards).ValueOrDie(), config.seed).ValueOrDie();
    const uint64_t window_start = stream.size() - kWindow;
    for (const Item& item : merged.sample) {
      SWS_CHECK(item.value >= window_start);  // value == global index here
    }
  }
}

void EstimatorSweep(std::span<const Item> stream,
                    const std::vector<uint64_t>& thread_counts) {
  SinkSpec config;
  config.name = "ams-fk";
  config.substrate = "bop-seq-single";
  config.window_n = kWindow;
  config.r = 64;
  config.seed = 16;

  double baseline = 0.0;
  {
    auto est = CreateEstimator(config).ValueOrDie();
    StreamDriver::Options options;
    options.batch_size = kChunkItems;
    options.memory_probe_every = 0;
    auto report = StreamDriver(options).Drive(stream, *est);
    baseline = report.items_per_sec;
    Row({"ams-fk", "baseline", F(baseline / 1e6, 2), "1.00", "1.00",
         U(report.peak_memory_words)});
  }
  for (uint64_t threads : thread_counts) {
    auto shards =
        CreateShardedSinks(config, threads).ValueOrDie();
    auto sinks = SinkPointers(shards);
    ShardedStreamDriver::Options options;
    options.threads = threads;
    options.chunk_items = kChunkItems;
    options.memory_probe_every = 0;
    options.partition = ShardPartition::kKeyHash;
    auto report =
        ShardedStreamDriver(options).Drive(stream, sinks).ValueOrDie();
    const double aggregate = report.total.items_per_sec;
    const double speedup = baseline > 0 ? aggregate / baseline : 0.0;
    Row({"ams-fk", U(threads) + " thr", F(aggregate / 1e6, 2), F(speedup, 2),
         F(speedup / static_cast<double>(threads), 2),
         U(report.total.peak_memory_words)});
    SWS_CHECK(
        MergedEstimate(EstimatorPointers(shards).ValueOrDie()).ValueOrDie().value > 0);
  }
}

}  // namespace

int main() {
  Banner("E16: sharded ingestion scaling",
         "aggregate items/s grows with worker threads; target >= 3x at 4 "
         "threads for bop-seq-swr on a >= 4-core host");
  std::printf("host hardware_concurrency: %u\n",
              std::thread::hardware_concurrency());

  // A stream with value == index makes window membership checkable after
  // the merged draw.
  std::vector<Item> stream;
  stream.reserve(kItems);
  for (uint64_t i = 0; i < kItems; ++i) {
    stream.push_back(Item{i, i, static_cast<Timestamp>(i)});
  }

  std::vector<uint64_t> thread_counts = {1, 2, 4};
  if (std::thread::hardware_concurrency() >= 8) thread_counts.push_back(8);

  std::printf("\n-- samplers (round-robin chunks, shard windows n/N) --\n");
  Row({"sampler", "config", "M items/s", "speedup", "per-core", "peak wrds"});
  SamplerSweep("bop-seq-swr", stream, thread_counts);
  SamplerSweep("bop-seq-swor", stream, thread_counts);

  // Keyed workload: hashed values, key-hash partitioning, merged by the
  // F_k shard-sum identity.
  const std::vector<Item> keyed = MakeStream(kItems, /*seed=*/16);
  std::printf("\n-- estimator (key-hash partitioning, shard-sum merge) --\n");
  Row({"estimator", "config", "M items/s", "speedup", "per-core",
       "peak wrds"});
  EstimatorSweep(keyed, thread_counts);

  std::printf(
      "\nnote: the producer routes zero-copy sub-spans in chunks mode; the\n"
      "per-item re-index copy runs on the workers, so aggregate throughput\n"
      "scales with cores until memory bandwidth saturates. On a 1-core\n"
      "host (CI smoke) the rows collapse to ~1x by construction.\n");
  return 0;
}
