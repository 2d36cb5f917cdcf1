// Copyright (c) swsample authors. Licensed under the MIT license.
//
// The sharded ingestion engine: option/shard validation, replica
// construction, item conservation under both partition modes and under
// backpressure, merged-sample uniformity against the ExactWindow oracle
// at 1/2/8 shards (the ISSUE acceptance sweep), and cross-shard estimator
// merges against single-shard ground truth. This binary is also the
// ThreadSanitizer workload for the engine.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "apps/estimator.h"
#include "apps/estimator_registry.h"
#include "apps/sink_spec.h"
#include "baseline/exact_window.h"
#include "core/api.h"
#include "core/registry.h"
#include "stats/tests.h"
#include "stream/sharded_driver.h"
#include "stream/workload.h"

namespace swsample {
namespace {

// Sized so the kChunks exact-union alignment holds for 1/2/8 shards:
// shard windows kWindow/N are multiples of kChunk, and kItems is a
// multiple of kChunk * N.
constexpr uint64_t kItems = 16384;
constexpr uint64_t kWindow = 4096;
constexpr uint64_t kChunk = 64;

/// value == global index, so window membership is checkable on sight.
std::vector<Item> IdentityStream(uint64_t items) {
  std::vector<Item> out;
  out.reserve(items);
  for (uint64_t i = 0; i < items; ++i) {
    out.push_back(Item{i, i, static_cast<Timestamp>(i)});
  }
  return out;
}

ShardedStreamDriver::Options SmallChunkOptions(uint64_t threads,
                                               ShardPartition partition) {
  ShardedStreamDriver::Options options;
  options.threads = threads;
  options.chunk_items = kChunk;
  options.partition = partition;
  return options;
}

TEST(ShardedDriverTest, ValidatesOptionsAndShards) {
  const std::vector<Item> stream = IdentityStream(16);
  SinkSpec config;
  config.name = "bop-seq-swr";
  config.window_n = 8;
  config.k = 2;
  auto sampler = CreateSampler(config).ValueOrDie();
  std::vector<StreamSink*> sinks = {sampler.get()};

  ShardedStreamDriver::Options bad;
  bad.threads = 0;
  EXPECT_FALSE(ShardedStreamDriver(bad).Drive(stream, sinks).ok());
  bad = ShardedStreamDriver::Options{};
  bad.chunk_items = 0;
  EXPECT_FALSE(ShardedStreamDriver(bad).Drive(stream, sinks).ok());
  bad = ShardedStreamDriver::Options{};
  bad.queue_chunks = 0;
  EXPECT_FALSE(ShardedStreamDriver(bad).Drive(stream, sinks).ok());

  ShardedStreamDriver driver;
  EXPECT_FALSE(driver.Drive(stream, {}).ok());
  std::vector<StreamSink*> with_null = {sampler.get(), nullptr};
  EXPECT_FALSE(driver.Drive(stream, with_null).ok());
}

TEST(CreateShardedSinksTest, SplitsSequenceWindowsAndForksSeeds) {
  SinkSpec config;
  config.name = "bop-seq-swr";
  config.window_n = 4096;
  config.k = 8;
  config.seed = 5;
  auto replicas = CreateShardedSinks(config, 4).ValueOrDie();
  ASSERT_EQ(replicas.size(), 4u);
  // Each replica carries a 1024-item window: after 2048 identical items
  // its snapshot occupancy is the shard window, not the global one.
  for (auto& replica : replicas) {
    for (uint64_t i = 0; i < 2048; ++i) {
      replica.sink->Observe(Item{i, i, static_cast<Timestamp>(i)});
    }
    ASSERT_NE(replica.sampler, nullptr);
    EXPECT_EQ(replica.sampler->Snapshot().ValueOrDie().active, 1024u);
  }

  config.name = "no-such-sampler";
  EXPECT_FALSE(CreateShardedSinks(config, 2).ok());
  config.window_n = 4098;  // not divisible by 4
  config.name = "bop-seq-swr";
  EXPECT_FALSE(CreateShardedSinks(config, 4).ok());
  config.window_n = 2;  // smaller than the shard count
  EXPECT_FALSE(CreateShardedSinks(config, 4).ok());

  // Timestamp windows pass through unsplit.
  config.window_t = 4098;
  config.name = "exact-ts";
  auto ts = CreateShardedSinks(config, 4).ValueOrDie();
  EXPECT_EQ(ts.size(), 4u);
}

TEST(ShardedDriverTest, ConservesItemsAcrossPartitionModes) {
  const std::vector<Item> stream = IdentityStream(kItems);
  for (ShardPartition partition :
       {ShardPartition::kChunks, ShardPartition::kKeyHash}) {
    SinkSpec config;
    config.name = "bop-seq-swr";
    config.window_n = kWindow;
    config.k = 8;
    auto replicas =
        CreateShardedSinks(config, 4).ValueOrDie();
    auto sinks = SinkPointers(replicas);
    auto report = ShardedStreamDriver(SmallChunkOptions(4, partition))
                      .Drive(stream, sinks)
                      .ValueOrDie();
    EXPECT_EQ(report.total.items, kItems);
    ASSERT_EQ(report.shards.size(), 4u);
    uint64_t shard_sum = 0;
    for (const ShardReport& shard : report.shards) {
      EXPECT_GT(shard.items, 0u);
      EXPECT_GT(shard.batches, 0u);
      shard_sum += shard.items;
    }
    EXPECT_EQ(shard_sum, kItems);
    EXPECT_GT(report.total.memory_words, 0u);
  }
}

TEST(ShardedDriverTest, BackpressureCompletesAndConserves) {
  const std::vector<Item> stream = IdentityStream(kItems);
  SinkSpec config;
  config.name = "bop-seq-swor";
  config.window_n = kWindow;
  config.k = 4;
  auto replicas = CreateShardedSinks(config, 8).ValueOrDie();
  auto sinks = SinkPointers(replicas);
  ShardedStreamDriver::Options options;
  options.threads = 3;  // shards > threads: workers own several replicas
  options.chunk_items = 16;
  options.queue_chunks = 1;  // producer blocks on every in-flight chunk
  auto report =
      ShardedStreamDriver(options).Drive(stream, sinks).ValueOrDie();
  EXPECT_EQ(report.total.items, kItems);
}

// The acceptance sweep: the merged sample over N in {1, 2, 8} shards must
// be uniform over the ExactWindow oracle's window contents.
class MergedUniformityTest
    : public ::testing::TestWithParam<std::tuple<const char*, uint64_t>> {};

TEST_P(MergedUniformityTest, MergedSampleUniformOverExactWindow) {
  const auto [sampler_name, shards] = GetParam();
  // Smaller than the file-level sizes so re-driving per trial stays cheap
  // (the paper samplers' per-call guarantee is over the INGEST
  // randomness, so each trial needs a fresh seeded drive); alignment for
  // 8 shards still holds: shard windows 128 = 4 chunks of 32, stream
  // 4096 = 128 chunks.
  constexpr uint64_t kUItems = 4096;
  constexpr uint64_t kUWindow = 1024;
  constexpr uint64_t kK = 16;
  constexpr uint64_t kTrials = 150;
  const std::vector<Item> stream = IdentityStream(kUItems);

  // Ground truth: the oracle's window after the same stream.
  auto oracle =
      ExactWindow::CreateSequence(kUWindow, kK, /*wr=*/true, 1).ValueOrDie();
  for (const Item& item : stream) oracle->Observe(item);
  ASSERT_EQ(oracle->size(), kUWindow);
  const uint64_t window_start = kUItems - kUWindow;

  ShardedStreamDriver::Options options =
      SmallChunkOptions(shards, ShardPartition::kChunks);
  options.chunk_items = 32;
  std::vector<uint64_t> counts(16, 0);  // 16 cells across the window
  for (uint64_t trial = 0; trial < kTrials; ++trial) {
    SinkSpec config;
    config.name = sampler_name;
    config.window_n = kUWindow;
    config.k = kK;
    config.seed = trial * 31 + 7;
    auto replicas =
        CreateShardedSinks(config, shards).ValueOrDie();
    auto sinks = SinkPointers(replicas);
    auto report =
        ShardedStreamDriver(options).Drive(stream, sinks).ValueOrDie();
    ASSERT_EQ(report.total.items, kUItems);
    auto merged =
        MergedSnapshot(SamplerPointers(replicas).ValueOrDie(), trial).ValueOrDie();
    EXPECT_EQ(merged.active, kUWindow);
    EXPECT_EQ(merged.sample.size(), kK);
    for (const Item& item : merged.sample) {
      // Sampled values must be exactly the oracle window's members.
      ASSERT_GE(item.value, window_start);
      ASSERT_LT(item.value, kUItems);
      ++counts[(item.value - window_start) / (kUWindow / 16)];
    }
  }
  auto result = ChiSquareUniform(counts);
  EXPECT_GT(result.p_value, 1e-4)
      << sampler_name << " over " << shards
      << " shards: chi2=" << result.statistic << " p=" << result.p_value;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MergedUniformityTest,
    ::testing::Combine(::testing::Values("bop-seq-swr", "bop-seq-swor",
                                         "exact-seq"),
                       ::testing::Values(1u, 2u, 8u)));

// window-count over sequence shards is exact: shard counts sum to the
// global window occupancy under chunk partitioning.
TEST(ShardedEstimatorTest, WindowCountSumsExactly) {
  const std::vector<Item> stream = IdentityStream(kItems);
  SinkSpec config;
  config.name = "window-count";
  config.substrate = "bop-seq-single";
  config.window_n = kWindow;
  config.r = 1;
  auto replicas =
      CreateShardedSinks(config, 4).ValueOrDie();
  auto sinks = SinkPointers(replicas);
  auto report =
      ShardedStreamDriver(SmallChunkOptions(4, ShardPartition::kChunks))
          .Drive(stream, sinks)
          .ValueOrDie();
  ASSERT_EQ(report.total.items, kItems);
  auto merged = MergedEstimate(EstimatorPointers(replicas).ValueOrDie()).ValueOrDie();
  EXPECT_DOUBLE_EQ(merged.value, static_cast<double>(kWindow));
  EXPECT_DOUBLE_EQ(merged.window_size, static_cast<double>(kWindow));
}

// ams-fk / ccm-entropy over the exact-ts oracle substrate with key-hash
// partitioning: shard actives partition the global active set exactly, so
// the merged estimates must agree with the single-shard estimator within
// sampling tolerance (both still draw r random positions per query).
TEST(ShardedEstimatorTest, KeyedMergesMatchSingleShardEstimates) {
  // 64 keys uniformly; true window F2 and H are computed from the tail.
  Rng rng(404);
  std::vector<Item> stream;
  stream.reserve(kItems);
  for (uint64_t i = 0; i < kItems; ++i) {
    stream.push_back(
        Item{rng.UniformIndex(64), i, static_cast<Timestamp>(i)});
  }
  std::map<uint64_t, uint64_t> tail_freq;
  for (uint64_t i = kItems - kWindow; i < kItems; ++i) {
    ++tail_freq[stream[i].value];
  }
  double true_f2 = 0.0;
  double true_h = 0.0;
  for (const auto& [value, count] : tail_freq) {
    const double p = static_cast<double>(count) / kWindow;
    true_f2 += static_cast<double>(count) * static_cast<double>(count);
    true_h -= p * std::log2(p);
  }

  for (const char* name : {"ams-fk", "ccm-entropy"}) {
    SinkSpec config;
    config.name = name;
    config.substrate = "exact-ts";
    config.window_t = kWindow;  // ts == index, so last kWindow items active
    config.r = 512;
    config.seed = 17;
    auto replicas = CreateShardedSinks(config, 4).ValueOrDie();
    auto sinks = SinkPointers(replicas);
    auto report =
        ShardedStreamDriver(SmallChunkOptions(4, ShardPartition::kKeyHash))
            .Drive(stream, sinks)
            .ValueOrDie();
    ASSERT_EQ(report.total.items, kItems);
    auto merged = MergedEstimate(EstimatorPointers(replicas).ValueOrDie()).ValueOrDie();
    // The shard actives must partition the global active set exactly.
    EXPECT_DOUBLE_EQ(merged.window_size, static_cast<double>(kWindow))
        << name;
    const double truth = std::string_view(name) == "ams-fk" ? true_f2
                                                            : true_h;
    EXPECT_NEAR(merged.value, truth, 0.15 * truth) << name;
  }
}

// biased-mean over a constant-value stream: every shard mean is the
// constant, so the weighted-mean merge must reproduce it exactly.
TEST(ShardedEstimatorTest, ConstantMeanSurvivesMergeExactly) {
  std::vector<Item> stream;
  stream.reserve(kItems);
  for (uint64_t i = 0; i < kItems; ++i) {
    stream.push_back(Item{42, i, static_cast<Timestamp>(i)});
  }
  SinkSpec config;
  config.name = "biased-mean";
  config.substrate = "bop-seq-swr";
  config.window_n = kWindow;
  config.r = 8;
  auto replicas =
      CreateShardedSinks(config, 4).ValueOrDie();
  auto sinks = SinkPointers(replicas);
  ASSERT_TRUE(ShardedStreamDriver(SmallChunkOptions(4, ShardPartition::kChunks))
                  .Drive(stream, sinks)
                  .ok());
  auto merged = MergedEstimate(EstimatorPointers(replicas).ValueOrDie()).ValueOrDie();
  EXPECT_DOUBLE_EQ(merged.value, 42.0);
}

TEST(ShardedEstimatorTest, MergeCapabilityMatrix) {
  const std::map<std::string, EstimateMergeKind> expected = {
      {"ams-fk", EstimateMergeKind::kSum},
      {"ccm-entropy", EstimateMergeKind::kEntropy},
      {"window-count", EstimateMergeKind::kCount},
      {"biased-mean", EstimateMergeKind::kWeightedMean},
      {"dkw-quantile", EstimateMergeKind::kNone},
      {"buriol-triangles", EstimateMergeKind::kNone},
  };
  for (const EstimatorSpec& spec : RegisteredEstimators()) {
    SinkSpec config;
    config.name = spec.name;
    config.window_n = 256;
    config.window_t = 256;
    config.r = spec.name == std::string_view("dkw-quantile") ? 8 : 4;
    config.num_vertices = 16;
    auto estimator = CreateEstimator(config).ValueOrDie();
    ASSERT_TRUE(expected.count(spec.name)) << spec.name;
    EXPECT_EQ(estimator->merge_kind(), expected.at(spec.name)) << spec.name;
  }
}

// Timestamp windows with bursts and quiet steps: Poisson(0.7) arrivals
// leave about half the steps empty, so the stream carries timestamp gaps.
// Merged DGIM counts stay within the (1 +/- eps) envelope of the exact
// oracle count, and the final AdvanceTime broadcast syncs every shard's
// expiry to the stream end.
TEST(ShardedDriverTest, BurstyTimestampCountsTrackExact) {
  const std::vector<Item> items =
      WorkloadGenerator::Create("poisson,lambda=0.7,domain=65536",
                                /*seed=*/77)
          .ValueOrDie()
          ->Take(12000);
  constexpr Timestamp kT0 = 2000;

  auto oracle = ExactWindow::CreateTimestamp(kT0, 1, true, 1).ValueOrDie();
  for (const Item& item : items) oracle->Observe(item);

  SinkSpec config;
  config.name = "window-count";
  config.substrate = "bop-ts-single";
  config.window_t = kT0;
  config.r = 1;
  config.count_eps = 0.05;
  auto replicas =
      CreateShardedSinks(config, 4).ValueOrDie();
  auto sinks = SinkPointers(replicas);
  auto report =
      ShardedStreamDriver(SmallChunkOptions(4, ShardPartition::kKeyHash))
          .Drive(items, sinks)
          .ValueOrDie();
  EXPECT_EQ(report.total.items, items.size());
  EXPECT_GT(items.back().timestamp, static_cast<Timestamp>(items.size()));

  auto merged = MergedEstimate(EstimatorPointers(replicas).ValueOrDie()).ValueOrDie();
  const double exact_count = static_cast<double>(oracle->size());
  EXPECT_NEAR(merged.value, exact_count, 0.05 * exact_count + 4.0);
}

TEST(ShardedDriverTest, DriveFileParsesAndPropagatesErrors) {
  const std::string good_path = ::testing::TempDir() + "/sharded_good.txt";
  const std::string bad_path = ::testing::TempDir() + "/sharded_bad.txt";
  {
    std::FILE* f = std::fopen(good_path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    for (int i = 0; i < 1000; ++i) {
      std::fprintf(f, "%d\n", i);
      if (i % 100 == 0) std::fprintf(f, "\n");  // blank lines are skipped
    }
    std::fclose(f);
  }
  {
    std::FILE* f = std::fopen(bad_path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "1\n2\nnot-a-number\n4\n");
    std::fclose(f);
  }

  SinkSpec config;
  config.name = "bop-seq-swr";
  config.window_n = 512;
  config.k = 4;
  auto replicas = CreateShardedSinks(config, 2).ValueOrDie();
  auto sinks = SinkPointers(replicas);
  ShardedStreamDriver driver(SmallChunkOptions(2, ShardPartition::kChunks));
  auto good =
      driver.DriveFileCheckpointed(good_path, /*timestamped=*/false, sinks);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value().total.items, 1000u);

  auto bad =
      driver.DriveFileCheckpointed(bad_path, /*timestamped=*/false, sinks);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find(":3"), std::string::npos)
      << bad.status().ToString();
  EXPECT_NE(bad.status().message().find("malformed event line"),
            std::string::npos);

  EXPECT_FALSE(
      driver.DriveFileCheckpointed("/no/such/file", false, sinks).ok());
  std::remove(good_path.c_str());
  std::remove(bad_path.c_str());
}

}  // namespace
}  // namespace swsample
