// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Crash-resume determinism across the WHOLE registry surface, plus the
// driver-level checkpoint subsystem:
//
//   (1) every registered sampler round-trips through the checkpoint
//       envelope and resumes bit-identically (lockstep sweep);
//   (2) every registered estimator x compatible substrate does too;
//   (3) truncation of every envelope is rejected at every offset, and
//       random byte corruption never crashes restore or first queries;
//   (4) StreamDriver checkpoint -> fresh process (new objects) -> resume
//       reproduces an uninterrupted run's final state bit for bit;
//   (5) ShardedStreamDriver ditto, in both partition modes, including
//       the persisted un-flushed router buffers;
//   (6) manifest/layout errors surface as Status, never crashes.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/estimator_registry.h"
#include "apps/sink_spec.h"
#include "apps/triangles.h"
#include "core/checkpoint.h"
#include "core/registry.h"
#include "stream/checkpoint.h"
#include "stream/driver.h"
#include "stream/sharded_driver.h"
#include "util/file_ops.h"
#include "util/rng.h"

namespace swsample {
namespace {

constexpr uint64_t kWindowN = 48;
constexpr Timestamp kWindowT = 25;
constexpr uint32_t kVertices = 12;

SinkSpec MatrixSamplerConfig(const SamplerSpec& spec, uint64_t seed) {
  SinkSpec config;
  config.name = spec.name;
  config.window_n = kWindowN;
  config.window_t = kWindowT;
  config.k = spec.single_sample ? 1 : 4;
  config.seed = seed;
  return config;
}

/// One reproducible burst stream; `edges` makes values valid
/// EncodeEdge() encodings (the triangle estimator's input contract).
class BurstStream {
 public:
  explicit BurstStream(uint64_t seed, bool edges)
      : rng_(seed), edges_(edges) {}

  std::vector<Item> Step(Timestamp t) {
    std::vector<Item> burst;
    const uint64_t size = rng_.UniformIndex(4);  // 0..3 arrivals
    for (uint64_t i = 0; i < size; ++i) {
      burst.push_back(Item{NextValue(), index_++, t});
    }
    return burst;
  }

 private:
  uint64_t NextValue() {
    if (!edges_) return rng_.UniformIndex(1 << 12);
    const uint32_t a = static_cast<uint32_t>(rng_.UniformIndex(kVertices));
    uint32_t b = a;
    while (b == a) {
      b = static_cast<uint32_t>(rng_.UniformIndex(kVertices));
    }
    return EncodeEdge(a, b);
  }

  Rng rng_;
  bool edges_;
  uint64_t index_ = 0;
};

TEST(CheckpointMatrixTest, EverySamplerResumesExactly) {
  for (const SamplerSpec& spec : RegisteredSamplers()) {
    SCOPED_TRACE(spec.name);
    const bool timestamped = spec.model == WindowModel::kTimestamp;
    SinkSpec config = MatrixSamplerConfig(spec, 0xc0ffee);
    auto original = CreateSampler(config).ValueOrDie();
    ASSERT_TRUE(original->persistable()) << spec.name;

    BurstStream stream(17, /*edges=*/false);
    for (Timestamp t = 0; t < 150; ++t) {
      for (const Item& item : stream.Step(t)) original->Observe(item);
      if (timestamped) original->AdvanceTime(t);
    }
    std::string blob = SaveSink(*original, config).ValueOrDie();
    RestoredSink resumed = RestoreSink(blob).ValueOrDie();
    EXPECT_EQ(resumed.spec, config);
    WindowSampler* restored = resumed.sink.sampler;
    ASSERT_NE(restored, nullptr);
    EXPECT_STREQ(restored->name(), spec.name);

    for (Timestamp t = 150; t < 300; ++t) {
      for (const Item& item : stream.Step(t)) {
        original->Observe(item);
        restored->Observe(item);
      }
      if (timestamped) {
        original->AdvanceTime(t);
        restored->AdvanceTime(t);
      }
      auto a = original->Sample();
      auto b = restored->Sample();
      ASSERT_EQ(a.size(), b.size()) << spec.name << " t=" << t;
      for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i], b[i]) << spec.name << " t=" << t << " slot=" << i;
      }
      ASSERT_EQ(original->MemoryWords(), restored->MemoryWords())
          << spec.name << " t=" << t;
    }
  }
}

SinkSpec MatrixEstimatorConfig(const EstimatorSpec& spec,
                               const SamplerSpec& substrate, uint64_t seed) {
  SinkSpec config;
  config.name = spec.name;
  config.substrate = substrate.name;
  config.window_n = kWindowN;
  config.window_t = kWindowT;
  // dkw-quantile refuses r > 1 on single-sample substrates.
  config.r = (substrate.single_sample &&
              std::string_view(spec.name) == "dkw-quantile")
                 ? 1
                 : 4;
  config.seed = seed;
  config.num_vertices = kVertices;
  return config;
}

TEST(CheckpointMatrixTest, EveryEstimatorSubstrateResumesExactly) {
  for (const EstimatorSpec& spec : RegisteredEstimators()) {
    const bool edges = std::string_view(spec.name) == "buriol-triangles";
    for (const char* substrate_name : spec.substrates) {
      SCOPED_TRACE(std::string(spec.name) + " over " + substrate_name);
      const SamplerSpec* substrate = FindSamplerSpec(substrate_name);
      ASSERT_NE(substrate, nullptr);
      const bool timestamped = substrate->model == WindowModel::kTimestamp;
      SinkSpec config = MatrixEstimatorConfig(spec, *substrate, 0xf00d);
      auto original = CreateEstimator(config).ValueOrDie();
      ASSERT_TRUE(original->persistable())
          << spec.name << " over " << substrate_name;

      BurstStream stream(23, edges);
      for (Timestamp t = 0; t < 120; ++t) {
        for (const Item& item : stream.Step(t)) original->Observe(item);
        if (timestamped) original->AdvanceTime(t);
      }
      std::string blob = SaveSink(*original, config).ValueOrDie();
      RestoredSink resumed = RestoreSink(blob).ValueOrDie();
      EXPECT_EQ(resumed.spec, config);
      WindowEstimator* restored = resumed.sink.estimator;
      ASSERT_NE(restored, nullptr);
      EXPECT_STREQ(restored->name(), spec.name);

      for (Timestamp t = 120; t < 220; ++t) {
        for (const Item& item : stream.Step(t)) {
          original->Observe(item);
          restored->Observe(item);
        }
        if (timestamped) {
          original->AdvanceTime(t);
          restored->AdvanceTime(t);
        }
        // Estimates consume fresh randomness: equality is exact only
        // because the restored RNG streams are bit-identical.
        if (t % 10 == 0) {
          EstimateReport a = original->Estimate();
          EstimateReport b = restored->Estimate();
          ASSERT_EQ(a.metric, b.metric);
          ASSERT_EQ(a.value, b.value)
              << spec.name << " over " << substrate_name << " t=" << t;
          ASSERT_EQ(a.window_size, b.window_size);
          ASSERT_EQ(a.support, b.support);
          ASSERT_EQ(original->MemoryWords(), restored->MemoryWords());
        }
      }
    }
  }
}

/// Builds one warmed-up envelope per registered sampler and per
/// estimator x substrate pair (every envelope shape the library emits).
std::vector<std::string> AllEnvelopes() {
  std::vector<std::string> blobs;
  for (const SamplerSpec& spec : RegisteredSamplers()) {
    SinkSpec config = MatrixSamplerConfig(spec, 99);
    auto sampler = CreateSampler(config).ValueOrDie();
    BurstStream stream(5, /*edges=*/false);
    for (Timestamp t = 0; t < 80; ++t) {
      for (const Item& item : stream.Step(t)) sampler->Observe(item);
      if (spec.model == WindowModel::kTimestamp) sampler->AdvanceTime(t);
    }
    blobs.push_back(SaveSink(*sampler, config).ValueOrDie());
  }
  for (const EstimatorSpec& spec : RegisteredEstimators()) {
    const bool edges = std::string_view(spec.name) == "buriol-triangles";
    for (const char* substrate_name : spec.substrates) {
      const SamplerSpec* substrate = FindSamplerSpec(substrate_name);
      SinkSpec config = MatrixEstimatorConfig(spec, *substrate, 7);
      auto estimator = CreateEstimator(config).ValueOrDie();
      BurstStream stream(11, edges);
      for (Timestamp t = 0; t < 80; ++t) {
        for (const Item& item : stream.Step(t)) estimator->Observe(item);
        if (substrate->model == WindowModel::kTimestamp) {
          estimator->AdvanceTime(t);
        }
      }
      blobs.push_back(SaveSink(*estimator, config).ValueOrDie());
    }
  }
  return blobs;
}

TEST(CheckpointFuzzTest, TruncationIsRejectedOnEveryEnvelope) {
  for (const std::string& blob : AllEnvelopes()) {
    ASSERT_TRUE(RestoreSink(blob).ok());
    for (size_t cut = 0; cut < blob.size();
         cut += 1 + blob.size() / 97) {  // ~97 cuts per envelope
      ASSERT_FALSE(RestoreSink(blob.substr(0, cut)).ok()) << "cut=" << cut;
    }
  }
}

TEST(CheckpointFuzzTest, ByteCorruptionNeverCrashes) {
  Rng rng(0xfadedace);
  for (const std::string& blob : AllEnvelopes()) {
    for (int trial = 0; trial < 200; ++trial) {
      std::string corrupt = blob;
      const size_t pos = rng.UniformIndex(corrupt.size());
      corrupt[pos] = static_cast<char>(corrupt[pos] ^
                                       (1u << rng.UniformIndex(8)));
      auto restored = RestoreSink(corrupt);
      if (!restored.ok()) continue;  // rejected: fine
      // A flipped value byte can still parse; queries must not crash.
      Sink& sink = restored.value().sink;
      sink.sink->MemoryWords();
      if (sink.sampler != nullptr) {
        sink.sampler->Sample();
      } else {
        sink.estimator->Estimate();
      }
    }
  }
}

// ---------------------------------------------------------------------
// Driver-level checkpoint/resume.

namespace fs = std::filesystem;

/// Writes `lines` of "<value>" (or "<t> <value>") events; returns path.
std::string WriteStreamFile(const std::string& name, uint64_t lines,
                            bool timestamped, uint64_t seed) {
  const std::string path = testing::TempDir() + name;
  std::FILE* f = std::fopen(path.c_str(), "w");
  EXPECT_NE(f, nullptr);
  Rng rng(seed);
  Timestamp ts = 0;
  for (uint64_t i = 0; i < lines; ++i) {
    const uint64_t value = rng.UniformIndex(1 << 14);
    if (timestamped) {
      ts += rng.UniformIndex(2);  // non-decreasing, frequent ties
      std::fprintf(f, "%lld %llu\n", static_cast<long long>(ts),
                   static_cast<unsigned long long>(value));
    } else {
      std::fprintf(f, "%llu\n", static_cast<unsigned long long>(value));
    }
  }
  std::fclose(f);
  return path;
}

/// Copies the first `lines` lines of `path` to a new file (the "crashed
/// before the rest arrived" input).
std::string TruncateFile(const std::string& path, uint64_t lines) {
  const std::string prefix_path = path + ".prefix";
  std::FILE* in = std::fopen(path.c_str(), "r");
  std::FILE* out = std::fopen(prefix_path.c_str(), "w");
  EXPECT_NE(in, nullptr);
  EXPECT_NE(out, nullptr);
  char line[256];
  for (uint64_t i = 0; i < lines && std::fgets(line, sizeof(line), in); ++i) {
    std::fputs(line, out);
  }
  std::fclose(in);
  std::fclose(out);
  return prefix_path;
}

TEST(DriverCheckpointTest, SingleSinkResumeMatchesUninterruptedRun) {
  const std::string stream =
      WriteStreamFile("ckpt_single.txt", 5000, /*timestamped=*/false, 31);
  const std::string prefix = TruncateFile(stream, 3000);
  const std::string dir = testing::TempDir() + "ckpt_single_dir";
  fs::remove_all(dir);

  SinkSpec config;
  config.name = "bop-seq-swor";
  config.window_n = 64;
  config.k = 8;
  config.seed = 0x5eed;

  StreamDriver::Options options;
  options.batch_size = 128;
  StreamDriver driver(options);

  // Uninterrupted reference run.
  auto reference = CreateSampler(config).ValueOrDie();
  ASSERT_TRUE(driver.DriveFile(stream, false, *reference).ok());

  // Crashed run: ingest only the prefix, checkpointing as it goes. (The
  // sink object dies with this scope — recovery must come from disk.)
  {
    auto crashed = CreateSampler(config).ValueOrDie();
    CheckpointPolicy policy;
    policy.dir = dir;
    policy.every_items = 1000;
    CheckpointWriter writer(
        policy, MakeSinkSerializers(config, 1).ValueOrDie());
    auto report = driver.DriveFile(prefix, false, *crashed,
                                               &writer, nullptr);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    // Checkpoints land on batch boundaries: 1024 and 2048.
    EXPECT_EQ(writer.last_written_items(), 2048u);
  }

  // Resume in a "new process": restore from disk, replay the full input.
  auto resumed = LoadCheckpoint(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ASSERT_EQ(resumed.value().sinks.size(), 1u);
  ASSERT_EQ(resumed.value().sinks[0].kind(), SinkKind::kSampler);
  EXPECT_EQ(resumed.value().position.items, 2048u);
  auto report = driver.DriveFile(
      stream, false, *resumed.value().sinks[0].sink, nullptr,
      &resumed.value().position);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().items, 5000u - 2048u);

  // Bit-identical final state: every subsequent draw agrees.
  for (int q = 0; q < 20; ++q) {
    auto a = reference->Sample();
    auto b = resumed.value().sinks[0].sampler->Sample();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
  }
}

// A checkpoint records a position in the event stream, not in a file: one
// taken while DriveFile parses an mmap'ed file resumes through DriveLines
// over a pipe, and the reverse, both bit-identical to an uninterrupted run.
TEST(DriverCheckpointTest, ResumeCrossesMmapAndPipeInputs) {
  const std::string stream =
      WriteStreamFile("ckpt_cross.txt", 5000, /*timestamped=*/true, 37);
  const std::string prefix = TruncateFile(stream, 3000);
  const std::string dir = testing::TempDir() + "ckpt_cross_dir";

  SinkSpec config;
  config.name = "bop-ts-swor";
  config.window_t = 30;
  config.k = 8;
  config.seed = 0xc0de;
  StreamDriver::Options options;
  options.batch_size = 128;
  StreamDriver driver(options);

  auto reference = CreateSampler(config).ValueOrDie();
  ASSERT_TRUE(driver.DriveFile(stream, true, *reference).ok());
  const std::string reference_state =
      SaveSink(*reference, config).ValueOrDie();

  auto drive_pipe = [&](const std::string& path, StreamSink& sink,
                        CheckpointWriter* writer,
                        const CheckpointManifest* resume) {
    std::FILE* f = popen(("cat '" + path + "'").c_str(), "r");
    EXPECT_NE(f, nullptr);
    auto result = driver.DriveLines(f, path, true, sink, nullptr, 0, writer,
                                    resume);
    pclose(f);
    return result;
  };
  for (const bool mmap_first : {true, false}) {
    SCOPED_TRACE(mmap_first ? "mmap, then pipe" : "pipe, then mmap");
    fs::remove_all(dir);
    {
      auto crashed = CreateSampler(config).ValueOrDie();
      CheckpointPolicy policy;
      policy.dir = dir;
      policy.every_items = 1000;
      CheckpointWriter writer(
          policy,
          MakeSinkSerializers(config, 1).ValueOrDie());
      auto report = mmap_first
                        ? driver.DriveFile(prefix, true, *crashed, &writer)
                        : drive_pipe(prefix, *crashed, &writer, nullptr);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_EQ(writer.last_written_items(), 2048u);
    }
    auto resumed = LoadCheckpoint(dir);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    StreamSink& sink = *resumed.value().sinks[0].sink;
    const CheckpointManifest* position = &resumed.value().position;
    auto report = mmap_first
                      ? drive_pipe(stream, sink, nullptr, position)
                      : driver.DriveFile(stream, true, sink, nullptr, position);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report.value().items, 5000u - 2048u);
    EXPECT_EQ(
        SaveSink(*resumed.value().sinks[0].sampler, config).ValueOrDie(),
        reference_state);
  }
}

// Timestamp-window sampler cut mid-run: the stream has same-timestamp
// plateaus of 96 items (well above the batched run-append cutover) with a
// bursty clock jump every tenth plateau, and the checkpoint cadence lands
// the cut (2048 = batch boundary) INSIDE a plateau. Resuming must replay
// with the same batch segmentation and reproduce the uninterrupted run's
// state bit for bit -- the contract the horizon-scanned batched expiry
// and closed-form run append guarantee at batch boundaries.
TEST(DriverCheckpointTest, TsSamplerResumeCutInsideSameTimestampRun) {
  const std::string path = testing::TempDir() + "ckpt_ts_run.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    Rng rng(91);
    for (uint64_t i = 0; i < 5000; ++i) {
      const uint64_t run = i / 96;
      const Timestamp ts = static_cast<Timestamp>(run + (run / 10) * 13);
      std::fprintf(f, "%lld %llu\n", static_cast<long long>(ts),
                   static_cast<unsigned long long>(rng.UniformIndex(1 << 14)));
    }
    std::fclose(f);
  }
  const std::string prefix = TruncateFile(path, 3000);
  const std::string dir = testing::TempDir() + "ckpt_ts_run_dir";
  fs::remove_all(dir);

  SinkSpec config;
  config.name = "bop-ts-swor";
  config.window_t = 25;
  config.k = 8;
  config.seed = 0x7ead;

  StreamDriver::Options options;
  options.batch_size = 128;
  StreamDriver driver(options);

  auto reference = CreateSampler(config).ValueOrDie();
  ASSERT_TRUE(driver.DriveFile(path, true, *reference).ok());

  {
    auto crashed = CreateSampler(config).ValueOrDie();
    CheckpointPolicy policy;
    policy.dir = dir;
    policy.every_items = 1000;
    CheckpointWriter writer(
        policy, MakeSinkSerializers(config, 1).ValueOrDie());
    auto report =
        driver.DriveFile(prefix, true, *crashed, &writer, nullptr);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    // 2048 is not a multiple of the 96-item plateau length, so the saved
    // state ends mid-run with pending same-timestamp arrivals.
    EXPECT_EQ(writer.last_written_items(), 2048u);
  }

  auto resumed = LoadCheckpoint(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ASSERT_EQ(resumed.value().sinks.size(), 1u);
  ASSERT_EQ(resumed.value().sinks[0].kind(), SinkKind::kSampler);
  EXPECT_EQ(resumed.value().position.items, 2048u);
  auto report = driver.DriveFile(
      path, true, *resumed.value().sinks[0].sink, nullptr,
      &resumed.value().position);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().items, 5000u - 2048u);

  for (int q = 0; q < 20; ++q) {
    auto a = reference->Sample();
    auto b = resumed.value().sinks[0].sampler->Sample();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
  }
}

TEST(DriverCheckpointTest, SingleEstimatorResumeMatchesUninterruptedRun) {
  const std::string stream =
      WriteStreamFile("ckpt_est.txt", 4000, /*timestamped=*/true, 41);
  const std::string prefix = TruncateFile(stream, 2500);
  const std::string dir = testing::TempDir() + "ckpt_est_dir";
  fs::remove_all(dir);

  SinkSpec config;
  config.name = "ams-fk";
  config.substrate = "bop-ts-single";
  config.window_t = 40;
  config.r = 16;
  config.seed = 0xabba;

  StreamDriver::Options options;
  options.batch_size = 256;
  StreamDriver driver(options);

  auto reference = CreateEstimator(config).ValueOrDie();
  ASSERT_TRUE(driver.DriveFile(stream, true, *reference).ok());

  {
    auto crashed = CreateEstimator(config).ValueOrDie();
    CheckpointPolicy policy;
    policy.dir = dir;
    policy.every_items = 800;
    CheckpointWriter writer(
        policy,
        MakeSinkSerializers(config, 1).ValueOrDie());
    ASSERT_TRUE(driver
                    .DriveFile(prefix, true, *crashed, &writer,
                                           nullptr)
                    .ok());
    EXPECT_GT(writer.last_written_items(), 0u);
  }

  auto resumed = LoadCheckpoint(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ASSERT_EQ(resumed.value().sinks.size(), 1u);
  ASSERT_EQ(resumed.value().sinks[0].kind(), SinkKind::kEstimator);
  ASSERT_TRUE(driver
                  .DriveFile(stream, true, *resumed.value().sinks[0].sink,
                             nullptr, &resumed.value().position)
                  .ok());

  for (int q = 0; q < 5; ++q) {
    EstimateReport a = reference->Estimate();
    EstimateReport b = resumed.value().sinks[0].estimator->Estimate();
    ASSERT_EQ(a.value, b.value);
    ASSERT_EQ(a.window_size, b.window_size);
    ASSERT_EQ(a.support, b.support);
  }
}

// A single-sink run is checkpointed under the spec it was built from
// (MakeSinkSerializers(spec, 1) forks no seed), so the envelope restores
// to that same spec, and the resumed serializers stamp it unchanged.
TEST(DriverCheckpointTest, SingleSinkEnvelopeRestoresItsOwnSpec) {
  const std::string stream =
      WriteStreamFile("ckpt_own_spec.txt", 3000, /*timestamped=*/false, 43);
  const std::string dir = testing::TempDir() + "ckpt_own_spec_dir";
  fs::remove_all(dir);
  const SinkSpec spec = ParseSinkSpec("bop-seq-swor,n=1000,k=8,seed=7")
                            .ValueOrDie();
  Sink sink = CreateSink(spec).ValueOrDie();
  CheckpointPolicy policy;
  policy.dir = dir;
  policy.every_items = 1000;
  CheckpointWriter writer(policy, MakeSinkSerializers(spec, 1).ValueOrDie());
  ASSERT_TRUE(
      StreamDriver().DriveFile(stream, false, *sink.sink, &writer).ok());

  auto resumed = LoadCheckpoint(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ASSERT_EQ(resumed.value().specs.size(), 1u);
  const SinkSpec& restored = resumed.value().specs[0];
  EXPECT_EQ(restored.seed, spec.seed);
  EXPECT_EQ(FormatSinkSpec(restored), FormatSinkSpec(spec));
  StreamSink& restored_sink = *resumed.value().sinks[0].sink;
  EXPECT_EQ(SerializersFor(resumed.value())[0](restored_sink).ValueOrDie(),
            SaveSink(restored_sink, spec).ValueOrDie());
}

TEST(DriverCheckpointTest, ShardedChunksResumeMatchesUninterruptedRun) {
  const std::string stream =
      WriteStreamFile("ckpt_sharded.txt", 6000, /*timestamped=*/false, 51);
  const std::string prefix = TruncateFile(stream, 3500);
  const std::string dir = testing::TempDir() + "ckpt_sharded_dir";
  fs::remove_all(dir);

  SinkSpec config;
  config.name = "bop-seq-swor";
  config.window_n = 64;
  config.k = 4;
  config.seed = 0xd1ce;
  const uint64_t kShards = 4;

  ShardedStreamDriver::Options options;
  options.threads = 2;
  options.chunk_items = 64;
  options.partition = ShardPartition::kChunks;
  ShardedStreamDriver driver(options);

  auto reference =
      CreateShardedSinks(config, kShards).ValueOrDie();
  {
    auto sinks = SinkPointers(reference);
    ASSERT_TRUE(driver.DriveFileCheckpointed(stream, false, sinks).ok());
  }

  {
    auto crashed =
        CreateShardedSinks(config, kShards).ValueOrDie();
    auto sinks = SinkPointers(crashed);
    CheckpointPolicy policy;
    policy.dir = dir;
    policy.every_items = 1000;
    CheckpointWriter writer(
        policy, MakeSinkSerializers(config, kShards).ValueOrDie());
    auto report =
        driver.DriveFileCheckpointed(prefix, false, sinks, &writer, nullptr);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(writer.last_written_items(), 3000u);
  }

  auto resumed = LoadCheckpoint(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ASSERT_EQ(resumed.value().sinks.size(), kShards);
  ASSERT_EQ(resumed.value().sinks[0].kind(), SinkKind::kSampler);
  EXPECT_EQ(resumed.value().position.items, 3000u);
  // The manifest carries the un-flushed router buffer (3000 % 64 != 0).
  uint64_t pending_items = 0;
  for (const auto& buffer : resumed.value().position.pending) {
    pending_items += buffer.size();
  }
  EXPECT_EQ(pending_items, 3000u % 64);
  {
    auto sinks = SinkPointers(resumed.value().sinks);
    auto report = driver.DriveFileCheckpointed(
        stream, false, sinks, nullptr, &resumed.value().position);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  }

  for (uint64_t s = 0; s < kShards; ++s) {
    auto a = reference[s].sampler->Sample();
    auto b = resumed.value().sinks[s].sampler->Sample();
    ASSERT_EQ(a.size(), b.size()) << "shard " << s;
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << "shard " << s << " slot " << i;
    }
  }
}

TEST(DriverCheckpointTest, ShardedKeyHashEstimatorResumeMatches) {
  const std::string stream =
      WriteStreamFile("ckpt_keyhash.txt", 5000, /*timestamped=*/true, 61);
  const std::string prefix = TruncateFile(stream, 2600);
  const std::string dir = testing::TempDir() + "ckpt_keyhash_dir";
  fs::remove_all(dir);

  SinkSpec config;
  config.name = "ams-fk";
  config.substrate = "bop-ts-single";
  config.window_t = 50;
  config.r = 8;
  config.seed = 0xcafe;
  const uint64_t kShards = 3;

  ShardedStreamDriver::Options options;
  options.threads = 2;
  options.chunk_items = 128;
  options.partition = ShardPartition::kKeyHash;
  ShardedStreamDriver driver(options);

  auto reference =
      CreateShardedSinks(config, kShards).ValueOrDie();
  {
    auto sinks = SinkPointers(reference);
    ASSERT_TRUE(driver.DriveFileCheckpointed(stream, true, sinks).ok());
  }

  {
    auto crashed =
        CreateShardedSinks(config, kShards).ValueOrDie();
    auto sinks = SinkPointers(crashed);
    CheckpointPolicy policy;
    policy.dir = dir;
    policy.every_items = 700;
    CheckpointWriter writer(
        policy, MakeSinkSerializers(config, kShards).ValueOrDie());
    ASSERT_TRUE(
        driver.DriveFileCheckpointed(prefix, true, sinks, &writer, nullptr)
            .ok());
  }

  auto resumed = LoadCheckpoint(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ASSERT_EQ(resumed.value().sinks.size(), kShards);
  {
    auto sinks = SinkPointers(resumed.value().sinks);
    ASSERT_TRUE(driver
                    .DriveFileCheckpointed(stream, true, sinks, nullptr,
                                           &resumed.value().position)
                    .ok());
  }

  auto ref_ptrs = EstimatorPointers(reference).ValueOrDie();
  auto res_ptrs = EstimatorPointers(resumed.value().sinks).ValueOrDie();
  auto merged_ref = MergedEstimate(ref_ptrs).ValueOrDie();
  auto merged_res = MergedEstimate(res_ptrs).ValueOrDie();
  EXPECT_EQ(merged_ref.value, merged_res.value);
  EXPECT_EQ(merged_ref.window_size, merged_res.window_size);
  EXPECT_EQ(merged_ref.support, merged_res.support);
}

TEST(DriverCheckpointTest, ResumeRejectsMismatchedGeometryAndBadDirs) {
  EXPECT_FALSE(
      LoadCheckpoint(testing::TempDir() + "does_not_exist_dir").ok());

  const std::string stream =
      WriteStreamFile("ckpt_geom.txt", 1200, /*timestamped=*/false, 71);
  const std::string dir = testing::TempDir() + "ckpt_geom_dir";
  fs::remove_all(dir);

  SinkSpec config;
  config.name = "bop-seq-swor";
  config.window_n = 64;
  config.k = 4;
  config.seed = 5;
  ShardedStreamDriver::Options options;
  options.threads = 2;
  options.chunk_items = 64;
  options.partition = ShardPartition::kChunks;
  ShardedStreamDriver driver(options);

  auto shards = CreateShardedSinks(config, 2).ValueOrDie();
  {
    auto sinks = SinkPointers(shards);
    CheckpointPolicy policy;
    policy.dir = dir;
    policy.every_items = 500;
    CheckpointWriter writer(
        policy,
        MakeSinkSerializers(config, 2).ValueOrDie());
    ASSERT_TRUE(
        driver.DriveFileCheckpointed(stream, false, sinks, &writer, nullptr)
            .ok());
  }
  auto resumed = LoadCheckpoint(dir);
  ASSERT_TRUE(resumed.ok());

  // Changed chunk size must be rejected.
  ShardedStreamDriver::Options bad_options = options;
  bad_options.chunk_items = 32;
  ShardedStreamDriver bad_driver(bad_options);
  {
    auto sinks = SinkPointers(resumed.value().sinks);
    EXPECT_FALSE(bad_driver
                     .DriveFileCheckpointed(stream, false, sinks, nullptr,
                                            &resumed.value().position)
                     .ok());
  }
  // A sharded checkpoint cannot resume through the single-sink driver.
  StreamDriver single;
  EXPECT_FALSE(single
                   .DriveFile(stream, false, *resumed.value().sinks[0].sink,
                              nullptr, &resumed.value().position)
                   .ok());
  // Shard files that disagree on kind or registry name are rejected:
  // swap shard-0001 for an estimator envelope, then for a sampler
  // envelope of another registry name.
  {
    std::string shard1;
    for (const auto& entry : fs::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("shard-0001-", 0) == 0) shard1 = entry.path().string();
    }
    ASSERT_FALSE(shard1.empty());
    const std::string original =
        ReadFileBytes("test.read", shard1).ValueOrDie();
    const std::pair<const char*, const char*> swaps[] = {
        {"ams-fk@bop-seq-single,n=32,r=4", "mixed sampler and estimator"},
        {"bop-seq-swr,n=32,k=4", "disagree on the registry name"}};
    for (const auto& [text, why] : swaps) {
      SCOPED_TRACE(text);
      const SinkSpec other = ParseSinkSpec(text).ValueOrDie();
      const Sink sink = CreateSink(other).ValueOrDie();
      ASSERT_TRUE(AtomicWriteFile("test.write", shard1,
                                  SaveSink(*sink.sink, other).ValueOrDie(),
                                  /*do_fsync=*/false)
                      .ok());
      auto loaded = LoadCheckpoint(dir);
      ASSERT_FALSE(loaded.ok());
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(loaded.status().message().find(why), std::string::npos)
          << loaded.status().ToString();
    }
    ASSERT_TRUE(AtomicWriteFile("test.write", shard1, original,
                                /*do_fsync=*/false)
                    .ok());
    ASSERT_TRUE(LoadCheckpoint(dir).ok());
  }
  // Corrupt MANIFEST: flip one byte -> Status, not a crash.
  {
    const std::string manifest_path = dir + "/MANIFEST";
    std::string data = ReadFileBytes("test.read", manifest_path).ValueOrDie();
    data[0] ^= 0x1;
    ASSERT_TRUE(AtomicWriteFile("test.write", manifest_path, data,
                                /*do_fsync=*/false)
                    .ok());
    EXPECT_FALSE(LoadCheckpoint(dir).ok());
  }
}

TEST(DriverCheckpointTest, ResumeDetectsDivergentReplay) {
  // A resume against an input whose prefix differs from what was
  // ingested must fail (timestamp divergence check).
  const std::string stream =
      WriteStreamFile("ckpt_diverge.txt", 2000, /*timestamped=*/true, 81);
  const std::string dir = testing::TempDir() + "ckpt_diverge_dir";
  fs::remove_all(dir);

  SinkSpec config;
  config.name = "bop-ts-swr";
  config.window_t = 40;
  config.k = 2;
  config.seed = 9;
  StreamDriver driver;

  {
    auto sink = CreateSampler(config).ValueOrDie();
    CheckpointPolicy policy;
    policy.dir = dir;
    policy.every_items = 1000;
    CheckpointWriter writer(
        policy,
        MakeSinkSerializers(config, 1).ValueOrDie());
    ASSERT_TRUE(
        driver.DriveFile(stream, true, *sink, &writer, nullptr)
            .ok());
  }
  auto resumed = LoadCheckpoint(dir);
  ASSERT_TRUE(resumed.ok());
  // Replay a DIFFERENT stream (same length, different timestamps).
  const std::string other =
      WriteStreamFile("ckpt_diverge_other.txt", 2000, true, 82);
  const CheckpointManifest& position = resumed.value().position;
  auto diverged = driver.DriveFile(
      other, true, *resumed.value().sinks[0].sink, nullptr, &position);
  ASSERT_FALSE(diverged.ok());
  // Named against the line of the last already-ingested event.
  EXPECT_NE(diverged.status().message().find(
                other + ":" + std::to_string(position.items) +
                ": replayed input does not match the checkpoint"),
            std::string::npos)
      << diverged.status().message();
  // A replay shorter than the checkpointed prefix fails too.
  const std::string short_replay = TruncateFile(stream, position.items / 2);
  auto truncated = driver.DriveFile(
      short_replay, true, *resumed.value().sinks[0].sink, nullptr, &position);
  ASSERT_FALSE(truncated.ok());
  EXPECT_NE(truncated.status().message().find("replayed input ends before"),
            std::string::npos)
      << truncated.status().message();
}

}  // namespace
}  // namespace swsample
