// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Unit tests for the stream substrate: the workload generator's value and
// arrival families, and the text ingestion paths of both drivers.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "stream/checkpoint.h"
#include "stream/driver.h"
#include "stream/sharded_driver.h"
#include "stream/workload.h"
#include "util/rng.h"
#include "util/serial.h"

namespace swsample {
namespace {

std::vector<Item> TakeFrom(const std::string& spec, uint64_t seed,
                           uint64_t count) {
  return WorkloadGenerator::Create(spec, seed).ValueOrDie()->Take(count);
}

// Burst sizes of the first `steps` steps of `spec`.
std::vector<uint64_t> StepSizes(const std::string& spec, uint64_t steps) {
  auto stream = WorkloadGenerator::Create(spec, 1).ValueOrDie();
  std::vector<uint64_t> sizes;
  for (uint64_t t = 0; t < steps; ++t) sizes.push_back(stream->Step().size());
  return sizes;
}

TEST(WorkloadValuesTest, RejectsBadDomainAndAlpha) {
  EXPECT_FALSE(WorkloadGenerator::Create("constant,domain=0", 1).ok());
  EXPECT_FALSE(WorkloadGenerator::Create("constant@zipf,domain=0", 1).ok());
  EXPECT_FALSE(WorkloadGenerator::Create("constant@zipf,alpha=-1", 1).ok());
}

TEST(WorkloadValuesTest, UniformStaysInAndCoversDomain) {
  std::vector<uint64_t> counts(8, 0);
  for (const Item& item : TakeFrom("constant,domain=8", 2, 8000)) {
    ASSERT_LT(item.value, 8u);
    ++counts[item.value];
  }
  for (uint64_t c : counts) EXPECT_GT(c, 800u);
}

TEST(WorkloadValuesTest, ZipfSkewFavorsSmallValues) {
  std::vector<uint64_t> counts(100, 0);
  for (const Item& item :
       TakeFrom("constant@zipf,domain=100,alpha=1.2", 3, 100000)) {
    ++counts[item.value];
  }
  // Head value must dominate the tail value heavily under alpha=1.2.
  EXPECT_GT(counts[0], 10 * counts[50] / 2);
  EXPECT_GT(counts[0], counts[1]);
}

TEST(WorkloadValuesTest, ZipfAlphaZeroIsUniform) {
  std::vector<uint64_t> counts(16, 0);
  for (const Item& item :
       TakeFrom("constant@zipf,domain=16,alpha=0", 4, 64000)) {
    ++counts[item.value];
  }
  for (uint64_t c : counts) {
    EXPECT_GT(c, 3000u);
    EXPECT_LT(c, 5000u);
  }
}

TEST(WorkloadValuesTest, ZipfHeadFrequencyMatchesTheory) {
  const int trials = 200000;
  uint64_t head = 0;
  for (const Item& item :
       TakeFrom("constant@zipf,domain=50,alpha=1", 5, trials)) {
    head += item.value == 0;
  }
  double harmonic = 0.0;
  for (int i = 1; i <= 50; ++i) harmonic += 1.0 / i;
  EXPECT_NEAR(static_cast<double>(head) / trials, 1.0 / harmonic, 0.01);
}

TEST(WorkloadValuesTest, SeqIsRoundRobin) {
  std::vector<uint64_t> seen;
  for (const Item& item : TakeFrom("constant@seq,domain=3", 6, 7)) {
    seen.push_back(item.value);
  }
  EXPECT_EQ(seen, (std::vector<uint64_t>{0, 1, 2, 0, 1, 2, 0}));
}

TEST(WorkloadArrivalsTest, ConstantRateExactCount) {
  for (uint64_t size : StepSizes("constant,rate=5", 100)) EXPECT_EQ(size, 5u);
}

TEST(WorkloadArrivalsTest, PoissonMeanMatchesLambda) {
  for (const auto& [lambda, steps, tolerance] :
       {std::tuple{4.0, 50000, 0.1}, std::tuple{100.0, 20000, 1.0}}) {
    uint64_t total = 0;
    for (uint64_t size :
         StepSizes("poisson,lambda=" + std::to_string(lambda), steps)) {
      total += size;
    }
    EXPECT_NEAR(static_cast<double>(total) / steps, lambda, tolerance);
  }
}

TEST(WorkloadArrivalsTest, DoublingShapeAndCap) {
  // 2^(2*4 - t) for t <= 8, then 1.
  const auto shape = StepSizes("doubling,t=4,cap=1048576", 101);
  EXPECT_EQ(shape[0], 256u);
  EXPECT_EQ(shape[1], 128u);
  EXPECT_EQ(shape[8], 1u);
  EXPECT_EQ(shape[9], 1u);
  EXPECT_EQ(shape[100], 1u);
  const auto capped = StepSizes("doubling,t=10,cap=64", 16);
  EXPECT_EQ(capped[0], 64u);   // 2^20 capped
  EXPECT_EQ(capped[14], 64u);  // 2^6 == 64
  EXPECT_EQ(capped[15], 32u);
}

TEST(WorkloadArrivalsTest, DoublingRejectsBadParamsAndRoundTrips) {
  EXPECT_FALSE(WorkloadGenerator::Create("doubling,t=0", 1).ok());
  EXPECT_FALSE(WorkloadGenerator::Create("doubling,t=2000000000", 1).ok());
  EXPECT_FALSE(WorkloadGenerator::Create("doubling,cap=0", 1).ok());
  const WorkloadSpec spec =
      ParseWorkloadSpec("doubling@seq,t=12,cap=64").ValueOrDie();
  EXPECT_EQ(spec.arrivals, WorkloadArrivals::kDoubling);
  EXPECT_EQ(spec.t, 12);
  EXPECT_EQ(spec.cap, 64u);
  EXPECT_EQ(FormatWorkloadSpec(spec), "doubling@seq,t=12,cap=64");
}

TEST(WorkloadStepTest, IndicesAndTimestampsConsistent) {
  auto stream =
      WorkloadGenerator::Create("constant,rate=3,domain=100", 12).ValueOrDie();
  StreamIndex expect_index = 0;
  for (Timestamp t = 0; t < 50; ++t) {
    const auto& burst = stream->Step();
    ASSERT_EQ(burst.size(), 3u);
    for (const Item& item : burst) {
      EXPECT_EQ(item.index, expect_index++);
      EXPECT_EQ(item.timestamp, t);
      EXPECT_LT(item.value, 100u);
    }
  }
  EXPECT_EQ(stream->next_index(), 150u);
}

TEST(WorkloadStepTest, EmptyStepsAreLegal) {
  // Poisson with tiny lambda produces many empty steps; the stream must
  // keep the clock moving and indices contiguous.
  auto stream =
      WorkloadGenerator::Create("poisson,lambda=0.2,domain=10", 13)
          .ValueOrDie();
  StreamIndex expect_index = 0;
  int empty_steps = 0;
  for (Timestamp t = 0; t < 2000; ++t) {
    const auto& burst = stream->Step();
    if (burst.empty()) ++empty_steps;
    for (const Item& item : burst) {
      EXPECT_EQ(item.index, expect_index++);
      EXPECT_EQ(item.timestamp, t);
    }
  }
  EXPECT_GT(empty_steps, 1000);  // e^-0.2 ~ 0.82 of steps are empty
}

TEST(WorkloadStepTest, StepsConcatenateToTake) {
  // Take skips empty steps; otherwise both hand out one stream, and a Step
  // after a Take that stopped inside a burst finishes that burst.
  for (const char* spec : {"poisson,lambda=0.7", "bmodel,levels=4,volume=64",
                           "churn,t=8", "doubling,t=5,cap=16",
                           "constant,rate=4,skew=3"}) {
    SCOPED_TRACE(spec);
    auto stream = WorkloadGenerator::Create(spec, 21).ValueOrDie();
    std::vector<Item> stepped = stream->Take(2);
    for (int t = 0; t < 300; ++t) {
      const auto& burst = stream->Step();
      stepped.insert(stepped.end(), burst.begin(), burst.end());
    }
    EXPECT_EQ(stepped, TakeFrom(spec, 21, stepped.size()));
  }
}

// FNV-1a over every item's (value, index, timestamp).
uint64_t StreamHash(const std::vector<Item>& items) {
  uint64_t h = 1469598103934665603ULL;
  for (const Item& item : items) {
    for (uint64_t v : {item.value, item.index,
                       static_cast<uint64_t>(item.timestamp)}) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ULL;
      }
    }
  }
  return h;
}

TEST(WorkloadGoldenTest, TakeMatchesPinnedStreams) {
  // Hashes of Take(4096) at seed 2024, one per arrival x value family plus
  // the skew and dup decorators. Seeded tests, benches and the benchmark's
  // inputs all draw from these streams, so a change to any draw fails here
  // first.
  const std::pair<const char*, uint64_t> kPinned[] = {
      {"constant", 0xa69633209496a341ULL},
      {"constant@zipf", 0x190db1b948abf38fULL},
      {"constant@seq", 0x890e7c06c97a3903ULL},
      {"poisson", 0x7cf85f00af550363ULL},
      {"poisson@zipf", 0x37e95d64dd1d3d0aULL},
      {"poisson@seq", 0xe03ad47fb4b6b2bcULL},
      {"bmodel", 0xab2ac664f5e6c982ULL},
      {"bmodel@zipf", 0x4621d76c43e10bddULL},
      {"bmodel@seq", 0x5c1aa168298de896ULL},
      {"churn", 0x425f691b0b3a9ad3ULL},
      {"churn@zipf", 0x8a7687c3b7dc9885ULL},
      {"churn@seq", 0x4523e57fffbea3b5ULL},
      {"doubling,t=12,cap=1024", 0x4c9333b1245e3219ULL},
      {"doubling@zipf,t=12,cap=1024", 0x2d61ef4a0e7743f3ULL},
      {"doubling@seq,t=12,cap=1024", 0xf01af188ce3e1383ULL},
      {"poisson,skew=8", 0x87ab3bd2a0156229ULL},
      {"constant@zipf,dup=0.1", 0x68dfc5ed745d5217ULL},
  };
  for (const auto& [spec, hash] : kPinned) {
    EXPECT_EQ(StreamHash(TakeFrom(spec, 2024, 4096)), hash) << spec;
  }
}

// --- One parse semantics across every text ingestion path ---------------
//
// DriveFile maps regular files and parses in place (DriveBuffer); the
// stdio paths read blocks of the FILE* and carry partial lines across
// them. All of them run one EventLineScanner, so they must agree: same
// items, same final sampler state bit for bit, same errors with the same
// line numbers.

class DriverEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/drive_equiv_stream.txt";
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::filesystem::remove_all(path_ + ".ckpt");
  }

  void WriteFile(const std::string& text) {
    std::FILE* f = std::fopen(path_.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }

  static std::string SamplerStateBytes(WindowSampler& sampler) {
    BinaryWriter w;
    sampler.SaveState(&w);
    return w.Release();
  }

  static const DriveReport& Totals(const DriveReport& report) {
    return report;
  }
  static const DriveReport& Totals(const ShardedDriveReport& report) {
    return report.total;
  }

  /// Runs the same file through every text ingestion path on same-seeded
  /// samplers. DriveFile (mmap) is the reference. DriveLines over stdio
  /// and over a pipe, and a DriveFile checkpointing every
  /// `checkpoint_every` items, must match it in items, batches, errors and
  /// final sampler state; the one-shard sharded driver over stdio and over
  /// a path, which batches by chunk, in item count and errors.
  void ExpectEquivalent(const std::string& text, bool timestamped,
                        uint64_t checkpoint_every = 1000) {
    WriteFile(text);
    SinkSpec config;
    config.name = "bop-seq-swr";
    config.window_n = 8;
    config.window_t = 8;
    config.k = 4;
    config.seed = 42;
    auto make_sampler = [&] {
      return CreateSampler(config).ValueOrDie();
    };
    StreamDriver driver;
    auto reference_sampler = make_sampler();
    const Result<DriveReport> reference =
        driver.DriveFile(path_, timestamped, *reference_sampler);

    // `sampler` null: the path batches differently, so only the item
    // count and errors are compared.
    auto expect_same = [&](const char* label, const auto& result,
                           WindowSampler* sampler) {
      SCOPED_TRACE(label);
      ASSERT_EQ(result.ok(), reference.ok())
          << (result.ok() ? reference.status() : result.status()).ToString();
      if (!reference.ok()) {
        EXPECT_EQ(result.status().message(), reference.status().message());
        return;
      }
      EXPECT_EQ(Totals(result.value()).items, reference.value().items);
      if (sampler == nullptr) return;
      EXPECT_EQ(Totals(result.value()).batches, reference.value().batches);
      EXPECT_EQ(SamplerStateBytes(*sampler),
                SamplerStateBytes(*reference_sampler));
    };

    {
      auto sampler = make_sampler();
      std::FILE* f = std::fopen(path_.c_str(), "r");
      ASSERT_NE(f, nullptr);
      auto result = driver.DriveLines(f, path_, timestamped, *sampler);
      std::fclose(f);
      expect_same("DriveLines", result, sampler.get());
    }
    {
      auto sampler = make_sampler();
      std::FILE* f = popen(("cat '" + path_ + "'").c_str(), "r");
      ASSERT_NE(f, nullptr);
      auto result = driver.DriveLines(f, path_, timestamped, *sampler);
      pclose(f);
      expect_same("DriveLines over a pipe", result, sampler.get());
    }
    {
      // Checkpoints are taken between batches and leave the sink as is.
      auto sampler = make_sampler();
      CheckpointPolicy policy;
      policy.dir = path_ + ".ckpt";
      policy.every_items = checkpoint_every;
      CheckpointWriter writer(
          policy,
          MakeSinkSerializers(config, 1).ValueOrDie());
      auto result = driver.DriveFile(path_, timestamped, *sampler, &writer);
      expect_same("DriveFile with checkpoints", result, sampler.get());
    }
    ShardedStreamDriver::Options options;
    options.threads = 1;
    const ShardedStreamDriver sharded(options);
    {
      auto sampler = make_sampler();
      StreamSink* const sinks[] = {sampler.get()};
      std::FILE* f = std::fopen(path_.c_str(), "r");
      ASSERT_NE(f, nullptr);
      auto result = sharded.DriveLinesCheckpointed(f, path_, timestamped,
                                                   sinks);
      std::fclose(f);
      expect_same("ShardedStreamDriver::DriveLinesCheckpointed", result,
                  nullptr);
    }
    {
      auto sampler = make_sampler();
      StreamSink* const sinks[] = {sampler.get()};
      auto result = sharded.DriveFileCheckpointed(path_, timestamped, sinks);
      expect_same("ShardedStreamDriver::DriveFileCheckpointed", result,
                  nullptr);
    }
  }

  /// `line` placed so that it starts `before` bytes ahead of the stdio
  /// paths' first 64 KiB read-block boundary, behind filler lines. Every
  /// other line parses in both modes ("<ts> <value>" reads as a value).
  static std::string LineAcrossBlockBoundary(const std::string& line,
                                             size_t before) {
    constexpr size_t kBlock = size_t{64} << 10;
    const size_t start = kBlock - before;
    std::string text;
    while (text.size() + 16 <= start) text += "1 2345\n";
    text += std::string(start - text.size() - 4, ' ') + "1 9\n";
    return text + line + "\n40 5\n";
  }

  std::string path_;
};

TEST_F(DriverEquivalenceTest, PlainValues) {
  std::string text;
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) {
    text += std::to_string(rng.UniformIndex(1000)) + "\n";
  }
  ExpectEquivalent(text, /*timestamped=*/false);
}

TEST_F(DriverEquivalenceTest, BlankLinesAndWhitespace) {
  ExpectEquivalent("1\n\n  2\n   \n\t\n\t 3 \n4", /*timestamped=*/false);
}

TEST_F(DriverEquivalenceTest, TimestampedWithBursts) {
  std::string text;
  Rng rng(13);
  Timestamp ts = 0;
  for (int i = 0; i < 3000; ++i) {
    ts += static_cast<Timestamp>(rng.UniformIndex(3));
    text += std::to_string(ts) + " " + std::to_string(rng.NextU64() % 97) +
            "\n";
  }
  ExpectEquivalent(text, /*timestamped=*/true);
}

TEST_F(DriverEquivalenceTest, MissingTrailingNewline) {
  ExpectEquivalent("5\n6\n7", /*timestamped=*/false);
}

TEST_F(DriverEquivalenceTest, NulInsideOverlongLineRejectedByBothPaths) {
  // Doubly out-of-grammar garbage: a NUL inside a >254-char line. The NUL
  // truncates the parsed span, but the line still runs to its newline, so
  // every path rejects it as over-long against line 2.
  ExpectEquivalent(
      "1\n" + (std::string("7") + '\0' + std::string(300, 'x')) + "\n2\n",
      /*timestamped=*/false);
}

TEST_F(DriverEquivalenceTest, LineAcrossReadBlockBoundary) {
  for (size_t before : {1, 3, 7}) {
    ExpectEquivalent(LineAcrossBlockBoundary("31 4159", before),
                     /*timestamped=*/true);
  }
  ExpectEquivalent(LineAcrossBlockBoundary(std::string(300, '7'), 100),
                   /*timestamped=*/false);
}

TEST_F(DriverEquivalenceTest, LargeFileReadThroughPipe) {
  // Several read blocks; ExpectEquivalent drives it through a pipe too.
  std::string text;
  Rng rng(17);
  for (int i = 0; i < 40000; ++i) {
    text += std::to_string(i / 3) + " " + std::to_string(rng.NextU64()) +
            (i % 97 == 0 ? "\r\n\n" : "\n");
  }
  ASSERT_GT(text.size(), size_t{4} << 16);
  ExpectEquivalent(text, /*timestamped=*/true);
}

TEST_F(DriverEquivalenceTest, StrayNulTruncatesLineOnBothPaths) {
  // The stdio path parses with strlen semantics, so a NUL truncates its
  // line; the mmap path mirrors that (out-of-grammar input, but the two
  // paths must still agree).
  ExpectEquivalent(std::string("5\n") + std::string("\0 junk\n", 7) +
                       "6\n" + std::string("7\0 tail\n", 8),
                   /*timestamped=*/false);
}

TEST_F(DriverEquivalenceTest, MalformedLineSameError) {
  ExpectEquivalent("1\n2\nnope\n4\n", /*timestamped=*/false);
}

TEST_F(DriverEquivalenceTest, DecreasingTimestampSameError) {
  ExpectEquivalent("1 5\n2 6\n1 7\n", /*timestamped=*/true);
}

TEST_F(DriverEquivalenceTest, OverlongLineSameError) {
  ExpectEquivalent("1\n" + std::string(300, '7') + "\n2\n",
                   /*timestamped=*/false);
}

TEST_F(DriverEquivalenceTest, MalformedErrorNamesLine) {
  WriteFile("1\n2\nbad line\n");
  SinkSpec config;
  config.name = "bop-seq-single";
  config.window_n = 4;
  config.k = 1;
  config.seed = 1;
  auto sampler = CreateSampler(config).ValueOrDie();
  auto result = StreamDriver().DriveFile(path_, false, *sampler);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find(path_ + ":3"), std::string::npos)
      << result.status().message();
  EXPECT_NE(result.status().message().find("malformed event line"),
            std::string::npos);
}

TEST_F(DriverEquivalenceTest, EmptyFileDeliversNothing) {
  WriteFile("");
  SinkSpec config;
  config.name = "bop-seq-single";
  config.window_n = 4;
  config.k = 1;
  config.seed = 1;
  auto sampler = CreateSampler(config).ValueOrDie();
  auto result = StreamDriver().DriveFile(path_, false, *sampler);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().items, 0u);
}

// --- Read errors ------------------------------------------------------------

/// Records every delivered item; `after_observe` (nullable) runs after each.
class RecordingSink final : public StreamSink {
 public:
  void Observe(const Item& item) override {
    items.push_back(item);
    if (after_observe) after_observe();
  }
  void AdvanceTime(Timestamp) override {}
  uint64_t MemoryWords() const override { return 0; }
  const char* name() const override { return "recording"; }

  std::vector<Item> items;
  std::function<void()> after_observe;
};

void ExpectReadError(const char* label, const Status& status,
                     const std::string& source) {
  SCOPED_TRACE(label);
  ASSERT_FALSE(status.ok());
  // The stream position is lost, so the error must not read as transient.
  EXPECT_NE(status.code(), StatusCode::kUnavailable);
  EXPECT_NE(status.message().find(source + ": read error: "),
            std::string::npos)
      << status.message();
}

TEST_F(DriverEquivalenceTest, ReadErrorIsNotACleanEof) {
  // A directory opens for reading, but every read of it fails (EISDIR).
  const std::string dir = path_ + ".ckpt";  // TearDown removes it
  std::filesystem::create_directories(dir);
  RecordingSink sink;
  StreamSink* const sinks[] = {&sink};
  const StreamDriver driver;
  ShardedStreamDriver::Options options;
  options.threads = 1;
  const ShardedStreamDriver sharded(options);
  {
    std::FILE* f = std::fopen(dir.c_str(), "r");
    ASSERT_NE(f, nullptr);
    auto result = driver.DriveLines(f, dir, /*timestamped=*/true, sink);
    std::fclose(f);
    ExpectReadError("DriveLines", result.status(), dir);
  }
  // Not a regular file, so DriveFile falls back to stdio.
  ExpectReadError("DriveFile",
                  driver.DriveFile(dir, /*timestamped=*/false, sink).status(),
                  dir);
  {
    std::FILE* f = std::fopen(dir.c_str(), "r");
    ASSERT_NE(f, nullptr);
    auto result = sharded.DriveLinesCheckpointed(f, dir, /*timestamped=*/true,
                                                 sinks);
    std::fclose(f);
    ExpectReadError("DriveLinesCheckpointed", result.status(), dir);
  }
  ExpectReadError(
      "DriveFileCheckpointed",
      sharded.DriveFileCheckpointed(dir, /*timestamped=*/false, sinks)
          .status(),
      dir);
  EXPECT_TRUE(sink.items.empty());
}

TEST_F(DriverEquivalenceTest, MidStreamReadErrorIsReported) {
  // Several read blocks of valid lines; once the first item is delivered
  // the stream's descriptor is swapped for a directory's, so a later
  // block read fails after items have already gone out.
  std::string text;
  for (int i = 0; i < 40000; ++i) text += std::to_string(i) + " 7\n";
  ASSERT_GT(text.size(), size_t{3} << 16);
  WriteFile(text);
  const std::string dir = path_ + ".ckpt";  // TearDown removes it
  std::filesystem::create_directories(dir);
  std::FILE* f = std::fopen(path_.c_str(), "r");
  ASSERT_NE(f, nullptr);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY);
  ASSERT_GE(dir_fd, 0);
  RecordingSink sink;
  sink.after_observe = [&] {
    if (sink.items.size() == 1) {
      ASSERT_GE(::dup2(dir_fd, ::fileno(f)), 0);
    }
  };
  StreamDriver::Options options;
  options.batch_size = 0;  // deliver each item as it is parsed
  auto result = StreamDriver(options).DriveLines(f, path_,
                                                 /*timestamped=*/true, sink);
  std::fclose(f);
  ::close(dir_fd);
  ExpectReadError("DriveLines", result.status(), path_);
  EXPECT_GT(sink.items.size(), 0u);
  EXPECT_LT(sink.items.size(), 40000u);
}

// --- Differential grammar fuzzer --------------------------------------------
//
// The reference scanner below defines what every text path must deliver:
// split at each '\n' with memchr, cut the parsed span at the first NUL, and
// parse it with ParseEventSpan. EventLineScanner recognises the common line
// shape before that general path runs; the fuzzer checks the shortcut never
// changes an item, an error or a line number.

struct ScanOutcome {
  std::vector<Item> items;
  std::string error;  ///< empty when the whole input parsed
};

ScanOutcome ReferenceScan(const std::string& text, const std::string& source,
                          bool timestamped) {
  ScanOutcome out;
  const char* p = text.data();
  const char* const end = p + text.size();
  uint64_t line_no = 0;
  Timestamp last_ts = 0;
  while (p != end) {
    const void* hit = std::memchr(p, '\n', static_cast<size_t>(end - p));
    const char* const nl =
        hit == nullptr ? end : static_cast<const char*>(hit);
    ++line_no;
    const std::string where = source + ":" + std::to_string(line_no);
    if (static_cast<size_t>(nl - p) + 1 >= kEventLineCap) {
      out.error = where + ": event line too long (limit " +
                  std::to_string(kEventLineCap - 2) + " characters)";
      return out;
    }
    const void* nul = std::memchr(p, '\0', static_cast<size_t>(nl - p));
    const char* const line_end =
        nul == nullptr ? nl : static_cast<const char*>(nul);
    uint64_t value = 0;
    Timestamp ts = 0;
    const LineParse parsed =
        ParseEventSpan(p, line_end, timestamped, last_ts, &value, &ts);
    if (parsed == LineParse::kOk) {
      const StreamIndex index = out.items.size();
      if (timestamped) {
        last_ts = ts;
      } else {
        ts = static_cast<Timestamp>(index);
      }
      out.items.push_back(Item{value, index, ts});
    } else if (parsed != LineParse::kBlank) {
      out.error =
          LineParseError(parsed, source, line_no, timestamped).message();
      return out;
    }
    p = nl == end ? end : nl + 1;
  }
  return out;
}

/// `lines` event lines from `seed`: mostly the fast shape, with every
/// fallback the grammar allows mixed in, and at most one line that ends
/// the scan with an error.
std::string FuzzEventText(uint64_t seed, bool timestamped, uint64_t lines) {
  static const char* const kSpaces[] = {" ", "\t", "\v", "\f", "\r",
                                        "  ", " \t", "\r\t "};
  // Around the 15-digit fast-shape limit and the i64/u64 saturation points.
  static const char* const kWide[] = {
      "999999999999999",      "1000000000000000",
      "9999999999999999",     "9223372036854775807",
      "9223372036854775808",  "18446744073709551615",
      "18446744073709551616", "99999999999999999999",
      "100000000000000000000", "000000000000000000007"};
  Rng rng(seed);
  auto pick = [&](const auto& options) {
    return std::string(options[rng.UniformIndex(std::size(options))]);
  };
  auto digits = [&](uint64_t n) {
    std::string s;
    for (uint64_t i = 0; i < n; ++i) {
      s += static_cast<char>('0' + rng.UniformIndex(10));
    }
    return s;
  };
  // Some streams run their timestamps across the 15-digit limit.
  Timestamp ts = seed % 3 == 0 ? 999999999999000 : 0;
  const uint64_t error_line =
      rng.Bernoulli(0.5) ? rng.UniformIndex(lines) : lines;
  std::string text;
  for (uint64_t i = 0; i < lines; ++i) {
    ts += static_cast<Timestamp>(rng.Bernoulli(0.05) ? rng.UniformIndex(1000)
                                                     : rng.UniformIndex(3));
    std::string field = std::to_string(ts);
    std::string value = digits(1 + rng.UniformIndex(15));
    std::string sep = " ";
    bool blank = false;
    if (i == error_line) {
      switch (rng.UniformIndex(6)) {
        case 0:  // decreasing timestamp (a value in sequence mode)
          field = std::to_string(ts > 0 ? ts - 1 : -1);
          ts += 2;
          break;
        case 1:
          value = "x" + value;
          break;
        case 2:
          value += std::string(300, '7');
          break;
        case 3:  // saturates the timestamp; every later line decreases
          field = "18446744073709551616";
          break;
        case 4:  // a NUL cuts the second field off
          sep = std::string(1, '\0');
          break;
        default:
          value = "- " + value;
          break;
      }
    } else {
      // Decorations of the line's first field: the timestamp, or the
      // value in sequence mode.
      std::string& first = timestamped ? field : value;
      switch (rng.UniformIndex(20)) {
        case 0:
          first = pick(kSpaces) + first;
          break;
        case 1:
          value += pick(kSpaces);
          break;
        case 2:
          sep = pick(kSpaces);
          break;
        case 3:
          first = "+" + first;
          break;
        case 4:
          value = (rng.Bernoulli(0.5) ? "-" : "+") + value;
          break;
        case 5:
          first = std::string(1 + rng.UniformIndex(8), '0') + first;
          break;
        case 6:
          value = pick(kWide);
          break;
        case 7:
          value = digits(16 + rng.UniformIndex(6));
          break;
        case 8:
          value += rng.Bernoulli(0.5) ? " junk" : "x";
          break;
        case 9:
          value += std::string(1, '\0') + "tail";
          break;
        case 10:
          blank = true;
          break;
        case 11:
          first = std::string(1, '\0') + first;
          break;
        case 12:  // within 254 characters, padded with whitespace
          first = std::string(200, ' ') + first;
          break;
        default:  // the fast shape
          break;
      }
    }
    if (blank) {
      text += rng.Bernoulli(0.5) ? "" : pick(kSpaces);
    } else {
      text += timestamped ? field + sep + value : value;
    }
    if (i + 1 < lines || rng.Bernoulli(0.5)) text += '\n';
  }
  return text;
}

class EventGrammarFuzzTest : public DriverEquivalenceTest {
 protected:
  /// Runs `text` through DriveBuffer (over an exactly sized heap copy, so
  /// an over-read trips ASan), DriveFile (mmap) and DriveLines over a
  /// pipe, item by item, and checks each against ReferenceScan.
  void ExpectMatchesReference(const std::string& text, bool timestamped) {
    WriteFile(text);
    const ScanOutcome reference = ReferenceScan(text, path_, timestamped);
    StreamDriver::Options options;
    options.batch_size = 0;  // items reach the sink before any error
    const StreamDriver driver(options);
    auto expect_same = [&](const char* label, const Result<DriveReport>& r,
                           const RecordingSink& sink) {
      SCOPED_TRACE(label);
      EXPECT_EQ(r.ok() ? std::string() : r.status().message(),
                reference.error);
      EXPECT_EQ(sink.items, reference.items);
    };
    {
      const std::vector<char> exact(text.begin(), text.end());
      RecordingSink sink;
      expect_same("DriveBuffer",
                  driver.DriveBuffer(
                      std::string_view(exact.data(), exact.size()), path_,
                      timestamped, sink),
                  sink);
    }
    {
      RecordingSink sink;
      expect_same("DriveFile",
                  driver.DriveFile(path_, timestamped, sink), sink);
    }
    {
      RecordingSink sink;
      std::FILE* f = popen(("cat '" + path_ + "'").c_str(), "r");
      ASSERT_NE(f, nullptr);
      auto result = driver.DriveLines(f, path_, timestamped, sink);
      pclose(f);
      expect_same("DriveLines over a pipe", result, sink);
    }
  }
};

TEST_F(EventGrammarFuzzTest, SeededMixedLinesMatchReference) {
  uint64_t errors = 0;
  for (const bool timestamped : {true, false}) {
    for (uint64_t seed = 1; seed <= 48; ++seed) {
      SCOPED_TRACE("seed " + std::to_string(seed) +
                   (timestamped ? " timestamped" : " sequence"));
      const std::string text = FuzzEventText(seed, timestamped, 600);
      errors += !ReferenceScan(text, path_, timestamped).error.empty();
      ExpectMatchesReference(text, timestamped);
      if (HasFailure()) return;
    }
  }
  // Both outcomes are exercised: clean streams and streams ending in error.
  EXPECT_GT(errors, 20u);
  EXPECT_LT(errors, 80u);
}

TEST_F(EventGrammarFuzzTest, DigitsToEndOfPageSizedFile) {
  // The last line runs to EOF with no newline, so the scan ends exactly at
  // the end of the mapping; the fast shape must not read past it.
  for (const size_t size : {size_t{4096}, size_t{8192}}) {
    for (const size_t last : {1, 7, 8, 9, 15, 16, 17, 31, 32, 33}) {
      for (const bool timestamped : {true, false}) {
        if (timestamped && last < 5) continue;
        std::string text;
        while (text.size() + last + 24 < size) text += "123 4567890\n";
        // One padding line lands the last line at the exact offset.
        const size_t pad = size - last - text.size() - 1;
        text += timestamped ? "123 " + std::string(pad - 4, '5') + "\n"
                            : std::string(pad, '5') + "\n";
        text += timestamped ? "124 " + std::string(last - 4, '9')
                            : std::string(last, '9');
        ASSERT_EQ(text.size(), size);
        SCOPED_TRACE(std::to_string(size) + " bytes, last line " +
                     std::to_string(last));
        ExpectMatchesReference(text, timestamped);
      }
    }
  }
}

TEST_F(EventGrammarFuzzTest, FastShapeLinesAcrossReadBlockBoundary) {
  // A fast-shape line starting `before` bytes ahead of the stdio paths'
  // 64 KiB block boundary, for every offset where the 32 readable bytes
  // it needs straddle the block's end.
  constexpr size_t kBlock = size_t{64} << 10;
  for (size_t before = 1; before <= 40; ++before) {
    for (const bool timestamped : {true, false}) {
      const std::string line =
          timestamped ? "70000 123456789012345" : "123456789012345";
      std::string text;
      while (text.size() + 32 < kBlock - before) text += "1 2345\n";
      text += std::string(kBlock - before - text.size() - 1, ' ') + "\n";
      ASSERT_EQ(text.size(), kBlock - before);
      text += line + "\n" + line + "\n70001 9\n";
      SCOPED_TRACE("line starts " + std::to_string(before) +
                   " bytes before the block boundary");
      ExpectMatchesReference(text, timestamped);
    }
  }
}

// --- Multi-range buffers -----------------------------------------------------
//
// DriveBuffer and DriveFile's mmap path parse ranges of the buffer on
// helper threads and join them in stream order. These inputs span many
// ranges (>= 1 MiB) and put the lines that stop or perturb a scan right
// at range boundaries, where the join has to take over: every path must
// still match the serial reference and each other.

/// Event text whose SplitEventRanges boundaries fall where a test puts
/// them. Filler lines "<ts> <value>" (each also a valid sequence-mode
/// event) have non-decreasing timestamps from 1.
class RangeText {
 public:
  /// Appends filler lines so that `last` (whole lines, newlines included)
  /// ends exactly at the next multiple of kEventRangeBytes, then `last`
  /// itself, so whatever is appended next opens a range. That multiple is
  /// a range boundary while every earlier one is; Take() checks it.
  RangeText& EndRangeWith(const std::string& last) {
    const size_t need = text_.size() + last.size() + 64;
    const size_t boundary =
        (need + kEventRangeBytes - 1) / kEventRangeBytes * kEventRangeBytes;
    while (boundary - last.size() - text_.size() > 64) text_ += Filler();
    const std::string line = Filler();
    const size_t pad = boundary - last.size() - text_.size() - line.size();
    text_ += std::string(pad, ' ') + line + last;
    boundaries_.push_back(text_.size());
    return *this;
  }

  /// Appends `lines` verbatim.
  RangeText& Add(const std::string& lines) {
    text_ += lines;
    return *this;
  }

  /// Appends filler lines up to at least `bytes` in all.
  RangeText& FillTo(size_t bytes) {
    while (text_.size() < bytes) text_ += Filler();
    return *this;
  }

  /// The next filler line's timestamp; lines a test adds between fillers
  /// stay in order at or above it, and SkipTo moves the filler past them.
  Timestamp ts() const { return ts_; }
  RangeText& SkipTo(Timestamp ts) {
    ts_ = ts;
    return *this;
  }

  /// The text; fails the test unless every boundary EndRangeWith placed
  /// is a range boundary of SplitEventRanges.
  std::string Take() const {
    std::vector<size_t> ends;
    size_t end = 0;
    for (std::string_view range : SplitEventRanges(text_)) {
      end += range.size();
      ends.push_back(end);
    }
    for (size_t boundary : boundaries_) {
      EXPECT_NE(std::find(ends.begin(), ends.end(), boundary), ends.end())
          << "no range boundary at byte " << boundary;
    }
    return text_;
  }

 private:
  std::string Filler() {
    const std::string line =
        std::to_string(ts_) + " " + std::to_string(ts_ * 7919 % 1000) + "\n";
    ++lines_;
    if (lines_ % 3 == 0) ++ts_;
    return line;
  }

  std::string text_;
  std::vector<size_t> boundaries_;
  Timestamp ts_ = 1;
  uint64_t lines_ = 0;
};

constexpr size_t kMultiRangeBytes = size_t{1} << 20;

class MultiRangeTest : public EventGrammarFuzzTest {
 protected:
  /// Every path against the reference scanner and against each other.
  void ExpectAllPathsAgree(const std::string& text, bool timestamped) {
    ASSERT_GE(text.size(), kMultiRangeBytes);
    ASSERT_GT(SplitEventRanges(text).size(), 8u);
    ExpectMatchesReference(text, timestamped);
    // Checkpoints fsync: a dozen or so per file keeps the test quick.
    ExpectEquivalent(text, timestamped, /*checkpoint_every=*/8000);
  }
};

TEST_F(MultiRangeTest, StopLinesAsTheLastOrFirstLineOfARange) {
  const std::string nul_line = std::string("7\0 junk\n", 8);
  const std::string stops[] = {"nope\n", std::string(300, '7') + "\n",
                               nul_line, "\n", "  \t \n"};
  for (const std::string& stop : stops) {
    for (const bool first : {false, true}) {
      for (const bool timestamped : {true, false}) {
        SCOPED_TRACE(testing::PrintToString(stop) +
                     (first ? " first" : " last") + " in its range, " +
                     (timestamped ? "timestamped" : "sequence"));
        RangeText text;
        // Eight ranges in, so helpers are still parsing ranges ahead.
        for (int r = 0; r < 8; ++r) text.EndRangeWith("");
        if (first) {
          text.EndRangeWith("").Add(stop);
        } else {
          text.EndRangeWith(stop);
        }
        ExpectAllPathsAgree(text.FillTo(kMultiRangeBytes).Take(),
                            timestamped);
        if (HasFailure()) return;
      }
    }
  }
}

TEST_F(MultiRangeTest, TimestampDecreasesAcrossARangeBoundary) {
  RangeText text;
  for (int r = 0; r < 5; ++r) text.EndRangeWith("");
  // Above every filler timestamp EndRangeWith writes before it.
  const Timestamp ts = text.ts() + static_cast<Timestamp>(kEventRangeBytes);
  text.EndRangeWith(std::to_string(ts) + " 1\n")
      .Add(std::to_string(ts - 1) + " 2\n")
      .SkipTo(ts);
  ExpectAllPathsAgree(text.FillTo(kMultiRangeBytes).Take(),
                      /*timestamped=*/true);
}

TEST_F(MultiRangeTest, NegativeFirstTimestamps) {
  // The file's first event: an error, as in the serial scan.
  ExpectAllPathsAgree(
      RangeText().Add("-5 7\n").FillTo(kMultiRangeBytes).Take(),
      /*timestamped=*/true);
  // A later range's first event, directly and behind blank lines.
  for (const std::string& lead : {std::string(), std::string("\n \n")}) {
    RangeText text;
    for (int r = 0; r < 6; ++r) text.EndRangeWith("");
    text.Add(lead + "-5 7\n");
    ExpectAllPathsAgree(text.FillTo(kMultiRangeBytes).Take(),
                        /*timestamped=*/true);
  }
  // In sequence mode "-5" is a value like any other.
  RangeText text;
  for (int r = 0; r < 6; ++r) text.EndRangeWith("");
  text.Add("-5 7\n");
  ExpectAllPathsAgree(text.FillTo(kMultiRangeBytes).Take(),
                      /*timestamped=*/false);
}

TEST_F(MultiRangeTest, NoTrailingNewline) {
  for (const bool timestamped : {true, false}) {
    RangeText text;
    text.FillTo(kMultiRangeBytes);
    ExpectAllPathsAgree(text.Add(std::to_string(text.ts()) + " 42").Take(),
                        timestamped);
  }
}

TEST_F(MultiRangeTest, SeededMixedLinesMatchReference) {
  for (const bool timestamped : {true, false}) {
    for (uint64_t seed = 101; seed <= 104; ++seed) {
      SCOPED_TRACE("seed " + std::to_string(seed) +
                   (timestamped ? " timestamped" : " sequence"));
      const std::string text = FuzzEventText(seed, timestamped, 60000);
      ASSERT_GE(text.size(), kMultiRangeBytes);
      ExpectMatchesReference(text, timestamped);
      if (HasFailure()) return;
    }
  }
}

// A resumed drive skips the checkpoint's events mid-range: DriveFile and
// DriveLines over a pipe must deliver the same rest, and reject a replay
// that diverges at the resume point or ends before it with the same
// error.
TEST_F(MultiRangeTest, ResumeSkipEndingMidRange) {
  // 16-byte lines: 4096 to a range, so a checkpoint every 10000 events
  // lands inside a range.
  constexpr int kLines = 66000;
  auto line = [](int i, int ts) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%07d %07d\n", ts, i * 7919 % 100000);
    return std::string(buf);
  };
  std::string text;
  for (int i = 0; i < kLines; ++i) text += line(i, i / 3);
  ASSERT_GE(text.size(), kMultiRangeBytes);
  WriteFile(text);

  SinkSpec spec;
  spec.name = "bop-ts-swr";
  spec.window_t = 500;
  spec.k = 4;
  spec.seed = 5;
  StreamDriver::Options options;
  options.batch_size = 100;
  const StreamDriver driver(options);
  auto reference = CreateSampler(spec).ValueOrDie();
  ASSERT_TRUE(driver.DriveFile(path_, true, *reference).ok());
  {
    auto sampler = CreateSampler(spec).ValueOrDie();
    CheckpointPolicy policy;
    policy.dir = path_ + ".ckpt";
    policy.every_items = 10000;
    CheckpointWriter writer(policy,
                            MakeSinkSerializers(spec, 1).ValueOrDie());
    ASSERT_TRUE(driver.DriveFile(path_, true, *sampler, &writer).ok());
    ASSERT_EQ(writer.last_written_items(), 60000u);
  }
  auto resume = [&](const std::string& input, bool pipe) {
    auto resumed = LoadCheckpoint(path_ + ".ckpt").ValueOrDie();
    WriteFile(input);
    StreamSink& sink = *resumed.sinks[0].sink;
    const Result<DriveReport> result = [&]() -> Result<DriveReport> {
      if (!pipe) {
        return driver.DriveFile(path_, true, sink, nullptr,
                                &resumed.position);
      }
      std::FILE* f = popen(("cat '" + path_ + "'").c_str(), "r");
      EXPECT_NE(f, nullptr);
      auto piped = driver.DriveLines(f, path_, true, sink, nullptr, 0,
                                     nullptr, &resumed.position);
      pclose(f);
      return piped;
    }();
    return std::make_pair(
        result.ok() ? std::string() : result.status().message(),
        SamplerStateBytes(*resumed.sinks[0].sampler));
  };
  const auto from_file = resume(text, false);
  EXPECT_EQ(from_file.first, "");
  EXPECT_EQ(from_file.second, SamplerStateBytes(*reference));
  EXPECT_EQ(resume(text, true), from_file);

  // Event 59999 (the checkpoint's last) moved one tick later.
  std::string diverged = text;
  diverged.replace(59999 * 16, 16, line(59999, 59999 / 3 + 1));
  const auto diverged_file = resume(diverged, false);
  EXPECT_NE(diverged_file.first.find(path_ + ":60000: replayed input does "
                                             "not match the checkpoint"),
            std::string::npos)
      << diverged_file.first;
  EXPECT_EQ(resume(diverged, true).first, diverged_file.first);

  const std::string short_text = text.substr(0, 50000 * 16);
  const auto short_file = resume(short_text, false);
  EXPECT_NE(short_file.first.find("ends before the checkpoint's 60000"),
            std::string::npos)
      << short_file.first;
  EXPECT_EQ(resume(short_text, true).first, short_file.first);
}

// Checkpoint cadence follows the captured position, not the committed
// one: with commits still in flight on the writer's commit thread, a
// drive of M items checkpoints exactly every N items, ⌊M/N⌋ times. On a
// file of many ranges the single driver takes them at the same batch
// boundaries while it joins the ranges its helpers parse.
TEST(CheckpointCadenceTest, AfterWriteFiresOncePerIntervalInBothDrivers) {
  SinkSpec spec;
  spec.name = "bop-seq-swr";
  spec.window_n = 256;
  spec.k = 4;
  spec.seed = 11;
  const std::string path = ::testing::TempDir() + "/cadence_stream.txt";
  // Values are right-aligned to `width` characters (0: not padded).
  auto expect_cadence = [&](uint64_t items, uint64_t every, uint64_t shards,
                            int width) {
    {
      std::FILE* f = std::fopen(path.c_str(), "w");
      ASSERT_NE(f, nullptr);
      for (uint64_t i = 0; i < items; ++i) {
        std::fprintf(f, "%*llu\n", width,
                     static_cast<unsigned long long>(i % 977));
      }
      std::fclose(f);
    }
    std::vector<uint64_t> expected;
    for (uint64_t n = every; n <= items; n += every) expected.push_back(n);
    const std::string dir = path + ".ckpt" + std::to_string(shards);
    std::filesystem::remove_all(dir);
    auto sinks = CreateShardedSinks(spec, shards).ValueOrDie();
    CheckpointPolicy policy;
    policy.dir = dir;
    policy.every_items = every;
    CheckpointWriter writer(policy,
                            MakeSinkSerializers(spec, shards).ValueOrDie());
    std::vector<uint64_t> fired;
    writer.set_after_write(
        [&fired](uint64_t items) { fired.push_back(items); });
    Status status;
    if (shards == 1) {
      StreamDriver::Options options;
      options.batch_size = 100;  // divides N: boundaries land on N
      status = StreamDriver(options)
                   .DriveFile(path, false, *sinks[0].sink, &writer)
                   .status();
    } else {
      ShardedStreamDriver::Options options;
      options.threads = 2;
      options.partition = ShardPartition::kKeyHash;
      status = ShardedStreamDriver(options)
                   .DriveFileCheckpointed(path, false, SinkPointers(sinks),
                                          &writer)
                   .status();
    }
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(fired, expected);
    EXPECT_EQ(writer.last_written_items(), expected.back());
    std::filesystem::remove_all(dir);
  };
  for (const uint64_t shards : {1, 2}) {
    SCOPED_TRACE(shards == 1 ? "StreamDriver" : "ShardedStreamDriver");
    expect_cadence(10500, 1000, shards, 0);
  }
  {
    SCOPED_TRACE("StreamDriver over many ranges");
    expect_cadence(52500, 5000, 1, 23);  // 24-byte lines
    EXPECT_GT(std::filesystem::file_size(path), 16 * kEventRangeBytes);
  }
  std::remove(path.c_str());
}

TEST(DriveBufferTest, ParsesDirectlyFromMemory) {
  SinkSpec config;
  config.name = "bop-seq-single";
  config.window_n = 4;
  config.k = 1;
  config.seed = 3;
  auto sampler = CreateSampler(config).ValueOrDie();
  auto result = StreamDriver().DriveBuffer("10\n20\n\n30\n", "mem",
                                           /*timestamped=*/false, *sampler);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().items, 3u);
}

TEST(ParseEventSpanTest, GrammarCorners) {
  uint64_t value = 0;
  Timestamp ts = 0;
  auto parse = [&](const std::string& s, bool timestamped,
                   Timestamp last_ts = 0) {
    return ParseEventSpan(s.data(), s.data() + s.size(), timestamped,
                          last_ts, &value, &ts);
  };
  EXPECT_EQ(parse("42", false), LineParse::kOk);
  EXPECT_EQ(value, 42u);
  EXPECT_EQ(parse("  +7 ", false), LineParse::kOk);
  EXPECT_EQ(value, 7u);
  EXPECT_EQ(parse("", false), LineParse::kBlank);
  EXPECT_EQ(parse(" \t ", false), LineParse::kBlank);
  EXPECT_EQ(parse("x42", false), LineParse::kMalformed);
  EXPECT_EQ(parse("- 1", false), LineParse::kMalformed);
  EXPECT_EQ(parse("5 9", true), LineParse::kOk);
  EXPECT_EQ(ts, 5);
  EXPECT_EQ(value, 9u);
  EXPECT_EQ(parse("5", true), LineParse::kMalformed);
  EXPECT_EQ(parse("3 9", true, /*last_ts=*/4), LineParse::kNonMonotone);
}

}  // namespace
}  // namespace swsample
