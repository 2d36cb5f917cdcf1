// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Unit tests for the stream substrate: value generators, arrival processes
// and the composed SyntheticStream.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "stream/arrival.h"
#include "stream/driver.h"
#include "stream/sharded_driver.h"
#include "stream/stream_gen.h"
#include "stream/value_gen.h"
#include "util/rng.h"
#include "util/serial.h"

namespace swsample {
namespace {

TEST(UniformValuesTest, RejectsEmptyDomain) {
  EXPECT_FALSE(UniformValues::Create(0).ok());
}

TEST(UniformValuesTest, StaysInDomain) {
  auto gen = UniformValues::Create(10).ValueOrDie();
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(gen->Next(rng), 10u);
}

TEST(UniformValuesTest, CoversDomain) {
  auto gen = UniformValues::Create(8).ValueOrDie();
  Rng rng(2);
  std::vector<uint64_t> counts(8, 0);
  for (int i = 0; i < 8000; ++i) ++counts[gen->Next(rng)];
  for (uint64_t c : counts) EXPECT_GT(c, 800u);
}

TEST(ZipfValuesTest, RejectsBadParams) {
  EXPECT_FALSE(ZipfValues::Create(0, 1.0).ok());
  EXPECT_FALSE(ZipfValues::Create(10, -1.0).ok());
}

TEST(ZipfValuesTest, SkewFavorsSmallValues) {
  auto gen = ZipfValues::Create(100, 1.2).ValueOrDie();
  Rng rng(3);
  std::vector<uint64_t> counts(100, 0);
  for (int i = 0; i < 100000; ++i) ++counts[gen->Next(rng)];
  // Head value must dominate the tail value heavily under alpha=1.2.
  EXPECT_GT(counts[0], 10 * counts[50] / 2);
  EXPECT_GT(counts[0], counts[1]);
}

TEST(ZipfValuesTest, AlphaZeroIsUniform) {
  auto gen = ZipfValues::Create(16, 0.0).ValueOrDie();
  Rng rng(4);
  std::vector<uint64_t> counts(16, 0);
  for (int i = 0; i < 64000; ++i) ++counts[gen->Next(rng)];
  for (uint64_t c : counts) {
    EXPECT_GT(c, 3000u);
    EXPECT_LT(c, 5000u);
  }
}

TEST(ZipfValuesTest, FrequencyMatchesTheory) {
  const double alpha = 1.0;
  auto gen = ZipfValues::Create(50, alpha).ValueOrDie();
  Rng rng(5);
  const int trials = 200000;
  uint64_t head = 0;
  for (int i = 0; i < trials; ++i) head += (gen->Next(rng) == 0);
  double harmonic = 0.0;
  for (int i = 1; i <= 50; ++i) harmonic += 1.0 / i;
  EXPECT_NEAR(static_cast<double>(head) / trials, 1.0 / harmonic, 0.01);
}

TEST(SequentialValuesTest, RoundRobin) {
  auto gen = SequentialValues::Create(3).ValueOrDie();
  Rng rng(6);
  std::vector<uint64_t> seen;
  for (int i = 0; i < 7; ++i) seen.push_back(gen->Next(rng));
  EXPECT_EQ(seen, (std::vector<uint64_t>{0, 1, 2, 0, 1, 2, 0}));
}

TEST(ConstantRateArrivalsTest, ExactCount) {
  ConstantRateArrivals arrivals(5);
  Rng rng(7);
  for (Timestamp t = 0; t < 100; ++t) EXPECT_EQ(arrivals.CountAt(t, rng), 5u);
}

TEST(PoissonBurstArrivalsTest, RejectsBadLambda) {
  EXPECT_FALSE(PoissonBurstArrivals::Create(0.0).ok());
  EXPECT_FALSE(PoissonBurstArrivals::Create(-3.0).ok());
}

TEST(PoissonBurstArrivalsTest, MeanMatchesLambdaSmall) {
  auto arrivals = PoissonBurstArrivals::Create(4.0).ValueOrDie();
  Rng rng(8);
  uint64_t total = 0;
  const int steps = 50000;
  for (int t = 0; t < steps; ++t) total += arrivals->CountAt(t, rng);
  EXPECT_NEAR(static_cast<double>(total) / steps, 4.0, 0.1);
}

TEST(PoissonBurstArrivalsTest, MeanMatchesLambdaLarge) {
  auto arrivals = PoissonBurstArrivals::Create(100.0).ValueOrDie();
  Rng rng(9);
  uint64_t total = 0;
  const int steps = 20000;
  for (int t = 0; t < steps; ++t) total += arrivals->CountAt(t, rng);
  EXPECT_NEAR(static_cast<double>(total) / steps, 100.0, 1.0);
}

TEST(DoublingBurstArrivalsTest, RejectsBadParams) {
  EXPECT_FALSE(DoublingBurstArrivals::Create(0, 10).ok());
  EXPECT_FALSE(DoublingBurstArrivals::Create(31, 10).ok());
  EXPECT_FALSE(DoublingBurstArrivals::Create(5, 0).ok());
}

TEST(DoublingBurstArrivalsTest, DoublingShape) {
  auto arrivals =
      DoublingBurstArrivals::Create(/*t0=*/4, /*max_burst=*/1 << 20)
          .ValueOrDie();
  Rng rng(10);
  // 2^(2*4 - t) for t <= 8, then 1.
  EXPECT_EQ(arrivals->CountAt(0, rng), 256u);
  EXPECT_EQ(arrivals->CountAt(1, rng), 128u);
  EXPECT_EQ(arrivals->CountAt(8, rng), 1u);
  EXPECT_EQ(arrivals->CountAt(9, rng), 1u);
  EXPECT_EQ(arrivals->CountAt(100, rng), 1u);
}

TEST(DoublingBurstArrivalsTest, CapsAtMaxBurst) {
  auto arrivals =
      DoublingBurstArrivals::Create(/*t0=*/10, /*max_burst=*/64).ValueOrDie();
  Rng rng(11);
  EXPECT_EQ(arrivals->CountAt(0, rng), 64u);   // 2^20 capped
  EXPECT_EQ(arrivals->CountAt(14, rng), 64u);  // 2^6 == 64
  EXPECT_EQ(arrivals->CountAt(15, rng), 32u);
}

TEST(SyntheticStreamTest, IndicesAndTimestampsConsistent) {
  auto stream = SyntheticStream(
      UniformValues::Create(100).ValueOrDie(),
      std::make_unique<ConstantRateArrivals>(3), /*seed=*/12);
  StreamIndex expect_index = 0;
  for (Timestamp t = 0; t < 50; ++t) {
    const auto& burst = stream.Step();
    EXPECT_EQ(stream.now(), t);
    ASSERT_EQ(burst.size(), 3u);
    for (const Item& item : burst) {
      EXPECT_EQ(item.index, expect_index++);
      EXPECT_EQ(item.timestamp, t);
      EXPECT_LT(item.value, 100u);
    }
  }
  EXPECT_EQ(stream.total_items(), 150u);
}

TEST(SyntheticStreamTest, EmptyStepsAreLegal) {
  // Poisson with tiny lambda produces many empty steps; the stream must
  // keep the clock moving and indices contiguous.
  auto stream = SyntheticStream(UniformValues::Create(10).ValueOrDie(),
                                std::move(PoissonBurstArrivals::Create(0.2))
                                    .ValueOrDie(),
                                /*seed=*/13);
  StreamIndex expect_index = 0;
  int empty_steps = 0;
  for (Timestamp t = 0; t < 2000; ++t) {
    const auto& burst = stream.Step();
    if (burst.empty()) ++empty_steps;
    for (const Item& item : burst) EXPECT_EQ(item.index, expect_index++);
  }
  EXPECT_GT(empty_steps, 1000);  // e^-0.2 ~ 0.82 of steps are empty
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
  void TearDown() override { std::remove(path_.c_str()); }

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
  /// and over a pipe, and DriveFileCheckpointed, must match it in items,
  /// batches, errors and final sampler state; the one-shard sharded
  /// DriveFile and DriveFileCheckpointed, which batch by chunk, in item
  /// count and errors.
  void ExpectEquivalent(const std::string& text, bool timestamped) {
    WriteFile(text);
    SamplerConfig config;
    config.window_n = 8;
    config.window_t = 8;
    config.k = 4;
    config.seed = 42;
    auto make_sampler = [&] {
      return CreateSampler("bop-seq-swr", config).ValueOrDie();
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
      auto sampler = make_sampler();
      auto result = driver.DriveFileCheckpointed(path_, timestamped, *sampler,
                                                 nullptr, nullptr);
      expect_same("DriveFileCheckpointed", result, sampler.get());
    }
    ShardedStreamDriver::Options options;
    options.threads = 1;
    const ShardedStreamDriver sharded(options);
    {
      auto sampler = make_sampler();
      StreamSink* const sinks[] = {sampler.get()};
      auto result = sharded.DriveFile(path_, timestamped, sinks);
      expect_same("ShardedStreamDriver::DriveFile", result, nullptr);
    }
    {
      auto sampler = make_sampler();
      StreamSink* const sinks[] = {sampler.get()};
      auto result = sharded.DriveFileCheckpointed(path_, timestamped, sinks,
                                                  nullptr, nullptr);
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
  SamplerConfig config;
  config.window_n = 4;
  config.k = 1;
  config.seed = 1;
  auto sampler = CreateSampler("bop-seq-single", config).ValueOrDie();
  auto result = StreamDriver().DriveFile(path_, false, *sampler);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find(path_ + ":3"), std::string::npos)
      << result.status().message();
  EXPECT_NE(result.status().message().find("malformed event line"),
            std::string::npos);
}

TEST_F(DriverEquivalenceTest, EmptyFileDeliversNothing) {
  WriteFile("");
  SamplerConfig config;
  config.window_n = 4;
  config.k = 1;
  config.seed = 1;
  auto sampler = CreateSampler("bop-seq-single", config).ValueOrDie();
  auto result = StreamDriver().DriveFile(path_, false, *sampler);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().items, 0u);
}

TEST(DriveBufferTest, ParsesDirectlyFromMemory) {
  SamplerConfig config;
  config.window_n = 4;
  config.k = 1;
  config.seed = 3;
  auto sampler = CreateSampler("bop-seq-single", config).ValueOrDie();
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
