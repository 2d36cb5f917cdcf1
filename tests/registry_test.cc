// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Tests for the sampler registry and the batched ingestion path:
// (1) every registered name constructs from a common SamplerConfig and
// reports itself under the registry key; (2) invalid names and configs are
// rejected through the status mechanism; (3) ObserveBatch — including the
// skip-ahead fast paths of the sequence samplers — is distributionally
// identical to item-by-item Observe; (4) the StreamDriver delivers the
// same arrival/clock order batched as unbatched.

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "stat_check.h"
#include "stats/tests.h"
#include "stream/driver.h"

namespace swsample {
namespace {

Item MakeItem(uint64_t i) {
  return Item{i, i, static_cast<Timestamp>(i)};
}

SamplerConfig BasicConfig(uint64_t seed = 1) {
  SamplerConfig config;
  config.window_n = 32;
  config.window_t = 32;
  config.k = 1;
  config.seed = seed;
  return config;
}

TEST(RegistryTest, TwelveSamplersRegistered) {
  EXPECT_EQ(RegisteredSamplers().size(), 12u);
}

TEST(RegistryTest, EveryRegisteredNameConstructs) {
  for (const SamplerSpec& spec : RegisteredSamplers()) {
    auto created = CreateSampler(spec.name, BasicConfig());
    ASSERT_TRUE(created.ok()) << spec.name << ": "
                              << created.status().ToString();
    auto sampler = std::move(created).ValueOrDie();
    EXPECT_STREQ(sampler->name(), spec.name);
    EXPECT_EQ(sampler->k(), 1u) << spec.name;
    EXPECT_TRUE(IsRegisteredSampler(spec.name));
  }
}

TEST(RegistryTest, ConstructedSamplersSampleTheirWindow) {
  for (const SamplerSpec& spec : RegisteredSamplers()) {
    auto sampler = CreateSampler(spec.name, BasicConfig()).ValueOrDie();
    for (uint64_t i = 0; i < 100; ++i) sampler->Observe(MakeItem(i));
    for (const Item& item : sampler->Sample()) {
      // Window 32 in both models covers indices/timestamps [68, 99].
      EXPECT_GE(item.index, 68u) << spec.name;
      EXPECT_LE(item.index, 99u) << spec.name;
    }
  }
}

TEST(RegistryTest, UnknownNameRejected) {
  auto created = CreateSampler("no-such-sampler", BasicConfig());
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
  // The error should teach the caller the registered names.
  EXPECT_NE(created.status().message().find("bop-seq-swr"), std::string::npos);
}

TEST(RegistryTest, MissingWindowParameterRejected) {
  for (const SamplerSpec& spec : RegisteredSamplers()) {
    SamplerConfig config = BasicConfig();
    if (spec.model == WindowModel::kSequence) {
      config.window_n = 0;
    } else {
      config.window_t = 0;
    }
    auto created = CreateSampler(spec.name, config);
    EXPECT_FALSE(created.ok()) << spec.name;
    EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument)
        << spec.name;
  }
}

TEST(RegistryTest, SingleVariantsRequireKOne) {
  for (const char* name : {"bop-seq-single", "bop-ts-single"}) {
    SamplerConfig config = BasicConfig();
    config.k = 2;
    auto created = CreateSampler(name, config);
    EXPECT_FALSE(created.ok()) << name;
  }
}

TEST(RegistryTest, SamplerOwnFactoryValidationPropagates) {
  // k > n violates SequenceSworSampler's own 1 <= k <= n precondition.
  SamplerConfig config = BasicConfig();
  config.window_n = 4;
  config.k = 5;
  auto created = CreateSampler("bop-seq-swor", config);
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
}

// --- ObserveBatch vs Observe equivalence -------------------------------

// Feeds `stream_len` items through a fresh sampler per trial, either
// batched (with a batch size straddling bucket boundaries) or item by
// item, and returns the per-window-position sample counts.
std::vector<uint64_t> PositionCounts(const char* name, uint64_t n,
                                     uint64_t stream_len, uint64_t batch,
                                     int trials, uint64_t seed) {
  std::vector<uint64_t> counts(n, 0);
  std::vector<Item> items;
  items.reserve(stream_len);
  for (uint64_t i = 0; i < stream_len; ++i) items.push_back(MakeItem(i));
  for (int t = 0; t < trials; ++t) {
    SamplerConfig config;
    config.window_n = n;
    config.window_t = static_cast<Timestamp>(n);
    config.k = 1;
    config.seed = seed + static_cast<uint64_t>(t);
    auto sampler = CreateSampler(name, config).ValueOrDie();
    if (batch == 0) {
      for (const Item& item : items) sampler->Observe(item);
    } else {
      for (uint64_t pos = 0; pos < stream_len; pos += batch) {
        const uint64_t take = std::min(batch, stream_len - pos);
        sampler->ObserveBatch(
            std::span<const Item>(items.data() + pos, take));
      }
    }
    auto sample = sampler->Sample();
    if (sample.empty()) continue;
    EXPECT_GE(sample[0].index, stream_len - n);
    ++counts[sample[0].index - (stream_len - n)];
  }
  return counts;
}

// The fast paths must stay uniform over the window, at a stream position
// that straddles a bucket boundary, with a batch size that is ragged
// relative to both the bucket and the stream length.
void CheckBatchedUniform(const char* name) {
  const uint64_t n = 24;
  const uint64_t stream_len = 3 * n + 7;
  auto counts = PositionCounts(name, n, stream_len, /*batch=*/17,
                               /*trials=*/30000, /*seed=*/1000);
  EXPECT_TRUE(IsUniform(counts, /*seed=*/1000)) << name << " batched";
}

TEST(RegistryTest, BatchedSeqSwrUniform) { CheckBatchedUniform("bop-seq-swr"); }
TEST(RegistryTest, BatchedSeqSworUniform) {
  CheckBatchedUniform("bop-seq-swor");
}
TEST(RegistryTest, BatchedSeqSingleUniform) {
  CheckBatchedUniform("bop-seq-single");
}

// Batched and unbatched ingestion must agree with each other cell by cell
// (chi-square of one set of counts against the empirical frequencies of
// the other would conflate both samples' noise; comparing both against
// uniform at equal trial counts is the standard equivalence check).
TEST(RegistryTest, BatchMatchesObserveDistributionally) {
  const uint64_t n = 16;
  const uint64_t stream_len = 2 * n + 5;
  const int trials = 30000;
  for (const char* name : {"bop-seq-swr", "bop-seq-swor"}) {
    auto batched = PositionCounts(name, n, stream_len, /*batch=*/13, trials,
                                  /*seed=*/7000);
    auto unbatched = PositionCounts(name, n, stream_len, /*batch=*/0, trials,
                                    /*seed=*/9000);
    // Two-sample chi-square on the contingency table of (position, path).
    EXPECT_TRUE(SameDistribution(batched, unbatched, /*seed=*/7000)) << name;
  }
}

// A without-replacement batch sample must stay distinct.
TEST(RegistryTest, BatchedSworSamplesDistinct) {
  SamplerConfig config = BasicConfig(77);
  config.k = 8;
  auto sampler = CreateSampler("bop-seq-swor", config).ValueOrDie();
  std::vector<Item> items;
  for (uint64_t i = 0; i < 500; ++i) items.push_back(MakeItem(i));
  sampler->ObserveBatch(std::span<const Item>(items.data(), 311));
  sampler->ObserveBatch(std::span<const Item>(items.data() + 311, 189));
  auto sample = sampler->Sample();
  ASSERT_EQ(sample.size(), 8u);
  std::set<uint64_t> indices;
  for (const Item& item : sample) {
    EXPECT_GE(item.index, 500u - 32u);
    indices.insert(item.index);
  }
  EXPECT_EQ(indices.size(), 8u);
}

// --- StreamDriver ------------------------------------------------------

TEST(RegistryTest, DriverDeliversEveryItemToEveryRegisteredSampler) {
  std::vector<Item> items;
  for (uint64_t i = 0; i < 1000; ++i) items.push_back(MakeItem(i));
  for (const SamplerSpec& spec : RegisteredSamplers()) {
    auto sampler = CreateSampler(spec.name, BasicConfig(5)).ValueOrDie();
    StreamDriver::Options options;
    options.batch_size = 64;
    DriveReport report =
        StreamDriver(options).Drive(std::span<const Item>(items), *sampler);
    EXPECT_EQ(report.items, 1000u) << spec.name;
    EXPECT_EQ(report.batches, (1000u + 63) / 64) << spec.name;
    EXPECT_EQ(report.memory_words, sampler->MemoryWords()) << spec.name;
    EXPECT_GE(report.peak_memory_words, report.memory_words) << spec.name;
  }
}

// Writes `text` to a temp stream and drives it through a fresh sampler.
Result<DriveReport> DriveText(const char* text, bool timestamped,
                              WindowSampler& sampler) {
  std::FILE* f = std::tmpfile();
  std::fputs(text, f);
  std::rewind(f);
  auto result = StreamDriver().DriveLines(f, "test-input", timestamped,
                                          sampler);
  std::fclose(f);
  return result;
}

TEST(RegistryTest, DriverSkipsBlankLines) {
  auto sampler = CreateSampler("bop-seq-swr", BasicConfig(11)).ValueOrDie();
  auto result = DriveText("1\n\n2\n   \n\t\n3\n", /*timestamped=*/false,
                          *sampler);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().items, 3u);
}

TEST(RegistryTest, DriverRejectsMalformedLineWithLineNumber) {
  auto sampler = CreateSampler("bop-seq-swr", BasicConfig(12)).ValueOrDie();
  auto result = DriveText("1\n2\nnot-a-number\n4\n", /*timestamped=*/false,
                          *sampler);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("test-input:3"),
            std::string::npos)
      << result.status().ToString();
}

TEST(RegistryTest, DriverRejectsMalformedTimestampedLine) {
  auto sampler = CreateSampler("bop-ts-swr", BasicConfig(13)).ValueOrDie();
  auto result = DriveText("1 10\n2\n", /*timestamped=*/true, *sampler);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("test-input:2"),
            std::string::npos);
}

TEST(RegistryTest, DriverRejectsDecreasingTimestamps) {
  auto sampler = CreateSampler("bop-ts-swr", BasicConfig(14)).ValueOrDie();
  auto result = DriveText("5 10\n3 11\n", /*timestamped=*/true, *sampler);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("non-decreasing"),
            std::string::npos);
}

TEST(RegistryTest, DriverRejectsOverlongLine) {
  auto sampler = CreateSampler("bop-seq-swr", BasicConfig(15)).ValueOrDie();
  std::string text = "1\n" + std::string(300, '7') + "\n";
  auto result = DriveText(text.c_str(), /*timestamped=*/false, *sampler);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("too long"), std::string::npos);
}

TEST(RegistryTest, DriverPerItemModeMatchesBatchedItemCount) {
  std::vector<Item> items;
  for (uint64_t i = 0; i < 257; ++i) items.push_back(MakeItem(i));
  auto sampler = CreateSampler("bdm-chain", BasicConfig(9)).ValueOrDie();
  StreamDriver::Options options;
  options.batch_size = 0;  // per-item Observe
  DriveReport report =
      StreamDriver(options).Drive(std::span<const Item>(items), *sampler);
  EXPECT_EQ(report.items, 257u);
  EXPECT_EQ(report.batches, 257u);
}

}  // namespace
}  // namespace swsample
