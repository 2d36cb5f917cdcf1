// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Tests for the unified SinkSpec construction API (apps/sink_spec.h):
// (1) the spec-string grammar parses and FormatSinkSpec round-trips;
// (2) CreateSink constructs every registered sampler AND estimator name
// through the one factory; (3) ShardSinkSpec is the single shard
// derivation (window split, seed fork, bias-level split, divisibility
// errors); (4) SaveSink/RestoreSink round-trips both kinds bit-exactly;
// (5) the typed pointer adaptors reject mixed/mismatched vectors;
// (6) the timestamp sinks' real bytes stay within a small factor of the
// paper's word count.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/sink_spec.h"
#include "core/registry.h"
#include "util/rng.h"

namespace swsample {
namespace {

Item MakeItem(uint64_t i) {
  return Item{i % 257, i, static_cast<Timestamp>(i)};
}

TEST(SinkSpecParseTest, ParsesSamplerSpecWithFields) {
  auto spec =
      ParseSinkSpec("bop-seq-swor,n=65536,k=64,seed=7").ValueOrDie();
  EXPECT_EQ(spec.name, "bop-seq-swor");
  EXPECT_EQ(spec.substrate, "");
  EXPECT_EQ(spec.window_n, 65536u);
  EXPECT_EQ(spec.k, 64u);
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_EQ(SinkKindOf(spec.name).ValueOrDie(), SinkKind::kSampler);
  EXPECT_EQ(SinkWindowModel(spec).ValueOrDie(), WindowModel::kSequence);
}

TEST(SinkSpecParseTest, ParsesEstimatorSpecWithSubstrate) {
  auto spec =
      ParseSinkSpec("ams-fk@bop-ts-swr,t=1000,r=256,moment=3").ValueOrDie();
  EXPECT_EQ(spec.name, "ams-fk");
  EXPECT_EQ(spec.substrate, "bop-ts-swr");
  EXPECT_EQ(spec.window_t, 1000);
  EXPECT_EQ(spec.r, 256u);
  EXPECT_EQ(spec.moment, 3u);
  EXPECT_EQ(SinkKindOf(spec.name).ValueOrDie(), SinkKind::kEstimator);
  EXPECT_EQ(SinkWindowModel(spec).ValueOrDie(), WindowModel::kTimestamp);
}

TEST(SinkSpecParseTest, ParsesBiasLevelsAndFloatKeys) {
  auto spec =
      ParseSinkSpec("biased-mean,t=4096,bias=1024:0.5+4096:0.5,eps=0.1,q=0.9")
          .ValueOrDie();
  ASSERT_EQ(spec.bias_levels.size(), 2u);
  EXPECT_EQ(spec.bias_levels[0].window, 1024);
  EXPECT_DOUBLE_EQ(spec.bias_levels[0].weight, 0.5);
  EXPECT_EQ(spec.bias_levels[1].window, 4096);
  EXPECT_DOUBLE_EQ(spec.count_eps, 0.1);
  EXPECT_DOUBLE_EQ(spec.q, 0.9);
}

TEST(SinkSpecParseTest, FormatRoundTripsThroughParse) {
  const char* inputs[] = {
      "bop-seq-swor,n=65536,k=64,seed=7",
      "bop-ts-single,t=100",
      "ams-fk@bop-ts-swr,t=1000,r=256,moment=3",
      "biased-mean,t=4096,bias=1024:0.25+4096:0.75",
      "exact-seq,n=32,k=4,wr=0",
      "dkw-quantile,t=500,r=128,q=0.95",
      // Weights whose shortest form has an exponent: '+' also separates
      // bias levels, so the exponent must not carry one.
      "biased-mean,n=4096,bias=1024:1000+4096:10",
  };
  for (const char* input : inputs) {
    auto spec = ParseSinkSpec(input).ValueOrDie();
    const std::string canonical = FormatSinkSpec(spec);
    auto reparsed = ParseSinkSpec(canonical);
    ASSERT_TRUE(reparsed.ok())
        << input << " -> " << canonical << ": "
        << reparsed.status().ToString();
    EXPECT_EQ(FormatSinkSpec(reparsed.value()), canonical) << input;
  }
}

TEST(SinkSpecParseTest, RejectsBadInput) {
  // Unknown name lists the registered set.
  auto unknown = ParseSinkSpec("no-such-sink,n=16");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("bop-seq-swor"),
            std::string::npos);
  // Samplers take no substrate.
  EXPECT_FALSE(ParseSinkSpec("bop-seq-swor@exact-seq,n=16").ok());
  // Unknown key, malformed number, malformed bias level.
  EXPECT_FALSE(ParseSinkSpec("bop-seq-swor,n=16,banana=1").ok());
  EXPECT_FALSE(ParseSinkSpec("bop-seq-swor,n=16x").ok());
  // Numbers are unsigned decimal digits: no sign, no whitespace, no
  // wrap past 2^64-1.
  EXPECT_FALSE(ParseSinkSpec("bop-seq-swor,n=-3,k=2").ok());
  EXPECT_FALSE(ParseSinkSpec("bop-seq-swor,n=3,k=+2").ok());
  EXPECT_FALSE(ParseSinkSpec("bop-seq-swor,n= 3,k=2").ok());
  EXPECT_FALSE(ParseSinkSpec("bop-seq-swor,n=18446744073709551616").ok());
  EXPECT_FALSE(ParseSinkSpec("biased-mean,t=64,bias=64").ok());
  EXPECT_FALSE(ParseSinkSpec("").ok());
}

TEST(SinkSpecFactoryTest, ConstructsEveryRegisteredSampler) {
  for (const SamplerSpec& reg : RegisteredSamplers()) {
    SinkSpec spec;
    spec.name = reg.name;
    spec.window_n = 256;
    spec.window_t = 256;
    spec.k = reg.single_sample ? 1 : 4;
    spec.seed = 11;
    auto sink = CreateSink(spec);
    ASSERT_TRUE(sink.ok()) << reg.name << ": " << sink.status().ToString();
    ASSERT_NE(sink.value().sampler, nullptr) << reg.name;
    EXPECT_EQ(sink.value().estimator, nullptr) << reg.name;
    EXPECT_EQ(sink.value().kind(), SinkKind::kSampler);
    EXPECT_STREQ(sink.value().sink->name(), reg.name);
  }
}

TEST(SinkSpecFactoryTest, ConstructsEveryRegisteredEstimator) {
  for (const EstimatorSpec& reg : RegisteredEstimators()) {
    SinkSpec spec;
    spec.name = reg.name;
    spec.window_n = 256;
    spec.window_t = 256;
    spec.r = 8;
    spec.num_vertices = 32;
    spec.seed = 11;
    auto sink = CreateSink(spec);
    ASSERT_TRUE(sink.ok()) << reg.name << ": " << sink.status().ToString();
    ASSERT_NE(sink.value().estimator, nullptr) << reg.name;
    EXPECT_EQ(sink.value().sampler, nullptr) << reg.name;
    EXPECT_EQ(sink.value().kind(), SinkKind::kEstimator);
    EXPECT_STREQ(sink.value().sink->name(), reg.name);
  }
}

TEST(SinkSpecFactoryTest, RejectsIncompatibleSubstrate) {
  SinkSpec spec;
  spec.name = "buriol-triangles";
  spec.substrate = "bdm-chain";  // not in its substrate list
  spec.window_n = 256;
  spec.r = 8;
  spec.num_vertices = 32;
  EXPECT_FALSE(CreateSink(spec).ok());
}

TEST(SinkSpecShardTest, SplitsSequenceWindowsAndForksSeeds) {
  SinkSpec spec;
  spec.name = "bop-seq-swr";
  spec.window_n = 4096;
  spec.k = 8;
  spec.seed = 5;

  auto shard2 = ShardSinkSpec(spec, 2, 4).ValueOrDie();
  EXPECT_EQ(shard2.window_n, 1024u);
  EXPECT_EQ(shard2.seed, Rng::ForkSeed(5, 2));
  EXPECT_EQ(shard2.name, spec.name);

  // Indivisible and too-small windows are rejected.
  spec.window_n = 4098;
  EXPECT_FALSE(ShardSinkSpec(spec, 0, 4).ok());
  spec.window_n = 2;
  EXPECT_FALSE(ShardSinkSpec(spec, 0, 4).ok());
}

TEST(SinkSpecShardTest, TimestampWindowsPassThroughUnchanged) {
  SinkSpec spec;
  spec.name = "ams-fk";
  spec.substrate = "bop-ts-single";
  spec.window_t = 1000;
  spec.r = 16;
  spec.seed = 9;
  auto shard = ShardSinkSpec(spec, 3, 4).ValueOrDie();
  EXPECT_EQ(shard.window_t, 1000);
  EXPECT_EQ(shard.seed, Rng::ForkSeed(9, 3));
}

TEST(SinkSpecShardTest, SplitsBiasLevelWindows) {
  auto spec =
      ParseSinkSpec("biased-mean,n=4096,bias=1024:0.5+4096:0.5").ValueOrDie();
  auto shard = ShardSinkSpec(spec, 1, 4).ValueOrDie();
  ASSERT_EQ(shard.bias_levels.size(), 2u);
  EXPECT_EQ(shard.bias_levels[0].window, 256);
  EXPECT_EQ(shard.bias_levels[1].window, 1024);
  // A bias window that does not divide is rejected.
  spec.bias_levels[0].window = 1023;
  EXPECT_FALSE(ShardSinkSpec(spec, 1, 4).ok());
}

TEST(SinkSpecShardTest, CreateShardedSinksBuildsReplicas) {
  auto spec = ParseSinkSpec("bop-seq-swor,n=4096,k=8,seed=5").ValueOrDie();
  auto replicas = CreateShardedSinks(spec, 4).ValueOrDie();
  ASSERT_EQ(replicas.size(), 4u);
  auto sinks = SinkPointers(replicas);
  EXPECT_EQ(sinks.size(), 4u);
  auto samplers = SamplerPointers(replicas).ValueOrDie();
  EXPECT_EQ(samplers.size(), 4u);
  // Wrong-kind typed adaptor is a checked error, not UB.
  EXPECT_FALSE(EstimatorPointers(replicas).ok());
}

// A single shard is the unsharded sink: no seed fork, no window split, so
// a one-shard replica and a CreateSink of the same spec are the same
// object state, byte for byte.
TEST(SinkSpecShardTest, OneShardIsTheUnshardedSink) {
  for (const char* text : {"bop-seq-swor,n=4096,k=8,seed=7",
                           "ams-fk@bop-ts-single,t=60,r=16,seed=7"}) {
    SCOPED_TRACE(text);
    const SinkSpec spec = ParseSinkSpec(text).ValueOrDie();
    const SinkSpec shard = ShardSinkSpec(spec, 0, 1).ValueOrDie();
    EXPECT_EQ(shard.seed, spec.seed);
    EXPECT_EQ(FormatSinkSpec(shard), FormatSinkSpec(spec));
    auto replicas = CreateShardedSinks(spec, 1).ValueOrDie();
    ASSERT_EQ(replicas.size(), 1u);
    const Sink single = CreateSink(spec).ValueOrDie();
    EXPECT_EQ(SaveSink(*replicas[0].sink, spec).ValueOrDie(),
              SaveSink(*single.sink, spec).ValueOrDie());
  }
}

TEST(SinkSpecPersistTest, SamplerSaveRestoreRoundTripsBitExactly) {
  auto spec = ParseSinkSpec("bop-seq-swor,n=64,k=4,seed=21").ValueOrDie();
  auto original = CreateSink(spec).ValueOrDie();
  for (uint64_t i = 0; i < 500; ++i) original.sink->Observe(MakeItem(i));

  auto blob = SaveSink(*original.sink, spec).ValueOrDie();
  auto restored = RestoreSink(blob).ValueOrDie();
  ASSERT_NE(restored.sink.sampler, nullptr);
  EXPECT_EQ(FormatSinkSpec(restored.spec), FormatSinkSpec(spec));

  // Every subsequent draw agrees: RNG state round-tripped.
  for (int q = 0; q < 20; ++q) {
    auto a = original.sampler->Sample();
    auto b = restored.sink.sampler->Sample();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]);
    }
  }
}

TEST(SinkSpecPersistTest, EstimatorSaveRestoreRoundTripsBitExactly) {
  auto spec =
      ParseSinkSpec("ams-fk@bop-ts-single,t=100,r=16,seed=3").ValueOrDie();
  auto original = CreateSink(spec).ValueOrDie();
  for (uint64_t i = 0; i < 400; ++i) original.sink->Observe(MakeItem(i));

  auto blob = SaveSink(*original.sink, spec).ValueOrDie();
  auto restored = RestoreSink(blob).ValueOrDie();
  ASSERT_NE(restored.sink.estimator, nullptr);

  EstimateReport a = original.estimator->Estimate();
  EstimateReport b = restored.sink.estimator->Estimate();
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.window_size, b.window_size);
  EXPECT_EQ(a.support, b.support);

  // Restore of garbage is an error, not a crash.
  EXPECT_FALSE(RestoreSink("definitely not an envelope").ok());
}

// Theorem 3.9 bounds the timestamp samplers' state in words; the bytes
// the keyed budget charges (RetainedBytes) must stay within a small
// constant of that. 50 windows (t0 = 1000) of 1024 items each, spread
// evenly over the window. Ring capacity follows the largest bucket list
// a sink has held, so the item path, whose lists peak mid-window, is
// held to its peak words; the batch path rebuilds each list in closed
// form and is held to its final words.
TEST(SinkSpecMemoryTest, RetainedBytesTrackPaperWords) {
  struct Case {
    const char* name;
    const char* substrate;
    uint64_t k;
    uint64_t r;
  };
  const Case cases[] = {{"bop-ts-single", "", 1, 64},
                        {"bop-ts-swr", "", 16, 64},
                        {"bop-ts-swor", "", 16, 64},
                        {"ams-fk", "bop-ts-single", 1, 16}};
  for (const Case& c : cases) {
    for (const bool batch : {false, true}) {
      SinkSpec spec;
      spec.name = c.name;
      spec.substrate = c.substrate;
      spec.window_t = 1000;
      spec.k = c.k;
      spec.r = c.r;
      spec.seed = 11;
      Sink sink = CreateSink(spec).ValueOrDie();
      std::vector<Item> run(1024);
      uint64_t index = 0;
      uint64_t peak_words = 0;
      for (uint64_t w = 0; w < 50; ++w) {
        for (uint64_t j = 0; j < run.size(); ++j, ++index) {
          run[j] = Item{index % 257, index,
                        static_cast<Timestamp>(w * 1000 + j * 1000 / 1024)};
        }
        if (batch) {
          sink.sink->ObserveBatch(run);
        } else {
          for (const Item& item : run) {
            sink.sink->Observe(item);
            peak_words = std::max(peak_words, sink.sink->MemoryWords());
          }
        }
      }
      const uint64_t words = batch ? sink.sink->MemoryWords() : peak_words;
      EXPECT_LE(static_cast<double>(sink.sink->RetainedBytes()),
                2.5 * 8.0 * static_cast<double>(words))
          << c.name << " batch=" << batch << " words=" << words;
    }
  }
}

TEST(SinkSpecListTest, FormatSinkListMentionsEveryRegisteredName) {
  const std::string list = FormatSinkList();
  for (const SamplerSpec& reg : RegisteredSamplers()) {
    EXPECT_NE(list.find(reg.name), std::string::npos) << reg.name;
  }
  for (const EstimatorSpec& reg : RegisteredEstimators()) {
    EXPECT_NE(list.find(reg.name), std::string::npos) << reg.name;
  }
  const std::string names = RegisteredSinkNames();
  EXPECT_NE(names.find("bop-seq-swor"), std::string::npos);
  EXPECT_NE(names.find("ams-fk"), std::string::npos);
}

}  // namespace
}  // namespace swsample
