// Copyright (c) swsample authors. Licensed under the MIT license.
//
// util/spec_text: the strict number syntax, the double rendering and the
// `head[,key=value]...` splitter every spec grammar shares, plus a seeded
// grammar fuzz over the three grammars built on them (SinkSpec,
// WorkloadSpec, failpoint specs). The fuzz mutates valid specs by random
// byte edits, truncation and splicing and asserts that nothing crashes
// and that every accepted SinkSpec/WorkloadSpec survives
// Parse(Format(s)) == s. Failures print the seed and the input.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/sink_spec.h"
#include "stream/workload.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "util/spec_text.h"

namespace swsample {
namespace {

TEST(SpecTextTest, UnsignedIsDigitsOnlyWithoutOverflow) {
  uint64_t v = 7;
  EXPECT_TRUE(ParseUnsigned("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseUnsigned("0042", &v));
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(ParseUnsigned("18446744073709551615", &v));
  EXPECT_EQ(v, UINT64_MAX);
  for (const char* bad : {"", "-3", "+2", " 3", "3 ", "1e6", "12abc", "0x10",
                          "18446744073709551616", "99999999999999999999"}) {
    v = 7;
    EXPECT_FALSE(ParseUnsigned(bad, &v)) << bad;
    EXPECT_EQ(v, 7u) << bad;  // a rejected token leaves the output alone
  }
}

TEST(SpecTextTest, DoubleIsAFiniteDecimal) {
  double v = 0.0;
  EXPECT_TRUE(ParseFiniteDouble("0.5", &v));
  EXPECT_EQ(v, 0.5);
  EXPECT_TRUE(ParseFiniteDouble("-1e-3", &v));
  EXPECT_EQ(v, -1e-3);
  EXPECT_TRUE(ParseFiniteDouble("1e+10", &v));
  EXPECT_EQ(v, 1e10);
  EXPECT_TRUE(ParseFiniteDouble(".25", &v));
  EXPECT_EQ(v, 0.25);
  for (const char* bad : {"", "+0.5", " 0.5", "0.5 ", "inf", "nan", "-inf",
                          "0x1p3", "1e999", "1.2.3", "-", "e5"}) {
    EXPECT_FALSE(ParseFiniteDouble(bad, &v)) << bad;
  }
}

TEST(SpecTextTest, FormatDoubleIsShortestRoundTrip) {
  EXPECT_EQ(FormatDouble(0.5), "0.5");
  EXPECT_EQ(FormatDouble(0.05), "0.05");
  EXPECT_EQ(FormatDouble(1.1), "1.1");
  EXPECT_EQ(FormatDouble(4.0), "4");
  EXPECT_EQ(FormatDouble(1e10), "1e+10");
  for (double x : {0.1 + 0.2, 1.0 / 3.0, -2.5e-300, 5e-324, 1.7e308}) {
    double back = 0.0;
    ASSERT_TRUE(ParseFiniteDouble(FormatDouble(x), &back)) << x;
    EXPECT_EQ(back, x);
  }
}

TEST(SpecTextTest, SplitsHeadSubAndPairs) {
  auto parts = SplitSpec("spec", "ams-fk@bop-ts-swr,t=1000,r=2=3,").value();
  EXPECT_EQ(parts.name, "ams-fk");
  EXPECT_TRUE(parts.has_sub);
  EXPECT_EQ(parts.sub, "bop-ts-swr");
  ASSERT_EQ(parts.pairs.size(), 2u);  // the trailing comma adds nothing
  EXPECT_EQ(parts.pairs[0].first, "t");
  EXPECT_EQ(parts.pairs[0].second, "1000");
  EXPECT_EQ(parts.pairs[1].first, "r");
  EXPECT_EQ(parts.pairs[1].second, "2=3");  // split at the first '='

  auto bare = SplitSpec("spec", "x@").value();
  EXPECT_EQ(bare.name, "x");
  EXPECT_TRUE(bare.has_sub);
  EXPECT_TRUE(bare.sub.empty());
  EXPECT_FALSE(SplitSpec("spec", "x").value().has_sub);

  auto missing = SplitSpec("sink spec", "x,n=1,,k=2");
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find("expected key=value"),
            std::string::npos);
  EXPECT_FALSE(SplitSpec("spec", "x,n").ok());
}

// ---------------------------------------------------------------------------
// Seeded grammar fuzz

// Valid specs from the tests, benches, perfbench and docs.
const char* const kSinkCorpus[] = {
    "bop-seq-swor,n=65536,k=64,seed=7",
    "bop-ts-single,t=2048",
    "ams-fk@bop-ts-swr,t=1000,r=256,moment=3",
    "ams-fk@bop-ts-single,t=100,r=16,seed=3",
    "biased-mean,t=4096,bias=1024:0.25+4096:0.75,eps=0.1,q=0.9",
    "exact-seq,n=32,k=4,wr=0",
    "dkw-quantile,t=500,r=128,q=0.95",
    "buriol-triangles,n=1000,vertices=64,r=32",
    "oversample-swor,n=100,k=4,oversample=5",
};
const char* const kWorkloadCorpus[] = {
    "constant@zipf,rate=16,domain=1000000,alpha=1.3",
    "poisson@zipf,lambda=16,alpha=1.3",
    "churn,t=128,skew=32",
    "bmodel@uniform,bias=0.8,dup=0.05",
    "doubling@seq,t=12,cap=64",
    "bmodel,levels=12,volume=8192,skewp=0.5,duplag=16",
};
const char* const kFailpointCorpus[] = {
    "spill.write=eio,prob=0.05;spill.read=eio,prob=0.05",
    "t.nth=eio,nth=3",
    "t.every=enospc,every=2",
    "spill.write=eio,times=3",
    "ckpt.manifest=rename,nth=2;trace.read=torn",
};

// Bytes the grammars give meaning to, drawn more often than chance.
constexpr char kGrammarBytes[] = "0123456789,=@:+-.;eE x";

char RandomByte(Rng& rng) {
  if (rng.UniformIndex(4) == 0) {
    return static_cast<char>(rng.UniformIndex(256));
  }
  return kGrammarBytes[rng.UniformIndex(sizeof kGrammarBytes - 1)];
}

// One to four random edits of a corpus entry: overwrite, insert or delete
// a byte, truncate, or splice in the tail of another entry.
template <size_t N>
std::string Mutate(Rng& rng, const char* const (&corpus)[N]) {
  std::string s = corpus[rng.UniformIndex(N)];
  const uint64_t edits = 1 + rng.UniformIndex(4);
  for (uint64_t e = 0; e < edits; ++e) {
    const size_t pos = rng.UniformIndex(s.size() + 1);
    switch (rng.UniformIndex(5)) {
      case 0:
        if (pos < s.size()) s[pos] = RandomByte(rng);
        break;
      case 1:
        s.insert(s.begin() + pos, RandomByte(rng));
        break;
      case 2:
        if (pos < s.size()) s.erase(pos, 1);
        break;
      case 3:
        s.resize(pos);
        break;
      default: {
        const std::string other = corpus[rng.UniformIndex(N)];
        s = s.substr(0, pos) + other.substr(rng.UniformIndex(other.size()));
        break;
      }
    }
  }
  return s;
}

class SpecGrammarFuzz : public ::testing::TestWithParam<uint64_t> {};

constexpr int kFuzzIterations = 20000;

TEST_P(SpecGrammarFuzz, SinkSpecRoundTripsEveryAcceptedMutation) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  int accepted = 0;
  for (int i = 0; i < kFuzzIterations; ++i) {
    const std::string text = Mutate(rng, kSinkCorpus);
    auto spec = ParseSinkSpec(text);
    if (!spec.ok()) continue;
    ++accepted;
    const std::string canonical = FormatSinkSpec(spec.value());
    auto back = ParseSinkSpec(canonical);
    ASSERT_TRUE(back.ok()) << "seed=" << seed << " input=\"" << text
                           << "\" canonical=\"" << canonical
                           << "\": " << back.status().ToString();
    ASSERT_TRUE(back.value() == spec.value())
        << "seed=" << seed << " input=\"" << text << "\" canonical=\""
        << canonical << "\"";
  }
  EXPECT_GT(accepted, 0) << "seed=" << seed;
}

TEST_P(SpecGrammarFuzz, WorkloadSpecRoundTripsEveryAcceptedMutation) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  int accepted = 0;
  for (int i = 0; i < kFuzzIterations; ++i) {
    const std::string text = Mutate(rng, kWorkloadCorpus);
    auto spec = ParseWorkloadSpec(text);
    if (!spec.ok()) continue;
    ++accepted;
    const std::string canonical = FormatWorkloadSpec(spec.value());
    auto back = ParseWorkloadSpec(canonical);
    ASSERT_TRUE(back.ok()) << "seed=" << seed << " input=\"" << text
                           << "\" canonical=\"" << canonical
                           << "\": " << back.status().ToString();
    ASSERT_TRUE(back.value() == spec.value())
        << "seed=" << seed << " input=\"" << text << "\" canonical=\""
        << canonical << "\"";
  }
  EXPECT_GT(accepted, 0) << "seed=" << seed;
}

// Failpoint specs have no Format; the fuzz checks that arming any
// mutation either succeeds or returns a status — including once the
// mutated site names have filled the fixed-size site registry.
TEST_P(SpecGrammarFuzz, FailpointSpecsNeverCrash) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  int accepted = 0;
  for (int i = 0; i < kFuzzIterations; ++i) {
    const std::string text = Mutate(rng, kFailpointCorpus);
    SCOPED_TRACE("seed=" + std::to_string(seed) + " input=\"" + text + "\"");
    accepted += ArmFailpoints(text, seed).ok();
    DisarmFailpoints();
  }
  EXPECT_GT(accepted, 0) << "seed=" << seed;
  EXPECT_FALSE(AnyFailpointArmed());
}

// Mutated site names are new sites; past the registry's 64 slots arming
// one must fail as input, not abort the process.
TEST(SpecTextTest, FailpointSiteBeyondTheRegistryIsRejected) {
  int rejected = 0;
  for (int i = 0; i < 70; ++i) {
    const Status s = ArmFailpoints("full." + std::to_string(i) + "=eio", 1);
    rejected += !s.ok();
  }
  DisarmFailpoints();
  EXPECT_GE(rejected, 6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpecGrammarFuzz,
                         ::testing::Range<uint64_t>(1, 5),
                         [](const auto& param_info) {
                           return "seed" + std::to_string(param_info.param);
                         });

}  // namespace
}  // namespace swsample
