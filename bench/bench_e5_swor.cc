// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Experiment E5 (Theorem 2.2 / 4.4 vs over-sampling): quality of k-samples
// WITHOUT replacement.
//
// Part A: subset-level uniformity -- every C(n,k) subset equiprobable for
// bop-seq-swor and bop-ts-swor (chi-square over all subsets).
// Part B: the over-sampling alternative -- for several over-sampling
// factors, the fraction of queries that FAIL to produce k distinct samples
// (disadvantage (b)) and the words spent (disadvantage (a)). Our samplers
// never fail and use O(k).

#include <algorithm>
#include <map>
#include <vector>

#include "baseline/oversampler.h"  // typed: failure_count() accessor
#include "bench/bench_util.h"
#include "core/registry.h"
#include "stats/tests.h"

namespace swsample::bench {
namespace {

void PartA() {
  std::printf("\n-- A: all C(12,3)=220 window subsets equiprobable --\n");
  Row({"sampler", "trials", "subsets", "chi2", "p-value", "verdict"});
  const uint64_t n = 12, k = 3, len = 31;
  const int trials = 220000;
  {
    std::map<std::vector<uint64_t>, uint64_t> counts;
    for (int t = 0; t < trials; ++t) {
      SinkSpec config;
      config.window_n = n;
      config.k = k;
      config.seed = Rng::ForkSeed(100, static_cast<uint64_t>(t));
      config.name = "bop-seq-swor";
      auto s = CreateSampler(config).ValueOrDie();
      for (uint64_t i = 0; i < len; ++i) {
        s->Observe(Item{i, i, static_cast<Timestamp>(i)});
      }
      std::vector<uint64_t> key;
      for (const Item& item : s->Sample()) key.push_back(item.index);
      std::sort(key.begin(), key.end());
      ++counts[key];
    }
    std::vector<uint64_t> flat;
    for (const auto& [key, c] : counts) flat.push_back(c);
    auto r = ChiSquareUniform(flat);
    Row({"bop-seq-swor", U(static_cast<uint64_t>(trials)),
         U(static_cast<uint64_t>(counts.size())), F(r.statistic, 1),
         Sci(r.p_value), r.p_value > 1e-4 ? "PASS" : "FAIL"});
  }
  {
    std::map<std::vector<uint64_t>, uint64_t> counts;
    for (int t = 0; t < trials; ++t) {
      SinkSpec config;
      config.window_t = static_cast<Timestamp>(n);
      config.k = k;
      config.seed = Rng::ForkSeed(700000, static_cast<uint64_t>(t));
      config.name = "bop-ts-swor";
      auto s = CreateSampler(config).ValueOrDie();
      for (Timestamp i = 0; i < static_cast<Timestamp>(len); ++i) {
        s->Observe(
            Item{static_cast<uint64_t>(i), static_cast<uint64_t>(i), i});
      }
      std::vector<uint64_t> key;
      for (const Item& item : s->Sample()) key.push_back(item.index);
      std::sort(key.begin(), key.end());
      ++counts[key];
    }
    std::vector<uint64_t> flat;
    for (const auto& [key, c] : counts) flat.push_back(c);
    auto r = ChiSquareUniform(flat);
    Row({"bop-ts-swor", U(static_cast<uint64_t>(trials)),
         U(static_cast<uint64_t>(counts.size())), F(r.statistic, 1),
         Sci(r.p_value), r.p_value > 1e-4 ? "PASS" : "FAIL"});
  }
}

void PartB() {
  std::printf(
      "\n-- B: over-sampling failure rate and cost (n=64, k=8, 2000 queries) "
      "--\n");
  Row({"sampler", "factor", "fail%", "avg-words", "k-guarantee"});
  const uint64_t n = 64, k = 8;
  for (uint64_t factor : {1u, 2u, 4u, 8u}) {
    auto s = OverSampler::Create(n, k, factor, Rng::ForkSeed(42, factor)).ValueOrDie();
    Rng rng(7);
    uint64_t word_acc = 0, steps = 0;
    for (uint64_t i = 0; i < 4 * n; ++i) {
      s->Observe(Item{rng.UniformIndex(1 << 20), i,
                      static_cast<Timestamp>(i)});
      if (i >= n) {
        s->Sample();
        word_acc += s->MemoryWords();
        ++steps;
      }
    }
    const double fail = 100.0 * static_cast<double>(s->failure_count()) /
                        static_cast<double>(s->query_count());
    Row({"oversample", U(factor), F(fail, 2),
         F(static_cast<double>(word_acc) / static_cast<double>(steps), 1),
         "randomized"});
  }
  {
    SinkSpec config;
    config.window_n = n;
    config.k = k;
    config.seed = 50;
    config.name = "bop-seq-swor";
    auto s = CreateSampler(config).ValueOrDie();
    Rng rng(8);
    uint64_t word_acc = 0, steps = 0, shortfalls = 0;
    for (uint64_t i = 0; i < 4 * n; ++i) {
      s->Observe(Item{rng.UniformIndex(1 << 20), i,
                      static_cast<Timestamp>(i)});
      if (i >= n) {
        if (s->Sample().size() < k) ++shortfalls;
        word_acc += s->MemoryWords();
        ++steps;
      }
    }
    Row({"bop-seq-swor", "-", F(0.0, 2),
         F(static_cast<double>(word_acc) / static_cast<double>(steps), 1),
         shortfalls == 0 ? "deterministic" : "BROKEN"});
  }
}

void Run() {
  Banner("E5: sampling-without-replacement quality",
         "bop SWOR: all subsets equiprobable, k always delivered, O(k) "
         "words; over-sampling fails with positive probability and costs "
         "factor x more");
  PartA();
  PartB();
  std::printf(
      "\nshape check: part A rows PASS; part B fail%% decreases with the\n"
      "factor but never reaches 0, while bop-seq-swor is 0 by construction\n"
      "at a fraction of the words.\n");
}

}  // namespace
}  // namespace swsample::bench

int main() {
  swsample::bench::Run();
  return 0;
}
