// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Experiment E3 (Theorems 3.9 + 4.4 vs the randomized prior art): memory on
// TIMESTAMP-based windows under bursty arrivals, as a function of the
// window length t0 and k. Ours is deterministically O(k log n); BDM
// priority sampling and Gemulla-Lehner bounded priority sampling have
// expected O(k log n) but randomized worst cases; the exact buffer is
// Theta(n). n here is the (unknown to the algorithms) number of active
// elements, around lambda * t0.
//
// A second table holds the paper samplers to their word count in real
// bytes: retained_over_words = RetainedBytes() / (8 * MemoryWords()) after
// 50 windows of 1024 evenly spaced items, fed through ObserveBatch. The
// streams are fixed, so the ratio is exact and host-independent, and
// scripts/bench_check.py gates it (lower is better) under
// SWSAMPLE_BENCH_JSON=<path>.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/registry.h"
#include "stream/workload.h"

namespace swsample::bench {
namespace {

uint64_t MaxWordsBursty(WindowSampler& sampler, Timestamp t0, double lambda,
                        uint64_t seed) {
  WorkloadSpec spec;
  spec.arrivals = WorkloadArrivals::kPoisson;
  spec.lambda = lambda;
  spec.domain = 1 << 20;
  auto stream = WorkloadGenerator::Create(spec, seed).ValueOrDie();
  uint64_t max_words = 0;
  const Timestamp horizon = 4 * t0;
  for (Timestamp t = 0; t < horizon; ++t) {
    for (const Item& item : stream->Step()) sampler.Observe(item);
    sampler.AdvanceTime(t);
    max_words = std::max(max_words, sampler.MemoryWords());
  }
  return max_words;
}

void Run() {
  Banner("E3: max memory words vs timestamp-window length t0 (bursty "
         "arrivals, lambda=4)",
         "bop-ts-* grow like k log n deterministically; priority/bounded-"
         "priority are randomized; exact buffer is Theta(n)");
  const double lambda = 4.0;
  Row({"t0", "~n", "k", "bop-swr", "bop-swor", "bdm-prio", "gl-bprio",
       "exact-buf"});
  for (uint64_t log_t0 : {8u, 10u, 12u, 14u}) {
    const Timestamp t0 = Timestamp{1} << log_t0;
    for (uint64_t k : {1u, 16u}) {
      constexpr const char* kSamplers[] = {"bop-ts-swr", "bop-ts-swor",
                                           "bdm-priority",
                                           "gl-bounded-priority", "exact-ts"};
      std::vector<std::string> cells = {
          U(static_cast<uint64_t>(t0)),
          U(static_cast<uint64_t>(lambda * static_cast<double>(t0))), U(k)};
      uint64_t seed = 1;
      for (const char* name : kSamplers) {
        SinkSpec config;
        config.window_t = t0;
        config.k = k;
        config.seed = seed++;
        config.name = name;
        auto sampler = CreateSampler(config).ValueOrDie();
        cells.push_back(U(MaxWordsBursty(*sampler, t0, lambda, 9 + seed)));
      }
      Row(cells);
    }
  }
  std::printf(
      "\nshape check: bop columns grow by a ~constant increment when t0\n"
      "quadruples (logarithmic), the exact buffer multiplies by ~4\n"
      "(linear); priority columns sit near bop-swr but vary with the seed.\n");
}

void RunRetainedOverWords() {
  Banner("E3b: retained bytes vs paper words (t0=1000, 50 windows of 1024 "
         "items, batch path)",
         "each ring holds one buffer sized to its capacity, so real bytes "
         "stay within ~2x of 8 * MemoryWords()");
  Row({"sampler", "k", "words", "retained B", "ratio"});
  struct Case {
    const char* name;
    uint64_t k;
  };
  constexpr Case kCases[] = {
      {"bop-ts-single", 1}, {"bop-ts-swr", 16}, {"bop-ts-swor", 16}};
  for (const Case& c : kCases) {
    SinkSpec config;
    config.window_t = 1000;
    config.k = c.k;
    config.seed = 11;
    config.name = c.name;
    auto sampler = CreateSampler(config).ValueOrDie();
    std::vector<Item> run(1024);
    uint64_t index = 0;
    for (uint64_t w = 0; w < 50; ++w) {
      for (uint64_t j = 0; j < run.size(); ++j, ++index) {
        run[j] = Item{index % 257, index,
                      static_cast<Timestamp>(w * 1000 + j * 1000 / 1024)};
      }
      sampler->ObserveBatch(run);
    }
    const uint64_t words = sampler->MemoryWords();
    const uint64_t bytes = sampler->RetainedBytes();
    const double ratio =
        static_cast<double>(bytes) / (8.0 * static_cast<double>(words));
    Row({c.name, U(c.k), U(words), U(bytes), F(ratio, 3)});
    BenchReporter::Global().Report(
        "e3", c.name,
        {{"gated", 1.0},
         {"retained_over_words", ratio},
         {"memory_words", static_cast<double>(words)},
         {"retained_bytes", static_cast<double>(bytes)}});
  }
}

}  // namespace
}  // namespace swsample::bench

int main() {
  swsample::bench::Run();
  swsample::bench::RunRetainedOverWords();
  swsample::bench::BenchReporter::Global().WriteJsonIfRequested();
  return 0;
}
