// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Experiment E2 (paper Section 1, disadvantage (b)): the chain sampler's
// memory is a RANDOM VARIABLE. Across independent trials we record the
// per-trial maximum chain length and memory words and report their
// distribution; the bop sampler's footprint is one constant. This is the
// paper's core qualitative claim: "memory bounds are not deterministic,
// which is atypical for streaming algorithms (where even small probability
// events may eventually happen for a stream that is long enough)".

#include <algorithm>
#include <vector>

#include "baseline/chain_sampler.h"  // typed: MaxChainLength() accessor
#include "bench/bench_util.h"
#include "core/registry.h"
#include "stats/summary.h"

namespace swsample::bench {
namespace {

void Run() {
  Banner("E2: distribution of chain-sampling memory across trials",
         "chain max memory fluctuates trial to trial (randomized bound); "
         "bop-seq-swr is one deterministic constant");
  const uint64_t n = 1 << 12;
  const uint64_t k = 8;
  const int trials = 200;
  const uint64_t items = 8 * n;

  std::vector<double> chain_words, chain_len;
  uint64_t bop_words = 0;
  for (int t = 0; t < trials; ++t) {
    auto chain = ChainSampler::Create(n, k, Rng::ForkSeed(100, t)).ValueOrDie();
    uint64_t max_words = 0, max_len = 0;
    Rng rng(900 + t);
    for (uint64_t i = 0; i < items; ++i) {
      chain->Observe(Item{rng.UniformIndex(1 << 20), i,
                          static_cast<Timestamp>(i)});
      max_words = std::max(max_words, chain->MemoryWords());
      max_len = std::max(max_len, chain->MaxChainLength());
    }
    chain_words.push_back(static_cast<double>(max_words));
    chain_len.push_back(static_cast<double>(max_len));

    SinkSpec config;
    config.window_n = n;
    config.k = k;
    config.seed = Rng::ForkSeed(100, static_cast<uint64_t>(t));
    config.name = "bop-seq-swr";
    auto bop = CreateSampler(config).ValueOrDie();
    bop_words =
        std::max(bop_words, MaxMemorySequenceRun(*bop, items, 1 << 20,
                                                 900 + t));
  }

  RunningSummary words_summary;
  for (double w : chain_words) words_summary.Add(w);

  Row({"metric", "min", "p50", "p90", "p99", "max"});
  Row({"chain words", F(words_summary.min(), 0),
       F(Percentile(chain_words, 0.5), 0), F(Percentile(chain_words, 0.9), 0),
       F(Percentile(chain_words, 0.99), 0), F(words_summary.max(), 0)});
  Row({"chain maxlen", F(Percentile(chain_len, 0.0), 0),
       F(Percentile(chain_len, 0.5), 0), F(Percentile(chain_len, 0.9), 0),
       F(Percentile(chain_len, 0.99), 0), F(Percentile(chain_len, 1.0), 0)});
  Row({"bop words", U(bop_words), U(bop_words), U(bop_words), U(bop_words),
       U(bop_words)});
  std::printf(
      "\nshape check: the chain rows spread between min and max (randomized\n"
      "bound; tail grows with stream length), the bop row is a single\n"
      "deterministic value across all %d trials.\n", trials);
}

}  // namespace
}  // namespace swsample::bench

int main() {
  swsample::bench::Run();
  return 0;
}
