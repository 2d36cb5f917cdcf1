// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Ticker analytics: fixed-size windows over a fast trade feed.
//
//   build/examples/ticker_analytics
//
// Maintains, over the last 16384 trades:
//  * a windowed mean price via the Theorem 5.1 adapter on a k-sample;
//  * the "repeat rate" (self-join size F_2 of the symbol distribution,
//    Corollary 5.2) which spikes when one symbol dominates trading;
//  * the symbol entropy (Corollary 5.4) which drops at the same moment.
// A mid-stream "flash event" concentrates trading in one symbol to show
// all three estimates reacting.

#include <cstdio>
#include <vector>

#include "apps/estimator_registry.h"
#include "core/seq_swr.h"
#include "core/sliding_adapter.h"
#include "stream/workload.h"
#include "util/rng.h"

using namespace swsample;

int main() {
  const uint64_t n = 16384;
  auto price_sampler = SequenceSwrSampler::Create(n, 128, 1).ValueOrDie();
  SlidingAdapter price_mean(std::move(price_sampler),
                            [](const std::vector<Item>& sample) {
                              double acc = 0;
                              for (const Item& item : sample) {
                                acc += static_cast<double>(item.value);
                              }
                              return sample.empty()
                                         ? 0.0
                                         : acc / static_cast<double>(
                                                     sample.size());
                            });
  // Both symbol estimators come from the estimator registry; swap the
  // substrate string to run them over any other compatible sampler.
  EstimatorConfig config;
  config.substrate = "bop-seq-single";
  config.window_n = n;
  config.r = 512;
  config.seed = 2;
  auto repeat_rate = CreateEstimator("ams-fk", config).ValueOrDie();
  config.seed = 3;
  auto entropy = CreateEstimator("ccm-entropy", config).ValueOrDie();

  const uint64_t total = 6 * n;
  const std::vector<Item> trades =
      WorkloadGenerator::Create("constant@zipf,rate=1,domain=64,alpha=0.9", 11)
          .ValueOrDie()
          ->Take(total);
  Rng rng(12);
  for (uint64_t i = 0; i < total; ++i) {
    // Flash event in the middle third: 90% of trades hit symbol 7 and the
    // price dives from ~500 to ~300.
    const bool flash = i > 2 * total / 5 && i < 3 * total / 5;
    uint64_t symbol = (flash && rng.Bernoulli(0.9)) ? 7 : trades[i].value;
    uint64_t price = (flash ? 300 : 500) + rng.UniformIndex(20);

    price_mean.Observe(Item{price, i, static_cast<Timestamp>(i)});
    repeat_rate->Observe(Item{symbol, i, static_cast<Timestamp>(i)});
    entropy->Observe(Item{symbol, i, static_cast<Timestamp>(i)});

    if ((i + 1) % n == 0) {
      std::printf(
          "trade %6lu %s  mean-price=%6.1f  F2(symbols)=%10.0f  "
          "H(symbols)=%5.2f bits\n",
          (unsigned long)(i + 1), flash ? "[flash]" : "       ",
          price_mean.Estimate(), repeat_rate->Estimate().value,
          entropy->Estimate().value);
    }
  }
  std::printf(
      "\nduring the flash event the windowed mean price falls, F2 spikes\n"
      "(self-join size grows when one symbol dominates) and entropy drops;\n"
      "all three recover as the event leaves the window.\n");
  return 0;
}
