// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Experiment E11 (Section 1.3.4): samples for disjoint windows are
// independent. Driven through the ESTIMATOR registry: a "dkw-quantile"
// estimator with r = 1 over a value-equals-index stream reveals exactly
// the substrate's sampled position, so querying it at the end of two
// disjoint windows gives the joint (position-in-W1, position-in-W2)
// distribution, tested against the product of uniforms (chi-square) plus
// a Pearson correlation check — per substrate, sequence and timestamp.

#include <vector>

#include "apps/estimator_registry.h"
#include "bench/bench_util.h"
#include "stats/tests.h"

namespace swsample::bench {
namespace {

struct GridCase {
  const char* substrate;
  bool timestamped;
};

void Run() {
  Banner("E11: independence of samples for disjoint windows, via the "
         "estimator registry",
         "joint distribution over two disjoint windows is the product of "
         "uniforms");
  Row({"estimator", "substrate", "cells", "trials", "chi2", "p-value",
       "corr", "verdict"});
  const uint64_t n = 6;
  const int trials = static_cast<int>(Scaled(120000, 100));
  for (const GridCase& grid : {GridCase{"bop-seq-swr", false},
                               GridCase{"bop-ts-swr", true}}) {
    std::vector<uint64_t> joint(n * n, 0);
    std::vector<double> xs, ys;
    for (int t = 0; t < trials; ++t) {
      SinkSpec config;
      config.substrate = grid.substrate;
      config.window_n = n;
      config.window_t = static_cast<Timestamp>(n);
      config.r = 1;
      config.seed = Rng::ForkSeed(grid.timestamped ? 500000 : 100,
                                  static_cast<uint64_t>(t));
      config.name = "dkw-quantile";
      auto est = CreateEstimator(config).ValueOrDie();
      // One arrival per step; value = index, so the quantile of a
      // 1-sample IS the sampled position.
      uint64_t first = 0, second = 0;
      const uint64_t steps = grid.timestamped ? 2 * n : 4 * n;
      for (uint64_t i = 0; i < steps; ++i) {
        est->Observe(Item{i, i, static_cast<Timestamp>(i)});
        if (grid.timestamped) {
          if (i + 1 == n) first = static_cast<uint64_t>(est->Estimate().value);
          if (i + 1 == 2 * n) {
            second = static_cast<uint64_t>(est->Estimate().value) - n;
          }
        } else {
          if (i + 1 == 2 * n) {
            first = static_cast<uint64_t>(est->Estimate().value) - n;
          }
          if (i + 1 == 4 * n) {
            second = static_cast<uint64_t>(est->Estimate().value) - 3 * n;
          }
        }
      }
      joint[first * n + second]++;
      xs.push_back(static_cast<double>(first));
      ys.push_back(static_cast<double>(second));
    }
    auto r = ChiSquareUniform(joint);
    double corr = PearsonCorrelation(xs, ys);
    Row({"dkw-quantile", grid.substrate, U(n * n),
         U(static_cast<uint64_t>(trials)), F(r.statistic, 1),
         Sci(r.p_value), F(corr, 4),
         r.p_value > 1e-4 || SmokeMode() ? "PASS" : "FAIL"});
  }
  std::printf(
      "\nshape check: both rows PASS with correlation ~0 — the property\n"
      "that makes the samplers composable across consecutive windows, now\n"
      "observed through the Theorem 5.1 estimator layer.\n");
}

}  // namespace
}  // namespace swsample::bench

int main() {
  swsample::bench::Run();
  return 0;
}
