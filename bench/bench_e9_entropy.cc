// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Experiment E9 (Corollary 5.4): empirical entropy over sliding windows
// via the CCM basic estimator, swept over the estimator registry's
// substrate grid ("ccm-entropy" x {paper sequence units, exact-window
// oracle}). Streams of varying skew; the table reports exact windowed
// entropy vs estimate as r grows, per substrate.

#include <cmath>
#include <deque>
#include <vector>

#include "apps/estimator_registry.h"
#include "bench/bench_util.h"
#include "stats/exact.h"
#include "stream/driver.h"
#include "stream/workload.h"

namespace swsample::bench {
namespace {

const std::vector<uint64_t>& UnitCounts() {
  static const std::vector<uint64_t> full = {64, 256, 1024, 4096};
  static const std::vector<uint64_t> smoke = {64};
  return SmokeMode() ? smoke : full;
}

void RunCase(double alpha, uint64_t domain) {
  const uint64_t n = Scaled(1 << 14);
  const uint64_t len = 3 * n;
  WorkloadSpec spec;
  spec.values = WorkloadValues::kZipf;
  spec.rate = 1;
  spec.domain = domain;
  spec.alpha = alpha;
  const std::vector<Item> items =
      WorkloadGenerator::Create(
          spec, Rng::ForkSeed(static_cast<uint64_t>(alpha * 37), domain))
          .ValueOrDie()
          ->Take(len);

  std::deque<uint64_t> window_q;
  for (const Item& item : items) {
    window_q.push_back(item.value);
    if (window_q.size() > n) window_q.pop_front();
  }
  std::vector<uint64_t> window(window_q.begin(), window_q.end());
  // Reusable flat histogram: one table's memory serves every case.
  static ValueHistogram hist;
  ExactHistogramInto(window, &hist);
  const double exact = ExactEntropy(hist);

  StreamDriver driver;
  for (const char* substrate : {"bop-seq-single", "exact-seq"}) {
    for (uint64_t r : UnitCounts()) {
      SinkSpec config;
      config.substrate = substrate;
      config.window_n = n;
      config.r = r;
      config.seed = Rng::ForkSeed(1700, r + domain);
      config.name = "ccm-entropy";
      auto est = CreateEstimator(config).ValueOrDie();
      DriveReport drive = driver.Drive(std::span<const Item>(items), *est);
      const double estimate = est->Estimate().value;
      Row({F(alpha, 1), U(domain), substrate, U(r), F(exact, 4),
           F(estimate, 4), F(std::fabs(estimate - exact), 4),
           F(drive.items_per_sec / 1e6, 2)});
    }
  }
}

void Run() {
  Banner("E9: windowed empirical entropy (bits), estimator x substrate "
         "sweep through the registry",
         "unbiased; absolute error shrinks ~1/sqrt(r) per substrate block");
  Row({"alpha", "domain", "substrate", "r", "exact-H", "estimate",
       "abs-err", "Mitems/s"});
  RunCase(/*alpha=*/0.0, /*domain=*/1 << 8);   // uniform, H ~ 8 bits
  RunCase(/*alpha=*/1.0, /*domain=*/1 << 8);   // moderately skewed
  RunCase(/*alpha=*/2.0, /*domain=*/1 << 8);   // heavily skewed, low H
  std::printf(
      "\nshape check: abs-err trends down within each (alpha, substrate)\n"
      "block; exact-H decreases as skew alpha increases; the exact-seq\n"
      "oracle rows bound what any substrate can achieve at the same r.\n");
}

}  // namespace
}  // namespace swsample::bench

int main() {
  swsample::bench::Run();
  return 0;
}
