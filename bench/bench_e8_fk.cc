// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Experiment E8 (Corollary 5.2): frequency-moment estimation on sliding
// windows via the AMS estimator, swept over the estimator registry's
// substrate grid. Every row constructs "ams-fk" by name over a sampling
// substrate named by its sampler-registry string and pumps one fixed
// Zipf-skewed stream through the batched StreamDriver. The expected shape
// is relative error shrinking like 1/sqrt(r) within each substrate block,
// with the exact-window oracle substrate as the memory-unbounded baseline
// and the timestamp substrates paying the extra (1 +/- eps) DGIM factor.

#include <cmath>
#include <deque>
#include <utility>
#include <vector>

#include "apps/estimator_registry.h"
#include "bench/bench_util.h"
#include "stats/exact.h"
#include "stream/driver.h"
#include "stream/workload.h"

namespace swsample::bench {
namespace {

const std::vector<uint64_t>& UnitCounts() {
  static const std::vector<uint64_t> full = {16, 64, 256, 1024};
  static const std::vector<uint64_t> smoke = {16};
  return SmokeMode() ? smoke : full;
}

void RunCase(uint32_t moment, double alpha, uint64_t domain) {
  const uint64_t n = Scaled(1 << 14);
  const uint64_t len = 3 * n;
  // One fixed stream per case.
  WorkloadSpec spec;
  spec.values = WorkloadValues::kZipf;
  spec.rate = 1;
  spec.domain = domain;
  spec.alpha = alpha;
  const std::vector<Item> items =
      WorkloadGenerator::Create(
          spec, Rng::ForkSeed(static_cast<uint64_t>(alpha * 100), moment))
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
  const double exact = ExactFrequencyMoment(hist, moment);

  StreamDriver driver;
  for (const char* substrate : {"bop-seq-single", "exact-seq"}) {
    for (uint64_t r : UnitCounts()) {
      EstimatorConfig config;
      config.substrate = substrate;
      config.window_n = n;
      config.r = r;
      config.moment = moment;
      config.seed = Rng::ForkSeed(900, r + moment);
      auto est = CreateEstimator("ams-fk", config).ValueOrDie();
      DriveReport drive = driver.Drive(std::span<const Item>(items), *est);
      const double estimate = est->Estimate().value;
      Row({"F" + std::to_string(moment), F(alpha, 1), substrate, U(r),
           Sci(exact), Sci(estimate),
           F(std::fabs(estimate - exact) / exact, 3),
           F(drive.items_per_sec / 1e6, 2), U(drive.memory_words)});
    }
  }
}

// Timestamp-window block: bursty arrivals, window size UNKNOWN to the
// estimator (DGIM n-hat on the paper substrate, exact on the oracle),
// forward counts on the covering decomposition.
void RunTimestampCase(double alpha) {
  const Timestamp t0 = static_cast<Timestamp>(Scaled(1 << 10, 4));
  WorkloadSpec spec;
  spec.values = WorkloadValues::kZipf;
  spec.rate = 1;
  spec.domain = 1 << 8;
  spec.alpha = alpha;
  Rng rng(Rng::ForkSeed(static_cast<uint64_t>(alpha * 1000), 7));
  auto values = WorkloadGenerator::Create(spec, rng.NextU64()).ValueOrDie();
  // Materialize one bursty stream (1..3 items per step).
  std::vector<Item> items;
  uint64_t index = 0;
  for (Timestamp t = 0; t < 3 * t0; ++t) {
    const uint64_t burst = 1 + rng.UniformIndex(3);
    for (const Item& item : values->Take(burst)) {
      items.push_back(Item{item.value, index++, t});
    }
  }
  const Timestamp end = 3 * t0 - 1;
  std::vector<uint64_t> window;
  for (const Item& item : items) {
    if (end - item.timestamp < t0) window.push_back(item.value);
  }
  static ValueHistogram ts_hist;
  ExactHistogramInto(window, &ts_hist);
  const double exact = ExactFrequencyMoment(ts_hist, 2);

  StreamDriver driver;
  for (const char* substrate : {"bop-ts-single", "exact-ts"}) {
    for (uint64_t r : UnitCounts()) {
      if (r < 64 && !SmokeMode()) continue;  // ts variance needs r >= 64
      EstimatorConfig config;
      config.substrate = substrate;
      config.window_t = t0;
      config.r = r;
      config.moment = 2;
      config.count_eps = 0.05;
      config.seed = Rng::ForkSeed(400, r);
      auto est = CreateEstimator("ams-fk", config).ValueOrDie();
      DriveReport drive = driver.Drive(std::span<const Item>(items), *est);
      est->AdvanceTime(end);
      const double estimate = est->Estimate().value;
      Row({"F2-ts", F(alpha, 1), substrate, U(r), Sci(exact), Sci(estimate),
           F(std::fabs(estimate - exact) / exact, 3),
           F(drive.items_per_sec / 1e6, 2), U(drive.memory_words)});
    }
  }
}

void Run() {
  Banner("E8: AMS frequency moments, estimator x substrate sweep through "
         "the registry",
         "unbiased estimates; relative error shrinks ~1/sqrt(r) per "
         "substrate block");
  Row({"moment", "alpha", "substrate", "r", "exact", "estimate", "rel-err",
       "Mitems/s", "words"});
  RunCase(/*moment=*/2, /*alpha=*/0.8, /*domain=*/1 << 10);
  RunCase(/*moment=*/2, /*alpha=*/1.3, /*domain=*/1 << 10);
  RunCase(/*moment=*/3, /*alpha=*/1.3, /*domain=*/1 << 8);
  std::printf(
      "\n-- timestamp substrates (t0=2^10, bursty, n unknown: DGIM n-hat "
      "with eps=0.05 on bop-ts-single) --\n");
  RunTimestampCase(/*alpha=*/1.3);
  std::printf(
      "\nshape check: within each (moment, alpha, substrate) block the\n"
      "rel-err column trends down as r quadruples (roughly halving), the\n"
      "AMS rate; exact-seq matches bop-seq-single at a fraction of the\n"
      "throughput and O(n) words; the F2-ts rows reproduce Corollary 5.2's\n"
      "timestamp-window transfer with the extra (1 +/- eps) count factor.\n");
}

}  // namespace
}  // namespace swsample::bench

int main() {
  swsample::bench::Run();
  return 0;
}
