// Copyright (c) swsample authors. Licensed under the MIT license.
//
// E20: adversarial workload generator sweeps (stream/workload.h). Drives
// every generator family through the Theorem-3.9 timestamp sampler and
// reports, per workload row:
//
//  * items/s item-at-a-time vs 16k-item ObserveBatch and their ratio
//    (speedup_batch16k) — the batched fast paths must survive bursty,
//    duplicated, skewed and adversarially churning inputs, not just the
//    smooth streams E15 sweeps;
//  * structures_max — the maximum CoveringDecomposition bucket-structure
//    count the sampler ever holds during the stream. For a seeded
//    workload this is DETERMINISTIC (the decomposition is a function of
//    the arrival timestamps), so a growth is a real regression of the
//    O(log(t0) / eps) structure bound (Theorem 3.9) under the exact
//    streams built to maximize bucket churn.
//
// Every row is gated ("gated": 1): the streams are identical in smoke
// and full mode (fixed item count, fixed seeds); smoke mode only lowers
// the timing repetitions. scripts/bench_check.py scores speedup_* drops
// and structures_max increases against the committed BENCH.json.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/ts_single.h"
#include "stream/workload.h"

using namespace swsample;
using namespace swsample::bench;

namespace {

constexpr uint64_t kItems = 1 << 16;  // identical in smoke and full
constexpr uint64_t kBatch = 16384;

struct WorkloadRow {
  const char* name;
  const char* spec;
  Timestamp t0;  // sampler window; churn's matches the generator's t
};

const WorkloadRow kRows[] = {
    {"zipf", "constant@zipf,rate=8,domain=65536,alpha=1.1", 256},
    {"poisson", "poisson@uniform,lambda=8,domain=65536", 256},
    {"bmodel",
     "bmodel@zipf,bias=0.8,levels=12,volume=16384,domain=65536,alpha=1.1",
     256},
    {"dup", "constant@zipf,rate=8,domain=65536,alpha=1.1,dup=0.3,duplag=1024",
     256},
    {"skew", "poisson@uniform,lambda=8,domain=65536,skew=64", 256},
    {"churn", "churn,t=24,domain=65536", 24},
};

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main() {
  Banner("E20: adversarial workload sweeps",
         "the batched fast paths and the Theorem 3.9 structure bound hold "
         "under bursty, duplicated, skewed and bucket-churning streams, "
         "not just smooth ones");

  Row({"workload", "items", "item M/s", "batch16k M/s", "speedup",
       "structs_max"});

  // Smoke mode keeps the streams identical and only trims the timing
  // repetitions (speedups are ratios; structures_max is untimed).
  const uint64_t reps = Scaled(32, 16);

  for (const WorkloadRow& row : kRows) {
    const std::vector<Item> items =
        WorkloadGenerator::Create(row.spec, /*seed=*/0x20).ValueOrDie()->Take(
            kItems);

    const auto item_start = std::chrono::steady_clock::now();
    for (uint64_t r = 0; r < reps; ++r) {
      auto sampler = TsSingleSampler::Create(row.t0, /*seed=*/7 + r)
                         .ValueOrDie();
      for (const Item& item : items) sampler.Observe(item);
    }
    const double item_seconds = SecondsSince(item_start);

    const auto batch_start = std::chrono::steady_clock::now();
    for (uint64_t r = 0; r < reps; ++r) {
      auto sampler = TsSingleSampler::Create(row.t0, /*seed=*/7 + r)
                         .ValueOrDie();
      for (uint64_t i = 0; i < items.size(); i += kBatch) {
        const uint64_t len = std::min<uint64_t>(kBatch, items.size() - i);
        sampler.ObserveBatch(
            std::span<const Item>(items.data() + i, len));
      }
    }
    const double batch_seconds = SecondsSince(batch_start);

    // Untimed pass polling the decomposition's structure count at every
    // arrival — the Theorem 3.9 bound under maximal bucket churn.
    uint64_t structures_max = 0;
    {
      auto sampler = TsSingleSampler::Create(row.t0, /*seed=*/7).ValueOrDie();
      for (const Item& item : items) {
        sampler.Observe(item);
        structures_max = std::max(structures_max, sampler.StructureCount());
      }
    }

    const double total = static_cast<double>(kItems) * reps;
    const double ips_item = item_seconds > 0 ? total / item_seconds : 0.0;
    const double ips_batch = batch_seconds > 0 ? total / batch_seconds : 0.0;
    const double speedup = ips_item > 0 ? ips_batch / ips_item : 0.0;

    Row({row.name, U(kItems), F(ips_item / 1e6, 2), F(ips_batch / 1e6, 2),
         F(speedup, 2), U(structures_max)});
    BenchReporter::Global().Report(
        "e20", row.name,
        {{"gated", 1.0},
         {"items_per_sec_item", ips_item},
         {"items_per_sec_batch16k", ips_batch},
         {"speedup_batch16k", speedup},
         {"structures_max", static_cast<double>(structures_max)}});
  }

  BenchReporter::Global().WriteJsonIfRequested();
  return 0;
}
