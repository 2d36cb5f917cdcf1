// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Network monitor: timestamp-based windows on bursty traffic.
//
//   build/examples/network_monitor
//
// Packets arrive in Poisson bursts (many per tick during busy periods,
// none at night); the monitor keeps a k-sample WITHOUT replacement of the
// packets seen in the last 60 "seconds" and uses it to estimate the share
// of traffic per source -- the classic asynchronous-arrivals scenario the
// paper's timestamp algorithms (Theorem 4.4) exist for. A full window
// buffer would need ~lambda*60 words at peak; the sampler's footprint is
// O(k log n) and deterministic.

#include <cinttypes>
#include <cstdio>
#include <map>

#include "core/registry.h"
#include "stream/workload.h"

using namespace swsample;

int main() {
  const Timestamp window_seconds = 60;
  const uint64_t k = 64;
  SinkSpec spec;
  spec.name = "bop-ts-swor";
  spec.window_t = window_seconds;
  spec.k = k;
  spec.seed = 7;
  auto sampler = CreateSampler(spec).ValueOrDie();

  // Traffic: 256 sources with Zipf popularity, bursty arrivals whose rate
  // swings over a day-night cycle (lambda 8 by "day", 0.5 by "night").
  auto day_traffic =
      WorkloadGenerator::Create("poisson@zipf,lambda=8,domain=256,alpha=1.2",
                                99)
          .ValueOrDie();
  auto night_traffic =
      WorkloadGenerator::Create(
          "poisson@zipf,lambda=0.5,domain=256,alpha=1.2", 100)
          .ValueOrDie();
  uint64_t index = 0;
  uint64_t peak_memory = 0;

  for (Timestamp t = 0; t < 600; ++t) {
    const bool day = (t / 150) % 2 == 0;
    for (const Item& packet : (day ? day_traffic : night_traffic)->Step()) {
      sampler->Observe(Item{packet.value, index++, t});
    }
    sampler->AdvanceTime(t);
    if (sampler->MemoryWords() > peak_memory) {
      peak_memory = sampler->MemoryWords();
    }

    if ((t + 1) % 120 == 0) {
      auto sample = sampler->Sample();
      std::map<uint64_t, int> by_source;
      for (const Item& item : sample) ++by_source[item.value];
      uint64_t top_source = 0;
      int top_count = 0;
      for (const auto& [source, count] : by_source) {
        if (count > top_count) {
          top_source = source;
          top_count = count;
        }
      }
      std::printf(
          "t=%4" PRId64 " [%s] sample=%2zu/%" PRIu64
          " est. top source=%3" PRIu64 " (%4.1f%% of window traffic) "
          "memory=%" PRIu64 " words\n",
          t, day ? "day  " : "night", sample.size(), k, top_source,
          sample.empty() ? 0.0
                         : 100.0 * top_count / static_cast<double>(sample.size()),
          sampler->MemoryWords());
    }
  }
  std::printf(
      "\npeak sampler memory: %" PRIu64
      " words -- deterministic O(k log n), vs thousands of packets in the "
      "window at peak rate.\n",
      peak_memory);
  return 0;
}
