// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Quickstart: the 60-second tour of swsample.
//
//   build/examples/quickstart
//
// Creates the four samplers the paper provides (sequence/timestamp x
// with/without replacement), streams 100k synthetic readings through them,
// and prints a sample of the active window plus each sampler's memory
// footprint -- the whole point being that the footprints are tiny and
// deterministic while the window holds tens of thousands of items.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/registry.h"
#include "stream/workload.h"

using namespace swsample;

int main() {
  const uint64_t n = 32768;      // sequence window: last n readings
  const Timestamp t0 = 4096;     // timestamp window: last t0 ticks
  const uint64_t k = 8;          // samples to maintain

  // The paper's four k-samplers, constructed by name from the registry
  // (the factory validates the configuration).
  SinkSpec spec;
  spec.window_n = n;
  spec.window_t = t0;
  spec.k = k;
  std::vector<std::unique_ptr<WindowSampler>> samplers;
  for (const char* name :
       {"bop-seq-swr", "bop-seq-swor", "bop-ts-swr", "bop-ts-swor"}) {
    spec.name = name;
    ++spec.seed;
    samplers.push_back(CreateSampler(spec).ValueOrDie());
  }

  // A synthetic sensor: Zipf-skewed readings, 4 per tick, ingested in
  // batches (the fast path for the sequence samplers).
  auto sensor = WorkloadGenerator::Create(
                    "constant@zipf,rate=4,domain=1000,alpha=1.1", 42)
                    .ValueOrDie();
  const uint64_t total = 100000;
  const uint64_t batch_size = 4096;
  for (uint64_t done = 0; done < total; done += batch_size) {
    const std::vector<Item> batch =
        sensor->Take(std::min(batch_size, total - done));
    for (auto& s : samplers) s->ObserveBatch(std::span<const Item>(batch));
  }

  std::printf("streamed %lu items; window sizes: seq=%lu ts<=%lu ticks\n\n",
              (unsigned long)total, (unsigned long)n, (unsigned long)t0);
  for (auto& s : samplers) {
    auto sample = s->Sample();
    std::printf("%-14s k=%lu memory=%4lu words  sample indices:",
                s->name(), (unsigned long)s->k(),
                (unsigned long)s->MemoryWords());
    for (const Item& item : sample) {
      std::printf(" %lu", (unsigned long)item.index);
    }
    std::printf("\n");
  }
  std::printf(
      "\nNote: every sampled index is within the active window, and the\n"
      "memory columns stay this size no matter how large the window is --\n"
      "Theorems 2.1, 2.2, 3.9 and 4.4 of the paper.\n");
  return 0;
}
