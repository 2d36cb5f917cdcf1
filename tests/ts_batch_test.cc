// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Distributional equivalence of the timestamp samplers' batched fast
// paths. ObserveBatch on the ts family is NOT coin-for-coin identical to
// item-by-item Observe (the closed-form run append draws samples by index
// instead of replaying the merge cascade), so these tests check the
// guarantee that actually matters: over many seeded trials, the batched
// sample distribution is uniform over the active window and
// indistinguishable from the item path's.
//
// The shared stream is adversarial for the fast paths: two long
// same-timestamp runs (above the ExtendRun cutover, cut mid-run by the
// ragged batch size), bursty clock gaps that force partial and full
// expiry, and a short same-timestamp run below the cutover that must take
// the per-item merge-coin path.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "stat_check.h"
#include "stats/tests.h"

namespace swsample {
namespace {

constexpr Timestamp kT0 = 10;

// 64 items; exactly the last 16 (ts > 20) are active at the final clock
// value 30. Runs of 20 at ts=0 and ts=7 exceed the batch-append cutover;
// the run of 5 at ts=21 stays below it; the 7->12->18 jumps are the
// bursty gaps that cross the expiry horizon.
std::vector<Item> MakeTsStream() {
  std::vector<Timestamp> ts(20, 0);
  for (Timestamp t : {2, 2, 4, 4, 6}) ts.push_back(t);
  ts.insert(ts.end(), 20, 7);
  for (Timestamp t : {12, 18, 20, 21, 21, 21, 21, 21, 22, 25, 25, 25, 27, 28,
                      28, 29, 30, 30, 30}) {
    ts.push_back(t);
  }
  std::vector<Item> items;
  items.reserve(ts.size());
  for (uint64_t i = 0; i < ts.size(); ++i) {
    items.push_back(Item{i, i, ts[i]});
  }
  return items;
}
constexpr uint64_t kActiveStart = 48;  // items with ts > 30 - kT0

// Three windows, each opened after an idle gap longer than kT0 by a
// same-timestamp run of at least the batch-append cutover (16), then a
// few spaced items. The first insert of each run hits the expiry
// boundary; the rest of the run must take the append stretch. At the
// final clock 68 exactly the last window (ts > 58) is active.
std::vector<Item> MakeGapStream() {
  std::vector<Timestamp> ts;
  ts.insert(ts.end(), 20, 0);
  ts.insert(ts.end(), {2, 5, 8});
  ts.insert(ts.end(), 18, 30);
  ts.insert(ts.end(), {33, 36});
  ts.insert(ts.end(), 24, 60);
  ts.insert(ts.end(), {62, 64, 66, 68});
  std::vector<Item> items;
  items.reserve(ts.size());
  for (uint64_t i = 0; i < ts.size(); ++i) {
    items.push_back(Item{i, i, ts[i]});
  }
  return items;
}
constexpr uint64_t kGapActiveStart = 43;  // items with ts > 68 - kT0

// Per-active-position sample counts over many trials on `items`, whose
// active window is every item from `active_start` on; batch == 0 means
// item-by-item Observe. Counts every returned sample, so it works for
// k > 1 without-replacement samples too (each position is then included
// with probability k / active, still uniform across positions).
std::vector<uint64_t> TsPositionCounts(const char* name, uint64_t k,
                                       uint64_t batch, int trials,
                                       uint64_t seed,
                                       const std::vector<Item>& items,
                                       uint64_t active_start) {
  std::vector<uint64_t> counts(items.size() - active_start, 0);
  for (int t = 0; t < trials; ++t) {
    SinkSpec config;
    config.name = name;
    config.window_t = kT0;
    config.k = k;
    config.seed = seed + static_cast<uint64_t>(t);
    auto sampler = CreateSampler(config).ValueOrDie();
    if (batch == 0) {
      for (const Item& item : items) sampler->Observe(item);
    } else {
      for (uint64_t pos = 0; pos < items.size(); pos += batch) {
        const uint64_t take = std::min<uint64_t>(batch, items.size() - pos);
        sampler->ObserveBatch(std::span<const Item>(items.data() + pos, take));
      }
    }
    for (const Item& sample : sampler->Sample()) {
      EXPECT_GE(sample.index, active_start) << name << " sampled expired item";
      if (sample.index < active_start) continue;
      ++counts[sample.index - active_start];
    }
  }
  return counts;
}

std::vector<uint64_t> TsPositionCounts(const char* name, uint64_t k,
                                       uint64_t batch, int trials,
                                       uint64_t seed) {
  return TsPositionCounts(name, k, batch, trials, seed, MakeTsStream(),
                          kActiveStart);
}

void CheckBatchedUniform(const char* name, uint64_t batch) {
  auto counts = TsPositionCounts(name, /*k=*/1, batch, /*trials=*/30000,
                                 /*seed=*/2000);
  EXPECT_TRUE(IsUniform(counts, /*seed=*/2000))
      << name << " batch=" << batch;
}

// Ragged batches cut both long runs mid-run (boundaries at 17 and 34).
TEST(TsBatchTest, BatchedSingleUniform) {
  CheckBatchedUniform("bop-ts-single", 17);
}
TEST(TsBatchTest, BatchedSwrUniform) { CheckBatchedUniform("bop-ts-swr", 17); }
TEST(TsBatchTest, BatchedSworUniform) {
  CheckBatchedUniform("bop-ts-swor", 17);
}

// The whole stream in one call maximizes the closed-form append spans.
TEST(TsBatchTest, WholeStreamBatchUniform) {
  CheckBatchedUniform("bop-ts-single", 64);
  CheckBatchedUniform("bop-ts-swor", 64);
}

TEST(TsBatchTest, BatchMatchesObserveDistributionally) {
  const int trials = 30000;
  for (const char* name : {"bop-ts-single", "bop-ts-swr", "bop-ts-swor"}) {
    auto batched = TsPositionCounts(name, /*k=*/1, /*batch=*/17, trials,
                                    /*seed=*/4000);
    auto unbatched = TsPositionCounts(name, /*k=*/1, /*batch=*/0, trials,
                                      /*seed=*/6000);
    EXPECT_TRUE(SameDistribution(batched, unbatched, /*seed=*/4000)) << name;
  }
}

// k > 1 exercises TsSwor's unit-major delayed-delivery schedule (each
// unit i replays the batch shifted by i, with the prefix served from the
// pre-batch recent-items snapshot across the batch boundaries).
TEST(TsBatchTest, SworMultiSampleBatchMatchesObserve) {
  const int trials = 30000;
  auto batched = TsPositionCounts("bop-ts-swor", /*k=*/4, /*batch=*/17,
                                  trials, /*seed=*/8000);
  auto unbatched = TsPositionCounts("bop-ts-swor", /*k=*/4, /*batch=*/0,
                                    trials, /*seed=*/10000);
  EXPECT_TRUE(SameDistribution(batched, unbatched, /*seed=*/8000));
  EXPECT_TRUE(IsUniform(batched, /*seed=*/8000));
}

// Every window opens at the expiry boundary with a long same-timestamp
// run: one item is inserted there and the rest of the run is appended
// with ExtendRun, which must keep the batched distribution uniform and
// equal to the item path's.
TEST(TsBatchTest, RunOpeningEachWindowAfterAnIdleGapMatchesObserve) {
  const std::vector<Item> items = MakeGapStream();
  const int trials = 30000;
  for (const char* name : {"bop-ts-single", "bop-ts-swr", "bop-ts-swor"}) {
    for (uint64_t batch : {uint64_t{17}, uint64_t{items.size()}}) {
      auto batched = TsPositionCounts(name, /*k=*/1, batch, trials,
                                      /*seed=*/12000, items, kGapActiveStart);
      auto unbatched = TsPositionCounts(name, /*k=*/1, /*batch=*/0, trials,
                                        /*seed=*/14000, items,
                                        kGapActiveStart);
      EXPECT_TRUE(SameDistribution(batched, unbatched, /*seed=*/12000))
          << name << " batch=" << batch;
      EXPECT_TRUE(IsUniform(batched, /*seed=*/12000))
          << name << " batch=" << batch;
    }
  }
}

}  // namespace
}  // namespace swsample
