// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Batched-vs-item-wise equivalence for the keyed engine's demux fast
// path (stream/keyed_engine.h ObserveBatch): the key-run scan, per-key
// micro-batch delivery, TTL generation splits and end-of-block expiry,
// batched SpillBatch evictions and restores at each key's delivery
// point must all reproduce the per-item Observe() semantics. The strong
// form checked here is BYTE IDENTITY of every key's SaveKeyState blob (envelope +
// metadata — RNG state, window contents and local index all included).
// Byte identity between item-wise and batched DELIVERY needs sinks whose own
// ObserveBatch is bit-identical to their Observe loop (exact-seq,
// bdm-priority, gl-bounded-priority); the bop samplers' batch fast paths
// are distributionally-but-not-bit identical by design (core/ts_single.h),
// so for those the strong form compares batched against batched (where
// the only degree of freedom is the spill/restore machinery under test)
// and the statistical form is a two-sample chi-square over pooled
// per-key sample window positions under budget-driven churn.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stat_check.h"
#include "stream/keyed_engine.h"
#include "stream/workload.h"

namespace swsample {
namespace {

namespace fs = std::filesystem;

// Suffix with the pid: sanitizer lanes run this binary concurrently from
// separate build trees, and a shared fixed path lets one lane remove_all
// the other's live spill files mid-test.
std::string FreshDir(const std::string& name) {
  const std::string unique = name + "." + std::to_string(::getpid());
  const std::string dir = (fs::path(::testing::TempDir()) / unique).string();
  fs::remove_all(dir);
  return dir;
}

std::unique_ptr<KeyedWindowEngine> MakeEngine(
    const KeyedEngineOptions& options) {
  auto engine = KeyedWindowEngine::Create(options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).ValueOrDie();
}

// Feeds `stream` one Observe() per item.
void DriveItemWise(KeyedWindowEngine* engine, std::span<const Item> stream) {
  for (const Item& item : stream) engine->Observe(item);
  ASSERT_TRUE(engine->status().ok()) << engine->status().ToString();
}

// Feeds `stream` through ObserveBatch in `batch`-sized calls (the driver
// shape); `batch` = 0 delivers everything as one call.
void DriveBatched(KeyedWindowEngine* engine, std::span<const Item> stream,
                  size_t batch) {
  if (batch == 0) batch = stream.size();
  for (size_t offset = 0; offset < stream.size(); offset += batch) {
    engine->ObserveBatch(
        stream.subspan(offset, std::min(batch, stream.size() - offset)));
  }
  ASSERT_TRUE(engine->status().ok()) << engine->status().ToString();
}

std::vector<uint64_t> KeysOf(std::span<const Item> stream,
                             uint64_t key_shift = 0) {
  std::vector<uint64_t> keys;
  for (const Item& item : stream) {
    const uint64_t key = item.value >> key_shift;
    bool seen = false;
    for (uint64_t k : keys) seen = seen || k == key;
    if (!seen) keys.push_back(key);
  }
  return keys;
}

// Every key known to `a` must be known to `b` with a byte-identical
// SaveKeyState blob, and vice versa (checked by symmetry of the key
// union). SaveKeyState transparently restores spilled keys, so this
// compares across live/spilled placement differences.
void ExpectSameKeyStates(KeyedWindowEngine* a, KeyedWindowEngine* b,
                         std::span<const uint64_t> keys) {
  for (uint64_t key : keys) {
    ASSERT_EQ(a->HasKey(key), b->HasKey(key)) << "key " << key;
    if (!a->HasKey(key)) continue;
    auto state_a = a->SaveKeyState(key);
    auto state_b = b->SaveKeyState(key);
    ASSERT_TRUE(state_a.ok()) << state_a.status().ToString();
    ASSERT_TRUE(state_b.ok()) << state_b.status().ToString();
    ASSERT_EQ(state_a.value(), state_b.value())
        << "key " << key << " state diverged";
  }
}

TEST(KeyedBatchTest, ZipfBurstStreamMatchesItemWiseByteForByte) {
  // b-model bursts over Zipf keys: long same-key runs (the contiguous
  // fast path) mixed with scattered singletons, plus duplicate replay.
  // bdm-priority keeps RNG priorities in play while its batch path is
  // bit-identical to per-item Observe, so the engine's demux is the only
  // thing that could diverge.
  auto generator =
      WorkloadGenerator::Create(
          "bmodel@zipf,bias=0.75,levels=6,volume=2048,domain=512,alpha=1.2,"
          "dup=0.05",
          0xbadc0de)
          .ValueOrDie();
  const std::vector<Item> stream = generator->Take(50000);

  KeyedEngineOptions options;
  options.spec = ParseSinkSpec("bdm-priority,t=512,k=4,seed=99").ValueOrDie();
  auto item_engine = MakeEngine(options);
  DriveItemWise(item_engine.get(), stream);

  // Several batch geometries, including ones that straddle the 16384
  // demux block size and a single whole-stream call.
  for (size_t batch : {512u, 4096u, 16384u, 0u}) {
    auto batch_engine = MakeEngine(options);
    DriveBatched(batch_engine.get(), stream, batch);
    EXPECT_EQ(batch_engine->stats().items, item_engine->stats().items);
    EXPECT_EQ(batch_engine->stats().live_keys,
              item_engine->stats().live_keys);
    ExpectSameKeyStates(item_engine.get(), batch_engine.get(),
                        KeysOf(stream));
  }
}

TEST(KeyedBatchTest, TtlGenerationSplitsLandExactlyWhereItemWiseDrops) {
  // Constructed worst case: same-key gaps of ttl-1 / ttl / ttl+1 within
  // one batch, a key whose two generations live in one 8-item window,
  // and an interleaved key that keeps the clock moving. Expiry must
  // split the run exactly where the per-item TTL sweep would.
  constexpr Timestamp kTtl = 10;
  std::vector<Item> stream;
  StreamIndex index = 0;
  auto emit = [&](uint64_t key, Timestamp at) {
    stream.push_back(Item{key, index++, at});
  };
  emit(1, 0);
  emit(2, 5);
  emit(2, 12);  // the sweep after this sees key 1 idle 12 > ttl: dropped
  emit(1, 12);  // key 1 restarts (generation 2) in the same batch
  emit(1, 13);
  emit(3, 22);  // keys 1 (gap 9) and 2 (gap 10 == ttl, boundary) survive
  emit(2, 22);  // same generation: the pre-arrival gap was exactly ttl
  emit(3, 33);  // key 1 idle 33 - 13 = 20 > ttl: dropped by this sweep
  emit(1, 33);  // generation 3
  for (int i = 0; i < 5; ++i) emit(1, 33);  // contiguous same-key run
  emit(2, 34);  // pre-arrival clock 33, gap 11 > ttl: generation 2

  KeyedEngineOptions options;
  options.spec = ParseSinkSpec("exact-seq,n=8,k=2,seed=5").ValueOrDie();
  options.idle_ttl = kTtl;
  auto item_engine = MakeEngine(options);
  DriveItemWise(item_engine.get(), stream);
  // The whole construction in ONE batch (every split is mid-batch), and
  // again in 4-item calls (splits straddle batch boundaries).
  for (size_t batch : {0u, 4u}) {
    auto batch_engine = MakeEngine(options);
    DriveBatched(batch_engine.get(), stream, batch);
    ExpectSameKeyStates(item_engine.get(), batch_engine.get(),
                        KeysOf(stream));
  }
}

TEST(KeyedBatchTest, BlockEndSweepDropsKeysBehindAFresherFirstArrival) {
  // Key 1 arrives first and last in the block, so a micro-batch order by
  // first arrival would leave it, fresh, at the LRU tail with the expired
  // key 2 in front of it, and the tail-first sweep would stop at key 1.
  KeyedEngineOptions options;
  options.spec = ParseSinkSpec("bop-ts-single,t=1000,seed=5").ValueOrDie();
  options.idle_ttl = 50;
  const std::vector<Item> stream = {
      {1, 0, 1}, {2, 1, 2}, {2, 2, 3}, {1, 3, 100}, {3, 4, 120}};
  auto item_engine = MakeEngine(options);
  DriveItemWise(item_engine.get(), stream);
  auto batch_engine = MakeEngine(options);
  DriveBatched(batch_engine.get(), stream, 0);

  EXPECT_FALSE(item_engine->HasKey(2));
  for (uint64_t key : {1, 2, 3}) {
    EXPECT_EQ(batch_engine->HasKey(key), item_engine->HasKey(key))
        << "key " << key;
  }
  std::vector<uint64_t> item_keys = item_engine->LiveKeys();
  std::vector<uint64_t> batch_keys = batch_engine->LiveKeys();
  std::sort(item_keys.begin(), item_keys.end());
  std::sort(batch_keys.begin(), batch_keys.end());
  EXPECT_EQ(batch_keys, item_keys);
  EXPECT_EQ(batch_engine->stats().expirations,
            item_engine->stats().expirations);
}

TEST(KeyedBatchTest, BudgetedBatchedMatchesUnbudgetedStateExactly) {
  // A binding budget forces mid-batch SpillBatch evictions and restores;
  // since evict/restore round-trips are bit-exact, every key's state must
  // equal the unbudgeted engine's. This is the batched spill pass +
  // restore determinism test.
  auto generator =
      WorkloadGenerator::Create(
          "bmodel@zipf,bias=0.72,levels=6,volume=2048,domain=600,alpha=1.05",
          0x5b1)
          .ValueOrDie();
  const std::vector<Item> stream = generator->Take(60000);

  KeyedEngineOptions unbudgeted;
  unbudgeted.spec =
      ParseSinkSpec("bop-seq-swor,n=32,k=4,seed=11").ValueOrDie();
  auto reference = MakeEngine(unbudgeted);
  DriveBatched(reference.get(), stream, 16384);

  KeyedEngineOptions budgeted = unbudgeted;
  budgeted.memory_budget_bytes = 160 * 1024;  // forces heavy churn
  budgeted.spill_dir = FreshDir("keyed_batch_budget");
  budgeted.fsync_spills = false;
  auto engine = MakeEngine(budgeted);
  DriveBatched(engine.get(), stream, 16384);

  const KeyedEngineStats& stats = engine->stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.restores, 0u);
  EXPECT_GT(stats.spill_batches, 0u);
  // The batched invariant: the budget holds at every enforcement
  // boundary (micro-batch and block ends).
  EXPECT_LE(stats.peak_charged_bytes, budgeted.memory_budget_bytes);
  ExpectSameKeyStates(reference.get(), engine.get(), KeysOf(stream));
  fs::remove_all(budgeted.spill_dir);
}

TEST(KeyedBatchTest, SampleDistributionsMatchUnderEvictRestoreChurn) {
  // Statistical form of the equivalence over a Zipf-burst stream with
  // mid-batch evictions and restores: pool each key's sampled window
  // position (its local index relative to the key's last-n window) from
  // the item-wise and batched engines and compare with the two-sample
  // chi-square; the pooled positions themselves must also be uniform
  // (each per-key sampler is a uniform last-n sampler).
  constexpr uint64_t kWindow = 16;
  constexpr uint64_t kSeed = 0x4b1d;
  auto generator =
      WorkloadGenerator::Create(
          "bmodel@zipf,bias=0.7,levels=5,volume=1024,domain=2048,alpha=1.02",
          kSeed)
          .ValueOrDie();
  const std::vector<Item> stream = generator->Take(80000);

  KeyedEngineOptions options;
  options.spec = ParseSinkSpec("bop-seq-single,n=16,seed=31").ValueOrDie();
  options.memory_budget_bytes = 512 * 1024;
  options.fsync_spills = false;

  const std::string item_dir = FreshDir("keyed_batch_dist_item");
  const std::string batch_dir = FreshDir("keyed_batch_dist_batch");

  options.spill_dir = item_dir;
  auto item_engine = MakeEngine(options);
  DriveItemWise(item_engine.get(), stream);

  options.spill_dir = batch_dir;
  auto batch_engine = MakeEngine(options);
  DriveBatched(batch_engine.get(), stream, 16384);

  std::map<uint64_t, uint64_t> arrivals;
  for (const Item& item : stream) ++arrivals[item.value];

  std::vector<uint64_t> item_counts(kWindow, 0);
  std::vector<uint64_t> batch_counts(kWindow, 0);
  uint64_t compared = 0;
  for (const auto& [key, count] : arrivals) {
    if (count < kWindow) continue;
    ASSERT_TRUE(item_engine->HasKey(key));
    ASSERT_TRUE(batch_engine->HasKey(key));
    auto item_sample = item_engine->SampleKey(key);
    auto batch_sample = batch_engine->SampleKey(key);
    ASSERT_TRUE(item_sample.ok()) << item_sample.status().ToString();
    ASSERT_TRUE(batch_sample.ok()) << batch_sample.status().ToString();
    ASSERT_EQ(item_sample.value().size(), 1u);
    ASSERT_EQ(batch_sample.value().size(), 1u);
    // No TTL here, so the key's local indices run [0, count) in both
    // engines and the sample lies in the last-kWindow range.
    ASSERT_GE(item_sample.value()[0].index, count - kWindow);
    ++item_counts[item_sample.value()[0].index - (count - kWindow)];
    ++batch_counts[batch_sample.value()[0].index - (count - kWindow)];
    ++compared;
  }
  ASSERT_GT(compared, 200u) << "workload too thin to test distributions";
  EXPECT_TRUE(SameDistribution(item_counts, batch_counts, kSeed));
  EXPECT_TRUE(IsUniform(item_counts, kSeed));
  EXPECT_TRUE(IsUniform(batch_counts, kSeed));
  fs::remove_all(item_dir);
  fs::remove_all(batch_dir);
}

}  // namespace
}  // namespace swsample
