// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Tests for the multi-tenant keyed window engine (stream/keyed_engine.h):
// (1) per-key samples are uniform over each key's own window — chi-square
// over 10^4 keys against per-key ExactWindow oracles; (2) evict -> process
// death -> restore is bit-identical to an uninterrupted run (spill blobs
// compared byte-for-byte); (3) the retained-bytes budget is never
// exceeded under Zipfian skew; (4) TTL expiry drops idle keys via
// AdvanceTime; (5) tier promotion, per-key estimators, option
// validation, and kKeyHash sharded integration.

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/exact_window.h"
#include "stat_check.h"
#include "stats/tests.h"
#include "stream/keyed_engine.h"
#include "stream/sharded_driver.h"
#include "stream/workload.h"
#include "util/rng.h"

namespace swsample {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  const std::string dir =
      (fs::path(::testing::TempDir()) / name).string();
  fs::remove_all(dir);
  return dir;
}

TEST(KeyedEngineTest, PerKeySamplesUniformOverPerKeyWindows) {
  constexpr uint64_t kKeys = 10000;
  constexpr uint64_t kWindow = 16;
  constexpr uint64_t kRounds = 40;  // arrivals per key; window = last 16

  KeyedEngineOptions options;
  options.spec = ParseSinkSpec("bop-seq-single,n=16,seed=77").ValueOrDie();
  options.max_keys_hint = kKeys;
  auto engine = KeyedWindowEngine::Create(options).ValueOrDie();

  // Per-key exact oracles for a deterministic subset (memory-bounded).
  constexpr uint64_t kOracles = 128;
  std::vector<std::unique_ptr<ExactWindow>> oracles;
  for (uint64_t key = 0; key < kOracles; ++key) {
    oracles.push_back(
        ExactWindow::CreateSequence(kWindow, 1, true, key).ValueOrDie());
  }

  // Round-robin interleave so every key's arrivals are spread across the
  // global stream (the adversarial case for per-key re-indexing).
  uint64_t global = 0;
  for (uint64_t round = 0; round < kRounds; ++round) {
    for (uint64_t key = 0; key < kKeys; ++key) {
      const Item item{key, global, static_cast<Timestamp>(global)};
      engine->Observe(item);
      if (key < kOracles) {
        oracles[key]->Observe(
            Item{key, round, static_cast<Timestamp>(global)});
      }
      ++global;
    }
  }
  ASSERT_TRUE(engine->status().ok()) << engine->status().ToString();
  EXPECT_EQ(engine->stats().live_keys, kKeys);
  EXPECT_EQ(engine->stats().items, kKeys * kRounds);

  // Each key's sample must land in ITS last-16 local window; the window
  // position, pooled across 10^4 independent per-key samplers, must be
  // uniform.
  std::vector<uint64_t> position_counts(kWindow, 0);
  for (uint64_t key = 0; key < kKeys; ++key) {
    auto sample = engine->SampleKey(key).ValueOrDie();
    ASSERT_EQ(sample.size(), 1u) << "key " << key;
    const Item& s = sample[0];
    EXPECT_EQ(s.value, key);
    ASSERT_GE(s.index, kRounds - kWindow) << "key " << key;
    ASSERT_LT(s.index, kRounds) << "key " << key;
    ++position_counts[s.index - (kRounds - kWindow)];
    if (key < kOracles) {
      // The oracle holds the same last-16 local items.
      const auto& contents = oracles[key]->contents();
      ASSERT_EQ(contents.size(), kWindow);
      bool found = false;
      for (const Item& item : contents) {
        found = found || (item.index == s.index && item.value == s.value);
      }
      EXPECT_TRUE(found) << "key " << key << " sampled outside its window";
    }
  }
  const ChiSquareResult chi = ChiSquareUniform(position_counts);
  EXPECT_GT(chi.p_value, 1e-3)
      << "chi2=" << chi.statistic << " df=" << chi.df;
}

TEST(KeyedEngineTest, EvictDeathRestoreIsBitIdenticalToUninterrupted) {
  constexpr uint64_t kKeys = 64;
  constexpr uint64_t kItems = 6000;
  const std::string dir = FreshDir("keyed_evict_dir");

  KeyedEngineOptions base;
  base.spec = ParseSinkSpec("bop-seq-swor,n=32,k=4,seed=123").ValueOrDie();
  base.spill_dir = dir;

  // Reference: one engine sees the whole stream, no interruptions.
  KeyedEngineOptions ref_options = base;
  ref_options.spill_dir = "";
  auto reference = KeyedWindowEngine::Create(ref_options).ValueOrDie();

  // Subject: first half, forced full spill (the durable state a SIGKILL
  // would leave behind — every spill file is fsync'd before rename),
  // engine destroyed, a NEW engine adopts the spill directory and sees
  // the second half.
  auto first = KeyedWindowEngine::Create(base).ValueOrDie();
  Rng rng(9);
  std::vector<Item> stream;
  stream.reserve(kItems);
  for (uint64_t i = 0; i < kItems; ++i) {
    stream.push_back(
        Item{rng.UniformIndex(kKeys), i, static_cast<Timestamp>(i)});
  }
  for (uint64_t i = 0; i < kItems; ++i) {
    reference->Observe(stream[i]);
    if (i < kItems / 2) first->Observe(stream[i]);
  }
  for (uint64_t key : first->LiveKeys()) {
    ASSERT_TRUE(first->EvictKey(key).ok());
  }
  EXPECT_EQ(first->stats().live_keys, 0u);
  first.reset();  // process death; only the spill files survive

  auto second = KeyedWindowEngine::Create(base).ValueOrDie();
  EXPECT_EQ(second->stats().spilled_keys, kKeys);
  for (uint64_t i = kItems / 2; i < kItems; ++i) {
    second->Observe(stream[i]);
  }
  ASSERT_TRUE(second->status().ok()) << second->status().ToString();
  EXPECT_EQ(second->stats().restores, kKeys);

  // Byte-for-byte identical per-key state: window contents, local
  // cursors AND RNG streams all survived the evict/death/restore cycle.
  for (uint64_t key = 0; key < kKeys; ++key) {
    auto a = reference->SaveKeyState(key).ValueOrDie();
    auto b = second->SaveKeyState(key).ValueOrDie();
    EXPECT_EQ(a, b) << "key " << key;
  }
}

TEST(KeyedEngineTest, BudgetNeverExceededUnderZipfianSkew) {
  constexpr uint64_t kDomain = 20000;
  constexpr uint64_t kItems = 30000;
  constexpr uint64_t kBudget = 192 * 1024;
  const std::string dir = FreshDir("keyed_budget_dir");

  KeyedEngineOptions options;
  options.spec = ParseSinkSpec("bop-ts-single,t=64,seed=5").ValueOrDie();
  options.memory_budget_bytes = kBudget;
  options.spill_dir = dir;
  auto engine = KeyedWindowEngine::Create(options).ValueOrDie();

  const std::vector<Item> items =
      WorkloadGenerator::Create("constant@zipf,rate=1,alpha=1.1,domain=" +
                                    std::to_string(kDomain),
                                17)
          .ValueOrDie()
          ->Take(kItems);
  for (const Item& item : items) {
    engine->Observe(item);
    ASSERT_LE(engine->ChargedBytes(), kBudget) << "item " << item.index;
  }
  ASSERT_TRUE(engine->status().ok()) << engine->status().ToString();
  EXPECT_GT(engine->stats().evictions, 0u);  // the budget actually bound
  EXPECT_LE(engine->stats().peak_charged_bytes, kBudget);
  // The full retained figure additionally carries the spill index.
  EXPECT_GE(engine->RetainedBytes(), engine->ChargedBytes());
  EXPECT_EQ(engine->stats().items, kItems);
  // Hot keys cycle back in after eviction.
  EXPECT_GT(engine->stats().restores, 0u);
}

TEST(KeyedEngineTest, TtlExpiryDropsIdleKeysViaAdvanceTime) {
  KeyedEngineOptions options;
  options.spec = ParseSinkSpec("bop-ts-single,t=100,seed=2").ValueOrDie();
  options.idle_ttl = 50;
  auto engine = KeyedWindowEngine::Create(options).ValueOrDie();

  for (uint64_t key = 0; key < 10; ++key) {
    engine->Observe(Item{key, key, static_cast<Timestamp>(key)});
  }
  EXPECT_EQ(engine->stats().live_keys, 10u);

  // Key 3 stays warm; everyone else crosses the TTL.
  engine->Observe(Item{3, 10, 55});
  engine->AdvanceTime(70);
  EXPECT_EQ(engine->stats().live_keys, 1u);
  EXPECT_EQ(engine->stats().expirations, 9u);
  EXPECT_TRUE(engine->HasKey(3));
  EXPECT_FALSE(engine->HasKey(4));
  EXPECT_FALSE(engine->SampleKey(4).ok());

  // An expired key's next arrival starts over on the tail tier.
  engine->Observe(Item{4, 11, 71});
  EXPECT_TRUE(engine->HasKey(4));
  EXPECT_EQ(engine->stats().live_keys, 2u);
}

TEST(KeyedEngineTest, PromotionMovesHotKeysToTheExactTier) {
  KeyedEngineOptions options;
  options.spec = ParseSinkSpec("bop-seq-single,n=32,seed=4").ValueOrDie();
  options.hot_spec = ParseSinkSpec("exact-seq,n=32,k=4,seed=4").ValueOrDie();
  options.promote_after = 10;
  auto engine = KeyedWindowEngine::Create(options).ValueOrDie();

  for (uint64_t i = 0; i < 50; ++i) {
    engine->Observe(Item{0, i, static_cast<Timestamp>(i)});  // hot key
  }
  for (uint64_t i = 50; i < 55; ++i) {
    engine->Observe(Item{1, i, static_cast<Timestamp>(i)});  // cold key
  }
  EXPECT_EQ(engine->stats().promotions, 1u);
  // The promoted key answers with the hot tier's k=4 exact sample...
  EXPECT_EQ(engine->SampleKey(0).ValueOrDie().size(), 4u);
  // ...the cold key still answers from the single-sample tail tier.
  EXPECT_EQ(engine->SampleKey(1).ValueOrDie().size(), 1u);
}

TEST(KeyedEngineTest, EstimatorKindEnginesEstimatePerKey) {
  KeyedEngineOptions options;
  options.spec =
      ParseSinkSpec("window-count@exact-ts,t=1000").ValueOrDie();
  auto engine = KeyedWindowEngine::Create(options).ValueOrDie();

  for (uint64_t i = 0; i < 5; ++i) {
    engine->Observe(Item{7, i, static_cast<Timestamp>(i)});
  }
  for (uint64_t i = 5; i < 8; ++i) {
    engine->Observe(Item{9, i, static_cast<Timestamp>(i)});
  }
  EXPECT_DOUBLE_EQ(engine->EstimateKey(7).ValueOrDie().value, 5.0);
  EXPECT_DOUBLE_EQ(engine->EstimateKey(9).ValueOrDie().value, 3.0);
  EXPECT_FALSE(engine->SampleKey(7).ok());  // wrong kind for the surface
}

TEST(KeyedEngineTest, CreateValidatesOptions) {
  KeyedEngineOptions options;
  options.spec = ParseSinkSpec("bop-seq-single,n=16").ValueOrDie();

  // Budget without a spill directory: evictions would have nowhere to go.
  options.memory_budget_bytes = 1 << 20;
  EXPECT_FALSE(KeyedWindowEngine::Create(options).ok());
  options.memory_budget_bytes = 0;

  // Unknown tail spec.
  KeyedEngineOptions bad = options;
  bad.spec.name = "no-such-sink";
  EXPECT_FALSE(KeyedWindowEngine::Create(bad).ok());

  // Hot tier of a different kind than the tail tier.
  bad = options;
  bad.hot_spec = ParseSinkSpec("ams-fk,t=100,r=8").ValueOrDie();
  bad.promote_after = 10;
  EXPECT_FALSE(KeyedWindowEngine::Create(bad).ok());

  // Sampler-kind engine rejects the estimator surface.
  auto engine = KeyedWindowEngine::Create(options).ValueOrDie();
  engine->Observe(Item{1, 0, 0});
  EXPECT_FALSE(engine->EstimateKey(1).ok());
  EXPECT_FALSE(engine->SampleKey(99).ok());  // unknown key
}

TEST(KeyedEngineTest, SpillRestoreStormKeepsPerKeyUniformityUnderZipfBursts) {
  // Zipf keys on b-model bursts at a budget far below the live key set:
  // hot keys hammer the LRU while whole burst cohorts spill and restore.
  // Spill round-trips are bit-preserving, so every key's sampler must
  // still be uniform over ITS last-kWindow local arrivals at the end.
  constexpr uint64_t kWindow = 8;
  constexpr uint64_t kItems = 40000;
  constexpr uint64_t kBudget = 96 * 1024;
  const std::string dir = FreshDir("keyed_storm_dir");

  KeyedEngineOptions options;
  options.spec = ParseSinkSpec("bop-seq-single,n=8,seed=11").ValueOrDie();
  options.memory_budget_bytes = kBudget;
  options.spill_dir = dir;
  auto engine = KeyedWindowEngine::Create(options).ValueOrDie();

  auto gen = WorkloadGenerator::Create(
                 "bmodel@zipf,bias=0.75,levels=8,volume=4096,domain=512,"
                 "alpha=1.1",
                 /*seed=*/29)
                 .ValueOrDie();
  const std::vector<Item> items = gen->Take(kItems);

  std::map<uint64_t, std::unique_ptr<ExactWindow>> oracles;
  std::map<uint64_t, uint64_t> local_count;
  for (const Item& item : items) {
    engine->Observe(item);
    ASSERT_LE(engine->ChargedBytes(), kBudget);
    auto& oracle = oracles[item.value];
    if (!oracle) {
      oracle = ExactWindow::CreateSequence(kWindow, 1, true, item.value)
                   .ValueOrDie();
    }
    oracle->Observe(
        Item{item.value, local_count[item.value]++, item.timestamp});
  }
  ASSERT_TRUE(engine->status().ok()) << engine->status().ToString();
  EXPECT_EQ(engine->stats().items, kItems);
  EXPECT_GT(engine->stats().evictions, 0u);  // the storm actually happened
  EXPECT_GT(engine->stats().restores, 0u);

  // One end-of-stream draw per full-window key, pooled across keys: each
  // draw must land inside that key's exact local window, and the window
  // position must be uniform.
  std::vector<uint64_t> counts(kWindow, 0);
  uint64_t full_window_keys = 0;
  for (const auto& [key, oracle] : oracles) {
    const uint64_t n = local_count[key];
    if (n < kWindow) continue;
    auto sample = engine->SampleKey(key).ValueOrDie();
    ASSERT_EQ(sample.size(), 1u) << "key " << key;
    const Item& s = sample[0];
    EXPECT_EQ(s.value, key);
    ASSERT_GE(s.index, n - kWindow) << "key " << key;
    ASSERT_LT(s.index, n) << "key " << key;
    bool found = false;
    for (const Item& item : oracle->contents()) {
      found = found || item.index == s.index;
    }
    EXPECT_TRUE(found) << "key " << key << " sampled outside its window";
    ++counts[s.index - (n - kWindow)];
    ++full_window_keys;
  }
  EXPECT_GE(full_window_keys, 64u);  // enough pooled draws to mean anything
  EXPECT_TRUE(IsUniform(counts, /*seed=*/29));
}

TEST(KeyedEngineTest, TtlExpiryRacesPromotion) {
  KeyedEngineOptions options;
  options.spec = ParseSinkSpec("bop-ts-single,t=100,seed=8").ValueOrDie();
  options.hot_spec = ParseSinkSpec("exact-ts,t=100,k=4,seed=8").ValueOrDie();
  options.promote_after = 10;
  options.idle_ttl = 50;
  auto engine = KeyedWindowEngine::Create(options).ValueOrDie();

  // Key 1 crosses the promotion threshold (the 10th arrival promotes).
  for (uint64_t i = 0; i < 20; ++i) {
    engine->Observe(Item{1, i, static_cast<Timestamp>(i)});
  }
  EXPECT_EQ(engine->stats().promotions, 1u);
  EXPECT_EQ(engine->SampleKey(1).ValueOrDie().size(), 4u);

  // Key 2 sits one arrival below the threshold when the clock jumps.
  for (uint64_t i = 20; i < 29; ++i) {
    engine->Observe(Item{2, i, static_cast<Timestamp>(i)});
  }
  EXPECT_EQ(engine->stats().promotions, 1u);

  // TTL expiry must evict hot-tier and about-to-promote keys alike.
  engine->AdvanceTime(200);
  EXPECT_FALSE(engine->HasKey(1));
  EXPECT_FALSE(engine->HasKey(2));
  EXPECT_EQ(engine->stats().expirations, 2u);

  // The formerly-promoted key restarts on the tail tier and re-earns
  // promotion from zero: nine arrivals stay k=1, the tenth re-promotes.
  for (uint64_t i = 0; i < 9; ++i) {
    engine->Observe(Item{1, 29 + i, static_cast<Timestamp>(201 + i)});
  }
  EXPECT_EQ(engine->stats().promotions, 1u);
  EXPECT_EQ(engine->SampleKey(1).ValueOrDie().size(), 1u);
  engine->Observe(Item{1, 38, 210});
  EXPECT_EQ(engine->stats().promotions, 2u);
  EXPECT_EQ(engine->SampleKey(1).ValueOrDie().size(), 4u);
}

TEST(KeyedEngineTest, ShardedKeyHashDriveOwnsEachKeyInOneEngine) {
  constexpr uint64_t kShards = 3;
  constexpr uint64_t kKeys = 200;
  constexpr uint64_t kItems = 8000;

  KeyedEngineOptions options;
  options.spec = ParseSinkSpec("bop-seq-swor,n=16,k=2,seed=31").ValueOrDie();
  auto engines = CreateKeyedEngines(options, kShards).ValueOrDie();
  auto sinks = SinkPointers(engines);

  std::vector<Item> items;
  items.reserve(kItems);
  Rng rng(3);
  for (uint64_t i = 0; i < kItems; ++i) {
    items.push_back(
        Item{rng.UniformIndex(kKeys), i, static_cast<Timestamp>(i)});
  }

  ShardedStreamDriver::Options driver_options;
  driver_options.threads = 2;
  driver_options.chunk_items = 64;
  driver_options.partition = ShardPartition::kKeyHash;
  ShardedStreamDriver driver(driver_options);
  auto report = driver.Drive(items, sinks);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().total.items, kItems);

  uint64_t delivered = 0;
  for (const auto& engine : engines) {
    ASSERT_TRUE(engine->status().ok());
    delivered += engine->stats().items;
  }
  EXPECT_EQ(delivered, kItems);

  // Every key lives exactly in the engine ShardOfKey says owns it.
  for (uint64_t key = 0; key < kKeys; ++key) {
    const uint64_t owner = ShardOfKey(key, kShards);
    for (uint64_t shard = 0; shard < kShards; ++shard) {
      EXPECT_EQ(engines[shard]->HasKey(key), shard == owner)
          << "key " << key << " shard " << shard;
    }
  }
}

// A single shard is the unsharded engine: CreateKeyedEngines(options, 1)
// forks no seed and keeps the spill directory, so it behaves exactly like
// KeyedWindowEngine::Create(options).
TEST(KeyedEngineTest, OneShardIsTheUnshardedEngine) {
  const std::string dir = FreshDir("keyed_one_shard");
  KeyedEngineOptions options;
  options.spec = ParseSinkSpec("bop-seq-swor,n=16,k=2,seed=31").ValueOrDie();
  options.spill_dir = dir;
  auto sharded = CreateKeyedEngines(options, 1).ValueOrDie();
  ASSERT_EQ(sharded.size(), 1u);
  options.spill_dir = FreshDir("keyed_one_shard_plain");
  auto plain = KeyedWindowEngine::Create(options).ValueOrDie();
  Rng rng(5);
  for (uint64_t i = 0; i < 4000; ++i) {
    const Item item{rng.UniformIndex(50), i, static_cast<Timestamp>(i)};
    sharded[0]->Observe(item);
    plain->Observe(item);
  }
  for (uint64_t key = 0; key < 50; ++key) {
    EXPECT_EQ(sharded[0]->SampleKey(key).ValueOrDie(),
              plain->SampleKey(key).ValueOrDie())
        << "key " << key;
  }
  // The spill directory is `options.spill_dir` itself, not a shard-0000
  // subdirectory.
  ASSERT_TRUE(sharded[0]->EvictKey(0).ok());
  EXPECT_FALSE(fs::exists(fs::path(dir) / "shard-0000"));
  EXPECT_FALSE(fs::is_empty(dir));
}

}  // namespace
}  // namespace swsample
