// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Deterministic fault-injection coverage for the FileOps seam
// (util/file_ops.h), the failpoint registry (util/failpoint.h), and the
// robustness machinery built on them:
//
//   (1) failpoint grammar + trigger semantics (nth/every/prob/times) and
//       deterministic prob decisions under a fixed seed;
//   (2) Status retryability split and the seeded RetryIo/backoff driver;
//   (3) AtomicWriteFile fault classes: transient errors leak no temp
//       file, torn writes silently publish a truncated prefix;
//   (4) the full site x class fault matrix under a Zipf keyed workload
//       and the checkpoint writer — no crashes, shed mode holds the
//       budget after every item;
//   (5) transient faults that retrying absorbs leave results
//       bit-identical to a fault-free run with zero give-ups;
//   (6) torn/corrupt spill files are quarantined (renamed aside) at
//       restore and at directory adoption, and untouched keys restore
//       cleanly — quarantine-then-resume equivalence;
//   (7) the degraded -> recovering -> healthy re-probe state machine;
//   (8) crash-orphaned *.tmp files are swept at engine creation and by
//       the checkpoint GC;
//   (9) a checkpoint commit that fails on the commit thread fails both
//       drivers' drives, keeps the last committed checkpoint, and resumes
//       bit-identically; a retried one leaves the drive clean.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/sink_spec.h"
#include "stream/checkpoint.h"
#include "stream/driver.h"
#include "stream/keyed_engine.h"
#include "stream/sharded_driver.h"
#include "stream/workload.h"
#include "util/failpoint.h"
#include "util/file_ops.h"
#include "util/rng.h"
#include "util/status.h"

namespace swsample {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  const std::string dir = (fs::path(::testing::TempDir()) / name).string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Every test body runs with a clean registry on both sides: failpoints
/// are process-global, so a leaked arming would poison later tests.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { DisarmFailpoints(); }
  void TearDown() override { DisarmFailpoints(); }
};

constexpr const char* kClasses[] = {"enospc", "eio", "torn", "fsync",
                                    "rename"};

// ---------------------------------------------------------------------------
// Failpoint registry + grammar

TEST_F(FaultInjectionTest, SpecGrammarRejectsMalformedSpecs) {
  EXPECT_FALSE(ArmFailpoints("nosite", 1).ok());
  EXPECT_FALSE(ArmFailpoints("=eio", 1).ok());
  EXPECT_FALSE(ArmFailpoints("a.site=badclass", 1).ok());
  EXPECT_FALSE(ArmFailpoints("a.site=eio,nth=0", 1).ok());
  EXPECT_FALSE(ArmFailpoints("a.site=eio,nth=x", 1).ok());
  EXPECT_FALSE(ArmFailpoints("a.site=eio,nth=18446744073709551617", 1).ok());
  EXPECT_FALSE(ArmFailpoints("a.site=eio,prob=1.5", 1).ok());
  EXPECT_FALSE(ArmFailpoints("a.site=eio,bogus=1", 1).ok());
  EXPECT_FALSE(ArmFailpoints("a.site=", 1).ok());
  EXPECT_TRUE(ArmFailpoints("", 1).ok());  // empty spec arms nothing
  EXPECT_FALSE(AnyFailpointArmed());
}

TEST_F(FaultInjectionTest, TriggerSemanticsNthEveryTimes) {
  ASSERT_TRUE(ArmFailpoints("t.nth=eio,nth=3", 1).ok());
  Failpoint& nth = Failpoint::At("t.nth");
  EXPECT_EQ(nth.Hit(), FaultClass::kNone);
  EXPECT_EQ(nth.Hit(), FaultClass::kNone);
  EXPECT_EQ(nth.Hit(), FaultClass::kEio);  // exactly the 3rd
  EXPECT_EQ(nth.Hit(), FaultClass::kNone);

  ASSERT_TRUE(ArmFailpoints("t.every=enospc,every=2", 1).ok());
  Failpoint& every = Failpoint::At("t.every");
  int fires = 0;
  for (int i = 0; i < 10; ++i) {
    if (every.Hit() != FaultClass::kNone) ++fires;
  }
  EXPECT_EQ(fires, 5);

  ASSERT_TRUE(ArmFailpoints("t.times=rename,times=2", 1).ok());
  Failpoint& times = Failpoint::At("t.times");
  fires = 0;
  for (int i = 0; i < 10; ++i) {
    if (times.Hit() != FaultClass::kNone) ++fires;
  }
  EXPECT_EQ(fires, 2);  // kAlways capped by times=
  EXPECT_EQ(times.hits(), 10u);
  EXPECT_EQ(times.fires(), 2u);
}

TEST_F(FaultInjectionTest, ProbTriggerIsDeterministicInTheSeed) {
  auto pattern = [](uint64_t seed) {
    EXPECT_TRUE(ArmFailpoints("t.prob=eio,prob=0.3", seed).ok());
    Failpoint& fp = Failpoint::At("t.prob");
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) {
      fired.push_back(fp.Hit() != FaultClass::kNone);
    }
    return fired;
  };
  const auto a = pattern(42);
  const auto b = pattern(42);
  const auto c = pattern(43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  int fires = 0;
  for (bool f : a) fires += f ? 1 : 0;
  EXPECT_GT(fires, 200 * 0.3 / 2);
  EXPECT_LT(fires, 200 * 0.3 * 2);
}

TEST_F(FaultInjectionTest, RejectedSpecListArmsNothing) {
  EXPECT_FALSE(ArmFailpoints("spill.write=eio;spill.read=bogus", 1).ok());
  EXPECT_FALSE(AnyFailpointArmed());
  EXPECT_EQ(Failpoint::At("spill.write").Hit(), FaultClass::kNone);
}

TEST_F(FaultInjectionTest, UnarmedSitesReportNoneAndReportListsArmed) {
  EXPECT_EQ(Failpoint::At("t.unarmed").Hit(), FaultClass::kNone);
  ASSERT_TRUE(ArmFailpoints("t.report=torn", 1).ok());
  Failpoint::At("t.report").Hit();
  const std::string report = FailpointReport();
  EXPECT_NE(report.find("t.report class=torn hits=1 fires=1"),
            std::string::npos);
  DisarmFailpoints();
  EXPECT_FALSE(AnyFailpointArmed());
  EXPECT_EQ(Failpoint::At("t.report").Hit(), FaultClass::kNone);
}

// ---------------------------------------------------------------------------
// Status + retry driver

TEST_F(FaultInjectionTest, OnlyUnavailableIsRetryable) {
  EXPECT_TRUE(Status::Unavailable("x").retryable());
  EXPECT_FALSE(Status::Ok().retryable());
  EXPECT_FALSE(Status::InvalidArgument("x").retryable());
}

TEST_F(FaultInjectionTest, RetryBackoffIsDeterministicBoundedAndSeeded) {
  RetryPolicy policy;
  policy.backoff_ms = 1.0;
  policy.backoff_max_ms = 4.0;
  for (uint32_t attempt = 1; attempt <= 6; ++attempt) {
    const double a = RetryBackoffSeconds(policy, 7, attempt);
    const double b = RetryBackoffSeconds(policy, 7, attempt);
    EXPECT_EQ(a, b);
    // Jitter keeps each sleep within [base/2, base), base capped at max.
    EXPECT_GE(a, 0.5e-3);
    EXPECT_LT(a, 4e-3);
  }
  EXPECT_NE(RetryBackoffSeconds(policy, 7, 1),
            RetryBackoffSeconds(policy, 8, 1));
}

TEST_F(FaultInjectionTest, RetryIoRetriesTransientAndStopsOnPermanent) {
  RetryPolicy fast;
  fast.max_attempts = 4;
  fast.backoff_ms = 0.0;
  uint64_t retries = 0;
  int calls = 0;
  Status s = RetryIo(fast, 1, &retries, [&] {
    ++calls;
    return calls < 3 ? Status::Unavailable("flaky") : Status::Ok();
  });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries, 2u);

  calls = 0;
  retries = 0;
  s = RetryIo(fast, 1, &retries, [&] {
    ++calls;
    return Status::InvalidArgument("permanent");
  });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(calls, 1);  // permanent errors are not retried
  EXPECT_EQ(retries, 0u);

  calls = 0;
  s = RetryIo(fast, 1, nullptr, [&] {
    ++calls;
    return Status::Unavailable("always down");
  });
  EXPECT_TRUE(s.retryable());
  EXPECT_EQ(calls, 4);  // budget exhausted
}

// ---------------------------------------------------------------------------
// AtomicWriteFile fault classes

TEST_F(FaultInjectionTest, TransientWriteFaultsLeakNoTempFile) {
  const std::string dir = FreshDir("fi_awf");
  for (const char* klass : {"enospc", "eio", "fsync", "rename"}) {
    ASSERT_TRUE(
        ArmFailpoints(std::string("t.awf=") + klass + ",nth=1", 1).ok());
    const std::string path = dir + "/" + klass + ".bin";
    Status s = AtomicWriteFile("t.awf", path, "payload-bytes", true);
    EXPECT_TRUE(s.retryable()) << klass << ": " << s.ToString();
    EXPECT_FALSE(fs::exists(path)) << klass;
    EXPECT_FALSE(fs::exists(path + ".tmp")) << klass << " leaked its temp";
    // The failpoint has fired its nth=1; the retry goes through clean.
    s = AtomicWriteFile("t.awf", path, "payload-bytes", true);
    EXPECT_TRUE(s.ok()) << klass << ": " << s.ToString();
    EXPECT_EQ(ReadFileBytes("t.none", path).ValueOrDie(), "payload-bytes");
  }
}

TEST_F(FaultInjectionTest, TornWriteSilentlyPublishesATruncatedPrefix) {
  const std::string dir = FreshDir("fi_torn");
  ASSERT_TRUE(ArmFailpoints("t.torn=torn,nth=1", 1).ok());
  const std::string path = dir + "/file.bin";
  // Reports success — the caller believes the write committed, exactly
  // like a crash between write and rename.
  ASSERT_TRUE(AtomicWriteFile("t.torn", path, "0123456789", true).ok());
  EXPECT_EQ(ReadFileBytes("t.none", path).ValueOrDie(), "01234");
}

TEST_F(FaultInjectionTest, SweepTempFilesRemovesOnlyCrashOrphans) {
  const std::string dir = FreshDir("fi_sweep");
  std::ofstream(dir + "/a.ckpt.tmp") << "orphan";
  std::ofstream(dir + "/b.tmp") << "orphan";
  std::ofstream(dir + "/keep.ckpt") << "committed";
  EXPECT_EQ(SweepTempFiles(dir), 2u);
  EXPECT_TRUE(fs::exists(dir + "/keep.ckpt"));
  EXPECT_FALSE(fs::exists(dir + "/b.tmp"));
  EXPECT_EQ(SweepTempFiles(dir + "/missing"), 0u);
}

// ---------------------------------------------------------------------------
// Keyed engine drills

KeyedEngineOptions ShedOptions(const std::string& dir) {
  KeyedEngineOptions options;
  options.spec = ParseSinkSpec("bop-seq-single,n=16,seed=9").ValueOrDie();
  options.memory_budget_bytes = 96 * 1024;
  options.spill_dir = dir;
  options.fsync_spills = false;
  options.degrade = KeyedDegradeMode::kShed;
  options.io_retry.backoff_ms = 0.0;
  return options;
}

/// Zipf arrivals, one per timestamp: the skewed, evict/restore-heavy
/// traffic shape the adversarial workloads of the stress matrix use.
std::vector<Item> ZipfItems(uint64_t items, uint64_t domain, uint64_t seed) {
  return WorkloadGenerator::Create("constant@zipf,rate=1,alpha=1.2,domain=" +
                                       std::to_string(domain),
                                   seed)
      .ValueOrDie()
      ->Take(items);
}

void DriveZipf(KeyedWindowEngine& engine, uint64_t items, uint64_t domain,
               uint64_t seed, uint64_t budget_or_zero) {
  for (const Item& item : ZipfItems(items, domain, seed)) {
    engine.Observe(item);
    if (budget_or_zero != 0) {
      ASSERT_LE(engine.ChargedBytes(), budget_or_zero)
          << "item " << item.index;
    }
  }
}

TEST_F(FaultInjectionTest, FaultMatrixSpillSitesNeverCrashAndShedHoldsBudget) {
  for (const char* site : {"spill.write", "spill.read"}) {
    for (const char* klass : kClasses) {
      const std::string dir =
          FreshDir(std::string("fi_matrix_") + site + "_" + klass);
      DisarmFailpoints();
      ASSERT_TRUE(
          ArmFailpoints(std::string(site) + "=" + klass + ",every=5", 99)
              .ok());
      {
        KeyedEngineOptions options = ShedOptions(dir);
        auto engine = KeyedWindowEngine::Create(options).ValueOrDie();
        // Budget must hold after EVERY item, outage or not.
        DriveZipf(*engine, 20000, 4000, 7,
                  options.memory_budget_bytes);
        // Shed mode never latches: the run finishes with Ok status no
        // matter what the storage did.
        EXPECT_TRUE(engine->status().ok())
            << site << "=" << klass << ": " << engine->status().ToString();
        // Queries during the outage must not crash either.
        for (uint64_t key = 0; key < 64; ++key) {
          auto sample = engine->SampleKey(key);
          (void)sample;
        }
      }
      // A fresh engine must adopt whatever the faulted run left behind
      // (quarantining torn files) and keep serving.
      DisarmFailpoints();
      auto adopted = KeyedWindowEngine::Create(ShedOptions(dir));
      ASSERT_TRUE(adopted.ok()) << site << "=" << klass;
      auto adopted_engine = std::move(adopted).ValueOrDie();
      DriveZipf(*adopted_engine, 2000, 4000, 8, 0);
      EXPECT_TRUE(adopted_engine->status().ok());
    }
  }
}

TEST_F(FaultInjectionTest, RetriedTransientFaultsAreBitIdenticalToCleanRun) {
  constexpr uint64_t kItems = 40000;
  constexpr uint64_t kDomain = 3000;
  auto run = [&](const std::string& dir) {
    KeyedEngineOptions options = ShedOptions(dir);
    // 8 attempts make a prob=0.05 give-up a ~4e-11 event per op: the run
    // must absorb every fault by retrying.
    options.io_retry.max_attempts = 8;
    auto engine = KeyedWindowEngine::Create(options).ValueOrDie();
    DriveZipf(*engine, kItems, kDomain, 21, options.memory_budget_bytes);
    std::map<uint64_t, std::vector<Item>> samples;
    for (uint64_t key = 0; key < kDomain; key += 17) {
      auto sample = engine->SampleKey(key);
      if (sample.ok()) samples[key] = std::move(sample).ValueOrDie();
    }
    EXPECT_TRUE(engine->status().ok()) << engine->status().ToString();
    return std::make_pair(std::move(samples), engine->stats());
  };

  const auto clean = run(FreshDir("fi_equiv_clean"));
  ASSERT_TRUE(
      ArmFailpoints("spill.write=eio,prob=0.05;spill.read=eio,prob=0.05", 5)
          .ok());
  const auto faulted = run(FreshDir("fi_equiv_faulted"));

  EXPECT_GT(faulted.second.io_retries, 0u);  // faults actually fired
  EXPECT_EQ(faulted.second.io_giveups, 0u);  // and retrying absorbed all
  EXPECT_EQ(faulted.second.degraded_drops, 0u);
  EXPECT_EQ(faulted.second.restore_misses, 0u);
  EXPECT_EQ(faulted.second.health, KeyedEngineHealth::kHealthy);
  // The engine's evolution — evictions, restores, and every surviving
  // per-key sample — is bit-identical to the fault-free run.
  EXPECT_EQ(faulted.second.evictions, clean.second.evictions);
  EXPECT_EQ(faulted.second.restores, clean.second.restores);
  EXPECT_EQ(faulted.second.charged_bytes, clean.second.charged_bytes);
  ASSERT_EQ(faulted.first.size(), clean.first.size());
  for (const auto& [key, sample] : clean.first) {
    const auto it = faulted.first.find(key);
    ASSERT_NE(it, faulted.first.end()) << "key " << key;
    ASSERT_EQ(it->second.size(), sample.size()) << "key " << key;
    for (size_t i = 0; i < sample.size(); ++i) {
      EXPECT_EQ(it->second[i].value, sample[i].value) << "key " << key;
    }
  }
}

TEST_F(FaultInjectionTest, TornSpillIsQuarantinedAndTheKeyRestartsFresh) {
  const std::string dir = FreshDir("fi_quarantine");
  KeyedEngineOptions options = ShedOptions(dir);
  options.degrade = KeyedDegradeMode::kBlock;  // quarantine never latches
  auto engine = KeyedWindowEngine::Create(options).ValueOrDie();
  for (uint64_t key = 0; key < 4; ++key) {
    for (uint64_t i = 0; i < 8; ++i) {
      engine->Observe(
          Item{key, key * 8 + i, static_cast<Timestamp>(key * 8 + i)});
    }
  }
  // Key 0 spills torn — the engine believes the spill committed.
  ASSERT_TRUE(ArmFailpoints("spill.write=torn,nth=1", 1).ok());
  ASSERT_TRUE(engine->EvictKey(0).ok());
  ASSERT_TRUE(engine->EvictKey(1).ok());  // clean spill
  DisarmFailpoints();

  // Restoring key 0 finds the truncated file: quarantined, not fatal.
  EXPECT_FALSE(engine->SampleKey(0).ok());
  EXPECT_TRUE(engine->status().ok()) << engine->status().ToString();
  EXPECT_EQ(engine->stats().quarantined_files, 1u);
  EXPECT_EQ(engine->stats().restore_misses, 1u);
  bool saw_bad = false;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 4 &&
        name.compare(name.size() - 4, 4, ".bad") == 0) {
      saw_bad = true;
    }
  }
  EXPECT_TRUE(saw_bad) << "torn spill was not renamed aside";
  // The untouched key restores bit-exact, and the quarantined key
  // restarts fresh on its next arrival.
  EXPECT_TRUE(engine->SampleKey(1).ok());
  engine->Observe(Item{0, 100, 100});
  EXPECT_TRUE(engine->HasKey(0));
  EXPECT_TRUE(engine->status().ok());
}

TEST_F(FaultInjectionTest, AdoptionFuzzQuarantinesCorruptSpillsOnly) {
  const std::string dir = FreshDir("fi_adopt_fuzz");
  constexpr uint64_t kKeys = 24;
  {
    KeyedEngineOptions options = ShedOptions(dir);
    auto engine = KeyedWindowEngine::Create(options).ValueOrDie();
    for (uint64_t key = 0; key < kKeys; ++key) {
      for (uint64_t i = 0; i < 6; ++i) {
        engine->Observe(
            Item{key, key * 6 + i, static_cast<Timestamp>(key * 6 + i)});
      }
    }
    for (uint64_t key = 0; key < kKeys; ++key) {
      ASSERT_TRUE(engine->EvictKey(key).ok());
    }
  }  // engine gone; only the spill directory survives the "crash"

  // Corrupt a deterministic third of the files: truncate some, scramble
  // the magic of others.
  Rng rng(123);
  std::vector<std::string> corrupted;
  std::vector<std::string> intact;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string path = entry.path().string();
    const uint64_t roll = rng.NextU64() % 3;
    if (roll == 0) {
      intact.push_back(path);
      continue;
    }
    corrupted.push_back(path);
    std::string bytes = ReadFileBytes("t.none", path).ValueOrDie();
    if (roll == 1) {
      bytes.resize(rng.NextU64() % bytes.size());  // torn prefix
    } else {
      bytes[0] ^= 0xff;  // bad magic
    }
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  }
  ASSERT_FALSE(corrupted.empty());
  // Two well-formed headers with impossible metadata: layout version 1's
  // tier slot must be 0 and its arrivals slot must equal the local index
  // (bytes 24 and 40: after magic, version and key, and after tier and
  // local index).
  ASSERT_GE(intact.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    const std::string path = intact[i];
    std::string bytes = ReadFileBytes("t.none", path).ValueOrDie();
    bytes[i == 0 ? 24 : 40] ^= 0x01;
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    corrupted.push_back(path);
  }

  KeyedEngineOptions options = ShedOptions(dir);
  auto engine = KeyedWindowEngine::Create(options).ValueOrDie();
  uint64_t restored = 0;
  for (uint64_t key = 0; key < kKeys; ++key) {
    if (engine->SampleKey(key).ok()) ++restored;
  }
  EXPECT_TRUE(engine->status().ok()) << engine->status().ToString();
  EXPECT_EQ(engine->stats().quarantined_files, corrupted.size());
  EXPECT_EQ(restored, kKeys - corrupted.size());
  EXPECT_EQ(engine->stats().restore_misses, corrupted.size());
}

TEST_F(FaultInjectionTest, ShedModeHoldsBudgetThroughAPermanentOutage) {
  const std::string dir = FreshDir("fi_outage");
  ASSERT_TRUE(ArmFailpoints("spill.write=eio;spill.read=eio", 3).ok());
  KeyedEngineOptions options = ShedOptions(dir);
  auto engine = KeyedWindowEngine::Create(options).ValueOrDie();
  DriveZipf(*engine, 20000, 4000, 11, options.memory_budget_bytes);
  EXPECT_TRUE(engine->status().ok()) << engine->status().ToString();
  EXPECT_EQ(engine->health(), KeyedEngineHealth::kDegraded);
  EXPECT_GT(engine->stats().degraded_drops, 0u);
  EXPECT_GT(engine->stats().shed_bytes, 0u);
  EXPECT_GT(engine->stats().io_giveups, 0u);
  // Every arrival was still ingested.
  EXPECT_EQ(engine->stats().items, 20000u);
}

TEST_F(FaultInjectionTest, BlockModeLatchesOnAPermanentOutage) {
  const std::string dir = FreshDir("fi_block");
  ASSERT_TRUE(ArmFailpoints("spill.write=eio", 3).ok());
  KeyedEngineOptions options = ShedOptions(dir);
  options.degrade = KeyedDegradeMode::kBlock;
  auto engine = KeyedWindowEngine::Create(options).ValueOrDie();
  // Fail-stop mode keeps re-attempting the blocked eviction on every
  // arrival, so stop shortly after the latch instead of grinding through
  // the whole stream.
  uint64_t post_latch = 0;
  for (const Item& item : ZipfItems(20000, 4000, 11)) {
    if (post_latch >= 64) break;
    engine->Observe(item);
    if (!engine->status().ok()) ++post_latch;
  }
  EXPECT_FALSE(engine->status().ok());
  EXPECT_TRUE(engine->status().retryable());
  EXPECT_GT(engine->stats().io_giveups, 0u);
  EXPECT_EQ(engine->health(), KeyedEngineHealth::kDegraded);
}

TEST_F(FaultInjectionTest, HealthReprobesBackToHealthyAfterTheOutageEnds) {
  const std::string dir = FreshDir("fi_reprobe");
  KeyedEngineOptions options = ShedOptions(dir);
  options.io_retry.max_attempts = 3;
  // times=3 exhausts exactly one operation's retry budget, then the
  // "storage" comes back on its own. A degraded engine re-probes every
  // 65,536 items, so the stream runs well past one re-probe period.
  ASSERT_TRUE(ArmFailpoints("spill.write=eio,times=3", 3).ok());
  auto engine = KeyedWindowEngine::Create(options).ValueOrDie();
  DriveZipf(*engine, 80000, 4000, 13, options.memory_budget_bytes);
  EXPECT_TRUE(engine->status().ok()) << engine->status().ToString();
  EXPECT_EQ(engine->stats().io_giveups, 1u);
  // The outage degraded the engine, the re-probe noticed recovery, and
  // later spill traffic confirmed it.
  EXPECT_GT(engine->stats().degraded_drops, 0u);
  EXPECT_EQ(engine->health(), KeyedEngineHealth::kHealthy);
  EXPECT_GT(engine->stats().evictions, 0u);
}

TEST_F(FaultInjectionTest, EngineCreateSweepsCrashOrphanedTemps) {
  const std::string dir = FreshDir("fi_engine_sweep");
  std::ofstream(dir + "/key-0000000000000001.ckpt.tmp") << "orphan";
  KeyedEngineOptions options = ShedOptions(dir);
  auto engine = KeyedWindowEngine::Create(options).ValueOrDie();
  EXPECT_FALSE(fs::exists(dir + "/key-0000000000000001.ckpt.tmp"));
  EXPECT_EQ(engine->stats().spilled_keys, 0u);  // a temp is not a spill
}

// ---------------------------------------------------------------------------
// Checkpoint writer drills

struct CheckpointRig {
  Sink sink;
  std::vector<SinkSerializer> serializers;
  CheckpointManifest manifest;
};

CheckpointRig MakeRig() {
  CheckpointRig rig;
  const SinkSpec spec =
      ParseSinkSpec("bop-seq-single,n=32,seed=6").ValueOrDie();
  rig.sink = CreateSink(spec).ValueOrDie();
  for (uint64_t i = 0; i < 64; ++i) {
    rig.sink.sink->Observe(Item{i, i, static_cast<Timestamp>(i)});
  }
  rig.serializers = MakeSinkSerializers(spec, 1).ValueOrDie();
  rig.manifest.items = 64;
  rig.manifest.shard_items = {64};
  return rig;
}

TEST_F(FaultInjectionTest, CheckpointShardAndManifestFaultsAreRetried) {
  for (const char* site : {"ckpt.write", "ckpt.manifest"}) {
    const std::string dir = FreshDir(std::string("fi_ckpt_") + site);
    DisarmFailpoints();
    ASSERT_TRUE(
        ArmFailpoints(std::string(site) + "=enospc,nth=1", 1).ok());
    CheckpointRig rig = MakeRig();
    CheckpointPolicy policy;
    policy.dir = dir;
    policy.retry.backoff_ms = 0.0;
    CheckpointWriter writer(policy, rig.serializers);
    StreamSink* sink_ptr = rig.sink.sink.get();
    Status s = writer.Write(rig.manifest, {&sink_ptr, 1});
    EXPECT_TRUE(s.ok()) << site << ": " << s.ToString();
    EXPECT_EQ(writer.io_retries(), 1u) << site;
    EXPECT_EQ(writer.io_giveups(), 0u) << site;
    // The retried checkpoint is complete and loadable.
    DisarmFailpoints();
    auto loaded = LoadCheckpoint(dir);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value().position.items, 64u);
  }
}

TEST_F(FaultInjectionTest, CheckpointGivesUpWhenTheOutageIsPermanent) {
  const std::string dir = FreshDir("fi_ckpt_giveup");
  ASSERT_TRUE(ArmFailpoints("ckpt.write=eio", 1).ok());
  CheckpointRig rig = MakeRig();
  CheckpointPolicy policy;
  policy.dir = dir;
  policy.retry.backoff_ms = 0.0;
  CheckpointWriter writer(policy, rig.serializers);
  StreamSink* sink_ptr = rig.sink.sink.get();
  Status s = writer.Write(rig.manifest, {&sink_ptr, 1});
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.retryable());
  EXPECT_GE(writer.io_retries(), 2u);
  EXPECT_EQ(writer.io_giveups(), 1u);
  // The failed Write left no committed MANIFEST and no stray temps.
  EXPECT_FALSE(fs::exists(dir + "/MANIFEST"));
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    EXPECT_TRUE(name.size() < 4 ||
                name.compare(name.size() - 4, 4, ".tmp") != 0)
        << "leaked temp " << name;
  }
}

TEST_F(FaultInjectionTest, CheckpointGcSweepsCrashOrphanedTemps) {
  const std::string dir = FreshDir("fi_ckpt_sweep");
  CheckpointRig rig = MakeRig();
  CheckpointPolicy policy;
  policy.dir = dir;
  CheckpointWriter writer(policy, rig.serializers);
  StreamSink* sink_ptr = rig.sink.sink.get();
  // Orphans "left by a previous crash" — including a torn MANIFEST temp.
  std::ofstream(dir + "/shard-0000-1.ckpt.tmp") << "orphan";
  std::ofstream(dir + "/MANIFEST.tmp") << "orphan";
  ASSERT_TRUE(writer.Write(rig.manifest, {&sink_ptr, 1}).ok());
  EXPECT_FALSE(fs::exists(dir + "/shard-0000-1.ckpt.tmp"));
  EXPECT_FALSE(fs::exists(dir + "/MANIFEST.tmp"));
  EXPECT_TRUE(fs::exists(dir + "/MANIFEST"));
}

TEST_F(FaultInjectionTest, CheckpointLoadFaultsSurfaceAsStatusNotCrash) {
  const std::string dir = FreshDir("fi_ckpt_read");
  CheckpointRig rig = MakeRig();
  CheckpointPolicy policy;
  policy.dir = dir;
  CheckpointWriter writer(policy, rig.serializers);
  StreamSink* sink_ptr = rig.sink.sink.get();
  ASSERT_TRUE(writer.Write(rig.manifest, {&sink_ptr, 1}).ok());
  for (const char* klass : {"enospc", "eio", "rename"}) {
    ASSERT_TRUE(
        ArmFailpoints(std::string("ckpt.read=") + klass + ",nth=1", 1).ok());
    auto loaded = LoadCheckpoint(dir);
    EXPECT_FALSE(loaded.ok()) << klass;
    EXPECT_TRUE(loaded.status().retryable()) << klass;
  }
  DisarmFailpoints();
  EXPECT_TRUE(LoadCheckpoint(dir).ok());
}

// ---------------------------------------------------------------------------
// Pipelined checkpoint commits through both drivers

/// One driver under test: drives `path` into `shards` with an optional
/// writer and resume position.
struct CommitDrill {
  const char* name;
  uint64_t shards;
  std::function<Status(const std::string&, std::span<StreamSink* const>,
                       CheckpointWriter*, const CheckpointManifest*)>
      drive;
};

std::vector<CommitDrill> CommitDrills() {
  StreamDriver::Options single;
  single.batch_size = 128;
  ShardedStreamDriver::Options sharded;
  sharded.threads = 2;
  sharded.chunk_items = 128;
  sharded.partition = ShardPartition::kKeyHash;
  return {
      {"single DriveFile", 1,
       [single](const std::string& path, std::span<StreamSink* const> sinks,
                CheckpointWriter* writer, const CheckpointManifest* resume) {
         return StreamDriver(single)
             .DriveFile(path, true, *sinks[0], writer, resume)
             .status();
       }},
      {"2-thread keyhash DriveFileCheckpointed", 2,
       [sharded](const std::string& path, std::span<StreamSink* const> sinks,
                 CheckpointWriter* writer, const CheckpointManifest* resume) {
         return ShardedStreamDriver(sharded)
             .DriveFileCheckpointed(path, true, sinks, writer, resume)
             .status();
       }},
  };
}

/// "<ts> <value>" lines: Zipf values, four arrivals per tick.
std::string WriteEventFile(const std::string& dir, uint64_t lines) {
  const std::string path = dir + "/events.txt";
  std::ofstream out(path);
  for (const Item& item : ZipfItems(lines, 500, 12)) {
    out << item.index / 4 << ' ' << item.value << '\n';
  }
  return path;
}

/// Every shard's checkpoint envelope: equal blobs mean equal state.
std::vector<std::string> ShardBlobs(const SinkSpec& spec,
                                    const std::vector<Sink>& sinks) {
  std::vector<std::string> blobs;
  for (size_t s = 0; s < sinks.size(); ++s) {
    blobs.push_back(
        SaveSink(*sinks[s].sink, ShardSinkSpec(spec, s, sinks.size())
                                     .ValueOrDie())
            .ValueOrDie());
  }
  return blobs;
}

void ExpectNoTempFiles(const std::string& dir) {
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    EXPECT_TRUE(name.size() < 4 ||
                name.compare(name.size() - 4, 4, ".tmp") != 0)
        << "leaked temp " << name;
  }
}

TEST_F(FaultInjectionTest, FailedCommitFailsTheDriveAndResumeIsBitIdentical) {
  const SinkSpec spec =
      ParseSinkSpec("ams-fk@bop-ts-single,t=50,r=8,seed=9").ValueOrDie();
  for (const CommitDrill& drill : CommitDrills()) {
    SCOPED_TRACE(drill.name);
    DisarmFailpoints();
    const std::string dir = FreshDir("fi_commit_outage");
    const std::string ckpt = dir + "/ckpt";
    const std::string path = WriteEventFile(dir, 5000);
    auto reference = CreateShardedSinks(spec, drill.shards).ValueOrDie();
    ASSERT_TRUE(
        drill.drive(path, SinkPointers(reference), nullptr, nullptr).ok());

    // The storage fails for good once the first checkpoint has committed,
    // so the second checkpoint's commit gives up on the commit thread.
    uint64_t committed = 0;
    {
      auto sinks = CreateShardedSinks(spec, drill.shards).ValueOrDie();
      CheckpointPolicy policy;
      policy.dir = ckpt;
      policy.every_items = 1000;
      policy.retry.backoff_ms = 0.0;
      CheckpointWriter writer(
          policy, MakeSinkSerializers(spec, drill.shards).ValueOrDie());
      writer.set_after_write([&committed](uint64_t items) {
        if (committed == 0) {
          EXPECT_TRUE(
              ArmFailpoints("ckpt.write=eio;ckpt.manifest=eio", 1).ok());
        }
        committed = items;
      });
      const Status status =
          drill.drive(path, SinkPointers(sinks), &writer, nullptr);
      ASSERT_FALSE(status.ok());
      EXPECT_TRUE(status.retryable()) << status.ToString();
      EXPECT_EQ(writer.io_giveups(), 1u);
      EXPECT_EQ(writer.last_written_items(), committed);
    }
    DisarmFailpoints();
    ASSERT_GT(committed, 0u);
    ExpectNoTempFiles(ckpt);

    // The MANIFEST still names the checkpoint that committed; resuming
    // from it reproduces the uninterrupted run bit for bit.
    auto resumed = LoadCheckpoint(ckpt);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(resumed.value().position.items, committed);
    ASSERT_TRUE(drill
                    .drive(path, SinkPointers(resumed.value().sinks), nullptr,
                           &resumed.value().position)
                    .ok());
    EXPECT_EQ(ShardBlobs(spec, resumed.value().sinks),
              ShardBlobs(spec, reference));
  }
}

TEST_F(FaultInjectionTest, RetriedCommitLeavesTheDriveClean) {
  const SinkSpec spec =
      ParseSinkSpec("ams-fk@bop-ts-single,t=50,r=8,seed=9").ValueOrDie();
  for (const CommitDrill& drill : CommitDrills()) {
    SCOPED_TRACE(drill.name);
    DisarmFailpoints();
    const std::string dir = FreshDir("fi_commit_retry");
    const std::string path = WriteEventFile(dir, 5000);
    auto reference = CreateShardedSinks(spec, drill.shards).ValueOrDie();
    ASSERT_TRUE(
        drill.drive(path, SinkPointers(reference), nullptr, nullptr).ok());

    auto sinks = CreateShardedSinks(spec, drill.shards).ValueOrDie();
    CheckpointPolicy policy;
    policy.dir = dir + "/ckpt";
    policy.every_items = 1000;
    policy.retry.backoff_ms = 0.0;
    CheckpointWriter writer(
        policy, MakeSinkSerializers(spec, drill.shards).ValueOrDie());
    bool armed = false;
    writer.set_after_write([&armed](uint64_t) {
      if (!armed) {
        EXPECT_TRUE(ArmFailpoints("ckpt.write=eio,nth=1", 1).ok());
      }
      armed = true;
    });
    const Status status =
        drill.drive(path, SinkPointers(sinks), &writer, nullptr);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(writer.io_retries(), 1u);
    EXPECT_EQ(writer.io_giveups(), 0u);
    ExpectNoTempFiles(policy.dir);
    auto loaded = LoadCheckpoint(policy.dir);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value().position.items, writer.last_written_items());
    EXPECT_EQ(ShardBlobs(spec, sinks), ShardBlobs(spec, reference));
  }
}

// ---------------------------------------------------------------------------
// Trace files

TEST_F(FaultInjectionTest, FailedTraceWriteKeepsThePreviousTrace) {
  const std::string dir = FreshDir("fi_trace_write");
  const std::string path = dir + "/stream.trace";
  auto generator = WorkloadGenerator::Create("poisson@zipf", 5).ValueOrDie();
  const std::vector<Item> first = generator->Take(500);
  ASSERT_TRUE(WriteTrace(path, first).ok());
  ASSERT_TRUE(ArmFailpoints("trace.write=eio", 1).ok());
  EXPECT_FALSE(WriteTrace(path, generator->Take(700)).ok());
  DisarmFailpoints();
  EXPECT_EQ(ReadTrace(path).ValueOrDie(), first);
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST_F(FaultInjectionTest, TornTraceReadReportsTruncation) {
  const std::string dir = FreshDir("fi_trace_read");
  const std::string path = dir + "/stream.trace";
  // Values of several varint bytes keep the torn half above the payload
  // count guard, so the reader reaches the truncated item.
  ASSERT_TRUE(
      WriteTrace(path, WorkloadGenerator::Create("constant,domain=1000000", 6)
                           .ValueOrDie()
                           ->Take(1000))
          .ok());
  ASSERT_TRUE(ArmFailpoints("trace.read=torn", 1).ok());
  auto torn = ReadTrace(path);
  ASSERT_FALSE(torn.ok());
  EXPECT_NE(torn.status().message().find("truncated"), std::string::npos)
      << torn.status().ToString();
}

// ---------------------------------------------------------------------------
// Ingestion open seam

TEST_F(FaultInjectionTest, IngestOpenFaultsFailTheDriveWithoutCrashing) {
  const std::string dir = FreshDir("fi_ingest");
  const std::string path = dir + "/events.txt";
  std::ofstream(path) << "1\n2\n3\n";
  const SinkSpec spec =
      ParseSinkSpec("bop-seq-single,n=8,seed=1").ValueOrDie();
  for (const char* klass : {"enospc", "eio"}) {
    ASSERT_TRUE(
        ArmFailpoints(std::string("ingest.open=") + klass + ",nth=1", 1)
            .ok());
    Sink sink = CreateSink(spec).ValueOrDie();
    StreamDriver driver{StreamDriver::Options{}};
    auto result = driver.DriveFile(path, false, *sink.sink);
    EXPECT_FALSE(result.ok()) << klass;
    EXPECT_TRUE(result.status().retryable()) << klass;
  }
  DisarmFailpoints();
  Sink sink = CreateSink(spec).ValueOrDie();
  StreamDriver driver{StreamDriver::Options{}};
  EXPECT_TRUE(driver.DriveFile(path, false, *sink.sink).ok());
}

}  // namespace
}  // namespace swsample
