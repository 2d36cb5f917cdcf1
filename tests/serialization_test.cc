// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Serialization-primitive and envelope tests. The contract is strong: a
// restored sink must resume the EXACT behaviour of the original -- same
// samples, same memory, same RNG stream -- so checkpointing is invisible
// to downstream consumers. Corrupt blobs (truncation, bad magic, trailing
// bytes, invalid fields) must be rejected with InvalidArgument, never a
// crash. The full registry-matrix resume sweep lives in
// tests/checkpoint_test.cc; this file covers the wire primitives and the
// paper samplers' envelopes in depth.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/registry.h"
#include "core/ts_single.h"
#include "reservoir/reservoir.h"
#include "stream/workload.h"
#include "util/serial.h"

namespace swsample {
namespace {

TEST(SerialTest, WriterReaderRoundTrip) {
  BinaryWriter w;
  w.PutU64(0xdeadbeefcafef00dULL);
  w.PutI64(-42);
  w.PutBool(true);
  w.PutBool(false);
  w.PutDouble(3.25);
  w.PutString("swsample");
  w.PutBytes(std::string_view("\x00\x01\x02", 3));
  std::string blob = w.Release();
  BinaryReader r(blob);
  uint64_t u;
  int64_t i;
  bool b1, b2;
  double d;
  std::string s, bytes;
  ASSERT_TRUE(r.GetU64(&u));
  ASSERT_TRUE(r.GetI64(&i));
  ASSERT_TRUE(r.GetBool(&b1));
  ASSERT_TRUE(r.GetBool(&b2));
  ASSERT_TRUE(r.GetDouble(&d));
  ASSERT_TRUE(r.GetString(&s));
  ASSERT_TRUE(r.GetBytes(&bytes));
  EXPECT_EQ(u, 0xdeadbeefcafef00dULL);
  EXPECT_EQ(i, -42);
  EXPECT_TRUE(b1);
  EXPECT_FALSE(b2);
  EXPECT_EQ(d, 3.25);
  EXPECT_EQ(s, "swsample");
  EXPECT_EQ(bytes, std::string("\x00\x01\x02", 3));
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerialTest, DoubleRoundTripIsBitExact) {
  const double values[] = {0.0, -0.0, 1.0 / 3.0, 1e-308, -1e308,
                           0.1234567890123456789};
  for (double v : values) {
    BinaryWriter w;
    w.PutDouble(v);
    std::string blob = w.Release();
    BinaryReader r(blob);
    double out;
    ASSERT_TRUE(r.GetDouble(&out));
    EXPECT_EQ(std::bit_cast<uint64_t>(v), std::bit_cast<uint64_t>(out));
  }
}

TEST(SerialTest, ReaderDetectsTruncation) {
  BinaryWriter w;
  w.PutU64(7);
  std::string blob = w.Release();
  blob.resize(5);
  BinaryReader r(blob);
  uint64_t u;
  EXPECT_FALSE(r.GetU64(&u));
}

TEST(SerialTest, LengthPrefixIsDoubleGuarded) {
  // A length prefix larger than the remaining input must fail without
  // allocating, as must one exceeding the explicit cap.
  BinaryWriter w;
  w.PutU64(uint64_t{1} << 60);  // preposterous length prefix
  std::string blob = w.Release();
  {
    BinaryReader r(blob);
    std::string out;
    EXPECT_FALSE(r.GetBytes(&out));
  }
  BinaryWriter w2;
  w2.PutString("0123456789");
  std::string blob2 = w2.Release();
  {
    BinaryReader r(blob2);
    std::string out;
    EXPECT_FALSE(r.GetString(&out, /*max_len=*/4));
  }
  {
    BinaryReader r(blob2);
    std::string out;
    EXPECT_TRUE(r.GetString(&out, /*max_len=*/10));
    EXPECT_EQ(out, "0123456789");
  }
}

TEST(SerialTest, ReaderViewsSubranges) {
  BinaryWriter w;
  w.PutU64(1);
  w.PutU64(2);
  std::string blob = w.Release();
  BinaryReader r(std::string_view(blob).substr(8));
  uint64_t v;
  ASSERT_TRUE(r.GetU64(&v));
  EXPECT_EQ(v, 2u);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(SerialTest, RngStateResumesExactStream) {
  Rng a(12345);
  for (int i = 0; i < 100; ++i) a.NextU64();
  Rng b = Rng::FromState(a.SaveState());
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(SerialTest, KReservoirRoundTrip) {
  KReservoir original(5);
  Rng rng(1);
  for (uint64_t i = 0; i < 100; ++i) {
    original.Observe(Item{i, i, static_cast<Timestamp>(i)}, rng);
  }
  BinaryWriter w;
  original.Save(&w);
  std::string blob = w.Release();
  KReservoir restored(1);
  BinaryReader r(blob);
  ASSERT_TRUE(restored.Load(&r));
  EXPECT_EQ(restored.k(), 5u);
  EXPECT_EQ(restored.count(), 100u);
  EXPECT_EQ(restored.items(), original.items());
}

// Generic driver: run `steps` arrivals, checkpoint through the envelope,
// keep running both the original and the restored sampler in lockstep and
// require IDENTICAL sample sequences (they share RNG state, so equality
// is exact).
void CheckResumedEquivalence(const std::string& name,
                             const SamplerConfig& config,
                             bool timestamped) {
  auto original = CreateSampler(name, config).ValueOrDie();
  auto stream =
      WorkloadGenerator::Create("poisson,lambda=2.5,domain=65536", 99)
          .ValueOrDie();
  // Warm-up phase.
  for (Timestamp t = 0; t < 200; ++t) {
    for (const Item& item : stream->Step()) original->Observe(item);
    if (timestamped) original->AdvanceTime(t);
  }
  std::string blob = SaveSampler(*original, config).ValueOrDie();
  auto restored = RestoreSampler(blob).ValueOrDie();
  EXPECT_STREQ(restored->name(), original->name());

  // Lockstep phase: identical inputs, identical outputs.
  for (Timestamp t = 200; t < 500; ++t) {
    for (const Item& item : stream->Step()) {
      original->Observe(item);
      restored->Observe(item);
    }
    if (timestamped) {
      original->AdvanceTime(t);
      restored->AdvanceTime(t);
    }
    auto a = original->Sample();
    auto b = restored->Sample();
    ASSERT_EQ(a.size(), b.size()) << "t=" << t;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]) << "t=" << t << " slot=" << i;
    }
    EXPECT_EQ(original->MemoryWords(), restored->MemoryWords());
  }
}

TEST(SerialTest, SeqSwrResumesExactly) {
  SamplerConfig config;
  config.window_n = 64;
  config.k = 4;
  config.seed = 7;
  CheckResumedEquivalence("bop-seq-swr", config, /*timestamped=*/false);
}

TEST(SerialTest, SeqSworResumesExactly) {
  SamplerConfig config;
  config.window_n = 64;
  config.k = 8;
  config.seed = 8;
  CheckResumedEquivalence("bop-seq-swor", config, /*timestamped=*/false);
}

TEST(SerialTest, TsSwrResumesExactly) {
  SamplerConfig config;
  config.window_t = 25;
  config.k = 3;
  config.seed = 9;
  CheckResumedEquivalence("bop-ts-swr", config, /*timestamped=*/true);
}

TEST(SerialTest, TsSworResumesExactly) {
  SamplerConfig config;
  config.window_t = 25;
  config.k = 5;
  config.seed = 10;
  CheckResumedEquivalence("bop-ts-swor", config, /*timestamped=*/true);
}

TEST(SerialTest, TsSingleRoundTripPreservesInvariants) {
  auto original = TsSingleSampler::Create(17, 11).ValueOrDie();
  auto stream =
      WorkloadGenerator::Create("poisson,lambda=3,domain=1024", 12)
          .ValueOrDie();
  for (Timestamp t = 0; t < 300; ++t) {
    for (const Item& item : stream->Step()) original.Observe(item);
  }
  BinaryWriter w;
  original.SaveState(&w);
  std::string blob = w.Release();
  // LoadState refills a sampler constructed with the SAME configuration
  // (the envelope normally carries it).
  auto restored = TsSingleSampler::Create(17, 0).ValueOrDie();
  BinaryReader r(blob);
  ASSERT_TRUE(restored.LoadState(&r));
  ASSERT_TRUE(r.AtEnd());
  EXPECT_TRUE(restored.CheckInvariants());
  EXPECT_EQ(restored.t0(), 17);
  EXPECT_EQ(restored.now(), original.now());
  EXPECT_EQ(restored.MemoryWords(), original.MemoryWords());
  EXPECT_EQ(restored.StructureCount(), original.StructureCount());
}

TEST(SerialTest, RejectsBadMagicAndForeignKinds) {
  SamplerConfig config;
  config.window_n = 8;
  config.k = 2;
  config.seed = 1;
  auto s = CreateSampler("bop-seq-swr", config).ValueOrDie();
  std::string blob = SaveSampler(*s, config).ValueOrDie();
  std::string bad = blob;
  bad[0] ^= 0xff;
  EXPECT_FALSE(RestoreSampler(bad).ok());
  // A snapshot envelope must not restore as a sampler and vice versa.
  SamplerSnapshot snapshot;
  std::string snap_blob = SaveSnapshot(snapshot);
  EXPECT_FALSE(RestoreSampler(snap_blob).ok());
  EXPECT_FALSE(RestoreSnapshot(blob).ok());
  EXPECT_EQ(PeekCheckpointKind(blob).ValueOrDie(), CheckpointKind::kSampler);
  EXPECT_EQ(PeekCheckpointKind(snap_blob).ValueOrDie(),
            CheckpointKind::kSnapshot);
}

TEST(SerialTest, RejectsUnsupportedVersion) {
  SamplerConfig config;
  config.window_n = 8;
  config.k = 1;
  auto s = CreateSampler("bop-seq-single", config).ValueOrDie();
  std::string blob = SaveSampler(*s, config).ValueOrDie();
  blob[8] = 99;  // format-version field (bytes 8..15, little-endian)
  EXPECT_FALSE(RestoreSampler(blob).ok());
}

TEST(SerialTest, RejectsTruncationEverywhere) {
  SamplerConfig config;
  config.window_t = 20;
  config.k = 4;
  config.seed = 2;
  auto s = CreateSampler("bop-ts-swor", config).ValueOrDie();
  for (Timestamp t = 0; t < 100; ++t) {
    s->Observe(Item{static_cast<uint64_t>(t), static_cast<uint64_t>(t), t});
  }
  std::string blob = SaveSampler(*s, config).ValueOrDie();
  ASSERT_TRUE(RestoreSampler(blob).ok());
  // Every strict prefix must be rejected (never crash).
  for (size_t cut = 0; cut < blob.size(); cut += 7) {
    EXPECT_FALSE(RestoreSampler(blob.substr(0, cut)).ok()) << "cut=" << cut;
  }
}

TEST(SerialTest, RejectsTrailingGarbage) {
  SamplerConfig config;
  config.window_n = 16;
  config.k = 4;
  config.seed = 3;
  auto s = CreateSampler("bop-seq-swor", config).ValueOrDie();
  for (uint64_t i = 0; i < 40; ++i) {
    s->Observe(Item{i, i, static_cast<Timestamp>(i)});
  }
  std::string blob = SaveSampler(*s, config).ValueOrDie();
  blob += "extra";
  EXPECT_FALSE(RestoreSampler(blob).ok());
}

TEST(SerialTest, SaveRejectsUnregisteredOrForeignConfig) {
  SamplerConfig config;
  config.window_n = 8;
  config.k = 2;
  auto s = CreateSampler("bop-seq-swr", config).ValueOrDie();
  // Envelope config is trusted input to CreateSampler on restore: an
  // invalid one must fail the restore, not crash it.
  SamplerConfig broken = config;
  broken.window_n = 0;
  std::string blob = SaveSampler(*s, broken).ValueOrDie();
  EXPECT_FALSE(RestoreSampler(blob).ok());
}

TEST(SerialTest, RestoredSamplerStaysUniform) {
  // Distributional check: checkpoint/restore mid-stream must not disturb
  // uniformity of the final sample.
  const uint64_t n = 8;
  const int trials = 30000;
  std::vector<uint64_t> counts(n, 0);
  for (int t = 0; t < trials; ++t) {
    SamplerConfig config;
    config.window_n = n;
    config.k = 1;
    config.seed = 5000 + static_cast<uint64_t>(t);
    auto current = CreateSampler("bop-seq-swr", config).ValueOrDie();
    for (uint64_t i = 0; i < 21; ++i) {
      current->Observe(Item{i, i, static_cast<Timestamp>(i)});
      if (i == 9) {  // checkpoint mid-bucket
        std::string blob = SaveSampler(*current, config).ValueOrDie();
        current = RestoreSampler(blob).ValueOrDie();
      }
    }
    auto sample = current->Sample();
    ASSERT_EQ(sample.size(), 1u);
    ++counts[sample[0].index - (21 - n)];
  }
  uint64_t min_c = counts[0], max_c = counts[0];
  for (uint64_t c : counts) {
    min_c = std::min(min_c, c);
    max_c = std::max(max_c, c);
  }
  // Coarse uniformity band (chi-square done elsewhere; this guards gross
  // distortion from the checkpoint path).
  EXPECT_GT(min_c, trials / n * 0.9);
  EXPECT_LT(max_c, trials / n * 1.1);
}

TEST(SerialTest, SnapshotRoundTripsAndMergesAcrossProcesses) {
  // Two shards snapshot, the blobs travel, and the restored snapshots
  // merge exactly as the in-process originals would.
  SamplerConfig config;
  config.window_n = 32;
  config.k = 4;
  config.seed = 21;
  auto a = CreateSampler("bop-seq-swor", config).ValueOrDie();
  config.seed = 22;
  auto b = CreateSampler("bop-seq-swor", config).ValueOrDie();
  for (uint64_t i = 0; i < 100; ++i) {
    a->Observe(Item{i, i, static_cast<Timestamp>(i)});
    b->Observe(Item{1000 + i, i, static_cast<Timestamp>(i)});
  }
  auto snap_a = std::move(a->Snapshot()).ValueOrDie();
  auto snap_b = std::move(b->Snapshot()).ValueOrDie();
  std::string blob_a = SaveSnapshot(snap_a);
  std::string blob_b = SaveSnapshot(snap_b);
  auto restored_a = RestoreSnapshot(blob_a).ValueOrDie();
  auto restored_b = RestoreSnapshot(blob_b).ValueOrDie();
  EXPECT_EQ(restored_a.active, snap_a.active);
  EXPECT_EQ(restored_a.k, snap_a.k);
  EXPECT_EQ(restored_a.without_replacement, snap_a.without_replacement);
  EXPECT_EQ(restored_a.sample, snap_a.sample);
  Rng rng(77);
  ASSERT_TRUE(restored_a.MergeFrom(restored_b, rng).ok());
  EXPECT_EQ(restored_a.active, snap_a.active + snap_b.active);
  EXPECT_EQ(restored_a.sample.size(), config.k);
  // Corrupting the occupancy/sample consistency must be rejected.
  std::string bad = blob_b;
  bad.resize(bad.size() - 24);  // drop one item
  EXPECT_FALSE(RestoreSnapshot(bad).ok());
}

}  // namespace
}  // namespace swsample
