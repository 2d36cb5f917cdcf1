// Copyright (c) swsample authors. Licensed under the MIT license.
//
// The sink envelope codec (SaveSink / RestoreSink, apps/sink_spec.h):
//   (1) golden bytes pin the wire format of both kinds — magic, version,
//       kind tag and field order — and restore from the pinned bytes;
//   (2) every load cap holds at its limit and rejects one past it,
//       without crashing or allocating for the corrupt count;
//   (3) a biased-mean@oversample-swor blob written when the levels ignored
//       the spec's oversample factor is rejected, not restored into
//       levels of the wrong shape.

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/sink_spec.h"
#include "core/checkpoint.h"
#include "util/serial.h"

namespace swsample {
namespace {

/// A constructed sink after `items` arrivals of a fixed stream.
Sink Warmed(const SinkSpec& spec, uint64_t items) {
  Sink sink = CreateSink(spec).ValueOrDie();
  for (uint64_t i = 0; i < items; ++i) {
    sink.sink->Observe(Item{(i * 37) % 11, i, static_cast<Timestamp>(i)});
  }
  return sink;
}

std::string SavedAfter(const std::string& text, uint64_t items) {
  const SinkSpec spec = ParseSinkSpec(text).ValueOrDie();
  return SaveSink(*Warmed(spec, items).sink, spec).ValueOrDie();
}

std::string FromHex(const std::string& hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

// SaveSink output of each spec after 20 arrivals, as the format stood
// when these bytes were captured.
constexpr char kSamplerGolden[] =
    "535753434b505400010000000000000001000000000000000b00000000000000626f"
    "702d7365712d73777208000000000000000000000000000000020000000000000007"
    "000000000000000300000000000000011400000000000000fe89a4f91518a665c417"
    "64d0f35643ec861e4ee8d2b364a3d1049359cd4fb3b0040000000000000001060000"
    "0000000000120000000000000012000000000000000105000000000000000f000000"
    "000000000f0000000000000004000000000000000106000000000000001200000000"
    "00000012000000000000000101000000000000000e000000000000000e0000000000"
    "0000";

constexpr char kEstimatorGolden[] =
    "535753434b505400010000000000000002000000000000000600000000000000616d"
    "732d666b0e00000000000000626f702d7365712d73696e676c650800000000000000"
    "00000000000000000200000000000000070000000000000002000000000000000000"
    "0000000000009a9999999999a93f000000000000e03f030000000000000000000000"
    "0000000055808844f28e644f92bb1166ef52d2222f7b46e555c42cc924b3c228cc75"
    "6d6f14000000000000000400000000000000010a0000000000000013000000000000"
    "0013000000000000000a000000000000000100000000000000010400000000000000"
    "0c000000000000000c00000000000000040000000000000001000000000000001400"
    "00000000000004000000000000000106000000000000001200000000000000120000"
    "0000000000060000000000000001000000000000000104000000000000000c000000"
    "000000000c0000000000000004000000000000000100000000000000";

TEST(SinkEnvelopeGoldenTest, SamplerBytesArePinned) {
  const std::string golden = FromHex(kSamplerGolden);
  EXPECT_EQ(SavedAfter("bop-seq-swr,n=8,k=2,seed=7", 20), golden);
  RestoredSink restored = RestoreSink(golden).ValueOrDie();
  EXPECT_EQ(FormatSinkSpec(restored.spec), "bop-seq-swr,n=8,k=2,seed=7");
  ASSERT_NE(restored.sink.sampler, nullptr);
  EXPECT_EQ(SaveSink(*restored.sink.sink, restored.spec).ValueOrDie(),
            golden);
}

TEST(SinkEnvelopeGoldenTest, EstimatorBytesArePinned) {
  const std::string golden = FromHex(kEstimatorGolden);
  EXPECT_EQ(SavedAfter("ams-fk@bop-seq-single,n=8,r=2,seed=7", 20), golden);
  RestoredSink restored = RestoreSink(golden).ValueOrDie();
  EXPECT_EQ(FormatSinkSpec(restored.spec),
            "ams-fk@bop-seq-single,n=8,r=2,seed=7");
  ASSERT_NE(restored.sink.estimator, nullptr);
  EXPECT_EQ(SaveSink(*restored.sink.sink, restored.spec).ValueOrDie(),
            golden);
}

// --- Load caps --------------------------------------------------------

/// Wire slot of each field after the name (and, for estimators, the
/// substrate string); every slot but the sampler's trailing wr is a u64.
enum SamplerSlot { kSamplerK = 2, kSamplerOversample = 4 };
enum EstimatorSlot {
  kEstimatorR = 2,
  kEstimatorMoment = 4,
  kEstimatorVertices = 5,
  kEstimatorEps = 6,
  kEstimatorQ = 7,
  kEstimatorOversample = 8,
};

/// `blob` with the u64 in field slot `slot` replaced by `value`.
std::string WithField(const std::string& blob, size_t slot, uint64_t value) {
  BinaryReader r(blob);
  CheckpointKind kind;
  std::string name, substrate;
  EXPECT_TRUE(ReadCheckpointHeader(&r, &kind) && r.GetString(&name));
  if (kind == CheckpointKind::kEstimator) {
    EXPECT_TRUE(r.GetString(&substrate));
  }
  const size_t offset = blob.size() - r.remaining() + 8 * slot;
  std::string out = blob;
  EXPECT_LE(offset + 8, out.size());
  for (int byte = 0; byte < 8; ++byte) {
    out[offset + byte] = static_cast<char>((value >> (8 * byte)) & 0xff);
  }
  return out;
}

std::string WithDouble(const std::string& blob, size_t slot, double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return WithField(blob, slot, bits);
}

/// Expects `blob` to restore and re-save to the same bytes.
void ExpectAccepted(const std::string& blob) {
  auto restored = RestoreSink(blob);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(SaveSink(*restored.value().sink.sink, restored.value().spec)
                .ValueOrDie(),
            blob);
}

void ExpectRejected(const std::string& blob) {
  auto restored = RestoreSink(blob);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
}

constexpr uint64_t kCap = kMaxCheckpointUnits;

TEST(SinkEnvelopeCapTest, SamplerCountK) {
  // exact-seq draws k only at query time, so a huge k restores cheaply;
  // oversample=1 keeps the k × oversample product at k.
  const std::string blob = SavedAfter("exact-seq,n=8,k=2,oversample=1", 20);
  ExpectAccepted(WithField(blob, kSamplerK, kCap));
  ExpectRejected(WithField(blob, kSamplerK, kCap + 1));
}

TEST(SinkEnvelopeCapTest, EstimatorCountR) {
  // window-count keeps no per-unit state, so r only meets the cap.
  const std::string blob = SavedAfter("window-count@bop-seq-swr,n=8", 20);
  ExpectAccepted(WithField(blob, kEstimatorR, kCap));
  ExpectRejected(WithField(blob, kEstimatorR, kCap + 1));
}

TEST(SinkEnvelopeCapTest, OversampleFactor) {
  const std::string sampler = SavedAfter("bop-seq-swr,n=8", 20);
  ExpectAccepted(WithField(sampler, kSamplerOversample, kCap));
  ExpectRejected(WithField(sampler, kSamplerOversample, kCap + 1));
  const std::string estimator = SavedAfter("ams-fk,n=8,r=2", 20);
  ExpectAccepted(WithField(estimator, kEstimatorOversample, kCap));
  ExpectRejected(WithField(estimator, kEstimatorOversample, kCap + 1));
}

TEST(SinkEnvelopeCapTest, SamplerUnitProduct) {
  // k = 2 and oversample = cap/2 + 1 are each under the cap; their
  // product, the chain units oversample-swor would allocate, is not.
  const std::string blob = SavedAfter("exact-seq,n=8,k=2", 20);
  ExpectAccepted(WithField(blob, kSamplerOversample, kCap / 2));
  ExpectRejected(WithField(blob, kSamplerOversample, kCap / 2 + 1));
}

TEST(SinkEnvelopeCapTest, SubstrateUnitProduct) {
  // An oversample-swor substrate draws r samples, so r × oversample is
  // capped the same way.
  const std::string blob =
      SavedAfter("window-count@oversample-swor,n=8,r=2", 20);
  ExpectAccepted(WithField(blob, kEstimatorOversample, kCap / 2));
  ExpectRejected(WithField(blob, kEstimatorOversample, kCap / 2 + 1));
}

TEST(SinkEnvelopeCapTest, ThirtyTwoBitFields) {
  const uint64_t max32 = std::numeric_limits<uint32_t>::max();
  const std::string fk = SavedAfter("ams-fk,n=8,r=2", 20);
  ExpectAccepted(WithField(fk, kEstimatorMoment, max32));
  ExpectRejected(WithField(fk, kEstimatorMoment, max32 + 1));
  const std::string triangles =
      SavedAfter("buriol-triangles,n=8,r=2,vertices=5", 0);
  ExpectAccepted(WithField(triangles, kEstimatorVertices, max32));
  ExpectRejected(WithField(triangles, kEstimatorVertices, max32 + 1));
}

TEST(SinkEnvelopeCapTest, BiasLevelCount) {
  auto staircase = [](uint64_t levels) {
    SinkSpec spec;
    spec.name = "biased-mean";
    spec.window_n = levels;
    spec.r = 1;
    for (uint64_t window = 1; window <= levels; ++window) {
      spec.bias_levels.push_back(BiasLevel{window, 1.0});
    }
    return SaveSink(*Warmed(spec, 4).sink, spec).ValueOrDie();
  };
  ExpectAccepted(staircase(1024));
  ExpectRejected(staircase(1025));
}

TEST(SinkEnvelopeCapTest, NonFiniteEpsAndQ) {
  const std::string blob = SavedAfter("dkw-quantile,n=8,r=2", 20);
  ExpectAccepted(blob);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  ExpectRejected(WithDouble(blob, kEstimatorEps, nan));
  ExpectRejected(WithDouble(blob, kEstimatorQ, nan));
  ExpectRejected(WithDouble(blob, kEstimatorQ, inf));
}

// --- biased-mean over oversample-swor ---------------------------------

TEST(SinkEnvelopeTest, OversampleLevelsFromBeforeTheFixAreRejected) {
  // Earlier builds constructed each level with the default factor 3 but
  // stored the spec's factor in the envelope. Such a blob is exactly an
  // oversample=3 blob with its oversample slot rewritten; its level
  // payloads hold 3 * r chains, so restoring the spec's factor must fail
  // cleanly instead of resuming levels of the wrong shape.
  const std::string current =
      SavedAfter("biased-mean@oversample-swor,n=64,r=2,seed=3", 200);
  ExpectAccepted(current);
  ExpectRejected(WithField(current, kEstimatorOversample, 9));
  ExpectRejected(WithField(current, kEstimatorOversample, 2));
}

TEST(SinkEnvelopeTest, KindTagMustMatchTheName) {
  std::string blob = SavedAfter("bop-seq-swr,n=8,k=2", 20);
  blob[16] = static_cast<char>(CheckpointKind::kEstimator);
  ExpectRejected(blob);
}

}  // namespace
}  // namespace swsample
