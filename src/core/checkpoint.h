// Copyright (c) swsample authors. Licensed under the MIT license.

/// \file
/// The checkpoint envelope: every persisted object — sampler, estimator,
/// shard snapshot, or driver manifest — is wrapped in one self-describing
/// versioned header so a blob can be restored in a DIFFERENT process with
/// no out-of-band knowledge:
///
///   u64  magic            "SWSCKPT\0" (little-endian)
///   u64  format version   currently 1
///   u64  kind             CheckpointKind below
///   ...  kind-specific body (registry name + spec fields + state payload
///        for sinks; fields for snapshots and manifests)
///
/// This header owns the envelope header and the snapshot codec. Sink
/// bodies — sampler and estimator alike — are written and read by the one
/// sink codec in apps/sink_spec.h (SaveSink / RestoreSink), which keeps
/// one field list per kind and reconstructs the exact object by
/// constructing the named sink from the decoded SinkSpec and refilling it
/// with StreamSink::LoadState. The paper's O(k log n)-word state bound
/// (Theorems 2.1–4.4) is what keeps sink payloads small.
///
/// Versioning policy: the format version is bumped on any incompatible
/// layout change; readers reject unknown versions rather than guessing.
/// Unknown registry names, invalid configs, truncation, and trailing
/// bytes all surface as InvalidArgument — never a crash, which the fuzz
/// tests enforce on every envelope.
///
/// Ownership: restore functions return caller-owned objects; blobs are
/// plain std::string values.
///
/// Thread-safety: free functions; sinks being saved follow the usual
/// one-thread-per-instance rule.

#ifndef SWSAMPLE_CORE_CHECKPOINT_H_
#define SWSAMPLE_CORE_CHECKPOINT_H_

#include <string>
#include <string_view>

#include "core/api.h"
#include "util/serial.h"
#include "util/status.h"

namespace swsample {

/// Envelope magic ("SWSCKPT\0") and the current format version.
inline constexpr uint64_t kCheckpointMagic = 0x0054504B43535753ULL;
inline constexpr uint64_t kCheckpointVersion = 1;

/// What a checkpoint blob contains.
enum class CheckpointKind : uint64_t {
  kSampler = 1,    ///< registry name + sampler spec fields + SaveState
  kEstimator = 2,  ///< registry name + estimator spec fields + SaveState
  kSnapshot = 3,   ///< one SamplerSnapshot (cross-process shard merging)
  kManifest = 4,   ///< driver ingestion position (stream/checkpoint.h)
};

/// Caps on configuration counts restored from untrusted blobs: a corrupt
/// k/r would otherwise allocate that many sampler units before any
/// payload validation runs. Generous for any real deployment.
inline constexpr uint64_t kMaxCheckpointUnits = uint64_t{1} << 20;

/// Writes the three-field envelope header.
void WriteCheckpointHeader(CheckpointKind kind, BinaryWriter* w);

/// Reads and validates magic + version, returning the kind; false on
/// truncation, wrong magic, unsupported version, or unknown kind.
bool ReadCheckpointHeader(BinaryReader* r, CheckpointKind* kind);

/// The kind of a checkpoint blob without consuming it.
Result<CheckpointKind> PeekCheckpointKind(std::string_view blob);

/// Serializes one SamplerSnapshot so shard snapshots can be shipped
/// across processes and merged remotely (SamplerSnapshot::MergeFrom).
std::string SaveSnapshot(const SamplerSnapshot& snapshot);

/// Restores a SaveSnapshot blob, validating the sample-size/occupancy
/// invariants MergeFrom relies on.
Result<SamplerSnapshot> RestoreSnapshot(std::string_view blob);

}  // namespace swsample

#endif  // SWSAMPLE_CORE_CHECKPOINT_H_
