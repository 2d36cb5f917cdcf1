// Copyright (c) swsample authors. Licensed under the MIT license.

/// \file
/// Driver-level checkpointing: periodic, atomic persistence of an entire
/// ingestion run — every shard sink plus the producer's position — so a
/// killed process resumes bit-identically from its last checkpoint.
///
/// On-disk layout (one directory per run):
///
///   <dir>/MANIFEST             ingestion position + shard file names
///   <dir>/shard-NNNN-I.ckpt    sink envelope of shard NNNN at item count I
///
/// Every file is written to a temporary name and atomically renamed; the
/// MANIFEST rename is the commit point, and it references the shard files
/// by exact name, so a crash mid-write always leaves the previous
/// complete checkpoint readable. Shard files are self-describing sampler
/// or estimator envelopes (core/checkpoint.h), so a checkpoint taken in
/// one process restores in another with no shared state.
///
/// Checkpoint positions are chosen by the drivers at batch-consistent
/// points (StreamDriver: batch boundaries; ShardedStreamDriver: any item,
/// with un-flushed router buffers persisted in the manifest), which is
/// what makes a resumed run's delivery segmentation — and therefore its
/// RNG consumption — identical to an uninterrupted run's.
///
/// A checkpoint is taken in two steps. *Capture* runs on the caller's
/// thread at the consistent point: it serializes every sink and encodes
/// the MANIFEST, after which the caller may go on mutating the sinks.
/// *Commit* runs on the writer's one commit thread: shard files, fsyncs,
/// the MANIFEST rename and the stale-file sweep, off the ingestion
/// critical path (the asynchronous-snapshot scheme of Carbone et al.,
/// "Lightweight Asynchronous Snapshots for Distributed Dataflows", 2015).
/// At most one commit is in flight, and each capture first joins the
/// previous commit, so MANIFESTs still commit in order.
///
/// Ownership: CheckpointWriter borrows sinks only for the duration of a
/// Begin/Write call; LoadCheckpoint returns caller-owned restored Sinks.
///
/// Thread-safety: a CheckpointWriter is driven from one producer thread
/// and owns one internal commit thread, which touches no sink. The
/// sharded driver quiesces its workers before capturing shards. Write()
/// is synchronous (Begin then Wait); the drivers use Begin and join the
/// commit with Wait before they return, on every exit path.

#ifndef SWSAMPLE_STREAM_CHECKPOINT_H_
#define SWSAMPLE_STREAM_CHECKPOINT_H_

#include <functional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "apps/sink_spec.h"
#include "core/api.h"
#include "stream/item.h"
#include "util/file_ops.h"
#include "util/status.h"

namespace swsample {

/// When to checkpoint. `dir` empty disables checkpointing entirely;
/// otherwise a checkpoint is written at the next consistent point once
/// `every_items` items have arrived since the last write. 0 means "never
/// due" (useful for a writer that only serves an explicit final Write).
struct CheckpointPolicy {
  std::string dir;
  uint64_t every_items = 0;
  /// Transient I/O faults (ENOSPC, EIO, injected failpoints) on shard
  /// files and the MANIFEST commit are retried under this policy before
  /// the Write reports failure.
  RetryPolicy retry;
};

/// Builds the self-describing envelope blob for one sink. Bound to the
/// (registry name, config) the harness constructed the sink from.
using SinkSerializer = std::function<Result<std::string>(StreamSink&)>;

/// The producer-side ingestion position a checkpoint captures beyond the
/// shard envelopes; written as the MANIFEST (CheckpointKind::kManifest).
struct CheckpointManifest {
  /// Events delivered to the run so far (the resume skip count).
  uint64_t items = 0;
  /// Last parsed timestamp (validates resume input; final clock sync).
  Timestamp last_ts = 0;
  /// Sharded-router state: whether any chunk shipped, and the next shard
  /// in the round-robin rotation (kChunks).
  bool saw_items = false;
  uint32_t next_chunk_shard = 0;
  /// Sharded options stamped for resume validation (0 for single-sink
  /// runs): chunk size and partition mode (ShardPartition as integer).
  uint64_t chunk_items = 0;
  uint64_t partition = 0;
  /// Per-shard delivered item counts (the shard-local re-index cursors);
  /// size 1 for single-sink runs.
  std::vector<uint64_t> shard_items;
  /// Un-flushed router buffers (sharded runs): items routed but not yet
  /// shipped as chunks, per routing target. Persisting them keeps chunk
  /// segmentation identical to an uninterrupted run.
  std::vector<std::vector<Item>> pending;
};

/// Serializers for spec-constructed shard sinks (samplers AND
/// estimators): entry `s` binds the same derived spec CreateShardedSinks
/// gives shard `s` (ShardSinkSpec: window split + forked seed).
/// `shards` == 1 describes a single-sink run built by CreateSink(spec).
Result<std::vector<SinkSerializer>> MakeSinkSerializers(const SinkSpec& spec,
                                                        uint64_t shards);

/// One file of a batched spill pass: a file name (relative to the batch
/// directory, no '/') plus its full contents.
struct SpillFile {
  std::string name;
  std::string data;
};

/// Writes `files` into `dir` in order, each via the same tmp + rename
/// protocol the checkpoint writer uses, then persists the directory
/// entries with ONE fsync for the whole group — the amortization that
/// makes batched keyed eviction cheap (N files, N+1 fsyncs instead of
/// 2N). `fsync_files` false skips every fsync (callers that opted out of
/// spill durability, e.g. benchmarks); the directory sync is likewise
/// elided then.
///
/// Writes stop at the first failure: on return, files [0,
/// *files_written) are durably renamed and the rest were not attempted,
/// so a caller can commit exactly the written prefix (the keyed engine
/// drops only those entries). `files_written` may be null.
///
/// Each file write goes through the FileOps seam at failpoint `site` and
/// is retried per `retry` while the failure is transient; `io_retries`
/// (nullable) accumulates the retry count.
Status SpillBatch(const std::string& dir, std::span<const SpillFile> files,
                  bool fsync_files, size_t* files_written = nullptr,
                  const RetryPolicy& retry = RetryPolicy{},
                  uint64_t* io_retries = nullptr,
                  const char* site = "spill.write");

/// Writes atomic checkpoints for one ingestion run. Drivers call Due() at
/// consistent points, Begin() when it fires, and Wait() before they
/// return.
class CheckpointWriter {
 public:
  /// `serializers[s]` must serialize the sink passed as shard `s`.
  /// `start_items` seeds the every-N cadence for resumed runs (pass the
  /// resumed position's item count so the first post-resume checkpoint
  /// lands N items after the one being resumed from, not immediately).
  CheckpointWriter(CheckpointPolicy policy,
                   std::vector<SinkSerializer> serializers,
                   uint64_t start_items = 0);
  /// Joins an in-flight commit; its status is lost (call Wait() first to
  /// learn it).
  ~CheckpointWriter();
  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  /// False when the policy has no directory (checkpointing disabled).
  bool enabled() const { return !policy_.dir.empty(); }

  /// True when a checkpoint should be taken at `items` delivered:
  /// `every_items` after the last *captured* checkpoint.
  bool Due(uint64_t items) const;

  /// Joins the previous commit and returns its error, if it failed (then
  /// nothing is captured). Otherwise serializes every sink and encodes
  /// the manifest on this thread, and starts committing them on the
  /// commit thread: shard files first, MANIFEST rename as the commit
  /// point, stale files removed after. The sinks are free again once
  /// Begin returns. `sinks.size()` must match the serializer count.
  Status Begin(const CheckpointManifest& manifest,
               std::span<StreamSink* const> sinks);

  /// Joins the in-flight commit, if any, and returns its status (Ok when
  /// none was in flight).
  Status Wait();

  /// Begin, then Wait: a synchronous checkpoint.
  Status Write(const CheckpointManifest& manifest,
               std::span<StreamSink* const> sinks);

  /// The accessors below report *committed* writes. The commit thread
  /// updates them, so read them only after Wait() (or Write()) returns,
  /// as the drivers do before they return.
  ///
  /// Items recorded by the last committed checkpoint (0 before the
  /// first).
  uint64_t last_written_items() const { return last_items_; }

  /// Transient-fault retries spent across every commit so far, and the
  /// number of operations that exhausted their retry budget (each give-up
  /// also failed that commit).
  uint64_t io_retries() const { return io_retries_; }
  uint64_t io_giveups() const { return io_giveups_; }

  /// Test hook: invoked on the commit thread after each successful commit
  /// with the manifest's item count (the CLI's --kill-after uses this to
  /// SIGKILL itself at a deterministic point). Set it before the first
  /// Begin.
  void set_after_write(std::function<void(uint64_t)> fn) {
    after_write_ = std::move(fn);
  }

 private:
  /// The commit step, run on `commit_`: writes the captured `files` and
  /// the encoded manifest, then sweeps files the manifest does not name.
  Status Commit(const std::vector<SpillFile>& files,
                const std::string& manifest_data, uint64_t items);

  CheckpointPolicy policy_;
  std::vector<SinkSerializer> serializers_;
  uint64_t captured_items_ = 0;  // caller's thread only
  // Written by the commit thread; read after joining it.
  uint64_t io_retries_ = 0;
  uint64_t io_giveups_ = 0;
  uint64_t last_items_ = 0;
  Status commit_status_;
  std::function<void(uint64_t)> after_write_;
  std::thread commit_;  // last: joined before the members it uses die
};

/// A checkpoint read back from disk: the ingestion position plus the
/// restored sinks, each in the same Sink handle CreateSink returns, and
/// the specs that reconstruct them. Every shard file of one run holds the
/// same kind and registry name.
struct ResumedCheckpoint {
  CheckpointManifest position;
  /// The registry name every shard envelope carried.
  std::string name;
  std::vector<Sink> sinks;
  /// The per-shard envelope specs (parallel to `sinks`) — the ORIGINAL
  /// run's configuration, authoritative over any flags the resuming
  /// process was started with.
  std::vector<SinkSpec> specs;
};

/// Reads the checkpoint committed in `dir` and restores every shard sink
/// with RestoreSink. InvalidArgument on missing/corrupt files, mixed-kind
/// shards, or shards that disagree on the registry name.
Result<ResumedCheckpoint> LoadCheckpoint(const std::string& dir);

/// Serializers bound (through SaveSink) to the exact specs the resumed
/// checkpoint's envelopes carried, so a resumed run's further checkpoints
/// describe the restored sinks — immune to drift in the resuming
/// process's own flags.
std::vector<SinkSerializer> SerializersFor(const ResumedCheckpoint& resumed);

}  // namespace swsample

#endif  // SWSAMPLE_STREAM_CHECKPOINT_H_
