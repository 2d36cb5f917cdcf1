// Copyright (c) swsample authors. Licensed under the MIT license.

/// \file
/// Sharded multi-threaded ingestion engine: partitions an incoming stream
/// across N worker threads, each pumping its own registry-constructed
/// StreamSink replica over a bounded SPSC chunk queue with backpressure.
///
/// Data flow (the reactor-per-thread fan-out shape):
///
///   producer (caller thread)                    workers (one thread each)
///   ------------------------                    -------------------------
///   slice/partition stream into chunks   --->   pop chunk from own queue
///   route chunk to shard s               SPSC   re-index items for shard s
///   push onto worker (s % threads)      queues  sinks[s]->ObserveBatch(...)
///   block while that queue is full  (backpressure)   account items/memory
///
/// Partitioning:
///  * kChunks — round-robin contiguous chunks. The right mode for
///    SEQUENCE windows: with shard windows of n/N, the union of the
///    shards' windows is the global last-n window (the paper's Section 2
///    equivalent-width partition, replicated per shard), so merged
///    samples are uniform over it. The union is EXACT when n/N is a
///    multiple of chunk_items and the delivered item count is a multiple
///    of chunk_items * N; otherwise it is offset by at most one round of
///    chunks at the window boundary (a (1 +/- chunk_items*N/n) skew).
///  * kKeyHash — items routed by hash(value). The right mode for KEYED
///    workloads and timestamp windows: every key lives in one shard, so
///    per-key quantities (F_k, entropy terms) are additive across shards,
///    and timestamp activity is per-item, making the shard actives a
///    disjoint cover of the global active set. Caveat for SEQUENCE
///    windows under key-hash: each shard's n/N-arrival window spans a
///    global stream region proportional to 1 / (that shard's traffic
///    share), so the shard windows only union to the global last-n
///    window when the key load is near-uniform across shards — for
///    skewed keys prefer a timestamp-model sink, whose per-item expiry
///    is load-independent.
///
/// Each shard replica sees a locally re-indexed stream (indices
/// consecutive from 0 within the shard), which is what the samplers'
/// positional expiry logic requires; values and timestamps pass through
/// unchanged. Query the shards after Drive* returns — joining the workers
/// is the synchronization point — with MergedSnapshot (samplers) or
/// MergedEstimate (estimators) from the layers below.
///
/// Ownership: the caller owns the shard sinks (create them with
/// CreateShardedSinks, apps/sink_spec.h) and passes raw pointers for the
/// duration of one Drive* call. The driver owns threads and queues per call; no
/// state outlives a Drive* invocation.
///
/// Thread-safety: a ShardedStreamDriver is itself stateless apart from
/// options and may be shared; each Drive* call spawns and joins its own
/// workers. Shard sinks must NOT be touched by the caller while a Drive*
/// call is in flight.
///
/// Status conventions: option and shard-set validation errors come back
/// as InvalidArgument from Drive*; file/parse errors propagate exactly
/// like StreamDriver::DriveLines (source:line prefixed messages).

#ifndef SWSAMPLE_STREAM_SHARDED_DRIVER_H_
#define SWSAMPLE_STREAM_SHARDED_DRIVER_H_

#include <cstdio>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "apps/estimator_registry.h"
#include "core/api.h"
#include "core/registry.h"
#include "stream/checkpoint.h"
#include "stream/driver.h"
#include "stream/item.h"
#include "util/status.h"

namespace swsample {

/// How the producer routes items to shards (see file comment).
enum class ShardPartition {
  kChunks,   ///< round-robin contiguous chunks (sequence windows)
  kKeyHash,  ///< hash(value) routing (keyed workloads, timestamp windows)
};

/// What one shard did during a sharded drive.
struct ShardReport {
  uint64_t items = 0;              ///< arrivals delivered to this shard
  uint64_t batches = 0;            ///< ObserveBatch calls on this shard
  double busy_seconds = 0.0;       ///< time spent inside the sink
  double items_per_sec = 0.0;      ///< items / busy_seconds (0 if instant)
  uint64_t memory_words = 0;       ///< sink MemoryWords() after the run
  uint64_t peak_memory_words = 0;  ///< max MemoryWords() across probes
};

/// Aggregate + per-shard accounting for one sharded drive. `total` uses
/// wall-clock seconds for throughput; total.memory_words and
/// total.peak_memory_words are sums over shards (the peak sum is an upper
/// bound on the true simultaneous peak).
struct ShardedDriveReport {
  DriveReport total;
  std::vector<ShardReport> shards;
};

/// Drives streams through N sink replicas on worker threads.
class ShardedStreamDriver {
 public:
  struct Options {
    /// Worker threads (>= 1). The shard count is the size of the sinks
    /// span passed to Drive*; shards are assigned to workers
    /// round-robin, so more shards than threads multiplexes replicas
    /// onto the pool.
    uint64_t threads = 4;
    /// Items per routed chunk — the partition granularity and the unit of
    /// queue transfer (>= 1).
    uint64_t chunk_items = 4096;
    /// Bounded per-worker queue capacity in chunks (>= 1); the producer
    /// blocks while a worker's queue is full (backpressure).
    uint64_t queue_chunks = 16;
    ShardPartition partition = ShardPartition::kChunks;
    /// kKeyHash routing hashes `item.value >> key_shift`, mirroring the
    /// keyed engine's key derivation (stream/keyed_engine.h) so every
    /// value that folds onto one tenant key lands on one shard — the
    /// invariant per-key queries against CreateKeyedEngines rely on.
    /// Ignored by kChunks. Checkpointed drives require 0 (the manifest
    /// does not carry it).
    uint64_t key_shift = 0;
    /// Probe a shard's MemoryWords() every this many of its batches for
    /// the peak statistic; 0 probes only once at the end.
    uint64_t memory_probe_every = 16;
  };

  ShardedStreamDriver() : ShardedStreamDriver(Options{}) {}
  explicit ShardedStreamDriver(const Options& options);

  /// Feeds a pre-materialized run of consecutive items. In kChunks mode
  /// the producer only slices spans into `items` (zero copy on the
  /// producer path — workers re-index into their own scratch buffers), so
  /// this is the scaling path bench_e16 measures. `items` must outlive
  /// the call.
  Result<ShardedDriveReport> Drive(std::span<const Item> items,
                                   std::span<StreamSink* const> shards) const;

  /// Feeds a text stream with StreamDriver::DriveLines' grammar and error
  /// behavior: "<value>" lines (timestamp := arrival index) or
  /// "<timestamp> <value>" with non-decreasing timestamps; blank lines
  /// skipped; malformed/over-long lines and decreasing timestamps are
  /// InvalidArgument against `source_name` with the line number.
  ///
  /// Crash recovery: `writer` (nullable = off) takes periodic checkpoints
  /// and `resume` (nullable) is the position of a checkpoint read back
  /// with LoadCheckpoint (stream/checkpoint.h), whose restored sinks are
  /// passed as `shards`; the first `resume->items` events of the replayed
  /// input are skipped. A checkpoint quiesces the workers (barrier through
  /// every queue), serializes the shard sinks, and captures the router's
  /// un-flushed buffers in the manifest; the workers resume while the
  /// writer's commit thread persists them, and the call joins that commit
  /// before it returns. The resumed run's chunk segmentation, per-shard
  /// delivery order and RNG draws are identical to an uninterrupted
  /// run's. Requires the same shard count, chunk_items, and partition
  /// mode as the run that wrote the checkpoint (validated against the
  /// manifest). The report counts only items delivered by THIS call.
  Result<ShardedDriveReport> DriveLinesCheckpointed(
      std::FILE* f, const std::string& source_name, bool timestamped,
      std::span<StreamSink* const> shards, CheckpointWriter* writer = nullptr,
      const CheckpointManifest* resume = nullptr) const;

  /// DriveLinesCheckpointed over a file path (read through stdio).
  Result<ShardedDriveReport> DriveFileCheckpointed(
      const std::string& path, bool timestamped,
      std::span<StreamSink* const> shards, CheckpointWriter* writer = nullptr,
      const CheckpointManifest* resume = nullptr) const;

  const Options& options() const { return options_; }

  /// Queues + workers of one Drive* call (implementation detail; public
  /// only so producer-side helpers in the .cc can reference it).
  class Engine;

 private:
  Status Validate(std::span<StreamSink* const> shards) const;

  Options options_;
};

/// The shard that kKeyHash routing sends value `v` to — the exact hash
/// the producer's router applies. Exposed so the keyed multi-tenant
/// engine (stream/keyed_engine.h) and tests can partition per-key state
/// consistently with the driver's delivery. Requires shards >= 1.
uint64_t ShardOfKey(uint64_t value, uint64_t shards);

/// Replica construction lives in the unified SinkSpec factory
/// (apps/sink_spec.h): ShardSinkSpec derives each shard's configuration
/// (window split + forked seed) and CreateShardedSinks materializes the
/// replicas — samplers and estimators through ONE entry point.

}  // namespace swsample

#endif  // SWSAMPLE_STREAM_SHARDED_DRIVER_H_
