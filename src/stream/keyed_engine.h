// Copyright (c) swsample authors. Licensed under the MIT license.

/// \file
/// Multi-tenant keyed window engine: one StreamSink that routes every
/// arrival to a lazily-instantiated per-key window sink, under a global
/// memory budget, with idle-key expiry and cold-key spill-to-disk.
///
/// Shape: a FlatMap directory (key -> entry) of independently configured
/// per-key sinks, all built from one SinkSpec through one pre-bound
/// SinkFactory (apps/sink_spec.h). Each key's sink sees a locally
/// re-indexed stream (indices consecutive from 0 within that key's sink
/// instance), which is what the sequence-model samplers' positional
/// expiry requires; timestamps pass through unchanged, so timestamp-model
/// sinks behave per-key exactly as they would standalone.
///
/// Memory budget: each key is charged its entry footprint plus its
/// sink's RetainedBytes() (real retained capacity, core/api.h). The
/// budget governs ChargedBytes() — live per-key state plus the key
/// directory — i.e. everything eviction can actually reclaim. The spill
/// INDEX (~9 bytes per spilled key, the cost of knowing a key is parked
/// on disk) is reported in RetainedBytes() but exempt from the budget:
/// it grows with key cardinality, not with retained window state, and
/// evicting more keys only makes it bigger. When ChargedBytes() exceeds
/// `memory_budget_bytes`, the
/// least-recently-seen keys (never the key currently being delivered)
/// are EVICTED: serialized through the standard checkpoint envelope
/// (SaveSink) into `spill_dir/key-<hex>.ckpt` (atomic tmp+rename) and
/// dropped from memory. The next arrival or query for a spilled key
/// restores it bit-identically — RNG state, window contents and the
/// key's local index all round-trip — so an evict/restore cycle is
/// indistinguishable from an uninterrupted run. A fresh engine
/// constructed over a non-empty spill directory adopts its spill files
/// (crash recovery for the spilled tail).
///
/// TTL expiry: keys idle longer than `idle_ttl` (engine clock = max
/// observed timestamp) are DROPPED, state and all — expiry models
/// tenant departure, not cold storage. A later arrival for an expired
/// key starts over on a fresh sink. Spilled keys are exempt (they cost
/// no memory); the engine clock only advances sinks lazily (a key's
/// sink is advanced by its own arrivals and at query time), so idle
/// keys cost no per-arrival work.
///
/// Batched ingestion: ObserveBatch demultiplexes each incoming batch in
/// 16384-item blocks — ONE scan detects same-key runs and scatter/gathers
/// the rest into per-key index chains in engine-owned scratch, then each
/// key's items are delivered as one micro-batch through the per-key sink's
/// own ObserveBatch (the samplers' closed-form fast paths). Charging, LRU
/// touch, TTL sweep and budget enforcement run once per micro-batch / block
/// instead of once per item. Item-wise Observe and the micro-batches
/// resolve their key through the same step, which expires the key first
/// when it sat idle past the TTL before the arrival. The scan tracks the
/// clock prefix-max, so a key that expires mid-block is split into TTL
/// generations and every key's last_seen is the clock at its last arrival.
/// Micro-batches are delivered in last-arrival order, and a key a query
/// restores from spill is linked at its stored last_seen, so the LRU
/// stays sorted by last_seen and the block-end TTL sweep drops exactly
/// the keys an item-wise sweep would have dropped by then. The memory budget holds
/// at micro-batch boundaries; item-wise Observe holds it after every item.
/// Evictions triggered within a block are grouped into one spill pass with
/// a single directory fsync (SpillBatch). A restore reads and decodes the
/// key's spill file on the calling thread when the key is next needed: at
/// its arrival, at its micro-batch's delivery, or at a query. The engine
/// starts no thread.
///
/// The demux only pays off when micro-batches amortize the per-key
/// resolve, so ObserveBatch is adaptive: a block whose scan yields
/// near-singleton micro-batches AND whose delivery was dominated by
/// TTL-churn sink creation (uniform traffic over a huge key space with
/// a binding idle_ttl) puts the engine into a backoff window: the next
/// kDemuxBackoffBlocks blocks are delivered item-wise (the reference
/// semantics, so equivalence is trivial), after which one block
/// re-probes the demux path. Such a block has nothing to amortize and
/// creates thousands of sinks before one sweep drops as many, while
/// item-wise delivery frees one key's buffers just before the next key
/// reuses them; the e18 full-mode uniform/1e6, uniform/1e7 and zipf/1e7
/// rows still run batch at 0.6-0.8x item without the backoff.
///
/// KeyEntry objects come from an engine-owned pool: a dropped or
/// evicted key's entry goes on a free list (its sink is freed at once)
/// for the next created or restored key.
///
/// Sharded use: the engine is itself a StreamSink, so
/// ShardedStreamDriver with ShardPartition::kKeyHash drives N engines
/// as shard sinks — every key lives in exactly one engine
/// (ShardOfKey), budgets and spill directories are per shard
/// (CreateKeyedEngines splits them), and per-key queries go to the
/// owning shard.
///
/// Error latching: StreamSink::Observe cannot return a Status, so spill
/// and restore I/O failures latch into `status()` (first error wins)
/// and the affected arrival is dropped; drivers check `status()` after
/// a run. Query-surface methods return errors directly.
///
/// Ownership: the engine owns every per-key sink. Thread-safety: one
/// engine per thread (core/api.h rule); sharded use gives each worker
/// its own engine.

#ifndef SWSAMPLE_STREAM_KEYED_ENGINE_H_
#define SWSAMPLE_STREAM_KEYED_ENGINE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "apps/sink_spec.h"
#include "core/api.h"
#include "stream/item.h"
#include "util/file_ops.h"
#include "util/flat_map.h"
#include "util/ring_deque.h"
#include "util/status.h"

namespace swsample {

/// What the engine does when spill storage stays down after retries.
enum class KeyedDegradeMode : uint8_t {
  /// Strict fail-stop: the failure latches into `status()`, the affected
  /// arrival is dropped, and the budget may be exceeded until the next
  /// successful spill (the pre-existing behavior).
  kBlock = 0,
  /// Availability over durability: victims the engine cannot spill are
  /// dropped outright (accounted in `degraded_drops`/`shed_bytes`), so
  /// the memory budget holds even with the spill dir permanently failed;
  /// unreadable parked keys restart fresh (`restore_misses`). Nothing
  /// latches — the loss is reported, not fatal.
  kShed = 1,
};

/// Spill-storage health, driven by I/O outcomes: a retry give-up moves
/// the engine to kDegraded; a periodic re-probe of the spill dir that
/// succeeds moves it to kRecovering; the next real spill/restore success
/// completes the round trip back to kHealthy.
enum class KeyedEngineHealth : uint8_t {
  kHealthy = 0,
  kDegraded = 1,
  kRecovering = 2,
};

/// Lowercase display name ("healthy", "degraded", "recovering").
const char* KeyedHealthName(KeyedEngineHealth health);

/// Construction-time policy for a KeyedWindowEngine.
struct KeyedEngineOptions {
  /// Per-key sink spec: every new (or expired-and-returned) key starts
  /// on a fresh sink of this spec. Required. `spec.seed` is the engine
  /// seed root; each key's sink is seeded
  /// Rng::ForkSeed(Rng::ForkSeed(seed, key), 0) so per-key streams are
  /// independent and reproducible.
  SinkSpec spec;
  /// Key derivation: key = item.value >> key_shift (0 keys on the raw
  /// value). Lets callers fold a value space onto a coarser tenant id.
  uint64_t key_shift = 0;
  /// Global retained-bytes budget (RetainedBytes(), real capacity).
  /// 0 = unlimited. A positive budget requires `spill_dir`.
  uint64_t memory_budget_bytes = 0;
  /// Drop keys idle longer than this many timestamp units; 0 = never.
  Timestamp idle_ttl = 0;
  /// Directory for eviction spill files; created if missing. Existing
  /// key-*.ckpt files in it are adopted as spilled keys.
  std::string spill_dir;
  /// fsync each spill file before its atomic rename. The default makes
  /// evicted state survive power loss (the bit-identical crash-recovery
  /// guarantee); turning it off trades that durability for an
  /// order-of-magnitude cheaper eviction (write + rename only) where
  /// spills are working-set overflow, not crash state — e.g. benches.
  bool fsync_spills = true;
  /// Pre-size the key directory for this many live keys (0 = grow).
  uint64_t max_keys_hint = 0;
  /// Inert: no code reads it, and every restore is synchronous. It stays
  /// declared only because the end-to-end benchmark (perfbench/
  /// keyed_spill.cc) still sets it; the next change to that benchmark
  /// deletes the field together with its use there.
  bool async_restore = true;
  /// Bounded-retry schedule for transient spill/restore I/O faults.
  /// Retries rewrite/reread the same bytes, so a run whose every fault
  /// is cured by a retry is bit-identical to a fault-free run. While the
  /// engine is degraded, operations fail fast (one attempt) until the
  /// re-probe sees storage heal.
  RetryPolicy io_retry;
  /// Behavior when spill storage stays down after retries.
  KeyedDegradeMode degrade = KeyedDegradeMode::kBlock;
};

/// Counters exposed for benches, budget gates and tests.
struct KeyedEngineStats {
  uint64_t live_keys = 0;       ///< keys resident in memory
  uint64_t spilled_keys = 0;    ///< keys parked on disk
  uint64_t evictions = 0;       ///< budget-driven spills (+ EvictKey)
  uint64_t restores = 0;        ///< spill files read back
  uint64_t expirations = 0;     ///< TTL drops
  uint64_t items = 0;           ///< arrivals delivered
  uint64_t retained_bytes = 0;  ///< current RetainedBytes() total
  uint64_t peak_retained_bytes = 0;  ///< max of the above over the run
  uint64_t charged_bytes = 0;        ///< current ChargedBytes() total
  uint64_t peak_charged_bytes = 0;   ///< max budget-governed bytes seen
  /// Spill passes, EvictKey's included (1 dir fsync each).
  uint64_t spill_batches = 0;
  /// Always 0: restores are synchronous. Declared only because the
  /// end-to-end benchmark (perfbench/keyed_spill.cc) still reads it; the
  /// next change to that benchmark deletes it.
  uint64_t prefetched_restores = 0;
  uint64_t io_retries = 0;      ///< transient-fault retries that ran
  uint64_t io_giveups = 0;      ///< operations that exhausted retries
  uint64_t degraded_drops = 0;  ///< victims shed without a spill (kShed)
  uint64_t shed_bytes = 0;      ///< charged bytes reclaimed by shedding
  uint64_t quarantined_files = 0;  ///< corrupt spill files renamed aside
  uint64_t restore_misses = 0;  ///< parked keys that had to restart fresh
  KeyedEngineHealth health = KeyedEngineHealth::kHealthy;
  double evict_seconds = 0.0;    ///< total wall time spent spilling
  double shed_seconds = 0.0;     ///< wall time spent in degraded shedding
  double restore_seconds = 0.0;  ///< total wall time spent restoring
};

/// The multi-tenant engine (see file comment).
class KeyedWindowEngine final : public StreamSink {
 public:
  /// Validates the options (the spec must construct; a budget requires
  /// spill_dir), creates/scans the spill directory.
  static Result<std::unique_ptr<KeyedWindowEngine>> Create(
      const KeyedEngineOptions& options);

  ~KeyedWindowEngine() override;
  KeyedWindowEngine(const KeyedWindowEngine&) = delete;
  KeyedWindowEngine& operator=(const KeyedWindowEngine&) = delete;

  // StreamSink surface -----------------------------------------------
  void Observe(const Item& item) override;
  void ObserveBatch(std::span<const Item> items) override;
  /// Advances the engine clock and applies TTL expiry. Per-key sinks
  /// are advanced lazily (on their own arrivals and at query time).
  void AdvanceTime(Timestamp now) override;
  /// Paper-model words: sum of live sinks' MemoryWords plus directory
  /// overhead. Maintained incrementally (O(1) per arrival).
  uint64_t MemoryWords() const override;
  /// Real retained capacity including the spill index.
  uint64_t RetainedBytes() const override;
  /// The budget-governed subset of RetainedBytes(): live per-key state
  /// plus the key directory — everything eviction can reclaim.
  uint64_t ChargedBytes() const;
  const char* name() const override { return "keyed-engine"; }
  /// Engine state spans disk (spill files) and a directory of sinks;
  /// it does not flatten into the single-sink checkpoint envelope.
  bool persistable() const override { return false; }

  // Per-key query surface --------------------------------------------
  /// True when `key` is live in memory or parked in a spill file.
  bool HasKey(uint64_t key) const;
  /// Current sample of `key`'s window (sampler-kind engines only).
  /// Restores the key if spilled; advances its sink to the engine
  /// clock first. NotFound-flavored InvalidArgument for unknown keys.
  Result<std::vector<Item>> SampleKey(uint64_t key);
  /// Current estimate for `key` (estimator-kind engines only).
  Result<EstimateReport> EstimateKey(uint64_t key);
  /// The exact blob an eviction would spill for `key` right now —
  /// envelope plus key metadata. The bit-equality tests compare these
  /// across evict/restore boundaries.
  Result<std::string> SaveKeyState(uint64_t key);
  /// Forces `key` out to its spill file (requires spill_dir).
  Status EvictKey(uint64_t key);

  /// First spill/restore I/O error latched during Observe (Ok when
  /// clean). Check after a drive. kShed engines do not latch storage
  /// give-ups — check `stats().io_giveups` and `health()` instead.
  Status status() const { return last_error_; }
  /// Current spill-storage health (see KeyedEngineHealth).
  KeyedEngineHealth health() const { return stats_.health; }
  const KeyedEngineStats& stats() const { return stats_; }
  /// Live (in-memory) keys, unordered. O(directory); test/debug aid.
  std::vector<uint64_t> LiveKeys() const;
  /// Engine clock: max timestamp observed / advanced to.
  Timestamp now() const { return now_; }

 private:
  struct KeyEntry;

  /// One per-key micro-batch discovered by the block scan: a chain of
  /// item indices (through `demux_next_`) plus the clock facts exact
  /// item-wise equivalence needs — `first_clock` is the engine clock
  /// BEFORE the run's first item (the TTL-expiry decision point) and
  /// `last_seen` the running-max clock AT its last item (what item-wise
  /// delivery would leave in entry->last_seen).
  struct KeyRun {
    uint64_t key = 0;
    uint32_t head = 0;
    uint32_t tail = 0;
    uint32_t count = 0;
    Timestamp first_clock = 0;
    Timestamp last_seen = 0;
  };

  /// Items demuxed per block: bounds the demux scratch (64 KiB of chain
  /// links + 384 KiB of staging) and matches the batch16k bench shape.
  static constexpr uint32_t kDemuxBlockItems = 16384;
  /// Item-wise blocks delivered after a churn-dominated singleton block
  /// before the demux path is probed again (see the file comment). The
  /// window doubles (capped below) each time the probe block re-triggers
  /// the decision, so steady hostile traffic converges to item-wise
  /// parity instead of re-paying the demux every 16 blocks; any block
  /// that stays demuxed resets the window.
  static constexpr uint32_t kDemuxBackoffBlocks = 15;
  static constexpr uint32_t kDemuxBackoffMax = 255;
  static constexpr uint32_t kNoIndex = 0xffffffffu;
  /// Flags a run's tail link in `demux_next_`; the low bits hold the run
  /// id (see ObserveBlock). Block positions never reach this bit.
  static constexpr uint32_t kRunTail = 0x80000000u;
  /// While degraded, the engine re-probes the spill dir (a small write +
  /// unlink through the same failpoint site as real spills) every this
  /// many delivered items; success moves it to kRecovering.
  static constexpr uint64_t kReprobeEveryItems = 65536;

  explicit KeyedWindowEngine(const KeyedEngineOptions& options);

  /// Query-path lookup: the live entry, restored from spill when
  /// parked. nullptr when unknown (or on latched I/O failure); never
  /// creates a key.
  KeyEntry* FindEntry(uint64_t key);
  /// Ingest-path lookup, shared by Observe and the micro-batches: ONE
  /// directory probe routes, expires, restores or creates. `first_clock`
  /// is the engine clock before the key's first arrival in this
  /// delivery; an entry idle past the TTL at that clock is dropped and
  /// the key restarts fresh. nullptr on latched failure.
  KeyEntry* ResolveEntry(uint64_t key, Timestamp first_clock);
  /// Constructs a fresh entry into the pre-probed directory slot.
  KeyEntry* CreateEntry(uint64_t key, KeyEntry** slot);
  /// Erases the placeholder directory slot of a key that did not come
  /// back live, latching `error` unless it is Ok. Returns nullptr.
  KeyEntry* AbandonSlot(uint64_t key, const Status& error);
  /// Reads + decodes `key`'s spill file into the pre-probed slot on the
  /// calling thread, retrying transient read faults through RetryIo
  /// under EffectiveRetry(). Metadata the engine cannot have written (a
  /// negative last_seen, say) makes the record corrupt. The caller
  /// erases the placeholder slot unless a live entry comes back,
  /// and links a live one into the LRU: ingest delivery at the head, a
  /// query by its stored last_seen (LinkByLastSeen).
  /// Three outcomes: a live entry; a nullptr VALUE — the parked state is
  /// unusable (quarantined corruption, or unreachable storage in kShed)
  /// and the key restarts fresh (`restore_misses`); or an error Status
  /// (kBlock give-up — the caller latches it).
  Result<KeyEntry*> RestoreEntry(uint64_t key, KeyEntry** slot);
  /// Renames `key`'s spill file aside (`.bad`, invisible to adoption
  /// scans) and forgets the parked key, so one torn file costs one key
  /// instead of the directory.
  void QuarantineSpill(uint64_t key, const std::string& path);
  /// Per-key seed: Rng::ForkSeed(Rng::ForkSeed(spec.seed, key), 0).
  uint64_t KeySeed(uint64_t key) const;

  Result<std::string> EncodeSpill(const KeyEntry& entry) const;
  /// One spill pass: encodes `victims` in order, writes them as ONE
  /// SpillBatch, parks and drops the written prefix, and applies the
  /// give-up (-> kDegraded) and recovered (kRecovering -> kHealthy)
  /// health transitions. Returns the first encode or write error; the
  /// caller decides whether it latches or sheds.
  Status SpillEntries(std::span<KeyEntry* const> victims);
  void DropEntry(KeyEntry* entry);
  void RechargeEntry(KeyEntry* entry);

  /// Entry pool: entries are recycled through a free list, so evict/
  /// restore and TTL churn reuse KeyEntry objects instead of the global
  /// allocator.
  KeyEntry* AllocEntry();
  void ReleaseEntry(KeyEntry* entry);

  // Batched ingestion (see ObserveBatch).
  void ObserveBlock(std::span<const Item> block);
  void EnsureDemuxScratch(size_t need);
  void ProcessRun(std::span<const Item> block, const KeyRun& run);

  void TouchLru(KeyEntry* entry);
  /// Links an unlinked entry where its last_seen belongs, keeping the
  /// LRU sorted by last_seen (newest at the head) for the tail-first TTL
  /// sweep. Walks from the tail past every older entry.
  void LinkByLastSeen(KeyEntry* entry);
  void UnlinkLru(KeyEntry* entry);
  void ExpireIdle();
  /// Spills LRU victims (never `protect`) as ONE batched pass until
  /// ChargedBytes() <= limit; EnforceBudget passes the budget itself,
  /// the pre-delivery headroom check passes budget - expected growth.
  void EvictUntil(uint64_t limit, const KeyEntry* protect);
  /// Degraded-mode budget enforcement: drops LRU victims (never
  /// `protect`) with no I/O and no allocation until ChargedBytes() <=
  /// limit, accounting every loss.
  void ShedUntil(uint64_t limit, const KeyEntry* protect);
  void EnforceBudget(const KeyEntry* protect);
  /// Refreshes the current and peak byte stats.
  void RecordBytes();
  void LatchError(const Status& status);
  void SetHealth(KeyedEngineHealth health);
  /// While degraded, probes the spill dir every kReprobeEveryItems
  /// delivered items; a successful probe write moves to kRecovering.
  void MaybeReprobe();
  /// The engine retry policy, collapsed to one attempt while degraded
  /// (storage is known-bad; fail fast until the re-probe heals it).
  RetryPolicy EffectiveRetry() const;

  /// Demux/staging/pool bytes: engine scratch that eviction cannot
  /// reclaim — reported by RetainedBytes(), exempt from the budget like
  /// the spill index.
  uint64_t ScratchBytes() const;

  std::string SpillPath(uint64_t key) const;
  std::string SpillFileName(uint64_t key) const;

  KeyedEngineOptions options_;
  SinkKind kind_ = SinkKind::kSampler;
  /// Pre-resolved per-key constructor (registry lookup done once, not
  /// per key).
  SinkFactory factory_;
  FlatMap<uint64_t, KeyEntry*> directory_;
  /// Keys parked on disk (value unused; FlatMap as a set).
  FlatMap<uint64_t, uint8_t> spilled_;
  /// Intrusive LRU over live entries: head = most recent.
  KeyEntry* lru_head_ = nullptr;
  KeyEntry* lru_tail_ = nullptr;
  Timestamp now_ = 0;
  uint64_t total_charge_bytes_ = 0;
  uint64_t total_charge_words_ = 0;

  /// Entry pool (AllocEntry/ReleaseEntry): every entry ever built, and
  /// the released ones awaiting reuse.
  std::vector<std::unique_ptr<KeyEntry>> entry_pool_;
  std::vector<KeyEntry*> entry_free_;

  /// Batch demux scratch, overwritten per block, zero steady-state
  /// allocation.
  UninitArray<uint32_t> demux_next_;
  UninitArray<Item> demux_staging_;
  uint32_t demux_capacity_ = 0;
  std::vector<KeyRun> runs_;
  /// Delivery order: run ids sorted by tail (last arrival).
  std::vector<uint32_t> run_order_;
  FlatMap<uint64_t, uint32_t> run_index_;
  /// Adaptive fallback: item-wise blocks left before re-probing the
  /// demux, the next window length (doubles on consecutive triggers),
  /// and the current block's CreateEntry count (churn signal).
  uint32_t demux_backoff_ = 0;
  uint32_t demux_backoff_window_ = kDemuxBackoffBlocks;
  uint64_t block_creates_ = 0;

  KeyedEngineStats stats_;
  Status last_error_ = Status::Ok();
  /// Next stats_.items threshold at which a degraded engine re-probes.
  uint64_t next_reprobe_items_ = 0;
};

/// N per-shard engines for ShardedStreamDriver kKeyHash runs: budget
/// split evenly, spill_dir suffixed per shard ("<dir>/shard-NNNN"),
/// seeds forked per shard so no key's RNG stream collides across
/// reshardings. A single shard is the unsharded engine: `shards` == 1
/// gives one engine built from `options` unchanged.
Result<std::vector<std::unique_ptr<KeyedWindowEngine>>> CreateKeyedEngines(
    const KeyedEngineOptions& options, uint64_t shards);

/// StreamSink* views over CreateKeyedEngines results (driver spans).
std::vector<StreamSink*> SinkPointers(
    const std::vector<std::unique_ptr<KeyedWindowEngine>>& engines);

}  // namespace swsample

#endif  // SWSAMPLE_STREAM_KEYED_ENGINE_H_
