// Copyright (c) swsample authors. Licensed under the MIT license.

#include "stream/keyed_engine.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>

#include "stream/checkpoint.h"
#include "util/failpoint.h"
#include "util/file_ops.h"
#include "util/macros.h"
#include "util/rng.h"
#include "util/serial.h"

namespace swsample {
namespace fs = std::filesystem;

namespace {

// Spill file wire format: metadata header + the standard sink envelope.
// "SWSKEYS\0" little-endian.
constexpr uint64_t kSpillMagic = 0x005359454B535753ULL;
constexpr uint64_t kSpillVersion = 1;
constexpr char kSpillGlobPrefix[] = "key-";
constexpr char kSpillSuffix[] = ".ckpt";

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Every spill read and write goes through the FileOps seam at these
// sites, so restore and eviction faults are injectable.
constexpr char kSpillReadSite[] = "spill.read";
constexpr char kSpillWriteSite[] = "spill.write";

// "key-%016llx.ckpt" -> key; false for any other file name.
bool ParseSpillName(const std::string& name, uint64_t* key) {
  const size_t prefix = sizeof(kSpillGlobPrefix) - 1;
  const size_t suffix = sizeof(kSpillSuffix) - 1;
  if (name.size() != prefix + 16 + suffix) return false;
  if (name.compare(0, prefix, kSpillGlobPrefix) != 0) return false;
  if (name.compare(prefix + 16, suffix, kSpillSuffix) != 0) return false;
  uint64_t v = 0;
  for (size_t i = prefix; i < prefix + 16; ++i) {
    const char c = name[i];
    uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint64_t>(c - 'a') + 10;
    } else {
      return false;
    }
    v = (v << 4) | digit;
  }
  *key = v;
  return true;
}

}  // namespace

const char* KeyedHealthName(KeyedEngineHealth health) {
  switch (health) {
    case KeyedEngineHealth::kHealthy:
      return "healthy";
    case KeyedEngineHealth::kDegraded:
      return "degraded";
    case KeyedEngineHealth::kRecovering:
      return "recovering";
  }
  return "healthy";
}

/// One live key: its sink, per-key stream cursor and LRU linkage.
/// Recycled through the engine's entry pool (the directory FlatMap
/// stores the pointer, which is trivially copyable as FlatMap values
/// must be). The per-key SinkSpec is NOT stored: it is the engine spec
/// with the key's seed (KeySeed), so spilling derives it on demand.
struct KeyedWindowEngine::KeyEntry {
  uint64_t key = 0;
  Sink sink;
  /// Next local index for this key's sink (sequence re-index).
  uint64_t local_index = 0;
  Timestamp last_seen = 0;
  uint64_t charge_bytes = 0;
  uint64_t charge_words = 0;
  KeyEntry* lru_prev = nullptr;
  KeyEntry* lru_next = nullptr;
};

KeyedWindowEngine::KeyedWindowEngine(const KeyedEngineOptions& options)
    : options_(options) {}

KeyedWindowEngine::~KeyedWindowEngine() = default;

Result<std::unique_ptr<KeyedWindowEngine>> KeyedWindowEngine::Create(
    const KeyedEngineOptions& options) {
  // Bind the factory now (Bind probe-constructs) so misconfiguration
  // surfaces at build time, not on some key's first arrival mid-stream.
  auto factory = SinkFactory::Bind(options.spec);
  if (!factory.ok()) {
    return Status::InvalidArgument("keyed: spec invalid: " +
                                   factory.status().message());
  }
  if (options.memory_budget_bytes > 0 && options.spill_dir.empty()) {
    return Status::InvalidArgument(
        "keyed: a memory budget requires spill_dir (evicted keys must "
        "have somewhere to go)");
  }

  auto engine =
      std::unique_ptr<KeyedWindowEngine>(new KeyedWindowEngine(options));
  engine->kind_ = factory.value().kind();
  engine->factory_ = std::move(factory).ValueOrDie();
  if (options.max_keys_hint > 0) {
    engine->directory_.Reserve(options.max_keys_hint);
  }
  if (!options.spill_dir.empty()) {
    std::error_code ec;
    fs::create_directories(options.spill_dir, ec);
    if (ec) {
      return Status::InvalidArgument("keyed: cannot create spill dir " +
                                     options.spill_dir + ": " + ec.message());
    }
    // A crash between write and rename leaves orphaned temps; GC them
    // before adoption (mirrors the checkpoint writer's manifest GC).
    SweepTempFiles(options.spill_dir);
    // Adopt spill files from a previous (crashed or handed-off) run.
    // Files quarantined by an earlier engine (".bad") are skipped by the
    // exact-name parse but surface in the stats.
    for (const auto& dirent : fs::directory_iterator(options.spill_dir, ec)) {
      const std::string name = dirent.path().filename().string();
      uint64_t key;
      if (ParseSpillName(name, &key)) {
        engine->spilled_.TryEmplace(key, 1);
      } else if (name.size() > 4 &&
                 name.compare(name.size() - 4, 4, ".bad") == 0) {
        ++engine->stats_.quarantined_files;
      }
    }
    if (ec) {
      return Status::InvalidArgument("keyed: cannot scan spill dir " +
                                     options.spill_dir + ": " + ec.message());
    }
    engine->stats_.spilled_keys = engine->spilled_.Size();
  }
  return engine;
}

std::string KeyedWindowEngine::SpillFileName(uint64_t key) const {
  char name[64];
  std::snprintf(name, sizeof(name), "%s%016" PRIx64 "%s", kSpillGlobPrefix,
                key, kSpillSuffix);
  return name;
}

std::string KeyedWindowEngine::SpillPath(uint64_t key) const {
  return (fs::path(options_.spill_dir) / SpillFileName(key)).string();
}

uint64_t KeyedWindowEngine::KeySeed(uint64_t key) const {
  return Rng::ForkSeed(Rng::ForkSeed(options_.spec.seed, key), 0);
}

void KeyedWindowEngine::LatchError(const Status& status) {
  if (last_error_.ok()) last_error_ = status;
}

void KeyedWindowEngine::SetHealth(KeyedEngineHealth health) {
  if (stats_.health == health) return;
  stats_.health = health;
  if (health == KeyedEngineHealth::kDegraded) {
    next_reprobe_items_ = stats_.items + kReprobeEveryItems;
  }
}

RetryPolicy KeyedWindowEngine::EffectiveRetry() const {
  RetryPolicy retry = options_.io_retry;
  if (stats_.health == KeyedEngineHealth::kDegraded) retry.max_attempts = 1;
  return retry;
}

void KeyedWindowEngine::MaybeReprobe() {
  if (stats_.health != KeyedEngineHealth::kDegraded) return;
  if (options_.spill_dir.empty()) return;
  if (stats_.items < next_reprobe_items_) return;
  next_reprobe_items_ = stats_.items + kReprobeEveryItems;
  // The probe goes through the same failpoint site as real spills, so an
  // injected permanent outage keeps the engine degraded and a transient
  // one heals it; the name never matches the adoption parse.
  const std::string probe =
      (fs::path(options_.spill_dir) / "health.probe").string();
  if (AtomicWriteFile(kSpillWriteSite, probe, "probe",
                      /*do_fsync=*/false)
          .ok()) {
    std::remove(probe.c_str());
    SetHealth(KeyedEngineHealth::kRecovering);
  }
}

void KeyedWindowEngine::QuarantineSpill(uint64_t key,
                                        const std::string& path) {
  // Rename aside so adoption scans skip it and an operator can inspect
  // the bytes; fall back to unlink if even the rename fails.
  const std::string aside = path + ".bad";
  if (std::rename(path.c_str(), aside.c_str()) != 0) {
    std::remove(path.c_str());
  }
  spilled_.Erase(key);
  stats_.spilled_keys = spilled_.Size();
  ++stats_.quarantined_files;
}

void KeyedWindowEngine::TouchLru(KeyEntry* entry) {
  if (lru_head_ == entry) return;
  UnlinkLru(entry);
  entry->lru_next = lru_head_;
  entry->lru_prev = nullptr;
  if (lru_head_ != nullptr) lru_head_->lru_prev = entry;
  lru_head_ = entry;
  if (lru_tail_ == nullptr) lru_tail_ = entry;
}

void KeyedWindowEngine::LinkByLastSeen(KeyEntry* entry) {
  KeyEntry* newer = lru_tail_;
  while (newer != nullptr && newer->last_seen < entry->last_seen) {
    newer = newer->lru_prev;
  }
  if (newer == nullptr) {
    TouchLru(entry);
    return;
  }
  entry->lru_prev = newer;
  entry->lru_next = newer->lru_next;
  if (newer->lru_next != nullptr) {
    newer->lru_next->lru_prev = entry;
  } else {
    lru_tail_ = entry;
  }
  newer->lru_next = entry;
}

void KeyedWindowEngine::UnlinkLru(KeyEntry* entry) {
  if (entry->lru_prev != nullptr) entry->lru_prev->lru_next = entry->lru_next;
  if (entry->lru_next != nullptr) entry->lru_next->lru_prev = entry->lru_prev;
  if (lru_head_ == entry) lru_head_ = entry->lru_next;
  if (lru_tail_ == entry) lru_tail_ = entry->lru_prev;
  entry->lru_prev = entry->lru_next = nullptr;
}

void KeyedWindowEngine::RechargeEntry(KeyEntry* entry) {
  const uint64_t bytes = sizeof(KeyEntry) + entry->sink.sink->RetainedBytes();
  const uint64_t words = entry->sink.sink->MemoryWords();
  total_charge_bytes_ += bytes - entry->charge_bytes;
  total_charge_words_ += words - entry->charge_words;
  entry->charge_bytes = bytes;
  entry->charge_words = words;
}

KeyedWindowEngine::KeyEntry* KeyedWindowEngine::AllocEntry() {
  if (entry_free_.empty()) {
    return entry_pool_.emplace_back(std::make_unique<KeyEntry>()).get();
  }
  KeyEntry* entry = entry_free_.back();
  entry_free_.pop_back();
  return entry;
}

void KeyedWindowEngine::ReleaseEntry(KeyEntry* entry) {
  *entry = KeyEntry();  // frees the sink now; the entry waits for reuse
  entry_free_.push_back(entry);
}

KeyedWindowEngine::KeyEntry* KeyedWindowEngine::AbandonSlot(
    uint64_t key, const Status& error) {
  directory_.Erase(key);
  stats_.live_keys = directory_.Size();
  if (!error.ok()) LatchError(error);
  return nullptr;
}

KeyedWindowEngine::KeyEntry* KeyedWindowEngine::CreateEntry(uint64_t key,
                                                            KeyEntry** slot) {
  ++block_creates_;
  auto sink = factory_.Create(KeySeed(key));
  if (!sink.ok()) {
    // The spec was probe-validated at Create; a failure here is an
    // engine bug, not user input.
    return AbandonSlot(
        key, Status::Internal("keyed: per-key construction failed: " +
                              sink.status().message()));
  }
  KeyEntry* entry = AllocEntry();
  entry->key = key;
  entry->sink = std::move(sink).ValueOrDie();
  entry->last_seen = now_;
  *slot = entry;
  stats_.live_keys = directory_.Size();
  TouchLru(entry);
  RechargeEntry(entry);
  return entry;
}

Result<std::string> KeyedWindowEngine::EncodeSpill(
    const KeyEntry& entry) const {
  SinkSpec spec = options_.spec;
  spec.seed = KeySeed(entry.key);
  auto envelope = SaveSink(*entry.sink.sink, spec);
  if (!envelope.ok()) return envelope.status();
  // Layout version 1 has a tier slot and an arrivals slot. With one sink
  // per key they hold 0 and local_index; writing them keeps the layout,
  // so existing spill directories still load (RestoreEntry checks both).
  BinaryWriter w;
  w.PutU64(kSpillMagic);
  w.PutU64(kSpillVersion);
  w.PutU64(entry.key);
  w.PutU64(/*tier=*/0);
  w.PutU64(entry.local_index);
  w.PutU64(/*arrivals=*/entry.local_index);
  w.PutI64(entry.last_seen);
  w.PutString(envelope.value());
  return w.Release();
}

Status KeyedWindowEngine::SpillEntries(std::span<KeyEntry* const> victims) {
  const auto start = Clock::now();
  Status status = Status::Ok();
  std::vector<SpillFile> files;
  files.reserve(victims.size());
  for (const KeyEntry* victim : victims) {
    auto blob = EncodeSpill(*victim);
    if (!blob.ok()) {
      status = blob.status();
      break;
    }
    files.push_back(
        SpillFile{SpillFileName(victim->key), std::move(blob).ValueOrDie()});
  }
  // Entries drop only for files that actually hit disk.
  size_t written = 0;
  if (Status batch =
          SpillBatch(options_.spill_dir, files, options_.fsync_spills,
                     &written, EffectiveRetry(), &stats_.io_retries,
                     kSpillWriteSite);
      !batch.ok()) {
    if (batch.retryable()) {
      ++stats_.io_giveups;
      SetHealth(KeyedEngineHealth::kDegraded);
    }
    status = batch;
  } else if (status.ok() &&
             stats_.health == KeyedEngineHealth::kRecovering) {
    SetHealth(KeyedEngineHealth::kHealthy);
  }
  for (size_t v = 0; v < written; ++v) {
    spilled_.TryEmplace(victims[v]->key, 1);
    ++stats_.evictions;
    DropEntry(victims[v]);
  }
  stats_.spilled_keys = spilled_.Size();
  ++stats_.spill_batches;
  stats_.evict_seconds += SecondsSince(start);
  return status;
}

void KeyedWindowEngine::DropEntry(KeyEntry* entry) {
  UnlinkLru(entry);
  total_charge_bytes_ -= entry->charge_bytes;
  total_charge_words_ -= entry->charge_words;
  directory_.Erase(entry->key);
  stats_.live_keys = directory_.Size();
  ReleaseEntry(entry);
}

Result<KeyedWindowEngine::KeyEntry*> KeyedWindowEngine::RestoreEntry(
    uint64_t key, KeyEntry** slot) {
  MaybeReprobe();
  const auto start = Clock::now();
  const std::string path = SpillPath(key);
  // A retried restore rereads the same bytes, so success after transient
  // read faults is bit-identical to a fault-free restore.
  std::string blob;
  const Status read =
      RetryIo(EffectiveRetry(), key, &stats_.io_retries, [&]() -> Status {
        auto bytes = ReadFileBytes(kSpillReadSite, path);
        if (!bytes.ok()) return bytes.status();
        blob = std::move(bytes).ValueOrDie();
        return Status::Ok();
      });
  if (!read.ok()) {
    if (read.retryable()) {
      ++stats_.io_giveups;
      SetHealth(KeyedEngineHealth::kDegraded);
      if (options_.degrade == KeyedDegradeMode::kBlock) return read;
      // kShed: the parked state is unreachable — the key restarts fresh
      // and the loss is reported. The file stays put; a later eviction
      // of the reborn key overwrites it.
      spilled_.Erase(key);
      stats_.spilled_keys = spilled_.Size();
      ++stats_.restore_misses;
      return static_cast<KeyEntry*>(nullptr);
    }
    // Permanent: the file is gone or unreadable — same treatment as
    // corruption below.
    QuarantineSpill(key, path);
    ++stats_.restore_misses;
    return static_cast<KeyEntry*>(nullptr);
  }
  BinaryReader r(blob);
  uint64_t magic = 0, version = 0, stored_key = 0, tier = 0, local_index = 0,
           arrivals = 0;
  int64_t last_seen = 0;
  std::string envelope;
  bool decoded =
      r.GetU64(&magic) && magic == kSpillMagic &&  //
      r.GetU64(&version) && version == kSpillVersion &&
      r.GetU64(&stored_key) && stored_key == key &&  //
      r.GetU64(&tier) && tier == 0 &&                //
      r.GetU64(&local_index) &&                      //
      r.GetU64(&arrivals) && arrivals == local_index &&
      // The engine clock starts at 0 and never falls, so no record the
      // engine wrote has a negative last_seen (the TTL sweep's
      // `now - last_seen` would overflow on one).
      r.GetI64(&last_seen) && last_seen >= 0 &&  //
      r.GetString(&envelope) && r.AtEnd();
  Result<RestoredSink> restored =
      decoded ? RestoreSink(envelope)
              : Result<RestoredSink>(Status::InvalidArgument(
                    "keyed: corrupt spill file " + path));
  if (restored.ok() && (restored.value().sink.sampler != nullptr) !=
                           (kind_ == SinkKind::kSampler)) {
    restored = Status::InvalidArgument(
        "keyed: spill file " + path +
        " holds a different sink kind than this engine");
  }
  if (!restored.ok()) {
    // Torn/corrupt spill state (a crash mid-write, a truncated file):
    // quarantine just this file and restart the key instead of failing
    // the whole engine.
    QuarantineSpill(key, path);
    ++stats_.restore_misses;
    return static_cast<KeyEntry*>(nullptr);
  }
  KeyEntry* entry = AllocEntry();
  entry->key = key;
  entry->sink = std::move(restored.value().sink);
  entry->local_index = local_index;
  entry->last_seen = last_seen;
  *slot = entry;
  stats_.live_keys = directory_.Size();
  RechargeEntry(entry);
  std::remove(path.c_str());
  spilled_.Erase(key);
  stats_.spilled_keys = spilled_.Size();
  ++stats_.restores;
  stats_.restore_seconds += SecondsSince(start);
  if (stats_.health == KeyedEngineHealth::kRecovering) {
    SetHealth(KeyedEngineHealth::kHealthy);
  }
  return entry;
}

KeyedWindowEngine::KeyEntry* KeyedWindowEngine::FindEntry(uint64_t key) {
  // Query path: never insert unless a spill file backs the key.
  if (KeyEntry** slot = directory_.Find(key); slot != nullptr) return *slot;
  if (!spilled_.Contains(key)) return nullptr;
  auto probe = directory_.TryEmplace(key, nullptr);
  auto restored = RestoreEntry(key, probe.first);
  if (restored.ok() && restored.value() != nullptr) {
    LinkByLastSeen(restored.value());
    return restored.value();
  }
  // Error, or a restore miss (quarantined/unreachable state): either way
  // there is nothing to query — the key reads as unknown.
  return AbandonSlot(key, restored.status());
}

KeyedWindowEngine::KeyEntry* KeyedWindowEngine::ResolveEntry(
    uint64_t key, Timestamp first_clock) {
  auto probe = directory_.TryEmplace(key, nullptr);
  if (!probe.second) {
    KeyEntry* entry = *probe.first;
    if (options_.idle_ttl <= 0 ||
        first_clock - entry->last_seen <= options_.idle_ttl) {
      return entry;
    }
    // Expired before this delivery's first arrival: an item-wise sweep
    // ran at every prior item with clock <= first_clock, so the largest
    // gap it could see is exactly first_clock - last_seen.
    DropEntry(entry);
    ++stats_.expirations;
    probe = directory_.TryEmplace(key, nullptr);
  }
  if (spilled_.Contains(key)) {
    auto restored = RestoreEntry(key, probe.first);
    if (!restored.ok()) return AbandonSlot(key, restored.status());
    if (restored.value() != nullptr) return restored.value();
    // Restore miss: the key starts over on a fresh sink.
  }
  return CreateEntry(key, probe.first);
}

void KeyedWindowEngine::Observe(const Item& item) {
  const Timestamp before = now_;
  if (item.timestamp > now_) now_ = item.timestamp;
  KeyEntry* entry = ResolveEntry(item.value >> options_.key_shift, before);
  if (entry == nullptr) return;  // I/O failure latched; arrival dropped
  entry->sink.sink->Observe(
      Item{item.value, entry->local_index++, item.timestamp});
  entry->last_seen = now_;
  ++stats_.items;
  TouchLru(entry);
  RechargeEntry(entry);
  ExpireIdle();
  EnforceBudget(entry);
  RecordBytes();
}

void KeyedWindowEngine::ObserveBatch(std::span<const Item> items) {
  while (items.size() > kDemuxBlockItems) {
    ObserveBlock(items.first(kDemuxBlockItems));
    items = items.subspan(kDemuxBlockItems);
  }
  if (!items.empty()) ObserveBlock(items);
}

void KeyedWindowEngine::EnsureDemuxScratch(size_t need) {
  if (need <= demux_capacity_) return;
  size_t cap = demux_capacity_ == 0 ? 1024 : demux_capacity_;
  while (cap < need) cap *= 2;
  // Both arrays are dead between blocks: replace them, contents and all.
  demux_next_ = AllocateUninit<uint32_t>(cap);
  demux_staging_ = AllocateUninit<Item>(cap);
  demux_capacity_ = static_cast<uint32_t>(cap);
}

void KeyedWindowEngine::ObserveBlock(std::span<const Item> block) {
  if (demux_backoff_ > 0) {
    // Churn-dominated singleton traffic (see the decision below): the
    // demux has nothing to amortize here, so deliver item-wise until
    // the backoff window ends and one block re-probes the demux.
    --demux_backoff_;
    for (const Item& item : block) Observe(item);
    return;
  }
  EnsureDemuxScratch(block.size());
  // --- One scan: same-key run detection, per-key index chains, and the
  // clock prefix-max that decides TTL generation splits. `before` is
  // the clock BEFORE item i — the exact value every item-wise expiry
  // check between the key's last arrival and this one could have seen.
  runs_.clear();
  run_index_.Clear();
  Timestamp clock = now_;
  uint64_t prev_key = 0;
  uint32_t prev_run = kNoIndex;
  const uint64_t shift = options_.key_shift;
  const Timestamp ttl = options_.idle_ttl;
  const uint32_t n = static_cast<uint32_t>(block.size());
  for (uint32_t i = 0; i < n; ++i) {
    const Item& item = block[i];
    const Timestamp before = clock;
    if (item.timestamp > clock) clock = item.timestamp;
    const uint64_t key = item.value >> shift;
    demux_next_[i] = kNoIndex;
    if (prev_run != kNoIndex && key == prev_key) {
      // Contiguous same-key run: no probe, and no TTL check — the key
      // was just seen at `before`, so it cannot have expired since.
      KeyRun& run = runs_[prev_run];
      demux_next_[run.tail] = i;
      run.tail = i;
      ++run.count;
      run.last_seen = clock;
      continue;
    }
    prev_key = key;
    auto probe = run_index_.TryEmplace(key, 0);
    if (!probe.second) {
      KeyRun& run = runs_[*probe.first];
      if (ttl > 0 && before - run.last_seen > ttl) {
        // The key expired mid-block (an item-wise sweep between its two
        // arrivals would have dropped it): close the old generation and
        // open a fresh run; delivery recreates the key from scratch.
        *probe.first = static_cast<uint32_t>(runs_.size());
        runs_.push_back(KeyRun{key, i, i, 1, before, clock});
      } else {
        demux_next_[run.tail] = i;
        run.tail = i;
        ++run.count;
        run.last_seen = clock;
      }
    } else {
      *probe.first = static_cast<uint32_t>(runs_.size());
      runs_.push_back(KeyRun{key, i, i, 1, before, clock});
    }
    prev_run = *probe.first;
  }
  now_ = clock;
  // --- Put the runs in last-arrival order. Each delivery's TouchLru then
  // leaves the LRU sorted by last_seen, so the block-end TTL sweep, which
  // stops at the first unexpired key from the tail, misses no expired
  // key. A key's TTL generations keep their order: an older one ends
  // before the next one starts. Tails are distinct block positions and
  // delivery never follows a tail's chain link, so that link can carry
  // its run id: one branch-free pass over the links lists the runs by
  // tail, O(block). The slot past the last run absorbs the stores of
  // non-tail links after the last tail.
  const size_t run_count = runs_.size();
  for (uint32_t r = 0; r < run_count; ++r) {
    demux_next_[runs_[r].tail] = kRunTail | r;
  }
  run_order_.resize(run_count + 1);
  uint32_t* order = run_order_.data();
  size_t ordered = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t link = demux_next_[i];
    order[ordered] = link & ~kRunTail;
    ordered += (link & kRunTail) != 0;
  }
  // --- Deliver each key's micro-batch in that order, with a staged
  // software prefetch over the run list. Each delivery chases three
  // dependent cache lines (directory slot -> KeyEntry -> sink), and at
  // 1e5+ live keys all three miss; the run list knows every upcoming
  // key, so the slot is prefetched 8 runs ahead, the entry 4 ahead (the
  // Find re-probe hits the slot line fetched at distance 8), and the
  // sink object 2 ahead. Re-probing instead of caching slot pointers
  // keeps this safe across deliveries that grow the directory.
  block_creates_ = 0;
  for (size_t i = 0; i < run_count; ++i) {
    if (i + 8 < run_count) directory_.Prefetch(runs_[order[i + 8]].key);
    if (i + 4 < run_count) {
      KeyEntry** slot = directory_.Find(runs_[order[i + 4]].key);
      if (slot != nullptr) __builtin_prefetch(*slot);
    }
    if (i + 2 < run_count) {
      KeyEntry** slot = directory_.Find(runs_[order[i + 2]].key);
      if (slot != nullptr && *slot != nullptr) {
        __builtin_prefetch((*slot)->sink.sink.get());
      }
    }
    ProcessRun(block, runs_[order[i]]);
  }
  // --- Per-block bookkeeping item-wise Observe does per item.
  ExpireIdle();
  RecordBytes();
  // --- Adaptive fallback decision. Mean micro-batch under 2 items means
  // the demux amortized nothing, and a majority of runs constructing a
  // fresh sink means delivery was TTL-churn-bound — worse than that, a
  // block creates thousands of sinks before one sweep drops as many,
  // where item-wise delivery reuses each dropped key's buffers at once
  // (see the file comment for the e18 rows that keep this). Hand such
  // traffic to the item-wise path for a window; one block re-probes
  // after it ends, so a shift back to skewed or churn-free traffic
  // re-engages the demux within ~16 blocks.
  if (run_count * 2 > block.size() && block_creates_ * 2 > run_count) {
    demux_backoff_ = demux_backoff_window_;
    demux_backoff_window_ =
        std::min(demux_backoff_window_ * 2 + 1, kDemuxBackoffMax);
  } else {
    demux_backoff_window_ = kDemuxBackoffBlocks;
  }
}

void KeyedWindowEngine::ProcessRun(std::span<const Item> block,
                                   const KeyRun& run) {
  KeyEntry* entry = ResolveEntry(run.key, run.first_clock);
  if (entry == nullptr) return;  // I/O failure latched; arrivals dropped
  if (options_.memory_budget_bytes > 0) {
    // Conservative pre-delivery headroom: a window sink retains at most
    // a few words per arrival; 64 bytes/item over-covers every
    // registered sink, so evicting down to budget - headroom first
    // keeps the transient peak near the budget. The post-delivery
    // EnforceBudget below is the actual invariant.
    const uint64_t headroom = uint64_t{run.count} * 64;
    if (headroom < options_.memory_budget_bytes) {
      EvictUntil(options_.memory_budget_bytes - headroom, entry);
    }
  }
  if (run.count == 1) {
    // Singleton micro-batch (the Zipf tail): skip the staging gather
    // and the sink's batch-path setup — Observe is the cheaper call
    // for one item and the per-item contract is the same.
    const Item& item = block[run.head];
    entry->sink.sink->Observe(
        Item{item.value, entry->local_index, item.timestamp});
  } else {
    uint32_t idx = run.head;
    for (uint32_t j = 0; j < run.count; ++j) {
      const Item& item = block[idx];
      demux_staging_[j] =
          Item{item.value, entry->local_index + j, item.timestamp};
      idx = demux_next_[idx];
    }
    entry->sink.sink->ObserveBatch(
        std::span<const Item>(demux_staging_.get(), run.count));
  }
  entry->local_index += run.count;
  entry->last_seen = run.last_seen;
  stats_.items += run.count;
  TouchLru(entry);
  RechargeEntry(entry);
  EnforceBudget(entry);
  RecordBytes();
}

void KeyedWindowEngine::AdvanceTime(Timestamp now) {
  if (now > now_) now_ = now;
  ExpireIdle();
}

void KeyedWindowEngine::ExpireIdle() {
  if (options_.idle_ttl <= 0) return;
  while (lru_tail_ != nullptr &&
         now_ - lru_tail_->last_seen > options_.idle_ttl) {
    DropEntry(lru_tail_);
    ++stats_.expirations;
  }
}

void KeyedWindowEngine::EvictUntil(uint64_t limit, const KeyEntry* protect) {
  if (ChargedBytes() <= limit) return;
  MaybeReprobe();
  if (options_.degrade == KeyedDegradeMode::kShed &&
      stats_.health == KeyedEngineHealth::kDegraded) {
    // Storage is known-down: hold the budget without touching the disk
    // until the re-probe sees it heal.
    ShedUntil(limit, protect);
    return;
  }
  // Collect LRU victims until the projected charge fits, then spill them
  // as ONE pass: one directory fsync instead of one per victim.
  std::vector<KeyEntry*> victims;
  uint64_t projected = ChargedBytes();
  for (KeyEntry* victim = lru_tail_; projected > limit && victim != nullptr;
       victim = victim->lru_prev) {
    if (victim == protect) continue;
    victims.push_back(victim);
    projected -= victim->charge_bytes;
  }
  if (victims.empty()) return;
  const Status status = SpillEntries(victims);
  if (status.ok()) return;
  if (options_.degrade == KeyedDegradeMode::kBlock || !status.retryable()) {
    LatchError(status);
  }
  if (options_.degrade == KeyedDegradeMode::kShed) {
    // The written prefix was not enough: shed the rest so the budget holds
    // even on the very pass that discovered the outage.
    ShedUntil(limit, protect);
  }
}

void KeyedWindowEngine::ShedUntil(uint64_t limit, const KeyEntry* protect) {
  if (ChargedBytes() <= limit) return;
  const auto start = Clock::now();
  KeyEntry* victim = lru_tail_;
  while (ChargedBytes() > limit && victim != nullptr) {
    KeyEntry* next = victim->lru_prev;
    if (victim != protect) {
      stats_.shed_bytes += victim->charge_bytes;
      ++stats_.degraded_drops;
      DropEntry(victim);
    }
    victim = next;
  }
  stats_.shed_seconds += SecondsSince(start);
}

void KeyedWindowEngine::EnforceBudget(const KeyEntry* protect) {
  if (options_.memory_budget_bytes == 0) return;
  EvictUntil(options_.memory_budget_bytes, protect);
}

void KeyedWindowEngine::RecordBytes() {
  stats_.retained_bytes = RetainedBytes();
  stats_.peak_retained_bytes =
      std::max(stats_.peak_retained_bytes, stats_.retained_bytes);
  stats_.charged_bytes = ChargedBytes();
  stats_.peak_charged_bytes =
      std::max(stats_.peak_charged_bytes, stats_.charged_bytes);
}

uint64_t KeyedWindowEngine::ScratchBytes() const {
  // The entry pool's bytes beyond the live entries (free-list entries);
  // live entries are already in ChargedBytes().
  const uint64_t pool = entry_pool_.size() * sizeof(KeyEntry);
  const uint64_t live = directory_.Size() * sizeof(KeyEntry);
  return demux_capacity_ * (sizeof(uint32_t) + sizeof(Item)) +
         run_index_.ReservedBytes() +
         runs_.capacity() * sizeof(KeyRun) +
         run_order_.capacity() * sizeof(uint32_t) +
         (pool > live ? pool - live : 0);
}

uint64_t KeyedWindowEngine::MemoryWords() const {
  return total_charge_words_ +
         (directory_.ReservedBytes() + spilled_.ReservedBytes() +
          ScratchBytes()) /
             8;
}

uint64_t KeyedWindowEngine::RetainedBytes() const {
  return ChargedBytes() + spilled_.ReservedBytes() + ScratchBytes();
}

uint64_t KeyedWindowEngine::ChargedBytes() const {
  return sizeof(*this) + total_charge_bytes_ + directory_.ReservedBytes();
}

bool KeyedWindowEngine::HasKey(uint64_t key) const {
  return directory_.Contains(key) || spilled_.Contains(key);
}

Result<std::vector<Item>> KeyedWindowEngine::SampleKey(uint64_t key) {
  if (kind_ != SinkKind::kSampler) {
    return Status::FailedPrecondition(
        "keyed: SampleKey on an estimator-kind engine (use EstimateKey)");
  }
  KeyEntry* entry = FindEntry(key);
  if (entry == nullptr) {
    if (!last_error_.ok()) return last_error_;
    return Status::InvalidArgument("keyed: unknown key");
  }
  entry->sink.sink->AdvanceTime(now_);
  RechargeEntry(entry);
  return entry->sink.sampler->Sample();
}

Result<EstimateReport> KeyedWindowEngine::EstimateKey(uint64_t key) {
  if (kind_ != SinkKind::kEstimator) {
    return Status::FailedPrecondition(
        "keyed: EstimateKey on a sampler-kind engine (use SampleKey)");
  }
  KeyEntry* entry = FindEntry(key);
  if (entry == nullptr) {
    if (!last_error_.ok()) return last_error_;
    return Status::InvalidArgument("keyed: unknown key");
  }
  entry->sink.sink->AdvanceTime(now_);
  RechargeEntry(entry);
  return entry->sink.estimator->Estimate();
}

Result<std::string> KeyedWindowEngine::SaveKeyState(uint64_t key) {
  KeyEntry* entry = FindEntry(key);
  if (entry == nullptr) {
    if (!last_error_.ok()) return last_error_;
    return Status::InvalidArgument("keyed: unknown key");
  }
  return EncodeSpill(*entry);
}

Status KeyedWindowEngine::EvictKey(uint64_t key) {
  if (options_.spill_dir.empty()) {
    return Status::FailedPrecondition("keyed: EvictKey requires spill_dir");
  }
  if (spilled_.Contains(key)) return Status::Ok();  // already parked
  KeyEntry** slot = directory_.Find(key);
  if (slot == nullptr) return Status::InvalidArgument("keyed: unknown key");
  KeyEntry* const victim = *slot;
  return SpillEntries(std::span<KeyEntry* const>(&victim, 1));
}

std::vector<uint64_t> KeyedWindowEngine::LiveKeys() const {
  std::vector<uint64_t> keys;
  keys.reserve(directory_.Size());
  directory_.ForEach(
      [&keys](uint64_t key, KeyEntry* const&) { keys.push_back(key); });
  return keys;
}

Result<std::vector<std::unique_ptr<KeyedWindowEngine>>> CreateKeyedEngines(
    const KeyedEngineOptions& options, uint64_t shards) {
  if (shards < 1) {
    return Status::InvalidArgument("keyed: shards must be >= 1");
  }
  if (options.memory_budget_bytes > 0 &&
      options.memory_budget_bytes < shards) {
    return Status::InvalidArgument(
        "keyed: memory budget too small to split across shards");
  }
  std::vector<std::unique_ptr<KeyedWindowEngine>> engines;
  engines.reserve(shards);
  for (uint64_t shard = 0; shard < shards; ++shard) {
    KeyedEngineOptions shard_options = options;
    shard_options.memory_budget_bytes = options.memory_budget_bytes / shards;
    // A single shard is the unsharded engine: same seeds, same spill dir.
    if (shards > 1) {
      shard_options.spec.seed = Rng::ForkSeed(options.spec.seed, shard);
      if (!options.spill_dir.empty()) {
        char sub[32];
        std::snprintf(sub, sizeof(sub), "shard-%04" PRIu64, shard);
        shard_options.spill_dir =
            (fs::path(options.spill_dir) / sub).string();
      }
    }
    if (options.max_keys_hint > 0) {
      shard_options.max_keys_hint =
          options.max_keys_hint / shards + (options.max_keys_hint % shards != 0);
    }
    auto engine = KeyedWindowEngine::Create(shard_options);
    if (!engine.ok()) return engine.status();
    engines.push_back(std::move(engine).ValueOrDie());
  }
  return engines;
}

std::vector<StreamSink*> SinkPointers(
    const std::vector<std::unique_ptr<KeyedWindowEngine>>& engines) {
  std::vector<StreamSink*> sinks;
  sinks.reserve(engines.size());
  for (const auto& engine : engines) sinks.push_back(engine.get());
  return sinks;
}

}  // namespace swsample
