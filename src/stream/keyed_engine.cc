// Copyright (c) swsample authors. Licensed under the MIT license.

#include "stream/keyed_engine.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
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

// Every spill read — the async reader included — goes through the
// FileOps seam at this site, so restore faults are injectable on both
// the sync and prefetch paths.
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

/// I/O-only background reader for the async restore lane: Submit hands it
/// a spill file path, the worker reads the file BYTES into the slot, and
/// Take blocks until that read completes. The worker never touches engine
/// state — decode and directory adoption happen on the ingest thread at
/// the key's delivery point — which is what makes async restore
/// bit-identical to the synchronous path by construction. All slot state
/// is mutex-guarded.
class KeyedSpillReader {
 public:
  static constexpr int kSlots = 16;

  KeyedSpillReader() : thread_([this] { Run(); }) {}

  ~KeyedSpillReader() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    thread_.join();
  }

  /// Queues a read; -1 when every slot is busy (the caller falls back to
  /// a synchronous read for that key).
  int Submit(std::string path) {
    std::lock_guard<std::mutex> lock(mu_);
    for (int i = 0; i < kSlots; ++i) {
      if (slots_[i].state == State::kFree) {
        slots_[i].path = std::move(path);
        slots_[i].blob.clear();
        slots_[i].status = Status::Ok();
        slots_[i].state = State::kQueued;
        work_cv_.notify_one();
        return i;
      }
    }
    return -1;
  }

  /// Blocks until slot `slot`'s read completes, then frees the slot.
  Result<std::string> Take(int slot) {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return slots_[slot].state == State::kDone; });
    Slot& s = slots_[slot];
    s.state = State::kFree;
    if (!s.status.ok()) return s.status;
    return std::move(s.blob);
  }

 private:
  enum class State { kFree, kQueued, kReading, kDone };
  struct Slot {
    std::string path;
    std::string blob;
    Status status = Status::Ok();
    State state = State::kFree;
  };

  void Run() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      int next = -1;
      for (int i = 0; i < kSlots; ++i) {
        if (slots_[i].state == State::kQueued) {
          next = i;
          break;
        }
      }
      if (next < 0) {
        if (stop_) return;
        work_cv_.wait(lock);
        continue;
      }
      Slot& s = slots_[next];  // slots_ is a fixed array; `s` stays valid
      s.state = State::kReading;
      const std::string path = s.path;
      lock.unlock();
      auto blob = ReadFileBytes(kSpillReadSite, path);
      lock.lock();
      if (blob.ok()) {
        s.blob = std::move(blob).ValueOrDie();
      } else {
        s.status = blob.status();
      }
      s.state = State::kDone;
      done_cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  bool stop_ = false;
  Slot slots_[kSlots];
  std::thread thread_;
};

/// One live key: its sink, tier, per-key stream cursor and LRU linkage.
/// Recycled through the engine's entry pool (the directory FlatMap
/// stores the pointer, which is trivially copyable as FlatMap values
/// must be). The per-key SinkSpec is NOT stored: it is a pure function
/// of (key, tier) under the engine's options (TierSpec), so spilling
/// derives it on demand instead of keeping two strings per key.
struct KeyedWindowEngine::KeyEntry {
  uint64_t key = 0;
  uint64_t tier = 0;  ///< 0 = tail (options.spec), 1 = hot (hot_spec)
  Sink sink;
  /// Next local index for this key's tier instance (sequence re-index).
  uint64_t local_index = 0;
  uint64_t arrivals = 0;  ///< lifetime arrivals (drives promotion)
  Timestamp last_seen = 0;
  uint64_t charge_bytes = 0;
  uint64_t charge_words = 0;
  KeyEntry* lru_prev = nullptr;
  KeyEntry* lru_next = nullptr;
};

KeyedWindowEngine::KeyedWindowEngine(const KeyedEngineOptions& options)
    : options_(options) {}

KeyedWindowEngine::~KeyedWindowEngine() {
  reader_.reset();  // join the restore thread before tearing down state
}

Result<std::unique_ptr<KeyedWindowEngine>> KeyedWindowEngine::Create(
    const KeyedEngineOptions& options) {
  // Bind both tier factories now (Bind probe-constructs) so
  // misconfiguration surfaces at build time, not on some key's first
  // arrival mid-stream.
  auto tail_factory = SinkFactory::Bind(options.spec);
  if (!tail_factory.ok()) {
    return Status::InvalidArgument("keyed: tail spec invalid: " +
                                   tail_factory.status().message());
  }
  SinkFactory hot_factory;
  if (options.promote_after > 0) {
    auto bound = SinkFactory::Bind(options.hot_spec);
    if (!bound.ok()) {
      return Status::InvalidArgument("keyed: hot spec invalid: " +
                                     bound.status().message());
    }
    if (bound.value().kind() != tail_factory.value().kind()) {
      return Status::InvalidArgument(
          "keyed: hot and tail specs must be the same kind (both "
          "samplers or both estimators) so the per-key query surface is "
          "uniform across tiers");
    }
    hot_factory = std::move(bound).ValueOrDie();
  }
  if (options.memory_budget_bytes > 0 && options.spill_dir.empty()) {
    return Status::InvalidArgument(
        "keyed: a memory budget requires spill_dir (evicted keys must "
        "have somewhere to go)");
  }

  auto engine =
      std::unique_ptr<KeyedWindowEngine>(new KeyedWindowEngine(options));
  engine->kind_ = tail_factory.value().kind();
  engine->tail_factory_ = std::move(tail_factory).ValueOrDie();
  engine->hot_factory_ = std::move(hot_factory);
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

SinkSpec KeyedWindowEngine::TierSpec(uint64_t key, uint64_t tier) const {
  SinkSpec spec = tier == 0 ? options_.spec : options_.hot_spec;
  spec.seed = Rng::ForkSeed(Rng::ForkSeed(spec.seed, key), tier);
  return spec;
}

void KeyedWindowEngine::LatchError(const Status& status) {
  if (last_error_.ok()) last_error_ = status;
}

void KeyedWindowEngine::SetHealth(KeyedEngineHealth health) {
  if (stats_.health == health) return;
  stats_.health = health;
  if (health == KeyedEngineHealth::kDegraded) {
    next_reprobe_items_ = stats_.items + options_.reprobe_every_items;
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
  next_reprobe_items_ = stats_.items + options_.reprobe_every_items;
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

KeyedWindowEngine::KeyEntry* KeyedWindowEngine::CreateEntry(
    uint64_t key, uint64_t tier, uint64_t local_index, uint64_t arrivals,
    Timestamp last_seen, KeyEntry** slot) {
  ++block_creates_;
  const uint64_t root = tier == 0 ? options_.spec.seed : options_.hot_spec.seed;
  auto sink = (tier == 0 ? tail_factory_ : hot_factory_)
                  .Create(Rng::ForkSeed(Rng::ForkSeed(root, key), tier));
  if (!sink.ok()) {
    // Both tier specs were probe-validated at Create; a failure here is
    // an engine bug, not user input.
    LatchError(Status::Internal("keyed: per-key construction failed: " +
                                sink.status().message()));
    directory_.Erase(key);
    stats_.live_keys = directory_.Size();
    return nullptr;
  }
  KeyEntry* entry = AllocEntry();
  entry->key = key;
  entry->tier = tier;
  entry->sink = std::move(sink).ValueOrDie();
  entry->local_index = local_index;
  entry->arrivals = arrivals;
  entry->last_seen = last_seen;
  *slot = entry;
  stats_.live_keys = directory_.Size();
  TouchLru(entry);
  RechargeEntry(entry);
  return entry;
}

bool KeyedWindowEngine::PromoteInPlace(KeyEntry* entry) {
  auto sink = hot_factory_.Create(
      Rng::ForkSeed(Rng::ForkSeed(options_.hot_spec.seed, entry->key), 1));
  if (!sink.ok()) {
    LatchError(Status::Internal("keyed: hot-tier construction failed: " +
                                sink.status().message()));
    DropEntry(entry);
    return false;
  }
  // A FRESH hot-tier sink (no history replay — the documented warm-up);
  // lifetime arrivals and last_seen carry over, the local re-index
  // restarts with the new tier instance.
  entry->sink = std::move(sink).ValueOrDie();
  entry->tier = 1;
  entry->local_index = 0;
  ++stats_.promotions;
  return true;
}

Result<std::string> KeyedWindowEngine::EncodeSpill(
    const KeyEntry& entry) const {
  auto envelope =
      SaveSink(*entry.sink.sink, TierSpec(entry.key, entry.tier));
  if (!envelope.ok()) return envelope.status();
  BinaryWriter w;
  w.PutU64(kSpillMagic);
  w.PutU64(kSpillVersion);
  w.PutU64(entry.key);
  w.PutU64(entry.tier);
  w.PutU64(entry.local_index);
  w.PutU64(entry.arrivals);
  w.PutI64(entry.last_seen);
  w.PutString(envelope.value());
  return w.Release();
}

Status KeyedWindowEngine::SpillEntry(KeyEntry* entry) {
  const auto start = Clock::now();
  auto blob = EncodeSpill(*entry);
  if (!blob.ok()) return blob.status();
  const SpillFile file{SpillFileName(entry->key),
                       std::move(blob).ValueOrDie()};
  if (Status status =
          SpillBatch(options_.spill_dir, std::span<const SpillFile>(&file, 1),
                     options_.fsync_spills, nullptr, EffectiveRetry(),
                     &stats_.io_retries, kSpillWriteSite);
      !status.ok()) {
    if (status.retryable()) {
      ++stats_.io_giveups;
      SetHealth(KeyedEngineHealth::kDegraded);
    }
    return status;
  }
  if (stats_.health == KeyedEngineHealth::kRecovering) {
    SetHealth(KeyedEngineHealth::kHealthy);
  }
  spilled_.TryEmplace(entry->key, 1);
  stats_.spilled_keys = spilled_.Size();
  ++stats_.evictions;
  stats_.evict_seconds += SecondsSince(start);
  DropEntry(entry);
  return Status::Ok();
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
  // Prefer bytes the async reader already fetched for this block; the
  // decode below runs on this thread either way.
  int prefetched = -1;
  for (size_t i = 0; i < prefetch_keys_.size(); ++i) {
    if (prefetch_keys_[i] == key && prefetch_slots_[i] >= 0) {
      prefetched = static_cast<int>(i);
      break;
    }
  }
  Result<std::string> blob = prefetched >= 0
                                 ? reader_->Take(prefetch_slots_[prefetched])
                                 : ReadFileBytes(kSpillReadSite, path);
  if (prefetched >= 0) {
    prefetch_slots_[prefetched] = -1;  // consumed
    ++stats_.prefetched_restores;
  }
  // Transient read faults — from either lane — retry synchronously here;
  // a retried restore rereads the same bytes, so success is bit-identical
  // to a fault-free restore.
  const RetryPolicy retry = EffectiveRetry();
  const uint32_t attempts = retry.max_attempts < 1 ? 1 : retry.max_attempts;
  for (uint32_t attempt = 1;
       !blob.ok() && blob.status().retryable() && attempt < attempts;
       ++attempt) {
    ++stats_.io_retries;
    const double secs = RetryBackoffSeconds(retry, key, attempt);
    if (secs > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(secs));
    }
    blob = ReadFileBytes(kSpillReadSite, path);
  }
  if (!blob.ok()) {
    if (blob.status().retryable()) {
      ++stats_.io_giveups;
      SetHealth(KeyedEngineHealth::kDegraded);
      if (options_.degrade == KeyedDegradeMode::kBlock) return blob.status();
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
  BinaryReader r(blob.value());
  uint64_t magic = 0, version = 0, stored_key = 0, tier = 0, local_index = 0,
           arrivals = 0;
  int64_t last_seen = 0;
  std::string envelope;
  bool decoded =
      r.GetU64(&magic) && magic == kSpillMagic &&  //
      r.GetU64(&version) && version == kSpillVersion &&
      r.GetU64(&stored_key) && stored_key == key && r.GetU64(&tier) &&
      r.GetU64(&local_index) && r.GetU64(&arrivals) && r.GetI64(&last_seen) &&
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
  entry->tier = tier;
  entry->sink = std::move(restored.value().sink);
  entry->local_index = local_index;
  entry->arrivals = arrivals;
  entry->last_seen = last_seen;
  *slot = entry;
  stats_.live_keys = directory_.Size();
  TouchLru(entry);
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

KeyedWindowEngine::KeyEntry* KeyedWindowEngine::FindEntry(
    uint64_t key, bool create_missing) {
  if (!create_missing) {
    // Query path: never insert unless a spill file backs the key.
    if (KeyEntry** slot = directory_.Find(key); slot != nullptr) return *slot;
    if (!spilled_.Contains(key)) return nullptr;
    auto probe = directory_.TryEmplace(key, nullptr);
    auto restored = RestoreEntry(key, probe.first);
    if (!restored.ok() || restored.value() == nullptr) {
      // Error, or a restore miss (quarantined/unreachable state): either
      // way there is nothing to query — the key reads as unknown.
      directory_.Erase(key);
      stats_.live_keys = directory_.Size();
      if (!restored.ok()) LatchError(restored.status());
      return nullptr;
    }
    return restored.value();
  }
  // Ingest path: ONE probe routes, creates, or restores.
  auto probe = directory_.TryEmplace(key, nullptr);
  if (!probe.second) return *probe.first;
  if (spilled_.Contains(key)) {
    auto restored = RestoreEntry(key, probe.first);
    if (!restored.ok()) {
      directory_.Erase(key);
      stats_.live_keys = directory_.Size();
      LatchError(restored.status());
      return nullptr;
    }
    if (restored.value() != nullptr) return restored.value();
    // Restore miss: the key starts over fresh on the tail tier.
  }
  return CreateEntry(key, /*tier=*/0, /*local_index=*/0, /*arrivals=*/0,
                     /*last_seen=*/now_, probe.first);
}

void KeyedWindowEngine::Observe(const Item& item) {
  if (item.timestamp > now_) now_ = item.timestamp;
  const uint64_t key = item.value >> options_.key_shift;
  KeyEntry* entry = FindEntry(key, /*create_missing=*/true);
  if (entry == nullptr) return;  // I/O failure latched; arrival dropped
  ++entry->arrivals;
  // Tier promotion: the triggering arrival lands in the fresh hot sink.
  if (options_.promote_after > 0 && entry->tier == 0 &&
      entry->arrivals >= options_.promote_after) {
    if (!PromoteInPlace(entry)) return;
  }
  entry->sink.sink->Observe(
      Item{item.value, entry->local_index++, item.timestamp});
  entry->last_seen = now_;
  ++stats_.items;
  TouchLru(entry);
  RechargeEntry(entry);
  ExpireIdle();
  EnforceBudget(entry);
  stats_.retained_bytes = RetainedBytes();
  if (stats_.retained_bytes > stats_.peak_retained_bytes) {
    stats_.peak_retained_bytes = stats_.retained_bytes;
  }
  stats_.charged_bytes = ChargedBytes();
  if (stats_.charged_bytes > stats_.peak_charged_bytes) {
    stats_.peak_charged_bytes = stats_.charged_bytes;
  }
}

void KeyedWindowEngine::ObserveBatch(std::span<const Item> items) {
  if (options_.strict_budget) {
    // Exact per-item semantics: TTL sweep + budget enforcement after
    // every arrival, at per-item cost.
    for (const Item& item : items) Observe(item);
    return;
  }
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
  // --- Queue disk reads for spilled keys before any delivery work, so
  // the reader thread overlaps the micro-batch deliveries below.
  PrefetchSpilledRuns();
  // --- Deliver each key's micro-batch in first-arrival order, with a
  // staged software prefetch over the run list. Each delivery chases
  // three dependent cache lines (directory slot -> KeyEntry -> sink), and
  // at 1e5+ live keys all three miss; the run list knows every upcoming
  // key, so the slot is prefetched 8 runs ahead, the entry 4 ahead (the
  // Find re-probe hits the slot line fetched at distance 8), and the
  // sink object 2 ahead. Re-probing instead of caching slot pointers
  // keeps this safe across deliveries that grow the directory.
  const size_t run_count = runs_.size();
  block_creates_ = 0;
  for (size_t i = 0; i < run_count; ++i) {
#ifndef SWSAMPLE_NO_STAGED_PREFETCH
    if (i + 8 < run_count) directory_.Prefetch(runs_[i + 8].key);
    if (i + 4 < run_count) {
      KeyEntry** slot = directory_.Find(runs_[i + 4].key);
      if (slot != nullptr) __builtin_prefetch(*slot);
    }
    if (i + 2 < run_count) {
      KeyEntry** slot = directory_.Find(runs_[i + 2].key);
      if (slot != nullptr && *slot != nullptr) {
        __builtin_prefetch((*slot)->sink.sink.get());
      }
    }
#endif
    ProcessRun(block, runs_[i]);
  }
  // --- Per-block bookkeeping item-wise Observe does per item.
  ExpireIdle();
  stats_.retained_bytes = RetainedBytes();
  if (stats_.retained_bytes > stats_.peak_retained_bytes) {
    stats_.peak_retained_bytes = stats_.retained_bytes;
  }
  stats_.charged_bytes = ChargedBytes();
  if (stats_.charged_bytes > stats_.peak_charged_bytes) {
    stats_.peak_charged_bytes = stats_.charged_bytes;
  }
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

void KeyedWindowEngine::PrefetchSpilledRuns() {
  prefetch_keys_.clear();
  prefetch_slots_.clear();
  if (!options_.async_restore || options_.spill_dir.empty()) return;
  if (spilled_.Size() == 0) return;
  for (const KeyRun& run : runs_) {
    if (!spilled_.Contains(run.key)) continue;
    bool queued = false;  // a key split into generations has two runs
    for (uint64_t key : prefetch_keys_) {
      if (key == run.key) {
        queued = true;
        break;
      }
    }
    if (queued) continue;
    if (reader_ == nullptr) reader_ = std::make_unique<KeyedSpillReader>();
    const int slot = reader_->Submit(SpillPath(run.key));
    if (slot < 0) break;  // queue full; later keys restore synchronously
    prefetch_keys_.push_back(run.key);
    prefetch_slots_.push_back(slot);
  }
}

KeyedWindowEngine::KeyEntry* KeyedWindowEngine::ResolveRunEntry(
    const KeyRun& run) {
  auto probe = directory_.TryEmplace(run.key, nullptr);
  if (!probe.second) {
    KeyEntry* entry = *probe.first;
    if (options_.idle_ttl > 0 &&
        run.first_clock - entry->last_seen > options_.idle_ttl) {
      // Expired before this run's first arrival: an item-wise sweep ran
      // at every prior item with clock <= first_clock, so the largest
      // gap it could see is exactly first_clock - last_seen.
      DropEntry(entry);
      ++stats_.expirations;
      probe = directory_.TryEmplace(run.key, nullptr);
    } else {
      return entry;
    }
  }
  if (spilled_.Contains(run.key)) {
    auto restored = RestoreEntry(run.key, probe.first);
    if (!restored.ok()) {
      directory_.Erase(run.key);
      stats_.live_keys = directory_.Size();
      LatchError(restored.status());
      return nullptr;
    }
    if (restored.value() != nullptr) return restored.value();
    // Restore miss: the key starts over fresh on the tail tier.
  }
  return CreateEntry(run.key, /*tier=*/0, /*local_index=*/0, /*arrivals=*/0,
                     /*last_seen=*/now_, probe.first);
}

void KeyedWindowEngine::ProcessRun(std::span<const Item> block,
                                   const KeyRun& run) {
  KeyEntry* entry = ResolveRunEntry(run);
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
  uint32_t idx = run.head;
  uint64_t remaining = run.count;
  while (remaining > 0) {
    uint64_t take = remaining;
    if (options_.promote_after > 0 && entry->tier == 0) {
      if (entry->arrivals + 1 >= options_.promote_after) {
        // The next arrival triggers promotion; it lands in the hot sink.
        if (!PromoteInPlace(entry)) return;
      } else {
        // Deliver to the tail tier only up to the promotion point, then
        // split the micro-batch — exactly where item-wise would switch.
        take = std::min<uint64_t>(
            take, options_.promote_after - 1 - entry->arrivals);
      }
    }
    if (take == 1) {
      // Singleton micro-batch (the Zipf tail): skip the staging gather
      // and the sink's batch-path setup — Observe is the cheaper call
      // for one item and the per-item contract is the same.
      const Item& item = block[idx];
      entry->sink.sink->Observe(
          Item{item.value, entry->local_index, item.timestamp});
      idx = demux_next_[idx];
    } else {
      for (uint64_t j = 0; j < take; ++j) {
        const Item& item = block[idx];
        demux_staging_[j] =
            Item{item.value, entry->local_index + j, item.timestamp};
        idx = demux_next_[idx];
      }
      entry->sink.sink->ObserveBatch(
          std::span<const Item>(demux_staging_.get(), take));
    }
    entry->local_index += take;
    entry->arrivals += take;
    remaining -= take;
  }
  entry->last_seen = run.last_seen;
  stats_.items += run.count;
  TouchLru(entry);
  RechargeEntry(entry);
  EnforceBudget(entry);
  stats_.charged_bytes = ChargedBytes();
  if (stats_.charged_bytes > stats_.peak_charged_bytes) {
    stats_.peak_charged_bytes = stats_.charged_bytes;
  }
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
  const auto start = Clock::now();
  // Collect LRU victims until the projected charge fits, then write all
  // their spill files as ONE batch: one directory fsync instead of one
  // per victim. Entries drop only for files that actually hit disk.
  std::vector<SpillFile> files;
  std::vector<KeyEntry*> victims;
  uint64_t projected = ChargedBytes();
  KeyEntry* victim = lru_tail_;
  while (projected > limit && victim != nullptr) {
    if (victim == protect) {
      victim = victim->lru_prev;
      continue;
    }
    auto blob = EncodeSpill(*victim);
    if (!blob.ok()) {
      LatchError(blob.status());
      break;
    }
    files.push_back(
        SpillFile{SpillFileName(victim->key), std::move(blob).ValueOrDie()});
    victims.push_back(victim);
    projected -= victim->charge_bytes;
    victim = victim->lru_prev;
  }
  if (victims.empty()) return;
  size_t written = 0;
  Status status =
      SpillBatch(options_.spill_dir, files, options_.fsync_spills, &written,
                 EffectiveRetry(), &stats_.io_retries, kSpillWriteSite);
  if (!status.ok()) {
    if (status.retryable()) {
      ++stats_.io_giveups;
      SetHealth(KeyedEngineHealth::kDegraded);
    }
    if (options_.degrade == KeyedDegradeMode::kBlock || !status.retryable()) {
      LatchError(status);
    }
  } else if (stats_.health == KeyedEngineHealth::kRecovering) {
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
  if (!status.ok() && options_.degrade == KeyedDegradeMode::kShed) {
    // The write prefix was not enough: shed the rest so the budget holds
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

uint64_t KeyedWindowEngine::ScratchBytes() const {
  // The entry pool's bytes beyond the live entries (free-list entries);
  // live entries are already in ChargedBytes().
  const uint64_t pool = entry_pool_.size() * sizeof(KeyEntry);
  const uint64_t live = directory_.Size() * sizeof(KeyEntry);
  return demux_capacity_ * (sizeof(uint32_t) + sizeof(Item)) +
         run_index_.ReservedBytes() +
         runs_.capacity() * sizeof(KeyRun) + (pool > live ? pool - live : 0);
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
  KeyEntry* entry = FindEntry(key, /*create_missing=*/false);
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
  KeyEntry* entry = FindEntry(key, /*create_missing=*/false);
  if (entry == nullptr) {
    if (!last_error_.ok()) return last_error_;
    return Status::InvalidArgument("keyed: unknown key");
  }
  entry->sink.sink->AdvanceTime(now_);
  RechargeEntry(entry);
  return entry->sink.estimator->Estimate();
}

Result<std::string> KeyedWindowEngine::SaveKeyState(uint64_t key) {
  KeyEntry* entry = FindEntry(key, /*create_missing=*/false);
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
  return SpillEntry(*slot);
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
      shard_options.hot_spec.seed =
          Rng::ForkSeed(options.hot_spec.seed, shard);
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
