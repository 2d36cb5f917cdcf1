// Copyright (c) swsample authors. Licensed under the MIT license.
//
// The sharded ingestion engine (see sharded_driver.h for the data-flow
// picture). One bounded SPSC queue per worker thread carries routed
// chunks; the producer blocks on a full queue (backpressure), workers
// re-index each chunk into their shard's local stream before pumping it,
// and joining the workers is the synchronization point that makes
// post-drive shard queries race-free.

#include "stream/sharded_driver.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>

#include "util/file_ops.h"
#include "util/flat_map.h"
#include "util/macros.h"

namespace swsample {

namespace {

using Clock = std::chrono::steady_clock;

/// Key-hash partition function: the shared SplitMix64 finalizer
/// (util/flat_map.h) over a golden-ratio-offset key — bit-identical to
/// the file-local copy it replaces. Uniform enough that per-shard loads
/// concentrate tightly for any key distribution.
uint64_t MixKey(uint64_t value) {
  return SplitMix64Hash(value + 0x9e3779b97f4a7c15ULL);
}

/// One routed unit of work. kSpan references producer-owned storage (the
/// zero-copy path of Drive over a materialized stream); kOwned moves the
/// storage through the queue; kBarrier is the checkpoint quiesce token
/// (the worker acknowledges it after draining everything before it).
struct Msg {
  enum class Kind { kSpan, kOwned, kAdvance, kBarrier, kStop };
  Kind kind = Kind::kStop;
  uint32_t shard = 0;
  std::span<const Item> span;
  std::vector<Item> owned;
  Timestamp now = 0;
};

/// Bounded FIFO with one producer and one consumer; Push blocks while the
/// queue is at capacity, which is the engine's backpressure mechanism.
class BoundedMsgQueue {
 public:
  explicit BoundedMsgQueue(size_t capacity) : capacity_(capacity) {}

  void Push(Msg&& msg) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [&] { return queue_.size() < capacity_; });
    queue_.push_back(std::move(msg));
    not_empty_.notify_one();
  }

  Msg Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return !queue_.empty(); });
    Msg msg = std::move(queue_.front());
    queue_.pop_front();
    not_full_.notify_one();
    return msg;
  }

 private:
  const size_t capacity_;
  std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<Msg> queue_;
};

}  // namespace

/// Queues + worker threads of one Drive* call. Every shard's messages go
/// through the queue of worker (shard % workers), so per-shard order is
/// FIFO; a shard's state (local re-index counter, report) is touched only
/// by its owning worker until Finish() joins the threads.
class ShardedStreamDriver::Engine {
 public:
  /// `initial_indices` (empty, or one entry per sink) seeds the shards'
  /// local re-index cursors when resuming from a checkpoint.
  Engine(const Options& options, std::span<StreamSink* const> sinks,
         std::span<const uint64_t> initial_indices = {})
      : options_(options),
        sinks_(sinks.begin(), sinks.end()),
        shard_state_(sinks.size()) {
    for (size_t s = 0; s < initial_indices.size() && s < shard_state_.size();
         ++s) {
      shard_state_[s].local_index = initial_indices[s];
    }
    const uint64_t workers =
        std::min<uint64_t>(std::max<uint64_t>(options.threads, 1),
                           sinks_.size());
    queues_.reserve(workers);
    for (uint64_t w = 0; w < workers; ++w) {
      queues_.push_back(
          std::make_unique<BoundedMsgQueue>(options.queue_chunks));
    }
    threads_.reserve(workers);
    for (uint64_t w = 0; w < workers; ++w) {
      threads_.emplace_back([this, w] { WorkerLoop(w); });
    }
  }

  ~Engine() {
    if (!finished_) Finish();
  }

  void SendSpan(uint32_t shard, std::span<const Item> span) {
    Msg msg;
    msg.kind = Msg::Kind::kSpan;
    msg.shard = shard;
    msg.span = span;
    QueueOf(shard).Push(std::move(msg));
  }

  void SendOwned(uint32_t shard, std::vector<Item>&& items) {
    Msg msg;
    msg.kind = Msg::Kind::kOwned;
    msg.shard = shard;
    msg.owned = std::move(items);
    QueueOf(shard).Push(std::move(msg));
  }

  /// Moves every shard's clock to `now`: the final clock sync, so
  /// post-drive queries of timestamp sinks all see the stream-end time.
  void BroadcastAdvance(Timestamp now) {
    for (uint32_t shard = 0; shard < sinks_.size(); ++shard) {
      Msg msg;
      msg.kind = Msg::Kind::kAdvance;
      msg.shard = shard;
      msg.now = now;
      QueueOf(shard).Push(std::move(msg));
    }
  }

  /// Drains every queue: pushes one barrier per worker and blocks until
  /// all are acknowledged. On return the workers are idle (blocked in
  /// Pop) and every previously routed chunk has been delivered, so the
  /// producer may read shard sinks and cursors race-free. Checkpoints
  /// serialize the sinks inside this window.
  void Quiesce() {
    {
      std::lock_guard<std::mutex> lock(barrier_mu_);
      barrier_acks_ = 0;
    }
    for (auto& queue : queues_) {
      Msg msg;
      msg.kind = Msg::Kind::kBarrier;
      queue->Push(std::move(msg));
    }
    std::unique_lock<std::mutex> lock(barrier_mu_);
    barrier_cv_.wait(lock,
                     [&] { return barrier_acks_ == queues_.size(); });
  }

  /// Per-shard local re-index cursors; call only after Quiesce().
  std::vector<uint64_t> LocalIndices() const {
    std::vector<uint64_t> indices;
    indices.reserve(shard_state_.size());
    for (const ShardState& state : shard_state_) {
      indices.push_back(state.local_index);
    }
    return indices;
  }

  /// Stops and joins the workers, then stamps final/peak memory and
  /// per-shard throughput. Idempotent; called by the destructor on error
  /// paths so no Drive* exit leaks a thread.
  std::vector<ShardReport> Finish() {
    if (!finished_) {
      finished_ = true;
      for (auto& queue : queues_) queue->Push(Msg{});  // kStop
      for (std::thread& thread : threads_) thread.join();
      for (size_t shard = 0; shard < sinks_.size(); ++shard) {
        ShardReport& report = shard_state_[shard].report;
        report.memory_words = sinks_[shard]->MemoryWords();
        report.peak_memory_words =
            std::max(report.peak_memory_words, report.memory_words);
        if (report.busy_seconds > 0) {
          report.items_per_sec =
              static_cast<double>(report.items) / report.busy_seconds;
        }
      }
    }
    std::vector<ShardReport> reports;
    reports.reserve(shard_state_.size());
    for (const ShardState& state : shard_state_) {
      reports.push_back(state.report);
    }
    return reports;
  }

 private:
  struct ShardState {
    uint64_t local_index = 0;  ///< next index of the shard's local stream
    ShardReport report;
  };

  BoundedMsgQueue& QueueOf(uint32_t shard) {
    return *queues_[shard % queues_.size()];
  }

  void ObserveChunk(uint32_t shard, std::span<const Item> items) {
    if (items.empty()) return;
    ShardState& state = shard_state_[shard];
    const auto begin = Clock::now();
    sinks_[shard]->ObserveBatch(items);
    state.report.busy_seconds +=
        std::chrono::duration<double>(Clock::now() - begin).count();
    state.report.items += items.size();
    ++state.report.batches;
    if (options_.memory_probe_every != 0 &&
        state.report.batches % options_.memory_probe_every == 0) {
      state.report.peak_memory_words = std::max(
          state.report.peak_memory_words, sinks_[shard]->MemoryWords());
    }
  }

  void WorkerLoop(uint64_t worker) {
    std::vector<Item> scratch;
    scratch.reserve(options_.chunk_items);
    BoundedMsgQueue& queue = *queues_[worker];
    for (;;) {
      Msg msg = queue.Pop();
      switch (msg.kind) {
        case Msg::Kind::kStop:
          return;
        case Msg::Kind::kBarrier: {
          std::lock_guard<std::mutex> lock(barrier_mu_);
          ++barrier_acks_;
          barrier_cv_.notify_one();
          break;
        }
        case Msg::Kind::kAdvance:
          sinks_[msg.shard]->AdvanceTime(msg.now);
          break;
        case Msg::Kind::kSpan: {
          // Re-index into the shard's local stream; values and timestamps
          // pass through. The copy runs on the worker, so it scales with
          // the pool instead of serializing on the producer.
          ShardState& state = shard_state_[msg.shard];
          scratch.clear();
          for (const Item& item : msg.span) {
            scratch.push_back(
                Item{item.value, state.local_index++, item.timestamp});
          }
          ObserveChunk(msg.shard, scratch);
          break;
        }
        case Msg::Kind::kOwned: {
          ShardState& state = shard_state_[msg.shard];
          for (Item& item : msg.owned) item.index = state.local_index++;
          ObserveChunk(msg.shard, msg.owned);
          break;
        }
      }
    }
  }

  const Options options_;
  std::vector<StreamSink*> sinks_;
  std::vector<ShardState> shard_state_;
  std::vector<std::unique_ptr<BoundedMsgQueue>> queues_;
  std::vector<std::thread> threads_;
  std::mutex barrier_mu_;
  std::condition_variable barrier_cv_;
  uint64_t barrier_acks_ = 0;
  bool finished_ = false;
};

namespace {

/// Producer-side accumulator for parsed lines and key-hash routed spans:
/// buffers items into chunk_items-sized owned chunks per routing target and
/// ships them through the engine.
class OwnedRouter {
 public:
  /// `resume` (nullable) restores the router exactly as a checkpoint
  /// captured it: un-flushed buffers, round-robin cursor, clock state.
  OwnedRouter(const ShardedStreamDriver::Options& options, uint64_t shards,
              ShardedStreamDriver::Engine& engine,
              const CheckpointManifest* resume = nullptr)
      : options_(options), engine_(engine) {
    const uint64_t targets =
        options.partition == ShardPartition::kKeyHash ? shards : 1;
    pending_.resize(targets);
    for (auto& pending : pending_) pending.reserve(options.chunk_items);
    shards_ = shards;
    if (resume != nullptr) {
      for (size_t t = 0; t < resume->pending.size() && t < pending_.size();
           ++t) {
        pending_[t] = resume->pending[t];
      }
      next_chunk_shard_ = resume->next_chunk_shard % shards_;
      last_ts_ = resume->last_ts;
      saw_items_ = resume->saw_items;
    }
  }

  /// Captures the producer-side state a checkpoint must persist so a
  /// resumed run reproduces the exact chunk segmentation.
  void ExportTo(CheckpointManifest* manifest) const {
    manifest->last_ts = last_ts_;
    manifest->saw_items = saw_items_;
    manifest->next_chunk_shard = next_chunk_shard_;
    manifest->pending = pending_;
  }

  void Add(const Item& item) {
    last_ts_ = item.timestamp;
    if (options_.partition == ShardPartition::kKeyHash) {
      const uint32_t shard = static_cast<uint32_t>(
          ShardOfKey(item.value >> options_.key_shift, shards_));
      pending_[shard].push_back(item);
      if (pending_[shard].size() >= options_.chunk_items) {
        FlushTarget(shard, shard);
      }
      return;
    }
    pending_[0].push_back(item);
    if (pending_[0].size() >= options_.chunk_items) {
      FlushTarget(0, next_chunk_shard_);
      next_chunk_shard_ =
          static_cast<uint32_t>((next_chunk_shard_ + 1) % shards_);
    }
  }

  /// End of stream: flush and sync every shard's clock to the last seen
  /// timestamp so post-drive queries agree on "now".
  void FinishStream() {
    FlushAll();
    if (saw_items_) engine_.BroadcastAdvance(last_ts_);
  }

 private:
  bool FlushTarget(size_t target, uint32_t shard) {
    if (pending_[target].empty()) return false;
    saw_items_ = true;
    std::vector<Item> chunk = std::move(pending_[target]);
    pending_[target] = std::vector<Item>();
    pending_[target].reserve(options_.chunk_items);
    engine_.SendOwned(shard, std::move(chunk));
    return true;
  }

  void FlushAll() {
    if (options_.partition == ShardPartition::kKeyHash) {
      for (uint32_t shard = 0; shard < pending_.size(); ++shard) {
        FlushTarget(shard, shard);
      }
      return;
    }
    // Rotate only when a chunk actually shipped.
    if (FlushTarget(0, next_chunk_shard_)) {
      next_chunk_shard_ =
          static_cast<uint32_t>((next_chunk_shard_ + 1) % shards_);
    }
  }

  const ShardedStreamDriver::Options& options_;
  ShardedStreamDriver::Engine& engine_;
  uint64_t shards_ = 1;
  uint32_t next_chunk_shard_ = 0;
  std::vector<std::vector<Item>> pending_;  // [shard] or [0] for kChunks
  Timestamp last_ts_ = 0;
  bool saw_items_ = false;
};

/// Sums the per-shard reports into the wall-clock total.
ShardedDriveReport AssembleReport(Clock::time_point begin,
                                  std::vector<ShardReport> shards) {
  ShardedDriveReport report;
  report.shards = std::move(shards);
  for (const ShardReport& shard : report.shards) {
    report.total.items += shard.items;
    report.total.batches += shard.batches;
    report.total.memory_words += shard.memory_words;
    report.total.peak_memory_words += shard.peak_memory_words;
  }
  report.total.seconds =
      std::chrono::duration<double>(Clock::now() - begin).count();
  if (report.total.seconds > 0) {
    report.total.items_per_sec =
        static_cast<double>(report.total.items) / report.total.seconds;
  }
  return report;
}

}  // namespace

ShardedStreamDriver::ShardedStreamDriver(const Options& options)
    : options_(options) {}

Status ShardedStreamDriver::Validate(
    std::span<StreamSink* const> shards) const {
  if (options_.threads < 1) {
    return Status::InvalidArgument(
        "ShardedStreamDriver: options.threads must be >= 1");
  }
  if (options_.chunk_items < 1) {
    return Status::InvalidArgument(
        "ShardedStreamDriver: options.chunk_items must be >= 1");
  }
  if (options_.queue_chunks < 1) {
    return Status::InvalidArgument(
        "ShardedStreamDriver: options.queue_chunks must be >= 1");
  }
  if (shards.empty()) {
    return Status::InvalidArgument(
        "ShardedStreamDriver: at least one shard sink is required");
  }
  for (StreamSink* shard : shards) {
    if (shard == nullptr) {
      return Status::InvalidArgument(
          "ShardedStreamDriver: shard sinks must be non-null");
    }
  }
  return Status::Ok();
}

Result<ShardedDriveReport> ShardedStreamDriver::Drive(
    std::span<const Item> items, std::span<StreamSink* const> shards) const {
  if (Status s = Validate(shards); !s.ok()) return s;
  const auto begin = Clock::now();
  Engine engine(options_, shards);
  const uint64_t num_shards = shards.size();
  if (options_.partition == ShardPartition::kChunks) {
    // Zero copy on the producer: route sub-spans of the caller's storage
    // round-robin; workers do the per-item re-index copy in parallel.
    uint64_t chunk = 0;
    for (size_t offset = 0; offset < items.size();
         offset += options_.chunk_items, ++chunk) {
      const size_t len =
          std::min<size_t>(options_.chunk_items, items.size() - offset);
      engine.SendSpan(static_cast<uint32_t>(chunk % num_shards),
                      items.subspan(offset, len));
    }
    if (!items.empty()) engine.BroadcastAdvance(items.back().timestamp);
  } else {
    OwnedRouter router(options_, num_shards, engine);
    for (const Item& item : items) router.Add(item);
    router.FinishStream();
  }
  return AssembleReport(begin, engine.Finish());
}

Result<ShardedDriveReport> ShardedStreamDriver::DriveLinesCheckpointed(
    std::FILE* f, const std::string& source_name, bool timestamped,
    std::span<StreamSink* const> shards, CheckpointWriter* writer,
    const CheckpointManifest* resume) const {
  if (Status s = Validate(shards); !s.ok()) return s;
  if (options_.key_shift != 0 && (writer != nullptr || resume != nullptr)) {
    // The manifest does not record key_shift, so a resumed run could
    // silently re-route keys; reject instead.
    return Status::InvalidArgument(
        source_name +
        ": checkpointed drives do not support options.key_shift != 0");
  }
  if (resume != nullptr) {
    // The checkpoint is only bit-exact under the identical partitioning
    // geometry; reject any drift instead of silently skewing windows.
    const uint64_t targets =
        options_.partition == ShardPartition::kKeyHash ? shards.size() : 1;
    if (resume->shard_items.size() != shards.size() ||
        resume->chunk_items != options_.chunk_items ||
        resume->partition != static_cast<uint64_t>(options_.partition) ||
        resume->pending.size() != targets) {
      return Status::InvalidArgument(
          source_name +
          ": checkpoint manifest disagrees with the drive options (shard "
          "count, chunk_items, or partition mode changed)");
    }
  }
  const auto begin = Clock::now();
  Engine engine(options_, shards,
                resume == nullptr ? std::span<const uint64_t>()
                                  : std::span<const uint64_t>(
                                        resume->shard_items));
  OwnedRouter router(options_, shards.size(), engine, resume);
  auto deliver = [&](const Item& item) -> Status {
    router.Add(item);
    if (writer != nullptr && writer->Due(item.index + 1)) {
      // Drain the workers so shard sinks are stable, then persist the
      // sinks plus the router's un-flushed buffers.
      engine.Quiesce();
      CheckpointManifest manifest;
      manifest.items = item.index + 1;
      manifest.chunk_items = options_.chunk_items;
      manifest.partition = static_cast<uint64_t>(options_.partition);
      manifest.shard_items = engine.LocalIndices();
      router.ExportTo(&manifest);
      if (Status s = writer->Write(manifest, shards); !s.ok()) return s;
    }
    return Status::Ok();
  };
  // Parse errors and failed checkpoint writes return through here;
  // ~Engine stops and joins the workers on every exit path.
  EventLineScanner scanner(source_name, timestamped);
  if (Status s = scanner.ScanFrom(f, resume, deliver); !s.ok()) return s;
  router.FinishStream();
  auto report = AssembleReport(begin, engine.Finish());
  if (writer != nullptr) {
    report.total.io_retries = writer->io_retries();
    report.total.io_giveups = writer->io_giveups();
  }
  return report;
}

Result<ShardedDriveReport> ShardedStreamDriver::DriveFileCheckpointed(
    const std::string& path, bool timestamped,
    std::span<StreamSink* const> shards, CheckpointWriter* writer,
    const CheckpointManifest* resume) const {
  auto f_or = OpenStdioFile("ingest.open", path);
  if (!f_or.ok()) return f_or.status();
  std::FILE* f = f_or.value();
  auto result = DriveLinesCheckpointed(f, path, timestamped, shards, writer,
                                       resume);
  std::fclose(f);
  return result;
}

uint64_t ShardOfKey(uint64_t value, uint64_t shards) {
  SWS_DCHECK(shards >= 1);
  return MixKey(value) % shards;
}

std::vector<StreamSink*> SinkPointers(
    const std::vector<std::unique_ptr<WindowSampler>>& shards) {
  std::vector<StreamSink*> out;
  out.reserve(shards.size());
  for (const auto& shard : shards) out.push_back(shard.get());
  return out;
}

std::vector<StreamSink*> SinkPointers(
    const std::vector<std::unique_ptr<WindowEstimator>>& shards) {
  std::vector<StreamSink*> out;
  out.reserve(shards.size());
  for (const auto& shard : shards) out.push_back(shard.get());
  return out;
}

std::vector<WindowSampler*> SamplerPointers(
    const std::vector<std::unique_ptr<WindowSampler>>& shards) {
  std::vector<WindowSampler*> out;
  out.reserve(shards.size());
  for (const auto& shard : shards) out.push_back(shard.get());
  return out;
}

std::vector<WindowEstimator*> EstimatorPointers(
    const std::vector<std::unique_ptr<WindowEstimator>>& shards) {
  std::vector<WindowEstimator*> out;
  out.reserve(shards.size());
  for (const auto& shard : shards) out.push_back(shard.get());
  return out;
}

}  // namespace swsample
