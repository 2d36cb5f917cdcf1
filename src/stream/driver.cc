// Copyright (c) swsample authors. Licensed under the MIT license.

#include "stream/driver.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cinttypes>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <mutex>
#include <thread>
#include <type_traits>

#if defined(__linux__)
#include <sched.h>
#endif
#if defined(__unix__) || defined(__APPLE__)
#define SWSAMPLE_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "util/bits.h"
#include "util/file_ops.h"
#include "util/macros.h"

namespace swsample {

namespace {
using Clock = std::chrono::steady_clock;

// Shared epilogue of every Drive* method: stamps timing, throughput and
// final/peak memory into the report.
void Finalize(Clock::time_point begin, StreamSink& sink,
              DriveReport* report) {
  report->seconds =
      std::chrono::duration<double>(Clock::now() - begin).count();
  report->memory_words = sink.MemoryWords();
  report->peak_memory_words =
      std::max(report->peak_memory_words, report->memory_words);
  if (report->seconds > 0) {
    report->items_per_sec =
        static_cast<double>(report->items) / report->seconds;
  }
}

/// The grammar's whitespace set (what sscanf would skip).
inline bool IsSpaceByte(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Tight decimal parse over raw bytes: optional whitespace, optional
/// sign, at least one digit; advances `p` past the digits. No locale, no
/// errno, no copies — this is the per-line hot loop of DriveBuffer.
/// Matches the C library's integer conversions the stdio path
/// historically used: digit overflow saturates the magnitude at
/// UINT64_MAX (the sign is reported separately so callers can reproduce
/// the unsigned conversion's modular '-' handling or the signed one's
/// saturation). Event lines are data, not specs: util/spec_text.h's
/// strict syntax does not apply to them.
inline bool ParseDecimal(const char*& p, const char* end, uint64_t* magnitude,
                         bool* negative) {
  while (p != end && IsSpaceByte(*p)) ++p;
  *negative = false;
  if (p != end && (*p == '+' || *p == '-')) {
    *negative = *p == '-';
    ++p;
  }
  if (p == end || *p < '0' || *p > '9') return false;
  uint64_t v = 0;
  bool overflow = false;
  if constexpr (std::endian::native == std::endian::little) {
    // SWAR gulp: fold eight digits per multiply ladder while the
    // accumulated value provably cannot overflow (v * 1e8 + 99999999 <=
    // UINT64_MAX); the scalar loop below handles the tail and reproduces
    // the exact saturation semantics near the limit.
    constexpr uint64_t kGulpSafe = (UINT64_MAX - 99999999) / 100000000;
    while (end - p >= 8 && v <= kGulpSafe) {
      uint64_t chunk;
      __builtin_memcpy(&chunk, p, 8);
      if (NonDigitMask(chunk) != 0) break;
      v = v * 100000000 + ParseEightDigits(chunk);
      p += 8;
    }
  }
  while (p != end && *p >= '0' && *p <= '9') {
    const uint64_t digit = static_cast<uint64_t>(*p - '0');
    if (v > (UINT64_MAX - digit) / 10) {
      overflow = true;
    } else {
      v = v * 10 + digit;
    }
    ++p;
  }
  *magnitude = overflow ? UINT64_MAX : v;
  return true;
}

/// strtoll-style signed saturation of a parsed (magnitude, sign).
inline Timestamp SaturateTimestamp(uint64_t magnitude, bool negative) {
  if (negative) {
    return magnitude > static_cast<uint64_t>(INT64_MAX)
               ? INT64_MIN
               : -static_cast<Timestamp>(magnitude);
  }
  return magnitude > static_cast<uint64_t>(INT64_MAX)
             ? INT64_MAX
             : static_cast<Timestamp>(magnitude);
}

/// Most parse helpers one range drive starts. The sink on the calling
/// thread bounds the drive well before more helpers would pay off.
constexpr size_t kMaxParseHelpers = 3;

/// Parse helpers for a range drive: one per CPU in this process's
/// affinity mask, less the calling thread's, at most kMaxParseHelpers.
size_t ParseHelperCount() {
  size_t cpus = std::thread::hardware_concurrency();
#if defined(__linux__)
  cpu_set_t set;
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    cpus = static_cast<size_t>(CPU_COUNT(&set));
  }
#endif
  return std::min(std::max<size_t>(cpus, 1) - 1, kMaxParseHelpers);
}

/// One range's scan, numbered from the range's start: item indices (and
/// sequence-mode timestamps) and the line count are range-local. The
/// first and last event timestamps are those of items.front() and
/// items.back().
struct RangeScan {
  std::vector<Item> items;  ///< the events before the failing line, if any
  uint64_t lines = 0;       ///< lines scanned, the failing one included
  bool failed = false;      ///< a line of the range is not a valid event
};

void ScanRange(std::string_view range, bool timestamped, RangeScan* scan) {
  scan->items.clear();
  // Any first timestamp passes here; the join checks it against the
  // previous range's last. The source name goes unused: the join scans a
  // failing range again from the stream's position to name its error.
  EventLineScanner scanner(std::string(), timestamped, 0,
                           std::numeric_limits<Timestamp>::min(), 0);
  scan->failed = !scanner
                      .ScanAll(range,
                               [scan](const Item& item) {
                                 scan->items.push_back(item);
                                 return Status::Ok();
                               })
                      .ok();
  scan->lines = scanner.lines();
}

/// The helpers' side of a range drive. Helpers claim ranges in order and
/// scan range r into slot r % slots of a ring of reused slots; a helper
/// claims range r only once the caller has released range r - slots, so
/// at most `slots` ranges are parsed ahead of the caller. A range no
/// helper has claimed by the time the caller needs it (every range, with
/// no helpers) the caller claims and scans itself. The destructor stops
/// and joins the helpers, so every exit path of a drive joins them.
class RangeRing {
 public:
  RangeRing(std::span<const std::string_view> ranges, bool timestamped,
            size_t helpers)
      : ranges_(ranges),
        timestamped_(timestamped),
        slots_(helpers == 0 ? 1 : 2 * helpers),
        ready_(slots_.size(), false) {
    // Room for the longest range of the shortest events ("1\n"), so a
    // scan never reallocates; only the pages it writes become resident.
    size_t longest = 0;
    for (std::string_view range : ranges) {
      longest = std::max(longest, range.size());
    }
    for (RangeScan& slot : slots_) slot.items.reserve(longest / 2 + 1);
    helpers_.reserve(helpers);
    for (size_t h = 0; h < helpers; ++h) {
      helpers_.emplace_back([this] { Help(); });
    }
  }

  ~RangeRing() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    freed_.notify_all();
    for (std::thread& helper : helpers_) helper.join();
  }

  RangeRing(const RangeRing&) = delete;
  RangeRing& operator=(const RangeRing&) = delete;

  /// Range r's scan; the caller acquires ranges in order and owns the
  /// slot until Release(r).
  RangeScan& Acquire(size_t r) {
    const size_t slot = r % slots_.size();
    std::unique_lock<std::mutex> lock(mu_);
    if (claimed_ == r) {
      ++claimed_;
      lock.unlock();
      ScanRange(ranges_[r], timestamped_, &slots_[slot]);
    } else {
      filled_.wait(lock, [&] { return ready_[slot]; });
    }
    return slots_[slot];
  }

  /// Hands range r's slot on to range r + slots.
  void Release(size_t r) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ready_[r % slots_.size()] = false;
      ++released_;
    }
    freed_.notify_all();
  }

 private:
  void Help() {
    for (;;) {
      size_t r = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        freed_.wait(lock, [&] {
          return stop_ || claimed_ == ranges_.size() ||
                 claimed_ < released_ + slots_.size();
        });
        if (stop_ || claimed_ == ranges_.size()) return;
        r = claimed_++;
      }
      ScanRange(ranges_[r], timestamped_, &slots_[r % slots_.size()]);
      {
        std::lock_guard<std::mutex> lock(mu_);
        ready_[r % slots_.size()] = true;
      }
      filled_.notify_one();
    }
  }

  const std::span<const std::string_view> ranges_;
  const bool timestamped_;
  std::vector<RangeScan> slots_;
  std::mutex mu_;
  std::condition_variable filled_;  // a slot became ready (the caller)
  std::condition_variable freed_;   // a slot was released (the helpers)
  std::vector<bool> ready_;         // per slot, guarded by mu_
  size_t claimed_ = 0;              // ranges claimed, in order
  size_t released_ = 0;             // ranges released by the caller
  bool stop_ = false;
  std::vector<std::thread> helpers_;  // last: started once all is set
};

/// The caller's side of a range drive over `data`: joins the ranges'
/// scans in stream order, checks each range's first timestamp against the
/// previous range's last, rebases indices onto the stream, applies the
/// `resume` skip and its clock check, and hands the events on in spans
/// through `deliver_span`. A range that does not join cleanly ends the
/// drive: it is scanned again from the stream's position with
/// `deliver_item`, the serial per-item path, so its error has the serial
/// message and line number and the events before it are delivered alike.
template <typename DeliverItem, typename DeliverSpan>
Status JoinRanges(std::string_view data, const std::string& source_name,
                  bool timestamped, const CheckpointManifest* resume,
                  DeliverItem&& deliver_item, DeliverSpan&& deliver_span) {
  const std::vector<std::string_view> ranges = SplitEventRanges(data);
  RangeRing ring(ranges, timestamped,
                 ranges.size() > 1 ? ParseHelperCount() : 0);
  const uint64_t skip = resume != nullptr ? resume->items : 0;
  StreamIndex base = 0;  // stream index of the range's first event
  Timestamp last_ts = 0;
  uint64_t lines = 0;  // lines before the range
  for (size_t r = 0; r < ranges.size(); ++r) {
    RangeScan& scan = ring.Acquire(r);
    std::vector<Item>& items = scan.items;
    const uint64_t count = items.size();
    const bool out_of_order =
        timestamped && count > 0 && items.front().timestamp < last_ts;
    const bool diverges = resume != nullptr && timestamped && base < skip &&
                          skip <= base + count &&
                          items[skip - 1 - base].timestamp != resume->last_ts;
    if (scan.failed || out_of_order || diverges) {
      EventLineScanner rescan(source_name, timestamped, base, last_ts, lines);
      const Status status = rescan.ScanFrom(ranges[r], resume, deliver_item);
      SWS_DCHECK(!status.ok());
      return status;
    }
    for (Item& item : items) {
      item.index += base;
      if (!timestamped) item.timestamp = static_cast<Timestamp>(item.index);
    }
    if (timestamped && count > 0) last_ts = items.back().timestamp;
    const uint64_t first = skip > base ? std::min(skip - base, count) : 0;
    base += count;
    lines += scan.lines;
    if (first < count) {
      if (Status s = deliver_span(std::span<const Item>(items).subspan(
              static_cast<size_t>(first)));
          !s.ok()) {
        return s;
      }
    }
    ring.Release(r);
  }
  if (base >= skip) return Status::Ok();
  // The input ended before the checkpoint's position: ScanFrom over the
  // empty rest of the input reports that as the serial scan does.
  EventLineScanner rest(source_name, timestamped, base, last_ts, lines);
  return rest.ScanFrom(std::string_view(), resume, deliver_item);
}
}  // namespace

std::vector<std::string_view> SplitEventRanges(std::string_view data) {
  std::vector<std::string_view> ranges;
  size_t begin = 0;
  while (begin < data.size()) {
    size_t end = data.size();
    if (end - begin > kEventRangeBytes) {
      const size_t nl = data.find('\n', begin + kEventRangeBytes - 1);
      if (nl != std::string_view::npos) end = nl + 1;
    }
    ranges.push_back(data.substr(begin, end - begin));
    begin = end;
  }
  return ranges;
}

LineParse ParseEventSpan(const char* begin, const char* end, bool timestamped,
                         Timestamp last_ts, uint64_t* value, Timestamp* ts) {
  const char* p = begin;
  while (p != end && IsSpaceByte(*p)) ++p;
  if (p == end) return LineParse::kBlank;
  bool negative = false;
  if (timestamped) {
    uint64_t ts_magnitude = 0;
    bool ts_negative = false;
    uint64_t magnitude = 0;
    if (!ParseDecimal(p, end, &ts_magnitude, &ts_negative) ||
        !ParseDecimal(p, end, &magnitude, &negative)) {
      return LineParse::kMalformed;
    }
    *ts = SaturateTimestamp(ts_magnitude, ts_negative);
    *value = negative ? (0 - magnitude) : magnitude;
    if (*ts < last_ts) return LineParse::kNonMonotone;
    return LineParse::kOk;
  }
  uint64_t magnitude = 0;
  if (!ParseDecimal(p, end, &magnitude, &negative)) {
    return LineParse::kMalformed;
  }
  *value = negative ? (0 - magnitude) : magnitude;
  return LineParse::kOk;
}

Status LineParseError(LineParse failure, const std::string& source_name,
                      uint64_t line_no, bool timestamped) {
  const std::string where = source_name + ":" + std::to_string(line_no);
  switch (failure) {
    case LineParse::kNonMonotone:
      return Status::InvalidArgument(where +
                                     ": timestamps must be non-decreasing");
    case LineParse::kMalformed:
    default:
      return Status::InvalidArgument(
          where + ": malformed event line (expected " +
          (timestamped ? "\"<timestamp> <value>\")" : "\"<value>\")"));
  }
}

Status LineTooLongError(const std::string& source_name, uint64_t line_no,
                        size_t line_cap) {
  return Status::InvalidArgument(
      source_name + ":" + std::to_string(line_no) +
      ": event line too long (limit " + std::to_string(line_cap - 2) +
      " characters)");
}

Status ParseEventLine(const char* line, size_t line_cap, bool timestamped,
                      const std::string& source_name, uint64_t line_no,
                      Timestamp last_ts, uint64_t* value, Timestamp* ts,
                      bool* skip) {
  *skip = false;
  const size_t len = std::strlen(line);
  if (len + 1 == line_cap && line[len - 1] != '\n') {
    return LineTooLongError(source_name, line_no, line_cap);
  }
  const LineParse parsed =
      ParseEventSpan(line, line + len, timestamped, last_ts, value, ts);
  switch (parsed) {
    case LineParse::kOk:
      return Status::Ok();
    case LineParse::kBlank:
      *skip = true;
      return Status::Ok();
    default:
      return LineParseError(parsed, source_name, line_no, timestamped);
  }
}

StreamDriver::StreamDriver(const Options& options) : options_(options) {}

/// Accumulates items into batch_size runs, forwards them to the sink,
/// and maintains the report counters. Not reentrant; one Pump per Drive.
class StreamDriver::Pump {
 public:
  Pump(const Options& options, StreamSink& sink, DriveReport* report)
      : options_(options), sink_(sink), report_(report) {
    if (options_.batch_size > 0) buffer_.reserve(options_.batch_size);
  }

  void Push(const Item& item) {
    if (options_.batch_size == 0) {
      if (options_.track_batch_latency) {
        const auto t0 = Clock::now();
        sink_.Observe(item);
        latencies_.push_back(
            std::chrono::duration<double>(Clock::now() - t0).count());
      } else {
        sink_.Observe(item);
      }
      ++report_->items;
      ++report_->batches;  // a "batch" of one, for uniform reporting
      ProbeMaybe();
      return;
    }
    buffer_.push_back(item);
    if (buffer_.size() >= options_.batch_size) Flush();
  }

  /// Feeds a span with the same batch segmentation Push-by-one would
  /// produce, but delivers every full batch_size run as a subspan of the
  /// caller's storage — no staging copy through buffer_. Only a batch
  /// straddling the span edge (or a partially filled buffer_ on entry)
  /// goes through the buffer.
  void PushSpan(std::span<const Item> items) {
    if (options_.batch_size == 0) {
      for (const Item& item : items) Push(item);
      return;
    }
    size_t off = 0;
    while (off < items.size()) {
      if (buffer_.empty() && items.size() - off >= options_.batch_size) {
        DeliverBatch(items.subspan(off, options_.batch_size));
        off += options_.batch_size;
      } else {
        const size_t take = std::min(options_.batch_size - buffer_.size(),
                                     items.size() - off);
        buffer_.insert(buffer_.end(), items.begin() + off,
                       items.begin() + off + take);
        off += take;
        if (buffer_.size() >= options_.batch_size) Flush();
      }
    }
  }

  void Flush() {
    if (buffer_.empty()) return;
    DeliverBatch(std::span<const Item>(buffer_));
    buffer_.clear();
  }

  /// Stamps p50/p99 batch latency into the report (call once, after the
  /// final Flush). No-op unless track_batch_latency was set.
  void FinishLatencies() {
    if (latencies_.empty()) return;
    std::sort(latencies_.begin(), latencies_.end());
    report_->p50_batch_seconds = latencies_[(latencies_.size() - 1) / 2];
    report_->p99_batch_seconds =
        latencies_[(latencies_.size() - 1) * 99 / 100];
  }

  /// Items the next batch still takes: Push or PushSpan that many and
  /// the pump is at a batch boundary.
  size_t room() const {
    return options_.batch_size == 0 ? 1 : options_.batch_size - buffer_.size();
  }

  /// Items accumulated but not yet delivered. Zero exactly at batch
  /// boundaries — the only points where a checkpoint may be taken
  /// without disturbing the batch segmentation an uninterrupted run
  /// would produce.
  size_t buffered() const { return buffer_.size(); }

 private:
  void DeliverBatch(std::span<const Item> batch) {
    if (options_.track_batch_latency) {
      const auto t0 = Clock::now();
      sink_.ObserveBatch(batch);
      latencies_.push_back(
          std::chrono::duration<double>(Clock::now() - t0).count());
    } else {
      sink_.ObserveBatch(batch);
    }
    report_->items += batch.size();
    ++report_->batches;
    ProbeMaybe();
  }

  void ProbeMaybe() {
    if (options_.memory_probe_every == 0) return;
    if (report_->batches % options_.memory_probe_every != 0) return;
    report_->peak_memory_words =
        std::max(report_->peak_memory_words, sink_.MemoryWords());
  }

  const Options& options_;
  StreamSink& sink_;
  DriveReport* report_;
  std::vector<Item> buffer_;
  std::vector<double> latencies_;  // only filled under track_batch_latency
};

DriveReport StreamDriver::Drive(std::span<const Item> items,
                                StreamSink& sink) const {
  DriveReport report;
  const auto begin = Clock::now();
  Pump pump(options_, sink, &report);
  pump.PushSpan(items);
  pump.Flush();
  pump.FinishLatencies();
  Finalize(begin, sink, &report);
  return report;
}

template <typename Input>
Result<DriveReport> StreamDriver::DriveEvents(
    Input input, const std::string& source_name, bool timestamped,
    StreamSink& sink, const ProgressFn& progress, uint64_t progress_every,
    CheckpointWriter* writer, const CheckpointManifest* resume) const {
  if (resume != nullptr) {
    if (resume->shard_items.size() != 1 ||
        resume->shard_items[0] != resume->items) {
      return Status::InvalidArgument(
          source_name +
          ": checkpoint was written by a sharded run; resume it with "
          "ShardedStreamDriver");
    }
    for (const std::vector<Item>& buffer : resume->pending) {
      if (!buffer.empty()) {
        return Status::InvalidArgument(
            source_name + ": single-sink checkpoint has pending items");
      }
    }
  }
  DriveReport report;
  const auto begin = Clock::now();
  Pump pump(options_, sink, &report);
  StreamSink* const sinks[] = {&sink};
  // One predictable branch per event when neither hook is set.
  const bool hooked = writer != nullptr || (progress && progress_every != 0);
  // Takes a checkpoint if one is due after `last`, the last item pushed.
  // Checkpoints only at batch boundaries — see Pump::buffered().
  const auto checkpoint_after = [&](const Item& last) -> Status {
    const uint64_t delivered = last.index + 1;
    if (pump.buffered() != 0 || !writer->Due(delivered)) return Status::Ok();
    CheckpointManifest manifest;
    manifest.items = delivered;
    manifest.last_ts = timestamped ? last.timestamp : 0;
    manifest.shard_items = {delivered};
    return writer->Begin(manifest, sinks);
  };
  const auto deliver = [&](const Item& item) -> Status {
    pump.Push(item);
    if (!hooked) return Status::Ok();
    if (writer != nullptr) {
      if (Status s = checkpoint_after(item); !s.ok()) return s;
    }
    const uint64_t delivered = item.index + 1;
    if (progress && progress_every && delivered % progress_every == 0) {
      pump.Flush();
      progress(delivered);
    }
    return Status::Ok();
  };
  Status status;
  if constexpr (std::is_same_v<Input, std::string_view>) {
    // Spans go in the batches Push would form, split at each batch
    // boundary for the checkpoint test when checkpointing. No buffer
    // drive takes a progress hook.
    const auto deliver_span = [&](std::span<const Item> items) -> Status {
      if (writer == nullptr) {
        pump.PushSpan(items);
        return Status::Ok();
      }
      while (!items.empty()) {
        const size_t take = std::min(items.size(), pump.room());
        pump.PushSpan(items.first(take));
        if (Status s = checkpoint_after(items[take - 1]); !s.ok()) return s;
        items = items.subspan(take);
      }
      return Status::Ok();
    };
    status = JoinRanges(input, source_name, timestamped, resume, deliver,
                        deliver_span);
  } else {
    EventLineScanner scanner(source_name, timestamped);
    status = scanner.ScanFrom(input, resume, deliver);
  }
  // Join the last commit on every exit path; a scan error outranks it.
  const Status committed = writer != nullptr ? writer->Wait() : Status::Ok();
  if (!status.ok()) return status;
  if (!committed.ok()) return committed;
  pump.Flush();
  pump.FinishLatencies();
  Finalize(begin, sink, &report);
  if (writer != nullptr) {
    report.io_retries = writer->io_retries();
    report.io_giveups = writer->io_giveups();
  }
  return report;
}

Result<DriveReport> StreamDriver::DriveLines(
    std::FILE* f, const std::string& source_name, bool timestamped,
    StreamSink& sink, const ProgressFn& progress, uint64_t progress_every,
    CheckpointWriter* writer, const CheckpointManifest* resume) const {
  return DriveEvents(f, source_name, timestamped, sink, progress,
                     progress_every, writer, resume);
}

Result<DriveReport> StreamDriver::DriveBuffer(std::string_view data,
                                              const std::string& source_name,
                                              bool timestamped,
                                              StreamSink& sink) const {
  return DriveEvents(data, source_name, timestamped, sink, nullptr, 0,
                     nullptr, nullptr);
}

Result<DriveReport> StreamDriver::DriveFile(
    const std::string& path, bool timestamped, StreamSink& sink,
    CheckpointWriter* writer, const CheckpointManifest* resume) const {
#if SWSAMPLE_HAVE_MMAP
  // Fast path: map regular files read-only and parse in place — no
  // per-line copies, no stdio locking, and the kernel readahead streams
  // pages in under MADV_SEQUENTIAL.
  auto fd_or = OpenReadFd("ingest.open", path);
  if (!fd_or.ok()) return fd_or.status();
  const int fd = fd_or.value();
  struct stat st;
  // The SIZE_MAX guard keeps a >4 GiB file on an ILP32 build from being
  // silently truncated by the size_t cast — such files take the stdio
  // path instead.
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0 &&
      static_cast<uint64_t>(st.st_size) <= SIZE_MAX) {
    const size_t size = static_cast<size_t>(st.st_size);
    void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      ::madvise(map, size, MADV_SEQUENTIAL);
      auto result = DriveEvents(
          std::string_view(static_cast<const char*>(map), size), path,
          timestamped, sink, nullptr, 0, writer, resume);
      ::munmap(map, size);
      ::close(fd);
      return result;
    }
  }
  ::close(fd);
  // Fall through: empty files, pipes/devices, or mmap failure use stdio.
#endif
  auto f_or = OpenStdioFile("ingest.open", path);
  if (!f_or.ok()) return f_or.status();
  std::FILE* f = f_or.value();
  auto result =
      DriveEvents(f, path, timestamped, sink, nullptr, 0, writer, resume);
  std::fclose(f);
  return result;
}

}  // namespace swsample
