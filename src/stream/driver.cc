// Copyright (c) swsample authors. Licensed under the MIT license.

#include "stream/driver.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cinttypes>
#include <cstring>

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
}  // namespace

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

Status ParseEventLine(const char* line, size_t line_cap, bool timestamped,
                      const std::string& source_name, uint64_t line_no,
                      Timestamp last_ts, uint64_t* value, Timestamp* ts,
                      bool* skip) {
  *skip = false;
  const size_t len = std::strlen(line);
  if (len + 1 == line_cap && line[len - 1] != '\n') {
    return Status::InvalidArgument(
        source_name + ":" + std::to_string(line_no) +
        ": event line too long (limit " + std::to_string(line_cap - 2) +
        " characters)");
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
  EventLineScanner scanner(source_name, timestamped);
  const Status status =
      scanner.ScanFrom(input, resume, [&](const Item& item) -> Status {
        pump.Push(item);
        if (!hooked) return Status::Ok();
        const uint64_t delivered = item.index + 1;
        // Checkpoints only at batch boundaries — see Pump::buffered().
        if (writer != nullptr && pump.buffered() == 0 &&
            writer->Due(delivered)) {
          CheckpointManifest manifest;
          manifest.items = delivered;
          manifest.last_ts = timestamped ? item.timestamp : 0;
          manifest.shard_items = {delivered};
          if (Status s = writer->Write(manifest, sinks); !s.ok()) return s;
        }
        if (progress && progress_every && delivered % progress_every == 0) {
          pump.Flush();
          progress(delivered);
        }
        return Status::Ok();
      });
  if (!status.ok()) return status;
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
