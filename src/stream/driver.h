// Copyright (c) swsample authors. Licensed under the MIT license.

/// \file
/// Batched ingestion engine: feeds generated or file-backed streams through
/// any StreamSink — a sampler from the sampler registry or an estimator
/// from the estimator registry — in batches, and reports throughput and
/// live memory. This is the one place single-threaded harness code pumps
/// items from — benchmarks, examples and the CLI share it — and the
/// sharded engine (stream/sharded_driver.h) reuses its line grammar, so
/// the two backends stay drop-in interchangeable at call sites.
///
/// Ownership: a driver borrows the sink only for the duration of one
/// Drive* call and holds no state between calls.
///
/// Thread-safety: a StreamDriver is immutable after construction and may
/// be shared across threads, but each Drive* call pumps one sink from the
/// calling thread — drive a given sink from one thread at a time.
///
/// Status conventions: unreadable files and malformed input return
/// InvalidArgument through Result<DriveReport> with "source:line"-prefixed
/// messages (e.g. `events.txt:17: malformed event line (expected
/// "<timestamp> <value>")`); Drive cannot fail and returns a plain
/// report.

#ifndef SWSAMPLE_STREAM_DRIVER_H_
#define SWSAMPLE_STREAM_DRIVER_H_

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/api.h"
#include "stream/checkpoint.h"
#include "stream/item.h"
#include "util/bits.h"
#include "util/status.h"

namespace swsample {

/// What one Drive* call did, with wall-clock throughput.
struct DriveReport {
  uint64_t items = 0;            ///< arrivals delivered
  uint64_t batches = 0;          ///< ObserveBatch (or Observe-run) calls
  double seconds = 0.0;          ///< wall-clock ingestion time
  double items_per_sec = 0.0;    ///< items / seconds (0 when instant)
  uint64_t memory_words = 0;     ///< sink MemoryWords() after the run
  uint64_t peak_memory_words = 0;  ///< max MemoryWords() across probes
  /// Per-ObserveBatch wall-clock percentiles, only populated when
  /// Options::track_batch_latency is set (the bench reporter's tail
  /// statistic); 0 otherwise.
  double p50_batch_seconds = 0.0;
  double p99_batch_seconds = 0.0;
  /// Transient-I/O retries spent (and retry budgets exhausted) by the
  /// checkpoint writer during a checkpointed drive; 0 otherwise.
  uint64_t io_retries = 0;
  uint64_t io_giveups = 0;
};

/// Drives streams through a sampler or estimator in batches.
class StreamDriver {
 public:
  struct Options {
    /// Items per ObserveBatch call; 0 means per-item Observe (the slow
    /// path, kept selectable so benchmarks can compare the two).
    uint64_t batch_size = 1024;
    /// Probe MemoryWords() every this many batches for the peak statistic;
    /// 0 probes only once at the end (probing an O(n) oracle is not free).
    uint64_t memory_probe_every = 16;
    /// Record every batch's delivery latency and report p50/p99 in the
    /// DriveReport. Off by default: the timestamp pair per batch is cheap
    /// but not free, and only the bench reporter wants the tail.
    bool track_batch_latency = false;
  };

  StreamDriver() : StreamDriver(Options{}) {}
  explicit StreamDriver(const Options& options);

  /// Feeds a pre-materialized run of consecutive items.
  DriveReport Drive(std::span<const Item> items, StreamSink& sink) const;

  /// Called every `progress_every` items (pending batches are flushed
  /// first, so the sink state reflects everything delivered so far).
  using ProgressFn = std::function<void(uint64_t items)>;

  /// Feeds a text stream, one event per line: "<value>" when
  /// `timestamped` is false (timestamp := arrival index) or
  /// "<timestamp> <value>" with non-decreasing timestamps when true.
  /// Blank (whitespace-only) lines are skipped; a malformed line, an
  /// over-long line, or a decreasing timestamp is an InvalidArgument
  /// error reported against `source_name` with its line number; so is a
  /// read error on `f`, which never passes for the end of the stream.
  ///
  /// Crash recovery: `writer` (nullable = off) takes periodic checkpoints,
  /// only at batch boundaries, so a resumed run's batch segmentation — and
  /// therefore its RNG draws — is identical to an uninterrupted run's and
  /// the final state is bit-identical. Each checkpoint is captured at the
  /// boundary and committed on the writer's commit thread while ingestion
  /// goes on; the call joins the last commit before it returns, and a
  /// failed commit fails the drive. `resume` (nullable) is the position
  /// of a checkpoint read back with LoadCheckpoint (stream/checkpoint.h),
  /// and `sink` the sink restored from it: the input must replay the
  /// stream from the beginning, its first `resume->items` events are
  /// parsed but not delivered, and indices continue from there. Progress
  /// flushes move batch boundaries, so leave `progress` unset when
  /// checkpointing. The report counts only items delivered by THIS call.
  Result<DriveReport> DriveLines(std::FILE* f, const std::string& source_name,
                                 bool timestamped, StreamSink& sink,
                                 const ProgressFn& progress = nullptr,
                                 uint64_t progress_every = 0,
                                 CheckpointWriter* writer = nullptr,
                                 const CheckpointManifest* resume = nullptr)
      const;

  /// Zero-copy ingestion over an in-memory text buffer with the DriveLines
  /// grammar: events are parsed straight out of `data` (no per-line
  /// std::string, no stdio), errors carry the same "source:line" messages.
  Result<DriveReport> DriveBuffer(std::string_view data,
                                  const std::string& source_name,
                                  bool timestamped, StreamSink& sink) const;

  /// DriveLines over a file path, checkpointing and resuming alike.
  /// Regular files are mmap'ed and parsed in place (zero-copy); pipes,
  /// devices and platforms without mmap are read through stdio. Both run
  /// EventLineScanner, so items, errors, line numbers and checkpoints are
  /// identical on every input.
  Result<DriveReport> DriveFile(const std::string& path, bool timestamped,
                                StreamSink& sink,
                                CheckpointWriter* writer = nullptr,
                                const CheckpointManifest* resume = nullptr)
      const;

  const Options& options() const { return options_; }

 private:
  /// Shared pump: delivers buffered items, tracks batches + peak memory.
  class Pump;

  /// The one event loop behind DriveLines, DriveBuffer and DriveFile;
  /// `input` is a std::FILE* or a std::string_view.
  template <typename Input>
  Result<DriveReport> DriveEvents(Input input, const std::string& source_name,
                                  bool timestamped, StreamSink& sink,
                                  const ProgressFn& progress,
                                  uint64_t progress_every,
                                  CheckpointWriter* writer,
                                  const CheckpointManifest* resume) const;

  Options options_;
};

/// Allocation-free core of the event-line grammar: how one line failed to
/// parse, if it did. Error strings are built lazily (LineParseError) only
/// on the failing line — successfully parsed lines allocate nothing.
enum class LineParse {
  kOk,           ///< *value (and *ts when timestamped) are set
  kBlank,        ///< whitespace-only line; skip it
  kMalformed,    ///< not "<value>" / "<timestamp> <value>"
  kNonMonotone,  ///< timestamp decreased
};

/// Parses the event on [begin, end) (one line, no terminator) with a
/// tight digit loop over the raw bytes — no sscanf, no locale, no copies.
/// Grammar matches the historical sscanf forms: optional whitespace,
/// optional sign, digits; trailing bytes after the last field ignored.
LineParse ParseEventSpan(const char* begin, const char* end, bool timestamped,
                         Timestamp last_ts, uint64_t* value, Timestamp* ts);

/// Builds the InvalidArgument status for a failed line (cold path).
Status LineParseError(LineParse failure, const std::string& source_name,
                      uint64_t line_no, bool timestamped);

/// Builds the InvalidArgument status for a line that does not fit a
/// `line_cap`-byte line buffer (cold path).
Status LineTooLongError(const std::string& source_name, uint64_t line_no,
                        size_t line_cap);

/// Line buffer size of the event-line grammar: a line of more than
/// kEventLineCap - 2 characters (terminator excluded) is rejected.
inline constexpr size_t kEventLineCap = 256;

/// Parses one NUL-terminated `line` (as read into a buffer of `line_cap`
/// bytes) into (*value, *ts) with the event-line grammar, enforcing
/// non-decreasing timestamps against `last_ts` when `timestamped`. Blank
/// (whitespace-only) lines set *skip and touch nothing else. Over-long
/// and malformed lines return InvalidArgument mentioning
/// `source_name:line_no`. The drivers use EventLineScanner; this per-line
/// form serves callers that read lines themselves.
Status ParseEventLine(const char* line, size_t line_cap, bool timestamped,
                      const std::string& source_name, uint64_t line_no,
                      Timestamp last_ts, uint64_t* value, Timestamp* ts,
                      bool* skip);

/// The event-line scanner every text ingestion path runs: over a whole
/// buffer (mmap'ed files, DriveBuffer) or over blocks of a FILE*. It
/// numbers lines, assigns arrival indices from 0 (also the
/// timestamps of sequence-mode events), checks timestamp order, and hands
/// each event to `on_event(const Item&)`; a non-OK Status from it stops
/// the scan and is returned. A NUL ends the parsed part of its line, but
/// the line runs on to its newline and its full length counts against
/// kEventLineCap.
class EventLineScanner {
 public:
  EventLineScanner(std::string source_name, bool timestamped)
      : source_name_(std::move(source_name)), timestamped_(timestamped) {}

  /// Scans the lines of [*pos, end). Unless `at_eof`, the bytes after the
  /// last newline are an incomplete line: it is left unparsed, with *pos
  /// at its start, for the caller to carry into the next block. Otherwise
  /// *pos reaches `end`.
  template <typename OnEvent>
  Status Scan(const char** pos, const char* end, bool at_eof,
              OnEvent&& on_event) {
    // The counters live in locals for the loop: as members they would be
    // stored and reloaded around every on_event call.
    StreamIndex index = index_;
    Timestamp last_ts = last_ts_;
    uint64_t line_no = line_no_;
    Status status;
    const char* p = *pos;
    while (p != end) {
      uint64_t value = 0;
      Timestamp ts = 0;
      LineParse parsed = LineParse::kOk;
      const char* next = end - p >= kFastShapeBytes
                             ? MatchFastShape(p, last_ts, &value, &ts)
                             : nullptr;
      if (next == nullptr) {
        // The general path. One word-wise scan finds whichever of '\n' or
        // '\0' comes first; only after a stray NUL does a second pass
        // look for the newline.
        const char* const line_end = FindNewlineOrNul(p, end);
        const char* const nl = line_end == end || *line_end == '\n'
                                   ? line_end
                                   : std::find(line_end, end, '\n');
        const bool too_long =
            static_cast<size_t>(nl - p) + 1 >= kEventLineCap;
        if (nl == end && !at_eof && !too_long) break;  // carry the tail
        if (too_long) {
          status = LineTooLongError(source_name_, ++line_no, kEventLineCap);
          break;
        }
        parsed =
            ParseEventSpan(p, line_end, timestamped_, last_ts, &value, &ts);
        next = nl == end ? end : nl + 1;
      }
      ++line_no;
      if (parsed == LineParse::kOk) {
        if (timestamped_) {
          last_ts = ts;
        } else {
          ts = static_cast<Timestamp>(index);
        }
        if (Status s = on_event(Item{value, index++, ts}); !s.ok()) {
          status = std::move(s);
          break;
        }
      } else if (parsed != LineParse::kBlank) {
        status = LineParseError(parsed, source_name_, line_no, timestamped_);
        break;
      }
      p = next;
    }
    index_ = index;
    last_ts_ = last_ts;
    line_no_ = line_no;
    *pos = p;
    return status;
  }

  /// Scans all of `data`.
  template <typename OnEvent>
  Status ScanAll(std::string_view data, OnEvent&& on_event) {
    const char* p = data.data();
    return Scan(&p, p + data.size(), /*at_eof=*/true, on_event);
  }

  /// Scans all of `f`, read in fixed-size blocks; each block's incomplete
  /// last line is carried into the next, so pipes work as files do. A
  /// read error is an InvalidArgument naming the source and the errno
  /// text: the stream position is lost, so it is not retryable.
  template <typename OnEvent>
  Status ScanAll(std::FILE* f, OnEvent&& on_event) {
    constexpr size_t kBlock = size_t{64} << 10;
    // A carried tail is shorter than kEventLineCap (longer is an error).
    std::vector<char> buffer(kEventLineCap + kBlock);
    size_t carry = 0;
    for (;;) {
      errno = 0;
      const size_t got = std::fread(buffer.data() + carry, 1, kBlock, f);
      const bool at_eof = got < kBlock;  // short reads only at EOF/error
      if (at_eof && std::ferror(f) != 0) {
        return Status::InvalidArgument(
            source_name_ + ": read error: " +
            std::strerror(errno != 0 ? errno : EIO));
      }
      const char* p = buffer.data();
      const char* const end = p + carry + got;
      if (Status s = Scan(&p, end, at_eof, on_event); !s.ok()) return s;
      if (at_eof) return Status::Ok();
      carry = static_cast<size_t>(end - p);
      std::memmove(buffer.data(), p, carry);
    }
  }

  /// ScanAll for a run resuming from checkpoint position `resume`
  /// (nullable: a fresh run, every event delivered). The input must
  /// replay the stream from the beginning: its first `resume->items`
  /// events were ingested before the checkpoint, so they are parsed but
  /// not handed to `deliver`, and the scan fails if the clock at the
  /// handoff differs from the checkpoint's or the input ends early.
  /// Delivered items continue the checkpoint's index numbering.
  template <typename Input, typename Deliver>
  Status ScanFrom(Input input, const CheckpointManifest* resume,
                  Deliver&& deliver) {
    if (resume == nullptr) return ScanAll(input, deliver);
    const uint64_t skip = resume->items;
    bool diverged = false;
    const Status status = ScanAll(input, [&](const Item& item) -> Status {
      if (item.index >= skip) return deliver(item);
      if (item.index + 1 == skip && timestamped_ &&
          item.timestamp != resume->last_ts) {
        diverged = true;
        // Stops the scan; the message below names the line it stopped on.
        return Status::InvalidArgument("diverged");
      }
      return Status::Ok();
    });
    if (diverged) {
      return Status::InvalidArgument(
          source_name_ + ":" + std::to_string(line_no_) +
          ": replayed input does not match the checkpoint (timestamp "
          "diverges at the resume point)");
    }
    if (!status.ok()) return status;
    if (index_ < skip) {
      return Status::InvalidArgument(
          source_name_ + ": replayed input ends before the checkpoint's " +
          std::to_string(skip) + " ingested events");
    }
    return Status::Ok();
  }

 private:
  /// Readable bytes MatchFastShape needs at a line start: 16 per field.
  static constexpr std::ptrdiff_t kFastShapeBytes = 32;

  /// Reads a field of 1-15 ASCII digits at `p` ended by `terminator`,
  /// with two 8-byte loads (16 readable bytes at `p`). Returns the byte
  /// after the terminator, or nullptr when the bytes are not that shape.
  static const char* MatchDigitField(const char* p, char terminator,
                                     uint64_t* value) {
    static constexpr uint32_t kPow10[8] = {1,      10,      100,     1000,
                                           10000,  100000,  1000000, 10000000};
    uint64_t lo = 0;
    uint64_t hi = 0;
    __builtin_memcpy(&lo, p, 8);
    __builtin_memcpy(&hi, p + 8, 8);
    const uint64_t lo_mask = NonDigitMask(lo);
    const uint32_t digits =
        lo_mask != 0
            ? static_cast<uint32_t>(std::countr_zero(lo_mask)) >> 3
            : 8 + (static_cast<uint32_t>(
                       std::countr_zero(NonDigitMask(hi))) >> 3);
    if (digits == 0 || digits == 16 || p[digits] != terminator) {
      return nullptr;
    }
    *value = digits <= 8 ? ParseDigits(lo, digits)
             : uint64_t{ParseEightDigits(lo)} * kPow10[digits - 8] +
                   ParseDigits(hi, digits - 8);
    return p + digits + 1;
  }

  /// The common line shape, recognised before the general path runs:
  /// "<digits> <digits>\n" when timestamped, else "<digits>\n", each
  /// field 1-15 digits, and a timestamp no smaller than `last_ts`. Needs
  /// kFastShapeBytes readable bytes at `p`. On a match sets *value (and
  /// *ts) as ParseEventSpan would and returns the next line's start;
  /// otherwise returns nullptr and the line takes the general path, which
  /// alone defines the grammar.
  const char* MatchFastShape(const char* p, Timestamp last_ts,
                             uint64_t* value, Timestamp* ts) const {
    if constexpr (std::endian::native != std::endian::little) {
      return nullptr;
    }
    if (!timestamped_) return MatchDigitField(p, '\n', value);
    uint64_t ts_digits = 0;
    const char* const q = MatchDigitField(p, ' ', &ts_digits);
    // 15 digits stay below INT64_MAX, so the timestamp never saturates.
    if (q == nullptr || static_cast<Timestamp>(ts_digits) < last_ts) {
      return nullptr;
    }
    *ts = static_cast<Timestamp>(ts_digits);
    return MatchDigitField(q, '\n', value);
  }

  const std::string source_name_;
  const bool timestamped_;
  StreamIndex index_ = 0;
  Timestamp last_ts_ = 0;
  uint64_t line_no_ = 0;
};

}  // namespace swsample

#endif  // SWSAMPLE_STREAM_DRIVER_H_
