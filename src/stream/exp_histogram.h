// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Exponential histograms -- Datar, Gionis, Indyk, Motwani (SODA'02), the
// paper's reference [31] and the companion substrate for its negative
// result: the EXACT number of active elements in a timestamp window cannot
// be maintained in sublinear space, but a (1 +/- eps) approximation can,
// in O(eps^-1 log^2 n) bits. swsample uses it to run count-consuming
// estimators (AMS frequency moments, entropy) over TIMESTAMP windows,
// where the window size n(t) that the sequence-based estimators take for
// granted is unknowable.
//
// Structure: per arrival a size-1 bucket (timestamp, count) is appended;
// whenever more than ceil(1/eps)/2 + 2 buckets of one size exist, the two
// oldest of that size merge into one of double size. The window count is
// the sum of all non-expired buckets, counting the oldest (straddling)
// bucket at half weight -- relative error at most eps.
//
// Layout: class c (count 2^c, implied by the class) keeps its buckets'
// newest-arrival timestamps, oldest first, in its own FIFO ring -- one row
// of a shared buffer, at most max_per_size_ + 1 slots. A merge pops the
// two fronts of class c and pushes the newer timestamp onto class c+1's
// back: O(1), and merges never outnumber Adds. The oldest bucket heads the
// highest non-empty class (one bit scan), so expiry and Estimate are O(1)
// per bucket dropped.

#ifndef SWSAMPLE_STREAM_EXP_HISTOGRAM_H_
#define SWSAMPLE_STREAM_EXP_HISTOGRAM_H_

#include <array>
#include <cstdint>

#include "stream/item.h"
#include "util/ring_deque.h"
#include "util/serial.h"
#include "util/status.h"

namespace swsample {

/// (1 +/- eps)-approximate count of arrivals within the last t0 time units.
class ExpHistogram {
 public:
  /// Creates a histogram for window length `t0` >= 1 with relative error
  /// `eps` in (0, 1].
  static Result<ExpHistogram> Create(Timestamp t0, double eps);

  /// Records one arrival at time `ts` (non-decreasing). O(1) amortized.
  void Add(Timestamp ts);

  /// Advances the clock without arrivals.
  void AdvanceTime(Timestamp now);

  /// (1 +/- eps) estimate of the number of active arrivals. O(1) beyond
  /// the expiry sweep (a running total is maintained across mutations).
  uint64_t Estimate();

  /// Number of buckets held (O(eps^-1 log n)).
  uint64_t BucketCount() const;

  /// Live memory words, in the paper's accounting of one timestamp and
  /// one count per bucket (here the count is implied by the class).
  uint64_t MemoryWords() const { return 3 + BucketCount() * 2; }

  /// Heap bytes retained beyond the object footprint (the class rings).
  uint64_t RetainedBytes() const {
    return rows_ * stride_ * sizeof(Timestamp);
  }

  /// Checkpointing: clock + buckets (t0/eps are configuration and live in
  /// the owning estimator's envelope), as (newest, count) pairs, oldest
  /// first. Load validates bucket monotonicity, power-of-two counts and
  /// at most max_per_size_ buckets per class; see util/serial.h.
  void Save(BinaryWriter* w) const;
  bool Load(BinaryReader* r);

 private:
  ExpHistogram(Timestamp t0, uint64_t max_per_size)
      : t0_(t0), max_per_size_(max_per_size) {}
  /// Buffer index of the i-th oldest bucket of class c.
  uint64_t Slot(uint32_t c, uint64_t i) const {
    const uint64_t pos = head_[c] + i;
    return c * stride_ + (pos < stride_ ? pos : pos - stride_);
  }
  void Push(uint32_t c, Timestamp newest) {
    if (c >= rows_ || size_[c] == stride_) Grow(c);
    slots_[Slot(c, size_[c]++)] = newest;
    nonempty_ |= uint64_t{1} << c;
  }
  void PopFront(uint32_t c) {
    head_[c] = head_[c] + 1 == stride_ ? 0 : head_[c] + 1;
    if (--size_[c] == 0) nonempty_ &= ~(uint64_t{1} << c);
  }
  void Grow(uint32_t c);

  Timestamp t0_;
  uint64_t max_per_size_;  // k/2 + 2 with k = ceil(1/eps), below 2^32
  Timestamp now_ = 0;
  uint64_t total_ = 0;     // sum of all bucket counts (maintained)
  uint64_t nonempty_ = 0;  // bit c set iff class c holds a bucket
  UninitArray<Timestamp> slots_;  // rows_ rings of stride_ slots
  uint32_t rows_ = 0;
  uint64_t stride_ = 0;
  std::array<uint32_t, 64> head_{};  // ring offset of class c's oldest
  std::array<uint32_t, 64> size_{};  // buckets in class c
};

}  // namespace swsample

#endif  // SWSAMPLE_STREAM_EXP_HISTOGRAM_H_
