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
// Layout: the bucket list is stored as two parallel rings (SoA) -- newest-
// arrival timestamps and power-of-two counts -- plus a per-size-class
// bucket counter. The counter turns the DGIM merge rule into O(1)
// amortized work per Add (the two oldest buckets of an overflowing class
// sit at a directly computable ring position, no scan), and expiry sweeps
// touch only the dense timestamp ring.

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
  uint64_t BucketCount() const { return count_.size(); }

  /// Live memory words (one timestamp + one count per bucket).
  uint64_t MemoryWords() const { return 3 + count_.size() * 2; }

  /// Heap bytes retained beyond the object footprint (both SoA rings'
  /// buffers).
  uint64_t RetainedBytes() const {
    return newest_.ReservedBytes() + count_.ReservedBytes();
  }

  /// Checkpointing: clock + buckets (t0/eps are configuration and live in
  /// the owning estimator's envelope). The byte format is unchanged from
  /// the AoS layout: (newest, count) pairs, oldest first. Load validates
  /// bucket monotonicity and power-of-two counts; see util/serial.h.
  void Save(BinaryWriter* w) const;
  bool Load(BinaryReader* r);

 private:
  ExpHistogram(Timestamp t0, uint64_t max_per_size)
      : t0_(t0), max_per_size_(max_per_size) {
    class_count_.fill(0);
  }

  void EvictExpired();
  void MergeCascade();

  Timestamp t0_;
  uint64_t max_per_size_;  // k/2 + 2 with k = ceil(1/eps)
  Timestamp now_ = 0;
  uint64_t total_ = 0;  // sum of all bucket counts (maintained)
  // SoA bucket list, front = oldest. Counts are powers of two,
  // non-increasing from the front; newest-arrival timestamps are
  // non-decreasing. Buckets of one size class are contiguous.
  RingDeque<Timestamp> newest_;
  RingDeque<uint64_t> count_;
  // class_count_[c] = number of buckets with count 2^c. The oldest bucket
  // of class c sits at ring index sum(class_count_[d] for d > c).
  std::array<uint32_t, 64> class_count_;
};

}  // namespace swsample

#endif  // SWSAMPLE_STREAM_EXP_HISTOGRAM_H_
