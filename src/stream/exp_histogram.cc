// Copyright (c) swsample authors. Licensed under the MIT license.

#include "stream/exp_histogram.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/bits.h"
#include "util/macros.h"

namespace swsample {

Result<ExpHistogram> ExpHistogram::Create(Timestamp t0, double eps) {
  if (t0 < 1) {
    return Status::InvalidArgument("ExpHistogram: t0 must be >= 1");
  }
  if (!(eps > 0.0 && eps <= 1.0)) {
    return Status::InvalidArgument("ExpHistogram: eps must be in (0, 1]");
  }
  // k is capped at 2^32 so the cast is defined and offsets fit 32 bits.
  const double k = std::min(std::ceil(1.0 / eps), 0x1p32);
  return ExpHistogram(t0, static_cast<uint64_t>(k) / 2 + 2);
}

void ExpHistogram::Grow(uint32_t c) {
  // Rows are added as classes are reached and the stride doubles up to
  // max_per_size_ + 1, so a tiny eps reserves little for a small state.
  const uint64_t stride =
      size_[c] < stride_
          ? stride_
          : std::min(std::max<uint64_t>(2 * stride_, 8), max_per_size_ + 1);
  SWS_DCHECK(size_[c] < stride);
  const uint32_t rows = std::max(rows_, c + 1);
  UninitArray<Timestamp> fresh = AllocateUninit<Timestamp>(rows * stride);
  for (uint32_t d = 0; d < rows_; ++d) {
    for (uint32_t i = 0; i < size_[d]; ++i) {
      fresh[d * stride + i] = slots_[Slot(d, i)];
    }
    head_[d] = 0;
  }
  slots_ = std::move(fresh);
  rows_ = rows;
  stride_ = stride;
}

void ExpHistogram::Add(Timestamp ts) {
  // Out-of-order contract (see StreamSink): count a regressed timestamp as
  // arriving at the current clock so bucket timestamps stay non-decreasing.
  if (ts < now_) ts = now_;
  AdvanceTime(ts);
  Push(0, ts);
  ++total_;
  // DGIM merge rule: overflows cascade upward from class 0. The two oldest
  // buckets of class c become the newest of class c+1, which keeps the
  // newer one's timestamp.
  for (uint32_t c = 0; c < 63 && size_[c] > max_per_size_; ++c) {
    PopFront(c);
    const Timestamp newest = slots_[Slot(c, 0)];
    PopFront(c);
    Push(c + 1, newest);
  }
}

void ExpHistogram::AdvanceTime(Timestamp now) {
  if (now < now_) return;  // clock regressions are no-ops (see StreamSink)
  now_ = now;
  // A bucket is dropped once even its NEWEST element expired; the oldest
  // surviving bucket may straddle the window boundary, which is where the
  // eps error comes from. The oldest bucket heads the top class's ring.
  while (nonempty_ != 0) {
    const uint32_t top = FloorLog2(nonempty_);
    if (now_ - slots_[Slot(top, 0)] < t0_) return;
    total_ -= uint64_t{1} << top;
    PopFront(top);
  }
}

void ExpHistogram::Save(BinaryWriter* w) const {
  // Oldest first: classes from the top down, each ring front to back.
  w->PutI64(now_);
  w->PutU64(BucketCount());
  for (uint32_t c = 64; c-- > 0;) {
    for (uint32_t i = 0; i < size_[c]; ++i) {
      w->PutI64(slots_[Slot(c, i)]);
      w->PutU64(uint64_t{1} << c);
    }
  }
}

bool ExpHistogram::Load(BinaryReader* r) {
  uint64_t size = 0;
  if (!r->GetI64(&now_) || now_ < 0 || !r->GetU64(&size) ||
      size > r->remaining() / 16 + 1) {
    return false;
  }
  head_.fill(0);
  size_.fill(0);
  nonempty_ = 0;
  total_ = 0;
  Timestamp last_newest = 0;  // the previous bucket's fields
  uint64_t last_count = ~uint64_t{0};
  for (uint64_t i = 0; i < size; ++i) {
    Timestamp newest = 0;
    uint64_t count = 0;
    // Counts are powers of two, non-increasing oldest to newest, at most
    // max_per_size_ per class (as Add leaves them); timestamps are
    // non-decreasing, non-negative (so the expiry subtraction cannot
    // overflow) and not expired.
    if (!r->GetI64(&newest) || !r->GetU64(&count) || !IsPowerOfTwo(count) ||
        newest < 0 || newest > now_ || now_ - newest >= t0_ ||
        count > last_count || newest < last_newest ||
        size_[FloorLog2(count)] == max_per_size_) {
      return false;
    }
    Push(FloorLog2(count), newest);
    total_ += count;
    last_newest = newest;
    last_count = count;
  }
  return true;
}

uint64_t ExpHistogram::BucketCount() const {
  return std::accumulate(size_.begin(), size_.end(), uint64_t{0});
}

uint64_t ExpHistogram::Estimate() {
  AdvanceTime(now_);
  if (nonempty_ == 0) return 0;
  // Count the straddling oldest bucket at half weight.
  return total_ - (uint64_t{1} << FloorLog2(nonempty_)) / 2;
}

}  // namespace swsample
