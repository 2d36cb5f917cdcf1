// Copyright (c) swsample authors. Licensed under the MIT license.

#include "core/covering_decomposition.h"

#include "util/bits.h"
#include "util/macros.h"

namespace swsample {

StreamIndex CoveringDecomposition::a() const {
  SWS_DCHECK(!buckets_.empty());
  return buckets_.front().x;
}

StreamIndex CoveringDecomposition::b() const {
  SWS_DCHECK(!buckets_.empty());
  return buckets_.back().y - 1;
}

void CoveringDecomposition::InitFromItem(const Item& item) {
  SWS_DCHECK(buckets_.empty());
  buckets_.push_back(BucketStructure::ForItem(item));
  first_ts_.push_back(item.timestamp);
}

namespace {

/// The two Incr overloads share one body; `coin()` abstracts where the
/// fair merge coins come from (direct BernoulliRational draws vs a
/// CoinSource bit cache).
///
/// Closed form of the paper's level-by-level walk (see the header): with
/// covered width cw = b_old + 1 - a, the walk merges at level i iff the
/// width W_i covered from level i is all-ones, merges cascade once they
/// start, and the first all-ones value reached from cw is
/// 2^(countr_one(cw)+1) - 1. So the number of pairwise merges is
/// j = countr_one(cw), minus one when cw itself is all-ones (the cascade
/// then starts at cw and ends one level earlier, at W = 1, the final
/// single-element bucket that is never merged). Even cw: j = 0. The
/// merged pairs are the 2j buckets immediately before the last bucket,
/// processed in increasing index order — the same order (and hence the
/// same coin sequence) as the walk.
template <typename CoinFn>
void IncrImpl(RingDeque<BucketStructure>& buckets,
              RingDeque<Timestamp>& first_ts, const Item& item,
              CoinFn&& coin) {
  SWS_DCHECK(!buckets.empty());
  const StreamIndex b_old = buckets.back().y - 1;
  SWS_DCHECK(item.index == b_old + 1);
  const uint64_t cw = b_old + 1 - buckets.front().x;
  const unsigned t = static_cast<unsigned>(std::countr_one(cw));
  const uint64_t j = t - ((cw >> t) == 0 ? 1 : 0);
  if (j > 0) {
    const size_t size = buckets.size();
    SWS_DCHECK(2 * j < size);
    size_t src = size - 1 - 2 * j;
    size_t dst = src;
    for (uint64_t p = 0; p < j; ++p, src += 2, ++dst) {
      // Unify BS(a_i, c) and BS(c, d): equal widths by the Section 3.2
      // arithmetic, so a fair coin keeps the merged samples uniform; R and
      // Q use independent coins to preserve their mutual independence.
      BucketStructure& first = buckets[src];
      const BucketStructure& second = buckets[src + 1];
      SWS_DCHECK(first.y == second.x);
      SWS_DCHECK(first.width() == second.width());
      if (coin()) first.r = second.r;
      if (coin()) first.q = second.q;
      first.y = second.y;
      if (dst != src) {
        buckets[dst] = first;
        first_ts[dst] = first_ts[src];
      }
    }
    // The last (single-element) bucket survives every merge; compact it
    // down next to the merged pairs and drop the j vacated slots.
    buckets[dst] = buckets[size - 1];
    first_ts[dst] = first_ts[size - 1];
    buckets.pop_back_n(j);
    first_ts.pop_back_n(j);
  }
  SWS_DCHECK(buckets.back().x == b_old);  // tail is zeta(b, b)
  buckets.push_back(BucketStructure::ForItem(item));
  first_ts.push_back(item.timestamp);
}

}  // namespace

void CoveringDecomposition::Incr(const Item& item, Rng& rng) {
  IncrImpl(buckets_, first_ts_, item,
           [&rng] { return !rng.BernoulliRational(1, 2); });
}

void CoveringDecomposition::Incr(const Item& item, CoinSource& coins) {
  IncrImpl(buckets_, first_ts_, item, [&coins] { return coins.Coin(); });
}

namespace {

/// Uniform sample of final bucket [x, y): draw an index, then resolve it
/// against the old buckets [obs, obe) (returning the matching atom via
/// `pick`) or the new run. Old content, if any, starts exactly at x and
/// ends at new_start (bucket boundaries only coarsen, so old buckets nest
/// inside final ones).
template <typename PickFn>
Item ComposeSample(const RingDeque<BucketStructure>& buckets, StreamIndex x,
                   StreamIndex y, size_t obs, size_t obe,
                   StreamIndex new_start, std::span<const Item> run, Rng& rng,
                   PickFn&& pick) {
  const uint64_t idx = x + rng.UniformIndex(y - x);
  if (idx >= new_start) return run[idx - new_start];
  for (size_t i = obs; i < obe; ++i) {
    if (idx < buckets[i].y) return pick(buckets[i]);
  }
  SWS_CHECK(false);  // unreachable: old buckets tile [x, new_start)
  return run.front();
}

}  // namespace

void CoveringDecomposition::ExtendRun(std::span<const Item> run, Rng& rng) {
  if (run.empty()) return;
  SWS_DCHECK(!buckets_.empty());
  SWS_DCHECK(run.front().index == b() + 1);
  const StreamIndex new_start = run.front().index;
  const StreamIndex b_new = run.back().index;
  const size_t old_count = buckets_.size();
  // The final list is rebuilt in place. A final bucket that starts before
  // new_start starts on an old boundary and absorbs at least one old
  // bucket, so final bucket `out` is written only after old buckets
  // [0, out] have been read.
  size_t out = 0;
  size_t ob = 0;  // next unconsumed old bucket
  StreamIndex x = a();
  uint64_t rem = b_new + 1 - x;
  while (rem > 0) {
    // Definition 3.1 boundary: first width 2^(floor(log2(rem)) - 1).
    const uint64_t bw = rem == 1 ? 1 : Pow2(FloorLog2(rem) - 1);
    const StreamIndex y = x + bw;
    const size_t obs = ob;
    while (ob < old_count && buckets_[ob].x < y) ++ob;
    SWS_DCHECK(obs == ob || buckets_[obs].x == x);
    SWS_DCHECK(ob == old_count || buckets_[ob].x >= y);
    SWS_DCHECK(obs == old_count || out <= obs);
    BucketStructure bs;
    if (y <= new_start && ob == obs + 1 && buckets_[obs].y == y) {
      // An old bucket that survives unchanged: keep its samples (the item
      // path would not have merged it either).
      bs = buckets_[obs];
    } else {
      bs.x = x;
      bs.y = y;
      bs.first_ts = obs < ob ? buckets_[obs].first_ts
                             : run[x - new_start].timestamp;
      bs.r = ComposeSample(buckets_, x, y, obs, ob, new_start, run, rng,
                           [](const BucketStructure& o) { return o.r; });
      bs.q = ComposeSample(buckets_, x, y, obs, ob, new_start, run, rng,
                           [](const BucketStructure& o) { return o.q; });
    }
    if (out < buckets_.size()) {
      buckets_[out] = bs;
      first_ts_[out] = bs.first_ts;
    } else {
      buckets_.push_back(bs);
      first_ts_.push_back(bs.first_ts);
    }
    ++out;
    x = y;
    rem -= bw;
  }
  SWS_DCHECK(ob == old_count);
  buckets_.pop_back_n(buckets_.size() - out);
  first_ts_.pop_back_n(first_ts_.size() - out);
}

void CoveringDecomposition::DropFront(uint64_t count) {
  SWS_DCHECK(count <= buckets_.size());
  buckets_.pop_front_n(count);
  first_ts_.pop_front_n(count);
}

BucketStructure CoveringDecomposition::PopFront() {
  SWS_DCHECK(!buckets_.empty());
  BucketStructure bs = buckets_.front();
  buckets_.pop_front();
  first_ts_.pop_front();
  return bs;
}

void CoveringDecomposition::Clear() {
  buckets_.clear();
  first_ts_.clear();
}

Item CoveringDecomposition::SampleCovered(Rng& rng) const {
  SWS_DCHECK(!buckets_.empty());
  uint64_t u = rng.UniformIndex(covered_width());
  for (uint64_t i = 0; i < buckets_.size(); ++i) {
    const BucketStructure& bs = buckets_[i];
    if (u < bs.width()) return bs.r;
    u -= bs.width();
  }
  SWS_CHECK(false);  // unreachable: widths sum to covered_width()
  return buckets_.back().r;
}

void CoveringDecomposition::Save(BinaryWriter* w) const {
  w->PutU64(buckets_.size());
  for (uint64_t i = 0; i < buckets_.size(); ++i) buckets_[i].Save(w);
}

bool CoveringDecomposition::Load(BinaryReader* r) {
  buckets_.clear();
  first_ts_.clear();
  uint64_t size = 0;
  if (!r->GetU64(&size)) return false;
  if (size > (uint64_t{1} << 40)) return false;  // sanity: corrupt blob
  for (uint64_t i = 0; i < size; ++i) {
    BucketStructure bs;
    if (!bs.Load(r)) return false;
    buckets_.push_back(bs);
    first_ts_.push_back(bs.first_ts);
  }
  return CheckInvariants();
}

bool CoveringDecomposition::CheckInvariants() const {
  if (first_ts_.size() != buckets_.size()) return false;
  if (buckets_.empty()) return true;
  const StreamIndex b_idx = b();
  for (size_t i = 0; i < buckets_.size(); ++i) {
    const BucketStructure& bs = buckets_[i];
    // The SoA mirror must track the bucket heads exactly, and head
    // timestamps are non-decreasing (streams arrive in time order).
    if (first_ts_[i] != bs.first_ts) return false;
    if (i > 0 && first_ts_[i] < first_ts_[i - 1]) return false;
    if (bs.y <= bs.x) return false;
    if (i + 1 < buckets_.size() && bs.y != buckets_[i + 1].x) return false;
    if (i + 1 == buckets_.size()) {
      // Last structure is always the single-element zeta(b, b).
      if (bs.x != b_idx || bs.width() != 1) return false;
    } else {
      // Definition 3.1: width = 2^(floor(log2(b+1-a_i)) - 1).
      const uint64_t range = b_idx + 1 - bs.x;
      if (range < 2) return false;
      if (bs.width() != Pow2(FloorLog2(range) - 1)) return false;
    }
    // Samples must lie inside the bucket.
    if (bs.r.index < bs.x || bs.r.index >= bs.y) return false;
    if (bs.q.index < bs.x || bs.q.index >= bs.y) return false;
  }
  return true;
}

}  // namespace swsample
