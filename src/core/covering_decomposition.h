// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Covering decomposition -- paper Definition 3.1 and the Incr operator.
//
// zeta(a, b) is an ordered list of bucket structures covering indices
// [a, b], defined inductively: zeta(b, b) = <BS(b, b+1)> and
// zeta(a, b) = <BS(a, c), zeta(c, b)> with c = a + 2^(floor(log2(b+1-a))-1).
// Its size is O(log(b - a)), and widths shrink (roughly geometrically) from
// the front: the oldest bucket spans about half the covered range.
//
// Incr appends element p_{b+1}, merging adjacent buckets (which the
// arithmetic of Lemma 3.4 guarantees have EQUAL widths at the merge point)
// with a fair coin per sample so the merged samples remain uniform.
// Lemma 3.4 -- Incr(zeta(a,b)) structurally equals zeta(a, b+1) -- is
// verified by a property test against a from-definition reference
// construction.
//
// Because the list is ALWAYS exactly zeta(a, b), which levels merge is an
// arithmetic function of the covered width cw = b + 1 - a alone, and the
// level-by-level walk the paper describes collapses to a closed form:
// writing W_i for the width of the range covered from level i, a merge
// fires at level i iff W_i is all-ones (W_i = 2^m - 1), merges cascade
// (2^m - 1 -> 2^(m-1) - 1 -> ... -> 3), and the first all-ones level
// reached from cw has m = countr_one(cw) + 1. Hence the number of merges is
//
//   j = countr_one(cw) - (cw itself all-ones ? 1 : 0)    (0 if cw even)
//
// and the 2j consumed buckets are exactly the suffix just before the last
// (single-element) bucket, merged pairwise in increasing index order. Incr
// is therefore amortized O(1): j averages ~1/2 coin-pair per append, and
// only the contiguous tail of the ring is touched.
//
// Expiry needs only each bucket's head timestamp, so first_ts is mirrored
// into a parallel RingDeque<Timestamp> (SoA): the Lemma 3.5 boundary scan
// walks a dense timestamp array instead of striding over whole structs.
// The mirror is maintained by every mutator and checked by
// CheckInvariants().

#ifndef SWSAMPLE_CORE_COVERING_DECOMPOSITION_H_
#define SWSAMPLE_CORE_COVERING_DECOMPOSITION_H_

#include <cstdint>
#include <span>

#include "core/bucket_structure.h"
#include "stream/item.h"
#include "util/ring_deque.h"
#include "util/rng.h"

namespace swsample {

/// The ordered bucket-structure list zeta(a, b) with its Incr operator.
///
/// Also supports dropping leading buckets (used by the Lemma 3.5 expiry
/// maintenance, which discards structures that fell wholly behind the
/// window). Buckets are stored front = oldest.
class CoveringDecomposition {
 public:
  CoveringDecomposition() = default;

  /// True iff no bucket is held.
  bool empty() const { return buckets_.empty(); }

  /// Number of bucket structures (O(log covered-width)).
  uint64_t size() const { return buckets_.size(); }

  /// First covered index a. Requires !empty().
  StreamIndex a() const;

  /// Last covered index b (the list covers [a, b]). Requires !empty().
  StreamIndex b() const;

  /// Total covered width b + 1 - a. Requires !empty().
  uint64_t covered_width() const { return b() + 1 - a(); }

  /// Bucket access, 0 = oldest.
  const BucketStructure& bucket(uint64_t i) const { return buckets_[i]; }

  /// Head timestamp of bucket i from the dense SoA mirror (equal to
  /// bucket(i).first_ts; non-decreasing in i). The expiry hot paths read
  /// this instead of striding over BucketStructure records.
  Timestamp first_ts(uint64_t i) const { return first_ts_[i]; }

  /// Number of leading buckets whose head timestamp is <= cutoff (i.e.
  /// expired at clock `now` for cutoff = now - t0). Contiguous sweep over
  /// the SoA timestamp ring; the caller guarantees at least one bucket
  /// head survives (timestamps are non-decreasing).
  uint64_t CountExpiredPrefix(Timestamp cutoff) const {
    uint64_t i = 0;
    while (i < first_ts_.size() && first_ts_[i] <= cutoff) ++i;
    return i;
  }

  /// Starts a fresh zeta(b, b) from the first item of a new range.
  void InitFromItem(const Item& item);

  /// The paper's Incr: extends zeta(a, b) to zeta(a, b+1) with the newly
  /// arrived item p_{b+1} (item.index must equal b()+1). Amortized O(1)
  /// via the closed-form merge count (see file header); coin consumption
  /// order matches the level-by-level walk exactly, so results are
  /// bit-identical to the paper's recursion given the same coin stream.
  /// The overload taking a CoinSource draws its merge coins from the
  /// source's bit cache (one raw draw refills 64 coins), which is how the
  /// batched ObserveBatch paths amortize RNG cost; both overloads produce
  /// identically distributed (though not bit-identical) results.
  void Incr(const Item& item, Rng& rng);
  void Incr(const Item& item, CoinSource& coins);

  /// Closed-form batch append: extends zeta(a, b) to zeta(a, b + run.size())
  /// in O(log) time TOTAL (not per item), for a run of consecutively
  /// indexed items (run.front().index == b() + 1) known to experience no
  /// expiry. The final boundary list is arithmetic (zeta depends only on
  /// its endpoints), and because Incr's merges only ever union adjacent
  /// buckets, every final bucket is a union of current buckets plus a
  /// range of new items; its R/Q samples are therefore drawn by index:
  /// uniform over the final bucket, resolving to an old bucket's sample
  /// (chosen with width-proportional probability — exactly the atom
  /// probabilities the fair-coin merge cascade yields) or to a new item
  /// read straight from `run`. Identically distributed to run.size()
  /// Incr calls, including jointly with the surviving old samples; not
  /// bit-identical (different randomness consumption).
  void ExtendRun(std::span<const Item> run, Rng& rng);

  /// Drops the `count` oldest bucket structures (they covered only expired
  /// elements, or were absorbed into a straddling bucket).
  void DropFront(uint64_t count);

  /// Pops and returns the oldest bucket structure. Requires !empty().
  BucketStructure PopFront();

  /// Discards everything.
  void Clear();

  /// Draws a uniform sample of the covered range [a, b] by picking a bucket
  /// with probability proportional to its width and returning its R sample
  /// (Theorem 3.9, case 1 combination). Requires !empty().
  Item SampleCovered(Rng& rng) const;

  /// Live memory words (paper model).
  uint64_t MemoryWords() const {
    return buckets_.size() * BucketStructure::kWords;
  }

  /// Heap bytes retained beyond the object footprint (both rings'
  /// buffers; ExtendRun rebuilds in place, so nothing else is held).
  uint64_t RetainedBytes() const {
    return buckets_.ReservedBytes() + first_ts_.ReservedBytes();
  }

  /// Internal structural invariants (boundaries contiguous, widths match
  /// Definition 3.1). Exposed for tests; O(size()).
  bool CheckInvariants() const;

  /// Checkpointing (see util/serial.h). Load validates CheckInvariants().
  void Save(BinaryWriter* w) const;
  bool Load(BinaryReader* r);

 private:
  // Owned ring (util/ring_deque.h): contiguous power-of-two storage,
  // O(1) pop_front for expiry, no per-item allocator traffic. The O(log n)
  // structures fit one or two cache lines' worth of slots.
  RingDeque<BucketStructure> buckets_;
  // SoA mirror of buckets_[i].first_ts (one cache line covers 8 buckets):
  // the expiry boundary scan and the batched no-expiry checks read only
  // timestamps, so they stay off the 72-byte BucketStructure stride.
  RingDeque<Timestamp> first_ts_;
};

}  // namespace swsample

#endif  // SWSAMPLE_CORE_COVERING_DECOMPOSITION_H_
