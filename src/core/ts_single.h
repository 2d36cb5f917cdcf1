// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Single-sample maintenance for TIMESTAMP-BASED windows -- paper Section 3
// (Lemma 3.5 maintenance + Theorem 3.9 sampling), Theta(log n) words
// deterministic.
//
// The sampler is always in one of three states:
//   Empty    - no active element is represented;
//   Full     - a covering decomposition zeta(l, N) whose head is the oldest
//              ACTIVE element (Lemma 3.5 case 1);
//   Straddle - one bucket structure BS(y, z) whose head p_y is expired but
//              whose tail may be active, plus zeta(z, N) covering the rest
//              (Lemma 3.5 case 2, with the invariant z - y <= N + 1 - z).
//
// Queries in the Full state combine bucket R-samples with width-
// proportional probabilities; in the Straddle state they use the implicit-
// event coin of Section 3.3 to decide between the straddler's R-sample and
// the suffix, which is exactly Lemma 3.8.
//
// The class deliberately separates AdvanceTime (clock) from Insert (data):
// the Section 4 black-box reduction feeds each structure *delayed* elements
// whose timestamps are older than the current clock, including elements
// that may already be expired on arrival (Lemma 4.1's "skip" case).
//
// The class implements the WindowSampler interface directly (registry name
// "bop-ts-single") so it participates in registry construction and
// interface-level persistence like every other sampler, while remaining a
// movable concrete value type the Section 4 reduction and the payload
// tracker (apps/ts_payload.h) embed by value.

#ifndef SWSAMPLE_CORE_TS_SINGLE_H_
#define SWSAMPLE_CORE_TS_SINGLE_H_

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/api.h"
#include "core/covering_decomposition.h"
#include "core/implicit_events.h"
#include "stream/item.h"
#include "util/rng.h"
#include "util/status.h"

namespace swsample {

/// Maintains one uniform sample of the active elements of a timestamp-based
/// window with parameter t0 (active <=> now - T(p) < t0).
class TsSingleSampler final : public WindowSampler {
 public:
  /// Creates a sampler; requires t0 >= 1.
  static Result<TsSingleSampler> Create(Timestamp t0, uint64_t seed);

  /// Advances the clock and performs expiry maintenance. A `now` earlier
  /// than the current clock is a documented no-op: wall clocks regress
  /// (NTP steps, cross-shard skew), and the out-of-order contract (see
  /// StreamSink) is that time never moves backwards.
  void AdvanceTime(Timestamp now) override;

  /// Inserts an element with timestamp <= current clock. Consecutive calls
  /// must carry consecutive indices unless the structure emptied in
  /// between. Already-expired elements are skipped (Lemma 4.1).
  void Insert(const Item& item);

  /// Insert with the covering decomposition's merge coins served from a
  /// batch-scoped CoinSource (one raw draw per 64 coins) instead of one
  /// generator draw per coin. Identically distributed, not bit-identical.
  void InsertWithCoins(const Item& item, CoinSource& coins);

  /// Convenience: AdvanceTime(item.timestamp) then Insert(item). An item
  /// whose timestamp regresses below the current clock is clamped to the
  /// clock (out-of-order contract; see StreamSink) — the clock never moves
  /// backwards, so inserted timestamps stay non-decreasing and the
  /// covering decomposition's head-timestamp invariant is preserved.
  void Observe(const Item& item) override;

  /// Batched ingestion: one CoinSource serves every merge coin of the
  /// batch. Checkpoints are only taken at batch boundaries, where the
  /// coin cache is dead, so resume stays bit-identical (see CoinSource).
  /// A batch with timestamp regressions (against the clock or internally)
  /// is normalized to its running-maximum clamp first — equivalent to
  /// clamped per-item Observe — and then takes the monotone fast path;
  /// ordered batches are untouched and bit-identical to before.
  void ObserveBatch(std::span<const Item> items) override;

  /// Batch body with a caller-scoped coin cache and the batch's last
  /// timestamp precomputed (TsSwrSampler shares both across its k units).
  /// Equivalent to per-item Observe drawing merge coins from `coins`
  /// (InsertWithCoins), but expiry maintenance runs only at run
  /// boundaries: stretches whose timestamps keep the current
  /// oldest head active append with zero clock work (the per-item
  /// Restructure would be a no-op), and each run of identical timestamps
  /// past the horizon pays one AdvanceTime. Items must arrive in
  /// non-decreasing timestamp order with last_ts == items.back().timestamp.
  void ObserveBatchWithCoins(std::span<const Item> items, Timestamp last_ts,
                             CoinSource& coins);

  /// Section 4 delayed-feeding variant (TsSworSampler): step m advances
  /// the clock to items[m].timestamp but inserts items[m - delay], for m in
  /// [delay, items.size()). Same batch-scoped expiry structure as
  /// ObserveBatchWithCoins, which is the delay = 0 case.
  void ObserveDelayedBatchWithCoins(std::span<const Item> items,
                                    uint64_t delay, Timestamp last_ts,
                                    CoinSource& coins);

  /// Draws a uniform sample of the active elements; nullopt iff none are
  /// represented. Fresh randomness per call.
  std::optional<Item> SampleOne();

  /// WindowSampler surface over SampleOne(): zero or one item.
  std::vector<Item> Sample() override {
    std::vector<Item> out;
    if (auto s = SampleOne()) out.push_back(*s);
    return out;
  }

  uint64_t k() const override { return 1; }
  const char* name() const override { return "bop-ts-single"; }

  /// True iff at least one active element is represented.
  bool has_active();

  /// Current clock.
  Timestamp now() const { return now_; }

  /// Window parameter t0.
  Timestamp t0() const { return t0_; }

  /// Live memory words (paper model).
  uint64_t MemoryWords() const override;

  /// Real retained capacity: object footprint plus the covering
  /// decomposition's arena reservation.
  uint64_t RetainedBytes() const override {
    return sizeof(*this) + zeta_.RetainedBytes();
  }

  /// Number of bucket structures held (straddler included); the Theorem
  /// 3.9 claim is that this is O(log n).
  uint64_t StructureCount() const {
    return zeta_.size() + (straddler_ ? 1 : 0);
  }

  /// Structural invariants incl. Lemma 3.5's case-2 width inequality.
  bool CheckInvariants() const;

  /// Interface-level persistence: clock, RNG and both structures. t0 is
  /// configuration and stays with the envelope; LoadState restores into a
  /// sampler constructed with the same t0 and validates CheckInvariants().
  bool persistable() const override { return true; }
  void SaveState(BinaryWriter* w) const override;
  bool LoadState(BinaryReader* r) override;

  /// Read access to the internal structures. Used by the payload tracker
  /// (apps/ts_payload.h) that attaches estimator payloads to the O(log n)
  /// candidate samples, and by white-box tests.
  const CoveringDecomposition& zeta() const { return zeta_; }
  const std::optional<BucketStructure>& straddler() const {
    return straddler_;
  }

  /// Mutable generator access for batch-scoped coin caches (TsSwrSampler
  /// and TsSworSampler build one CoinSource per unit over it).
  Rng& rng() { return rng_; }

 private:
  TsSingleSampler(Timestamp t0, uint64_t seed) : t0_(t0), rng_(seed) {}

  bool Expired(Timestamp ts) const { return now_ - ts >= t0_; }

  /// Lemma 3.5 case analysis at the current clock; idempotent.
  void Restructure();

  Timestamp t0_;
  Rng rng_;
  Timestamp now_ = 0;
  std::optional<BucketStructure> straddler_;
  CoveringDecomposition zeta_;
};

}  // namespace swsample

#endif  // SWSAMPLE_CORE_TS_SINGLE_H_
