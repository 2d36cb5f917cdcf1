// Copyright (c) swsample authors. Licensed under the MIT license.

#include "core/ts_single.h"

#include "stream/item_serial.h"
#include "util/macros.h"

namespace swsample {

Result<TsSingleSampler> TsSingleSampler::Create(Timestamp t0, uint64_t seed) {
  if (t0 < 1) {
    return Status::InvalidArgument("TsSingleSampler: t0 must be >= 1");
  }
  return TsSingleSampler(t0, seed);
}

void TsSingleSampler::AdvanceTime(Timestamp now) {
  if (now < now_) return;  // clock regressions are no-ops (see header)
  now_ = now;
  Restructure();
}

void TsSingleSampler::Restructure() {
  if (zeta_.empty()) {
    SWS_DCHECK(!straddler_);
    return;
  }
  const Timestamp cutoff = now_ - t0_;  // expired <=> first_ts <= cutoff
  // Cases 2a/3a: the oldest represented head is still active, so nothing
  // moved across the expiry boundary -> state unchanged. One dense load
  // from the SoA mirror; this is the no-op the batched paths rely on.
  if (zeta_.first_ts(0) > cutoff) return;
  // Cases 2b/3b: the newest element (head of the last, single-element
  // bucket) expired, so everything did.
  if (zeta_.first_ts(zeta_.size() - 1) <= cutoff) {
    zeta_.Clear();
    straddler_.reset();
    return;
  }
  // Cases 2c/3c: head timestamps are non-decreasing, so the contiguous SoA
  // sweep finds the unique bucket whose head expired while its successor's
  // head is active; it becomes the (new) straddler, replacing any old one
  // that fell wholly behind. 1 <= expired < size here.
  const uint64_t expired = zeta_.CountExpiredPrefix(cutoff);
  zeta_.DropFront(expired - 1);
  straddler_ = zeta_.PopFront();
  // Lemma 3.5 case-2 invariant: z - y <= N + 1 - z.
  SWS_DCHECK(straddler_->width() <= zeta_.covered_width());
}

void TsSingleSampler::Insert(const Item& item) {
  SWS_DCHECK(item.timestamp <= now_);
  if (zeta_.empty()) {
    // Lemma 4.1: a delayed element may arrive pre-expired; representing it
    // would poison the fresh decomposition, so skip it.
    if (Expired(item.timestamp)) return;
    zeta_.InitFromItem(item);
    return;
  }
  zeta_.Incr(item, rng_);
}

void TsSingleSampler::InsertWithCoins(const Item& item, CoinSource& coins) {
  SWS_DCHECK(item.timestamp <= now_);
  if (zeta_.empty()) {
    if (Expired(item.timestamp)) return;
    zeta_.InitFromItem(item);
    return;
  }
  zeta_.Incr(item, coins);
}

void TsSingleSampler::Observe(const Item& item) {
  if (item.timestamp < now_) {
    // Out-of-order arrival: clamp to the clock (see header). The clamped
    // copy satisfies Insert's timestamp <= now_ precondition and keeps the
    // decomposition's head timestamps non-decreasing.
    Insert(Item{item.value, item.index, now_});
    return;
  }
  AdvanceTime(item.timestamp);
  Insert(item);
}

void TsSingleSampler::ObserveBatch(std::span<const Item> items) {
  if (items.empty()) return;
  CoinSource coins(rng_);
  if (IsTimestampOrdered(items, now_)) {
    ObserveBatchWithCoins(items, items.back().timestamp, coins);
    return;
  }
  // Slow path: normalize the disordered batch to its running-maximum clamp
  // (identical to clamped per-item Observe) and reuse the monotone batch
  // machinery. The allocation only happens for genuinely skewed input.
  std::vector<Item> clamped;
  ClampTimestamps(items, now_, &clamped);
  ObserveBatchWithCoins(clamped, clamped.back().timestamp, coins);
}

void TsSingleSampler::ObserveBatchWithCoins(std::span<const Item> items,
                                            Timestamp last_ts,
                                            CoinSource& coins) {
  ObserveDelayedBatchWithCoins(items, /*delay=*/0, last_ts, coins);
}

void TsSingleSampler::ObserveDelayedBatchWithCoins(std::span<const Item> items,
                                                   uint64_t delay,
                                                   Timestamp last_ts,
                                                   CoinSource& coins) {
  // Below this stretch length ExtendRun's O(log n) rebuild costs more than
  // running the per-item Incrs it replaces.
  constexpr size_t kRunCutover = 16;
  const size_t n = items.size();
  size_t m = delay;
  while (m < n) {
    if (!zeta_.empty()) {
      // Expiry horizon: while the arriving clock timestamp keeps the
      // current head active (ts - head < t0), the per-item Restructure
      // would be the case-2a/3a no-op, so the whole stretch can append
      // without touching the clock. `head` is loop-invariant: Incr's
      // merges keep the front bucket's head timestamp, and only
      // Restructure removes buckets from the front.
      const Timestamp head = zeta_.first_ts(0);
      const size_t start = m;
      if (last_ts - head < t0_) {
        m = n;  // even the batch's last timestamp leaves the head active
      } else {
        while (m < n && items[m].timestamp - head < t0_) ++m;
      }
      if (m > start) {
        const size_t len = m - start;
        if (len >= kRunCutover) {
          zeta_.ExtendRun(items.subspan(start - delay, len), rng_);
        } else {
          for (size_t p = start; p < m; ++p) {
            zeta_.Incr(items[p - delay], coins);
          }
        }
        now_ = items[m - 1].timestamp;
        continue;
      }
    }
    // Expiry boundary (or empty structure): advance the clock, insert one
    // item, and go back to the horizon loop. After that insert the
    // structure is either empty (pre-expired delayed element, skipped) or
    // headed by an active element, so the rest of a same-timestamp run
    // takes the append stretch above instead of one Incr per item.
    AdvanceTime(items[m].timestamp);
    InsertWithCoins(items[m - delay], coins);
    ++m;
  }
}

bool TsSingleSampler::has_active() {
  Restructure();
  return !zeta_.empty();
}

std::optional<Item> TsSingleSampler::SampleOne() {
  Restructure();
  if (zeta_.empty()) return std::nullopt;
  if (!straddler_) {
    // Theorem 3.9 case 1: all represented elements are active; combine the
    // bucket samples with width-proportional probabilities.
    return zeta_.SampleCovered(rng_);
  }
  // Theorem 3.9 case 2 == Lemma 3.8: B1 = straddler, B2 = zeta coverage.
  const uint64_t beta = zeta_.covered_width();
  const ImplicitEventDraw draw =
      DrawImplicitEvent(*straddler_, beta, now_, t0_, rng_);
  if (draw.x && !Expired(straddler_->r.timestamp)) return straddler_->r;
  return zeta_.SampleCovered(rng_);
}

uint64_t TsSingleSampler::MemoryWords() const {
  // Decomposition + optional straddler + clock, t0 and rng bookkeeping
  // (4 state words for xoshiro, counted to be conservative).
  uint64_t words = zeta_.MemoryWords() + 6;
  if (straddler_) words += BucketStructure::kWords;
  return words;
}

void TsSingleSampler::SaveState(BinaryWriter* w) const {
  w->PutI64(now_);
  SaveRngState(rng_, w);
  w->PutBool(straddler_.has_value());
  if (straddler_) straddler_->Save(w);
  zeta_.Save(w);
}

bool TsSingleSampler::LoadState(BinaryReader* r) {
  straddler_.reset();
  zeta_.Clear();
  bool has_straddler = false;
  if (!r->GetI64(&now_) || now_ < 0 || !LoadRngState(r, &rng_) ||
      !r->GetBool(&has_straddler)) {
    return false;
  }
  if (has_straddler) {
    BucketStructure bs;
    if (!bs.Load(r)) return false;
    straddler_ = bs;
  }
  if (!zeta_.Load(r)) return false;
  // No represented element postdates the clock (Expired() subtracts
  // timestamps from now_, so this also rules out overflow on corrupt
  // blobs; BucketStructure::Load already enforces ts >= first_ts >= 0).
  const auto within_clock = [&](const BucketStructure& bs) {
    return bs.r.timestamp <= now_ && bs.q.timestamp <= now_;
  };
  for (uint64_t i = 0; i < zeta_.size(); ++i) {
    if (!within_clock(zeta_.bucket(i))) return false;
  }
  if (straddler_ && !within_clock(*straddler_)) return false;
  return CheckInvariants();
}

bool TsSingleSampler::CheckInvariants() const {
  if (!zeta_.CheckInvariants()) return false;
  if (straddler_) {
    if (zeta_.empty()) return false;
    if (straddler_->y != zeta_.a()) return false;
    if (straddler_->width() > zeta_.covered_width()) return false;
    if (!Expired(straddler_->first_ts)) return false;
  }
  return true;
}

}  // namespace swsample
