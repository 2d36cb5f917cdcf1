// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Payload-carrying single-sample unit for TIMESTAMP windows — the
// timestamp half of the Theorem 5.1 bridge (generalizing the forward-count
// tracker Corollaries 5.2/5.4 need to arbitrary payloads, which is what
// lets triangle watching run on timestamp windows too).
//
// The candidate set of a TsSingleSampler is the O(log n) bucket R-samples
// plus the straddler's. Incr, ExtendRun and re-straddling only select
// among existing candidates and new arrivals, so payloads survive
// restructuring in a map keyed by candidate index, reconciled once per
// batch after the sampler's own batch path (horizon scan, ExtendRun,
// disorder clamping) has taken the whole batch:
//
//  * a candidate that survives from before the batch gets
//    `OnArrival(payload, item)` for every arrival of the batch;
//  * a candidate that entered during the batch gets `OnSampled(item)`,
//    then `OnArrival` for each batch arrival after it;
//  * a candidate dropped during the batch costs nothing.
//
// So whichever candidate Sample() returns, its payload has seen exactly
// the arrivals after its position. The map is a util/flat_map.h table,
// and reconciliation ping-pongs between two tables whose memory persists
// across syncs: the steady state allocates nothing.

#ifndef SWSAMPLE_APPS_TS_PAYLOAD_H_
#define SWSAMPLE_APPS_TS_PAYLOAD_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/ts_single.h"
#include "stream/item.h"
#include "util/flat_map.h"
#include "util/macros.h"
#include "util/serial.h"

namespace swsample {

/// One independent single-sample unit with payload tracking over a
/// timestamp window of length t0.
template <typename Payload, typename OnSampledFn, typename OnArrivalFn>
class TsPayloadUnit {
 public:
  /// A sampled position with its forward-accumulated payload.
  struct Sampled {
    Item item;
    Payload payload;
  };

  /// Builds a unit over window length t0 (>= 1; validated upstream).
  TsPayloadUnit(Timestamp t0, uint64_t seed, OnSampledFn on_sampled,
                OnArrivalFn on_arrival)
      : sampler_(std::move(TsSingleSampler::Create(t0, seed)).ValueOrDie()),
        on_sampled_(std::move(on_sampled)),
        on_arrival_(std::move(on_arrival)) {}

  /// Feeds one arrival.
  void Observe(const Item& item) {
    sampler_.Observe(item);
    SyncCandidates(std::span<const Item>(&item, 1));
  }

  /// Feeds a contiguous run of arrivals through the sampler's batch path;
  /// state identically distributed to item-wise feeding.
  void ObserveBatch(std::span<const Item> items) {
    if (items.empty()) return;
    sampler_.ObserveBatch(items);
    SyncCandidates(items);
  }

  /// Advances the clock.
  void AdvanceTime(Timestamp now) {
    sampler_.AdvanceTime(now);
    SyncCandidates(std::span<const Item>());
  }

  /// A sampled (item, payload) of the active window; nullopt if empty.
  /// Fresh sampling randomness per call; the payload is exact.
  std::optional<Sampled> Sample() {
    auto item = sampler_.SampleOne();
    if (!item) return std::nullopt;
    Payload* payload = payloads_.Find(item->index);
    SWS_CHECK(payload != nullptr);
    return Sampled{*item, *payload};
  }

  /// Live memory words incl. the payload map (O(log n) entries).
  uint64_t MemoryWords() const {
    constexpr uint64_t kPayloadWords = (sizeof(Payload) + 7) / 8;
    return sampler_.MemoryWords() + payloads_.Size() * (1 + kPayloadWords);
  }

  /// Heap bytes retained beyond the object footprint: the embedded
  /// sampler's arena plus the payload map's table reservation.
  uint64_t RetainedBytes() const {
    return sampler_.zeta().RetainedBytes() + payloads_.ReservedBytes();
  }

  /// Checkpointing: the embedded Section 3 sampler plus the candidate
  /// payload map (serialized sorted by index so equal states produce
  /// equal bytes). Load requires the map keys to be exactly the sampler's
  /// candidate set — the invariant Sample() checks.
  void Save(BinaryWriter* w) const {
    sampler_.SaveState(w);
    std::vector<StreamIndex> keys;
    keys.reserve(payloads_.Size());
    payloads_.ForEach(
        [&](StreamIndex index, const Payload&) { keys.push_back(index); });
    std::sort(keys.begin(), keys.end());
    w->PutU64(keys.size());
    for (StreamIndex key : keys) {
      w->PutU64(key);
      SavePayload(*payloads_.Find(key), w);
    }
  }

  bool Load(BinaryReader* r) {
    uint64_t size = 0;
    if (!sampler_.LoadState(r) || !r->GetU64(&size) ||
        size != sampler_.StructureCount()) {
      return false;
    }
    payloads_.Clear();
    for (uint64_t i = 0; i < size; ++i) {
      StreamIndex index = 0;
      Payload payload;
      if (!r->GetU64(&index) || !LoadPayload(r, &payload) ||
          !payloads_.TryEmplace(index, payload).second) {
        return false;
      }
    }
    // Every candidate the sampler can return must carry a payload.
    for (uint64_t i = 0; i < sampler_.zeta().size(); ++i) {
      if (!payloads_.Contains(sampler_.zeta().bucket(i).r.index)) {
        return false;
      }
    }
    if (sampler_.straddler() &&
        !payloads_.Contains(sampler_.straddler()->r.index)) {
      return false;
    }
    return true;
  }

 private:
  /// Reconciles the payload map with the sampler's candidate set after
  /// `batch`, the arrivals since the last sync (see the file comment).
  /// The map is rebuilt in `scratch_` and swapped in.
  void SyncCandidates(std::span<const Item> batch) {
    scratch_.Clear();
    auto adopt = [&](const Item& candidate) {
      Payload payload;
      uint64_t next = 0;  // first batch arrival the payload has not seen
      if (const Payload* old_payload = payloads_.Find(candidate.index)) {
        payload = *old_payload;
      } else {
        SWS_DCHECK(!batch.empty() && candidate.index >= batch.front().index);
        const uint64_t offset = candidate.index - batch.front().index;
        SWS_DCHECK(offset < batch.size());
        payload = on_sampled_(batch[offset]);
        next = offset + 1;
      }
      for (; next < batch.size(); ++next) on_arrival_(payload, batch[next]);
      scratch_.TryEmplace(candidate.index, payload);
    };
    for (uint64_t i = 0; i < sampler_.zeta().size(); ++i) {
      adopt(sampler_.zeta().bucket(i).r);
    }
    if (sampler_.straddler()) adopt(sampler_.straddler()->r);
    std::swap(payloads_, scratch_);
  }

  TsSingleSampler sampler_;
  OnSampledFn on_sampled_;
  OnArrivalFn on_arrival_;
  FlatMap<StreamIndex, Payload> payloads_;
  FlatMap<StreamIndex, Payload> scratch_;  // SyncCandidates ping-pong twin
};

}  // namespace swsample

#endif  // SWSAMPLE_APPS_TS_PAYLOAD_H_
