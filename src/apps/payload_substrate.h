// Copyright (c) swsample authors. Licensed under the MIT license.
//
// The pluggable sampling substrate behind the payload estimators (AMS
// frequency moments, CCM entropy, Buriol triangles) — Theorem 5.1 as code.
//
// A payload estimator needs r independent draws of (uniform window
// position, forward-accumulated payload) plus a window-size estimate. The
// paper provides that pair for three substrate families, each selected by
// a sampler-registry name:
//
//  * kSeqUnits ("bop-seq-single"/"bop-seq-swr"): r PayloadWindowUnits —
//    the Section 2.1 bucket-pair single-sample scheme; Theorem 2.1's
//    k-sample with replacement IS k independent copies of it, so both
//    registry names construct the same structure. O(r) words; exact n.
//  * kTsUnits ("bop-ts-single"/"bop-ts-swr"): r TsPayloadUnits — the
//    Section 3 structure with payloads on its O(log n) candidates — plus a
//    DGIM exponential histogram for the window size, which is unknowable
//    exactly in the timestamp model (Section 1.3.2); estimates inherit the
//    (1 +/- eps) factor, exactly the composition Theorem 5.1 describes.
//  * kExactSeq / kExactTs ("exact-seq"/"exact-ts"): the full-window
//    oracle, O(n) words — ground truth for the benches' substrate sweeps.

#ifndef SWSAMPLE_APPS_PAYLOAD_SUBSTRATE_H_
#define SWSAMPLE_APPS_PAYLOAD_SUBSTRATE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "apps/exact_payload.h"
#include "apps/payload_window.h"
#include "apps/ts_payload.h"
#include "stream/exp_histogram.h"
#include "stream/item.h"
#include "util/rng.h"
#include "util/status.h"

namespace swsample {

/// Which Theorem 5.1 substrate family backs a payload estimator.
enum class SubstrateKind {
  kSeqUnits,  ///< r Section 2.1 units, sequence window, exact n
  kTsUnits,   ///< r Section 3 units + DGIM n-hat, timestamp window
  kExactSeq,  ///< full-window oracle, sequence window
  kExactTs,   ///< full-window oracle, timestamp window
};

/// The forward occurrence-count payload shared by the frequency-moment and
/// entropy estimators: occurrences of the sampled value at/after the
/// sampled position.
struct CountPayload {
  uint64_t value = 0;
  uint64_t count = 0;
};
struct CountOnSampled {
  CountPayload operator()(const Item& item) const {
    return CountPayload{item.value, 1};
  }
};
struct CountOnArrival {
  void operator()(CountPayload& p, const Item& item) const {
    if (item.value == p.value) ++p.count;
  }
};

/// Wire codec for CountPayload (the payload units serialize payloads
/// through these unqualified overloads; estimators with custom payloads
/// provide their own, e.g. apps/triangles.h).
inline void SavePayload(const CountPayload& p, BinaryWriter* w) {
  w->PutU64(p.value);
  w->PutU64(p.count);
}
inline bool LoadPayload(BinaryReader* r, CountPayload* p) {
  return r->GetU64(&p->value) && r->GetU64(&p->count) && p->count >= 1;
}

/// The timestamp-window forward-count tracker (white-box tested).
using TsForwardCountUnit =
    TsPayloadUnit<CountPayload, CountOnSampled, CountOnArrival>;

/// Construction parameters shared by every PayloadSubstrate instantiation.
struct PayloadSubstrateParams {
  SubstrateKind kind = SubstrateKind::kSeqUnits;
  uint64_t window_n = 0;    ///< sequence kinds
  Timestamp window_t = 0;   ///< timestamp kinds
  uint64_t r = 1;           ///< units (draws per Estimate for oracles)
  double count_eps = 0.05;  ///< kTsUnits n-hat relative error
  uint64_t seed = 0;
};

/// r independent payload-carrying sampling units over one window, behind
/// one ingestion surface. Estimators own one of these plus a formula.
template <typename Payload, typename OnSampledFn, typename OnArrivalFn>
class PayloadSubstrate {
 public:
  using Params = PayloadSubstrateParams;

  static Result<PayloadSubstrate> Create(const Params& params,
                                         OnSampledFn on_sampled,
                                         OnArrivalFn on_arrival) {
    if (params.r < 1) {
      return Status::InvalidArgument("PayloadSubstrate: r must be >= 1");
    }
    const bool sequence = params.kind == SubstrateKind::kSeqUnits ||
                          params.kind == SubstrateKind::kExactSeq;
    if (sequence && params.window_n < 1) {
      return Status::InvalidArgument(
          "PayloadSubstrate: window_n must be >= 1");
    }
    if (!sequence && params.window_t < 1) {
      return Status::InvalidArgument(
          "PayloadSubstrate: window_t must be >= 1");
    }
    PayloadSubstrate substrate(params, std::move(on_sampled),
                               std::move(on_arrival));
    switch (params.kind) {
      case SubstrateKind::kSeqUnits:
        substrate.seq_units_.reserve(params.r);
        for (uint64_t i = 0; i < params.r; ++i) {
          substrate.seq_units_.emplace_back(params.window_n,
                                            substrate.on_sampled_,
                                            substrate.on_arrival_);
        }
        break;
      case SubstrateKind::kTsUnits: {
        auto histogram =
            ExpHistogram::Create(params.window_t, params.count_eps);
        if (!histogram.ok()) return histogram.status();
        substrate.histogram_.emplace(std::move(histogram).ValueOrDie());
        substrate.ts_units_.reserve(params.r);
        for (uint64_t i = 0; i < params.r; ++i) {
          substrate.ts_units_.emplace_back(
              params.window_t, Rng::ForkSeed(params.seed, 2 + i),
              substrate.on_sampled_, substrate.on_arrival_);
        }
        break;
      }
      case SubstrateKind::kExactSeq:
      case SubstrateKind::kExactTs:
        substrate.oracle_.emplace(
            params.kind == SubstrateKind::kExactSeq ? params.window_n : 0,
            params.window_t, Rng::ForkSeed(params.seed, 1),
            substrate.on_sampled_, substrate.on_arrival_);
        break;
    }
    return substrate;
  }

  void Observe(const Item& item) {
    switch (kind_) {
      case SubstrateKind::kSeqUnits:
        for (auto& unit : seq_units_) unit.Observe(item, rng_);
        break;
      case SubstrateKind::kTsUnits:
        histogram_->Add(item.timestamp);
        for (auto& unit : ts_units_) unit.Observe(item);
        break;
      default:
        oracle_->Observe(item);
    }
  }

  void ObserveBatch(std::span<const Item> items) {
    switch (kind_) {
      case SubstrateKind::kSeqUnits:
        for (auto& unit : seq_units_) unit.ObserveBatch(items, rng_);
        break;
      case SubstrateKind::kTsUnits:
        for (const Item& item : items) histogram_->Add(item.timestamp);
        for (auto& unit : ts_units_) unit.ObserveBatch(items);
        break;
      default:
        oracle_->ObserveBatch(items);
    }
  }

  void AdvanceTime(Timestamp now) {
    switch (kind_) {
      case SubstrateKind::kSeqUnits:
        break;  // sequence windows ignore the clock
      case SubstrateKind::kTsUnits:
        histogram_->AdvanceTime(now);
        for (auto& unit : ts_units_) unit.AdvanceTime(now);
        break;
      default:
        oracle_->AdvanceTime(now);
    }
  }

  /// The window size estimates are scaled by: exact except for kTsUnits,
  /// where it is the (1 +/- eps) DGIM estimate.
  double WindowSizeEstimate() {
    switch (kind_) {
      case SubstrateKind::kSeqUnits:
        return static_cast<double>(seq_units_.front().WindowSize());
      case SubstrateKind::kTsUnits:
        return static_cast<double>(histogram_->Estimate());
      default:
        return static_cast<double>(oracle_->WindowSize());
    }
  }

  /// Visits up to r live (item, payload) samples; returns the number
  /// visited. Timestamp units and oracles consume fresh randomness.
  template <typename Fn>
  uint64_t ForEachSample(Fn&& fn) {
    uint64_t live = 0;
    switch (kind_) {
      case SubstrateKind::kSeqUnits:
        for (auto& unit : seq_units_) {
          const auto& sampled = unit.Current();
          if (!sampled) continue;
          fn(sampled->item, sampled->payload);
          ++live;
        }
        break;
      case SubstrateKind::kTsUnits:
        for (auto& unit : ts_units_) {
          auto sampled = unit.Sample();
          if (!sampled) continue;
          fn(sampled->item, sampled->payload);
          ++live;
        }
        break;
      default:
        if (oracle_->WindowSize() == 0) break;
        for (uint64_t i = 0; i < r_; ++i) {
          auto [item, payload] = oracle_->Draw();
          fn(item, payload);
          ++live;
        }
    }
    return live;
  }

  uint64_t MemoryWords() const {
    uint64_t words = 0;
    switch (kind_) {
      case SubstrateKind::kSeqUnits:
        for (const auto& unit : seq_units_) words += unit.MemoryWords();
        break;
      case SubstrateKind::kTsUnits:
        words = histogram_->MemoryWords();
        for (const auto& unit : ts_units_) words += unit.MemoryWords();
        break;
      default:
        words = oracle_->MemoryWords();
    }
    return words;
  }

  /// Heap bytes retained beyond the object footprint: unit-vector
  /// capacities plus each unit's ring/table buffers (the sequence
  /// units hold their slots inline, so their capacity bytes cover them).
  uint64_t RetainedBytes() const {
    uint64_t bytes = seq_units_.capacity() * sizeof(SeqUnit) +
                     ts_units_.capacity() * sizeof(TsUnit);
    switch (kind_) {
      case SubstrateKind::kSeqUnits:
        break;
      case SubstrateKind::kTsUnits:
        bytes += histogram_->RetainedBytes();
        for (const auto& unit : ts_units_) bytes += unit.RetainedBytes();
        break;
      default:
        bytes += oracle_->RetainedBytes();
    }
    return bytes;
  }

  /// Checkpointing: the substrate RNG plus every unit / the histogram /
  /// the oracle, in construction order. Configuration (kind, windows, r)
  /// lives in the owning estimator's envelope.
  void SaveState(BinaryWriter* w) const {
    SaveRngState(rng_, w);
    switch (kind_) {
      case SubstrateKind::kSeqUnits:
        for (const auto& unit : seq_units_) unit.Save(w);
        break;
      case SubstrateKind::kTsUnits:
        histogram_->Save(w);
        for (const auto& unit : ts_units_) unit.Save(w);
        break;
      default:
        oracle_->Save(w);
    }
  }

  bool LoadState(BinaryReader* r) {
    if (!LoadRngState(r, &rng_)) return false;
    switch (kind_) {
      case SubstrateKind::kSeqUnits:
        for (auto& unit : seq_units_) {
          if (!unit.Load(r)) return false;
        }
        return true;
      case SubstrateKind::kTsUnits:
        if (!histogram_->Load(r)) return false;
        for (auto& unit : ts_units_) {
          if (!unit.Load(r)) return false;
        }
        return true;
      default:
        return oracle_->Load(r);
    }
  }

 private:
  using SeqUnit = PayloadWindowUnit<Payload, OnSampledFn, OnArrivalFn>;
  using TsUnit = TsPayloadUnit<Payload, OnSampledFn, OnArrivalFn>;
  using Oracle = ExactPayloadOracle<Payload, OnSampledFn, OnArrivalFn>;

  PayloadSubstrate(const Params& params, OnSampledFn on_sampled,
                   OnArrivalFn on_arrival)
      : kind_(params.kind),
        r_(params.r),
        rng_(Rng::ForkSeed(params.seed, 0)),
        on_sampled_(std::move(on_sampled)),
        on_arrival_(std::move(on_arrival)) {}

  SubstrateKind kind_;
  uint64_t r_;
  Rng rng_;  // drives the sequence units' reservoirs
  OnSampledFn on_sampled_;
  OnArrivalFn on_arrival_;
  std::vector<SeqUnit> seq_units_;
  std::vector<TsUnit> ts_units_;
  std::optional<ExpHistogram> histogram_;
  std::optional<Oracle> oracle_;
};

}  // namespace swsample

#endif  // SWSAMPLE_APPS_PAYLOAD_SUBSTRATE_H_
