// Copyright (c) swsample authors. Licensed under the MIT license.
//
// k-sample WITHOUT replacement for timestamp-based windows -- paper
// Section 4 (Theorem 4.4): the black-box reduction from sampling without
// replacement to sampling with replacement, O(k log n) words deterministic.
//
// The construction maintains k single-sample structures R_0 ... R_{k-1}
// where R_i receives every element DELAYED by i arrivals (Lemma 4.1), so
// R_i is a uniform sample of "all active elements except the i newest
// arrivals" (domain D_i). A shared auxiliary array of the last k arrivals
// completes the picture. A query stitches a k-sample without replacement
// from the chain of 1-samples via Lemma 4.2:
//
//   S(j)  =  S(j-1) + newest(D_{k-j})   if R_{k-j} lands inside S(j-1)
//   S(j)  =  S(j-1) + R_{k-j}           otherwise
//
// growing a 1-sample of D_{k-1} into a k-sample of D_0 = the window
// (Lemma 4.3). When fewer than k elements are active they all live inside
// the auxiliary array and are returned exactly.

#ifndef SWSAMPLE_CORE_TS_SWOR_H_
#define SWSAMPLE_CORE_TS_SWOR_H_

#include <memory>
#include <vector>

#include "core/api.h"
#include "core/ts_single.h"
#include "util/ring_deque.h"
#include "util/status.h"

namespace swsample {

/// k-sample without replacement over a timestamp window of length t0.
class TsSworSampler final : public WindowSampler {
 public:
  /// Creates a sampler; requires t0 >= 1 and k >= 1.
  static Result<std::unique_ptr<TsSworSampler>> Create(Timestamp t0,
                                                       uint64_t k,
                                                       uint64_t seed);

  void Observe(const Item& item) override;
  /// Batched delayed feeding with one merge-coin cache per structure for
  /// the whole batch (see TsSingleSampler::ObserveBatch).
  void ObserveBatch(std::span<const Item> items) override;
  void AdvanceTime(Timestamp now) override;
  std::vector<Item> Sample() override;
  uint64_t MemoryWords() const override;
  uint64_t RetainedBytes() const override {
    uint64_t bytes = sizeof(*this) +
                     structures_.capacity() * sizeof(TsSingleSampler) +
                     recent_.ReservedBytes();
    for (const TsSingleSampler& s : structures_) {
      bytes += s.zeta().RetainedBytes();
    }
    return bytes;
  }
  uint64_t k() const override { return k_; }
  const char* name() const override { return "bop-ts-swor"; }

  /// Window parameter.
  Timestamp t0() const { return t0_; }

  /// Interface-level persistence (clock, structures, auxiliary array);
  /// restore through the checkpoint envelope (core/checkpoint.h).
  bool persistable() const override { return true; }
  void SaveState(BinaryWriter* w) const override;
  bool LoadState(BinaryReader* r) override;

 private:
  TsSworSampler(Timestamp t0, uint64_t k, uint64_t seed);

  Timestamp t0_;
  uint64_t k_;
  Timestamp now_ = 0;
  /// Shared Observe/ObserveBatch body; `coins` is empty on the item-wise
  /// path and one batch-scoped CoinSource per structure on the batch path.
  void ObserveOne(const Item& item, std::span<CoinSource> coins);

  /// R_0 ... R_{k-1}; structures_[i] runs i arrivals behind the stream.
  std::vector<TsSingleSampler> structures_;
  /// Auxiliary array: the last min(k, arrivals) items, oldest first
  /// (owned ring, no per-arrival allocator traffic).
  RingDeque<Item> recent_;
  /// Batch-scoped snapshot of recent_ taken at the top of ObserveBatch;
  /// unit i's first (up to i) delayed deliveries read it. Member so the
  /// allocation is reused across batches; dead between calls.
  std::vector<Item> batch_recent_;
};

}  // namespace swsample

#endif  // SWSAMPLE_CORE_TS_SWOR_H_
