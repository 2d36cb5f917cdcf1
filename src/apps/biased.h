// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Step-biased sampling — the Section 5 extension: "Our algorithms can be
// naturally extended to some biased functions ... We can apply our methods
// to implement step biased functions, maintaining samples over each window
// with different lengths and combining the samples with corresponding
// probabilities."
//
// A step-biased function partitions recency into L nested windows
// n_1 < n_2 < ... < n_L and assigns each level a weight. Sampling picks a
// level with probability proportional to its weight and returns that
// level's uniform window sample, so more recent elements (members of more
// levels) are proportionally more likely — a staircase approximation of
// any monotone bias function.
//
// The per-level samplers are any SEQUENCE-model substrate from the sampler
// registry; the estimator wrapper ("biased-mean") reports the step-bias-
// weighted window mean  sum_l w_l * mean(W_l).

#ifndef SWSAMPLE_APPS_BIASED_H_
#define SWSAMPLE_APPS_BIASED_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "apps/estimator.h"
#include "core/api.h"
#include "core/sink_spec.h"
#include "stream/item.h"
#include "util/rng.h"
#include "util/status.h"

namespace swsample {

/// Step-biased sampler over nested fixed-size windows.
class StepBiasedSampler {
 public:
  /// Creates a sampler from strictly increasing window lengths with
  /// positive weights (weights are normalized internally). `substrate`
  /// names a sequence-model sampler (the paper scheme uses "bop-seq-swr");
  /// level i runs a copy of it with window_n = levels[i].window, k forced
  /// to 1 for single-sample names, and seed Rng::ForkSeed(substrate.seed,
  /// i + 1). Every other field (k, oversample, wr) passes through.
  static Result<std::unique_ptr<StepBiasedSampler>> Create(
      std::vector<BiasLevel> levels, const SinkSpec& substrate);

  /// Feeds one arrival.
  void Observe(const Item& item);

  /// Feeds a contiguous run of arrivals through each level's fast path.
  void ObserveBatch(std::span<const Item> items);

  /// Draws one biased sample; nullopt iff nothing observed. An element in
  /// the j-th-but-not-(j-1)-th window is returned with probability
  /// sum_{l >= j} weight_l / n_l.
  std::optional<Item> Sample();

  /// Probability that a Sample() call returns the element at `age` arrivals
  /// before the newest (age 0 = newest). The staircase bias function.
  double InclusionProbability(uint64_t age) const;

  /// The step-bias-weighted window mean sum_l w_l * mean(W_l), estimated
  /// from one fresh per-level sample draw; (value, total sample size).
  /// Value 0 before the first arrival.
  std::pair<double, uint64_t> WeightedMeanEstimate();

  /// Total memory words across levels.
  uint64_t MemoryWords() const;

  /// Heap bytes retained beyond the object footprint: level/sampler
  /// vector capacities plus every per-level sampler's own retention.
  uint64_t RetainedBytes() const {
    uint64_t bytes =
        levels_.capacity() * sizeof(BiasLevel) +
        samplers_.capacity() * sizeof(std::unique_ptr<WindowSampler>);
    for (const auto& sampler : samplers_) bytes += sampler->RetainedBytes();
    return bytes;
  }

  /// Length n_L of the largest (outermost) level window.
  uint64_t max_window() const { return levels_.back().window; }

  /// Checkpointing: the level-pick RNG plus every per-level sampler
  /// (levels/weights/substrate are configuration).
  bool persistable() const;
  void SaveState(BinaryWriter* w) const;
  bool LoadState(BinaryReader* r);

 private:
  StepBiasedSampler(std::vector<BiasLevel> levels, uint64_t seed);

  std::vector<BiasLevel> levels_;
  Rng rng_;
  std::vector<std::unique_ptr<WindowSampler>> samplers_;
};

/// WindowEstimator wrapper over StepBiasedSampler ("biased-mean"): the
/// recency-weighted window mean, a staircase approximation of any monotone
/// bias function over the last n arrivals.
class BiasedMeanEstimator final : public WindowEstimator {
 public:
  /// Takes ownership of a configured step-biased sampler.
  static Result<std::unique_ptr<BiasedMeanEstimator>> Create(
      std::unique_ptr<StepBiasedSampler> sampler);

  void Observe(const Item& item) override {
    sampler_->Observe(item);
    ++count_;
  }
  void ObserveBatch(std::span<const Item> items) override {
    sampler_->ObserveBatch(items);
    count_ += items.size();
  }
  void AdvanceTime(Timestamp) override {}  // sequence windows only
  EstimateReport Estimate() override;
  uint64_t MemoryWords() const override { return sampler_->MemoryWords(); }
  uint64_t RetainedBytes() const override {
    return sizeof(*this) + sizeof(StepBiasedSampler) +
           sampler_->RetainedBytes();
  }
  const char* name() const override { return "biased-mean"; }
  /// Shard means combine as the occupancy-weighted mean of the union.
  EstimateMergeKind merge_kind() const override {
    return EstimateMergeKind::kWeightedMean;
  }
  bool persistable() const override { return sampler_->persistable(); }
  void SaveState(BinaryWriter* w) const override {
    w->PutU64(count_);
    sampler_->SaveState(w);
  }
  bool LoadState(BinaryReader* r) override {
    return r->GetU64(&count_) && sampler_->LoadState(r);
  }

  StepBiasedSampler& sampler() { return *sampler_; }

 private:
  explicit BiasedMeanEstimator(std::unique_ptr<StepBiasedSampler> sampler)
      : sampler_(std::move(sampler)) {}

  std::unique_ptr<StepBiasedSampler> sampler_;
  uint64_t count_ = 0;  ///< arrivals, for the outer-window occupancy
};

}  // namespace swsample

#endif  // SWSAMPLE_APPS_BIASED_H_
