// Copyright (c) swsample authors. Licensed under the MIT license.

#include "apps/biased.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/registry.h"
#include "stream/item_serial.h"

namespace swsample {

Result<std::unique_ptr<StepBiasedSampler>> StepBiasedSampler::Create(
    std::vector<BiasLevel> levels, const SinkSpec& substrate) {
  if (levels.empty()) {
    return Status::InvalidArgument("StepBiasedSampler: need >= 1 level");
  }
  double total = 0.0;
  for (size_t i = 0; i < levels.size(); ++i) {
    if (levels[i].window < 1) {
      return Status::InvalidArgument(
          "StepBiasedSampler: window lengths must be >= 1");
    }
    if (i > 0 && levels[i].window <= levels[i - 1].window) {
      return Status::InvalidArgument(
          "StepBiasedSampler: window lengths must be strictly increasing");
    }
    if (!(levels[i].weight > 0.0) || !std::isfinite(levels[i].weight)) {
      return Status::InvalidArgument(
          "StepBiasedSampler: weights must be positive and finite");
    }
    total += levels[i].weight;
  }
  const SamplerSpec* spec = FindSamplerSpec(substrate.name);
  if (spec == nullptr || spec->model != WindowModel::kSequence) {
    return Status::InvalidArgument(
        "StepBiasedSampler: substrate must be a registered sequence-model "
        "sampler, got \"" + substrate.name + "\"");
  }
  for (auto& level : levels) level.weight /= total;
  auto sampler = std::unique_ptr<StepBiasedSampler>(
      new StepBiasedSampler(std::move(levels), substrate.seed));
  SinkSpec level_spec = substrate;
  if (spec->single_sample) level_spec.k = 1;
  for (size_t i = 0; i < sampler->levels_.size(); ++i) {
    level_spec.window_n = sampler->levels_[i].window;
    level_spec.seed = Rng::ForkSeed(substrate.seed, i + 1);
    auto level_sampler = CreateSampler(level_spec);
    if (!level_sampler.ok()) return level_sampler.status();
    sampler->samplers_.push_back(std::move(level_sampler).ValueOrDie());
  }
  return sampler;
}

StepBiasedSampler::StepBiasedSampler(std::vector<BiasLevel> levels,
                                     uint64_t seed)
    : levels_(std::move(levels)), rng_(Rng::ForkSeed(seed, 0)) {
  samplers_.reserve(levels_.size());
}

void StepBiasedSampler::Observe(const Item& item) {
  for (auto& sampler : samplers_) sampler->Observe(item);
}

void StepBiasedSampler::ObserveBatch(std::span<const Item> items) {
  for (auto& sampler : samplers_) sampler->ObserveBatch(items);
}

std::optional<Item> StepBiasedSampler::Sample() {
  double u = rng_.Uniform01();
  size_t pick = levels_.size() - 1;
  double acc = 0.0;
  for (size_t i = 0; i < levels_.size(); ++i) {
    acc += levels_[i].weight;
    if (u < acc) {
      pick = i;
      break;
    }
  }
  auto sample = samplers_[pick]->Sample();
  if (sample.empty()) return std::nullopt;
  return sample.front();
}

double StepBiasedSampler::InclusionProbability(uint64_t age) const {
  double p = 0.0;
  for (size_t i = 0; i < levels_.size(); ++i) {
    if (age < levels_[i].window) {
      p += levels_[i].weight / static_cast<double>(levels_[i].window);
    }
  }
  return p;
}

std::pair<double, uint64_t> StepBiasedSampler::WeightedMeanEstimate() {
  double value = 0.0;
  uint64_t support = 0;
  for (size_t i = 0; i < levels_.size(); ++i) {
    auto sample = samplers_[i]->Sample();
    if (sample.empty()) continue;
    double acc = 0.0;
    for (const Item& item : sample) {
      acc += static_cast<double>(item.value);
    }
    value += levels_[i].weight * acc / static_cast<double>(sample.size());
    support += sample.size();
  }
  return {value, support};
}

bool StepBiasedSampler::persistable() const {
  for (const auto& sampler : samplers_) {
    if (!sampler->persistable()) return false;
  }
  return true;
}

void StepBiasedSampler::SaveState(BinaryWriter* w) const {
  SaveRngState(rng_, w);
  for (const auto& sampler : samplers_) sampler->SaveState(w);
}

bool StepBiasedSampler::LoadState(BinaryReader* r) {
  if (!LoadRngState(r, &rng_)) return false;
  for (auto& sampler : samplers_) {
    if (!sampler->LoadState(r)) return false;
  }
  return true;
}

uint64_t StepBiasedSampler::MemoryWords() const {
  uint64_t words = 0;
  for (const auto& sampler : samplers_) words += sampler->MemoryWords();
  return words;
}

Result<std::unique_ptr<BiasedMeanEstimator>> BiasedMeanEstimator::Create(
    std::unique_ptr<StepBiasedSampler> sampler) {
  if (sampler == nullptr) {
    return Status::InvalidArgument(
        "biased-mean: sampler must not be null");
  }
  return std::unique_ptr<BiasedMeanEstimator>(
      new BiasedMeanEstimator(std::move(sampler)));
}

EstimateReport BiasedMeanEstimator::Estimate() {
  EstimateReport report;
  report.metric = "biased-mean";
  auto [value, support] = sampler_->WeightedMeanEstimate();
  report.value = value;
  report.support = support;
  report.window_size =
      static_cast<double>(std::min(count_, sampler_->max_window()));
  return report;
}

}  // namespace swsample
