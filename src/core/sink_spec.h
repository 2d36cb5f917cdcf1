// Copyright (c) swsample authors. Licensed under the MIT license.

/// \file
/// The one description of a stream sink: `SinkSpec` names a registered
/// sampler or estimator and carries every configuration field either kind
/// reads. The sampler registry (core/registry.h), the estimator registry
/// (apps/estimator_registry.h), the checkpoint envelope and every call
/// site take this struct; an estimator that builds an inner sampler
/// derives that sampler's spec from its own (a copy with `name` set to the
/// substrate plus its own overrides). The text grammar, the unified
/// factory and the envelope codec live in apps/sink_spec.h.
///
/// This header holds plain data only, so the core registry can see it
/// without depending on the application layer.

#ifndef SWSAMPLE_CORE_SINK_SPEC_H_
#define SWSAMPLE_CORE_SINK_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "stream/item.h"

namespace swsample {

/// One recency level of a step-biased sampler (apps/biased.h).
struct BiasLevel {
  uint64_t window;  ///< window length n_j (must be strictly increasing)
  double weight;    ///< probability mass of this level (> 0)
  friend bool operator==(const BiasLevel&, const BiasLevel&) = default;
};

/// One description of any constructible sink, keyed by a single registry
/// name. Only the fields the named sink (and its window model) uses are
/// validated; the rest are ignored.
struct SinkSpec {
  /// Sampler- or estimator-registry name. Decides the kind.
  std::string name;
  /// Sampling substrate (estimators only); "" selects the estimator's
  /// default substrate.
  std::string substrate;
  /// Sequence window size n (sequence-model sinks; >= 1 there).
  uint64_t window_n = 0;
  /// Timestamp window length t0 (timestamp-model sinks; >= 1 there).
  Timestamp window_t = 0;
  /// Samples to maintain (samplers; single-sample names require 1).
  uint64_t k = 1;
  /// Independent sampling units / sample size (estimators; >= 1).
  uint64_t r = 64;
  /// RNG seed; equal specs construct identically-behaving sinks.
  uint64_t seed = 0;
  /// Frequency moment (ams-fk only; >= 1).
  uint32_t moment = 2;
  /// Vertex universe size (buriol-triangles only; >= 3).
  uint32_t num_vertices = 0;
  /// Relative error of the DGIM window-size estimate (timestamp
  /// substrates; in (0, 1]).
  double count_eps = 0.05;
  /// Quantile reported by dkw-quantile (in [0, 1]).
  double q = 0.5;
  /// Recency levels (biased-mean only); empty derives a two-level
  /// staircase {window_n / 4, window_n} with equal weights.
  std::vector<BiasLevel> bias_levels;
  /// Over-sampling factor (oversample-swor, as a sampler or substrate).
  uint64_t oversample_factor = 3;
  /// Sampling mode of the exact-window oracles (exact-seq / exact-ts).
  bool with_replacement = true;
  friend bool operator==(const SinkSpec&, const SinkSpec&) = default;
};

}  // namespace swsample

#endif  // SWSAMPLE_CORE_SINK_SPEC_H_
