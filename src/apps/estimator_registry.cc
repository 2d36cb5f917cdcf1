// Copyright (c) swsample authors. Licensed under the MIT license.

#include "apps/estimator_registry.h"

#include <utility>

#include "apps/biased.h"
#include "apps/entropy.h"
#include "apps/freq_moments.h"
#include "apps/payload_substrate.h"
#include "apps/quantiles.h"
#include "apps/triangles.h"
#include "apps/window_count.h"
#include "core/registry.h"

namespace swsample {
namespace {

using EstimatorResult = Result<std::unique_ptr<WindowEstimator>>;

/// The payload-capable substrate families (header table): the k-sample
/// with-replacement names alias the single-sample schemes because Theorems
/// 2.1/3.9 build them as k independent copies.
const std::vector<const char*> kPayloadSubstrates = {
    "bop-seq-single", "bop-seq-swr", "bop-ts-single",
    "bop-ts-swr",     "exact-seq",   "exact-ts",
};

std::vector<const char*> AllSamplerNames() {
  std::vector<const char*> names;
  for (const SamplerSpec& spec : RegisteredSamplers()) {
    names.push_back(spec.name);
  }
  return names;
}

std::vector<const char*> SequenceSamplerNames() {
  std::vector<const char*> names;
  for (const SamplerSpec& spec : RegisteredSamplers()) {
    if (spec.model == WindowModel::kSequence) names.push_back(spec.name);
  }
  return names;
}

/// Maps a payload-compatible substrate name to its substrate family.
SubstrateKind PayloadKindOf(std::string_view substrate) {
  if (substrate == "bop-seq-single" || substrate == "bop-seq-swr") {
    return SubstrateKind::kSeqUnits;
  }
  if (substrate == "bop-ts-single" || substrate == "bop-ts-swr") {
    return SubstrateKind::kTsUnits;
  }
  return substrate == "exact-seq" ? SubstrateKind::kExactSeq
                                  : SubstrateKind::kExactTs;
}

/// Everything CreateEstimator resolves before dispatching to a factory.
struct ResolvedConfig {
  const SamplerSpec* substrate;  ///< the named substrate's sampler spec
};

template <typename T>
EstimatorResult Widen(Result<std::unique_ptr<T>> r) {
  if (!r.ok()) return r.status();
  return std::unique_ptr<WindowEstimator>(std::move(r).ValueOrDie());
}

PayloadSubstrateParams PayloadParams(const SinkSpec& spec,
                                     const SamplerSpec& substrate) {
  PayloadSubstrateParams params;
  params.kind = PayloadKindOf(substrate.name);
  params.window_n = spec.window_n;
  params.window_t = spec.window_t;
  params.r = spec.r;
  params.count_eps = spec.count_eps;
  params.seed = spec.seed;
  return params;
}

/// The spec of an estimator's inner sampler: the estimator's own spec
/// renamed to the substrate, drawing `r` samples.
SinkSpec SubstrateSpec(const SinkSpec& spec, const SamplerSpec& substrate) {
  SinkSpec sampler_spec = spec;
  sampler_spec.name = substrate.name;
  sampler_spec.k = spec.r;
  return sampler_spec;
}

EstimatorResult MakeQuantile(const SinkSpec& spec,
                             const ResolvedConfig& resolved) {
  // A single-sample substrate cannot honor a DKW sample size r > 1, and
  // silently degrading the rank guarantee would betray the estimator's
  // name — require the caller to opt into r = 1 explicitly.
  if (resolved.substrate->single_sample && spec.r != 1) {
    return Status::InvalidArgument(
        std::string("dkw-quantile: substrate ") + resolved.substrate->name +
        " maintains a single sample; set r=1 (the rank guarantee"
        " then degenerates to a uniform window position)");
  }
  SinkSpec sampler_spec = SubstrateSpec(spec, *resolved.substrate);
  // Quantiles want distinct ranks where the substrate offers the choice.
  sampler_spec.with_replacement = false;
  auto sampler = CreateSampler(sampler_spec);
  if (!sampler.ok()) return sampler.status();
  return Widen(
      QuantileEstimator::Create(std::move(sampler).ValueOrDie(), spec.q));
}

EstimatorResult MakeBiasedMean(const SinkSpec& spec,
                               const ResolvedConfig& resolved) {
  SinkSpec level_spec = SubstrateSpec(spec, *resolved.substrate);
  std::vector<BiasLevel> levels = std::move(level_spec.bias_levels);
  if (levels.empty()) {
    // Default staircase: recent quarter window at equal weight with the
    // full window (degenerates to one level for tiny windows).
    const uint64_t quarter = spec.window_n / 4;
    if (quarter >= 1 && quarter < spec.window_n) {
      levels.push_back(BiasLevel{quarter, 1.0});
    }
    levels.push_back(BiasLevel{spec.window_n, 1.0});
  }
  // The estimator envelope carries no sampling mode, so the levels keep
  // the default one and a restored estimator rebuilds the same levels.
  level_spec.with_replacement = SinkSpec{}.with_replacement;
  auto sampler = StepBiasedSampler::Create(std::move(levels), level_spec);
  if (!sampler.ok()) return sampler.status();
  return Widen(BiasedMeanEstimator::Create(std::move(sampler).ValueOrDie()));
}

EstimatorResult MakeWindowCount(const SinkSpec& spec,
                                const ResolvedConfig& resolved) {
  WindowCountEstimator::Mode mode;
  if (resolved.substrate->model == WindowModel::kSequence) {
    mode = WindowCountEstimator::Mode::kSequence;
  } else if (std::string_view(resolved.substrate->name) == "exact-ts") {
    mode = WindowCountEstimator::Mode::kTsExact;
  } else {
    mode = WindowCountEstimator::Mode::kTsHistogram;
  }
  return Widen(WindowCountEstimator::Create(mode, spec.window_n,
                                            spec.window_t, spec.count_eps));
}

struct Entry {
  EstimatorSpec spec;
  EstimatorResult (*make)(const SinkSpec&, const ResolvedConfig&);
};

const std::vector<Entry>& Entries() {
  static const std::vector<Entry>* entries = new std::vector<Entry>{
      {{"ams-fk", "F_k", "bop-seq-single", kPayloadSubstrates,
        "AMS frequency moment F_k over a sliding window (Cor 5.2)"},
       +[](const SinkSpec& c, const ResolvedConfig& r) {
         return Widen(
             FkEstimator::Create(PayloadParams(c, *r.substrate), c.moment));
       }},
      {{"ccm-entropy", "H-bits", "bop-seq-single", kPayloadSubstrates,
        "CCM empirical entropy (bits) over a sliding window (Cor 5.4)"},
       +[](const SinkSpec& c, const ResolvedConfig& r) {
         return Widen(EntropyEstimator::Create(PayloadParams(c, *r.substrate)));
       }},
      {{"buriol-triangles", "T3", "bop-seq-single", kPayloadSubstrates,
        "Buriol et al. triangle count over a sliding edge window (Cor 5.3)"},
       +[](const SinkSpec& c, const ResolvedConfig& r) {
         return Widen(TriangleEstimator::Create(PayloadParams(c, *r.substrate),
                                                c.num_vertices));
       }},
      {{"dkw-quantile", "q-quantile", "bop-seq-swor", AllSamplerNames(),
        "windowed quantile from a k-sample, DKW rank error (Thm 5.1)"},
       MakeQuantile},
      {{"biased-mean", "biased-mean", "bop-seq-swr", SequenceSamplerNames(),
        "step-bias-weighted recency mean over nested windows (Sec 5)"},
       MakeBiasedMean},
      {{"window-count", "count", "bop-ts-single", AllSamplerNames(),
        "active-element count: exact (sequence) or DGIM n-hat (timestamp)"},
       MakeWindowCount},
  };
  return *entries;
}

const Entry* FindEntry(std::string_view name) {
  for (const Entry& entry : Entries()) {
    if (name == entry.spec.name) return &entry;
  }
  return nullptr;
}

bool SpecSupports(const EstimatorSpec& spec, std::string_view substrate) {
  for (const char* name : spec.substrates) {
    if (substrate == name) return true;
  }
  return false;
}

std::string SubstrateList(const EstimatorSpec& spec) {
  std::string out;
  for (const char* name : spec.substrates) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

}  // namespace

const std::vector<EstimatorSpec>& RegisteredEstimators() {
  static const std::vector<EstimatorSpec>* specs = [] {
    auto* v = new std::vector<EstimatorSpec>();
    for (const Entry& entry : Entries()) v->push_back(entry.spec);
    return v;
  }();
  return *specs;
}

const EstimatorSpec* FindEstimatorSpec(std::string_view name) {
  const Entry* entry = FindEntry(name);
  return entry == nullptr ? nullptr : &entry->spec;
}

bool IsRegisteredEstimator(std::string_view name) {
  return FindEstimatorSpec(name) != nullptr;
}

bool EstimatorSupportsSubstrate(std::string_view name,
                                std::string_view substrate) {
  const EstimatorSpec* spec = FindEstimatorSpec(name);
  return spec != nullptr && IsRegisteredSampler(substrate) &&
         SpecSupports(*spec, substrate);
}

Result<std::unique_ptr<WindowEstimator>> CreateEstimator(const SinkSpec& spec) {
  const Entry* entry = FindEntry(spec.name);
  if (entry == nullptr) {
    return Status::InvalidArgument("unknown estimator \"" + spec.name +
                                   "\"; registered: " +
                                   RegisteredEstimatorNames());
  }
  const std::string substrate_name = spec.substrate.empty()
                                         ? entry->spec.default_substrate
                                         : spec.substrate;
  const SamplerSpec* substrate = FindSamplerSpec(substrate_name);
  if (substrate == nullptr) {
    return Status::InvalidArgument(
        std::string(entry->spec.name) + ": unknown substrate \"" +
        substrate_name + "\"; registered samplers: " +
        RegisteredSamplerNames());
  }
  if (!SpecSupports(entry->spec, substrate_name)) {
    return Status::InvalidArgument(
        std::string(entry->spec.name) + ": substrate \"" + substrate_name +
        "\" is not compatible; compatible substrates: " +
        SubstrateList(entry->spec));
  }
  // Validate the window parameter of the substrate's model up front so
  // every estimator rejects a missing/invalid window uniformly.
  if (substrate->model == WindowModel::kSequence && spec.window_n < 1) {
    return Status::InvalidArgument(std::string(entry->spec.name) +
                                   ": spec.window_n must be >= 1 for "
                                   "sequence substrate " + substrate_name);
  }
  if (substrate->model == WindowModel::kTimestamp && spec.window_t < 1) {
    return Status::InvalidArgument(std::string(entry->spec.name) +
                                   ": spec.window_t must be >= 1 for "
                                   "timestamp substrate " + substrate_name);
  }
  if (spec.r < 1) {
    return Status::InvalidArgument(std::string(entry->spec.name) +
                                   ": spec.r must be >= 1");
  }
  return entry->make(spec, ResolvedConfig{substrate});
}

std::string RegisteredEstimatorNames() {
  std::string out;
  for (const Entry& entry : Entries()) {
    if (!out.empty()) out += ", ";
    out += entry.spec.name;
  }
  return out;
}

}  // namespace swsample
