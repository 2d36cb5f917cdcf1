// Copyright (c) swsample authors. Licensed under the MIT license.

#include "apps/sink_spec.h"

#include <algorithm>

#include "apps/estimator_checkpoint.h"
#include "core/checkpoint.h"
#include "util/rng.h"
#include "util/serial.h"
#include "util/spec_text.h"

namespace swsample {

/// The `bias=window:weight[+window:weight]...` field. These overloads
/// sit in namespace swsample so the spec_text field templates find them.
static bool ParseSpecValue(std::string_view value,
                           std::vector<BiasLevel>* out) {
  out->clear();
  while (!value.empty()) {
    const size_t plus = std::min(value.find('+'), value.size());
    const std::string_view level_text = value.substr(0, plus);
    value = value.substr(std::min(plus + 1, value.size()));
    const size_t colon = level_text.find(':');
    if (colon == std::string_view::npos) return false;
    BiasLevel level{};
    if (!ParseUnsigned(level_text.substr(0, colon), &level.window) ||
        !ParseFiniteDouble(level_text.substr(colon + 1), &level.weight)) {
      return false;
    }
    out->push_back(level);
  }
  return !out->empty();
}

static std::string FormatSpecValue(const std::vector<BiasLevel>& levels) {
  std::string out;
  for (const BiasLevel& level : levels) {
    if (!out.empty()) out += "+";
    // '+' separates levels, so a weight's exponent is written "1e03".
    std::string weight = FormatDouble(level.weight);
    std::erase(weight, '+');
    out += std::to_string(level.window) + ":" + weight;
  }
  return out;
}

namespace {

constexpr char kWhat[] = "sink spec";

/// The key=value fields of a SinkSpec in canonical order: ParseSinkSpec
/// and FormatSinkSpec both walk this table.
const auto ForEachSinkField = [](auto visit) {
  visit("n", &SinkSpec::window_n);
  visit("t", &SinkSpec::window_t);
  visit("k", &SinkSpec::k);
  visit("r", &SinkSpec::r);
  visit("seed", &SinkSpec::seed);
  visit("moment", &SinkSpec::moment);
  visit("vertices", &SinkSpec::num_vertices);
  visit("eps", &SinkSpec::count_eps);
  visit("q", &SinkSpec::q);
  visit("oversample", &SinkSpec::oversample_factor);
  visit("wr", &SinkSpec::with_replacement);
  visit("bias", &SinkSpec::bias_levels);
};

}  // namespace

Result<SinkKind> SinkKindOf(std::string_view name) {
  if (FindSamplerSpec(name) != nullptr) return SinkKind::kSampler;
  if (FindEstimatorSpec(name) != nullptr) return SinkKind::kEstimator;
  return Status::InvalidArgument("unknown sink \"" + std::string(name) +
                                 "\"; registered: " + RegisteredSinkNames());
}

Result<WindowModel> SinkWindowModel(const SinkSpec& spec) {
  auto kind = SinkKindOf(spec.name);
  if (!kind.ok()) return kind.status();
  if (kind.value() == SinkKind::kSampler) {
    return FindSamplerSpec(spec.name)->model;
  }
  const EstimatorSpec* estimator = FindEstimatorSpec(spec.name);
  const std::string substrate_name =
      spec.substrate.empty() ? estimator->default_substrate : spec.substrate;
  const SamplerSpec* substrate = FindSamplerSpec(substrate_name);
  if (substrate == nullptr) {
    return Status::InvalidArgument(
        spec.name + ": unknown substrate \"" + substrate_name +
        "\"; registered samplers: " + RegisteredSamplerNames());
  }
  return substrate->model;
}

Result<SinkSpec> ParseSinkSpec(std::string_view text) {
  auto parts = SplitSpec(kWhat, text);
  if (!parts.ok()) return parts.status();
  SinkSpec spec;
  spec.name = std::string(parts.value().name);
  spec.substrate = std::string(parts.value().sub);
  if (parts.value().has_sub && spec.substrate.empty()) {
    return BadSpec(kWhat, text, "empty substrate after '@'");
  }
  auto kind = SinkKindOf(spec.name);
  if (!kind.ok()) return kind.status();
  if (kind.value() == SinkKind::kSampler && !spec.substrate.empty()) {
    return BadSpec(kWhat, text, "samplers take no '@substrate'");
  }
  Status fields =
      ParseSpecFields(kWhat, text, parts.value(), ForEachSinkField, &spec);
  if (!fields.ok()) return fields;
  return spec;
}

std::string FormatSinkSpec(const SinkSpec& spec) {
  std::string out = spec.name;
  if (!spec.substrate.empty()) out += "@" + spec.substrate;
  FormatSpecFields(spec, ForEachSinkField, &out);
  return out;
}

SamplerConfig ToSamplerConfig(const SinkSpec& spec) {
  SamplerConfig config;
  config.window_n = spec.window_n;
  config.window_t = spec.window_t;
  config.k = spec.k;
  config.seed = spec.seed;
  config.oversample_factor = spec.oversample_factor;
  config.with_replacement = spec.with_replacement;
  return config;
}

EstimatorConfig ToEstimatorConfig(const SinkSpec& spec) {
  EstimatorConfig config;
  config.substrate = spec.substrate;
  config.window_n = spec.window_n;
  config.window_t = spec.window_t;
  config.r = spec.r;
  config.seed = spec.seed;
  config.moment = spec.moment;
  config.num_vertices = spec.num_vertices;
  config.count_eps = spec.count_eps;
  config.q = spec.q;
  config.bias_levels = spec.bias_levels;
  config.oversample_factor = spec.oversample_factor;
  return config;
}

SinkSpec SamplerSinkSpec(std::string_view name, const SamplerConfig& config) {
  SinkSpec spec;
  spec.name = std::string(name);
  spec.window_n = config.window_n;
  spec.window_t = config.window_t;
  spec.k = config.k;
  spec.seed = config.seed;
  spec.oversample_factor = config.oversample_factor;
  spec.with_replacement = config.with_replacement;
  return spec;
}

SinkSpec EstimatorSinkSpec(std::string_view name,
                           const EstimatorConfig& config) {
  SinkSpec spec;
  spec.name = std::string(name);
  spec.substrate = config.substrate;
  spec.window_n = config.window_n;
  spec.window_t = config.window_t;
  spec.r = config.r;
  spec.seed = config.seed;
  spec.moment = config.moment;
  spec.num_vertices = config.num_vertices;
  spec.count_eps = config.count_eps;
  spec.q = config.q;
  spec.bias_levels = config.bias_levels;
  spec.oversample_factor = config.oversample_factor;
  return spec;
}

Result<Sink> CreateSink(const SinkSpec& spec) {
  auto kind = SinkKindOf(spec.name);
  if (!kind.ok()) return kind.status();
  Sink out;
  if (kind.value() == SinkKind::kSampler) {
    auto sampler = CreateSampler(spec.name, ToSamplerConfig(spec));
    if (!sampler.ok()) return sampler.status();
    out.sampler = sampler.value().get();
    out.sink = std::move(sampler).ValueOrDie();
  } else {
    auto estimator = CreateEstimator(spec.name, ToEstimatorConfig(spec));
    if (!estimator.ok()) return estimator.status();
    out.estimator = estimator.value().get();
    out.sink = std::move(estimator).ValueOrDie();
  }
  return out;
}

Result<SinkFactory> SinkFactory::Bind(const SinkSpec& spec) {
  auto kind = SinkKindOf(spec.name);
  if (!kind.ok()) return kind.status();
  SinkFactory factory;
  factory.spec_ = spec;
  factory.kind_ = kind.value();
  factory.sampler_config_ = ToSamplerConfig(spec);
  factory.estimator_config_ = ToEstimatorConfig(spec);
  // Probe construction front-loads every configuration error (it goes
  // through CreateSampler/CreateEstimator, so window validation runs
  // here once); afterwards Create can use the resolved maker directly.
  auto probe = factory.Create(spec.seed);
  if (!probe.ok()) return probe.status();
  if (factory.kind_ == SinkKind::kSampler) {
    factory.sampler_maker_ = FindSamplerMaker(spec.name);
  }
  return factory;
}

Result<Sink> SinkFactory::Create(uint64_t seed) const {
  Sink out;
  if (kind_ == SinkKind::kSampler) {
    SamplerConfig config = sampler_config_;
    config.seed = seed;
    auto sampler = sampler_maker_ != nullptr
                       ? sampler_maker_(config)
                       : CreateSampler(spec_.name, config);
    if (!sampler.ok()) return sampler.status();
    out.sampler = sampler.value().get();
    out.sink = std::move(sampler).ValueOrDie();
  } else {
    EstimatorConfig config = estimator_config_;
    config.seed = seed;
    auto estimator = CreateEstimator(spec_.name, config);
    if (!estimator.ok()) return estimator.status();
    out.estimator = estimator.value().get();
    out.sink = std::move(estimator).ValueOrDie();
  }
  return out;
}

namespace {

/// Splits a sequence window across shards; identity for shards == 1.
Result<uint64_t> SplitSequenceWindow(std::string_view name, uint64_t window_n,
                                     uint64_t shards) {
  if (shards == 1) return window_n;
  if (window_n < shards || window_n % shards != 0) {
    return Status::InvalidArgument(
        std::string(name) + ": window_n (" + std::to_string(window_n) +
        ") must be a positive multiple of the shard count (" +
        std::to_string(shards) +
        ") so the shard windows union to the global window");
  }
  return window_n / shards;
}

}  // namespace

Result<SinkSpec> ShardSinkSpec(const SinkSpec& spec, uint64_t shard,
                               uint64_t shards) {
  if (shards < 1 || shard >= shards) {
    return Status::InvalidArgument(
        "ShardSinkSpec: requires 0 <= shard < shards");
  }
  auto model = SinkWindowModel(spec);
  if (!model.ok()) return model.status();
  SinkSpec shard_spec = spec;
  if (model.value() == WindowModel::kSequence) {
    auto window = SplitSequenceWindow(spec.name, spec.window_n, shards);
    if (!window.ok()) return window.status();
    shard_spec.window_n = window.value();
    for (BiasLevel& level : shard_spec.bias_levels) {
      auto level_window =
          SplitSequenceWindow("biased-mean level", level.window, shards);
      if (!level_window.ok()) return level_window.status();
      level.window = level_window.value();
    }
  }
  // A single shard is the unsharded sink: same window, same seed.
  if (shards > 1) shard_spec.seed = Rng::ForkSeed(spec.seed, shard);
  return shard_spec;
}

Result<std::vector<Sink>> CreateShardedSinks(const SinkSpec& spec,
                                             uint64_t shards) {
  if (shards < 1) {
    return Status::InvalidArgument("CreateShardedSinks: shards must be >= 1");
  }
  std::vector<Sink> replicas;
  replicas.reserve(shards);
  for (uint64_t shard = 0; shard < shards; ++shard) {
    auto shard_spec = ShardSinkSpec(spec, shard, shards);
    if (!shard_spec.ok()) return shard_spec.status();
    auto replica = CreateSink(shard_spec.value());
    if (!replica.ok()) return replica.status();
    replicas.push_back(std::move(replica).ValueOrDie());
  }
  return replicas;
}

Result<std::string> SaveSink(const StreamSink& sink, const SinkSpec& spec) {
  auto kind = SinkKindOf(spec.name);
  if (!kind.ok()) return kind.status();
  if (kind.value() == SinkKind::kSampler) {
    const auto* sampler = dynamic_cast<const WindowSampler*>(&sink);
    if (sampler == nullptr) {
      return Status::InvalidArgument(
          "SaveSink: spec names sampler \"" + spec.name +
          "\" but the sink is not a WindowSampler");
    }
    return SaveSampler(*sampler, ToSamplerConfig(spec));
  }
  const auto* estimator = dynamic_cast<const WindowEstimator*>(&sink);
  if (estimator == nullptr) {
    return Status::InvalidArgument(
        "SaveSink: spec names estimator \"" + spec.name +
        "\" but the sink is not a WindowEstimator");
  }
  return SaveEstimator(*estimator, ToEstimatorConfig(spec));
}

Result<RestoredSink> RestoreSink(std::string_view blob) {
  // Parse the envelope header once to recover the (name, config) pair the
  // spec is lifted from, then let the kind's own restore function rebuild
  // the object from the full blob.
  BinaryReader header(blob);
  CheckpointKind kind;
  if (!ReadCheckpointHeader(&header, &kind)) {
    return Status::InvalidArgument(
        "RestoreSink: bad magic, unsupported version, or unknown kind");
  }
  std::string name;
  if (!header.GetString(&name)) {
    return Status::InvalidArgument("RestoreSink: truncated envelope");
  }
  RestoredSink out;
  if (kind == CheckpointKind::kSampler) {
    SamplerConfig config;
    if (!LoadSamplerConfig(&header, &config)) {
      return Status::InvalidArgument("RestoreSink: truncated envelope");
    }
    auto sampler = RestoreSampler(blob);
    if (!sampler.ok()) return sampler.status();
    out.spec = SamplerSinkSpec(name, config);
    out.sink.sampler = sampler.value().get();
    out.sink.sink = std::move(sampler).ValueOrDie();
  } else if (kind == CheckpointKind::kEstimator) {
    EstimatorConfig config;
    if (!LoadEstimatorConfig(&header, &config)) {
      return Status::InvalidArgument("RestoreSink: truncated envelope");
    }
    auto estimator = RestoreEstimator(blob);
    if (!estimator.ok()) return estimator.status();
    out.spec = EstimatorSinkSpec(name, config);
    out.sink.estimator = estimator.value().get();
    out.sink.sink = std::move(estimator).ValueOrDie();
  } else {
    return Status::InvalidArgument(
        "RestoreSink: blob is not a sampler or estimator checkpoint");
  }
  return out;
}

std::vector<StreamSink*> SinkPointers(const std::vector<Sink>& shards) {
  std::vector<StreamSink*> out;
  out.reserve(shards.size());
  for (const Sink& shard : shards) out.push_back(shard.sink.get());
  return out;
}

Result<std::vector<WindowSampler*>> SamplerPointers(
    const std::vector<Sink>& shards) {
  std::vector<WindowSampler*> out;
  out.reserve(shards.size());
  for (const Sink& shard : shards) {
    if (shard.sampler == nullptr) {
      return Status::InvalidArgument(
          "SamplerPointers: shard set holds a non-sampler sink");
    }
    out.push_back(shard.sampler);
  }
  return out;
}

Result<std::vector<WindowEstimator*>> EstimatorPointers(
    const std::vector<Sink>& shards) {
  std::vector<WindowEstimator*> out;
  out.reserve(shards.size());
  for (const Sink& shard : shards) {
    if (shard.estimator == nullptr) {
      return Status::InvalidArgument(
          "EstimatorPointers: shard set holds a non-estimator sink");
    }
    out.push_back(shard.estimator);
  }
  return out;
}

std::string RegisteredSinkNames() {
  std::string out = RegisteredSamplerNames();
  const std::string estimators = RegisteredEstimatorNames();
  if (!out.empty() && !estimators.empty()) out += ", ";
  out += estimators;
  return out;
}

std::string FormatSinkList() {
  std::string out = "samplers (sink spec: name[,key=value]...):\n";
  for (const SamplerSpec& spec : RegisteredSamplers()) {
    out += "  ";
    out += spec.name;
    out += spec.model == WindowModel::kSequence ? "  [sequence]  "
                                                : "  [timestamp]  ";
    out += spec.summary;
    out += "\n";
  }
  out += "estimators (sink spec: name[@substrate][,key=value]...):\n";
  for (const EstimatorSpec& spec : RegisteredEstimators()) {
    out += "  ";
    out += spec.name;
    out += "  [";
    out += spec.metric;
    out += ", default @";
    out += spec.default_substrate;
    out += "]  ";
    out += spec.summary;
    out += "\n";
  }
  return out;
}

}  // namespace swsample
