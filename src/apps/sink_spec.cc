// Copyright (c) swsample authors. Licensed under the MIT license.

#include "apps/sink_spec.h"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "apps/estimator_checkpoint.h"
#include "core/checkpoint.h"
#include "util/rng.h"
#include "util/serial.h"

namespace swsample {

namespace {

/// Parses a full unsigned decimal token; false on garbage or overflow.
bool ParseU64Token(std::string_view token, uint64_t* out) {
  if (token.empty()) return false;
  std::string buf(token);
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(buf.c_str(), &end, 10);
  if (errno != 0 || end != buf.c_str() + buf.size()) return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

/// Parses a full floating-point token; false on garbage.
bool ParseDoubleToken(std::string_view token, double* out) {
  if (token.empty()) return false;
  std::string buf(token);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (errno != 0 || end != buf.c_str() + buf.size()) return false;
  *out = v;
  return true;
}

Status BadSpec(std::string_view text, const std::string& why) {
  return Status::InvalidArgument("sink spec \"" + std::string(text) +
                                 "\": " + why);
}

/// Renders a double with enough digits to round-trip, trimming the
/// trailing zeros "%.17g" would keep for simple values like 0.5.
std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  double back = 0.0;
  if (ParseDoubleToken(buf, &back) && back == v) {
    // Try shorter renderings first for readable canonical strings.
    for (int prec = 1; prec <= 16; ++prec) {
      char shorter[64];
      std::snprintf(shorter, sizeof shorter, "%.*g", prec, v);
      if (ParseDoubleToken(shorter, &back) && back == v) {
        return shorter;
      }
    }
  }
  return buf;
}

/// Parses `window:weight[+window:weight]...` into bias levels.
bool ParseBiasLevels(std::string_view value, std::vector<BiasLevel>* out) {
  out->clear();
  while (!value.empty()) {
    const size_t plus = value.find('+');
    std::string_view level_text =
        plus == std::string_view::npos ? value : value.substr(0, plus);
    value = plus == std::string_view::npos ? std::string_view()
                                           : value.substr(plus + 1);
    const size_t colon = level_text.find(':');
    if (colon == std::string_view::npos) return false;
    BiasLevel level{};
    if (!ParseU64Token(level_text.substr(0, colon), &level.window) ||
        !ParseDoubleToken(level_text.substr(colon + 1), &level.weight)) {
      return false;
    }
    out->push_back(level);
  }
  return !out->empty();
}

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
  SinkSpec spec;
  std::string_view rest = text;
  const size_t comma = rest.find(',');
  std::string_view head =
      comma == std::string_view::npos ? rest : rest.substr(0, comma);
  rest = comma == std::string_view::npos ? std::string_view()
                                         : rest.substr(comma + 1);
  const size_t at = head.find('@');
  if (at == std::string_view::npos) {
    spec.name = std::string(head);
  } else {
    spec.name = std::string(head.substr(0, at));
    spec.substrate = std::string(head.substr(at + 1));
    if (spec.substrate.empty()) {
      return BadSpec(text, "empty substrate after '@'");
    }
  }
  auto kind = SinkKindOf(spec.name);
  if (!kind.ok()) return kind.status();
  if (kind.value() == SinkKind::kSampler && !spec.substrate.empty()) {
    return BadSpec(text, "samplers take no '@substrate'");
  }

  while (!rest.empty()) {
    const size_t next = rest.find(',');
    std::string_view pair =
        next == std::string_view::npos ? rest : rest.substr(0, next);
    rest = next == std::string_view::npos ? std::string_view()
                                          : rest.substr(next + 1);
    const size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      return BadSpec(text, "expected key=value, got \"" + std::string(pair) +
                               "\"");
    }
    const std::string_view key = pair.substr(0, eq);
    const std::string_view value = pair.substr(eq + 1);
    uint64_t u64 = 0;
    double f64 = 0.0;
    bool ok = true;
    if (key == "n") {
      ok = ParseU64Token(value, &spec.window_n);
    } else if (key == "t") {
      ok = ParseU64Token(value, &u64);
      spec.window_t = static_cast<Timestamp>(u64);
    } else if (key == "k") {
      ok = ParseU64Token(value, &spec.k);
    } else if (key == "r") {
      ok = ParseU64Token(value, &spec.r);
    } else if (key == "seed") {
      ok = ParseU64Token(value, &spec.seed);
    } else if (key == "moment") {
      ok = ParseU64Token(value, &u64) && u64 <= UINT32_MAX;
      spec.moment = static_cast<uint32_t>(u64);
    } else if (key == "vertices") {
      ok = ParseU64Token(value, &u64) && u64 <= UINT32_MAX;
      spec.num_vertices = static_cast<uint32_t>(u64);
    } else if (key == "eps") {
      ok = ParseDoubleToken(value, &f64);
      spec.count_eps = f64;
    } else if (key == "q") {
      ok = ParseDoubleToken(value, &f64);
      spec.q = f64;
    } else if (key == "oversample") {
      ok = ParseU64Token(value, &spec.oversample_factor);
    } else if (key == "wr") {
      ok = ParseU64Token(value, &u64) && u64 <= 1;
      spec.with_replacement = u64 != 0;
    } else if (key == "bias") {
      ok = ParseBiasLevels(value, &spec.bias_levels);
    } else {
      return BadSpec(text, "unknown key \"" + std::string(key) +
                               "\"; recognized: n, t, k, r, seed, moment, "
                               "vertices, eps, q, oversample, wr, bias");
    }
    if (!ok) {
      return BadSpec(text, "invalid value \"" + std::string(value) +
                               "\" for key \"" + std::string(key) + "\"");
    }
  }
  return spec;
}

std::string FormatSinkSpec(const SinkSpec& spec) {
  const SinkSpec defaults;
  std::string out = spec.name;
  if (!spec.substrate.empty()) {
    out += "@";
    out += spec.substrate;
  }
  char buf[64];
  auto put_u64 = [&](const char* key, uint64_t v) {
    std::snprintf(buf, sizeof buf, ",%s=%" PRIu64, key, v);
    out += buf;
  };
  if (spec.window_n != defaults.window_n) put_u64("n", spec.window_n);
  if (spec.window_t != defaults.window_t) {
    put_u64("t", static_cast<uint64_t>(spec.window_t));
  }
  if (spec.k != defaults.k) put_u64("k", spec.k);
  if (spec.r != defaults.r) put_u64("r", spec.r);
  if (spec.seed != defaults.seed) put_u64("seed", spec.seed);
  if (spec.moment != defaults.moment) put_u64("moment", spec.moment);
  if (spec.num_vertices != defaults.num_vertices) {
    put_u64("vertices", spec.num_vertices);
  }
  if (spec.count_eps != defaults.count_eps) {
    out += ",eps=" + FormatDouble(spec.count_eps);
  }
  if (spec.q != defaults.q) out += ",q=" + FormatDouble(spec.q);
  if (spec.oversample_factor != defaults.oversample_factor) {
    put_u64("oversample", spec.oversample_factor);
  }
  if (spec.with_replacement != defaults.with_replacement) {
    put_u64("wr", spec.with_replacement ? 1 : 0);
  }
  if (!spec.bias_levels.empty()) {
    out += ",bias=";
    for (size_t i = 0; i < spec.bias_levels.size(); ++i) {
      if (i > 0) out += "+";
      std::snprintf(buf, sizeof buf, "%" PRIu64 ":",
                    spec.bias_levels[i].window);
      out += buf;
      out += FormatDouble(spec.bias_levels[i].weight);
    }
  }
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
