// Copyright (c) swsample authors. Licensed under the MIT license.

#include "apps/sink_spec.h"

#include <algorithm>
#include <cmath>
#include <limits>

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

Result<Sink> CreateSink(const SinkSpec& spec) {
  auto kind = SinkKindOf(spec.name);
  if (!kind.ok()) return kind.status();
  Sink out;
  if (kind.value() == SinkKind::kSampler) {
    auto sampler = CreateSampler(spec);
    if (!sampler.ok()) return sampler.status();
    out.sampler = sampler.value().get();
    out.sink = std::move(sampler).ValueOrDie();
  } else {
    auto estimator = CreateEstimator(spec);
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
  // Copy-assignment into one spec per thread reuses its string and level
  // buffers, so after a thread's first sink the seeded copy allocates
  // nothing.
  thread_local SinkSpec seeded;
  seeded = spec_;
  seeded.seed = seed;
  Sink out;
  if (kind_ == SinkKind::kSampler) {
    auto sampler = sampler_maker_ != nullptr ? sampler_maker_(seeded)
                                             : CreateSampler(seeded);
    if (!sampler.ok()) return sampler.status();
    out.sampler = sampler.value().get();
    out.sink = std::move(sampler).ValueOrDie();
  } else {
    auto estimator = CreateEstimator(seeded);
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

namespace {

/// Caps a corrupt bias-level count before allocation (levels are nested
/// windows — a handful in any real configuration).
constexpr uint64_t kMaxBiasLevels = 1024;

/// The envelope fields of each kind after the registry name, in wire
/// order. SaveSink and RestoreSink both walk this list, so no field can
/// be written by one and dropped by the other.
template <typename Visit>
void ForEachEnvelopeField(SinkKind kind, Visit visit) {
  if (kind == SinkKind::kSampler) {
    visit(&SinkSpec::window_n);
    visit(&SinkSpec::window_t);
    visit(&SinkSpec::k);
    visit(&SinkSpec::seed);
    visit(&SinkSpec::oversample_factor);
    visit(&SinkSpec::with_replacement);
    return;
  }
  visit(&SinkSpec::substrate);
  visit(&SinkSpec::window_n);
  visit(&SinkSpec::window_t);
  visit(&SinkSpec::r);
  visit(&SinkSpec::seed);
  visit(&SinkSpec::moment);
  visit(&SinkSpec::num_vertices);
  visit(&SinkSpec::count_eps);
  visit(&SinkSpec::q);
  visit(&SinkSpec::oversample_factor);
  visit(&SinkSpec::bias_levels);
}

/// Wire encoding per field type; 32-bit fields travel as u64.
void PutField(uint64_t value, BinaryWriter* w) { w->PutU64(value); }
void PutField(uint32_t value, BinaryWriter* w) { w->PutU64(value); }
void PutField(int64_t value, BinaryWriter* w) { w->PutI64(value); }
void PutField(double value, BinaryWriter* w) { w->PutDouble(value); }
void PutField(bool value, BinaryWriter* w) { w->PutBool(value); }
void PutField(const std::string& value, BinaryWriter* w) {
  w->PutString(value);
}
void PutField(const std::vector<BiasLevel>& levels, BinaryWriter* w) {
  w->PutU64(levels.size());
  for (const BiasLevel& level : levels) {
    w->PutU64(level.window);
    w->PutDouble(level.weight);
  }
}

/// The decoding side, with the per-type load caps: 32-bit fields must
/// fit, scalar doubles must be finite, and the level count is capped
/// before anything is allocated for it.
bool GetField(BinaryReader* r, uint64_t* value) { return r->GetU64(value); }
bool GetField(BinaryReader* r, uint32_t* value) {
  uint64_t wide = 0;
  if (!r->GetU64(&wide) || wide > std::numeric_limits<uint32_t>::max()) {
    return false;
  }
  *value = static_cast<uint32_t>(wide);
  return true;
}
bool GetField(BinaryReader* r, int64_t* value) { return r->GetI64(value); }
bool GetField(BinaryReader* r, double* value) {
  return r->GetDouble(value) && std::isfinite(*value);
}
bool GetField(BinaryReader* r, bool* value) { return r->GetBool(value); }
bool GetField(BinaryReader* r, std::string* value) {
  return r->GetString(value);
}
bool GetField(BinaryReader* r, std::vector<BiasLevel>* levels) {
  uint64_t count = 0;
  if (!r->GetU64(&count) || count > kMaxBiasLevels) return false;
  levels->resize(count);
  for (BiasLevel& level : *levels) {
    if (!r->GetU64(&level.window) || !r->GetDouble(&level.weight)) {
      return false;
    }
  }
  return true;
}

/// The unit-count load caps: a corrupt k, r or oversample factor would
/// otherwise allocate that many sampler units before any payload
/// validation runs. oversample-swor allocates k × oversample chain units
/// — as a sampler, or as an estimator's substrate drawing r — so the
/// product is capped too (both factors are <= the cap here, so it cannot
/// overflow 64 bits).
bool WithinUnitCaps(const SinkSpec& spec) {
  const uint64_t drawn = spec.substrate == "oversample-swor" ? spec.r : spec.k;
  return spec.k <= kMaxCheckpointUnits && spec.r <= kMaxCheckpointUnits &&
         spec.oversample_factor <= kMaxCheckpointUnits &&
         drawn * spec.oversample_factor <= kMaxCheckpointUnits;
}

CheckpointKind EnvelopeKind(SinkKind kind) {
  return kind == SinkKind::kSampler ? CheckpointKind::kSampler
                                    : CheckpointKind::kEstimator;
}

}  // namespace

Result<std::string> SaveSink(const StreamSink& sink, const SinkSpec& spec) {
  auto kind = SinkKindOf(spec.name);
  if (!kind.ok()) return kind.status();
  if (spec.name != sink.name()) {
    return Status::InvalidArgument("SaveSink: spec names \"" + spec.name +
                                   "\" but the sink is \"" + sink.name() +
                                   "\"");
  }
  if (!sink.persistable()) {
    return Status::FailedPrecondition(spec.name + ": sink is not persistable");
  }
  BinaryWriter w;
  WriteCheckpointHeader(EnvelopeKind(kind.value()), &w);
  w.PutString(spec.name);
  ForEachEnvelopeField(kind.value(), [&](auto field) {
    PutField(spec.*field, &w);
  });
  sink.SaveState(&w);
  return w.Release();
}

Result<RestoredSink> RestoreSink(std::string_view blob) {
  BinaryReader r(blob);
  CheckpointKind envelope_kind;
  if (!ReadCheckpointHeader(&r, &envelope_kind)) {
    return Status::InvalidArgument(
        "RestoreSink: bad magic, unsupported version, or unknown kind");
  }
  if (envelope_kind != CheckpointKind::kSampler &&
      envelope_kind != CheckpointKind::kEstimator) {
    return Status::InvalidArgument(
        "RestoreSink: blob is not a sampler or estimator checkpoint");
  }
  RestoredSink out;
  if (!r.GetString(&out.spec.name)) {
    return Status::InvalidArgument("RestoreSink: truncated envelope");
  }
  auto kind = SinkKindOf(out.spec.name);
  if (!kind.ok()) return kind.status();
  if (EnvelopeKind(kind.value()) != envelope_kind) {
    return Status::InvalidArgument("RestoreSink: \"" + out.spec.name +
                                   "\" does not match the envelope kind");
  }
  bool fields_ok = true;
  ForEachEnvelopeField(kind.value(), [&](auto field) {
    fields_ok = fields_ok && GetField(&r, &(out.spec.*field));
  });
  if (!fields_ok || !WithinUnitCaps(out.spec)) {
    return Status::InvalidArgument(
        "RestoreSink: truncated or invalid envelope");
  }
  auto sink = CreateSink(out.spec);
  if (!sink.ok()) return sink.status();
  out.sink = std::move(sink).ValueOrDie();
  if (!out.sink.sink->LoadState(&r) || !r.AtEnd()) {
    return Status::InvalidArgument(
        out.spec.name + ": truncated, corrupt, or trailing checkpoint state");
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
