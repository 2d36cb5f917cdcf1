// Copyright (c) swsample authors. Licensed under the MIT license.

/// \file
/// The unified sink construction API: ONE description (`SinkSpec`) and ONE
/// factory (`CreateSink`) for every stream sink in the library — the twelve
/// registered samplers and the six registered estimators. Everything that
/// constructs sinks (the CLI, the sharded driver's replica fan-out, the
/// keyed multi-tenant engine, checkpoint restore, benches and tests) goes
/// through this layer, so the three historical construction paths (sampler
/// registry, estimator registry + substrate string, and the deleted
/// `CreateShardedSamplers`/`CreateShardedEstimators` twins with their
/// parallel `ShardSamplerConfig`/`ShardEstimatorConfig` derivations)
/// collapse into one.
///
/// A spec is parseable from a single string:
///
///   name[@substrate][,key=value]...
///
///   bop-seq-swor,n=65536,k=64,seed=7
///   ams-fk@bop-ts-swr,t=1000,r=256,moment=2
///   biased-mean,n=4096,bias=1024:0.5+4096:0.5
///
/// Recognized keys: n (sequence window), t (timestamp window), k (sampler
/// sample count), r (estimator unit count), seed, oversample, wr (0/1,
/// exact-oracle replacement mode), moment, vertices, eps, q, and
/// bias=window:weight[+window:weight]... . Unknown names and keys are
/// InvalidArgument with the registered/recognized set in the message.
/// FormatSinkSpec renders the canonical string (defaults omitted) and
/// round-trips through ParseSinkSpec.
///
/// Sharding: `ShardSinkSpec` is the single derivation of a shard replica's
/// configuration — sequence windows split as window_n / shards (must divide
/// evenly, bias levels included), seeds forked with Rng::ForkSeed — and
/// `CreateShardedSinks` materializes the replicas. The checkpoint
/// serializers (stream/checkpoint.h) stamp each shard's envelope with the
/// exact spec that constructed it via the same derivation.
///
/// Ownership: CreateSink returns a caller-owned Sink whose unique_ptr owns
/// the object; the typed views (`sampler`/`estimator`) alias it and share
/// its lifetime.
///
/// Thread-safety: free functions over immutable registries; constructed
/// sinks follow core/api.h's one-thread-per-instance rule.

#ifndef SWSAMPLE_APPS_SINK_SPEC_H_
#define SWSAMPLE_APPS_SINK_SPEC_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "apps/estimator.h"
#include "apps/estimator_registry.h"
#include "core/api.h"
#include "core/registry.h"
#include "util/status.h"

namespace swsample {

/// Which half of the registry a spec's name lives in. Sampler and
/// estimator names are disjoint by construction.
enum class SinkKind {
  kSampler,    ///< name is a sampler-registry key
  kEstimator,  ///< name is an estimator-registry key
};

/// One description of any constructible sink: the union of SamplerConfig
/// and EstimatorConfig keyed by a single registry name. Only the fields
/// the named sink (and its window model) uses are validated; the rest are
/// ignored, exactly like the per-registry configs.
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
  /// Independent sampling units / sample size (estimators).
  uint64_t r = 64;
  /// RNG seed; equal specs construct identically-behaving sinks.
  uint64_t seed = 0;
  /// Frequency moment (ams-fk only).
  uint32_t moment = 2;
  /// Vertex universe size (buriol-triangles only).
  uint32_t num_vertices = 0;
  /// Relative error of the DGIM window-size estimate (timestamp
  /// substrates).
  double count_eps = 0.05;
  /// Quantile reported by dkw-quantile.
  double q = 0.5;
  /// Recency levels (biased-mean only); empty derives the default
  /// staircase.
  std::vector<BiasLevel> bias_levels;
  /// Over-sampling factor (oversample-swor substrate/sampler).
  uint64_t oversample_factor = 3;
  /// Sampling mode of the exact-window oracles.
  bool with_replacement = true;
};

/// A constructed sink with its typed views: `sink` owns the object;
/// exactly one of `sampler`/`estimator` is non-null and aliases it.
struct Sink {
  std::unique_ptr<StreamSink> sink;
  WindowSampler* sampler = nullptr;
  WindowEstimator* estimator = nullptr;

  SinkKind kind() const {
    return sampler != nullptr ? SinkKind::kSampler : SinkKind::kEstimator;
  }
};

/// The kind of the sink registered under `name`; InvalidArgument (listing
/// every registered name) when `name` is in neither registry.
Result<SinkKind> SinkKindOf(std::string_view name);

/// The window model `spec` operates under: the named sampler's model, or
/// the estimator's (possibly defaulted) substrate's model.
Result<WindowModel> SinkWindowModel(const SinkSpec& spec);

/// Parses the `name[@substrate][,key=value]...` grammar above.
Result<SinkSpec> ParseSinkSpec(std::string_view text);

/// Canonical string form (defaults omitted); ParseSinkSpec round-trips it.
std::string FormatSinkSpec(const SinkSpec& spec);

/// The per-registry configs a spec projects onto. Conversions are total:
/// field validation happens in the registry factories, not here.
SamplerConfig ToSamplerConfig(const SinkSpec& spec);
EstimatorConfig ToEstimatorConfig(const SinkSpec& spec);

/// Lifts a registry config back into a spec (checkpoint restore, alias
/// flags). The inverse of the To* projections.
SinkSpec SamplerSinkSpec(std::string_view name, const SamplerConfig& config);
SinkSpec EstimatorSinkSpec(std::string_view name,
                           const EstimatorConfig& config);

/// THE factory: constructs the sink `spec` describes through the proper
/// registry. Unknown names, unknown/incompatible substrates and invalid
/// configurations come back as InvalidArgument.
Result<Sink> CreateSink(const SinkSpec& spec);

/// Pre-resolved construction state for one spec: the registry kind and
/// the projected per-registry config are computed ONCE at bind time, so
/// call sites that construct the same shape over and over with varying
/// seeds — the keyed engine makes one sink per tenant, millions of them
/// at 1e7 keys — skip the name lookup, spec copy, and config projection
/// CreateSink pays per call. Create(seed) behaves exactly like
/// CreateSink on a copy of the bound spec with `seed` substituted.
class SinkFactory {
 public:
  /// Unbound factory (Create on it fails); assign a Bind() result
  /// before use. Exists so factories can live by value in engines.
  SinkFactory() = default;

  /// Resolves `spec`'s registry kind and validates it by constructing
  /// (and discarding) one sink, so a factory that binds successfully
  /// cannot fail later for configuration reasons.
  static Result<SinkFactory> Bind(const SinkSpec& spec);

  /// Constructs a sink with the bound configuration and `seed`.
  Result<Sink> Create(uint64_t seed) const;

  SinkKind kind() const { return kind_; }
  /// The bound spec; `spec().seed` is the pre-fork root seed.
  const SinkSpec& spec() const { return spec_; }

 private:
  SinkSpec spec_;
  SinkKind kind_ = SinkKind::kSampler;
  SamplerConfig sampler_config_;
  EstimatorConfig estimator_config_;
  /// Resolved sampler construction function (nullptr for estimators);
  /// Bind's probe construction already validated the configuration, so
  /// Create can call this directly instead of re-running CreateSampler's
  /// name scan per sink.
  SamplerMaker sampler_maker_ = nullptr;
};

/// The configuration shard `shard` of `shards` replicas runs under: the
/// seed forked with Rng::ForkSeed(spec.seed, shard) and, for
/// sequence-model sinks, window_n (and any bias-level windows) split as
/// window_n / shards — which must divide evenly so the shard windows
/// union to the global window. Timestamp windows pass through unchanged
/// (activity is per-item). A single shard is the unsharded sink:
/// ShardSinkSpec(spec, 0, 1) is `spec` itself, seed included. This single
/// derivation replaces the deleted ShardSamplerConfig/ShardEstimatorConfig
/// pair.
Result<SinkSpec> ShardSinkSpec(const SinkSpec& spec, uint64_t shard,
                               uint64_t shards);

/// Builds `shards` replicas for sharded ingestion, one CreateSink per
/// ShardSinkSpec derivation.
Result<std::vector<Sink>> CreateShardedSinks(const SinkSpec& spec,
                                             uint64_t shards);

/// Serializes a spec-constructed sink into the self-describing checkpoint
/// envelope (core/checkpoint.h / apps/estimator_checkpoint.h — the blob
/// format is unchanged, so old checkpoints restore through this layer).
/// `spec` must be the spec the sink was constructed from.
Result<std::string> SaveSink(const StreamSink& sink, const SinkSpec& spec);

/// Restores any sink envelope (sampler or estimator kind, dispatched on
/// the embedded header) into a constructed Sink plus the spec that
/// reconstructs it.
struct RestoredSink {
  Sink sink;
  SinkSpec spec;
};
Result<RestoredSink> RestoreSink(std::string_view blob);

/// View adaptors over homogeneous CreateShardedSinks results. The typed
/// adaptors require every element to be of that kind (checked; a mixed or
/// mismatched vector is a caller bug surfaced as InvalidArgument).
std::vector<StreamSink*> SinkPointers(const std::vector<Sink>& shards);
Result<std::vector<WindowSampler*>> SamplerPointers(
    const std::vector<Sink>& shards);
Result<std::vector<WindowEstimator*>> EstimatorPointers(
    const std::vector<Sink>& shards);

/// "name1, name2, ..." over both registries — for CLI usage/error text.
std::string RegisteredSinkNames();

/// Unified --list-sinks rendering: one line per registered sampler and
/// estimator (kind, name, model/substrates, summary).
std::string FormatSinkList();

}  // namespace swsample

#endif  // SWSAMPLE_APPS_SINK_SPEC_H_
