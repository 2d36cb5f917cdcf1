// Copyright (c) swsample authors. Licensed under the MIT license.

/// \file
/// Estimator registry: every sliding-window estimator in the library is
/// constructible from one SinkSpec (core/sink_spec.h): `name` is the
/// estimator's registry key and `substrate` names its sampling substrate
/// by its SAMPLER-registry string. This is Theorem 5.1 realized as code:
/// the theorem turns any sampling-based streaming estimator into a
/// sliding-window estimator by swapping its sampling substrate, and here
/// the swap is a spec field. An estimator that builds an inner sampler
/// derives that sampler's spec from its own: a copy with `name` set to
/// the substrate plus its own overrides (dkw-quantile sets k = r and
/// wr = 0; biased-mean sets each level's window, k and a forked seed).
/// Harnesses, examples, benchmarks, the CLI and the sharded driver's
/// replica factory drive estimators through this single entry point;
/// benches E8-E12 sweep the estimator x substrate grid.
///
/// Ownership: CreateEstimator returns a caller-owned unique_ptr that owns
/// its substrate outright; the registry holds only static specs.
///
/// Thread-safety: lookups are safe from any thread (immutable tables);
/// constructed estimators follow core/api.h's one-thread-per-instance
/// rule.
///
/// Status conventions: unknown names, unknown/incompatible substrates and
/// invalid configurations return InvalidArgument with the compatible set
/// spelled out in the message, never exceptions.
//
// Registered names:
//
//   name              metric   paper section / source
//   ----------------  -------  ---------------------------------------
//   ams-fk            F_k      Cor 5.2, Alon-Matias-Szegedy STOC'96
//   ccm-entropy       H        Cor 5.4, Chakrabarti-Cormode-McGregor
//   buriol-triangles  T3       Cor 5.3, Buriol et al. PODS'06
//   dkw-quantile      q-quant  Thm 5.1 + Dvoretzky-Kiefer-Wolfowitz
//   biased-mean       mean     Sec 5 step-biased extension
//   window-count      n(t)     Sec 1.3.2 boundary via DGIM [31]
//
// Substrate compatibility is part of each spec: the payload estimators
// (ams-fk, ccm-entropy, buriol-triangles) accept the payload-capable
// families (bop-seq-single/swr, bop-ts-single/swr, exact-seq/exact-ts) —
// the with-replacement k-samples are k independent single-sample copies
// (Thms 2.1/3.9), so both names build the same payload structure;
// dkw-quantile and window-count accept every registered sampler;
// biased-mean accepts every sequence-model sampler. Incompatible pairs
// are rejected with the compatible list in the error.

#ifndef SWSAMPLE_APPS_ESTIMATOR_REGISTRY_H_
#define SWSAMPLE_APPS_ESTIMATOR_REGISTRY_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "apps/estimator.h"
#include "core/sink_spec.h"
#include "util/status.h"

namespace swsample {

/// Static description of one registered estimator.
struct EstimatorSpec {
  const char* name;               ///< registry key; equals name()
  const char* metric;             ///< what Estimate().value approximates
  const char* default_substrate;  ///< used when spec.substrate is ""
  std::vector<const char*> substrates;  ///< compatible sampler names
  const char* summary;            ///< one-line description for --help
};

/// All registered estimators, in the order of the table above.
const std::vector<EstimatorSpec>& RegisteredEstimators();

/// The spec registered under `name`, or nullptr if unknown.
const EstimatorSpec* FindEstimatorSpec(std::string_view name);

/// True iff `name` is a registered estimator name.
bool IsRegisteredEstimator(std::string_view name);

/// True iff the estimator registered under `name` runs over the sampler
/// registered under `substrate`. False for unknown names.
bool EstimatorSupportsSubstrate(std::string_view name,
                                std::string_view substrate);

/// Constructs the estimator registered under `spec.name` over the
/// spec's substrate. Unknown names, unknown or incompatible substrates,
/// and invalid specs come back as InvalidArgument.
///
/// Persistence lives in apps/sink_spec.h: SaveSink wraps a constructed
/// estimator's state in a self-describing envelope (name + spec fields +
/// payload) and RestoreSink reconstructs the exact object from one, in
/// any process.
Result<std::unique_ptr<WindowEstimator>> CreateEstimator(const SinkSpec& spec);

/// "name1, name2, ..." — for CLI usage/error text.
std::string RegisteredEstimatorNames();

}  // namespace swsample

#endif  // SWSAMPLE_APPS_ESTIMATOR_REGISTRY_H_
