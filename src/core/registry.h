// Copyright (c) swsample authors. Licensed under the MIT license.

/// \file
/// Sampler registry: every sliding-window sampler in the library — the six
/// paper algorithms of BravermanOZ09 and the six prior-art baselines — is
/// constructible from one SinkSpec (core/sink_spec.h) whose `name` is the
/// registry key. Harnesses, examples, benchmarks, the CLI and the sharded
/// driver's replica factory drive samplers through this single entry
/// point (usually via CreateSink, apps/sink_spec.h), so adding a sampler
/// never touches call sites.
///
/// Ownership: CreateSampler returns a caller-owned unique_ptr; the
/// registry holds only static specs (no constructed instances).
///
/// Thread-safety: the lookup tables are immutable after first use and
/// safe to read from any thread; constructed samplers inherit the
/// one-thread-per-instance rule of core/api.h.
///
/// Status conventions: unknown names and invalid configurations return
/// InvalidArgument (with the registered-name list in the message), never
/// exceptions; a returned sampler is always fully valid.
//
// Registered names:
//
//   name                  model      paper section / source
//   --------------------  ---------  -------------------------------------
//   bop-seq-single        sequence   Sec 2.1 single-sample procedure (k=1)
//   bop-seq-swr           sequence   Thm 2.1, k-sample with replacement
//   bop-seq-swor          sequence   Thm 2.2, k-sample w/o replacement
//   bop-ts-single         timestamp  Sec 3 structure (Thm 3.9, k=1)
//   bop-ts-swr            timestamp  Thm 3.9, k independent copies
//   bop-ts-swor           timestamp  Thm 4.4 black-box reduction
//   bdm-chain             sequence   Babcock-Datar-Motwani chain sampling
//   oversample-swor       sequence   folklore over-sampling SWOR
//   exact-seq             sequence   full-window oracle (Zhang et al.)
//   bdm-priority          timestamp  Babcock-Datar-Motwani priority
//   gl-bounded-priority   timestamp  Gemulla-Lehner bounded priority
//   exact-ts              timestamp  full-window oracle

#ifndef SWSAMPLE_CORE_REGISTRY_H_
#define SWSAMPLE_CORE_REGISTRY_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/api.h"
#include "core/sink_spec.h"
#include "util/status.h"

namespace swsample {

/// Which window model a registered sampler implements; decides whether
/// SinkSpec::window_n or ::window_t is the relevant parameter.
enum class WindowModel {
  kSequence,   ///< last window_n arrivals are active
  kTimestamp,  ///< active <=> now - T(p) < window_t
};

/// Static description of one registered sampler.
struct SamplerSpec {
  const char* name;      ///< registry key; equals the instance's name()
  WindowModel model;     ///< which window parameter applies
  bool single_sample;    ///< true => the sampler requires spec.k == 1
  const char* summary;   ///< one-line description for --help output
};

/// All registered samplers, in the order of the table above.
const std::vector<SamplerSpec>& RegisteredSamplers();

/// The spec registered under `name`, or nullptr if unknown.
const SamplerSpec* FindSamplerSpec(std::string_view name);

/// True iff `name` is a registered sampler name.
bool IsRegisteredSampler(std::string_view name);

/// Construction function for one registered sampler. A maker skips
/// CreateSampler's name lookup and window validation (and does not read
/// spec.name), so callers must have validated the spec once (e.g. via a
/// probe CreateSampler call) before using it on a hot path.
using SamplerMaker =
    Result<std::unique_ptr<WindowSampler>> (*)(const SinkSpec&);

/// Resolves `name` to its construction function, or nullptr if unknown —
/// the registry's linear name scan hoisted out of per-construction cost
/// for callers that build many identically-named samplers (the keyed
/// engine creates one sink per tenant appearance, which under TTL churn
/// means hundreds of thousands of constructions per run).
SamplerMaker FindSamplerMaker(std::string_view name);

/// Constructs the sampler registered under `spec.name`. Unknown names and
/// specs rejected by the sampler's own factory come back as
/// InvalidArgument through the library's usual status mechanism.
///
/// Persistence lives in apps/sink_spec.h: SaveSink wraps a constructed
/// sampler's state in a self-describing envelope (name + spec fields +
/// payload) and RestoreSink reconstructs the exact object from one, in
/// any process.
Result<std::unique_ptr<WindowSampler>> CreateSampler(const SinkSpec& spec);

/// "name1, name2, ..." — for CLI usage/error text.
std::string RegisteredSamplerNames();

}  // namespace swsample

#endif  // SWSAMPLE_CORE_REGISTRY_H_
