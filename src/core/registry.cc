// Copyright (c) swsample authors. Licensed under the MIT license.

#include "core/registry.h"

#include <utility>

#include "baseline/bounded_priority_sampler.h"
#include "baseline/chain_sampler.h"
#include "baseline/exact_window.h"
#include "baseline/oversampler.h"
#include "baseline/priority_sampler.h"
#include "core/seq_swor.h"
#include "core/seq_swr.h"
#include "core/ts_single.h"
#include "core/ts_swor.h"
#include "core/ts_swr.h"

namespace swsample {
namespace {

using SamplerResult = Result<std::unique_ptr<WindowSampler>>;

/// The Section 2.1 single-sample procedure: a k=1 with-replacement unit
/// exposed under its own registry name. Forwards the batched fast path.
class SeqSingleSampler final : public WindowSampler {
 public:
  explicit SeqSingleSampler(std::unique_ptr<SequenceSwrSampler> inner)
      : inner_(std::move(inner)) {}

  void Observe(const Item& item) override { inner_->Observe(item); }
  void ObserveBatch(std::span<const Item> items) override {
    inner_->ObserveBatch(items);
  }
  void AdvanceTime(Timestamp now) override { inner_->AdvanceTime(now); }
  std::vector<Item> Sample() override { return inner_->Sample(); }
  uint64_t MemoryWords() const override { return inner_->MemoryWords(); }
  uint64_t RetainedBytes() const override { return inner_->RetainedBytes(); }
  uint64_t k() const override { return 1; }
  const char* name() const override { return "bop-seq-single"; }
  bool mergeable() const override { return true; }
  Result<SamplerSnapshot> Snapshot() override { return inner_->Snapshot(); }
  bool persistable() const override { return true; }
  void SaveState(BinaryWriter* w) const override { inner_->SaveState(w); }
  bool LoadState(BinaryReader* r) override { return inner_->LoadState(r); }

 private:
  std::unique_ptr<SequenceSwrSampler> inner_;
};

Status RequireSingle(const SinkSpec& spec, const char* name) {
  if (spec.k != 1) {
    return Status::InvalidArgument(std::string(name) +
                                   ": single-sample variant requires k == 1");
  }
  return Status::Ok();
}

template <typename T>
SamplerResult Widen(Result<std::unique_ptr<T>> r) {
  if (!r.ok()) return r.status();
  return std::unique_ptr<WindowSampler>(std::move(r).ValueOrDie());
}

struct Entry {
  SamplerSpec spec;
  SamplerResult (*make)(const SinkSpec&);
};

const Entry kEntries[] = {
    {{"bop-seq-single", WindowModel::kSequence, /*single_sample=*/true,
      "paper Sec 2.1 single sample, O(1) words"},
     [](const SinkSpec& c) -> SamplerResult {
       if (Status s = RequireSingle(c, "bop-seq-single"); !s.ok()) return s;
       auto inner = SequenceSwrSampler::Create(c.window_n, 1, c.seed);
       if (!inner.ok()) return inner.status();
       return std::unique_ptr<WindowSampler>(
           new SeqSingleSampler(std::move(inner).ValueOrDie()));
     }},
    {{"bop-seq-swr", WindowModel::kSequence, /*single_sample=*/false,
      "paper Thm 2.1 k-sample with replacement, O(k) words"},
     [](const SinkSpec& c) {
       return Widen(SequenceSwrSampler::Create(c.window_n, c.k, c.seed));
     }},
    {{"bop-seq-swor", WindowModel::kSequence, /*single_sample=*/false,
      "paper Thm 2.2 k-sample without replacement, O(k) words"},
     [](const SinkSpec& c) {
       return Widen(SequenceSworSampler::Create(c.window_n, c.k, c.seed));
     }},
    {{"bop-ts-single", WindowModel::kTimestamp, /*single_sample=*/true,
      "paper Sec 3 single sample, O(log n) words"},
     [](const SinkSpec& c) -> SamplerResult {
       if (Status s = RequireSingle(c, "bop-ts-single"); !s.ok()) return s;
       // TsSingleSampler implements WindowSampler directly; no wrapper.
       auto inner = TsSingleSampler::Create(c.window_t, c.seed);
       if (!inner.ok()) return inner.status();
       return std::unique_ptr<WindowSampler>(
           new TsSingleSampler(std::move(inner).ValueOrDie()));
     }},
    {{"bop-ts-swr", WindowModel::kTimestamp, /*single_sample=*/false,
      "paper Thm 3.9 k-sample with replacement, O(k log n) words"},
     [](const SinkSpec& c) {
       return Widen(TsSwrSampler::Create(c.window_t, c.k, c.seed));
     }},
    {{"bop-ts-swor", WindowModel::kTimestamp, /*single_sample=*/false,
      "paper Thm 4.4 k-sample without replacement, O(k log n) words"},
     [](const SinkSpec& c) {
       return Widen(TsSworSampler::Create(c.window_t, c.k, c.seed));
     }},
    {{"bdm-chain", WindowModel::kSequence, /*single_sample=*/false,
      "Babcock-Datar-Motwani chain sampling (randomized memory)"},
     [](const SinkSpec& c) {
       return Widen(ChainSampler::Create(c.window_n, c.k, c.seed));
     }},
    {{"oversample-swor", WindowModel::kSequence, /*single_sample=*/false,
      "over-sampling SWOR baseline (may fail to return k distinct)"},
     [](const SinkSpec& c) {
       return Widen(OverSampler::Create(c.window_n, c.k,
                                        c.oversample_factor, c.seed));
     }},
    {{"exact-seq", WindowModel::kSequence, /*single_sample=*/false,
      "exact full-window oracle, O(n) words"},
     [](const SinkSpec& c) {
       return Widen(ExactWindow::CreateSequence(c.window_n, c.k,
                                                c.with_replacement, c.seed));
     }},
    {{"bdm-priority", WindowModel::kTimestamp, /*single_sample=*/false,
      "Babcock-Datar-Motwani priority sampling (randomized memory)"},
     [](const SinkSpec& c) {
       return Widen(PrioritySampler::Create(c.window_t, c.k, c.seed));
     }},
    {{"gl-bounded-priority", WindowModel::kTimestamp, /*single_sample=*/false,
      "Gemulla-Lehner bounded priority SWOR (randomized memory)"},
     [](const SinkSpec& c) {
       return Widen(BoundedPrioritySampler::Create(c.window_t, c.k, c.seed));
     }},
    {{"exact-ts", WindowModel::kTimestamp, /*single_sample=*/false,
      "exact full-window oracle, O(window) words"},
     [](const SinkSpec& c) {
       return Widen(ExactWindow::CreateTimestamp(c.window_t, c.k,
                                                 c.with_replacement, c.seed));
     }},
};

const Entry* FindEntry(std::string_view name) {
  for (const Entry& entry : kEntries) {
    if (name == entry.spec.name) return &entry;
  }
  return nullptr;
}

}  // namespace

const std::vector<SamplerSpec>& RegisteredSamplers() {
  static const std::vector<SamplerSpec>* specs = [] {
    auto* v = new std::vector<SamplerSpec>();
    for (const Entry& entry : kEntries) v->push_back(entry.spec);
    return v;
  }();
  return *specs;
}

const SamplerSpec* FindSamplerSpec(std::string_view name) {
  const Entry* entry = FindEntry(name);
  return entry == nullptr ? nullptr : &entry->spec;
}

SamplerMaker FindSamplerMaker(std::string_view name) {
  const Entry* entry = FindEntry(name);
  return entry == nullptr ? nullptr : entry->make;
}

bool IsRegisteredSampler(std::string_view name) {
  return FindSamplerSpec(name) != nullptr;
}

Result<std::unique_ptr<WindowSampler>> CreateSampler(const SinkSpec& spec) {
  const Entry* entry = FindEntry(spec.name);
  if (entry == nullptr) {
    return Status::InvalidArgument("unknown sampler \"" + spec.name +
                                   "\"; registered: " +
                                   RegisteredSamplerNames());
  }
  // Validate the window parameter of the relevant model up front so every
  // sampler rejects a missing/invalid window uniformly.
  if (entry->spec.model == WindowModel::kSequence && spec.window_n < 1) {
    return Status::InvalidArgument(std::string(entry->spec.name) +
                                   ": spec.window_n must be >= 1");
  }
  if (entry->spec.model == WindowModel::kTimestamp && spec.window_t < 1) {
    return Status::InvalidArgument(std::string(entry->spec.name) +
                                   ": spec.window_t must be >= 1");
  }
  return entry->make(spec);
}

std::string RegisteredSamplerNames() {
  std::string out;
  for (const Entry& entry : kEntries) {
    if (!out.empty()) out += ", ";
    out += entry.spec.name;
  }
  return out;
}

}  // namespace swsample
