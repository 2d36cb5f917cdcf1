// Copyright (c) swsample authors. Licensed under the MIT license.

#include "stream/workload.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>

#include "util/bits.h"
#include "util/file_ops.h"
#include "util/spec_text.h"

namespace swsample {

namespace {

constexpr char kWhat[] = "workload spec";

// Family names, indexed by the WorkloadArrivals / WorkloadValues enums.
constexpr std::string_view kArrivalNames[] = {"constant", "poisson", "bmodel",
                                              "churn", "doubling"};
constexpr std::string_view kValueNames[] = {"uniform", "zipf", "seq"};

/// The key=value fields of a WorkloadSpec in canonical order:
/// ParseWorkloadSpec and FormatWorkloadSpec both walk this table.
const auto ForEachWorkloadField = [](auto visit) {
  visit("rate", &WorkloadSpec::rate);
  visit("lambda", &WorkloadSpec::lambda);
  visit("bias", &WorkloadSpec::bias);
  visit("levels", &WorkloadSpec::levels);
  visit("volume", &WorkloadSpec::volume);
  visit("t", &WorkloadSpec::t);
  visit("cap", &WorkloadSpec::cap);
  visit("domain", &WorkloadSpec::domain);
  visit("alpha", &WorkloadSpec::alpha);
  visit("skew", &WorkloadSpec::skew);
  visit("skewp", &WorkloadSpec::skew_p);
  visit("dup", &WorkloadSpec::dup);
  visit("duplag", &WorkloadSpec::dup_lag);
};

// Churn phase tables (see header): plateau lengths straddle the batched
// ExtendRun cutover (16) and include a power of two for deep Definition-3.1
// merge cascades; gaps land on the expiry horizon's three edges plus a
// steady-state filler.
constexpr uint64_t kChurnPlateaus[] = {15, 16, 17, 64, 1};
constexpr size_t kChurnPlateauCount = 5;
constexpr size_t kChurnGapCount = 4;  // {1, t-1, t, t+1}

}  // namespace

Result<WorkloadSpec> ParseWorkloadSpec(std::string_view text) {
  auto split = SplitSpec(kWhat, text);
  if (!split.ok()) return split.status();
  const SpecParts& parts = split.value();
  WorkloadSpec spec;
  const auto arrivals = std::find(std::begin(kArrivalNames),
                                  std::end(kArrivalNames), parts.name);
  if (arrivals == std::end(kArrivalNames)) {
    return BadSpec(kWhat, text,
                   "unknown arrival family \"" + std::string(parts.name) +
                       "\"; known: constant poisson bmodel churn doubling");
  }
  spec.arrivals =
      static_cast<WorkloadArrivals>(arrivals - std::begin(kArrivalNames));
  // An empty family after '@' is the default, uniform.
  const auto values =
      parts.sub.empty() ? std::begin(kValueNames)
                        : std::find(std::begin(kValueNames),
                                    std::end(kValueNames), parts.sub);
  if (values == std::end(kValueNames)) {
    return BadSpec(kWhat, text,
                   "unknown value family \"" + std::string(parts.sub) +
                       "\"; known: uniform zipf seq");
  }
  spec.values = static_cast<WorkloadValues>(values - std::begin(kValueNames));
  Status fields =
      ParseSpecFields(kWhat, text, parts, ForEachWorkloadField, &spec);
  if (!fields.ok()) return fields;
  return spec;
}

std::string FormatWorkloadSpec(const WorkloadSpec& spec) {
  std::string out(kArrivalNames[static_cast<size_t>(spec.arrivals)]);
  if (spec.values != WorkloadValues::kUniform) {  // the default is implicit
    out += "@";
    out += kValueNames[static_cast<size_t>(spec.values)];
  }
  FormatSpecFields(spec, ForEachWorkloadField, &out);
  return out;
}

Result<std::unique_ptr<WorkloadGenerator>> WorkloadGenerator::Create(
    const WorkloadSpec& spec, uint64_t seed) {
  switch (spec.arrivals) {
    case WorkloadArrivals::kConstant:
      if (spec.rate < 1) {
        return Status::InvalidArgument("workload: rate must be >= 1");
      }
      break;
    case WorkloadArrivals::kPoisson:
      if (!(spec.lambda > 0.0) || !std::isfinite(spec.lambda)) {
        return Status::InvalidArgument(
            "workload: lambda must be finite and > 0");
      }
      break;
    case WorkloadArrivals::kBModel:
      if (!(spec.bias >= 0.5) || !(spec.bias < 1.0)) {
        return Status::InvalidArgument(
            "workload: bias must be in [0.5, 1)");
      }
      if (spec.levels < 1 || spec.levels > 20) {
        return Status::InvalidArgument(
            "workload: levels must be in [1, 20]");
      }
      if (spec.volume < 1) {
        return Status::InvalidArgument("workload: volume must be >= 1");
      }
      break;
    case WorkloadArrivals::kChurn:
      if (spec.t < 2) {
        return Status::InvalidArgument("workload: churn t must be >= 2");
      }
      break;
    case WorkloadArrivals::kDoubling:
      if (spec.t < 1 || spec.t > (Timestamp{1} << 30)) {
        return Status::InvalidArgument(
            "workload: doubling t must be in [1, 2^30]");
      }
      if (spec.cap < 1) {
        return Status::InvalidArgument("workload: cap must be >= 1");
      }
      break;
  }
  if (spec.domain < 1) {
    return Status::InvalidArgument("workload: domain must be >= 1");
  }
  if (!(spec.alpha >= 0.0) || !std::isfinite(spec.alpha)) {
    return Status::InvalidArgument("workload: alpha must be finite, >= 0");
  }
  if (spec.skew < 0) {
    return Status::InvalidArgument("workload: skew must be >= 0");
  }
  if (!(spec.skew_p >= 0.0) || !(spec.skew_p <= 1.0)) {
    return Status::InvalidArgument("workload: skewp must be in [0, 1]");
  }
  if (!(spec.dup >= 0.0) || !(spec.dup < 1.0)) {
    return Status::InvalidArgument("workload: dup must be in [0, 1)");
  }
  if (spec.dup > 0.0 && spec.dup_lag < 1) {
    return Status::InvalidArgument("workload: duplag must be >= 1");
  }
  return std::unique_ptr<WorkloadGenerator>(new WorkloadGenerator(spec, seed));
}

Result<std::unique_ptr<WorkloadGenerator>> WorkloadGenerator::Create(
    std::string_view spec_text, uint64_t seed) {
  auto spec = ParseWorkloadSpec(spec_text);
  if (!spec.ok()) return spec.status();
  return Create(spec.value(), seed);
}

WorkloadGenerator::WorkloadGenerator(const WorkloadSpec& spec, uint64_t seed)
    : spec_(spec), rng_(seed) {
  if (spec_.values == WorkloadValues::kZipf) {
    // Inverse-CDF table: P(v = i) proportional to 1/(i+1)^alpha, drawn by
    // binary search; O(domain) doubles, paid once per generator.
    zipf_cdf_.resize(spec_.domain);
    double acc = 0.0;
    for (uint64_t i = 0; i < spec_.domain; ++i) {
      acc += std::pow(static_cast<double>(i + 1), -spec_.alpha);
      zipf_cdf_[i] = acc;
    }
    for (auto& c : zipf_cdf_) c /= acc;
    zipf_cdf_.back() = 1.0;
  }
  if (spec_.dup > 0.0) recent_values_.reserve(spec_.dup_lag);
  step_ = -1;  // the first AdvanceStep lands on timestamp 0
}

uint64_t WorkloadGenerator::NextBurst() {
  switch (spec_.arrivals) {
    case WorkloadArrivals::kConstant:
      ++step_;
      return spec_.rate;
    case WorkloadArrivals::kPoisson: {
      ++step_;
      if (spec_.lambda <= 30.0) {
        const double limit = std::exp(-spec_.lambda);
        uint64_t count = 0;
        double prod = rng_.Uniform01();
        while (prod > limit) {
          ++count;
          prod *= rng_.Uniform01();
        }
        return count;
      }
      double u1 = rng_.Uniform01();
      double u2 = rng_.Uniform01();
      if (u1 <= 0.0) u1 = 1e-300;
      double z =
          std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
      double x = spec_.lambda + std::sqrt(spec_.lambda) * z;
      return x < 0.0 ? 0 : static_cast<uint64_t>(std::llround(x));
    }
    case WorkloadArrivals::kBModel: {
      ++step_;
      if (bmodel_pos_ >= bmodel_slots_.size()) {
        // (Re)build one epoch: split the volume bias/(1-bias) recursively,
        // the split side re-drawn per node, which is the classic b-model
        // cascade and gives burstiness at every timescale.
        bmodel_slots_.assign(uint64_t{1} << spec_.levels, 0);
        bmodel_pos_ = 0;
        struct Frame {
          uint64_t lo, hi, vol;
        };
        std::vector<Frame> stack;
        stack.push_back({0, static_cast<uint64_t>(bmodel_slots_.size()),
                         spec_.volume});
        while (!stack.empty()) {
          const Frame f = stack.back();
          stack.pop_back();
          if (f.vol == 0) continue;
          if (f.hi - f.lo == 1) {
            bmodel_slots_[f.lo] += f.vol;
            continue;
          }
          const uint64_t mid = (f.lo + f.hi) / 2;
          uint64_t big = static_cast<uint64_t>(
              std::llround(spec_.bias * static_cast<double>(f.vol)));
          if (big > f.vol) big = f.vol;
          const uint64_t small = f.vol - big;
          if (rng_.Bernoulli(0.5)) {
            stack.push_back({f.lo, mid, big});
            stack.push_back({mid, f.hi, small});
          } else {
            stack.push_back({f.lo, mid, small});
            stack.push_back({mid, f.hi, big});
          }
        }
      }
      return bmodel_slots_[bmodel_pos_++];
    }
    case WorkloadArrivals::kChurn: {
      const uint64_t plateau = kChurnPlateaus[churn_phase_ % kChurnPlateauCount];
      const uint64_t gap_index =
          (churn_phase_ / kChurnPlateauCount) % kChurnGapCount;
      // Gaps: steady filler, then the three expiry-horizon edges. The first
      // plateau of the stream starts at timestamp 0 (step_ begins at -1).
      Timestamp gap = 1;
      if (gap_index == 1) gap = spec_.t - 1;
      if (gap_index == 2) gap = spec_.t;
      if (gap_index == 3) gap = spec_.t + 1;
      step_ += gap;
      ++churn_phase_;
      return plateau;
    }
    case WorkloadArrivals::kDoubling: {
      ++step_;
      if (step_ > 2 * spec_.t) return 1;
      const uint64_t exponent = static_cast<uint64_t>(2 * spec_.t - step_);
      return exponent >= 63
                 ? spec_.cap
                 : std::min(spec_.cap, Pow2(static_cast<uint32_t>(exponent)));
    }
  }
  return 0;  // unreachable
}

uint64_t WorkloadGenerator::NextValue() {
  if (spec_.dup > 0.0 && !recent_values_.empty() && rng_.Bernoulli(spec_.dup)) {
    // Replay: re-emit one of the last duplag values verbatim.
    return recent_values_[rng_.UniformIndex(recent_values_.size())];
  }
  uint64_t v = 0;
  switch (spec_.values) {
    case WorkloadValues::kUniform:
      v = rng_.UniformIndex(spec_.domain);
      break;
    case WorkloadValues::kZipf: {
      const double u = rng_.Uniform01();
      auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
      v = static_cast<uint64_t>(it - zipf_cdf_.begin());
      break;
    }
    case WorkloadValues::kSequential:
      v = seq_next_;
      seq_next_ = (seq_next_ + 1) % spec_.domain;
      break;
  }
  if (spec_.dup > 0.0) {
    if (recent_values_.size() < spec_.dup_lag) {
      recent_values_.push_back(v);
    } else {
      recent_values_[recent_pos_] = v;
      recent_pos_ = (recent_pos_ + 1) % spec_.dup_lag;
    }
  }
  return v;
}

Timestamp WorkloadGenerator::EmitTimestamp() {
  if (spec_.skew > 0 && rng_.Bernoulli(spec_.skew_p)) {
    const Timestamp jitter = static_cast<Timestamp>(
        rng_.UniformRange(1, static_cast<uint64_t>(spec_.skew)));
    const Timestamp ts = step_ - jitter;
    return ts < 0 ? 0 : ts;
  }
  return step_;
}

void WorkloadGenerator::Generate(uint64_t count, std::vector<Item>* out) {
  out->reserve(out->size() + count);
  for (uint64_t i = 0; i < count; ++i) {
    while (pending_ == 0) pending_ = NextBurst();
    --pending_;
    Item item;
    item.value = NextValue();
    item.index = next_index_++;
    item.timestamp = EmitTimestamp();
    out->push_back(item);
  }
}

std::vector<Item> WorkloadGenerator::Take(uint64_t count) {
  std::vector<Item> out;
  Generate(count, &out);
  return out;
}

const std::vector<Item>& WorkloadGenerator::Step() {
  step_items_.clear();
  if (pending_ == 0) pending_ = NextBurst();
  Generate(pending_, &step_items_);
  return step_items_;
}

// --- trace format -----------------------------------------------------------

namespace {

constexpr char kTraceMagic[8] = {'S', 'W', 'S', 'T', 'R', 'C', '1', '\n'};

void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

bool GetVarint(const char** p, const char* end, uint64_t* v) {
  uint64_t out = 0;
  int shift = 0;
  while (*p < end && shift < 64) {
    const uint8_t byte = static_cast<uint8_t>(**p);
    ++*p;
    out |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *v = out;
      return true;
    }
    shift += 7;
  }
  return false;
}

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

void PutFixed64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>(v >> (8 * i)));
  }
}

uint64_t GetFixed64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

}  // namespace

Status WriteTrace(const std::string& path, std::span<const Item> items) {
  std::string buf;
  buf.reserve(16 + items.size() * 4);
  buf.append(kTraceMagic, sizeof kTraceMagic);
  PutFixed64(&buf, items.size());
  Timestamp prev_ts = 0;
  for (const Item& item : items) {
    Timestamp delta = 0;
    if (__builtin_sub_overflow(item.timestamp, prev_ts, &delta)) {
      return Status::InvalidArgument(
          "WriteTrace: timestamp delta overflows at item " +
          std::to_string(&item - items.data()));
    }
    PutVarint(&buf, item.value);
    PutVarint(&buf, ZigZag(delta));
    prev_ts = item.timestamp;
  }
  return AtomicWriteFile("trace.write", path, buf, /*do_fsync=*/true);
}

Result<std::vector<Item>> ReadTrace(const std::string& path) {
  auto read = ReadFileBytes("trace.read", path);
  if (!read.ok()) return read.status();
  const std::string& buf = read.value();
  if (buf.size() < sizeof kTraceMagic + 8 ||
      std::memcmp(buf.data(), kTraceMagic, sizeof kTraceMagic) != 0) {
    return Status::InvalidArgument("ReadTrace: " + path +
                                   " is not a SWSTRC1 trace");
  }
  const uint64_t count = GetFixed64(buf.data() + sizeof kTraceMagic);
  const char* p = buf.data() + sizeof kTraceMagic + 8;
  const char* end = buf.data() + buf.size();
  std::vector<Item> items;
  if (count > buf.size()) {  // >= 2 bytes per item; cheap corruption guard
    return Status::InvalidArgument("ReadTrace: " + path +
                                   ": count exceeds payload");
  }
  items.reserve(count);
  Timestamp prev_ts = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t value = 0;
    uint64_t delta = 0;
    if (!GetVarint(&p, end, &value) || !GetVarint(&p, end, &delta)) {
      return Status::InvalidArgument("ReadTrace: " + path +
                                     ": truncated at item " +
                                     std::to_string(i));
    }
    if (__builtin_add_overflow(prev_ts, UnZigZag(delta), &prev_ts)) {
      return Status::InvalidArgument("ReadTrace: " + path +
                                     ": timestamp overflows at item " +
                                     std::to_string(i));
    }
    items.push_back(Item{value, i, prev_ts});
  }
  if (p != end) {
    return Status::InvalidArgument("ReadTrace: " + path +
                                   ": trailing bytes after payload");
  }
  return items;
}

}  // namespace swsample
