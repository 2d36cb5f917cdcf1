// Copyright (c) swsample authors. Licensed under the MIT license.

#include "stream/workload.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/bits.h"
#include "util/file_ops.h"

namespace swsample {

namespace {

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
  return Status::InvalidArgument("workload spec \"" + std::string(text) +
                                 "\": " + why);
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  double back = 0.0;
  if (ParseDoubleToken(buf, &back) && back == v) {
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

// Churn phase tables (see header): plateau lengths straddle the batched
// ExtendRun cutover (16) and include a power of two for deep Definition-3.1
// merge cascades; gaps land on the expiry horizon's three edges plus a
// steady-state filler.
constexpr uint64_t kChurnPlateaus[] = {15, 16, 17, 64, 1};
constexpr size_t kChurnPlateauCount = 5;
constexpr size_t kChurnGapCount = 4;  // {1, t-1, t, t+1}

}  // namespace

Result<WorkloadSpec> ParseWorkloadSpec(std::string_view text) {
  WorkloadSpec spec;
  std::string_view rest = text;
  const size_t comma = rest.find(',');
  std::string_view head =
      comma == std::string_view::npos ? rest : rest.substr(0, comma);
  rest = comma == std::string_view::npos ? std::string_view()
                                         : rest.substr(comma + 1);

  const size_t at = head.find('@');
  std::string_view arrivals_name =
      at == std::string_view::npos ? head : head.substr(0, at);
  std::string_view values_name =
      at == std::string_view::npos ? std::string_view() : head.substr(at + 1);

  if (arrivals_name == "constant") {
    spec.arrivals = WorkloadArrivals::kConstant;
  } else if (arrivals_name == "poisson") {
    spec.arrivals = WorkloadArrivals::kPoisson;
  } else if (arrivals_name == "bmodel") {
    spec.arrivals = WorkloadArrivals::kBModel;
  } else if (arrivals_name == "churn") {
    spec.arrivals = WorkloadArrivals::kChurn;
  } else if (arrivals_name == "doubling") {
    spec.arrivals = WorkloadArrivals::kDoubling;
  } else {
    return BadSpec(text,
                   "unknown arrival family \"" + std::string(arrivals_name) +
                       "\"; known: constant poisson bmodel churn doubling");
  }

  if (values_name.empty() || values_name == "uniform") {
    spec.values = WorkloadValues::kUniform;
  } else if (values_name == "zipf") {
    spec.values = WorkloadValues::kZipf;
  } else if (values_name == "seq") {
    spec.values = WorkloadValues::kSequential;
  } else {
    return BadSpec(text, "unknown value family \"" + std::string(values_name) +
                             "\"; known: uniform zipf seq");
  }

  while (!rest.empty()) {
    const size_t next = rest.find(',');
    std::string_view kv =
        next == std::string_view::npos ? rest : rest.substr(0, next);
    rest = next == std::string_view::npos ? std::string_view()
                                          : rest.substr(next + 1);
    const size_t eq = kv.find('=');
    if (eq == std::string_view::npos) {
      return BadSpec(text, "expected key=value, got \"" + std::string(kv) +
                               "\"");
    }
    const std::string_view key = kv.substr(0, eq);
    const std::string_view value = kv.substr(eq + 1);
    uint64_t u = 0;
    double d = 0.0;
    if (key == "rate" && ParseU64Token(value, &u)) {
      spec.rate = u;
    } else if (key == "lambda" && ParseDoubleToken(value, &d)) {
      spec.lambda = d;
    } else if (key == "bias" && ParseDoubleToken(value, &d)) {
      spec.bias = d;
    } else if (key == "levels" && ParseU64Token(value, &u)) {
      spec.levels = u;
    } else if (key == "volume" && ParseU64Token(value, &u)) {
      spec.volume = u;
    } else if (key == "t" && ParseU64Token(value, &u)) {
      spec.t = static_cast<Timestamp>(u);
    } else if (key == "cap" && ParseU64Token(value, &u)) {
      spec.cap = u;
    } else if (key == "domain" && ParseU64Token(value, &u)) {
      spec.domain = u;
    } else if (key == "alpha" && ParseDoubleToken(value, &d)) {
      spec.alpha = d;
    } else if (key == "skew" && ParseU64Token(value, &u)) {
      spec.skew = static_cast<Timestamp>(u);
    } else if (key == "skewp" && ParseDoubleToken(value, &d)) {
      spec.skew_p = d;
    } else if (key == "dup" && ParseDoubleToken(value, &d)) {
      spec.dup = d;
    } else if (key == "duplag" && ParseU64Token(value, &u)) {
      spec.dup_lag = u;
    } else {
      return BadSpec(text, "bad key or value in \"" + std::string(kv) + "\"");
    }
  }
  return spec;
}

std::string FormatWorkloadSpec(const WorkloadSpec& spec) {
  const WorkloadSpec defaults;
  std::string out;
  switch (spec.arrivals) {
    case WorkloadArrivals::kConstant:
      out = "constant";
      break;
    case WorkloadArrivals::kPoisson:
      out = "poisson";
      break;
    case WorkloadArrivals::kBModel:
      out = "bmodel";
      break;
    case WorkloadArrivals::kChurn:
      out = "churn";
      break;
    case WorkloadArrivals::kDoubling:
      out = "doubling";
      break;
  }
  switch (spec.values) {
    case WorkloadValues::kUniform:
      break;  // the default family is implicit
    case WorkloadValues::kZipf:
      out += "@zipf";
      break;
    case WorkloadValues::kSequential:
      out += "@seq";
      break;
  }
  auto put_u64 = [&out](const char* key, uint64_t v) {
    out += ",";
    out += key;
    out += "=";
    out += std::to_string(v);
  };
  auto put_double = [&out](const char* key, double v) {
    out += ",";
    out += key;
    out += "=";
    out += FormatDouble(v);
  };
  if (spec.rate != defaults.rate) put_u64("rate", spec.rate);
  if (spec.lambda != defaults.lambda) put_double("lambda", spec.lambda);
  if (spec.bias != defaults.bias) put_double("bias", spec.bias);
  if (spec.levels != defaults.levels) put_u64("levels", spec.levels);
  if (spec.volume != defaults.volume) put_u64("volume", spec.volume);
  if (spec.t != defaults.t) put_u64("t", static_cast<uint64_t>(spec.t));
  if (spec.cap != defaults.cap) put_u64("cap", spec.cap);
  if (spec.domain != defaults.domain) put_u64("domain", spec.domain);
  if (spec.alpha != defaults.alpha) put_double("alpha", spec.alpha);
  if (spec.skew != defaults.skew) {
    put_u64("skew", static_cast<uint64_t>(spec.skew));
  }
  if (spec.skew_p != defaults.skew_p) put_double("skewp", spec.skew_p);
  if (spec.dup != defaults.dup) put_double("dup", spec.dup);
  if (spec.dup_lag != defaults.dup_lag) put_u64("duplag", spec.dup_lag);
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
    PutVarint(&buf, item.value);
    PutVarint(&buf, ZigZag(item.timestamp - prev_ts));
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
    prev_ts += UnZigZag(delta);
    items.push_back(Item{value, i, prev_ts});
  }
  if (p != end) {
    return Status::InvalidArgument("ReadTrace: " + path +
                                   ": trailing bytes after payload");
  }
  return items;
}

}  // namespace swsample
