// Copyright (c) swsample authors. Licensed under the MIT license.

#include "util/failpoint.h"

#include <algorithm>
#include <cstdlib>
#include <mutex>
#include <vector>

#include "util/rng.h"
#include "util/spec_text.h"

namespace swsample {
namespace {

// Fixed-capacity registry: slots are append-only, so readers can scan
// [0, count) lock-free while creation of new sites takes `mu`.
constexpr size_t kMaxFailpoints = 64;

struct Registry {
  std::atomic<size_t> count{0};
  Failpoint* slots[kMaxFailpoints] = {};
  std::mutex mu;
};

Registry& GlobalRegistry() {
  static Registry* r = new Registry();  // leaked: sites live forever
  return *r;
}

Failpoint* FindSite(std::string_view site) {
  Registry& r = GlobalRegistry();
  const size_t n = r.count.load(std::memory_order_acquire);
  for (size_t i = 0; i < n; ++i) {
    if (r.slots[i]->site() == site) return r.slots[i];
  }
  return nullptr;
}

// Uniform double in [0, 1) from well-mixed bits; the decision for armed
// hit `n` of a site hashes (site seed, n) so concurrent hitters never
// share mutable RNG state.
double Uniform01FromHash(uint64_t seed, uint64_t n) {
  return static_cast<double>(Rng::ForkSeed(seed, n) >> 11) * 0x1.0p-53;
}

bool ParseClass(std::string_view token, FaultClass* out) {
  if (token == "enospc") *out = FaultClass::kEnospc;
  else if (token == "eio") *out = FaultClass::kEio;
  else if (token == "torn") *out = FaultClass::kTorn;
  else if (token == "fsync") *out = FaultClass::kFsync;
  else if (token == "rename") *out = FaultClass::kRename;
  else return false;
  return true;
}

}  // namespace

const char* FaultClassName(FaultClass c) {
  switch (c) {
    case FaultClass::kNone:
      return "none";
    case FaultClass::kEnospc:
      return "enospc";
    case FaultClass::kEio:
      return "eio";
    case FaultClass::kTorn:
      return "torn";
    case FaultClass::kFsync:
      return "fsync";
    case FaultClass::kRename:
      return "rename";
  }
  return "none";
}

Failpoint& Failpoint::At(std::string_view site) {
  if (Failpoint* fp = FindSite(site)) return *fp;
  Registry& r = GlobalRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  if (Failpoint* fp = FindSite(site)) return *fp;  // raced creation
  const size_t n = r.count.load(std::memory_order_relaxed);
  SWS_CHECK(n < kMaxFailpoints);
  Failpoint* fp = new Failpoint(site);  // leaked: sites live forever
  r.slots[n] = fp;
  r.count.store(n + 1, std::memory_order_release);
  return *fp;
}

FaultClass Failpoint::Hit() {
  if (!armed_.load(std::memory_order_relaxed)) return FaultClass::kNone;
  if (!armed_.load(std::memory_order_acquire)) return FaultClass::kNone;
  const uint64_t n = hits_.fetch_add(1, std::memory_order_relaxed) + 1;
  bool fire = false;
  switch (trigger_) {
    case Trigger::kAlways:
      fire = true;
      break;
    case Trigger::kNth:
      fire = (n == arg_);
      break;
    case Trigger::kEvery:
      fire = (arg_ != 0 && n % arg_ == 0);
      break;
    case Trigger::kProb:
      fire = Uniform01FromHash(seed_, n) < prob_;
      break;
  }
  if (!fire) return FaultClass::kNone;
  const uint64_t f = fires_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (times_ != 0 && f > times_) {
    fires_.fetch_sub(1, std::memory_order_relaxed);
    return FaultClass::kNone;
  }
  return klass_;
}

Status ArmFailpoints(std::string_view specs, uint64_t seed) {
  // One parsed spec; nothing is armed until the whole list parses.
  struct Parsed {
    std::string_view site;
    FaultClass klass = FaultClass::kNone;
    Failpoint::Trigger trigger = Failpoint::Trigger::kAlways;
    uint64_t arg = 1;
    double prob = 0.0;
    uint64_t times = 0;
  };
  std::vector<Parsed> parsed;
  while (!specs.empty()) {
    const size_t end = std::min(specs.find(';'), specs.size());
    const std::string_view spec = specs.substr(0, end);
    specs = specs.substr(std::min(end + 1, specs.size()));
    if (spec.empty()) continue;
    const size_t eq = spec.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return Status::InvalidArgument("failpoint spec needs <site>=<class>: " +
                                     std::string(spec));
    }
    auto parts = SplitSpec("failpoint spec", spec.substr(eq + 1));
    if (!parts.ok()) return parts.status();

    Parsed p;
    p.site = spec.substr(0, eq);
    if (parts.value().has_sub || !ParseClass(parts.value().name, &p.klass)) {
      return Status::InvalidArgument(
          "failpoint class must be enospc|eio|torn|fsync|rename, got: " +
          std::string(spec.substr(eq + 1)));
    }
    for (const auto& [key, val] : parts.value().pairs) {
      const std::string token = std::string(key) + "=" + std::string(val);
      if (key == "nth" || key == "every" || key == "times") {
        uint64_t v = 0;
        if (!ParseUnsigned(val, &v) || (key != "times" && v == 0)) {
          return Status::InvalidArgument("bad failpoint arg: " + token);
        }
        if (key == "times") {
          p.times = v;
        } else {
          p.trigger = (key == "nth") ? Failpoint::Trigger::kNth
                                       : Failpoint::Trigger::kEvery;
          p.arg = v;
        }
      } else if (key == "prob") {
        if (!ParseFiniteDouble(val, &p.prob) || p.prob < 0.0 ||
            p.prob > 1.0) {
          return Status::InvalidArgument("failpoint prob must be in [0,1]: " +
                                         token);
        }
        p.trigger = Failpoint::Trigger::kProb;
      } else {
        return Status::InvalidArgument("unknown failpoint arg: " + token);
      }
    }
    parsed.push_back(p);
  }

  // Every site the list names must fit in the registry before any arms.
  Registry& r = GlobalRegistry();
  std::vector<std::string_view> fresh;
  for (const Parsed& p : parsed) {
    if (FindSite(p.site) != nullptr ||
        std::find(fresh.begin(), fresh.end(), p.site) != fresh.end()) {
      continue;
    }
    if (r.count.load(std::memory_order_acquire) + fresh.size() ==
        kMaxFailpoints) {
      return Status::InvalidArgument("failpoint registry full (" +
                                     std::to_string(kMaxFailpoints) +
                                     " sites): " + std::string(p.site));
    }
    fresh.push_back(p.site);
  }

  for (size_t i = 0; i < parsed.size(); ++i) {
    const Parsed& p = parsed[i];
    Failpoint& fp = Failpoint::At(p.site);
    std::lock_guard<std::mutex> lock(r.mu);
    fp.armed_.store(false, std::memory_order_release);
    fp.klass_ = p.klass;
    fp.trigger_ = p.trigger;
    fp.arg_ = p.arg;
    fp.prob_ = p.prob;
    fp.times_ = p.times;
    fp.seed_ = Rng::ForkSeed(seed, i);
    fp.hits_.store(0, std::memory_order_relaxed);
    fp.fires_.store(0, std::memory_order_relaxed);
    fp.armed_.store(true, std::memory_order_release);
  }
  return Status::Ok();
}

Status ArmFailpointsFromEnv(uint64_t seed) {
  const char* env = std::getenv("SWSAMPLE_FAILPOINTS");
  if (env == nullptr || *env == '\0') return Status::Ok();
  return ArmFailpoints(env, seed);
}

void DisarmFailpoints() {
  Registry& r = GlobalRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  const size_t n = r.count.load(std::memory_order_acquire);
  for (size_t i = 0; i < n; ++i) {
    r.slots[i]->armed_.store(false, std::memory_order_release);
  }
}

bool AnyFailpointArmed() {
  Registry& r = GlobalRegistry();
  const size_t n = r.count.load(std::memory_order_acquire);
  for (size_t i = 0; i < n; ++i) {
    if (r.slots[i]->armed()) return true;
  }
  return false;
}

std::string FailpointReport() {
  Registry& r = GlobalRegistry();
  const size_t n = r.count.load(std::memory_order_acquire);
  std::string out;
  for (size_t i = 0; i < n; ++i) {
    Failpoint* fp = r.slots[i];
    if (!fp->armed() && fp->hits() == 0 && fp->fires() == 0) continue;
    if (fp->klass_ == FaultClass::kNone) continue;
    out += fp->site();
    out += " class=";
    out += FaultClassName(fp->klass_);
    out += " hits=" + std::to_string(fp->hits());
    out += " fires=" + std::to_string(fp->fires());
    out += '\n';
  }
  return out;
}

}  // namespace swsample
