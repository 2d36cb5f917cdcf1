// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Deterministic, seeded fault injection for the persistence/ingestion
// stack. A *failpoint* is a named site inside an I/O primitive (e.g.
// "spill.write") that production code consults via `Hit()`; when armed it
// answers with the fault class to inject, otherwise `FaultClass::kNone`.
//
// Design constraints, in order:
//   1. Zero cost when unarmed: `Hit()` is a single relaxed atomic load on
//      that path, so the seam can stay compiled into release builds and
//      the BENCH.json gate stays green.
//   2. Deterministic: probabilistic triggers derive each decision from a
//      hash of (armed seed, hit index) — no shared RNG state, no locks,
//      reproducible from the seed regardless of thread interleaving for a
//      fixed per-site hit order.
//   3. Thread-safe: sites are hit concurrently from ingest threads (the
//      sharded workers' keyed engines) and the checkpoint commit thread.
//
// Spec grammar (CLI `--failpoints=`, env `SWSAMPLE_FAILPOINTS`, tests):
//
//   spec-list := spec (';' spec)*
//   spec      := <site> '=' <class> (',' arg)*
//   class     := 'enospc' | 'eio' | 'torn' | 'fsync' | 'rename'
//   arg       := 'nth=' <i>     fire exactly on the i-th armed hit (1-based)
//              | 'every=' <n>   fire on every n-th armed hit
//              | 'prob=' <p>    fire each hit with probability p (seeded)
//              | 'times=' <n>   stop after n injected faults
//
// A spec with no trigger arg fires on every hit (a permanently failed
// resource). Example: `spill.write=eio,prob=0.05;ckpt.manifest=rename,nth=2`.
//
// Arm/disarm are not synchronized against in-flight `Hit()` calls beyond
// the armed flag's release/acquire pair: arm before starting ingestion and
// disarm after it drains.

#ifndef SWSAMPLE_UTIL_FAILPOINT_H_
#define SWSAMPLE_UTIL_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace swsample {

/// What an armed failpoint injects. The file_ops primitives map these onto
/// realistic failure shapes: `kEnospc`/`kEio` are transient errors
/// (retryable `Status::Unavailable`), `kTorn` is a *silent* short write —
/// the operation reports success but leaves a truncated file, as a crash
/// mid-write would — `kFsync` is a commit-time fsync lie, and `kRename`
/// fails the atomic publish step.
enum class FaultClass : uint8_t {
  kNone = 0,
  kEnospc,
  kEio,
  kTorn,
  kFsync,
  kRename,
};

/// Grammar name of a fault class ("enospc", ...); "none" for kNone.
const char* FaultClassName(FaultClass c);

/// One named injection site. Obtain with `Failpoint::At`, consult with
/// `Hit()`. Instances live forever once created (bounded registry).
class Failpoint {
 public:
  /// Finds or registers the site. Lookup is a lock-free scan of a fixed
  /// table; creation (first use of a name) takes a mutex. Call sites that
  /// care about the lookup cost cache the reference.
  static Failpoint& At(std::string_view site);

  /// Consults the site: kNone when unarmed (one relaxed load) or when the
  /// armed trigger does not fire for this hit.
  FaultClass Hit();

  const std::string& site() const { return site_; }
  bool armed() const { return armed_.load(std::memory_order_relaxed); }
  /// Armed hits observed since this site was last armed.
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  /// Faults actually injected since this site was last armed.
  uint64_t fires() const { return fires_.load(std::memory_order_relaxed); }

 private:
  enum class Trigger : uint8_t { kAlways, kNth, kEvery, kProb };

  explicit Failpoint(std::string_view site) : site_(site) {}

  friend Status ArmFailpoints(std::string_view, uint64_t);
  friend void DisarmFailpoints();
  friend std::string FailpointReport();

  std::string site_;
  std::atomic<bool> armed_{false};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> fires_{0};
  // Trigger config: written before the release-store that arms the site,
  // read only after the acquire-load that observes it armed.
  FaultClass klass_ = FaultClass::kNone;
  Trigger trigger_ = Trigger::kAlways;
  uint64_t arg_ = 1;    // nth / every operand
  double prob_ = 0.0;   // prob operand
  uint64_t times_ = 0;  // 0 = unlimited
  uint64_t seed_ = 0;   // forked decision seed for prob triggers
};

/// Parses and arms a spec list (grammar above). Sites named in the spec
/// are created if they do not exist yet, so arming may precede the first
/// I/O through a site; a new site past the registry's 64 slots is
/// InvalidArgument. The whole list is validated before any site is armed
/// or created, so an error arms nothing. Sites not named are left
/// untouched. `seed` forks the
/// per-site decision streams for `prob=` triggers. Numbers follow
/// util/spec_text.h: unsigned decimal digits, finite decimal `prob`.
Status ArmFailpoints(std::string_view specs, uint64_t seed);

/// Arms from `SWSAMPLE_FAILPOINTS` if set; Ok (and a no-op) when unset.
Status ArmFailpointsFromEnv(uint64_t seed);

/// Disarms every site. Counters are kept for post-run reporting; re-arming
/// a site resets its counters.
void DisarmFailpoints();

/// True if any site is currently armed.
bool AnyFailpointArmed();

/// One line per armed-or-fired site: "<site> class=<c> hits=<n> fires=<m>".
/// Empty string when nothing was ever armed.
std::string FailpointReport();

}  // namespace swsample

#endif  // SWSAMPLE_UTIL_FAILPOINT_H_
