// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Seeded, composable workload generators + a binary trace format.
//
// Every distributional guarantee in this library was originally validated
// on uniform synthetic streams; production traffic is Zipf-skewed, bursty,
// clock-skewed, and duplicated. This header packages those behaviors as
// named, parseable workload specs so tests, benches, and the CLI can all
// drive the SAME adversarial streams:
//
//  * arrival families: `constant` (r items/step), `poisson` (Poisson(lambda)
//    bursts), `bmodel` (the b-model self-similar burst cascade: an epoch's
//    volume is split bias/(1-bias) recursively over 2^levels slots, the
//    standard model for long-range-dependent network traffic), `churn`
//    (adversarial covering-decomposition churn, below), and `doubling`
//    (the Lemma 3.10 lower-bound stream: min(2^(2t - s), cap) items at
//    step s <= 2t, then one per step, which forces ANY single-sample
//    algorithm to hold Omega(log n) words);
//  * value families: `uniform`, `zipf(alpha)`, `seq` over a domain;
//  * modifiers: `skew` (bounded backward timestamp jitter, producing genuine
//    out-of-order input for the StreamSink clamping contract), `dup`
//    (duplicate-and-replay injection: re-emit a recently seen value).
//
// The `churn` family is built from the implementation's own worst cases
// rather than a traffic model: same-timestamp plateaus of lengths 15/16/17
// straddling the batched `ExtendRun` cutover (kRunCutover = 16 in
// core/ts_single.cc), power-of-two plateaus that force maximal
// Definition-3.1 merge cascades in `CoveringDecomposition`, and inter-burst
// gaps of t0-1 / t0 / t0+1 steps that land exactly on the expiry horizon
// (partial expiry, exact-boundary expiry, full expiry). It maximizes bucket
// churn per item and is the stress stream for the PR-7 fast paths.
//
// Spec grammar (mirrors SinkSpec): `<arrivals>[@<values>][,key=value]...`,
// split and numbers parsed by util/spec_text.h: integers are unsigned
// decimal digits, floats finite decimals.
//
//   constant            rate=R (items per step, default 4)
//   poisson             lambda=L (default 4)
//   bmodel              bias=B (default 0.7), levels=V (default 10),
//                       volume=N (items per epoch, default 4096)
//   churn               t=T0 (target window parameter, default 64)
//   doubling            t=T0 (the lemma's window parameter, at most 2^30),
//                       cap=C (largest burst, default 4096)
//   @uniform|@zipf|@seq domain=M (default 1024), alpha=A (zipf, default 1.1)
//   any                 skew=S (max backward ts jitter, default 0 = off),
//                       skewp=P (probability an item is jittered, 0.25),
//                       dup=P (replay probability, default 0 = off),
//                       duplag=K (replay reach, default 64)
//
// Examples: "poisson@zipf,lambda=16,alpha=1.3", "churn,t=128,skew=32",
// "bmodel@uniform,bias=0.8,dup=0.05".
//
// Generation is deterministic: equal (spec, seed) pairs produce identical
// item sequences, so a spec string in a test log IS the reproduction
// recipe. Indices are consecutive from 0 and timestamps non-decreasing
// unless `skew` is set (skewed streams exercise the documented clamping
// contract; see core/api.h). Take/Generate skip empty steps; Step() hands
// out one step at a time, empty ones included, for callers that move a
// clock on quiet steps.
//
// Trace format (record/replay for real datasets): little-endian, magic
// "SWSTRC1\n", u64 item count, then per item a varint value and a zigzag
// varint timestamp delta. Indices are not stored (consecutive from 0).
// Typical text traces shrink ~10x; replay is ReadTrace plus a Drive call.

#ifndef SWSAMPLE_STREAM_WORKLOAD_H_
#define SWSAMPLE_STREAM_WORKLOAD_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "stream/item.h"
#include "util/rng.h"
#include "util/status.h"

namespace swsample {

/// Arrival-process family of a workload.
enum class WorkloadArrivals {
  kConstant,  ///< `rate` items per step.
  kPoisson,   ///< Poisson(`lambda`) items per step.
  kBModel,    ///< b-model self-similar cascade (bias, levels, volume).
  kChurn,     ///< adversarial covering-decomposition churn (t).
  kDoubling,  ///< Lemma 3.10 doubling bursts (t, cap).
};

/// Value-distribution family of a workload.
enum class WorkloadValues {
  kUniform,     ///< uniform over [0, domain)
  kZipf,        ///< Zipf(alpha) over [0, domain)
  kSequential,  ///< 0,1,...,domain-1,0,...
};

/// Parsed form of a workload spec string; see the grammar above. Field
/// defaults are the grammar's documented defaults.
struct WorkloadSpec {
  WorkloadArrivals arrivals = WorkloadArrivals::kConstant;
  WorkloadValues values = WorkloadValues::kUniform;
  uint64_t rate = 4;        ///< constant: items per step
  double lambda = 4.0;      ///< poisson: burst intensity
  double bias = 0.7;        ///< bmodel: cascade split in (0.5, 1)
  uint64_t levels = 10;     ///< bmodel: 2^levels slots per epoch
  uint64_t volume = 4096;   ///< bmodel: items per epoch
  Timestamp t = 64;         ///< churn, doubling: window parameter t0
  uint64_t cap = 4096;      ///< doubling: largest burst
  uint64_t domain = 1024;   ///< value domain size
  double alpha = 1.1;       ///< zipf exponent
  Timestamp skew = 0;       ///< max backward ts jitter (0 = monotone)
  double skew_p = 0.25;     ///< probability an item is jittered
  double dup = 0.0;         ///< replay probability (0 = off)
  uint64_t dup_lag = 64;    ///< replay reach (items)
  friend bool operator==(const WorkloadSpec&, const WorkloadSpec&) = default;
};

/// Parses the grammar above; rejects unknown families/keys and
/// out-of-range parameters with a message naming the offending token.
Result<WorkloadSpec> ParseWorkloadSpec(std::string_view text);

/// Canonical round-trip rendering: ParseWorkloadSpec(FormatWorkloadSpec(s))
/// reproduces `s`. Defaults are rendered explicitly only when non-default.
std::string FormatWorkloadSpec(const WorkloadSpec& spec);

/// A deterministic item-sequence generator for one (spec, seed) pair.
/// Generate() may be called repeatedly; the stream continues where the
/// previous call stopped (indices stay consecutive).
class WorkloadGenerator {
 public:
  /// Validates the spec and builds the generator.
  static Result<std::unique_ptr<WorkloadGenerator>> Create(
      const WorkloadSpec& spec, uint64_t seed);

  /// Convenience: parse + Create.
  static Result<std::unique_ptr<WorkloadGenerator>> Create(
      std::string_view spec_text, uint64_t seed);

  /// Appends exactly `count` items to `*out`.
  void Generate(uint64_t count, std::vector<Item>* out);

  /// Returns the next `count` items as a fresh vector.
  std::vector<Item> Take(uint64_t count);

  /// Advances the clock one step and returns that step's burst, which is
  /// empty when nothing arrives (a quiet Poisson step). A `churn` step
  /// jumps the clock by its gap. After a Generate that stopped inside a
  /// burst, returns the rest of that burst instead. The reference is
  /// invalidated by the next call.
  const std::vector<Item>& Step();

  const WorkloadSpec& spec() const { return spec_; }

  /// Index the next generated item will carry.
  StreamIndex next_index() const { return next_index_; }

 private:
  WorkloadGenerator(const WorkloadSpec& spec, uint64_t seed);

  /// Number of arrivals at the current step (consumes generator state).
  uint64_t NextBurst();

  /// Value for the next item, after dup/replay modifiers.
  uint64_t NextValue();

  /// Timestamp for an item of the current step, after skew.
  Timestamp EmitTimestamp();

  WorkloadSpec spec_;
  Rng rng_;
  StreamIndex next_index_ = 0;
  Timestamp step_ = 0;        ///< monotone base clock (pre-skew)
  uint64_t pending_ = 0;      ///< arrivals remaining at the current step
  std::vector<double> zipf_cdf_;
  uint64_t seq_next_ = 0;
  std::vector<uint64_t> bmodel_slots_;  ///< per-slot counts, one epoch
  uint64_t bmodel_pos_ = 0;
  std::vector<uint64_t> recent_values_;  ///< dup ring buffer
  uint64_t recent_pos_ = 0;
  // churn phase machine: cycles plateau lengths x gap offsets.
  uint64_t churn_phase_ = 0;
  std::vector<Item> step_items_;  ///< the burst Step() returns
};

/// Writes `items` to `path` in the trace format above. Each timestamp's
/// delta from the previous one (the first's from 0) must fit an int64,
/// which every stream of non-negative timestamps satisfies; otherwise
/// InvalidArgument and nothing is written. Indices are dropped. The
/// file is replaced atomically through the FileOps seam (failpoint site
/// `trace.write`), so a failed write leaves a previous trace intact.
Status WriteTrace(const std::string& path, std::span<const Item> items);

/// Reads a trace written by WriteTrace (failpoint site `trace.read`);
/// indices are regenerated as consecutive from 0. Fails with a
/// descriptive Status on a bad magic, truncation, a count that disagrees
/// with the payload, or a delta that overflows the running int64
/// timestamp.
Result<std::vector<Item>> ReadTrace(const std::string& path);

}  // namespace swsample

#endif  // SWSAMPLE_STREAM_WORKLOAD_H_
