// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Tests for the DGIM exponential histogram: the (1 +/- eps) window-count
// guarantee under constant-rate and bursty arrivals, logarithmic bucket
// growth, expiry across silence, exact agreement with a plain reference
// model of the bucket list, and a fuzz of the checkpoint reader.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "stream/exp_histogram.h"
#include "stream/workload.h"
#include "util/bits.h"
#include "util/rng.h"
#include "util/serial.h"

namespace swsample {
namespace {

TEST(ExpHistogramTest, CreateValidation) {
  EXPECT_FALSE(ExpHistogram::Create(0, 0.1).ok());
  EXPECT_FALSE(ExpHistogram::Create(10, 0.0).ok());
  EXPECT_FALSE(ExpHistogram::Create(10, 1.5).ok());
  EXPECT_TRUE(ExpHistogram::Create(10, 1.0).ok());
}

TEST(ExpHistogramTest, ExactForTinyCounts) {
  auto h = ExpHistogram::Create(100, 0.1).ValueOrDie();
  EXPECT_EQ(h.Estimate(), 0u);
  h.Add(0);
  EXPECT_EQ(h.Estimate(), 1u);
  h.Add(1);
  h.Add(2);
  EXPECT_EQ(h.Estimate(), 3u);
}

TEST(ExpHistogramTest, AllExpire) {
  auto h = ExpHistogram::Create(5, 0.2).ValueOrDie();
  for (Timestamp t = 0; t < 20; ++t) h.Add(t);
  EXPECT_GT(h.Estimate(), 0u);
  h.AdvanceTime(100);
  EXPECT_EQ(h.Estimate(), 0u);
  EXPECT_EQ(h.BucketCount(), 0u);
}

void CheckRelativeError(double eps, double lambda, Timestamp t0,
                        uint64_t seed) {
  auto h = ExpHistogram::Create(t0, eps).ValueOrDie();
  WorkloadSpec spec;
  spec.arrivals = WorkloadArrivals::kPoisson;
  spec.lambda = lambda;
  spec.domain = 16;
  auto stream = WorkloadGenerator::Create(spec, seed).ValueOrDie();
  std::deque<Timestamp> exact;  // timestamps of active arrivals
  for (Timestamp t = 0; t < 6 * t0; ++t) {
    for (const Item& item : stream->Step()) {
      h.Add(item.timestamp);
      exact.push_back(item.timestamp);
    }
    h.AdvanceTime(t);
    while (!exact.empty() && t - exact.front() >= t0) exact.pop_front();
    const double truth = static_cast<double>(exact.size());
    const double got = static_cast<double>(h.Estimate());
    if (truth >= 8) {
      EXPECT_LE(std::fabs(got - truth), eps * truth + 1.0)
          << "t=" << t << " truth=" << truth << " got=" << got;
    }
  }
}

TEST(ExpHistogramTest, RelativeErrorEps20) {
  CheckRelativeError(0.2, 4.0, 200, 1);
}
TEST(ExpHistogramTest, RelativeErrorEps10) {
  CheckRelativeError(0.1, 8.0, 300, 2);
}
TEST(ExpHistogramTest, RelativeErrorEps5Bursty) {
  CheckRelativeError(0.05, 20.0, 150, 3);
}

TEST(ExpHistogramTest, BucketCountLogarithmic) {
  auto h = ExpHistogram::Create(1 << 16, 0.1).ValueOrDie();
  for (Timestamp t = 0; t < (1 << 16); ++t) h.Add(t);
  // O(eps^-1 log n): k/2+2 = 7 per size class, ~17 classes.
  EXPECT_LE(h.BucketCount(), 7u * 18u);
  EXPECT_GE(h.BucketCount(), 17u);
}

TEST(ExpHistogramTest, MemoryWordsTracksBuckets) {
  auto h = ExpHistogram::Create(1000, 0.25).ValueOrDie();
  for (Timestamp t = 0; t < 500; ++t) h.Add(t);
  EXPECT_EQ(h.MemoryWords(), 3 + h.BucketCount() * 2);
}

TEST(ExpHistogramTest, BurstAtOneTimestamp) {
  auto h = ExpHistogram::Create(10, 0.1).ValueOrDie();
  for (int i = 0; i < 10000; ++i) h.Add(50);
  const double got = static_cast<double>(h.Estimate());
  EXPECT_NEAR(got, 10000.0, 0.1 * 10000.0);
  h.AdvanceTime(59);
  EXPECT_GT(h.Estimate(), 0u);
  h.AdvanceTime(60);
  EXPECT_EQ(h.Estimate(), 0u);
}

// Long steady-state run: the ring-backed bucket list cycles through many
// evict/append/merge rounds (head wraps repeatedly) and the estimate must
// honor the eps bound in every window position, not just the first fill.
TEST(ExpHistogramTest, SteadyStateCyclingHonorsEps) {
  const Timestamp t0 = 512;
  const double eps = 0.1;
  auto h = ExpHistogram::Create(t0, eps).ValueOrDie();
  uint64_t arrivals = 0;
  Rng rng(2024);
  std::deque<Timestamp> window;  // reference arrival times
  for (Timestamp t = 0; t < 20 * t0; ++t) {
    const uint64_t burst = rng.UniformIndex(3);
    for (uint64_t b = 0; b < burst; ++b) {
      h.Add(t);
      window.push_back(t);
      ++arrivals;
    }
    h.AdvanceTime(t);
    while (!window.empty() && t - window.front() >= t0) window.pop_front();
    const double exact = static_cast<double>(window.size());
    const double estimate = static_cast<double>(h.Estimate());
    if (exact >= 8) {
      EXPECT_LE(std::fabs(estimate - exact), eps * exact + 1.0)
          << "t=" << t << " exact=" << exact << " got=" << estimate;
    }
  }
  ASSERT_GT(arrivals, t0);
}

// Plain reference model of the DGIM bucket list: one deque of (newest,
// count) buckets, oldest first, plus per-class counters. A merge finds the
// two oldest buckets of class c behind every larger class's buckets and
// erases the second from the middle of the list. The production class
// keeps per-class rings instead; its state must match this one exactly.
class RefHistogram {
 public:
  RefHistogram(Timestamp t0, double eps)
      : t0_(t0),
        max_per_size_(static_cast<uint64_t>(std::ceil(1.0 / eps)) / 2 + 2) {}

  void Add(Timestamp ts) {
    if (ts < now_) ts = now_;
    AdvanceTime(ts);
    newest_.push_back(ts);
    count_.push_back(1);
    ++class_count_[0];
    ++total_;
    for (uint32_t c = 0; c < 63 && class_count_[c] > max_per_size_; ++c) {
      uint64_t i = 0;
      for (uint32_t d = c + 1; d < 64; ++d) i += class_count_[d];
      ASSERT_EQ(count_[i], uint64_t{1} << c);
      ASSERT_EQ(count_[i + 1], uint64_t{1} << c);
      count_[i] *= 2;
      newest_[i] = newest_[i + 1];
      newest_.erase(newest_.begin() + static_cast<std::ptrdiff_t>(i + 1));
      count_.erase(count_.begin() + static_cast<std::ptrdiff_t>(i + 1));
      class_count_[c] -= 2;
      ++class_count_[c + 1];
    }
  }

  void AdvanceTime(Timestamp now) {
    if (now < now_) return;
    now_ = now;
    while (!newest_.empty() && now_ - newest_.front() >= t0_) {
      total_ -= count_.front();
      --class_count_[FloorLog2(count_.front())];
      newest_.pop_front();
      count_.pop_front();
    }
  }

  uint64_t Estimate() {
    AdvanceTime(now_);
    return count_.empty() ? 0 : total_ - count_.front() / 2;
  }
  uint64_t BucketCount() const { return count_.size(); }
  uint64_t MemoryWords() const { return 3 + count_.size() * 2; }

  std::string Save() const {
    BinaryWriter w;
    w.PutI64(now_);
    w.PutU64(count_.size());
    for (size_t i = 0; i < count_.size(); ++i) {
      w.PutI64(newest_[i]);
      w.PutU64(count_[i]);
    }
    return w.Release();
  }

  // Rebuilds from a blob this model saved (no validation needed).
  void Load(std::string_view blob) {
    BinaryReader r(blob);
    uint64_t size = 0;
    ASSERT_TRUE(r.GetI64(&now_) && r.GetU64(&size));
    newest_.clear();
    count_.clear();
    class_count_.fill(0);
    total_ = 0;
    for (uint64_t i = 0; i < size; ++i) {
      Timestamp newest = 0;
      uint64_t count = 0;
      ASSERT_TRUE(r.GetI64(&newest) && r.GetU64(&count));
      newest_.push_back(newest);
      count_.push_back(count);
      ++class_count_[FloorLog2(count)];
      total_ += count;
    }
  }

 private:
  Timestamp t0_;
  uint64_t max_per_size_;
  Timestamp now_ = 0;
  uint64_t total_ = 0;
  std::deque<Timestamp> newest_;
  std::deque<uint64_t> count_;
  std::array<uint64_t, 64> class_count_{};
};

std::string SaveBytes(const ExpHistogram& h) {
  BinaryWriter w;
  h.Save(&w);
  return w.Release();
}

// One seeded op stream through both implementations, compared after every
// op: same-timestamp bursts, small clock steps, regressed timestamps,
// AdvanceTime jumps past t0 (and backwards), and Save -> Load -> continue,
// into a fresh histogram or over the live one.
void RunDifferential(double eps, Timestamp t0, uint64_t seed, int ops) {
  SCOPED_TRACE(testing::Message() << "eps=" << eps << " t0=" << t0
                                  << " seed=" << seed);
  auto h = ExpHistogram::Create(t0, eps).ValueOrDie();
  RefHistogram ref(t0, eps);
  Rng rng(seed);
  Timestamp now = 0;
  const Timestamp step = std::max<Timestamp>(1, t0 / 64);
  int burst = 0;
  for (int op = 0; op < ops; ++op) {
    const uint64_t kind = burst > 0 ? 0 : rng.UniformIndex(100);
    if (burst > 0) {
      --burst;
      h.Add(now);
      ref.Add(now);
    } else if (kind < 55) {
      now += static_cast<Timestamp>(rng.UniformIndex(step + 1));
      h.Add(now);
      ref.Add(now);
    } else if (kind < 70) {
      burst = static_cast<int>(rng.UniformIndex(300));
    } else if (kind < 80) {
      const Timestamp ts =
          now - static_cast<Timestamp>(rng.UniformIndex(2 * step + 1));
      h.Add(ts);
      ref.Add(ts);
    } else if (kind < 88) {
      now += static_cast<Timestamp>(rng.UniformIndex(4 * step + 1));
      h.AdvanceTime(now);
      ref.AdvanceTime(now);
    } else if (kind < 90) {
      now += t0 + static_cast<Timestamp>(rng.UniformIndex(step + 1));
      h.AdvanceTime(now);
      ref.AdvanceTime(now);
    } else if (kind < 92) {
      const Timestamp back =
          now - 1 - static_cast<Timestamp>(rng.UniformIndex(8));
      h.AdvanceTime(back);
      ref.AdvanceTime(back);
    } else if (kind < 94) {
      const std::string blob = SaveBytes(h);
      BinaryReader r(blob);
      if (rng.Bernoulli(0.5)) {
        auto fresh = ExpHistogram::Create(t0, eps).ValueOrDie();
        ASSERT_TRUE(fresh.Load(&r));
        h = std::move(fresh);
      } else {
        ASSERT_TRUE(h.Load(&r));
      }
      EXPECT_EQ(r.remaining(), 0u);
      ref.Load(blob);
    } else {
      ASSERT_EQ(h.Estimate(), ref.Estimate()) << "op " << op;
    }
    ASSERT_EQ(SaveBytes(h), ref.Save()) << "op " << op;
    ASSERT_EQ(h.BucketCount(), ref.BucketCount()) << "op " << op;
    ASSERT_EQ(h.MemoryWords(), ref.MemoryWords()) << "op " << op;
    ASSERT_EQ(h.Estimate(), ref.Estimate()) << "op " << op;
  }
}

TEST(ExpHistogramDifferentialTest, MatchesReferenceBucketList) {
  const double kEps[] = {1.0, 0.5, 0.1, 0.05, 0.01};
  const Timestamp kT0[] = {1, 7, 200, 100000, Timestamp{1} << 40};
  uint64_t seed = 1;
  for (const double eps : kEps) {
    for (const Timestamp t0 : kT0) {
      RunDifferential(eps, t0, seed++, 6000);
      if (HasFatalFailure()) return;
    }
  }
}

// DGIM invariants of a saved state: power-of-two counts non-increasing
// oldest to newest, at most `max_per_size` per class, newest-arrival
// timestamps non-decreasing, non-negative and inside the window.
void ExpectDgimInvariants(std::string_view blob, Timestamp t0,
                          uint64_t max_per_size) {
  BinaryReader r(blob);
  Timestamp now = 0;
  uint64_t size = 0;
  ASSERT_TRUE(r.GetI64(&now) && r.GetU64(&size));
  std::array<uint64_t, 64> per_class{};
  Timestamp last_ts = 0;
  uint64_t last_count = ~uint64_t{0};
  for (uint64_t i = 0; i < size; ++i) {
    Timestamp ts = 0;
    uint64_t count = 0;
    ASSERT_TRUE(r.GetI64(&ts) && r.GetU64(&count));
    ASSERT_TRUE(IsPowerOfTwo(count));
    EXPECT_LE(count, last_count);
    EXPECT_GE(ts, last_ts);
    EXPECT_GE(ts, 0);
    EXPECT_LT(now - ts, t0);
    EXPECT_LE(++per_class[FloorLog2(count)], max_per_size);
    last_ts = ts;
    last_count = count;
  }
  EXPECT_EQ(r.remaining(), 0u);
}

// A blob of (newest, count) buckets at clock `now`.
std::string MakeBlob(Timestamp now,
                     const std::vector<std::pair<Timestamp, uint64_t>>& b) {
  BinaryWriter w;
  w.PutI64(now);
  w.PutU64(b.size());
  for (const auto& [ts, count] : b) {
    w.PutI64(ts);
    w.PutU64(count);
  }
  return w.Release();
}

TEST(ExpHistogramLoadTest, RejectsOverfullClass) {
  // eps = 0.25: k = 4, at most k/2 + 2 = 4 buckets per class.
  constexpr uint64_t kMaxPerSize = 4;
  std::vector<std::pair<Timestamp, uint64_t>> buckets = {{3, 8}, {5, 2}};
  for (uint64_t i = 0; i < kMaxPerSize; ++i) buckets.push_back({9, 1});
  auto h = ExpHistogram::Create(100, 0.25).ValueOrDie();
  std::string blob = MakeBlob(10, buckets);
  BinaryReader full(blob);
  ASSERT_TRUE(h.Load(&full));
  EXPECT_EQ(SaveBytes(h), blob);
  buckets.push_back({10, 1});  // one bucket more than Add ever leaves
  blob = MakeBlob(10, buckets);
  BinaryReader over(blob);
  EXPECT_FALSE(h.Load(&over));
  // The same overflow in a middle class.
  blob = MakeBlob(10, {{1, 4}, {2, 2}, {3, 2}, {4, 2}, {5, 2}, {6, 2}});
  BinaryReader middle(blob);
  EXPECT_FALSE(h.Load(&middle));
}

// A tiny eps makes every class ring very wide (max_per_size_ near 2^31):
// the rings are sized to what they hold, not to that bound, whether the
// state comes from Add or from a blob with one bucket in a high class.
TEST(ExpHistogramTest, TinyEpsReservesOnlyWhatItHolds) {
  for (const double eps : {1e-12, 1e-300, 5e-324}) {
    auto h = ExpHistogram::Create(1000, eps).ValueOrDie();
    for (Timestamp t = 0; t < 100; ++t) h.Add(t);
    EXPECT_EQ(h.Estimate(), 100u);  // one class, nothing merged: exact
    EXPECT_LE(h.RetainedBytes(), 128 * sizeof(Timestamp));
    const std::string blob = MakeBlob(50, {{10, uint64_t{1} << 62}});
    BinaryReader r(blob);
    ASSERT_TRUE(h.Load(&r));
    EXPECT_EQ(SaveBytes(h), blob);
    EXPECT_LE(h.RetainedBytes(), 63 * 128 * sizeof(Timestamp));
  }
}

// Seeded envelope fuzz of Load: real Save blobs, truncated, bit-flipped,
// or with a count, timestamp, clock or size field rewritten. Nothing may
// crash; an accepted blob re-saves to exactly the bytes Load consumed,
// keeps the DGIM invariants, and keeps them after further Adds.
TEST(ExpHistogramLoadTest, EnvelopeFuzz) {
  Rng rng(77);
  const double kEps[] = {1.0, 0.25, 0.05};
  const Timestamp kT0[] = {5, 1000, Timestamp{1} << 40};
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  for (const double eps : kEps) {
    for (const Timestamp t0 : kT0) {
      const uint64_t max_per_size =
          static_cast<uint64_t>(std::ceil(1.0 / eps)) / 2 + 2;
      auto source = ExpHistogram::Create(t0, eps).ValueOrDie();
      Timestamp now = 0;
      for (int round = 0; round < 40; ++round) {
        const int adds = static_cast<int>(rng.UniformIndex(400));
        for (int i = 0; i < adds; ++i) {
          now += static_cast<Timestamp>(rng.UniformIndex(3));
          source.Add(now);
        }
        const std::string blob = SaveBytes(source);
        for (int trial = 0; trial < 25; ++trial) {
          std::string bad = blob;
          const uint64_t buckets = (bad.size() - 16) / 16;
          const uint64_t field =
              buckets == 0 ? 0 : 16 + 16 * rng.UniformIndex(buckets);
          auto put = [&](uint64_t offset, uint64_t v) {
            for (int b = 0; b < 8; ++b) {
              bad[offset + b] = static_cast<char>(v >> (8 * b));
            }
          };
          switch (rng.UniformIndex(6)) {
            case 0:
              bad.resize(rng.UniformIndex(bad.size() + 1));
              break;
            case 1: {
              const uint64_t bit = rng.UniformIndex(bad.size() * 8);
              bad[bit / 8] = static_cast<char>(bad[bit / 8] ^ (1 << (bit % 8)));
              break;
            }
            case 2:  // a count: another power of two, or any word
              if (buckets > 0) {
                put(field + 8, rng.Bernoulli(0.5)
                                   ? uint64_t{1} << rng.UniformIndex(64)
                                   : rng.NextU64());
              }
              break;
            case 3:  // a timestamp: nudged, or any word
              if (buckets > 0) {
                put(field, rng.Bernoulli(0.5)
                               ? static_cast<uint64_t>(
                                     now - 8 + static_cast<Timestamp>(
                                                   rng.UniformIndex(16)))
                               : rng.NextU64());
              }
              break;
            case 4:  // the clock
              put(0, static_cast<uint64_t>(now) + rng.UniformIndex(2 * t0) -
                         t0);
              break;
            default:  // the bucket count
              put(8, rng.Bernoulli(0.5)
                         ? buckets + rng.UniformIndex(5) - 2
                         : rng.NextU64());
              break;
          }
          auto h = ExpHistogram::Create(t0, eps).ValueOrDie();
          if (rng.Bernoulli(0.5)) h.Add(now);  // load over a live state
          BinaryReader r(bad);
          if (!h.Load(&r)) {
            ++rejected;
            continue;
          }
          ++accepted;
          const std::string again = SaveBytes(h);
          ASSERT_EQ(again, bad.substr(0, bad.size() - r.remaining()));
          ExpectDgimInvariants(again, t0, max_per_size);
          h.Estimate();
          for (int i = 0; i < 50; ++i) h.Add(now + i);
          ExpectDgimInvariants(SaveBytes(h), t0, max_per_size);
        }
      }
    }
  }
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 100u);
}

}  // namespace
}  // namespace swsample
