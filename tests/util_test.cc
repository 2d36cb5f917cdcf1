// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Unit tests for the util substrate: PRNG, bit helpers, Status/Result,
// and the hot-path containers that own their buffers (RingDeque,
// FlatMap): order, capacity, and the exact bytes they report.

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "stats/tests.h"
#include "util/bits.h"
#include "util/flat_map.h"
#include "util/ring_deque.h"
#include "util/rng.h"
#include "util/status.h"

namespace swsample {
namespace {

TEST(BitsTest, FloorLog2Exact) {
  EXPECT_EQ(FloorLog2(1), 0u);
  EXPECT_EQ(FloorLog2(2), 1u);
  EXPECT_EQ(FloorLog2(3), 1u);
  EXPECT_EQ(FloorLog2(4), 2u);
  EXPECT_EQ(FloorLog2(7), 2u);
  EXPECT_EQ(FloorLog2(8), 3u);
  EXPECT_EQ(FloorLog2(uint64_t{1} << 40), 40u);
  EXPECT_EQ(FloorLog2((uint64_t{1} << 40) + 17), 40u);
  EXPECT_EQ(FloorLog2(~uint64_t{0}), 63u);
}

TEST(BitsTest, CeilLog2Exact) {
  EXPECT_EQ(CeilLog2(1), 0u);
  EXPECT_EQ(CeilLog2(2), 1u);
  EXPECT_EQ(CeilLog2(3), 2u);
  EXPECT_EQ(CeilLog2(4), 2u);
  EXPECT_EQ(CeilLog2(5), 3u);
  EXPECT_EQ(CeilLog2(uint64_t{1} << 40), 40u);
}

TEST(BitsTest, IsPowerOfTwo) {
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(2));
  EXPECT_FALSE(IsPowerOfTwo(3));
  EXPECT_TRUE(IsPowerOfTwo(uint64_t{1} << 63));
  EXPECT_FALSE(IsPowerOfTwo((uint64_t{1} << 63) + 1));
}

TEST(BitsTest, Pow2) {
  EXPECT_EQ(Pow2(0), 1u);
  EXPECT_EQ(Pow2(10), 1024u);
  EXPECT_EQ(Pow2(63), uint64_t{1} << 63);
}

TEST(BitsTest, NonDigitMaskIsExactPerByte) {
  // Every byte value in every lane, beside lanes of digits and non-digits,
  // so a borrow or carry leaking across lanes would show.
  for (const uint64_t background : {RepeatByte('5'), RepeatByte(' '),
                                    RepeatByte(0xFF), uint64_t{0}}) {
    for (uint32_t lane = 0; lane < 8; ++lane) {
      for (uint32_t b = 0; b < 256; ++b) {
        const uint64_t chunk =
            (background & ~(uint64_t{0xFF} << (8 * lane))) |
            (uint64_t{b} << (8 * lane));
        const uint64_t mask = NonDigitMask(chunk);
        for (uint32_t i = 0; i < 8; ++i) {
          const uint8_t byte = static_cast<uint8_t>(chunk >> (8 * i));
          const bool digit = byte >= '0' && byte <= '9';
          ASSERT_EQ((mask >> (8 * i)) & 0xFF, digit ? 0u : 0x80u)
              << "lane " << lane << " byte " << b << " at " << i;
        }
      }
    }
  }
}

TEST(BitsTest, ParseDigitsFoldsLeadingRun) {
  if constexpr (std::endian::native != std::endian::little) {
    GTEST_SKIP() << "chunks are loaded little-endian";
  }
  const char text[] = "9081726354";
  for (uint32_t n = 1; n <= 8; ++n) {
    for (uint32_t offset = 0; offset + 8 <= sizeof(text) - 1; ++offset) {
      uint64_t chunk;
      std::memcpy(&chunk, text + offset, 8);
      uint64_t expected = 0;
      for (uint32_t i = 0; i < n; ++i) {
        expected = expected * 10 + static_cast<uint64_t>(text[offset + i]) -
                   '0';
      }
      EXPECT_EQ(ParseDigits(chunk, n), expected) << n << " @" << offset;
    }
  }
  uint64_t nines;
  std::memcpy(&nines, "99999999", 8);
  EXPECT_EQ(ParseDigits(nines, 8), 99999999u);
  EXPECT_EQ(ParseDigits(nines, 1), 9u);
}

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextU64() == b.NextU64());
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformIndexInBounds) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.UniformIndex(bound), bound);
  }
}

TEST(RngTest, UniformIndexOneIsZero) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.UniformIndex(1), 0u);
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 5000; ++i) seen.insert(rng.UniformRange(10, 13));
  EXPECT_EQ(seen, (std::set<uint64_t>{10, 11, 12, 13}));
}

TEST(RngTest, UniformIndexChiSquare) {
  Rng rng(123);
  std::vector<uint64_t> counts(16, 0);
  for (int i = 0; i < 160000; ++i) ++counts[rng.UniformIndex(16)];
  auto result = ChiSquareUniform(counts);
  EXPECT_GT(result.p_value, 1e-4) << "stat=" << result.statistic;
}

TEST(RngTest, Uniform01Range) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.Uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, Uniform01KolmogorovSmirnov) {
  Rng rng(77);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = rng.Uniform01();
  auto result = KsUniform(std::move(xs));
  EXPECT_GT(result.p_value, 1e-4) << "D=" << result.statistic;
}

TEST(RngTest, BernoulliRationalExactEdges) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(rng.BernoulliRational(5, 5));
    EXPECT_TRUE(rng.BernoulliRational(7, 5));
    EXPECT_FALSE(rng.BernoulliRational(0, 5));
  }
}

TEST(RngTest, BernoulliRationalFrequency) {
  Rng rng(11);
  const int trials = 200000;
  int hits = 0;
  for (int i = 0; i < trials; ++i) hits += rng.BernoulliRational(3, 7);
  double freq = static_cast<double>(hits) / trials;
  EXPECT_NEAR(freq, 3.0 / 7.0, 0.01);
}

TEST(RngTest, BernoulliDoubleFrequency) {
  Rng rng(13);
  const int trials = 200000;
  int hits = 0;
  for (int i = 0; i < trials; ++i) hits += rng.Bernoulli(0.25);
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.25, 0.01);
}

TEST(RngTest, BernoulliDoubleEdges) {
  Rng rng(17);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_FALSE(rng.Bernoulli(-1.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  EXPECT_TRUE(rng.Bernoulli(2.0));
}

TEST(RngTest, SplitDecorrelates) {
  Rng parent(21);
  Rng child = parent.Split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (parent.NextU64() == child.NextU64());
  EXPECT_LT(same, 2);
}

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesMessage) {
  Status s = Status::InvalidArgument("k must be >= 1");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: k must be >= 1");
}

TEST(StatusTest, AllCodesRender) {
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::OutOfRange("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST(ResultTest, ValueOrDieMoves) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  std::vector<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(v.size(), 3u);
}

// --- RingDeque -----------------------------------------------------------

TEST(RingDequeTest, FuzzMatchesStdDeque) {
  RingDeque<uint64_t> ring;
  std::deque<uint64_t> ref;
  Rng rng(404);
  for (int op = 0; op < 20000; ++op) {
    switch (rng.UniformIndex(10)) {
      case 0:
      case 1:
      case 2:
      case 3:  // bias toward growth
        ring.push_back(op);
        ref.push_back(static_cast<uint64_t>(op));
        break;
      case 4:
        ring.push_front(op);
        ref.push_front(static_cast<uint64_t>(op));
        break;
      case 5:
        if (!ref.empty()) {
          ring.pop_front();
          ref.pop_front();
        }
        break;
      case 6:
        if (!ref.empty()) {
          ring.pop_back();
          ref.pop_back();
        }
        break;
      case 7:
        if (!ref.empty()) {
          const uint64_t i = rng.UniformIndex(ref.size());
          ring.EraseAt(i);
          ref.erase(ref.begin() + static_cast<int64_t>(i));
        }
        break;
      case 8:
        if (!ref.empty()) {
          const uint64_t n = rng.UniformIndex(ref.size() + 1);
          ring.pop_front_n(n);
          ref.erase(ref.begin(), ref.begin() + static_cast<int64_t>(n));
        }
        break;
      case 9:
        if (rng.UniformIndex(50) == 0) {
          ring.clear();
          ref.clear();
        }
        break;
    }
    ASSERT_EQ(ring.size(), ref.size());
    if (!ref.empty()) {
      ASSERT_EQ(ring.front(), ref.front());
      ASSERT_EQ(ring.back(), ref.back());
      const uint64_t i = rng.UniformIndex(ref.size());
      ASSERT_EQ(ring[i], ref[i]);
    }
  }
  // Full sweep at the end.
  ASSERT_EQ(ring.size(), ref.size());
  for (uint64_t i = 0; i < ref.size(); ++i) EXPECT_EQ(ring[i], ref[i]);
}

TEST(RingDequeTest, ClearKeepsCapacity) {
  RingDeque<uint64_t> ring;
  for (uint64_t i = 0; i < 100; ++i) ring.push_back(i);
  const size_t cap = ring.capacity();
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.capacity(), cap);
  for (uint64_t i = 0; i < cap; ++i) ring.push_back(i);
  EXPECT_EQ(ring.capacity(), cap);  // refill allocates nothing
}

TEST(RingDequeTest, WrapAroundIndexing) {
  RingDeque<uint64_t> ring;
  // Cycle a window of 5 through many pushes so head wraps repeatedly.
  uint64_t next = 0;
  for (; next < 5; ++next) ring.push_back(next);
  for (; next < 1000; ++next) {
    ring.pop_front();
    ring.push_back(next);
    ASSERT_EQ(ring.size(), 5u);
    for (uint64_t i = 0; i < 5; ++i) ASSERT_EQ(ring[i], next - 4 + i);
  }
}

TEST(RingDequeTest, ReservedBytesIsCapacity) {
  // One owned buffer: growth frees the outgrown ring, so the reported
  // bytes never include abandoned storage.
  RingDeque<uint64_t> ring;
  EXPECT_EQ(ring.ReservedBytes(), 0u);
  for (uint64_t i = 0; i < 1000; ++i) {
    ring.push_back(i);
    ASSERT_EQ(ring.ReservedBytes(), ring.capacity() * sizeof(uint64_t));
  }
  EXPECT_EQ(ring.capacity(), 1024u);
}

TEST(RingDequeTest, GrowthOfWrappedRingKeepsOrder) {
  RingDeque<uint64_t> ring;
  for (uint64_t i = 0; i < 8; ++i) ring.push_back(i);
  ASSERT_EQ(ring.capacity(), 8u);
  // Rotate so the full live range wraps the end of the buffer.
  for (uint64_t i = 8; i < 13; ++i) {
    ring.pop_front();
    ring.push_back(i);
  }
  ring.push_back(13);  // grows while wrapped
  ring.push_front(4);
  EXPECT_EQ(ring.capacity(), 16u);
  ASSERT_EQ(ring.size(), 10u);
  for (uint64_t i = 0; i < ring.size(); ++i) EXPECT_EQ(ring[i], 4 + i);
}

TEST(RingDequeTest, MovedFromRingIsEmptyAndReusable) {
  RingDeque<uint64_t> ring;
  for (uint64_t i = 0; i < 20; ++i) ring.push_back(i);
  RingDeque<uint64_t> moved(std::move(ring));
  EXPECT_EQ(moved.size(), 20u);
  EXPECT_EQ(moved[19], 19u);
  EXPECT_TRUE(ring.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(ring.capacity(), 0u);
  EXPECT_EQ(ring.ReservedBytes(), 0u);
  for (uint64_t i = 0; i < 10; ++i) ring.push_front(i);
  for (uint64_t i = 0; i < 10; ++i) EXPECT_EQ(ring[i], 9 - i);
  RingDeque<uint64_t> assigned;
  assigned.push_back(99);
  assigned = std::move(moved);
  EXPECT_EQ(assigned.size(), 20u);
  EXPECT_EQ(assigned[0], 0u);
  EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move)
  moved.push_back(7);
  EXPECT_EQ(moved.front(), 7u);
}

// --- FlatMap -------------------------------------------------------------

TEST(FlatMapTest, FuzzMatchesUnorderedMap) {
  FlatMap<uint64_t, uint64_t> map;
  std::unordered_map<uint64_t, uint64_t> ref;
  Rng rng(505);
  // Small key domain forces frequent hits, erases of present keys, and
  // long probe chains; the backward-shift erase is exercised constantly.
  const uint64_t domain = 257;
  for (int op = 0; op < 30000; ++op) {
    const uint64_t key = rng.UniformIndex(domain);
    switch (rng.UniformIndex(4)) {
      case 0:
      case 1: {
        const uint64_t value = rng.NextU64();
        const bool inserted = map.TryEmplace(key, value).second;
        const bool ref_inserted = ref.try_emplace(key, value).second;
        ASSERT_EQ(inserted, ref_inserted);
        break;
      }
      case 2:
        ASSERT_EQ(map.Erase(key), ref.erase(key) > 0);
        break;
      case 3: {
        const uint64_t* found = map.Find(key);
        auto it = ref.find(key);
        ASSERT_EQ(found != nullptr, it != ref.end());
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second);
        }
        break;
      }
    }
    ASSERT_EQ(map.Size(), ref.size());
  }
  // Iteration visits exactly the reference contents.
  std::map<uint64_t, uint64_t> seen;
  map.ForEach([&](uint64_t k, uint64_t& v) { seen.emplace(k, v); });
  ASSERT_EQ(seen.size(), ref.size());
  for (const auto& [k, v] : ref) {
    auto it = seen.find(k);
    ASSERT_NE(it, seen.end());
    EXPECT_EQ(it->second, v);
  }
}

TEST(FlatMapTest, OperatorIndexDefaultConstructs) {
  FlatMap<uint64_t, uint64_t> map;
  ++map[7];
  ++map[7];
  ++map[9];
  EXPECT_EQ(map.Size(), 2u);
  EXPECT_EQ(*map.Find(7), 2u);
  EXPECT_EQ(*map.Find(9), 1u);
}

TEST(FlatMapTest, ClearKeepsCapacity) {
  FlatMap<uint64_t, uint64_t> map;
  for (uint64_t i = 0; i < 1000; ++i) map.TryEmplace(i, i);
  const uint64_t cap = map.Capacity();
  map.Clear();
  EXPECT_EQ(map.Size(), 0u);
  EXPECT_EQ(map.Capacity(), cap);
  for (uint64_t i = 0; i < 1000; ++i) map.TryEmplace(i, i);
  EXPECT_EQ(map.Capacity(), cap);  // refill allocates nothing
}

TEST(FlatMapTest, GrowthReportsOnlyTheLiveTable) {
  // Growth with live entries frees the outgrown tables: the reported
  // bytes are the current slots plus occupancy flags, nothing more.
  FlatMap<uint64_t, uint64_t> map;
  EXPECT_EQ(map.ReservedBytes(), 0u);
  for (uint64_t i = 0; i < 5000; ++i) {
    map.TryEmplace(i, i);
    ASSERT_EQ(map.ReservedBytes(),
              map.Capacity() * (2 * sizeof(uint64_t) + 1));
  }
  EXPECT_EQ(map.Capacity(), 8192u);
  for (uint64_t i = 0; i < 5000; ++i) ASSERT_EQ(*map.Find(i), i);
  FlatMap<uint64_t, uint64_t> moved(std::move(map));
  EXPECT_EQ(moved.Size(), 5000u);
  EXPECT_EQ(map.ReservedBytes(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(map.Find(1), nullptr);
  map.TryEmplace(1, 2);
  EXPECT_EQ(*map.Find(1), 2u);
}

TEST(FlatMapTest, BackwardShiftPreservesProbeChains) {
  // Dense consecutive keys on a small table create displaced clusters;
  // erasing front-of-cluster keys must keep every survivor findable.
  FlatMap<uint64_t, uint64_t> map;
  for (uint64_t i = 0; i < 64; ++i) map.TryEmplace(i, i * 10);
  for (uint64_t i = 0; i < 64; i += 2) EXPECT_TRUE(map.Erase(i));
  for (uint64_t i = 0; i < 64; ++i) {
    const uint64_t* v = map.Find(i);
    if (i % 2 == 0) {
      EXPECT_EQ(v, nullptr);
    } else {
      ASSERT_NE(v, nullptr);
      EXPECT_EQ(*v, i * 10);
    }
  }
}

// --- Batched RNG draws ---------------------------------------------------

TEST(RngTest, FillU64MatchesSequentialDraws) {
  Rng a(99), b(99);
  std::vector<uint64_t> filled(257);
  a.FillU64(filled);
  for (uint64_t& expected : filled) {
    EXPECT_EQ(expected, b.NextU64());
  }
}

TEST(RngTest, FillUniform01MatchesSequentialDraws) {
  Rng a(99), b(99);
  std::vector<double> filled(100);
  a.FillUniform01(filled);
  for (double expected : filled) {
    EXPECT_EQ(expected, b.Uniform01());
  }
}

TEST(CoinSourceTest, DeterministicAndFair) {
  Rng a(7), b(7);
  CoinSource ca(a), cb(b);
  uint64_t heads = 0;
  const int trials = 1 << 16;
  for (int i = 0; i < trials; ++i) {
    const bool coin = ca.Coin();
    ASSERT_EQ(coin, cb.Coin());
    heads += coin ? 1 : 0;
  }
  // 5-sigma band around the binomial mean.
  const double sigma = std::sqrt(trials * 0.25);
  EXPECT_NEAR(static_cast<double>(heads), trials * 0.5, 5 * sigma);
}

TEST(CoinSourceTest, Uses64CoinsPerDraw) {
  Rng a(7), b(7);
  CoinSource coins(a);
  for (int i = 0; i < 64; ++i) coins.Coin();
  // Exactly one word consumed for 64 coins.
  a.NextU64();
  b.NextU64();
  b.NextU64();
  EXPECT_EQ(a.NextU64(), b.NextU64());
}

}  // namespace
}  // namespace swsample
