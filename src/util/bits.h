// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Small integer/bit helpers used by the covering decomposition (Section 3 of
// the paper), whose bucket widths are powers of two derived from
// floor(log2(width)) computations.

#ifndef SWSAMPLE_UTIL_BITS_H_
#define SWSAMPLE_UTIL_BITS_H_

#include <bit>
#include <cstdint>

#include "util/macros.h"

namespace swsample {

/// floor(log2(x)) for x >= 1. This is the paper's notation
/// `floor(log(b + 1 - a))` used to size covering-decomposition buckets.
inline uint32_t FloorLog2(uint64_t x) {
  SWS_DCHECK(x >= 1);
  return 63u - static_cast<uint32_t>(std::countl_zero(x));
}

/// ceil(log2(x)) for x >= 1.
inline uint32_t CeilLog2(uint64_t x) {
  SWS_DCHECK(x >= 1);
  return (x == 1) ? 0u : FloorLog2(x - 1) + 1u;
}

/// True iff x is a power of two (x >= 1).
inline bool IsPowerOfTwo(uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

/// 2^e as uint64_t, e < 64.
inline uint64_t Pow2(uint32_t e) {
  SWS_DCHECK(e < 64);
  return uint64_t{1} << e;
}

// --- SWAR (SIMD-within-a-register) byte tricks -----------------------------
//
// The ingestion hot loops (stream/driver.h, stream/driver.cc) process text
// eight bytes at a time: a word-wise scanner finds line breaks, a per-byte
// digit mask measures digit runs, and a multiply ladder folds up to eight
// ASCII digits at once. Everything below is plain uint64_t arithmetic —
// portable, no intrinsics — but the byte-order-sensitive helpers are only
// used behind std::endian checks.

/// The byte `b` replicated into all eight lanes.
inline constexpr uint64_t RepeatByte(uint8_t b) {
  return 0x0101010101010101ULL * b;
}

/// Nonzero iff `v` contains a zero byte. Marked lanes carry 0x80; a false
/// positive can only appear ABOVE (more significant than) the first true
/// zero byte, because the borrow that causes it must originate at one, so
/// the LOWEST set bit always marks the first zero byte.
inline constexpr uint64_t ZeroByteMask(uint64_t v) {
  return (v - RepeatByte(0x01)) & ~v & RepeatByte(0x80);
}

/// First occurrence of '\n' or '\0' in [p, end), or `end` if absent.
/// Word-at-a-time on little-endian hosts, byte-wise otherwise.
inline const char* FindNewlineOrNul(const char* p, const char* end) {
  if constexpr (std::endian::native == std::endian::little) {
    while (end - p >= 8) {
      uint64_t word;
      __builtin_memcpy(&word, p, 8);
      const uint64_t hit =
          ZeroByteMask(word) | ZeroByteMask(word ^ RepeatByte('\n'));
      // Spurious marks sit above each mask's first true hit, so the lowest
      // set bit of the union is the first byte equal to either target.
      if (hit != 0) {
        return p + (static_cast<unsigned>(std::countr_zero(hit)) >> 3);
      }
      p += 8;
    }
  }
  for (; p != end; ++p) {
    if (*p == '\n' || *p == '\0') return p;
  }
  return end;
}

/// 0x80 in every lane of `chunk` whose byte is not an ASCII digit
/// '0'..'9', 0 in the others. Exact per lane: neither sum below carries
/// out of its lane, so for a little-endian-loaded chunk
/// `countr_zero(mask) >> 3` is the length of its leading digit run (8
/// when all eight bytes are digits).
inline constexpr uint64_t NonDigitMask(uint64_t chunk) {
  const uint64_t low7 = chunk & RepeatByte(0x7F);
  // low7 + 0x46 sets a lane's top bit iff low7 >= ':', and low7 + 0x50
  // iff low7 >= '0'; bytes >= 0x80 carry their own top bit.
  return (chunk | (low7 + RepeatByte(0x46)) | ~(low7 + RepeatByte(0x50))) &
         RepeatByte(0x80);
}

/// Decimal value of eight ASCII digits loaded little-endian (lowest byte =
/// leftmost digit). Three multiply-mask steps fold 8 lanes -> 4 -> 2 -> 1.
inline constexpr uint32_t ParseEightDigits(uint64_t chunk) {
  constexpr uint64_t kMask = 0x000000FF000000FF;
  constexpr uint64_t kMul1 = 100 + (1000000ULL << 32);
  constexpr uint64_t kMul2 = 1 + (10000ULL << 32);
  chunk -= RepeatByte('0');
  chunk = (chunk * 10) + (chunk >> 8);  // pairs of digits per 16-bit lane
  chunk = (((chunk & kMask) * kMul1) + (((chunk >> 16) & kMask) * kMul2)) >>
          32;
  return static_cast<uint32_t>(chunk);
}

/// Decimal value of the first `n` (1..8) ASCII digits of a
/// little-endian-loaded chunk; the bytes after them are ignored. The
/// digits are shifted into the top lanes and the lanes below padded with
/// '0', so one ParseEightDigits ladder folds any width.
inline uint32_t ParseDigits(uint64_t chunk, uint32_t n) {
  SWS_DCHECK(n >= 1 && n <= 8);
  const uint32_t shift = 64 - 8 * n;
  return ParseEightDigits((chunk << shift) |
                          (RepeatByte('0') & ((uint64_t{1} << shift) - 1)));
}

}  // namespace swsample

#endif  // SWSAMPLE_UTIL_BITS_H_
