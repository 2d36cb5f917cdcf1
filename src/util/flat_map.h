// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Cache-friendly open-addressing hash map for the hot paths that were
// paying std::unordered_map node churn (per-candidate payload state in
// apps/ts_payload.h, value histograms in stats/exact.*). Keys are hashed
// through the SplitMix64 finalizer, probing is linear over a power-of-two
// table (one cache line resolves most lookups), and erase uses
// backward-shift deletion so the table never accumulates tombstones.
//
// Invariants (see ARCHITECTURE.md "Performance"):
//  * capacity is a power of two; load factor is kept <= 3/4;
//  * every element is reachable from its home slot by a linear probe with
//    no empty slot in between (the invariant Knuth-style backward-shift
//    deletion restores after every Erase, so no tombstones ever exist);
//  * the table owns one slot array and one occupancy array, freed when
//    the table grows (util/ring_deque.h ownership rule); Clear() keeps
//    them, so steady-state use allocates only when the table grows.

#ifndef SWSAMPLE_UTIL_FLAT_MAP_H_
#define SWSAMPLE_UTIL_FLAT_MAP_H_

#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>

#include "util/macros.h"
#include "util/ring_deque.h"

namespace swsample {

/// SplitMix64 finalizer: a fast, well-mixing 64-bit hash (every input bit
/// affects every output bit).
inline uint64_t SplitMix64Hash(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Open-addressing hash map from a 64-bit-convertible key to a trivially
/// copyable V (the estimator payloads are PODs; triviality is what lets
/// the table live in uninitialized memory and rehash with plain stores).
/// Not thread-safe. Iteration order is unspecified (serialize sorted).
template <typename K, typename V>
class FlatMap {
  static_assert(std::is_integral_v<K> || std::is_enum_v<K>,
                "FlatMap keys must be integral (hashed via SplitMix64)");
  static_assert(std::is_trivially_copyable_v<V>,
                "FlatMap values live in uninitialized memory");

 public:
  FlatMap() = default;
  FlatMap(FlatMap&& other) noexcept
      : slots_(std::move(other.slots_)),
        full_(std::move(other.full_)),
        cap_(std::exchange(other.cap_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  FlatMap& operator=(FlatMap&& other) noexcept {
    slots_ = std::move(other.slots_);
    full_ = std::move(other.full_);
    cap_ = std::exchange(other.cap_, 0);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }
  FlatMap(const FlatMap&) = delete;
  FlatMap& operator=(const FlatMap&) = delete;

  uint64_t Size() const { return size_; }
  bool Empty() const { return size_ == 0; }
  uint64_t Capacity() const { return cap_; }

  /// Heap bytes the table holds (slots plus occupancy flags) — what
  /// budget enforcement charges for this map.
  uint64_t ReservedBytes() const { return cap_ * (sizeof(Slot) + 1); }

  /// Pointer to the mapped value, or nullptr.
  V* Find(K key) {
    if (size_ == 0) return nullptr;
    for (uint64_t i = Home(key);; i = (i + 1) & Mask()) {
      if (!full_[i]) return nullptr;
      if (slots_[i].key == key) return &slots_[i].value;
    }
  }
  const V* Find(K key) const {
    return const_cast<FlatMap*>(this)->Find(key);
  }

  bool Contains(K key) const { return Find(key) != nullptr; }

  /// Hints the cache that `key`'s home slot is about to be probed. Linear
  /// probing resolves most lookups within the home cache line, so one
  /// prefetch hides most of a subsequent Find/TryEmplace miss; callers
  /// pipelining a batch of lookups (the keyed engine's run demux) issue
  /// this a few iterations ahead. Safe at any time — a stale address
  /// after growth is only a wasted hint.
  void Prefetch(K key) const {
    if (cap_ == 0) return;
    const uint64_t i = Home(key);
    __builtin_prefetch(&full_[i]);
    __builtin_prefetch(&slots_[i]);
  }

  /// Inserts `(key, value)` if the key is absent. Returns {slot value
  /// pointer, inserted?} like std::unordered_map::try_emplace. A hit on
  /// an existing key never grows the table (so value pointers from prior
  /// lookups stay valid across read-mostly use).
  std::pair<V*, bool> TryEmplace(K key, const V& value) {
    if (cap_ != 0) {
      for (uint64_t i = Home(key);; i = (i + 1) & Mask()) {
        if (!full_[i]) break;
        if (slots_[i].key == key) return {&slots_[i].value, false};
      }
    }
    GrowIfNeeded(size_ + 1);  // key absent: grow (maybe), then insert
    for (uint64_t i = Home(key);; i = (i + 1) & Mask()) {
      if (!full_[i]) {
        full_[i] = 1;
        slots_[i].key = key;
        slots_[i].value = value;
        ++size_;
        return {&slots_[i].value, true};
      }
    }
  }

  /// Mapped value for `key`, default-constructed on first access.
  V& operator[](K key) { return *TryEmplace(key, V{}).first; }

  /// Removes `key` if present (backward-shift deletion, Knuth's Algorithm
  /// R: walk the rest of the cluster and pull back every element whose
  /// home lies at or before the hole, so no tombstone is left and probe
  /// sequences never decay). Returns true iff removed.
  bool Erase(K key) {
    if (size_ == 0) return false;
    uint64_t i = Home(key);
    for (;; i = (i + 1) & Mask()) {
      if (!full_[i]) return false;
      if (slots_[i].key == key) break;
    }
    uint64_t hole = i;
    for (uint64_t j = (hole + 1) & Mask(); full_[j]; j = (j + 1) & Mask()) {
      // The element at j stays iff its home lies cyclically in (hole, j]
      // — its probe path would not cross the hole. Otherwise it fills the
      // hole and leaves a new one at j.
      const uint64_t home = Home(slots_[j].key);
      if (((j - home) & Mask()) < ((j - hole) & Mask())) continue;
      slots_[hole] = slots_[j];
      hole = j;
    }
    full_[hole] = 0;
    --size_;
    return true;
  }

  /// Forgets every entry, keeping the table memory.
  void Clear() {
    if (cap_ != 0) std::memset(full_.get(), 0, cap_);
    size_ = 0;
  }

  /// Pre-sizes the table for `n` entries without rehash churn.
  void Reserve(uint64_t n) {
    if (n > 0) GrowIfNeeded(n);
  }

  /// Visits every (key, mapped value) pair; `fn(K, V&)`.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (uint64_t i = 0; i < cap_; ++i) {
      if (full_[i]) fn(slots_[i].key, slots_[i].value);
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint64_t i = 0; i < cap_; ++i) {
      if (full_[i]) {
        fn(slots_[i].key, static_cast<const V&>(slots_[i].value));
      }
    }
  }

 private:
  struct Slot {
    K key;
    V value;
  };

  uint64_t Mask() const { return cap_ - 1; }
  uint64_t Home(K key) const {
    return SplitMix64Hash(static_cast<uint64_t>(key)) & Mask();
  }

  void GrowIfNeeded(uint64_t need) {
    // Keep load <= 3/4 so linear probes stay short.
    if (cap_ != 0 && need * 4 <= cap_ * 3) return;
    uint64_t new_cap = cap_ == 0 ? 8 : cap_ * 2;
    while (need * 4 > new_cap * 3) new_cap *= 2;
    // The old arrays are freed when these go out of scope.
    UninitArray<Slot> old_slots =
        std::exchange(slots_, AllocateUninit<Slot>(new_cap));
    UninitArray<uint8_t> old_full =
        std::exchange(full_, AllocateUninit<uint8_t>(new_cap));
    std::memset(full_.get(), 0, new_cap);
    const uint64_t old_cap = std::exchange(cap_, new_cap);
    for (uint64_t i = 0; i < old_cap; ++i) {
      if (!old_full[i]) continue;
      for (uint64_t j = Home(old_slots[i].key);; j = (j + 1) & Mask()) {
        if (full_[j]) continue;
        full_[j] = 1;
        slots_[j] = old_slots[i];
        break;
      }
    }
  }

  UninitArray<Slot> slots_;
  UninitArray<uint8_t> full_;
  uint64_t cap_ = 0;  // power of two (or 0)
  uint64_t size_ = 0;
};

}  // namespace swsample

#endif  // SWSAMPLE_UTIL_FLAT_MAP_H_
