// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Owned, uninitialized heap buffers and the power-of-two ring deque used
// by the hot-path window state (covering decompositions, exponential
// histograms, exact window buffers). The samplers' steady state holds
// O(polylog n) words; these containers allocate only on capacity growth
// (geometric, so O(log final-size) allocations over a run) and keep their
// buffer on clear().
//
// Ownership rule (see ARCHITECTURE.md "Owned window state"):
//  * A container owns exactly one buffer per array it keeps, sized to its
//    current capacity. Growth allocates the larger buffer, copies the live
//    elements and frees the old one, so nothing outgrown stays alive and
//    ReservedBytes() is exactly capacity x element size.
//  * Buffers are neither constructed nor zero-filled: elements are
//    trivially copyable and every slot is written before it is read.
//  * Moving a container moves its buffer and leaves the source empty (no
//    capacity), ready for reuse.

#ifndef SWSAMPLE_UTIL_RING_DEQUE_H_
#define SWSAMPLE_UTIL_RING_DEQUE_H_

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "util/macros.h"

namespace swsample {

/// Frees a buffer obtained from AllocateUninit.
struct UninitDelete {
  void operator()(void* p) const { ::operator delete(p); }
};

/// Owned heap array whose elements were never constructed.
template <typename T>
using UninitArray = std::unique_ptr<T[], UninitDelete>;

/// Allocates room for `count` trivially copyable T without constructing
/// or zero-filling them (the caller writes each slot before reading it).
template <typename T>
UninitArray<T> AllocateUninit(size_t count) {
  static_assert(std::is_trivially_copyable_v<T>,
                "uninitialized buffers hold trivially copyable elements");
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  return UninitArray<T>(static_cast<T*>(::operator new(count * sizeof(T))));
}

/// Fixed-stride double-ended queue over one owned power-of-two ring:
/// push/pop at both ends are O(1) with zero allocation until the ring
/// grows, clear() keeps the capacity, and the storage is contiguous
/// modulo one wrap point (index math is a mask, not a deque's two-level
/// pointer chase). Replaces std::deque for the bucket lists and window
/// buffers; requires trivially copyable elements so growth is a pair of
/// memcpys.
template <typename T>
class RingDeque {
  static_assert(std::is_trivially_copyable_v<T>,
                "RingDeque moves elements with memcpy");

 public:
  RingDeque() = default;
  RingDeque(RingDeque&& other) noexcept
      : data_(std::move(other.data_)),
        cap_(std::exchange(other.cap_, 0)),
        head_(std::exchange(other.head_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  RingDeque& operator=(RingDeque&& other) noexcept {
    data_ = std::move(other.data_);
    cap_ = std::exchange(other.cap_, 0);
    head_ = std::exchange(other.head_, 0);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }
  RingDeque(const RingDeque&) = delete;
  RingDeque& operator=(const RingDeque&) = delete;

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  T& operator[](size_t i) {
    SWS_DCHECK(i < size_);
    return data_[(head_ + i) & mask()];
  }
  const T& operator[](size_t i) const {
    SWS_DCHECK(i < size_);
    return data_[(head_ + i) & mask()];
  }

  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  void push_back(const T& value) {
    if (size_ == cap_) Grow(size_ + 1);
    data_[(head_ + size_) & mask()] = value;
    ++size_;
  }

  void push_front(const T& value) {
    if (size_ == cap_) Grow(size_ + 1);
    head_ = (head_ + cap_ - 1) & mask();
    data_[head_] = value;
    ++size_;
  }

  void pop_front() {
    SWS_DCHECK(size_ > 0);
    head_ = (head_ + 1) & mask();
    --size_;
  }

  void pop_back() {
    SWS_DCHECK(size_ > 0);
    --size_;
  }

  /// Drops the `count` oldest elements in O(1).
  void pop_front_n(size_t count) {
    SWS_DCHECK(count <= size_);
    head_ = (head_ + count) & mask();
    size_ -= count;
  }

  /// Drops the `count` newest elements in O(1).
  void pop_back_n(size_t count) {
    SWS_DCHECK(count <= size_);
    size_ -= count;
  }

  /// Order-preserving erase of element `i`, shifting whichever side is
  /// smaller (O(min(i, size - i)) element copies).
  void EraseAt(size_t i) {
    SWS_DCHECK(i < size_);
    if (i < size_ - 1 - i) {
      for (size_t j = i; j > 0; --j) (*this)[j] = (*this)[j - 1];
      pop_front();
    } else {
      for (size_t j = i; j + 1 < size_; ++j) (*this)[j] = (*this)[j + 1];
      pop_back();
    }
  }

  /// Forgets every element but keeps the ring.
  void clear() {
    head_ = 0;
    size_ = 0;
  }

  /// Ensures capacity for `n` elements without changing contents.
  void reserve(size_t n) {
    if (n > cap_) Grow(n);
  }

  size_t capacity() const { return cap_; }

  /// Heap bytes the ring holds (capacity, not live elements) — the
  /// retained-memory quantity budget enforcement charges.
  size_t ReservedBytes() const { return cap_ * sizeof(T); }

 private:
  size_t mask() const { return cap_ - 1; }

  void Grow(size_t need) {
    size_t new_cap = cap_ == 0 ? 8 : cap_ * 2;
    while (new_cap < need) new_cap *= 2;
    UninitArray<T> fresh = AllocateUninit<T>(new_cap);
    if (size_ > 0) {
      // Linearize [head_, head_ + size_) into the new ring.
      const size_t first = std::min(size_, cap_ - head_);
      std::memcpy(fresh.get(), data_.get() + head_, first * sizeof(T));
      std::memcpy(fresh.get() + first, data_.get(),
                  (size_ - first) * sizeof(T));
    }
    data_ = std::move(fresh);
    cap_ = new_cap;
    head_ = 0;
  }

  UninitArray<T> data_;
  size_t cap_ = 0;   // power of two (or 0)
  size_t head_ = 0;  // index of the oldest element
  size_t size_ = 0;
};

}  // namespace swsample

#endif  // SWSAMPLE_UTIL_RING_DEQUE_H_
