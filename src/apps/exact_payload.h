// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Exact-window oracle substrate for payload estimators. Buffers the whole
// active window (O(n) words — this is the ground-truth comparator, the
// estimator-layer analogue of the exact-seq / exact-ts samplers) and at
// query time draws uniform positions, replaying the arrivals after each
// sampled position to build its payload. Estimates produced over this
// substrate have exact sampling marginals and exact window sizes, which is
// what the benches sweep against the O(1)/O(log n) paper substrates.

#ifndef SWSAMPLE_APPS_EXACT_PAYLOAD_H_
#define SWSAMPLE_APPS_EXACT_PAYLOAD_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>

#include "stream/item.h"
#include "stream/item_serial.h"
#include "util/macros.h"
#include "util/ring_deque.h"
#include "util/rng.h"
#include "util/serial.h"

namespace swsample {

/// Full-window payload oracle over either window model.
template <typename Payload, typename OnSampledFn, typename OnArrivalFn>
class ExactPayloadOracle {
 public:
  /// Sequence model when `window_n` > 0 (last window_n arrivals active),
  /// else timestamp model with window length `window_t`.
  ExactPayloadOracle(uint64_t window_n, Timestamp window_t, uint64_t seed,
                     OnSampledFn on_sampled, OnArrivalFn on_arrival)
      : window_n_(window_n),
        window_t_(window_t),
        rng_(seed),
        on_sampled_(std::move(on_sampled)),
        on_arrival_(std::move(on_arrival)) {
    SWS_CHECK(window_n_ >= 1 || window_t_ >= 1);
  }

  void Observe(const Item& item) {
    if (window_n_ > 0) {
      buffer_.push_back(item);
      if (buffer_.size() > window_n_) buffer_.pop_front();
      return;
    }
    // Out-of-order contract (see StreamSink): regressed timestamps are
    // stored clamped to the clock, so the buffer stays non-decreasing and
    // front-only expiry stays exact.
    if (item.timestamp > now_) now_ = item.timestamp;
    buffer_.push_back(Item{item.value, item.index, now_});
    Expire(now_);
  }

  void ObserveBatch(std::span<const Item> items) {
    if (items.empty()) return;
    if (window_n_ > 0) {
      // Only the last window_n_ arrivals can survive the trim; skip the
      // doomed prefix so the ring never grows past the window (a 16k
      // batch into an 8-item window would otherwise pin ~pow2(16k) slots
      // forever and churn push/pop for nothing).
      if (items.size() >= window_n_) {
        buffer_.clear();
        items = items.subspan(items.size() - window_n_);
      }
      buffer_.reserve(
          std::min<size_t>(window_n_, buffer_.size() + items.size()));
      for (const Item& item : items) buffer_.push_back(item);
      while (buffer_.size() > window_n_) buffer_.pop_front();
    } else {
      buffer_.reserve(buffer_.size() + items.size());
      for (const Item& item : items) {
        // Same running-max clamp as Observe (out-of-order contract).
        if (item.timestamp > now_) now_ = item.timestamp;
        buffer_.push_back(Item{item.value, item.index, now_});
      }
      Expire(now_);
    }
  }

  void AdvanceTime(Timestamp now) {
    if (window_n_ == 0 && now > now_) {
      now_ = now;
      Expire(now_);
    }
  }

  /// Active window size (exact).
  uint64_t WindowSize() const { return buffer_.size(); }

  /// Draws one uniform window position with its exact forward payload.
  /// O(window) per draw — the oracle's price. Requires a non-empty window.
  std::pair<Item, Payload> Draw() {
    SWS_DCHECK(!buffer_.empty());
    const uint64_t pos = rng_.UniformIndex(buffer_.size());
    Payload payload = on_sampled_(buffer_[pos]);
    for (uint64_t j = pos + 1; j < buffer_.size(); ++j) {
      on_arrival_(payload, buffer_[j]);
    }
    return {buffer_[pos], std::move(payload)};
  }

  /// Live memory words: the buffered window.
  uint64_t MemoryWords() const { return buffer_.size() * kWordsPerItem + 2; }

  /// Heap bytes retained beyond the object footprint (the window ring's
  /// buffer).
  uint64_t RetainedBytes() const { return buffer_.ReservedBytes(); }

  /// Checkpointing: RNG + the buffered window (payloads are derived at
  /// query time, so none are persisted).
  void Save(BinaryWriter* w) const {
    SaveRngState(rng_, w);
    w->PutU64(buffer_.size());
    for (uint64_t i = 0; i < buffer_.size(); ++i) SaveItem(buffer_[i], w);
  }

  bool Load(BinaryReader* r) {
    uint64_t size = 0;
    if (!LoadRngState(r, &rng_) || !r->GetU64(&size) ||
        size > r->remaining() / 24 + 1 ||
        (window_n_ > 0 && size > window_n_)) {
      return false;
    }
    buffer_.clear();
    for (uint64_t i = 0; i < size; ++i) {
      Item item;
      // Arrival-ordered with consecutive indices and non-negative
      // timestamps (Expire()'s subtraction must not overflow).
      if (!LoadItem(r, &item) || item.timestamp < 0 ||
          (!buffer_.empty() &&
           (item.index != buffer_.back().index + 1 ||
            item.timestamp < buffer_.back().timestamp))) {
        return false;
      }
      buffer_.push_back(item);
    }
    // The clock is not persisted (it was implicit in the old format);
    // restore it from the newest buffered timestamp, which is what every
    // monotone pre-restore history would have left it at.
    now_ = buffer_.empty() ? 0 : buffer_.back().timestamp;
    return true;
  }

 private:
  void Expire(Timestamp now) {
    while (!buffer_.empty() && now - buffer_.front().timestamp >= window_t_) {
      buffer_.pop_front();
    }
  }

  uint64_t window_n_;
  Timestamp window_t_;
  Timestamp now_ = 0;  ///< clock high-water mark (timestamp model only)
  Rng rng_;
  OnSampledFn on_sampled_;
  OnArrivalFn on_arrival_;
  RingDeque<Item> buffer_;  // owned O(n) window ring, zero churn
};

}  // namespace swsample

#endif  // SWSAMPLE_APPS_EXACT_PAYLOAD_H_
