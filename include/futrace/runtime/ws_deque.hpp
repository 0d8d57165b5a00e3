#pragma once

/// \file ws_deque.hpp
/// Chase–Lev work-stealing deque (Chase & Lev, SPAA 2005), with the C11
/// memory-order discipline of Lê, Pop, Cohen & Zappa Nardelli (PPoPP 2013).
/// The owner pushes and pops at the bottom; thieves steal from the top.
/// A public, independently tested building block. The parallel engine does
/// not use it: a blocked wait there must pass over tasks it may not run,
/// which a deque that only exposes its two ends cannot offer.
///
/// T must be trivially copyable (elements are copied through atomics).

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "futrace/support/assert.hpp"

namespace futrace {

template <typename T>
class ws_deque {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  explicit ws_deque(std::int64_t initial_capacity = 64) {
    FUTRACE_CHECK_MSG((initial_capacity & (initial_capacity - 1)) == 0,
                      "capacity must be a power of two");
    auto ring = std::make_unique<buffer>(initial_capacity);
    buffer_.store(ring.get(), std::memory_order_relaxed);
    retired_.push_back(std::move(ring));
  }

  ws_deque(const ws_deque&) = delete;
  ws_deque& operator=(const ws_deque&) = delete;

  /// Owner-only: pushes an element at the bottom.
  void push(T value) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    buffer* buf = buffer_.load(std::memory_order_relaxed);
    if (b - t > buf->capacity - 1) {
      buf = grow(buf, t, b);
    }
    buf->put(b, value);
    std::atomic_thread_fence(std::memory_order_release);
    bottom_.store(b + 1, std::memory_order_relaxed);
  }

  /// Owner-only: pops the most recently pushed element, LIFO.
  std::optional<T> pop() {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    buffer* buf = buffer_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_relaxed);
    std::optional<T> result;
    if (t <= b) {
      result = buf->get(b);
      if (t == b) {
        // Last element: race with thieves via CAS on top.
        if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                          std::memory_order_relaxed)) {
          result.reset();  // a thief got it
        }
        bottom_.store(b + 1, std::memory_order_relaxed);
      }
    } else {
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return result;
  }

  /// Thief: steals the oldest element, FIFO. May spuriously return nullopt
  /// under contention (caller loops or moves to another victim).
  std::optional<T> steal() {
    std::int64_t t = top_.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_acquire);
    if (t < b) {
      buffer* buf = buffer_.load(std::memory_order_acquire);
      T value = buf->get(t);
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        return std::nullopt;
      }
      return value;
    }
    return std::nullopt;
  }

  /// Approximate size; exact only when quiescent.
  std::int64_t size_estimate() const {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_relaxed);
    return b > t ? b - t : 0;
  }

  bool empty_estimate() const { return size_estimate() == 0; }

 private:
  struct buffer {
    explicit buffer(std::int64_t cap)
        : capacity(cap), mask(cap - 1),
          slots(std::make_unique<std::atomic<T>[]>(cap)) {}

    T get(std::int64_t i) const {
      return slots[i & mask].load(std::memory_order_relaxed);
    }
    void put(std::int64_t i, T v) {
      slots[i & mask].store(v, std::memory_order_relaxed);
    }

    const std::int64_t capacity;
    const std::int64_t mask;
    std::unique_ptr<std::atomic<T>[]> slots;
  };

  buffer* grow(buffer* old, std::int64_t t, std::int64_t b) {
    auto bigger = std::make_unique<buffer>(old->capacity * 2);
    for (std::int64_t i = t; i < b; ++i) bigger->put(i, old->get(i));
    buffer* raw = bigger.get();
    buffer_.store(raw, std::memory_order_release);
    // The old buffer stays alive until destruction: concurrent thieves may
    // still hold a pointer to it.
    retired_.push_back(std::move(bigger));
    return raw;
  }

  alignas(64) std::atomic<std::int64_t> top_{0};
  alignas(64) std::atomic<std::int64_t> bottom_{0};
  alignas(64) std::atomic<buffer*> buffer_{nullptr};
  std::vector<std::unique_ptr<buffer>> retired_;  // owner-only mutation
};

}  // namespace futrace
