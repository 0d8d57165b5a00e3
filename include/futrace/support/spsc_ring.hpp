#pragma once

/// \file spsc_ring.hpp
/// Bounded single-producer single-consumer ring buffer. The concurrent race
/// detector (parallel_pipeline.hpp, and the pipelined detector as its
/// one-producer case) streams fixed-size event slots from each producer to
/// each checker through one of these; the design goals are the classic
/// ones for that shape:
///
///   - Bounded, allocation-free after construction, and untouched at
///     construction: the slot array is allocated but never initialised.
///     Slots are trivially copyable and only published slots are ever
///     read, so construction cost and resident memory do not scale with
///     capacity — a page becomes resident when the producer first writes
///     a slot on it. A full ring means backpressure (the producer spins),
///     never growth.
///   - Staged publish: the producer writes slots in place past the tail and
///     stages them; one release store publishes the whole staged run when
///     it reaches k_publish_batch slots or when the producer calls flush().
///     A producer must flush before it waits for space (the consumer can
///     only free slots it can see) and when its stream ends. Slots staged
///     together become visible together, so a multi-slot record staged in
///     one call is never seen torn. The consumer observes a whole batch
///     with one acquire load and retires it with one release store.
///   - No sharing beyond the two indices. Head and tail live on their own
///     cache lines, and each side keeps a cached copy of the opposite index
///     so the common case (space available / data available) re-reads its
///     own cache line only. The staged count sits on the producer's line,
///     next to its cached head.
///
/// Indices are free-running 64-bit counters masked on access, so fullness is
/// `tail - head == capacity` with no reserved slot and no wraparound
/// ambiguity within any realistic execution.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>

#include "futrace/support/assert.hpp"

namespace futrace::support {

template <typename T>
class spsc_ring {
  static_assert(std::is_trivially_copyable_v<T>,
                "slots are never constructed: the consumer reads only slots "
                "the producer has written");

 public:
  /// Staged slots publish on their own once this many accumulate.
  static constexpr std::size_t k_publish_batch = 32;

  /// Capacity is rounded up to a power of two (minimum 2). The slot array
  /// is the only allocation this class ever performs, and it is left
  /// uninitialised.
  explicit spsc_ring(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    slots_.reset(static_cast<T*>(
        ::operator new(cap * sizeof(T), std::align_val_t{alignof(T)})));
    mask_ = cap - 1;
  }

  spsc_ring(const spsc_ring&) = delete;
  spsc_ring& operator=(const spsc_ring&) = delete;

  std::size_t capacity() const noexcept { return mask_ + 1; }

  // -- Producer side ---------------------------------------------------------

  /// Slots the producer may write right now; staged slots count as used.
  /// Refreshes the cached consumer index only when the cached view looks
  /// full, so a streaming producer pays no load of the consumer's line.
  std::size_t free_slots() noexcept {
    const std::uint64_t end = tail_.load(std::memory_order_relaxed) + staged_;
    if (end - head_cache_ >= capacity()) {
      head_cache_ = head_.load(std::memory_order_acquire);
    }
    return capacity() - static_cast<std::size_t>(end - head_cache_);
  }

  /// Like free_slots(), but always refreshes the cached consumer index —
  /// for a producer spinning until a multi-slot record fits. The lazy rule
  /// above only triggers on a completely-full view, so a stale view showing
  /// 0 < free < need would never refresh and the wait would never observe
  /// the consumer's progress (a livelock, not just staleness).
  std::size_t free_slots_refresh() noexcept {
    const std::uint64_t end = tail_.load(std::memory_order_relaxed) + staged_;
    head_cache_ = head_.load(std::memory_order_acquire);
    return capacity() - static_cast<std::size_t>(end - head_cache_);
  }

  /// The i-th writable slot past the staged run. Valid for
  /// i < free_slots(); its contents reach the consumer only once staged
  /// and published.
  T& produce_slot(std::size_t i) noexcept {
    const std::uint64_t end = tail_.load(std::memory_order_relaxed) + staged_;
    return slots_.get()[static_cast<std::size_t>(end + i) & mask_];
  }

  /// Appends the first `n` written slots to the staged run. They stay
  /// invisible to the consumer until the run reaches k_publish_batch slots
  /// (this call then publishes it) or until flush().
  void stage(std::size_t n) noexcept {
    FUTRACE_DCHECK(tail_.load(std::memory_order_relaxed) + staged_ + n -
                       head_cache_ <=
                   capacity());
    staged_ += n;
    if (staged_ >= k_publish_batch) flush();
  }

  /// Publishes the staged run with one release store (the consumer's
  /// matching acquire sees every staged slot fully written).
  void flush() noexcept {
    if (staged_ == 0) return;
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    tail_.store(tail + staged_, std::memory_order_release);
    staged_ = 0;
  }

  /// Stages the first `n` written slots and flushes: they, and everything
  /// staged before them, become visible now.
  void publish(std::size_t n) noexcept {
    stage(n);
    flush();
  }

  // -- Consumer side ---------------------------------------------------------

  /// Slots ready to read. Refreshes the cached producer index only when the
  /// cached view looks empty.
  std::size_t readable() noexcept {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (tail_cache_ == head) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
    }
    return static_cast<std::size_t>(tail_cache_ - head);
  }

  /// Like readable(), but always refreshes the cached producer index — for
  /// a consumer waiting on the remaining slots of a multi-slot event whose
  /// prefix is already visible (the cached view is nonempty, so readable()
  /// would never refresh and the wait would never observe progress).
  std::size_t readable_refresh() noexcept {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    tail_cache_ = tail_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(tail_cache_ - head);
  }

  /// The i-th readable slot. Valid for i < readable().
  const T& consume_slot(std::size_t i) const noexcept {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    return slots_.get()[static_cast<std::size_t>(head + i) & mask_];
  }

  /// Retires the first `n` readable slots (release: the producer's matching
  /// acquire knows it may overwrite them).
  void pop(std::size_t n) noexcept {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    FUTRACE_DCHECK(n <= tail_cache_ - head);
    head_.store(head + n, std::memory_order_release);
  }

  /// Published fill level (diagnostic; the occupancy column of the
  /// pipelined bench). Exact for the producer, a snapshot for anyone else.
  std::size_t size_approx() const noexcept {
    return static_cast<std::size_t>(tail_.load(std::memory_order_relaxed) -
                                    head_.load(std::memory_order_relaxed));
  }

 private:
  struct slot_free {
    void operator()(T* p) const noexcept {
      ::operator delete(p, std::align_val_t{alignof(T)});
    }
  };

  std::unique_ptr<T, slot_free> slots_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::uint64_t> head_{0};  // consumer-owned
  alignas(64) std::uint64_t tail_cache_ = 0;        // consumer's view of tail
  alignas(64) std::atomic<std::uint64_t> tail_{0};  // producer-owned
  alignas(64) std::uint64_t head_cache_ = 0;        // producer's view of head
  std::size_t staged_ = 0;  // written past tail, not yet published
};

}  // namespace futrace::support
