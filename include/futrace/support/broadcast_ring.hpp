#pragma once

/// \file broadcast_ring.hpp
/// Bounded single-producer ring that every consumer reads in full, each
/// with its own head. The concurrent race detector (parallel_pipeline.hpp,
/// and the pipelined detector as its one-producer case) gives each
/// producer one of these: the producer writes every event once, and every
/// checker (plus, in shared-structure mode, the structure writer) reads the
/// whole stream and skips what it does not need. With one consumer it is
/// the classic single-producer single-consumer ring.
///
///   - Bounded, allocation-free after construction, and untouched at
///     construction: the slot array is allocated but never initialised.
///     Slots are trivially copyable and only published slots are ever
///     read, so construction cost and resident memory do not scale with
///     capacity — a page becomes resident when a flush first copies a slot
///     onto it. A full ring means backpressure (the producer spins),
///     never growth.
///   - A slot is overwritten only after every consumer has retired it: the
///     producer's free space is measured from the minimum head. Each head
///     has exactly one owner at any time — its consumer, or whichever
///     thread took it over (the detector hands a dead checker's head to
///     the producer, which moves its unread slots to a spill before they
///     would be overwritten). The ring does not know who owns a head; it
///     only requires that one thread at a time call the consumer side for
///     it.
///   - Staged publish from a private block: push() appends a slot to a
///     block of k_publish_batch slots that only the producer touches, and
///     flush() copies the staged run into the slot array in one burst, slot
///     by slot through the index mask, and publishes it with one release
///     store of the tail. A full block flushes itself. A producer must
///     flush before it waits for space (a consumer can only free slots it
///     can see) and when its stream ends. A consumer observes a whole batch
///     with one acquire load and retires it with one release store.
///   - No sharing beyond the indices. The tail and each head live on their
///     own cache lines, and each side keeps a cached copy of the opposite
///     index so the common case (space available / data available)
///     re-reads its own cache line only. The producer keeps its own copy of
///     the tail, caches the minimum head and re-reads the heads only when
///     its view looks full: a push touches the block and the producer's
///     line only, never the tail line the consumers poll nor, until a
///     flush, the slot lines they read.
///
/// Why a private block: writing each slot in place past the tail costs the
/// producer a store into a line the consumers are reading around, and that
/// store, not the checking behind it, bounded the pipelined detector on
/// cheap-to-check events (DESIGN.md §10, "Staged publish"). Why slot by
/// slot: two variable-length memcpy calls (one per side of the seam) cost a
/// one-slot flush about twice the in-place write; a plain loop of slot
/// copies does not.
///
/// Indices are free-running 64-bit counters masked on access, so fullness is
/// `tail - min(head) == capacity` with no reserved slot and no wraparound
/// ambiguity within any realistic execution. A slot's index is its position
/// in the producer's stream.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>

#include "futrace/support/assert.hpp"

namespace futrace::support {

template <typename T>
class broadcast_ring {
  static_assert(std::is_trivially_copyable_v<T>,
                "slots are never constructed: consumers read only slots "
                "the producer has written");

 public:
  /// Staged slots publish on their own once this many accumulate.
  static constexpr std::size_t k_publish_batch = 32;

  /// Capacity is rounded up to a power of two (minimum 2). The slot array
  /// is left uninitialised; the only other allocation is one cache line
  /// per consumer.
  broadcast_ring(std::size_t capacity, unsigned consumers)
      : consumers_(consumers) {
    FUTRACE_CHECK_MSG(consumers > 0, "broadcast_ring: no consumers");
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    slots_.reset(static_cast<T*>(
        ::operator new(cap * sizeof(T), std::align_val_t{alignof(T)})));
    mask_ = cap - 1;
    cursors_ = std::make_unique<cursor[]>(consumers);
  }

  broadcast_ring(const broadcast_ring&) = delete;
  broadcast_ring& operator=(const broadcast_ring&) = delete;

  std::size_t capacity() const noexcept { return mask_ + 1; }
  unsigned consumers() const noexcept { return consumers_; }

  // -- Producer side ---------------------------------------------------------

  /// Slots the producer may write right now; staged slots count as used.
  /// Refreshes the cached minimum head only when the cached view looks
  /// full, so a streaming producer pays no load of a consumer's line.
  std::size_t free_slots() noexcept {
    const std::uint64_t end = produced();
    if (end - min_head_cache_ >= capacity()) refresh_min_head();
    return capacity() - static_cast<std::size_t>(end - min_head_cache_);
  }

  /// Like free_slots(), but always refreshes the cached minimum head — for
  /// a producer spinning until the consumers free room. The lazy rule above
  /// only triggers on a completely-full view, so a stale view showing
  /// 0 < free < need would never refresh, and a wait for `need` slots would
  /// never observe the consumers' progress (a livelock, not just
  /// staleness).
  std::size_t free_slots_refresh() noexcept {
    refresh_min_head();
    return capacity() - static_cast<std::size_t>(produced() - min_head_cache_);
  }

  /// Stream position of the next push(): every slot pushed so far,
  /// published or staged.
  std::uint64_t produced() const noexcept { return published_ + staged_; }

  /// Appends `v` to the staged block; requires free_slots() != 0. It stays
  /// invisible to the consumers until the block holds k_publish_batch slots
  /// (this call then flushes it) or until flush().
  void push(const T& v) noexcept {
    FUTRACE_DCHECK(produced() - min_head_cache_ < capacity());
    block_[staged_] = v;
    if (++staged_ == k_publish_batch) flush();
  }

  /// Copies the staged block into the slot array, slot by slot through the
  /// mask, and publishes it with one release store (a consumer's matching
  /// acquire sees every slot fully written).
  void flush() noexcept {
    if (staged_ == 0) return;
    T* const slots = slots_.get();
    for (std::size_t i = 0; i < staged_; ++i) {
      slots[static_cast<std::size_t>(published_ + i) & mask_] = block_[i];
    }
    published_ += staged_;
    staged_ = 0;
    tail_.store(published_, std::memory_order_release);
  }

  // -- Consumer side (the owner of consumer c's head) ------------------------

  /// Slots consumer c may read. Refreshes its cached tail only when the
  /// cached view looks empty.
  std::size_t readable(unsigned c) noexcept {
    cursor& cur = cursors_[c];
    const std::uint64_t head = cur.head.load(std::memory_order_relaxed);
    if (cur.tail_cache == head) {
      cur.tail_cache = tail_.load(std::memory_order_acquire);
    }
    return static_cast<std::size_t>(cur.tail_cache - head);
  }

  /// Like readable(), but always refreshes the cached tail — for a
  /// consumer that wants everything published so far while its cached view
  /// is still nonempty (readable() would not refresh then).
  std::size_t readable_refresh(unsigned c) noexcept {
    cursor& cur = cursors_[c];
    const std::uint64_t head = cur.head.load(std::memory_order_relaxed);
    cur.tail_cache = tail_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(cur.tail_cache - head);
  }

  /// Stream position of consume_slot(c, 0).
  std::uint64_t position(unsigned c) const noexcept {
    return cursors_[c].head.load(std::memory_order_relaxed);
  }

  /// Consumer c's i-th readable slot. Valid for i < readable(c).
  const T& consume_slot(unsigned c, std::size_t i) const noexcept {
    return slots_.get()[static_cast<std::size_t>(position(c) + i) & mask_];
  }

  /// Retires consumer c's first `n` readable slots (release: the
  /// producer's matching acquire knows c is done with them).
  void pop(unsigned c, std::size_t n) noexcept {
    cursor& cur = cursors_[c];
    const std::uint64_t head = cur.head.load(std::memory_order_relaxed);
    FUTRACE_DCHECK(n <= cur.tail_cache - head);
    cur.head.store(head + n, std::memory_order_release);
  }

  /// Hands every slot consumer c can read now to `sink(position, slot)`,
  /// in stream order, then retires them; returns how many. For loops that
  /// take whatever is published in one sweep: a takeover of a dead
  /// consumer's head, or a consumer that buffers everything it reads.
  template <typename Sink>
  std::size_t drain(unsigned c, Sink&& sink) {
    const std::size_t n = readable_refresh(c);
    const std::uint64_t head = position(c);
    for (std::size_t i = 0; i < n; ++i) sink(head + i, consume_slot(c, i));
    if (n != 0) pop(c, n);
    return n;
  }

  /// Published slots the slowest consumer has not retired (diagnostic; the
  /// occupancy column of the pipelined bench). A snapshot: it reads every
  /// head, so the producer samples it rather than calling it per slot.
  std::size_t size_approx() const noexcept {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    std::uint64_t least = tail;
    for (unsigned c = 0; c < consumers_; ++c) {
      least = std::min(least,
                       cursors_[c].head.load(std::memory_order_relaxed));
    }
    return static_cast<std::size_t>(tail - least);
  }

 private:
  struct slot_free {
    void operator()(T* p) const noexcept {
      ::operator delete(p, std::align_val_t{alignof(T)});
    }
  };

  /// One consumer's head and its view of the tail, on its own cache line.
  struct alignas(64) cursor {
    std::atomic<std::uint64_t> head{0};
    std::uint64_t tail_cache = 0;
  };

  void refresh_min_head() noexcept {
    std::uint64_t least = cursors_[0].head.load(std::memory_order_acquire);
    for (unsigned c = 1; c < consumers_; ++c) {
      least = std::min(least,
                       cursors_[c].head.load(std::memory_order_acquire));
    }
    min_head_cache_ = least;
  }

  std::unique_ptr<T, slot_free> slots_;
  std::size_t mask_ = 0;
  unsigned consumers_ = 0;
  std::unique_ptr<cursor[]> cursors_;
  alignas(64) std::atomic<std::uint64_t> tail_{0};  // the consumers poll it
  // Producer-owned from here on.
  alignas(64) std::uint64_t published_ = 0;  // the producer's copy of tail_
  std::uint64_t min_head_cache_ = 0;         // its view of the heads
  std::size_t staged_ = 0;                   // slots in block_
  alignas(64) T block_[k_publish_batch];     // staged, not yet copied
};

}  // namespace futrace::support
