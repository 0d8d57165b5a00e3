#pragma once

/// \file ptr_map.hpp
/// Open-addressing hash map keyed by memory addresses, used for shadow
/// memory. One lookup happens on *every* instrumented read and write — the
/// dominant cost in the paper's slowdown numbers — so this avoids the
/// node allocations and pointer chasing of std::unordered_map. Linear
/// probing, power-of-two capacity, 0 as the empty-key sentinel (no valid
/// object lives at address 0).
///
/// The table is allocated at the first insertion, not at construction: an
/// empty map owns no memory. Most shadows never store a hashed cell (slabs
/// serve array accesses, and a pipelined producer's span shadow stores
/// none), and zero-filling a 1,024-slot table at construction and walking
/// it at destruction was most of what building and destroying a detector
/// cost (DESIGN.md §9).

#include <cstdint>
#include <utility>
#include <vector>

#include "futrace/support/assert.hpp"

namespace futrace::support {

template <typename V>
class ptr_map {
 public:
  /// `initial_capacity` sizes the first table (rounded up to a power of
  /// two, at least 16); nothing is allocated until the first insertion.
  explicit ptr_map(std::size_t initial_capacity = 1024) {
    std::size_t cap = 16;
    while (cap < initial_capacity) cap <<= 1;
    mask_ = cap - 1;  // the first table's, until there is one
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Returns the value for `key`, default-constructing it if absent.
  /// Grows at 50% load: linear probing stays near one probe (and with
  /// 32-byte slots the occasional second probe shares the cache line).
  V& operator[](const void* key) {
    const std::uintptr_t k = reinterpret_cast<std::uintptr_t>(key);
    FUTRACE_DCHECK(k != 0);
    if ((size_ + 1) * 2 > slots_.size()) grow();
    std::size_t i = index_of(k);
    while (slots_[i].key != 0) {
      if (slots_[i].key == k) return slots_[i].value;
      i = (i + 1) & mask_;
    }
    slots_[i].key = k;
    ++size_;
    return slots_[i].value;
  }

  /// Returns a pointer to the value for `key`, or nullptr if absent.
  V* find(const void* key) {
    if (size_ == 0) return nullptr;  // also covers "no table yet"
    const std::uintptr_t k = reinterpret_cast<std::uintptr_t>(key);
    std::size_t i = index_of(k);
    while (slots_[i].key != 0) {
      if (slots_[i].key == k) return &slots_[i].value;
      i = (i + 1) & mask_;
    }
    return nullptr;
  }

  const V* find(const void* key) const {
    return const_cast<ptr_map*>(this)->find(key);
  }

  /// Rehashes down to the smallest power-of-two table that still meets the
  /// 50% load target for the current size (floor 16 slots). Epoch
  /// compaction calls this after a workload's peak so the steady-state
  /// table footprint tracks the live entry count, not the high-water mark.
  /// A map with no table keeps none.
  void shrink() {
    std::size_t cap = 16;
    while (cap < (size_ + 1) * 2) cap <<= 1;
    if (cap < slots_.size()) rehash(cap);
  }

  /// Removes `key` if present; returns true iff an entry was removed.
  /// Backward-shift deletion keeps probe chains intact without tombstones:
  /// every entry after the hole that could have probed past it slides back.
  /// Vacated slots are reset to a default-constructed V so values holding
  /// raw resources (shadow cells' overflow pointers) are not left dangling
  /// in dead slots.
  bool erase(const void* key) {
    if (size_ == 0) return false;
    const std::uintptr_t k = reinterpret_cast<std::uintptr_t>(key);
    std::size_t i = index_of(k);
    while (slots_[i].key != k) {
      if (slots_[i].key == 0) return false;
      i = (i + 1) & mask_;
    }
    std::size_t hole = i;
    std::size_t j = (i + 1) & mask_;
    while (slots_[j].key != 0) {
      const std::size_t home = index_of(slots_[j].key);
      // Entry j may fill the hole iff the hole lies within j's probe
      // sequence, i.e. cyclic-distance(home → j) covers the hole.
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole].key = slots_[j].key;
        slots_[hole].value = std::move(slots_[j].value);
        hole = j;
      }
      j = (j + 1) & mask_;
    }
    slots_[hole].key = 0;
    slots_[hole].value = V{};
    --size_;
    return true;
  }

  /// Calls fn(key_as_void_ptr, value&) for every entry.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (auto& slot : slots_) {
      if (slot.key != 0) {
        fn(reinterpret_cast<const void*>(slot.key), slot.value);
      }
    }
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& slot : slots_) {
      if (slot.key != 0) {
        fn(reinterpret_cast<const void*>(slot.key), slot.value);
      }
    }
  }

  /// Approximate heap footprint of the table itself (not of heap memory the
  /// values may own); 0 before the first insertion.
  std::size_t table_bytes() const noexcept {
    return slots_.capacity() * sizeof(slot);
  }

  /// Footprint the table will have after one more insertion, accounting for
  /// the growth step the insert would trigger. Lets byte-capped owners
  /// (shadow memory under a resource limit) refuse the insert instead of
  /// committing to the enlarged table. Before the first insertion that is
  /// the first table.
  std::size_t bytes_after_insert() const noexcept {
    if (slots_.empty()) return (mask_ + 1) * sizeof(slot);
    if ((size_ + 1) * 2 <= slots_.size()) return table_bytes();
    const std::size_t grown =
        slots_.size() < (1u << 22) ? slots_.size() * 4 : slots_.size() * 2;
    return grown * sizeof(slot);
  }

 private:
  struct slot {
    std::uintptr_t key = 0;
    V value{};
  };

  std::size_t index_of(std::uintptr_t k) const noexcept {
    // splitmix64 finalizer as the hash; addresses share low-entropy bits.
    std::uint64_t z = k;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    return static_cast<std::size_t>(z) & mask_;
  }

  void grow() {
    if (slots_.empty()) {  // the first insertion
      slots_.resize(mask_ + 1);
      return;
    }
    // Quadruple while moderate: rehashing is a full zero+copy pass over a
    // table that no longer fits cache, so fewer, bigger growth steps win.
    rehash(slots_.size() < (1u << 22) ? slots_.size() * 4 : slots_.size() * 2);
  }

  void rehash(std::size_t new_capacity) {
    std::vector<slot> old = std::move(slots_);
    slots_.clear();
    slots_.resize(new_capacity);
    mask_ = slots_.size() - 1;
    size_ = 0;
    for (auto& s : old) {
      if (s.key == 0) continue;
      std::size_t i = index_of(s.key);
      while (slots_[i].key != 0) i = (i + 1) & mask_;
      slots_[i].key = s.key;
      slots_[i].value = std::move(s.value);
      ++size_;
    }
  }

  std::vector<slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace futrace::support
