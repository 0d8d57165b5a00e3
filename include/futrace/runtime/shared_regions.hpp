#pragma once

/// \file shared_regions.hpp
/// Process-global registry of `shared_array` address ranges.
///
/// A `shared_array<T>` names a contiguous run of memory locations with a
/// fixed element stride. Registering that range lets shadow memory serve its
/// accesses from a direct-mapped slab — `(addr - base) >> log2(stride)` —
/// instead of hashing every access, which is the dominant cost in the
/// paper's slowdown numbers (§4.2).
///
/// The registry keeps the live ranges in a base-sorted vector (binary search
/// finds the two neighbours, the only ranges that can overlap a new one;
/// no per-node allocation) and publishes every change — one
/// registration or one removal — as a record in an append-only change log,
/// stamped with a sequence id. The version counter is the id of the newest
/// record. Shadow memory polls the version with one acquire load per access
/// and, when it moved, copies only the records it has not seen yet, so a
/// change costs every shadow instance O(changes) work, never a pass over
/// the live set. The log keeps at most about twice as many records as there
/// are live ranges; an instance that falls further behind (or was created
/// late) gets the whole live set once instead.
///
/// The registry records *live* ranges only. Shadow memory keeps any slab it
/// already built even after the range is unregistered — the same
/// never-forget policy the hashed table has for stale addresses, so address
/// reuse keeps its location identity within one execution. The heap
/// instrumentation layer (futrace/hook) punches through that policy
/// deliberately: a free() retires the block's shadow identity via the
/// engine's region-retire event, so a recycled address starts fresh.
///
/// Heap blocks registered by the allocator hooks live in a *side table* of
/// this registry, not the geometry vector: a malloc'd block has no element
/// stride (it is opaque until a `shared_array` or FUTRACE_ANNOTATE_REGION
/// names its geometry), it must be allowed to overlap a later geometry
/// registration over the same buffer, and tracking it must not publish a
/// change that every shadow instance then has to read.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace futrace::detail {

struct shared_region {
  std::uintptr_t base = 0;
  std::uintptr_t end = 0;     // one past the last byte
  std::uint32_t stride = 0;   // element size in bytes
  std::uint64_t seq = 0;      // id of the change record that registered it

  bool overlaps(const shared_region& o) const noexcept {
    return base < o.end && o.base < end;
  }
};

/// One published registry change. A removal carries the removed range.
struct shared_region_change {
  shared_region region;
  bool added = false;
};

/// Id of the newest change record; stored (release) under the registry
/// mutex after the record is appended, compared (acquire) by shadow memory
/// against the last id it consumed.
inline std::atomic<std::uint64_t> g_shared_region_version{1};

struct shared_region_registry_state {
  std::mutex mu;
  std::vector<shared_region> live;  // sorted by base, disjoint
  /// Records with ids (log_floor, log_floor + log.size()], oldest first.
  std::vector<shared_region_change> log;
  std::uint64_t log_floor = 1;
};

inline shared_region_registry_state& shared_region_state() {
  static shared_region_registry_state s;
  return s;
}

/// The first live range whose base is not below `base`.
inline std::vector<shared_region>::iterator live_region_at(
    shared_region_registry_state& st, std::uintptr_t base) {
  return std::lower_bound(
      st.live.begin(), st.live.end(), base,
      [](const shared_region& r, std::uintptr_t key) { return r.base < key; });
}

/// Appends `c` as the next change record and publishes its id. Caller holds
/// the mutex and has already applied the change to `live`; an added
/// region's `seq` is this record's id, a removed one keeps the id of its
/// registration. If the log cannot grow, it is dropped instead: every
/// reader then resynchronizes from the live set, which is already correct.
inline void publish_region_change(shared_region_registry_state& st,
                                  const shared_region_change& c) noexcept {
  const std::uint64_t seq = st.log_floor + st.log.size() + 1;
  try {
    st.log.push_back(c);
  } catch (...) {
    st.log.clear();
    st.log_floor = seq;
  }
  // Bounded history: the log keeps at least live + 32 records, so a reader
  // further behind skipped more records than the full copy it gets instead
  // costs. Dropping the older half at once keeps trimming O(1) amortized.
  if (st.log.size() > 2 * st.live.size() + 64) {
    const std::size_t drop = st.log.size() / 2;
    st.log.erase(st.log.begin(),
                 st.log.begin() + static_cast<std::ptrdiff_t>(drop));
    st.log_floor += drop;
  }
  g_shared_region_version.store(seq, std::memory_order_release);
}

/// Registers [base, base+bytes) with element size `stride`. Returns false —
/// and records nothing — when the range is empty, the stride does not fit
/// the record's 32-bit field (a silent truncation would hand shadow memory
/// a wrong geometry and corrupt canonicalization), overlaps a live range,
/// or the registry itself cannot allocate (registration is an optimization
/// hint; failure must never take the program down).
inline bool register_shared_region(const void* base, std::size_t bytes,
                                   std::size_t stride) noexcept {
  if (base == nullptr || bytes == 0 || stride == 0) return false;
  if (stride > 0xFFFFFFFFull) return false;
  shared_region r;
  r.base = reinterpret_cast<std::uintptr_t>(base);
  r.end = r.base + bytes;
  r.stride = static_cast<std::uint32_t>(stride);
  auto& st = shared_region_state();
  std::lock_guard<std::mutex> lock(st.mu);
  // Live ranges are disjoint, so only the neighbours can overlap.
  const auto next = live_region_at(st, r.base);
  if (next != st.live.end() && r.overlaps(*next)) return false;
  if (next != st.live.begin() && r.overlaps(*std::prev(next))) return false;
  r.seq = st.log_floor + st.log.size() + 1;
  try {
    st.live.insert(next, r);
  } catch (...) {
    return false;
  }
  publish_region_change(st, shared_region_change{r, true});
  return true;
}

/// Removes the live range starting at `base`. Returns true iff a range was
/// actually removed; false reports an absent base, so the free-hooks can
/// count a double-unregister or a foreign pointer instead of dropping it.
inline bool unregister_shared_region(const void* base) noexcept {
  if (base == nullptr) return false;
  const std::uintptr_t b = reinterpret_cast<std::uintptr_t>(base);
  auto& st = shared_region_state();
  std::lock_guard<std::mutex> lock(st.mu);
  const auto it = live_region_at(st, b);
  if (it == st.live.end() || it->base != b) return false;
  const shared_region r = *it;
  st.live.erase(it);
  publish_region_change(st, shared_region_change{r, false});
  return true;
}

inline std::uint64_t shared_region_version() noexcept {
  return g_shared_region_version.load(std::memory_order_acquire);
}

/// Copies into `out` (cleared first) every change published after id
/// `seen` and returns the id the copy is current to. When `seen` predates
/// the retained log, `out` instead holds one `added` record per live range,
/// in base order, and `*full` is set: the caller rebuilds its mirror.
inline std::uint64_t shared_region_changes_since(
    std::uint64_t seen, std::vector<shared_region_change>& out, bool* full) {
  out.clear();
  auto& st = shared_region_state();
  std::lock_guard<std::mutex> lock(st.mu);
  const std::uint64_t newest = st.log_floor + st.log.size();
  *full = seen < st.log_floor;
  if (*full) {
    out.reserve(st.live.size());
    for (const shared_region& r : st.live) out.push_back({r, true});
  } else {
    const auto first =
        st.log.begin() + static_cast<std::ptrdiff_t>(seen - st.log_floor);
    out.assign(first, st.log.end());
  }
  return newest;
}

/// The live ranges in base order (tests and gauges; shadow memory reads
/// the change log instead).
inline std::vector<shared_region> shared_region_snapshot() {
  auto& st = shared_region_state();
  std::lock_guard<std::mutex> lock(st.mu);
  return st.live;
}

// -------------------------------------------------- heap-block side table
// Extents of live heap blocks registered by the allocator hooks
// (futrace/hook/heap_hooks.hpp). Kept apart from the geometry vector: see
// the file comment. The callers hold no lock across an engine emission, so
// every operation here is a single short critical section.

struct heap_block_table_state {
  std::mutex mu;
  std::unordered_map<std::uintptr_t, std::size_t> blocks;  // base -> bytes
};

inline heap_block_table_state& heap_block_state() {
  // Intentionally leaked: interposed frees keep arriving during static
  // destruction (other TUs' destructors run after this table's would
  // have), and they must find a live mutex and map.
  static heap_block_table_state* s = new heap_block_table_state();
  return *s;
}

/// Records a live heap block [base, base+bytes). Returns false on a null or
/// empty block, a duplicate base (allocator invariant violation — kept with
/// the original extent), or an allocation failure inside the table itself.
inline bool register_heap_block(const void* base, std::size_t bytes) noexcept {
  if (base == nullptr || bytes == 0) return false;
  auto& st = heap_block_state();
  std::lock_guard<std::mutex> lock(st.mu);
  try {
    return st.blocks.emplace(reinterpret_cast<std::uintptr_t>(base), bytes)
        .second;
  } catch (...) {
    return false;
  }
}

/// Removes the block starting at `base` and returns its byte length, or 0
/// when no such block is tracked (foreign pointer or double free).
inline std::size_t release_heap_block(const void* base) noexcept {
  if (base == nullptr) return 0;
  auto& st = heap_block_state();
  std::lock_guard<std::mutex> lock(st.mu);
  const auto it = st.blocks.find(reinterpret_cast<std::uintptr_t>(base));
  if (it == st.blocks.end()) return 0;
  const std::size_t bytes = it->second;
  st.blocks.erase(it);
  return bytes;
}

/// The tracked extent of the block at `base`, or 0 when untracked.
inline std::size_t heap_block_bytes(const void* base) noexcept {
  if (base == nullptr) return 0;
  auto& st = heap_block_state();
  std::lock_guard<std::mutex> lock(st.mu);
  const auto it = st.blocks.find(reinterpret_cast<std::uintptr_t>(base));
  return it == st.blocks.end() ? 0 : it->second;
}

/// Live tracked blocks (tests and the obs gauge).
inline std::size_t heap_block_count() noexcept {
  auto& st = heap_block_state();
  std::lock_guard<std::mutex> lock(st.mu);
  return st.blocks.size();
}

/// Drops every tracked block (test isolation between runs).
inline void clear_heap_blocks() noexcept {
  auto& st = heap_block_state();
  std::lock_guard<std::mutex> lock(st.mu);
  st.blocks.clear();
}

}  // namespace futrace::detail
