/// \file heap_hooks.cpp
/// Bookkeeping half of the heap-instrumentation layer (DESIGN.md §16): the
/// live-block table, retire emission with the deferred-drain path,
/// annotations, and stats. The allocator half (strong malloc/free
/// definitions) lives in interpose.cpp so that only opted-in targets pull
/// it in; this file is safe in every build, including sanitizers.
///
/// Reentrancy is the whole game here. The hooks run *inside* malloc and
/// free, and everything they touch — the block table, the pending queue,
/// engine emission — can itself allocate or free. Two thread-local guards
/// keep that sound:
///  - t_hook_depth (ours): any allocator event that arrives while a hook
///    is already running on this thread is internal bookkeeping traffic
///    (a table rehash, a queue growth, a sink spill buffer) and is
///    dropped before it can touch a lock the outer hook already holds.
///  - detail::in_reentry() (the engines'): set across every engine/
///    detector code path that may allocate, so machinery traffic is never
///    mistaken for program traffic even when no hook is on the stack.

#include "futrace/hook/heap_hooks.hpp"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "futrace/runtime/engine.hpp"
#include "futrace/runtime/shared_regions.hpp"
#include "futrace/support/reentry.hpp"

namespace futrace::hook {
namespace {

/// Nonzero while a hook is running on this thread (and inside
/// scoped_suppress): allocator events are internal, drop them at entry.
thread_local unsigned t_hook_depth = 0;

struct hook_guard {
  hook_guard() noexcept { ++t_hook_depth; }
  ~hook_guard() { --t_hook_depth; }
  hook_guard(const hook_guard&) = delete;
  hook_guard& operator=(const hook_guard&) = delete;
};

std::atomic<bool> g_enabled{false};

// Stats are plain relaxed atomics: concurrent writers, advisory readers.
std::atomic<std::uint64_t> g_blocks_registered{0};
std::atomic<std::uint64_t> g_blocks_retired{0};
std::atomic<std::uint64_t> g_hooked_bytes{0};
std::atomic<std::uint64_t> g_annotate_regions{0};
std::atomic<std::uint64_t> g_foreign_frees{0};
std::atomic<std::uint64_t> g_deferred_retires{0};

/// Live tracked blocks — the free-path fast gate: when zero and nothing
/// is pending or annotated, an interposed free is two relaxed loads.
std::atomic<std::size_t> g_live{0};
std::atomic<std::size_t> g_pending_count{0};
std::atomic<std::size_t> g_annot_count{0};

struct pending_retire {
  std::uintptr_t base = 0;
  std::size_t bytes = 0;
};

struct hook_state {
  std::mutex mu;
  /// Retires whose free ran in a context that must not emit (engine
  /// machinery, no runtime on the thread); drained before the next
  /// registration from a valid context.
  std::vector<pending_retire> pending;
  /// Live annotations: base -> extent, so annotate_end and the implicit
  /// end-on-free know how many bytes to retire.
  std::unordered_map<std::uintptr_t, std::size_t> annotations;
};

hook_state& state() {
  // Intentionally leaked: interposed frees keep arriving through static
  // destruction (other TUs' destructors run after ours would have), and
  // they must find live state.
  static hook_state* s = new hook_state();
  return *s;
}

/// True when this thread may emit events into the instrumented stream:
/// a runtime is active, instrumentation is armed, and we are not inside
/// engine/detector machinery.
bool valid_emission_context() noexcept {
  if (detail::in_reentry()) return false;
  const detail::context& c = detail::ctx();
  return c.instrument && c.eng != nullptr;
}

/// Emits the retire for [base, base+bytes) if this thread may, else
/// queues it for the next registration from a valid context. Caller holds
/// a hook_guard and no locks.
void emit_or_defer_retire(const void* base, std::size_t bytes) noexcept {
  if (valid_emission_context()) {
    // A retire can never report a race, so nothing meaningful propagates
    // from here — and letting anything escape an allocator hook would
    // terminate the process.
    try {
      detail::ctx().eng->note_region_retired(base, bytes);
    } catch (...) {
    }
    return;
  }
  hook_state& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  try {
    st.pending.push_back(
        {reinterpret_cast<std::uintptr_t>(base), bytes});
    g_pending_count.store(st.pending.size(), std::memory_order_relaxed);
    g_deferred_retires.fetch_add(1, std::memory_order_relaxed);
  } catch (...) {
    // Queue growth failed: the identity stays stale for this run. The
    // never-forget policy this layer punches through is merely restored
    // for one block — a possible false race, never a crash.
  }
}

/// Drains queued retires into the current (valid) emission context.
/// Ordering is sound: the drain runs *before* the caller registers its
/// new block, so any instrumented reuse of a queued address observes the
/// retire ahead of the new block's first access in this task's stream.
void drain_pending_retires() noexcept {
  if (g_pending_count.load(std::memory_order_relaxed) == 0) return;
  std::vector<pending_retire> batch;
  {
    hook_state& st = state();
    std::lock_guard<std::mutex> lock(st.mu);
    batch.swap(st.pending);
    g_pending_count.store(0, std::memory_order_relaxed);
  }
  detail::engine* eng = detail::ctx().eng;
  for (const pending_retire& p : batch) {
    try {
      eng->note_region_retired(reinterpret_cast<const void*>(p.base),
                               p.bytes);
    } catch (...) {
    }
  }
}

/// Ends every annotation whose base lies inside the freed extent (the
/// implicit end-on-free path). Caller holds a hook_guard.
void end_annotations_in(std::uintptr_t lo, std::uintptr_t hi) noexcept {
  if (g_annot_count.load(std::memory_order_relaxed) == 0) return;
  hook_state& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  for (auto it = st.annotations.begin(); it != st.annotations.end();) {
    if (it->first >= lo && it->first < hi) {
      detail::unregister_shared_region(
          reinterpret_cast<const void*>(it->first));
      it = st.annotations.erase(it);
    } else {
      ++it;
    }
  }
  g_annot_count.store(st.annotations.size(), std::memory_order_relaxed);
}

}  // namespace

void set_heap_instrumentation(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool heap_instrumentation() noexcept {
  return g_enabled.load(std::memory_order_relaxed);
}

// Weak fallback: the interposition TU (interpose.cpp) carries the strong
// `return true` definition; when it is not linked — or compiled out under
// FUTRACE_SANITIZE — this one answers.
__attribute__((weak)) bool interposition_active() noexcept { return false; }

heap_stats stats() noexcept {
  heap_stats s;
  s.blocks_registered = g_blocks_registered.load(std::memory_order_relaxed);
  s.blocks_retired = g_blocks_retired.load(std::memory_order_relaxed);
  s.hooked_bytes = g_hooked_bytes.load(std::memory_order_relaxed);
  s.annotate_regions = g_annotate_regions.load(std::memory_order_relaxed);
  s.foreign_frees = g_foreign_frees.load(std::memory_order_relaxed);
  s.deferred_retires = g_deferred_retires.load(std::memory_order_relaxed);
  return s;
}

std::size_t live_blocks() noexcept {
  return g_live.load(std::memory_order_relaxed);
}

void reset() noexcept {
  g_enabled.store(false, std::memory_order_relaxed);
  hook_guard guard;
  {
    hook_state& st = state();
    std::lock_guard<std::mutex> lock(st.mu);
    st.pending.clear();
    for (const auto& [base, bytes] : st.annotations) {
      (void)bytes;
      detail::unregister_shared_region(
          reinterpret_cast<const void*>(base));
    }
    st.annotations.clear();
    g_pending_count.store(0, std::memory_order_relaxed);
    g_annot_count.store(0, std::memory_order_relaxed);
  }
  detail::clear_heap_blocks();
  g_live.store(0, std::memory_order_relaxed);
  g_blocks_registered.store(0, std::memory_order_relaxed);
  g_blocks_retired.store(0, std::memory_order_relaxed);
  g_hooked_bytes.store(0, std::memory_order_relaxed);
  g_annotate_regions.store(0, std::memory_order_relaxed);
  g_foreign_frees.store(0, std::memory_order_relaxed);
  g_deferred_retires.store(0, std::memory_order_relaxed);
}

void note_alloc(void* ptr, std::size_t bytes) noexcept {
  if (ptr == nullptr || bytes == 0) return;
  if (t_hook_depth != 0) return;  // hook-internal allocation
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  hook_guard guard;
  // Track only allocations made by instrumented program code: machinery
  // traffic (reentry guard up) and off-runtime threads — including the
  // detector's checker threads — stay invisible.
  if (!valid_emission_context()) return;
  drain_pending_retires();
  if (detail::register_heap_block(ptr, bytes)) {
    g_live.fetch_add(1, std::memory_order_relaxed);
    g_blocks_registered.fetch_add(1, std::memory_order_relaxed);
    g_hooked_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
}

void note_free(void* ptr) noexcept {
  if (ptr == nullptr) return;
  if (t_hook_depth != 0) return;  // hook-internal free
  // Fast gate: nothing tracked, queued, or annotated — the common case
  // whenever instrumentation was never armed in this process.
  if (g_live.load(std::memory_order_relaxed) == 0 &&
      g_annot_count.load(std::memory_order_relaxed) == 0) {
    return;
  }
  hook_guard guard;
  // The erase is unconditional — even frees inside engine machinery (a
  // task frame destroying captured user state under a reentry guard) must
  // drop the table entry, or the address would still look live when the
  // allocator recycles it. Only the *emission* needs a valid context; an
  // invalid one queues the retire instead.
  const std::size_t bytes = detail::release_heap_block(ptr);
  if (bytes == 0) return;  // untracked: machinery block or pre-hook alloc
  const std::uintptr_t lo = reinterpret_cast<std::uintptr_t>(ptr);
  end_annotations_in(lo, lo + bytes);
  g_live.fetch_sub(1, std::memory_order_relaxed);
  g_blocks_retired.fetch_add(1, std::memory_order_relaxed);
  emit_or_defer_retire(ptr, bytes);
}

void note_realloc(void* old_ptr, void* new_ptr,
                  std::size_t bytes) noexcept {
  if (t_hook_depth != 0) return;
  if (old_ptr == nullptr) {
    note_alloc(new_ptr, bytes);
    return;
  }
  if (bytes == 0) {
    // realloc(p, 0): glibc frees p.
    note_free(old_ptr);
    return;
  }
  if (new_ptr == nullptr) return;  // failed realloc: old block untouched
  // Migration = retire + fresh registration, even in place: the language
  // model says the old object ended at the realloc, so its history must
  // not leak into accesses of the new one. A block first seen here (the
  // late-registration path: allocated before the layer was armed) simply
  // has nothing to retire.
  note_free(old_ptr);
  note_alloc(new_ptr, bytes);
}

scoped_suppress::scoped_suppress() noexcept { ++t_hook_depth; }
scoped_suppress::~scoped_suppress() { --t_hook_depth; }

bool annotate_region(const void* ptr, std::size_t bytes,
                     std::size_t stride) noexcept {
  if (ptr == nullptr || bytes == 0) return false;
  hook_guard guard;
  if (!detail::register_shared_region(ptr, bytes, stride)) return false;
  hook_state& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  try {
    st.annotations[reinterpret_cast<std::uintptr_t>(ptr)] = bytes;
  } catch (...) {
    // Geometry stands, the end-tracking entry does not: a later
    // annotate_end will count a foreign free and the extent stays until
    // the enclosing block is freed. Degraded, not broken.
  }
  g_annot_count.store(st.annotations.size(), std::memory_order_relaxed);
  g_annotate_regions.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool annotate_end(const void* ptr) noexcept {
  if (ptr == nullptr) return false;
  hook_guard guard;
  std::size_t bytes = 0;
  {
    hook_state& st = state();
    std::lock_guard<std::mutex> lock(st.mu);
    const auto it =
        st.annotations.find(reinterpret_cast<std::uintptr_t>(ptr));
    if (it != st.annotations.end()) {
      bytes = it->second;
      st.annotations.erase(it);
      g_annot_count.store(st.annotations.size(),
                          std::memory_order_relaxed);
    }
  }
  if (bytes == 0) {
    g_foreign_frees.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  detail::unregister_shared_region(ptr);
  emit_or_defer_retire(ptr, bytes);
  return true;
}

}  // namespace futrace::hook
