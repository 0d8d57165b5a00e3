#pragma once

/// \file precede_backend.hpp
/// Pluggable PRECEDE query backends (options::precede_backend /
/// --precede-backend={graph,depa,vc}).
///
/// Every backend shares the paper's reachability graph as the structural
/// core — Algorithm 4's tree/non-tree join classification, the retirement
/// maps, and explain() provenance all live there, which is what keeps
/// verdicts, race reports, and the paper counters (#NTJoins,
/// PrecedeQueries) bit-identical across backends. What a backend owns is
/// the *answer path* of the hot PRECEDE(a, b) query:
///
///   graph — delegates to reachability_graph::precedes verbatim (interval
///           subsumption + bounded frontier/LSA search + its own memo).
///   depa  — DePa-style fork-path labels (depa_labels.hpp) answer live
///           spawn-ancestor queries in O(min-label-length), and a
///           join-frontier overlay — an anchored union-find over the
///           paper's non-tree future edges — answers transitively joined
///           chains in O(α); everything else falls back to the graph
///           search. Labels are maintained at spawn/finish/get/put (a put
///           splits the fulfiller into a continuation child, which is just
///           another spawn) and freed at epoch retirement.
///   vc    — the vector-clock baseline promoted from vs_baselines: one
///           happens-before bitset per task, merged at spawn/get/finish;
///           queries are one bit test. The O(#tasks²) space cost is the
///           point of running it under identical instrumentation.
///
/// The base class owns the query counter (so PrecedeQueries is counted
/// identically regardless of backend) and a backend-agnostic positive memo
/// keyed on memo_key(a) — a key the backend promises is *stable*: for the
/// depa and vc backends a cached positive stays valid across set unions and
/// non-tree edge insertions (reachability to a fixed, still-running b only
/// grows), so the memo is invalidated only by a task switch or an epoch
/// compaction, unlike the graph's internal memo which every union
/// invalidates.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>

#include "futrace/dsr/reachability_graph.hpp"

namespace futrace::dsr {

enum class backend_kind : std::uint8_t { graph, depa, vector_clock };

inline const char* backend_kind_name(backend_kind k) noexcept {
  switch (k) {
    case backend_kind::graph:
      return "graph";
    case backend_kind::depa:
      return "depa";
    case backend_kind::vector_clock:
      return "vc";
  }
  return "?";
}

/// Parses "graph" / "depa" / "vc" (also "vector_clock"). Returns false on
/// anything else; *out is untouched then.
bool parse_backend_kind(std::string_view name, backend_kind* out) noexcept;

class precede_backend {
 public:
  explicit precede_backend(reachability_graph& graph) : graph_(graph) {}
  virtual ~precede_backend() = default;

  precede_backend(const precede_backend&) = delete;
  precede_backend& operator=(const precede_backend&) = delete;

  virtual backend_kind kind() const noexcept = 0;

  // -- structural event hooks (called by the detector after the graph event)
  virtual void on_root_created(task_id root) { (void)root; }
  /// `continuation` marks a promise-put split: the child is the parent's
  /// continuation identity. The graph does NOT order the (terminating)
  /// pre-split identity before its continuation until an explicit get edge
  /// appears, so backends must not infer ordering from this spawn edge the
  /// way they may for ordinary spawns (see the vc backend's taint bit).
  virtual void on_task_created(task_id parent, task_id child,
                               bool continuation) {
    (void)parent;
    (void)child;
    (void)continuation;
  }
  virtual void on_terminated(task_id t) { (void)t; }
  /// After graph.on_get(waiter, target); `tree_join` is its return value.
  virtual void on_get_joined(task_id waiter, task_id target, bool tree_join) {
    (void)waiter;
    (void)target;
    (void)tree_join;
  }
  virtual void on_finish_joined(task_id owner, task_id joined) {
    (void)owner;
    (void)joined;
  }
  /// After a successful graph.try_compact(): retire dead labels/clocks and
  /// re-key anything bound to storage indices.
  virtual void on_compacted() {}

  /// Algorithm 10 with this backend's answer path. Counts one query, then
  /// consults the backend-agnostic memo (if this backend opted in) before
  /// the virtual query. Queries always have b = the currently executing
  /// task, exactly like reachability_graph::precedes.
  bool precedes(task_id a, task_id b) {
    ++queries_;
    if (a == k_invalid_task) return true;
    if (use_memo_ && memo_enabled_) {
      if (b != memo_task_) {
        memo_task_ = b;
        ++memo_epoch_;
      }
      const std::uint64_t key = memo_key(a);
      if (key != k_no_memo_key) {
        memo_entry& e = memo_[key & (k_memo_slots - 1)];
        const std::uint64_t stamp = mutation_stamp();
        if (e.key == key && e.epoch == memo_epoch_ && e.stamp == stamp) {
          ++memo_hits_;
          return true;
        }
        if (query(a, b)) {
          e = memo_entry{key, memo_epoch_, stamp};
          return true;
        }
        return false;
      }
    }
    return query(a, b);
  }

  /// Mirrors options::enable_fastpath for the backend-level memo (the graph
  /// backend's internal memo is switched separately on the graph itself).
  void set_memo_enabled(bool enabled) noexcept { memo_enabled_ = enabled; }

  // -- Shared-structure (single-writer) read path ----------------------------
  //
  // In parallel-detect's shared-structure mode (DESIGN.md §15) one writer
  // thread owns the graph + backend and many shard checkers query it at
  // admitted positions: the writer is guaranteed quiescent while readers
  // run, but readers race EACH OTHER, so only state that queries never
  // mutate may be touched without a lock. query_shared() is that subset;
  // anything it cannot decide falls back to query_locked() under the
  // pipeline's structure mutex. Neither path counts into queries_/memo —
  // the attached detectors keep their own per-shard counts so the merged
  // PrecedeQueries stays bit-identical to serial.

  /// True when query_shared() can answer a useful fraction of queries
  /// lock-free. DePa labels are immutable once written, so the depa backend
  /// is the natural concurrent-read choice; the graph backend's query path
  /// mutates (path halving, visit epochs, its memo) and stays fully
  /// behind the lock.
  virtual bool concurrent_readable() const noexcept { return false; }

  /// Lock-free verdict attempt: +1 ordered, 0 not ordered, -1 undecided
  /// (caller must take the lock and use query_locked). Must only read state
  /// that query()/explain() never mutate.
  virtual int query_shared(task_id a, task_id b) const noexcept {
    (void)a;
    (void)b;
    return -1;
  }

  /// The full verdict with every mutating fast path available, bypassing
  /// the base memo and the query counter (the caller holds the structure
  /// mutex and does its own counting).
  bool query_locked(task_id a, task_id b) {
    return a == k_invalid_task ? true : query(a, b);
  }

  /// Folds this backend's query-layer counters into the graph's stats:
  /// overwrites precede_queries with the base count (identical across
  /// backends by construction), adds memo hits, and fills the
  /// backend-comparable label counters (label_bytes, label_comparisons,
  /// max_label_len, frontier_searches).
  virtual void merge_stats(reachability_stats& s) const {
    s.precede_queries = queries_;
    s.memo_hits += memo_hits_;
  }

  /// Approximate heap footprint of backend-owned state (labels, clocks,
  /// overlay), excluding the shared graph.
  virtual std::size_t memory_bytes() const { return 0; }

  std::uint64_t queries() const noexcept { return queries_; }
  std::uint64_t memo_hit_count() const noexcept { return memo_hits_; }

 protected:
  /// A stable memo key for vertex `a`, or k_no_memo_key to bypass the memo
  /// for this query. "Stable" means: while the same b keeps executing and
  /// mutation_stamp() is unchanged, a positive verdict cached under this
  /// key remains true — the backend's contract, exercised by the
  /// memo-after-union regression tests.
  virtual std::uint64_t memo_key(task_id a) {
    (void)a;
    return k_no_memo_key;
  }

  /// Bumps whenever cached positives could be invalidated wholesale (for
  /// depa/vc: epoch compactions only — unions and nt-edge insertions keep
  /// positives valid for a fixed live b).
  virtual std::uint64_t mutation_stamp() const { return 0; }

  /// The backend's verdict for PRECEDE(a, b); `a` is neither k_invalid_task
  /// nor memo-answered. Must equal reachability_graph::precedes(a, b).
  virtual bool query(task_id a, task_id b) = 0;

  static constexpr std::uint64_t k_no_memo_key = ~std::uint64_t{0};

  /// Derived constructors set this to opt into the base memo.
  bool use_memo_ = false;

  reachability_graph& graph_;

 private:
  static constexpr std::size_t k_memo_slots = 1024;  // power of two

  struct memo_entry {
    std::uint64_t key = k_no_memo_key;
    std::uint64_t epoch = 0;
    std::uint64_t stamp = 0;
  };

  std::uint64_t queries_ = 0;
  std::uint64_t memo_hits_ = 0;
  memo_entry memo_[k_memo_slots];
  task_id memo_task_ = k_invalid_task;
  std::uint64_t memo_epoch_ = 1;
  bool memo_enabled_ = true;
};

/// Constructs the backend selected by `kind` over `graph`. The graph must
/// outlive the backend.
std::unique_ptr<precede_backend> make_precede_backend(backend_kind kind,
                                                      reachability_graph& graph);

}  // namespace futrace::dsr
