#pragma once

/// \file reachability_graph.hpp
/// The dynamic task reachability graph (paper §4.1, Definition 1): the
/// compact, task-level encoding of computation-graph reachability that the
/// race detector queries on every shadow-memory check.
///
/// R = (N, D, L, P, A) where
///   N — one vertex per dynamic task,
///   D — disjoint sets of tasks connected by tree-join + continue edges
///       (union-find),
///   L — interval labels from the spawn-tree pre/post numbering, one label
///       per disjoint set (the label of the set member closest to the root),
///   P — per-set list of non-tree join predecessors,
///   A — per-set lowest significant ancestor (LSA): the nearest ancestor task
///       whose set has at least one incoming non-tree join edge.
///
/// The structure is driven by five events from the serial depth-first
/// execution (Algorithms 1–7) and answers PRECEDE queries (Algorithm 10).
/// PRECEDE(a, b) is only meaningful when invoked while task `b` is the
/// currently executing task and `a` executed (was spawned) earlier in the
/// depth-first order — exactly the shape of every query issued by the race
/// detector (Lemmas 5 and 6 of the paper).

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "futrace/dsr/epoch_map.hpp"
#include "futrace/dsr/labels.hpp"
#include "futrace/support/assert.hpp"
#include "futrace/support/small_vector.hpp"

namespace futrace::dsr {

/// Aggregate statistics, exposed for the Table 2 counters and the
/// micro/ablation benchmarks.
struct reachability_stats {
  std::uint64_t tasks_created = 0;
  std::uint64_t tree_joins = 0;      // merges (get-as-tree-join + IEF joins)
  std::uint64_t non_tree_joins = 0;  // the paper's #NTJoins
  std::uint64_t precede_queries = 0;
  std::uint64_t visit_steps = 0;      // path nodes examined across all queries
  std::uint64_t nt_edges_walked = 0;  // non-tree edges traversed
  std::uint64_t lsa_hops = 0;         // significant-ancestor chain hops
  std::uint64_t memo_hits = 0;        // PRECEDE answered from the memo table
  std::uint64_t memo_invalidations = 0;  // epoch bumps (switch/merge/nt-edge)
  std::uint64_t epoch_compactions = 0;   // successful try_compact() passes
  std::uint64_t tasks_retired = 0;       // vertices freed by compaction
  std::uint64_t label_comparisons = 0;   // interval subsumption tests
  std::uint64_t frontier_searches = 0;   // queries that needed visit()
};

/// Everything a race report needs to justify a PRECEDE verdict by hand
/// against the paper's Figure semantics: both tasks' own spawn-tree
/// intervals and set intervals at query time, whether a positive verdict
/// came from interval subsumption alone, and the non-tree join structure
/// the search touched — the edge chain that established reachability, or,
/// for a negative verdict (a race), the predecessor frontier that was
/// searched and failed.
struct precede_explanation {
  bool reachable = false;
  bool by_subsumption = false;  // positive from label subsumption, no walk
  interval_label a_label;       // a's own [pre,post] at query time
  interval_label b_label;       // b's own [pre,post] at query time
  bool a_terminated = false;    // false: post is a temporary id (render "*")
  bool b_terminated = false;
  interval_label a_set_label;   // interval of a's disjoint set
  interval_label b_set_label;   // interval of b's disjoint set
  /// When reachable through non-tree edges: the predecessor chain walked
  /// from b toward a, ending at the task whose set answered the query.
  /// When not reachable: every non-tree predecessor examined before the
  /// search gave up, deduplicated, in first-visit order.
  std::vector<task_id> frontier;
  std::uint64_t lsa_hops = 0;  // significant-ancestor chain hops scanned
};

class reachability_graph {
 public:
  reachability_graph();

  reachability_graph(const reachability_graph&) = delete;
  reachability_graph& operator=(const reachability_graph&) = delete;
  reachability_graph(reachability_graph&&) noexcept = default;
  reachability_graph& operator=(reachability_graph&&) noexcept = default;

  /// Caps the number of task vertices; 0 means unlimited. The graph never
  /// refuses a create_task itself — the owning detector checks at_capacity()
  /// before each spawn and degrades (stops tracking) instead of growing.
  void set_max_tasks(std::size_t n) noexcept { max_tasks_ = n; }

  /// True once the vertex count has reached the configured cap.
  bool at_capacity() const noexcept {
    return max_tasks_ != 0 && nodes_.size() >= max_tasks_;
  }

  /// Algorithm 1: creates the root (main) task. Must be the first call.
  task_id create_root();

  /// Algorithm 2: task `parent` spawns a new task. Returns the child's id.
  task_id create_task(task_id parent);

  /// Algorithm 3: task `t` terminated; finalize its set's postorder value.
  void on_terminate(task_id t);

  /// Algorithm 4: task `waiter` performed get() on completed task `target`.
  /// Returns true if the join was a tree join (sets merged), false if a
  /// non-tree join edge was recorded.
  bool on_get(task_id waiter, task_id target);

  /// Algorithm 6 (one iteration): at the end of a finish owned by `owner`,
  /// task `joined` (whose IEF just ended) merges into the owner's set.
  void on_finish_join(task_id owner, task_id joined);

  /// Algorithm 10: true iff every step of `a` that has already executed must
  /// precede the current step of `b`. `a == k_invalid_task` (no previous
  /// writer) returns true. Non-const: advances the query epoch and applies
  /// path compression.
  bool precedes(task_id a, task_id b);

  /// Re-runs PRECEDE(a, b) purely for diagnosis: the same traversal as
  /// precedes() (Algorithm 10), but records the structure it searched and
  /// touches neither the stats counters nor the memo table — calling it on
  /// the cold race-report path cannot perturb Table-2 counters or cached
  /// verdicts. Still non-const: find() keeps applying path halving.
  precede_explanation explain(task_id a, task_id b);

  /// Enables/disables PRECEDE memoization (on by default). Positive
  /// verdicts are cached per (a, querying task) — keyed on `a` itself, not
  /// its set, because the search prunes by a's own spawn preorder — and
  /// invalidated by a task switch (the key's b changed), a set union, or a
  /// non-tree edge insertion (conservative; both only add ordering).
  /// Negative verdicts are never cached — they can flip as the graph grows.
  void set_memo_enabled(bool enabled) noexcept { memo_enabled_ = enabled; }

  // -- Epoch compaction (service mode, DESIGN.md §12) ------------------------

  /// Attempts a quiescent-point compaction. `live` are the runtime ids of
  /// every non-terminated task (the root continuation chain at a spawn whose
  /// parent is the chain tip). Quiescence holds iff every vertex belongs to
  /// a set containing a live task — then every retired task's set label
  /// subsumes all future labels, so retired ids can be answered without
  /// their vertices. On success, retires all finalized vertices, installs
  /// run-length maps answering on_get/on_finish_join for retired ids, and
  /// returns true; otherwise leaves the graph untouched and returns false.
  ///
  /// Verdicts and the paper counters (tasks, #NTJoins, PRECEDE queries) are
  /// bit-identical with and without compaction; traversal diagnostics
  /// (visit_steps, lsa_hops, nt_edges_walked, memo_hits) may diverge.
  bool try_compact(std::span<const task_id> live);

  /// Translation installed by try_compact (identity before the first one).
  const epoch_id_map& id_map() const noexcept { return map_; }

  // -- Introspection (tests, benchmarks, DOT dumps) --------------------------

  /// Current vertex count: total tasks created minus retired vertices.
  std::size_t task_count() const noexcept { return nodes_.size(); }
  bool same_set(task_id a, task_id b) { return find(idx(a)) == find(idx(b)); }
  interval_label set_label(task_id t) { return nodes_[find(idx(t))].label; }
  task_id spawn_parent(task_id t) const {
    const task_id p = nodes_[idx(t)].spawn_parent;
    return p == k_invalid_task ? k_invalid_task : map_.to_id(p);
  }
  /// Retired tasks are by definition terminated.
  bool terminated(task_id t) const {
    const task_id i = map_.to_index(t);
    return i == k_invalid_task || nodes_[i].terminated;
  }

  /// The set's lowest significant ancestor, or k_invalid_task.
  task_id set_lsa(task_id t) {
    const task_id l = nodes_[find(idx(t))].lsa;
    return l == k_invalid_task ? k_invalid_task : map_.to_id(l);
  }

  /// Copy of the set's non-tree predecessor list (k_invalid_task entries
  /// stand for predecessors retired by compaction).
  std::vector<task_id> set_non_tree_predecessors(task_id t);

  /// True iff `ancestor`'s interval subsumes `descendant`'s in the spawn
  /// tree (uses per-task labels, not set labels).
  bool is_spawn_ancestor(task_id ancestor, task_id descendant) const {
    return nodes_[idx(ancestor)].own_label.subsumes(
        nodes_[idx(descendant)].own_label);
  }

  const reachability_stats& stats() const noexcept { return stats_; }

  /// Approximate heap footprint in bytes (for the baseline-comparison bench).
  std::size_t memory_bytes() const;

  /// GraphViz rendering of the reachability graph's current state: one node
  /// per disjoint set (labelled with its interval and members), non-tree
  /// predecessor edges, and dashed LSA pointers — the paper's Fig. 3 view.
  std::string to_dot();

  /// Number of entries in the non-tree predecessor side table, released
  /// lists included (a released list is reused before the table grows).
  std::size_t non_tree_lists() const noexcept { return nt_lists_.size(); }

 private:
  /// `node::nt` of a set with no non-tree predecessor.
  static constexpr std::uint32_t k_no_list = 0xFFFFFFFFu;

  // A task vertex. Trivially copyable, so growing nodes_ is a plain copy;
  // the set's non-tree predecessors live in nt_lists_ (DESIGN.md §9, "Task
  // vertices"). Wide members first, so the fields pack into 72 bytes.
  struct node {
    interval_label own_label;  // the task's own label, never updated by merges

    // Set metadata; authoritative only at the representative.
    interval_label label;
    std::uint32_t nt = k_no_list;  // index into nt_lists_, or k_no_list
    task_id lsa = k_invalid_task;

    // Query epoch stamps (avoid revisits inside one PRECEDE call).
    std::uint64_t path_epoch = 0;
    std::uint64_t lsa_scan_epoch = 0;

    task_id spawn_parent = k_invalid_task;  // immutable spawn-tree fact
    std::uint32_t uf_size = 1;  // union-find size, valid at representatives
    bool terminated = false;
  };
  static_assert(std::is_trivially_copyable_v<node> && sizeof(node) <= 72);

  // Non-tree predecessors of one set. Inline capacity sized from the Table 2
  // workload profile: stencil consumers hold up to 5 (Jacobi tile joins its
  // own tile + 4 neighbours, Smith-Waterman 3, Strassen combine 4), and set
  // merges concatenate two such lists transiently; 6 keeps the common
  // fan-ins off the heap (see bench/micro_dsr BM_PrecedeNtFanIn).
  using nt_list = support::small_vector<task_id, 6>;

  /// The non-tree predecessors of the set whose representative is `rep`.
  std::span<const task_id> non_tree_of(task_id rep) const {
    const std::uint32_t l = nodes_[rep].nt;
    if (l == k_no_list) return {};
    return {nt_lists_[l].data(), nt_lists_[l].size()};
  }
  /// Appends `p` to `rep`'s list unless present; true iff it was added.
  bool add_non_tree(task_id rep, task_id p);

  task_id find(task_id t);
  void merge(task_id ancestor_side, task_id descendant_side);
  bool visit(task_id a, task_id ra, task_id start);

  /// Runtime id -> storage index; the id must not be retired.
  task_id idx(task_id id) const {
    const task_id i = map_.to_index(id);
    FUTRACE_DCHECK(i != k_invalid_task);
    return i;
  }

  /// Storage index of the set a retired runtime id was merged into at its
  /// retirement (resolved through the current union-find on return).
  task_id retired_rep(task_id id);
  /// Same, for the retired id's spawn parent's set.
  task_id retired_parent_rep(task_id id);

  static task_id run_lookup(const std::vector<std::pair<task_id, task_id>>& m,
                            task_id id);

  // -- PRECEDE memo (direct-mapped, positive verdicts only) ------------------

  static constexpr std::size_t k_memo_slots = 1024;  // power of two

  struct memo_entry {
    task_id task = k_invalid_task;  // storage index of the queried a
    std::uint64_t epoch = 0;
  };

  void memo_invalidate() {
    ++memo_epoch_;
    ++stats_.memo_invalidations;
  }

  void memo_store(task_id a) {
    memo_[a & (k_memo_slots - 1)] = memo_entry{a, memo_epoch_};
  }

  // Union-find parent links live in their own dense array so find() touches
  // 4 bytes per hop instead of a full node (every PRECEDE query starts with
  // one or two finds; this is the hottest pointer chase in the detector).
  std::vector<task_id> uf_parent_;
  std::vector<node> nodes_;
  // Side table of non-tree predecessor lists, one per set that has any
  // (node::nt indexes it). Lists are never empty while in use; a merge that
  // appends one list to another releases the emptied one's index to
  // free_lists_ for the next set that gains an edge.
  std::vector<nt_list> nt_lists_;
  std::vector<std::uint32_t> free_lists_;
  label_allocator labels_;
  epoch_id_map map_;
  task_id next_id_ = 0;  // next runtime id (monotone; survives compaction)
  // Run-length maps for retired ids, rebuilt (and re-collapsed) at each
  // compaction: entry (first_id, live_id) covers runtime ids from first_id
  // up to the next entry. Values are runtime ids of live chain tasks whose
  // set the retired id (resp. its spawn parent) had merged into.
  std::vector<std::pair<task_id, task_id>> retired_set_of_;
  std::vector<std::pair<task_id, task_id>> retired_parent_set_of_;
  std::uint64_t query_epoch_ = 0;
  std::size_t max_tasks_ = 0;  // 0 = unlimited
  reachability_stats stats_;
  std::vector<memo_entry> memo_;
  task_id memo_task_ = k_invalid_task;  // the b the memo is valid for
  std::uint64_t memo_epoch_ = 1;
  bool memo_enabled_ = true;
};

}  // namespace futrace::dsr
