#include "futrace/dsr/precede_backend.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "futrace/dsr/depa_labels.hpp"
#include "futrace/dsr/labels.hpp"
#include "futrace/support/assert.hpp"

namespace futrace::dsr {

bool parse_backend_kind(std::string_view name, backend_kind* out) noexcept {
  if (name == "graph") {
    *out = backend_kind::graph;
    return true;
  }
  if (name == "depa") {
    *out = backend_kind::depa;
    return true;
  }
  if (name == "vc" || name == "vector_clock") {
    *out = backend_kind::vector_clock;
    return true;
  }
  return false;
}

namespace {

/// The default backend: every query is the paper's Algorithm 10 verbatim.
/// No base memo (the graph keeps its own memo, whose
/// invalidation-on-union behaviour the fastpath tests pin), no extra state.
class graph_backend final : public precede_backend {
 public:
  using precede_backend::precede_backend;

  backend_kind kind() const noexcept override { return backend_kind::graph; }

  void merge_stats(reachability_stats& s) const override {
    precede_backend::merge_stats(s);
    // Ordering state per vertex: the task's own interval plus its set's.
    s.label_bytes += graph_.task_count() * 2 * sizeof(interval_label);
    s.max_label_len = std::max<std::uint64_t>(s.max_label_len,
                                              sizeof(interval_label));
  }

 protected:
  bool query(task_id a, task_id b) override { return graph_.precedes(a, b); }
};

/// DePa-style backend: fork-path labels answer live spawn-ancestor queries
/// by byte-prefix, and a join-frontier overlay — an anchored union-find over
/// the get/finish join edges — answers transitively joined chains in O(α).
/// Everything else delegates to the graph search, which stays authoritative,
/// so verdicts are bit-identical by construction.
///
/// Overlay invariant: every member of a component fully precedes every
/// future step of the component's *anchor* (the one live task the component
/// was built under). At get/finish(W, T) with T terminated, comp(T) may
/// merge into comp(W) only when T is still its own component's anchor — a T
/// already absorbed into some other terminated task X's component must not
/// merge, since comp(T)'s members are only known to precede X, and X may be
/// parallel to W. The currently executing task is always its own
/// component's anchor (live tasks are never the absorbed side), which is
/// what makes the O(α) "same component" test answer PRECEDE(a, b)
/// positively: a's component's members all precede b's current step.
///
/// Prefix shortcut soundness: `a` live and path(a) a prefix of path(b)
/// means a is a paused spawn ancestor of the executing b, so every executed
/// step of a precedes b's current step; the graph agrees by set-label
/// subsumption (a live keeps its set label [pre(a), temporary-post], and
/// temporary posts decrease with spawn depth). The shortcut must NOT be
/// extended to terminated `a`: across a promise-put split the graph does
/// not order the dead pre-split identity before its continuation until an
/// explicit get edge exists, so a terminated-ancestor prefix test would
/// claim orderings the graph denies.
class depa_backend final : public precede_backend {
 public:
  explicit depa_backend(reachability_graph& graph) : precede_backend(graph) {
    use_memo_ = true;
  }

  backend_kind kind() const noexcept override { return backend_kind::depa; }

  void on_root_created(task_id root) override {
    FUTRACE_DCHECK(graph_.id_map().to_index(root) == 0);
    labels_.add_root();
    dsu_push();
  }

  void on_task_created(task_id parent, task_id child, bool) override {
    const epoch_id_map& m = graph_.id_map();
    FUTRACE_DCHECK(m.to_index(child) == labels_.size());
    labels_.add_child(m.to_index(parent));
    dsu_push();
  }

  void on_get_joined(task_id waiter, task_id target, bool) override {
    join_target(waiter, target);
  }

  void on_finish_joined(task_id owner, task_id joined) override {
    join_target(owner, joined);
  }

  void on_compacted() override {
    // Rebuild the label arena over the new dense index space, freeing every
    // retired task's path bytes. prior_map_ is the translation this backend
    // last mirrored; composing new-index -> runtime id -> old-index finds
    // each survivor's old label.
    const epoch_id_map& nm = graph_.id_map();
    const std::size_t n = graph_.task_count();
    std::vector<task_id> old_index_for_new(n, k_invalid_task);
    for (std::size_t i = 0; i < n; ++i) {
      const task_id id = nm.to_id(static_cast<task_id>(i));
      if (id == k_invalid_task) continue;  // the tombstone slot
      old_index_for_new[i] = prior_map_.to_index(id);
      FUTRACE_DCHECK(old_index_for_new[i] != k_invalid_task);
    }
    labels_.rebuild(old_index_for_new);
    // The overlay resets to singletons: a sound under-approximation (the
    // shortcut just answers fewer queries until new joins accumulate), and
    // the retired components it forgets are answered by the retirement
    // prelude anyway.
    dsu_parent_.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      dsu_parent_[i] = static_cast<task_id>(i);
    }
    anchor_ = dsu_parent_;
    prior_map_ = nm;
    ++compactions_;
  }

  void merge_stats(reachability_stats& s) const override {
    precede_backend::merge_stats(s);
    // Fallback queries already put the graph's own search counters
    // (frontier_searches, visit_steps, subsumption comparisons) into `s`;
    // here we add the label-layer costs this backend paid natively.
    s.label_bytes += labels_.arena_bytes();
    s.label_comparisons += labels_.comparisons();
    s.max_label_len =
        std::max<std::uint64_t>(s.max_label_len, labels_.max_label_bytes());
  }

  std::size_t memory_bytes() const override {
    return labels_.memory_bytes() +
           (dsu_parent_.capacity() + anchor_.capacity()) * sizeof(task_id);
  }

  bool concurrent_readable() const noexcept override { return true; }

  /// The lock-free subset of query(): id translation, retirement, self, and
  /// the label-prefix test all read state that is only mutated by structure
  /// events — which the shared-structure writer applies strictly between
  /// reader runs. The DSU overlay is excluded: dsu_find() path-halves even
  /// on the query path, so it stays behind the structure mutex along with
  /// the graph fallback.
  int query_shared(task_id a, task_id b) const noexcept override {
    const epoch_id_map& m = graph_.id_map();
    const task_id ai = m.to_index(a);
    if (ai == k_invalid_task) return 1;  // retired: fully ordered
    const task_id bi = m.to_index(b);
    if (ai == bi) return 1;
    if (!graph_.terminated(a) && labels_.is_prefix_shared(ai, bi)) return 1;
    return -1;
  }

 protected:
  std::uint64_t memo_key(task_id a) override { return a; }
  std::uint64_t mutation_stamp() const override { return compactions_; }

  bool query(task_id a, task_id b) override {
    const epoch_id_map& m = graph_.id_map();
    const task_id ai = m.to_index(a);
    if (ai == k_invalid_task) return true;  // retired: fully ordered
    const task_id bi = m.to_index(b);
    if (ai == bi) return true;
    if (dsu_find(ai) == dsu_find(bi)) return true;  // joined into b's chain
    if (!graph_.terminated(a) && labels_.is_prefix(ai, bi)) return true;
    return graph_.precedes(a, b);  // authoritative for everything else
  }

 private:
  void dsu_push() {
    dsu_parent_.push_back(static_cast<task_id>(dsu_parent_.size()));
    anchor_.push_back(dsu_parent_.back());
  }

  task_id dsu_find(task_id t) {
    task_id* const parent = dsu_parent_.data();
    task_id p = parent[t];
    while (p != t) {
      const task_id gp = parent[p];
      if (gp == p) return p;
      parent[t] = gp;
      t = gp;
      p = parent[gp];
    }
    return t;
  }

  void join_target(task_id waiter, task_id target) {
    // Only a fully terminated target's component may be absorbed: the merge
    // asserts "everything joined under `target` has finished and now
    // precedes `waiter`'s future steps".
    if (!graph_.terminated(target)) return;  // live ancestor: spawn-chain path
    const epoch_id_map& m = graph_.id_map();
    const task_id ti = m.to_index(target);
    if (ti == k_invalid_task) return;  // retired: the prelude answers for it
    if (ti >= dsu_parent_.size()) return;  // vertexless (spawn unwound)
    const task_id rt = dsu_find(ti);
    if (anchor_[rt] != ti) return;  // absorbed target: unsound to re-merge
    const task_id wi = m.to_index(waiter);
    const task_id rw = dsu_find(wi);
    if (rt == rw) return;
    const task_id keep = anchor_[rw];
    // Union by size via the label depths as a proxy is not available here;
    // plain size tracking would need another array, and components are built
    // by repeatedly absorbing small terminated chains into the live waiter's
    // component — attach the target side under the waiter side, which keeps
    // the live component's root stable and the find() chains short.
    dsu_parent_[rt] = rw;
    anchor_[rw] = keep;
  }

  depa_label_store labels_;
  std::vector<task_id> dsu_parent_;  // overlay union-find, by storage index
  std::vector<task_id> anchor_;      // component anchor, valid at roots
  epoch_id_map prior_map_;           // graph id map as of the last compaction
  std::uint64_t compactions_ = 0;
};

/// The vector-clock baseline (vs_baselines) promoted to a backend: one
/// happens-before bitset per task, bit positions = storage indices, merged
/// at spawn/get/finish exactly like baselines::vector_clock_detector.
///
/// One caveat discovered when differential-testing against the graph:
/// across a promise-put split the graph does not order the terminated
/// pre-split identity (or its tree-joined set members) before the
/// continuation until an explicit get edge appears, while naive clock
/// inheritance would. Clocks that ever inherited across a continuation
/// edge (directly or transitively through a merge) are therefore marked
/// tainted and their positive bit tests are not trusted — those queries
/// fall back to the graph. Promise-free executions never taint, so they
/// keep the pure O(1) bit test.
class vc_backend final : public precede_backend {
 public:
  explicit vc_backend(reachability_graph& graph) : precede_backend(graph) {
    use_memo_ = true;
  }

  backend_kind kind() const noexcept override {
    return backend_kind::vector_clock;
  }

  void on_root_created(task_id root) override {
    FUTRACE_DCHECK(graph_.id_map().to_index(root) == 0);
    clocks_.emplace_back();
    taint_.push_back(0);
  }

  void on_task_created(task_id parent, task_id child,
                       bool continuation) override {
    const epoch_id_map& m = graph_.id_map();
    FUTRACE_DCHECK(m.to_index(child) == clocks_.size());
    const task_id pi = m.to_index(parent);
    bits b = clocks_[pi];
    std::uint8_t t = taint_[pi];
    if (continuation) {
      t = 1;  // ordering across the split needs a get edge; do not trust bits
    } else {
      set_bit(b, pi);
    }
    note_words(b.size());
    clocks_.push_back(std::move(b));
    taint_.push_back(t);
  }

  void on_get_joined(task_id waiter, task_id target, bool) override {
    merge_from(waiter, target);
  }

  void on_finish_joined(task_id owner, task_id joined) override {
    merge_from(owner, joined);
  }

  void on_compacted() override {
    // Rebuild every survivor's clock over the new dense index space: remap
    // each live bit, drop bits of retired tasks (the retirement prelude
    // answers for them), and free the retired tasks' clocks — the quadratic
    // term this keeps bounded under service-mode streaming.
    const epoch_id_map& nm = graph_.id_map();
    const std::size_t n = graph_.task_count();
    std::vector<bits> clocks(n);
    std::vector<std::uint8_t> taint(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const task_id id = nm.to_id(static_cast<task_id>(i));
      if (id == k_invalid_task) continue;  // the tombstone slot
      const task_id oi = prior_map_.to_index(id);
      FUTRACE_DCHECK(oi != k_invalid_task);
      const bits& src = clocks_[oi];
      bits& dst = clocks[i];
      for (std::size_t w = 0; w < src.size(); ++w) {
        std::uint64_t word = src[w];
        while (word != 0) {
          const int bit = std::countr_zero(word);
          word &= word - 1;
          const auto oj = static_cast<task_id>(w * 64 + bit);
          const task_id id2 = prior_map_.to_id(oj);
          if (id2 == k_invalid_task) continue;
          const task_id nj = nm.to_index(id2);
          if (nj != k_invalid_task) set_bit(dst, nj);
        }
      }
      taint[i] = taint_[oi];
    }
    clocks_ = std::move(clocks);
    taint_ = std::move(taint);
    prior_map_ = nm;
    ++compactions_;
  }

  void merge_stats(reachability_stats& s) const override {
    precede_backend::merge_stats(s);
    s.label_bytes += clock_bytes();
    s.label_comparisons += bit_tests_;
    s.max_label_len =
        std::max<std::uint64_t>(s.max_label_len, max_words_ * 8);
  }

  std::size_t memory_bytes() const override {
    return clock_bytes() + clocks_.capacity() * sizeof(bits) +
           taint_.capacity();
  }

  bool concurrent_readable() const noexcept override { return true; }

  /// Clocks and taint bits mutate only at structure events, so the bit test
  /// is safe between writer applications; the graph fallback (and the
  /// bit_tests_ diagnostic) stays behind the structure mutex.
  int query_shared(task_id a, task_id b) const noexcept override {
    const epoch_id_map& m = graph_.id_map();
    const task_id ai = m.to_index(a);
    if (ai == k_invalid_task) return 1;  // retired: fully ordered
    const task_id bi = m.to_index(b);
    if (ai == bi) return 1;
    if (taint_[bi] == 0 && test_bit(clocks_[bi], ai)) return 1;
    return -1;
  }

 protected:
  std::uint64_t memo_key(task_id a) override { return a; }
  std::uint64_t mutation_stamp() const override { return compactions_; }

  bool query(task_id a, task_id b) override {
    const epoch_id_map& m = graph_.id_map();
    const task_id ai = m.to_index(a);
    if (ai == k_invalid_task) return true;  // retired: fully ordered
    const task_id bi = m.to_index(b);
    if (ai == bi) return true;
    ++bit_tests_;
    if (taint_[bi] == 0 && test_bit(clocks_[bi], ai)) return true;
    return graph_.precedes(a, b);
  }

 private:
  using bits = std::vector<std::uint64_t>;

  static void set_bit(bits& b, task_id t) {
    const std::size_t word = t / 64;
    if (word >= b.size()) b.resize(word + 1, 0);
    b[word] |= std::uint64_t{1} << (t % 64);
  }

  static bool test_bit(const bits& b, task_id t) {
    const std::size_t word = t / 64;
    return word < b.size() && (b[word] >> (t % 64)) & 1;
  }

  void note_words(std::size_t words) {
    if (words > max_words_) max_words_ = words;
  }

  void merge_from(task_id waiter, task_id target) {
    const epoch_id_map& m = graph_.id_map();
    const task_id ti = m.to_index(target);
    if (ti == k_invalid_task) return;  // retired: the prelude answers for it
    if (ti >= clocks_.size()) return;  // vertexless (spawn unwound)
    const task_id wi = m.to_index(waiter);
    bits& w = clocks_[wi];
    const bits& t = clocks_[ti];
    if (t.size() > w.size()) w.resize(t.size(), 0);
    for (std::size_t i = 0; i < t.size(); ++i) w[i] |= t[i];
    set_bit(w, ti);
    note_words(w.size());
    taint_[wi] |= taint_[ti];
  }

  std::size_t clock_bytes() const {
    std::size_t bytes = 0;
    for (const bits& b : clocks_) {
      bytes += b.capacity() * sizeof(std::uint64_t);
    }
    return bytes;
  }

  std::vector<bits> clocks_;         // by storage index
  std::vector<std::uint8_t> taint_;  // clock crossed a continuation split
  epoch_id_map prior_map_;
  std::uint64_t bit_tests_ = 0;
  std::uint64_t max_words_ = 0;
  std::uint64_t compactions_ = 0;
};

}  // namespace

std::unique_ptr<precede_backend> make_precede_backend(
    backend_kind kind, reachability_graph& graph) {
  switch (kind) {
    case backend_kind::graph:
      return std::make_unique<graph_backend>(graph);
    case backend_kind::depa:
      return std::make_unique<depa_backend>(graph);
    case backend_kind::vector_clock:
      return std::make_unique<vc_backend>(graph);
  }
  FUTRACE_CHECK_MSG(false, "unknown precede backend kind");
  return nullptr;
}

}  // namespace futrace::dsr
