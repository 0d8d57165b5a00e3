#include "futrace/dsr/reachability_graph.hpp"

#include <algorithm>
#include <map>
#include <sstream>

namespace futrace::dsr {

reachability_graph::reachability_graph() {
  nodes_.reserve(1024);
  uf_parent_.reserve(1024);
  memo_.resize(k_memo_slots);
}

task_id reachability_graph::create_root() {
  FUTRACE_CHECK_MSG(nodes_.empty(), "create_root must be the first event");
  return create_task(k_invalid_task);
}

task_id reachability_graph::create_task(task_id parent) {
  FUTRACE_CHECK_MSG(parent != k_invalid_task || nodes_.empty(),
                    "only the root task may lack a parent");
  // Runtime id and storage index coincide until the first compaction, after
  // which new ids keep counting up while indices restart past the tombstone.
  const task_id id = next_id_++;
  FUTRACE_DCHECK(map_.to_index(id) == static_cast<task_id>(nodes_.size()));
  node n;
  n.own_label = labels_.on_spawn();
  n.label = n.own_label;
  uf_parent_.push_back(static_cast<task_id>(nodes_.size()));
  if (parent != k_invalid_task) {
    const task_id pi = idx(parent);
    n.spawn_parent = pi;
    // Algorithm 2 lines 7-11: the child's LSA is the parent itself when the
    // parent's set already has incoming non-tree edges, otherwise it inherits
    // the parent's LSA. Metadata lives at the parent's representative.
    const task_id rp = find(pi);
    n.lsa = nodes_[rp].nt == k_no_list ? nodes_[rp].lsa : pi;
  }
  nodes_.push_back(n);
  ++stats_.tasks_created;
  return id;
}

void reachability_graph::on_terminate(task_id t) {
  const task_id ti = idx(t);
  FUTRACE_CHECK_MSG(!nodes_[ti].terminated, "task terminated twice");
  nodes_[ti].terminated = true;
  const std::uint64_t post = labels_.on_terminate();
  nodes_[ti].own_label.post = post;
  // Algorithm 3 updates the label of the terminating task's *set*. In a
  // depth-first execution every other member of the set is a descendant that
  // already terminated, so `t` is the member closest to the root and the set
  // label is t's label.
  const task_id r = find(ti);
  FUTRACE_DCHECK(nodes_[r].label.pre == nodes_[ti].own_label.pre);
  nodes_[r].label.post = post;
}

bool reachability_graph::on_get(task_id waiter, task_id target) {
  const task_id wi = idx(waiter);
  const task_id ti = map_.to_index(target);
  if (ti == k_invalid_task) {
    // Retired target: it finalized before the last compaction and its set
    // holds a live chain task. The branch structure below mirrors the
    // uncompacted graph exactly — through the retirement maps instead of the
    // freed vertex — so tree/non-tree classification (and with it the
    // paper's #NTJoins counter) is bit-identical with compaction off.
    if (find(wi) == find(retired_rep(target))) return true;
    if (find(wi) == find(retired_parent_rep(target))) {
      const task_id rt = find(retired_rep(target));
      if (find(wi) != rt) {
        merge(wi, rt);
        ++stats_.tree_joins;
      }
      return true;
    }
    // The non-tree edge would point at the retired task; record the
    // tombstone instead. Any future PRECEDE whose source postdates the
    // compaction can never need this edge (the retired side terminated
    // first), and sources predating it answer by set-label subsumption
    // before walking — the tombstone only preserves list non-emptiness for
    // the child-LSA rule in create_task.
    add_non_tree(find(wi), map_.tombstone_index());
    ++stats_.non_tree_joins;
    return false;
  }
  if (!nodes_[ti].terminated) {
    // Only a live *ancestor* can be joined mid-flight (a promise fulfilled
    // earlier on the current continuation chain): the ordering is already
    // implied by the spawn chain, so the edge carries no new information.
    FUTRACE_CHECK_MSG(
        nodes_[ti].own_label.subsumes(nodes_[wi].own_label),
        "get() on a live non-ancestor task; the serial "
        "depth-first execution order was violated");
    return true;
  }
  // Already connected by tree joins (e.g. the target joined this waiter's
  // finish before the get): nothing to record.
  if (find(wi) == find(ti)) return true;
  const task_id parent = nodes_[ti].spawn_parent;
  // Algorithm 4: a get is a tree join iff the waiter is in the same set as
  // the target's spawn parent (the waiter is then an ancestor reached from
  // the target purely by tree joins).
  if (parent != k_invalid_task && find(wi) == find(parent)) {
    if (find(wi) != find(ti)) {
      merge(wi, ti);
      ++stats_.tree_joins;
    }
    return true;
  }
  if (add_non_tree(find(wi), ti)) memo_invalidate();
  ++stats_.non_tree_joins;
  return false;
}

bool reachability_graph::add_non_tree(task_id rep, task_id p) {
  const std::span<const task_id> preds = non_tree_of(rep);
  if (std::find(preds.begin(), preds.end(), p) != preds.end()) return false;
  std::uint32_t& l = nodes_[rep].nt;
  if (l == k_no_list) {
    if (free_lists_.empty()) {
      l = static_cast<std::uint32_t>(nt_lists_.size());
      nt_lists_.emplace_back();
    } else {
      l = free_lists_.back();
      free_lists_.pop_back();
    }
  }
  nt_lists_[l].push_back(p);
  return true;
}

void reachability_graph::on_finish_join(task_id owner, task_id joined) {
  const task_id oi = idx(owner);
  const task_id ji = map_.to_index(joined);
  if (ji != k_invalid_task && ji >= nodes_.size()) {
    // The engine registered `joined` with its enclosing finish before the
    // spawn observers ran, and one of them threw (fault injection at the
    // epoch-reset site) — the task has no vertex and never ran, so there is
    // nothing to merge on the unwind's finish_end.
    return;
  }
  if (ji == k_invalid_task) {
    // `joined` was tree-joined into a live chain set by a get() before the
    // compaction that retired it (otherwise its set would have blocked
    // quiescence). Merge the owner with that set, exactly as the
    // uncompacted graph would merge owner and joined.
    const task_id rj = find(retired_rep(joined));
    if (find(oi) == rj) return;
    merge(oi, rj);
    ++stats_.tree_joins;
    return;
  }
  FUTRACE_CHECK_MSG(nodes_[ji].terminated,
                    "finish join on a task that has not terminated");
  if (find(oi) == find(ji)) return;  // already merged via a get()
  merge(oi, ji);
  ++stats_.tree_joins;
}

task_id reachability_graph::find(task_id t) {
  // Iterative path halving over the dense parent array. Written so each hop
  // loads each parent slot exactly once: the straightforward
  //   uf_parent_[t] = uf_parent_[uf_parent_[t]]; t = uf_parent_[t];
  // form re-loads uf_parent_[t] after the store (three loads per hop, and
  // the compiler cannot fold them because the store may alias); keeping
  // parent and grandparent in registers does the halving write and the
  // advance from values already in hand (two loads per hop). Every PRECEDE
  // query funnels through two find()s, so the loop body is the hottest few
  // instructions in the detector — BM_PrecedeDeepChain pins its behaviour
  // on long chains.
  task_id* const parent = uf_parent_.data();
  task_id p = parent[t];
  while (p != t) {
    const task_id gp = parent[p];
    if (gp == p) return p;
    parent[t] = gp;  // halve: t now points at its grandparent
    t = gp;
    p = parent[gp];
  }
  return t;
}

void reachability_graph::merge(task_id ancestor_side, task_id descendant_side) {
  task_id ra = find(ancestor_side);
  task_id rd = find(descendant_side);
  FUTRACE_DCHECK(ra != rd);
  // Algorithm 7: the merged set keeps the ancestor side's label and LSA and
  // the union of the non-tree predecessor lists. Without promises the
  // ancestor side's interval always subsumes the descendant side's; a
  // promise put() splits tasks, after which a finish may merge tasks spawned
  // by *earlier* identities on the continuation chain into the current
  // identity's set, whose interval starts later — so no subsumption check.
  interval_label label = nodes_[ra].label;
  const task_id lsa = nodes_[ra].lsa;

  // Union by size; metadata then moves to whichever index won.
  task_id winner = ra;
  task_id loser = rd;
  if (nodes_[winner].uf_size < nodes_[loser].uf_size) std::swap(winner, loser);
  uf_parent_[loser] = winner;
  nodes_[winner].uf_size += nodes_[loser].uf_size;

  // The winner's predecessors, then the loser's: a winner without a list
  // adopts the loser's, otherwise the loser's list is appended and released.
  const std::uint32_t ll = nodes_[loser].nt;
  if (ll != k_no_list) {
    std::uint32_t& wl = nodes_[winner].nt;
    if (wl == k_no_list) {
      wl = ll;
    } else {
      nt_lists_[wl].append(nt_lists_[ll]);
      nt_lists_[ll].clear();
      free_lists_.push_back(ll);
    }
    nodes_[loser].nt = k_no_list;
  }
  nodes_[winner].label = label;
  nodes_[winner].lsa = lsa;
  // Conservative: the memo is keyed on the queried task, and a union only
  // adds ordering.
  memo_invalidate();
}

bool reachability_graph::precedes(task_id a, task_id b) {
  ++stats_.precede_queries;
  if (a == k_invalid_task) return true;
  const task_id ai = map_.to_index(a);
  if (ai == k_invalid_task) {
    // Retired source: its set contains a live chain task, so its set label
    // is an open interval [pre, *] whose pre is below every post-compaction
    // label — the uncompacted graph answers true by rep equality or label
    // subsumption without walking. Same verdict, same query count.
    return true;
  }
  const task_id bi = idx(b);
  if (ai == bi) return true;  // a task's earlier steps precede its current one
  const task_id ra = find(ai);
  const task_id rb = find(bi);
  if (ra == rb) return true;
  if (memo_enabled_) {
    // Every detector query has b = the currently executing task, so a b
    // change is exactly a task switch — the lazy form of the switch
    // invalidation. Positive verdicts are monotone while b keeps running
    // (reachability only grows and b's current step only advances), which
    // is what makes caching them sound between invalidations. The key is
    // the queried task itself, not its set: visit() prunes by a's own
    // spawn preorder, so one member's positive verdict says nothing about
    // another member of the same set.
    if (b != memo_task_) {
      memo_task_ = b;
      memo_invalidate();
    }
    const memo_entry& e = memo_[ai & (k_memo_slots - 1)];
    if (e.task == ai && e.epoch == memo_epoch_) {
      ++stats_.memo_hits;
      return true;
    }
  }
  // Fast path for the commonest positive answer: a's set top is a spawn
  // ancestor of b's set top (e.g. a merged into an ancestor's set through a
  // finish, b is a later task) — no search needed.
  ++stats_.label_comparisons;
  if (nodes_[ra].label.subsumes(nodes_[rb].label)) {
    if (memo_enabled_) memo_store(ai);
    return true;
  }
  ++stats_.frontier_searches;
  ++query_epoch_;
  if (visit(ai, ra, bi)) {
    if (memo_enabled_) memo_store(ai);
    return true;
  }
  return false;
}

bool reachability_graph::visit(task_id a, task_id ra, task_id start) {
  // Iterative depth-first search over path nodes. A "path node" is a task x
  // for which we must decide whether a ⇒ (last executed step of x); the
  // search explores x's set's non-tree predecessors and the non-tree
  // predecessors of x's significant-ancestor chain (Algorithm 10).
  const interval_label label_a = nodes_[ra].label;
  const std::uint64_t a_spawn_pre = nodes_[a].own_label.pre;

  support::small_vector<task_id, 32> stack;
  stack.push_back(start);

  while (!stack.empty()) {
    const task_id x = stack.back();
    stack.pop_back();

    // Preorder cutoff (Algorithm 10 lines 12-14), in its provably safe form:
    // a path node that terminated before `a` was spawned cannot be reached
    // from any step of `a`. (The paper states the cutoff as a bare preorder
    // comparison; after tree-join merges the target's *set* carries the
    // ancestor's small preorder, which would wrongly prune transitive-join
    // paths such as the main-gets-C-gets-B chain of Fig. 1, so we compare
    // the task's own interval instead — dominated intervals are exactly the
    // "source must have lower preorder than sink" argument.)
    if (nodes_[x].own_label.post < a_spawn_pre) continue;

    const task_id rx = find(x);
    // Lines 6-11: same set, or the interval of a's set subsumes the interval
    // of x's set (the top of a's set is a spawn ancestor of x).
    if (rx == ra) return true;
    ++stats_.label_comparisons;
    if (label_a.subsumes(nodes_[rx].label)) return true;
    if (nodes_[rx].path_epoch == query_epoch_) continue;
    nodes_[rx].path_epoch = query_epoch_;
    ++stats_.visit_steps;

    // Lines 15-20: immediate non-tree predecessors of x's set.
    for (const task_id p : non_tree_of(rx)) {
      ++stats_.nt_edges_walked;
      stack.push_back(p);
    }

    // Lines 21-29: non-tree predecessors of the significant-ancestor chain.
    // Only the ancestors' *edges* join the search; the ancestors themselves
    // are not path nodes (an ancestor's set containing `a` does not by itself
    // witness a path from a's last step to x).
    task_id v = nodes_[rx].lsa;
    while (v != k_invalid_task) {
      const task_id rv = find(v);
      if (nodes_[rv].lsa_scan_epoch == query_epoch_) break;
      nodes_[rv].lsa_scan_epoch = query_epoch_;
      ++stats_.lsa_hops;
      for (const task_id p : non_tree_of(rv)) {
        ++stats_.nt_edges_walked;
        stack.push_back(p);
      }
      v = nodes_[rv].lsa;
    }
  }
  return false;
}

precede_explanation reachability_graph::explain(task_id a, task_id b) {
  precede_explanation ex;
  const task_id ai = a == k_invalid_task ? k_invalid_task : map_.to_index(a);
  if (ai == k_invalid_task) {
    // No previous writer, or a writer retired by compaction (the latter is
    // always ordered before the current step, so no report asks about it).
    ex.reachable = true;
    return ex;
  }
  const task_id bi = idx(b);
  ex.a_label = nodes_[ai].own_label;
  ex.b_label = nodes_[bi].own_label;
  ex.a_terminated = nodes_[ai].terminated;
  ex.b_terminated = nodes_[bi].terminated;
  const task_id ra = find(ai);
  const task_id rb = find(bi);
  ex.a_set_label = nodes_[ra].label;
  ex.b_set_label = nodes_[rb].label;
  if (ai == bi || ra == rb) {
    ex.reachable = true;
    return ex;
  }
  if (nodes_[ra].label.subsumes(nodes_[rb].label)) {
    ex.reachable = true;
    ex.by_subsumption = true;
    return ex;
  }

  // The visit() traversal with provenance: every pushed predecessor gets a
  // record carrying the index of the record that pushed it, so a positive
  // answer can rebuild the edge chain and a negative one can report the
  // whole searched frontier. Mirrors visit() exactly — cutoff, set checks,
  // epoch marks, nt lists, LSA chain — minus the stats/memo side effects.
  const interval_label label_a = nodes_[ra].label;
  const std::uint64_t a_spawn_pre = nodes_[ai].own_label.pre;
  ++query_epoch_;

  struct visit_rec {
    task_id task;
    std::int32_t parent;  // index into `visited`, -1 = pushed from b
  };
  std::vector<visit_rec> visited;
  std::vector<std::int32_t> stack;  // indices into `visited`; -1 = b itself
  stack.push_back(-1);

  while (!stack.empty()) {
    const std::int32_t idx = stack.back();
    stack.pop_back();
    const task_id x =
        idx < 0 ? bi : visited[static_cast<std::size_t>(idx)].task;

    if (nodes_[x].own_label.post < a_spawn_pre) continue;
    const task_id rx = find(x);
    if (rx == ra || label_a.subsumes(nodes_[rx].label)) {
      for (std::int32_t i = idx; i >= 0;
           i = visited[static_cast<std::size_t>(i)].parent) {
        ex.frontier.push_back(
            map_.to_id(visited[static_cast<std::size_t>(i)].task));
      }
      std::reverse(ex.frontier.begin(), ex.frontier.end());
      ex.reachable = true;
      return ex;
    }
    if (nodes_[rx].path_epoch == query_epoch_) continue;
    nodes_[rx].path_epoch = query_epoch_;

    for (const task_id p : non_tree_of(rx)) {
      visited.push_back({p, idx});
      stack.push_back(static_cast<std::int32_t>(visited.size()) - 1);
    }
    task_id v = nodes_[rx].lsa;
    while (v != k_invalid_task) {
      const task_id rv = find(v);
      if (nodes_[rv].lsa_scan_epoch == query_epoch_) break;
      nodes_[rv].lsa_scan_epoch = query_epoch_;
      ++ex.lsa_hops;
      for (const task_id p : non_tree_of(rv)) {
        visited.push_back({p, idx});
        stack.push_back(static_cast<std::int32_t>(visited.size()) - 1);
      }
      v = nodes_[rv].lsa;
    }
  }

  for (const visit_rec& r : visited) {
    const task_id id = map_.to_id(r.task);  // invalid = the tombstone
    if (id != k_invalid_task &&
        std::find(ex.frontier.begin(), ex.frontier.end(), id) ==
            ex.frontier.end()) {
      ex.frontier.push_back(id);
    }
  }
  return ex;
}

std::vector<task_id> reachability_graph::set_non_tree_predecessors(task_id t) {
  const std::span<const task_id> preds = non_tree_of(find(idx(t)));
  std::vector<task_id> out;
  out.reserve(preds.size());
  for (const task_id p : preds) out.push_back(map_.to_id(p));
  return out;
}

std::string reachability_graph::to_dot() {
  // Group tasks by representative.
  std::map<task_id, std::vector<task_id>> sets;
  for (task_id t = 0; t < nodes_.size(); ++t) sets[find(t)].push_back(t);

  std::ostringstream out;
  out << "digraph reachability_graph {\n"
      << "  rankdir=BT;\n  node [shape=box, fontsize=10];\n";
  for (const auto& [rep, members] : sets) {
    out << "  d" << rep << " [label=\"{";
    for (std::size_t i = 0; i < members.size(); ++i) {
      const task_id id = map_.to_id(members[i]);
      out << (i ? "," : "");
      if (id == k_invalid_task) {
        out << "retired";
      } else {
        out << "T" << id;
      }
    }
    out << "} [" << nodes_[rep].label.pre << ",";
    if (nodes_[rep].terminated) {
      out << nodes_[rep].label.post;
    } else {
      out << "*";
    }
    out << "]\"];\n";
  }
  for (const auto& [rep, members] : sets) {
    (void)members;
    for (const task_id p : non_tree_of(rep)) {
      out << "  d" << find(p) << " -> d" << rep
          << " [color=red, label=\"nt\"];\n";
    }
    if (nodes_[rep].lsa != k_invalid_task) {
      out << "  d" << rep << " -> d" << find(nodes_[rep].lsa)
          << " [style=dashed, color=gray, label=\"lsa\"];\n";
    }
  }
  out << "}\n";
  return out.str();
}

std::size_t reachability_graph::memory_bytes() const {
  std::size_t bytes = nodes_.capacity() * sizeof(node) +
                      uf_parent_.capacity() * sizeof(task_id) +
                      (retired_set_of_.capacity() +
                       retired_parent_set_of_.capacity()) *
                          sizeof(std::pair<task_id, task_id>) +
                      map_.kept().capacity() * sizeof(task_id) +
                      nt_lists_.capacity() * sizeof(nt_list) +
                      free_lists_.capacity() * sizeof(std::uint32_t);
  for (const nt_list& l : nt_lists_) {
    if (!l.uses_inline_storage()) bytes += l.capacity() * sizeof(task_id);
  }
  return bytes;
}

task_id reachability_graph::run_lookup(
    const std::vector<std::pair<task_id, task_id>>& m, task_id id) {
  const auto it = std::upper_bound(
      m.begin(), m.end(), id,
      [](task_id v, const std::pair<task_id, task_id>& e) {
        return v < e.first;
      });
  FUTRACE_CHECK_MSG(it != m.begin(), "retired id below the compaction maps");
  return std::prev(it)->second;
}

task_id reachability_graph::retired_rep(task_id id) {
  return find(idx(run_lookup(retired_set_of_, id)));
}

task_id reachability_graph::retired_parent_rep(task_id id) {
  return find(idx(run_lookup(retired_parent_set_of_, id)));
}

bool reachability_graph::try_compact(std::span<const task_id> live) {
  if (nodes_.empty() || live.empty()) return false;

  // Quiescence: every vertex (tombstone aside) must sit in a set owned by a
  // live task. Each retired set then contains a task with an open interval,
  // so its label subsumes every future label and the vertices can go.
  std::vector<task_id> live_idx;
  live_idx.reserve(live.size());
  std::vector<task_id> reps;
  reps.reserve(live.size());
  for (const task_id id : live) {
    const task_id i = map_.to_index(id);
    if (i == k_invalid_task || nodes_[i].terminated) return false;
    live_idx.push_back(i);
    reps.push_back(find(i));
  }
  std::sort(reps.begin(), reps.end());
  reps.erase(std::unique(reps.begin(), reps.end()), reps.end());
  std::uint64_t covered = 0;
  for (const task_id r : reps) covered += nodes_[r].uf_size;
  const std::uint64_t total =
      nodes_.size() - (map_.compacted() ? 1 : 0);
  if (covered != total) return false;

  // Survivor runtime ids, ascending; each gets a dense slot. The first
  // (lowest-id) survivor of each set becomes the new representative and
  // inherits the set metadata.
  std::vector<task_id> kept(live.begin(), live.end());
  std::sort(kept.begin(), kept.end());
  kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
  const auto k = static_cast<task_id>(kept.size());

  // Old-rep index -> (new canonical slot, kept-member count), keyed in
  // `reps` order (sorted, binary-searchable).
  std::vector<task_id> canon_of(reps.size(), k_invalid_task);
  std::vector<std::uint32_t> members_of(reps.size(), 0);
  const auto rep_slot = [&reps](task_id r) {
    const auto it = std::lower_bound(reps.begin(), reps.end(), r);
    FUTRACE_DCHECK(it != reps.end() && *it == r);
    return static_cast<std::size_t>(it - reps.begin());
  };
  for (task_id i = 0; i < k; ++i) {
    const std::size_t s = rep_slot(find(idx(kept[i])));
    if (canon_of[s] == k_invalid_task) canon_of[s] = i;
    ++members_of[s];
  }
  // Canonical kept runtime id for the set of an arbitrary old vertex.
  const auto canon_id_for = [&](task_id old_index) {
    return kept[canon_of[rep_slot(find(old_index))]];
  };

  // Re-collapse the existing retirement maps (values are live chain ids and
  // stay resolvable; adjacent runs whose sets have since merged fuse).
  const auto collapse = [this](std::vector<std::pair<task_id, task_id>>& m) {
    std::size_t w = 0;
    for (std::size_t i = 0; i < m.size(); ++i) {
      if (w > 0 &&
          find(idx(m[i].second)) == find(idx(m[w - 1].second))) {
        continue;
      }
      m[w++] = m[i];
    }
    m.resize(w);
  };
  collapse(retired_set_of_);
  collapse(retired_parent_set_of_);

  // Append runs for the ids retired by *this* pass. Runs may span kept ids
  // (lookups check the kept table first), so only value changes break them.
  const auto append_run = [](std::vector<std::pair<task_id, task_id>>& m,
                             task_id first, task_id value) {
    if (m.empty() || m.back().second != value) m.emplace_back(first, value);
  };
  for (task_id id = map_.id_base(); id < next_id_; ++id) {
    const task_id i = map_.to_index(id);
    FUTRACE_DCHECK(i != k_invalid_task);
    if (!nodes_[i].terminated) continue;  // survives; runs may span it
    append_run(retired_set_of_, id, canon_id_for(i));
    const task_id p = nodes_[i].spawn_parent;
    FUTRACE_DCHECK(p != k_invalid_task);  // only the (live) root lacks one
    append_run(retired_parent_set_of_, id, canon_id_for(p));
  }

  // Rebuild storage: kept slots 0..k-1, tombstone at k.
  std::vector<node> nn(static_cast<std::size_t>(k) + 1);
  std::vector<task_id> np(static_cast<std::size_t>(k) + 1);
  std::vector<nt_list> nl;
  for (task_id i = 0; i < k; ++i) {
    const task_id oi = idx(kept[i]);
    const node& s = nodes_[oi];
    node& d = nn[i];
    d.own_label = s.own_label;
    d.terminated = false;
    if (s.spawn_parent != k_invalid_task) {
      const task_id pid = map_.to_id(s.spawn_parent);
      const auto it = std::lower_bound(kept.begin(), kept.end(), pid);
      FUTRACE_DCHECK(it != kept.end() && *it == pid);  // chain parents live
      d.spawn_parent = static_cast<task_id>(it - kept.begin());
    }
    const std::size_t s_slot = rep_slot(find(oi));
    if (canon_of[s_slot] == i) {
      // New representative: set label preserved verbatim; the non-tree list
      // collapses to a tombstone entry preserving only non-emptiness (the
      // child-LSA rule in create_task branches on it); the LSA pointer is
      // dropped — every edge it could reach predates the compaction and is
      // never needed by a query whose source survives it.
      const task_id r = find(oi);
      d.label = nodes_[r].label;
      d.uf_size = members_of[s_slot];
      if (!non_tree_of(r).empty()) {
        d.nt = static_cast<std::uint32_t>(nl.size());
        nl.emplace_back().push_back(k);
      }
      np[i] = i;
    } else {
      d.label = s.own_label;
      d.uf_size = 1;
      np[i] = canon_of[s_slot];
    }
  }
  nn[k].terminated = true;  // the tombstone: interval [0,0], its own set
  np[k] = k;

  stats_.tasks_retired += total - k;
  ++stats_.epoch_compactions;
  nodes_ = std::move(nn);
  uf_parent_ = std::move(np);
  nt_lists_ = std::move(nl);
  free_lists_ = {};
  nodes_.shrink_to_fit();
  uf_parent_.shrink_to_fit();
  retired_set_of_.shrink_to_fit();
  retired_parent_set_of_.shrink_to_fit();
  map_.compact(std::move(kept), next_id_);
  // Memo entries are keyed on representative indices, which this pass just
  // recycled; the query-epoch stamps in fresh nodes start at zero, below
  // every live query epoch.
  memo_invalidate();
  memo_task_ = k_invalid_task;
  return true;
}

}  // namespace futrace::dsr
