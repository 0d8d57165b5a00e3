// Unit tests for the dynamic task reachability graph: interval labels
// (Algorithms 1-3), get/finish joins (Algorithms 4-7), and PRECEDE queries
// (Algorithm 10). Event sequences below follow the serial depth-first
// discipline the detector runs under.

#include <gtest/gtest.h>

#include "futrace/dsr/labels.hpp"
#include "futrace/dsr/reachability_graph.hpp"
#include "futrace/support/rng.hpp"

namespace futrace::dsr {
namespace {

// --------------------------------------------------------------------- labels

TEST(Labels, SpawnAssignsIncreasingPreorder) {
  label_allocator alloc;
  const interval_label a = alloc.on_spawn();
  const interval_label b = alloc.on_spawn();
  EXPECT_LT(a.pre, b.pre);
}

TEST(Labels, TemporaryPostorderDecreasesWithDepth) {
  label_allocator alloc;
  const interval_label parent = alloc.on_spawn();
  const interval_label child = alloc.on_spawn();
  // Deeper live tasks have smaller temporary postorder: ancestor subsumes.
  EXPECT_TRUE(parent.subsumes(child));
  EXPECT_FALSE(child.subsumes(parent));
}

TEST(Labels, FinalPostorderKeepsSubsumption) {
  label_allocator alloc;
  interval_label parent = alloc.on_spawn();
  interval_label child = alloc.on_spawn();
  child.post = alloc.on_terminate();  // child ends first (DFS)
  EXPECT_TRUE(parent.subsumes(child));
  parent.post = alloc.on_terminate();
  EXPECT_TRUE(parent.subsumes(child));
  EXPECT_FALSE(child.subsumes(parent));
}

TEST(Labels, SiblingsDoNotSubsumeEachOther) {
  label_allocator alloc;
  interval_label root = alloc.on_spawn();
  interval_label a = alloc.on_spawn();
  a.post = alloc.on_terminate();
  interval_label b = alloc.on_spawn();
  b.post = alloc.on_terminate();
  EXPECT_FALSE(a.subsumes(b));
  EXPECT_FALSE(b.subsumes(a));
  EXPECT_TRUE(root.subsumes(a));
  EXPECT_TRUE(root.subsumes(b));
}

TEST(Labels, TemporaryIdsAreRecycled) {
  label_allocator alloc;
  (void)alloc.on_spawn();  // root stays live
  for (int i = 0; i < 100; ++i) {
    (void)alloc.on_spawn();
    (void)alloc.on_terminate();
  }
  EXPECT_EQ(alloc.live_depth(), 1u);
}

// ----------------------------------------------------------- reachability graph

class reachability_test : public ::testing::Test {
 protected:
  reachability_graph g;
};

TEST_F(reachability_test, RootPrecedesEveryLiveDescendant) {
  const task_id root = g.create_root();
  const task_id child = g.create_task(root);
  const task_id grandchild = g.create_task(child);
  EXPECT_TRUE(g.precedes(root, grandchild));
  EXPECT_TRUE(g.precedes(root, child));
  EXPECT_TRUE(g.precedes(child, grandchild));
}

TEST_F(reachability_test, UnjoinedChildIsParallelWithParentContinuation) {
  const task_id root = g.create_root();
  const task_id child = g.create_task(root);
  g.on_terminate(child);
  // Back in the root: no join has happened yet.
  EXPECT_FALSE(g.precedes(child, root));
}

TEST_F(reachability_test, FinishJoinMergesIntoOwnerSet) {
  const task_id root = g.create_root();
  const task_id child = g.create_task(root);
  g.on_terminate(child);
  g.on_finish_join(root, child);
  EXPECT_TRUE(g.same_set(root, child));
  EXPECT_TRUE(g.precedes(child, root));
  EXPECT_EQ(g.stats().tree_joins, 1u);
  EXPECT_EQ(g.stats().non_tree_joins, 0u);
}

TEST_F(reachability_test, GetByParentIsTreeJoin) {
  const task_id root = g.create_root();
  const task_id fut = g.create_task(root);
  g.on_terminate(fut);
  EXPECT_TRUE(g.on_get(root, fut));
  EXPECT_TRUE(g.same_set(root, fut));
  EXPECT_TRUE(g.precedes(fut, root));
  EXPECT_EQ(g.stats().non_tree_joins, 0u);
}

TEST_F(reachability_test, GetBySiblingIsNonTreeJoin) {
  const task_id root = g.create_root();
  const task_id a = g.create_task(root);
  g.on_terminate(a);
  const task_id b = g.create_task(root);
  // Inside b: b.get(a). b is not in the same set as a's parent (root).
  EXPECT_FALSE(g.on_get(b, a));
  EXPECT_FALSE(g.same_set(a, b));
  EXPECT_TRUE(g.precedes(a, b));
  EXPECT_EQ(g.stats().non_tree_joins, 1u);
  const auto preds = g.set_non_tree_predecessors(b);
  ASSERT_EQ(preds.size(), 1u);
  EXPECT_EQ(preds[0], a);
}

TEST_F(reachability_test, SiblingWithoutJoinStaysParallel) {
  const task_id root = g.create_root();
  const task_id a = g.create_task(root);
  g.on_terminate(a);
  const task_id b = g.create_task(root);
  EXPECT_FALSE(g.precedes(a, b));
}

// The Figure 1 program: main creates futures A, B, C; B gets A; C gets A and
// B; main gets A (tree) and C (tree). After the C join, B transitively
// precedes main's continuation (Stmt10) even though main never joined B
// directly.
TEST_F(reachability_test, Figure1TransitiveJoinThroughC) {
  const task_id main = g.create_root();
  const task_id a = g.create_task(main);
  g.on_terminate(a);
  const task_id b = g.create_task(main);
  EXPECT_FALSE(g.on_get(b, a));  // non-tree: sibling join
  g.on_terminate(b);
  const task_id c = g.create_task(main);
  EXPECT_FALSE(g.on_get(c, a));
  EXPECT_FALSE(g.on_get(c, b));
  g.on_terminate(c);

  // Before main joins anything, all three are parallel with main's
  // continuation.
  EXPECT_FALSE(g.precedes(a, main));
  EXPECT_FALSE(g.precedes(b, main));
  EXPECT_FALSE(g.precedes(c, main));

  EXPECT_TRUE(g.on_get(main, a));  // tree join
  EXPECT_TRUE(g.precedes(a, main));
  EXPECT_FALSE(g.precedes(b, main));  // still parallel (Stmt6..9 window)

  EXPECT_TRUE(g.on_get(main, c));  // tree join; brings C's predecessors
  EXPECT_TRUE(g.precedes(c, main));
  EXPECT_TRUE(g.precedes(b, main)) << "transitive dependence via C (paper "
                                      "§2, Fig. 1 discussion)";
  EXPECT_EQ(g.stats().non_tree_joins, 3u);
}

// Chained non-tree joins across siblings: f1 <- f2 <- f3 <- f4 reachability.
TEST_F(reachability_test, NonTreeJoinChain) {
  const task_id root = g.create_root();
  std::vector<task_id> futs;
  for (int i = 0; i < 5; ++i) {
    const task_id f = g.create_task(root);
    if (!futs.empty()) {
      EXPECT_FALSE(g.on_get(f, futs.back()));
    }
    g.on_terminate(f);
    futs.push_back(f);
  }
  // Every earlier future precedes every later one through the chain.
  for (std::size_t i = 0; i < futs.size(); ++i) {
    for (std::size_t j = 0; j < futs.size(); ++j) {
      if (i == j) continue;
      // Query shape: later task is "current"; only j > i queries arise in a
      // real execution, and those must be i < j ⟹ precedes.
      if (i < j) {
        EXPECT_TRUE(g.precedes(futs[i], futs[j]))
            << "f" << i << " should reach f" << j;
      }
    }
  }
}

// LSA inheritance: tasks spawned by a task that has performed non-tree joins
// record that task as their lowest significant ancestor (Algorithm 2).
TEST_F(reachability_test, LsaAssignment) {
  const task_id root = g.create_root();
  const task_id f1 = g.create_task(root);
  g.on_terminate(f1);

  const task_id t3 = g.create_task(root);
  // t3 performs a non-tree join: its set now has an incoming non-tree edge.
  EXPECT_FALSE(g.on_get(t3, f1));
  const task_id t4 = g.create_task(t3);
  EXPECT_EQ(g.set_lsa(t4), t3) << "parent with non-tree joins is the LSA";
  const task_id t5 = g.create_task(t4);
  EXPECT_EQ(g.set_lsa(t5), t3) << "LSA is inherited through clean parents";
}

// A descendant of a task that joined a future must see the future through the
// significant-ancestor chain.
TEST_F(reachability_test, DescendantSeesAncestorsNonTreeJoin) {
  const task_id root = g.create_root();
  const task_id producer = g.create_task(root);
  g.on_terminate(producer);

  const task_id consumer = g.create_task(root);
  EXPECT_FALSE(g.on_get(consumer, producer));  // non-tree
  // consumer spawns a child after the get; producer precedes the child.
  const task_id child = g.create_task(consumer);
  EXPECT_TRUE(g.precedes(producer, child));
  const task_id grandchild = g.create_task(child);
  EXPECT_TRUE(g.precedes(producer, grandchild));
}

TEST_F(reachability_test, InvalidTaskAlwaysPrecedes) {
  const task_id root = g.create_root();
  EXPECT_TRUE(g.precedes(k_invalid_task, root));
}

TEST_F(reachability_test, SpawnAncestorQueriesUseOwnLabels) {
  const task_id root = g.create_root();
  const task_id a = g.create_task(root);
  const task_id b = g.create_task(a);
  g.on_terminate(b);
  g.on_terminate(a);
  EXPECT_TRUE(g.is_spawn_ancestor(root, a));
  EXPECT_TRUE(g.is_spawn_ancestor(root, b));
  EXPECT_TRUE(g.is_spawn_ancestor(a, b));
  EXPECT_FALSE(g.is_spawn_ancestor(b, a));
}

// Merging keeps the ancestor-side label: after a finish join the merged set
// carries the owner's interval.
TEST_F(reachability_test, MergeKeepsAncestorLabel) {
  const task_id root = g.create_root();
  const interval_label root_label = g.set_label(root);
  const task_id child = g.create_task(root);
  g.on_terminate(child);
  g.on_finish_join(root, child);
  EXPECT_EQ(g.set_label(child).pre, root_label.pre);
}

// A future joined by get() and later re-joined by its IEF must not break
// anything (the merge is a no-op the second time).
TEST_F(reachability_test, GetThenFinishJoinIsIdempotent) {
  const task_id root = g.create_root();
  const task_id fut = g.create_task(root);
  g.on_terminate(fut);
  EXPECT_TRUE(g.on_get(root, fut));
  g.on_finish_join(root, fut);  // IEF of fut ends later
  EXPECT_TRUE(g.same_set(root, fut));
  EXPECT_EQ(g.stats().tree_joins, 1u);
}

// Deep spawn chains stress the temporary-postorder recycling.
TEST_F(reachability_test, DeepSpawnChain) {
  const task_id root = g.create_root();
  task_id cur = root;
  std::vector<task_id> chain{root};
  for (int i = 0; i < 500; ++i) {
    cur = g.create_task(cur);
    chain.push_back(cur);
  }
  // Everything on the live chain: ancestors precede the leaf.
  for (const task_id t : chain) {
    EXPECT_TRUE(g.precedes(t, cur));
  }
  // Unwind with terminations and IEF joins into the root's finish... the
  // chain collapses into nested sets.
  for (std::size_t i = chain.size() - 1; i > 0; --i) {
    g.on_terminate(chain[i]);
    g.on_finish_join(chain[i - 1], chain[i]);
  }
  EXPECT_TRUE(g.same_set(root, cur));
  EXPECT_TRUE(g.precedes(cur, root));
}

// Diamond: two independent futures, a consumer joins both.
TEST_F(reachability_test, DiamondJoin) {
  const task_id root = g.create_root();
  const task_id left = g.create_task(root);
  g.on_terminate(left);
  const task_id right = g.create_task(root);
  g.on_terminate(right);
  const task_id sink = g.create_task(root);
  EXPECT_FALSE(g.on_get(sink, left));
  EXPECT_FALSE(g.on_get(sink, right));
  EXPECT_TRUE(g.precedes(left, sink));
  EXPECT_TRUE(g.precedes(right, sink));
  EXPECT_FALSE(g.precedes(left, right));  // independent branches
  g.on_terminate(sink);
}

// Statistics counters reflect the structure.
TEST_F(reachability_test, StatsCounters) {
  const task_id root = g.create_root();
  const task_id a = g.create_task(root);
  g.on_terminate(a);
  const task_id b = g.create_task(root);
  g.on_get(b, a);
  g.on_terminate(b);
  g.on_get(root, b);
  g.on_finish_join(root, a);
  EXPECT_TRUE(g.precedes(a, root));

  const auto& s = g.stats();
  EXPECT_EQ(s.tasks_created, 3u);
  EXPECT_EQ(s.non_tree_joins, 1u);   // b.get(a)
  EXPECT_EQ(s.tree_joins, 2u);       // root.get(b), finish join of a
  EXPECT_GT(s.precede_queries, 0u);
}

TEST_F(reachability_test, DotExportShowsSetsAndEdges) {
  const task_id root = g.create_root();
  const task_id a = g.create_task(root);
  g.on_terminate(a);
  const task_id b = g.create_task(root);
  g.on_get(b, a);  // non-tree edge a -> b
  g.on_terminate(b);
  g.on_finish_join(root, a);
  const std::string dot = g.to_dot();
  EXPECT_NE(dot.find("digraph reachability_graph"), std::string::npos);
  EXPECT_NE(dot.find("nt"), std::string::npos);
  EXPECT_NE(dot.find("T0"), std::string::npos);
  // a merged into root's set: they print as one node.
  EXPECT_NE(dot.find("T0,T1"), std::string::npos);
}

// ------------------------------------------- non-tree predecessor side table

// Builds p with predecessor list [a] and its child c with [b]; with
// `heavy_child` c first absorbs a grandchild, so c's set wins the union by
// size when p's finish joins it.
struct two_lists {
  task_id root, a, b, p, c;
};
two_lists build_two_lists(reachability_graph& g, bool heavy_child) {
  two_lists t{};
  t.root = g.create_root();
  t.a = g.create_task(t.root);
  g.on_terminate(t.a);
  t.b = g.create_task(t.root);
  g.on_terminate(t.b);
  t.p = g.create_task(t.root);
  EXPECT_FALSE(g.on_get(t.p, t.a));
  t.c = g.create_task(t.p);
  EXPECT_FALSE(g.on_get(t.c, t.b));
  if (heavy_child) {
    const task_id c1 = g.create_task(t.c);
    g.on_terminate(c1);
    g.on_finish_join(t.c, c1);
  }
  g.on_terminate(t.c);
  EXPECT_EQ(g.non_tree_lists(), 2u);
  g.on_finish_join(t.p, t.c);
  return t;
}

TEST_F(reachability_test, MergeListsWinnerThenLoser) {
  // Equal sizes: the ancestor side (p) wins.
  const two_lists t = build_two_lists(g, /*heavy_child=*/false);
  EXPECT_EQ(g.set_non_tree_predecessors(t.p),
            (std::vector<task_id>{t.a, t.b}));
  EXPECT_EQ(g.set_label(t.p), g.set_label(t.c));
  EXPECT_TRUE(g.precedes(t.a, t.p));
  EXPECT_TRUE(g.precedes(t.b, t.p));

  // The descendant side (c) outweighs p: c's entries come first.
  reachability_graph h;
  const two_lists u = build_two_lists(h, /*heavy_child=*/true);
  EXPECT_EQ(h.set_non_tree_predecessors(u.p),
            (std::vector<task_id>{u.b, u.a}));
  EXPECT_TRUE(h.precedes(u.a, u.p));
  EXPECT_TRUE(h.precedes(u.b, u.p));
}

TEST_F(reachability_test, ReleasedListIsReusedEmpty) {
  const two_lists t = build_two_lists(g, /*heavy_child=*/false);
  // The merge released one of the two lists; the next set that gains an
  // edge takes it instead of growing the table, and sees none of its old
  // entries.
  const task_id d = g.create_task(t.p);
  g.on_terminate(d);
  const task_id e = g.create_task(t.p);
  EXPECT_FALSE(g.on_get(e, d));
  EXPECT_EQ(g.non_tree_lists(), 2u);
  EXPECT_EQ(g.set_non_tree_predecessors(e), (std::vector<task_id>{d}));
  EXPECT_EQ(g.set_non_tree_predecessors(t.p),
            (std::vector<task_id>{t.a, t.b}));
  EXPECT_TRUE(g.precedes(d, e));
  // With no released list left, a third list grows the table.
  g.on_terminate(e);
  const task_id f = g.create_task(t.p);
  EXPECT_FALSE(g.on_get(f, e));
  EXPECT_EQ(g.non_tree_lists(), 3u);
}

TEST_F(reachability_test, CompactedListStillMakesChildLsa) {
  const task_id root = g.create_root();
  const task_id a = g.create_task(root);
  g.on_terminate(a);
  g.on_finish_join(root, a);
  const task_id p = g.create_task(root);
  EXPECT_FALSE(g.on_get(p, a));
  const std::vector<task_id> live{root, p};
  ASSERT_TRUE(g.try_compact(live));
  // p's list collapsed to the tombstone (reported as k_invalid_task) in a
  // rebuilt table with one entry.
  EXPECT_EQ(g.set_non_tree_predecessors(p),
            (std::vector<task_id>{k_invalid_task}));
  EXPECT_EQ(g.non_tree_lists(), 1u);
  // Algorithm 2's child-LSA rule: p's set has a predecessor, so p is its
  // child's LSA; q's set has none, so q's child inherits q's LSA.
  const task_id q = g.create_task(p);
  EXPECT_EQ(g.set_lsa(q), p);
  const task_id r = g.create_task(q);
  EXPECT_EQ(g.set_lsa(r), p);
  EXPECT_TRUE(g.precedes(a, r));
  EXPECT_EQ(g.set_lsa(root), k_invalid_task);
}

// A vertex is a small fixed record: tasks without non-tree joins hold no
// predecessor storage (DESIGN.md §9, "Task vertices").
TEST(ReachabilityMemory, VerticesWithoutNonTreeJoinsStaySmall) {
  reachability_graph g;
  const task_id root = g.create_root();
  for (int i = 1; i < 4096; ++i) g.on_terminate(g.create_task(root));
  ASSERT_EQ(g.task_count(), 4096u);
  EXPECT_EQ(g.non_tree_lists(), 0u);
  EXPECT_LE(g.memory_bytes(), 4096u * 80u);
}

// Property-style sweep: random join sequences must keep the interval-label
// invariants (ancestor subsumption on own labels; representative labels
// match the shallowest member).
TEST(ReachabilityInvariants, RandomJoinSequences) {
  futrace::support::xoshiro256 rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    reachability_graph g;
    std::vector<task_id> stack{g.create_root()};
    std::vector<task_id> done;
    std::vector<std::pair<task_id, task_id>> parent_of;  // (child, parent)
    for (int step = 0; step < 200; ++step) {
      const double p = rng.uniform();
      if (p < 0.4 || stack.size() == 1) {
        // spawn
        if (stack.size() < 40) {
          const task_id parent = stack.back();
          const task_id child = g.create_task(parent);
          parent_of.emplace_back(child, parent);
          stack.push_back(child);
        }
      } else if (p < 0.75) {
        // terminate current
        const task_id t = stack.back();
        stack.pop_back();
        g.on_terminate(t);
        done.push_back(t);
      } else if (!done.empty()) {
        // join a completed task: get by current
        const task_id target = done[rng.below(done.size())];
        g.on_get(stack.back(), target);
      }
    }
    // Invariant: spawn ancestors subsume descendants (own labels).
    for (const auto& [child, parent] : parent_of) {
      EXPECT_TRUE(g.is_spawn_ancestor(parent, child));
      EXPECT_FALSE(g.is_spawn_ancestor(child, parent));
    }
    // Invariant: live ancestors precede the current task.
    for (const task_id t : stack) {
      EXPECT_TRUE(g.precedes(t, stack.back()));
    }
  }
}

}  // namespace
}  // namespace futrace::dsr
