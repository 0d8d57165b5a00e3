// Micro-benchmarks for the dynamic task reachability graph: the per-event
// and per-query costs behind Theorem 1's bounds.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "bench_main.hpp"

#include "futrace/dsr/labels.hpp"
#include "futrace/dsr/reachability_graph.hpp"

namespace {

using futrace::dsr::label_allocator;
using futrace::dsr::reachability_graph;
using futrace::dsr::task_id;

void BM_LabelSpawnTerminate(benchmark::State& state) {
  for (auto _ : state) {
    label_allocator alloc;
    for (int i = 0; i < 1024; ++i) {
      auto label = alloc.on_spawn();
      benchmark::DoNotOptimize(label);
      benchmark::DoNotOptimize(alloc.on_terminate());
    }
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_LabelSpawnTerminate);

// Builds a graph of Arg vertices, the vertex vector's growth included. The
// graph reserves 1,024 vertices; 131,073 is crypt-tasks' task count, one
// past a power of two, so the last doubling is timed too.
void BM_CreateTask(benchmark::State& state) {
  const auto vertices = state.range(0);
  for (auto _ : state) {
    reachability_graph g;
    const task_id root = g.create_root();
    for (std::int64_t i = 1; i < vertices; ++i) {
      benchmark::DoNotOptimize(g.create_task(root));
    }
  }
  state.SetItemsProcessed(state.iterations() * vertices);
}
BENCHMARK(BM_CreateTask)->Arg(1024)->Arg(131073);

void BM_FinishJoinMerge(benchmark::State& state) {
  for (auto _ : state) {
    reachability_graph g;
    const task_id root = g.create_root();
    for (int i = 0; i < 1024; ++i) {
      const task_id c = g.create_task(root);
      g.on_terminate(c);
      g.on_finish_join(root, c);
    }
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_FinishJoinMerge);

// PRECEDE via the same-set fast path.
void BM_PrecedeSameSet(benchmark::State& state) {
  reachability_graph g;
  const task_id root = g.create_root();
  const task_id c = g.create_task(root);
  g.on_terminate(c);
  g.on_finish_join(root, c);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.precedes(c, root));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrecedeSameSet);

// PRECEDE via interval subsumption (live ancestor).
void BM_PrecedeSubsumption(benchmark::State& state) {
  reachability_graph g;
  task_id cur = g.create_root();
  for (int i = 0; i < 64; ++i) cur = g.create_task(cur);
  const task_id root = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.precedes(root, cur));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrecedeSubsumption);

// PRECEDE answered negatively for a parallel sibling (single nt scan).
void BM_PrecedeParallelSibling(benchmark::State& state) {
  reachability_graph g;
  const task_id root = g.create_root();
  const task_id a = g.create_task(root);
  g.on_terminate(a);
  const task_id b = g.create_task(root);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.precedes(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrecedeParallelSibling);

// PRECEDE across a chain of non-tree joins of the given length: the
// (n+1)-factor of Theorem 1's query bound. With `memoized` true the repeated
// query is answered from the PRECEDE memo table (the hot-loop case every
// read in a stencil workload hits); with it false every iteration walks the
// whole chain.
void precede_nt_chain(benchmark::State& state, bool memoized) {
  const auto hops = static_cast<std::size_t>(state.range(0));
  reachability_graph g;
  g.set_memo_enabled(memoized);
  const task_id root = g.create_root();
  std::vector<task_id> chain;
  for (std::size_t i = 0; i <= hops; ++i) {
    const task_id t = g.create_task(root);
    if (!chain.empty()) g.on_get(t, chain.back());
    g.on_terminate(t);
    chain.push_back(t);
  }
  // Query: does the head of the chain precede a fresh task that joined only
  // the tail? Answering requires walking the whole chain.
  const task_id cur = g.create_task(root);
  g.on_get(cur, chain.back());
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.precedes(chain.front(), cur));
  }
  state.SetItemsProcessed(state.iterations());
}
void BM_PrecedeNtChain(benchmark::State& state) {
  precede_nt_chain(state, /*memoized=*/false);
}
BENCHMARK(BM_PrecedeNtChain)->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_PrecedeNtChainMemoized(benchmark::State& state) {
  precede_nt_chain(state, /*memoized=*/true);
}
BENCHMARK(BM_PrecedeNtChainMemoized)->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

// The union-find pointer chase itself: nested finishes join each singleton
// parent set under its (larger) descendant set, so the UF parent chain
// grows one hop per nesting level, and the first PRECEDE query after the
// innermost finish walks the whole chain cold. find() path-halves as it
// walks — two loads per hop (parent, then grandparent) — so this bench
// pins the loads-per-hop constant: a regression to the naive three-load
// find shows up directly in ns/hop. The graph is rebuilt outside the timed
// region each iteration to keep the chain un-halved.
void BM_PrecedeDeepChain(benchmark::State& state) {
  const auto hops = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    reachability_graph g;
    const task_id root = g.create_root();
    std::vector<task_id> spine{root};
    for (std::size_t i = 0; i < hops; ++i) {
      spine.push_back(g.create_task(spine.back()));
    }
    for (std::size_t i = hops; i >= 1; --i) {
      g.on_terminate(spine[i]);
      g.on_finish_join(spine[i - 1], spine[i]);
    }
    const task_id cur = g.create_task(root);
    state.ResumeTiming();
    benchmark::DoNotOptimize(g.precedes(spine[1], cur));
  }
  state.SetItemsProcessed(state.iterations() * hops);
}
BENCHMARK(BM_PrecedeDeepChain)->Arg(64)->Arg(512)->Arg(4096);

// Non-tree predecessor fan-in: each consumer get()s `fan` sibling futures,
// so its set's nt list holds `fan` entries. The Table 2 stencil consumers
// hold up to 5 (Jacobi: own tile + 4 neighbours; Smith-Waterman: 3;
// Strassen combine: 4), which sizes small_vector's inline nt capacity —
// the Arg values cross the inline/heap boundary to expose the allocation
// cliff if the capacity regresses.
void BM_PrecedeNtFanIn(benchmark::State& state) {
  const auto fan = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t k_consumers = 128;
  std::vector<task_id> producers;
  producers.reserve(64);
  for (auto _ : state) {
    reachability_graph g;
    const task_id root = g.create_root();
    for (std::size_t c = 0; c < k_consumers; ++c) {
      producers.clear();
      for (std::size_t i = 0; i < fan; ++i) {
        const task_id p = g.create_task(root);
        g.on_terminate(p);
        producers.push_back(p);
      }
      const task_id consumer = g.create_task(root);
      for (const task_id p : producers) g.on_get(consumer, p);
      benchmark::DoNotOptimize(g.precedes(producers.front(), consumer));
      g.on_terminate(consumer);
    }
  }
  state.SetItemsProcessed(state.iterations() * k_consumers * fan);
}
BENCHMARK(BM_PrecedeNtFanIn)->Arg(2)->Arg(5)->Arg(8)->Arg(32);

// Union-find pressure: wide finish with path compression afterwards.
void BM_WideFinishThenQueries(benchmark::State& state) {
  const auto width = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    reachability_graph g;
    const task_id root = g.create_root();
    std::vector<task_id> kids;
    for (std::size_t i = 0; i < width; ++i) {
      const task_id c = g.create_task(root);
      g.on_terminate(c);
      kids.push_back(c);
    }
    for (const task_id c : kids) g.on_finish_join(root, c);
    const task_id cur = g.create_task(root);
    state.ResumeTiming();
    for (const task_id c : kids) {
      benchmark::DoNotOptimize(g.precedes(c, cur));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WideFinishThenQueries)->Arg(256)->Arg(4096);

}  // namespace

FUTRACE_BENCH_MAIN("BENCH_micro_dsr.json");
