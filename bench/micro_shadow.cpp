// Micro-benchmarks for the shadow-memory path: one ptr_map lookup plus
// reader/writer checks per instrumented access — the dominant term in the
// Table 2 slowdowns.

#include <benchmark/benchmark.h>

#include <vector>

#include "bench_main.hpp"
#include "futrace/detect/race_detector.hpp"
#include "futrace/detect/shadow_memory.hpp"
#include "futrace/runtime/shared_regions.hpp"
#include "futrace/support/ptr_map.hpp"

namespace {

using futrace::access_site;
using futrace::detect::race_detector;
using futrace::detect::shadow_memory;
using futrace::support::ptr_map;

void BM_PtrMapHit(benchmark::State& state) {
  ptr_map<int> map;
  std::vector<int> keys(4096);
  for (auto& k : keys) map[&k] = 1;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.find(&keys[i]));
    i = (i + 1) & 4095;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PtrMapHit);

void BM_PtrMapMiss(benchmark::State& state) {
  ptr_map<int> map;
  std::vector<int> keys(4096), absent(4096);
  for (auto& k : keys) map[&k] = 1;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.find(&absent[i]));
    i = (i + 1) & 4095;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PtrMapMiss);

// Shadow lookup through the hashed ptr_map tier (scalar shared<T> path).
void BM_ShadowHashedAccess(benchmark::State& state) {
  shadow_memory shadow;
  std::vector<int> cells(4096);
  for (auto& c : cells) shadow.access(&c).writer = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(shadow.access(&cells[i]).writer);
    i = (i + 1) & 4095;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShadowHashedAccess);

// Same lookup served by a direct-mapped slab (registered shared_array range):
// one shift+index instead of a hash probe.
void BM_ShadowDirectAccess(benchmark::State& state) {
  std::vector<int> cells(4096);
  futrace::detail::register_shared_region(
      cells.data(), cells.size() * sizeof(int), sizeof(int));
  shadow_memory shadow;
  for (auto& c : cells) shadow.access(&c).writer = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(shadow.access(&cells[i]).writer);
    i = (i + 1) & 4095;
  }
  state.SetItemsProcessed(state.iterations());
  futrace::detail::unregister_shared_region(cells.data());
}
BENCHMARK(BM_ShadowDirectAccess);

// A detection run's fixed cost: build and destroy a default detector (its
// reachability graph, shadow memory and site table). Every inline run pays
// it once; a pipelined or parallel-detect run pays it once per replica.
void BM_DetectorConstruct(benchmark::State& state) {
  for (auto _ : state) {
    race_detector det;
    benchmark::DoNotOptimize(&det);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_DetectorConstruct);

// Detector driven directly through its observer interface: repeated writes
// by one task (the same-task fast path every sequential program hits).
void BM_DetectorSameTaskWrites(benchmark::State& state) {
  race_detector det;
  det.on_program_start(0);
  std::vector<int> cells(1024);
  const access_site site{"bench", 1};
  std::size_t i = 0;
  for (auto _ : state) {
    det.on_write(0, &cells[i], sizeof(int), site);
    i = (i + 1) & 1023;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DetectorSameTaskWrites);

// Read path with a prior ordered writer: one PRECEDE per read.
void BM_DetectorOrderedReadAfterWrite(benchmark::State& state) {
  race_detector det;
  det.on_program_start(0);
  std::vector<int> cells(1024);
  const access_site site{"bench", 1};
  for (auto& c : cells) det.on_write(0, &c, sizeof(int), site);
  std::size_t i = 0;
  for (auto _ : state) {
    det.on_read(0, &cells[i], sizeof(int), site);
    i = (i + 1) & 1023;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DetectorOrderedReadAfterWrite);

// Write path that must test a reader set of the given size (the v*(f+1)
// term): future readers joined through tree joins.
void BM_DetectorWriteOverFutureReaders(benchmark::State& state) {
  const auto readers = static_cast<std::size_t>(state.range(0));
  race_detector det;
  det.on_program_start(0);
  int cell = 0;
  const access_site site{"bench", 1};
  det.on_write(0, &cell, sizeof(int), site);
  std::vector<futrace::task_id> tasks;
  for (std::size_t i = 0; i < readers; ++i) {
    const futrace::task_id t = static_cast<futrace::task_id>(i + 1);
    det.on_task_spawn(0, t, futrace::task_kind::future);
    det.on_read(t, &cell, sizeof(int), site);
    det.on_task_end(t);
    tasks.push_back(t);
  }
  for (const auto t : tasks) det.on_get(0, t);  // tree joins: all ordered
  for (auto _ : state) {
    det.on_write(0, &cell, sizeof(int), site);
    state.PauseTiming();
    // Restore the reader set so every iteration pays the same cost.
    for (const auto t : tasks) det.on_read(t, &cell, sizeof(int), site);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DetectorWriteOverFutureReaders)->Arg(1)->Arg(4)->Arg(16);

// Reads elided by the per-cell (task, step) stamp: after the first read of
// each address, subsequent same-step reads skip the PRECEDE machinery.
void BM_DetectorStampElidedReads(benchmark::State& state) {
  race_detector det;
  det.on_program_start(0);
  int cell = 0;
  const access_site site{"bench", 1};
  det.on_write(0, &cell, sizeof(int), site);
  det.on_read(0, &cell, sizeof(int), site);  // first read sets the stamp
  for (auto _ : state) {
    det.on_read(0, &cell, sizeof(int), site);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DetectorStampElidedReads);

// The same loop with fast paths disabled: every read re-runs the full
// reader-set + PRECEDE check. The gap to BM_DetectorStampElidedReads is the
// stamp's payoff.
void BM_DetectorRepeatReadsNoFastpath(benchmark::State& state) {
  race_detector det({.enable_fastpath = false});
  det.on_program_start(0);
  int cell = 0;
  const access_site site{"bench", 1};
  det.on_write(0, &cell, sizeof(int), site);
  det.on_read(0, &cell, sizeof(int), site);
  for (auto _ : state) {
    det.on_read(0, &cell, sizeof(int), site);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DetectorRepeatReadsNoFastpath);

}  // namespace

FUTRACE_BENCH_MAIN("BENCH_micro_shadow.json");
