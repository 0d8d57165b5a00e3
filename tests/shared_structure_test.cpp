// Differential tests for structure_mode::shared (DESIGN.md §15): one
// reachability graph behind a single-writer structure thread, shard
// checkers fencing on the admitted position and querying it under the
// structure mutex. Every observable outcome — verdict, race count,
// canonically-sorted reports, paper counters — must be identical to BOTH
// the serial inline run and the replicated parallel run of the same
// program, under every worker count, batch size, and fault plan.
//
// Suites:
//   SharedStructureDiff — racy traces: seeds x workers x faults
//                         (checker kill, structure-writer kill, tiny rings,
//                         refused allocation, epoch compaction, batching).
//   SharedStructureSafe — race-free traces; also the TSan CI fixture
//                         (ctest -R "SharedStructureSafe").

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "futrace/detect/parallel_pipeline.hpp"
#include "futrace/detect/race_detector.hpp"
#include "futrace/detect/race_report.hpp"
#include "futrace/inject/fault_injector.hpp"
#include "futrace/progen/program_trace.hpp"
#include "futrace/runtime/runtime.hpp"
#include "futrace/runtime/shared.hpp"

namespace futrace {
namespace {

using detect::parallel_detector;
using detect::race_detector;
using detect::structure_mode;

// --------------------------------------------------------------- harness

race_detector::options base_opts() {
  race_detector::options opts;
  opts.max_reports = 1u << 20;
  return opts;
}

parallel_detector::tuning shared_tune() {
  parallel_detector::tuning tune;
  tune.structure = structure_mode::shared;
  return tune;
}

struct report_sig {
  detect::race_kind kind;
  int var = -1;
  task_id first_task;
  task_id second_task;
  std::string first_file;
  std::uint32_t first_line;
  std::string second_file;
  std::uint32_t second_line;
  std::uint64_t occurrences;

  bool operator==(const report_sig&) const = default;
};

int var_index_of(const void* addr, const progen::program_trace& prog) {
  for (int i = 0; i < prog.num_vars(); ++i) {
    const char* base = static_cast<const char*>(prog.var_address(i));
    const char* p = static_cast<const char*>(addr);
    if (p >= base && p < base + sizeof(int)) return i;
  }
  return -1;
}

std::vector<report_sig> signatures(std::vector<detect::race_report> reports,
                                   const progen::program_trace& prog) {
  detect::sort_reports_canonical(reports);
  std::vector<report_sig> sigs;
  sigs.reserve(reports.size());
  for (const detect::race_report& r : reports) {
    sigs.push_back(report_sig{r.kind, var_index_of(r.location, prog),
                              r.first_task, r.second_task, r.first_site.file,
                              r.first_site.line, r.second_site.file,
                              r.second_site.line, r.occurrences});
  }
  return sigs;
}

void expect_paper_counters_equal(const detect::detector_counters& a,
                                 const detect::detector_counters& b,
                                 const std::string& label) {
  EXPECT_EQ(a.tasks, b.tasks) << label;
  EXPECT_EQ(a.async_tasks, b.async_tasks) << label;
  EXPECT_EQ(a.future_tasks, b.future_tasks) << label;
  EXPECT_EQ(a.continuation_tasks, b.continuation_tasks) << label;
  EXPECT_EQ(a.promise_puts, b.promise_puts) << label;
  EXPECT_EQ(a.get_operations, b.get_operations) << label;
  EXPECT_EQ(a.non_tree_joins, b.non_tree_joins) << label;
  EXPECT_EQ(a.shared_mem_accesses, b.shared_mem_accesses) << label;
  EXPECT_EQ(a.reads, b.reads) << label;
  EXPECT_EQ(a.writes, b.writes) << label;
  EXPECT_EQ(a.locations, b.locations) << label;
  EXPECT_EQ(a.races_observed, b.races_observed) << label;
  EXPECT_EQ(a.racy_locations, b.racy_locations) << label;
  EXPECT_EQ(a.untracked_accesses, b.untracked_accesses) << label;
  EXPECT_EQ(a.max_readers, b.max_readers) << label;
  EXPECT_DOUBLE_EQ(a.avg_readers, b.avg_readers) << label;
  EXPECT_EQ(a.degraded, b.degraded) << label;
}

struct serial_ref {
  bool detected = false;
  std::uint64_t count = 0;
  bool degraded = false;
  detect::detector_counters counters;
  std::vector<report_sig> sigs;
  std::size_t structure_bytes = 0;
};

serial_ref run_serial(progen::program_trace& prog,
                      race_detector::options opts) {
  race_detector det(opts);
  runtime rt({.mode = exec_mode::serial_dfs});
  rt.add_observer(&det);
  rt.run([&] { prog(); });
  serial_ref ref;
  ref.detected = det.race_detected();
  ref.count = det.race_count();
  ref.degraded = det.degraded();
  ref.counters = det.counters();
  ref.sigs = signatures(det.reports(), prog);
  ref.structure_bytes = det.structure_bytes();
  return ref;
}

serial_ref run_serial(progen::program_trace& prog) {
  return run_serial(prog, base_opts());
}

parallel_detector run_parallel(progen::program_trace& prog,
                               race_detector::options opts, unsigned workers,
                               parallel_detector::tuning tune) {
  parallel_detector det(opts, tune);
  runtime rt({.mode = exec_mode::parallel_detect, .workers = workers});
  rt.add_parallel_sink(&det);
  rt.run([&] { prog(); });
  return det;
}

parallel_detector run_shared(progen::program_trace& prog, unsigned workers,
                             parallel_detector::tuning tune = shared_tune()) {
  tune.structure = structure_mode::shared;
  return run_parallel(prog, base_opts(), workers, tune);
}

void expect_matches(const parallel_detector& det, const serial_ref& ref,
                    const progen::program_trace& prog,
                    const std::string& label) {
  EXPECT_EQ(det.race_detected(), ref.detected) << label;
  EXPECT_EQ(det.race_count(), ref.count) << label;
  EXPECT_EQ(det.degraded(), ref.degraded) << label;
  expect_paper_counters_equal(det.counters(), ref.counters, label);
  EXPECT_EQ(signatures(det.reports(), prog), ref.sigs) << label;
  EXPECT_EQ(det.par_stats().infeasible_gets, 0u) << label;
  EXPECT_EQ(det.par_stats().dropped_events, 0u) << label;
}

progen::trace_config racy_config(std::uint64_t seed) {
  progen::trace_config cfg;
  cfg.seed = seed;
  return cfg;
}

/// Long bodies dominated by accesses: runs of accesses between structure
/// events outgrow the publish batch, so producers fill batches and mostly
/// hold a partly filled one; the run also outlasts a checker kill.
progen::trace_config access_heavy_config(std::uint64_t seed) {
  progen::trace_config cfg = racy_config(seed);
  cfg.min_stmts = 32;
  cfg.max_stmts = 96;
  cfg.max_tasks = 200;
  cfg.w_read = 16.0;
  cfg.w_write = 12.0;
  cfg.w_range_read = 4.0;
  cfg.w_range_write = 3.0;
  return cfg;
}

progen::trace_config safe_config(std::uint64_t seed) {
  progen::trace_config cfg;
  cfg.seed = seed;
  cfg.race_free = true;
  return cfg;
}

// ----------------------------------------------- SharedStructureDiff suite

/// Core matrix: shared mode must match serial AND the replicated pipeline
/// across seeds x workers. precede_queries — the sum of the checkers'
/// access-time queries — must reproduce the serial count exactly (no
/// compaction in this config).
TEST(SharedStructureDiff, MatchesSerialAndReplicatedAcrossMatrix) {
  for (const std::uint64_t seed : {2u, 11u, 29u, 47u, 83u}) {
    progen::program_trace prog(racy_config(seed));
    const serial_ref ref = run_serial(prog);
    for (const unsigned workers : {1u, 2u, 4u}) {
      const std::string label = "seed=" + std::to_string(seed) +
                                " workers=" + std::to_string(workers);
      parallel_detector det = run_shared(prog, workers);
      EXPECT_TRUE(det.parallel_active());
      expect_matches(det, ref, prog, label);
      EXPECT_EQ(det.counters().precede_queries, ref.counters.precede_queries)
          << label;
      EXPECT_GT(det.par_stats().structure_events, 0u) << label;

      parallel_detector rep = run_parallel(prog, base_opts(), workers, {});
      expect_matches(rep, ref, prog, label + " (replicated)");
      expect_paper_counters_equal(det.counters(), rep.counters(),
                                  label + " shared-vs-replicated");
    }
  }
}

/// Checker count decoupled from worker count, including one shard (where
/// the fence is a single-consumer handshake).
TEST(SharedStructureDiff, CheckerCountIndependent) {
  progen::program_trace prog(racy_config(7));
  const serial_ref ref = run_serial(prog);
  for (const unsigned checkers : {1u, 2u, 3u}) {
    parallel_detector::tuning tune = shared_tune();
    tune.checkers = checkers;
    parallel_detector det = run_shared(prog, 4, tune);
    expect_matches(det, ref, prog, "checkers=" + std::to_string(checkers));
  }
}

/// Tiny rings exercise producer backpressure with the writer as one more
/// consumer of every ring, plus the writer's drain-while-fenced path.
TEST(SharedStructureDiff, TinyRingBackpressure) {
  progen::program_trace prog(racy_config(13));
  const serial_ref ref = run_serial(prog);
  parallel_detector::tuning tune = shared_tune();
  tune.ring_capacity = 8;
  parallel_detector det = run_shared(prog, 4, tune);
  expect_matches(det, ref, prog, "ring=8");
}

/// Staged publish must be invariant: batch boundaries only move events
/// between release stores, never across a structure terminator. Ring
/// capacity moves the boundaries — below the publish batch every publish
/// is a flush before a wait for space; above it, full batches publish on
/// their own — so sweep it in both structure modes.
TEST(SharedStructureDiff, BatchSizeInvariant) {
  progen::program_trace prog(racy_config(19));
  const serial_ref ref = run_serial(prog);
  for (const std::size_t ring : {std::size_t{2}, std::size_t{8},
                                 std::size_t{32}, std::size_t{64}}) {
    const std::string label = "ring=" + std::to_string(ring);
    parallel_detector::tuning tune = shared_tune();
    tune.ring_capacity = ring;
    parallel_detector det = run_shared(prog, 4, tune);
    expect_matches(det, ref, prog, label);
    tune.structure = structure_mode::replicated;
    parallel_detector rep = run_parallel(prog, base_opts(), 4, tune);
    expect_matches(rep, ref, prog, label + " (replicated)");
  }
}

/// Steal perturbation + forced yields reorder arrival without reordering
/// DAG position; the partially-applied-structure regression guard — a
/// checker must never query graph state past (or short of) an access's
/// run — would trip here as a verdict/count mismatch if the two-sided
/// fence were broken.
TEST(SharedStructureDiff, StealPerturbationAndPartialStructureGuard) {
  progen::program_trace prog(racy_config(31));
  const serial_ref ref = run_serial(prog);
  for (const std::uint64_t fault_seed : {1u, 5u, 9u}) {
    inject::fault_plan plan;
    plan.seed = fault_seed;
    plan.perturb_steals = true;
    plan.yield_every = 3;
    inject::fault_injector inj(plan);
    inject::scoped_injector guard(inj);
    parallel_detector::tuning tune = shared_tune();
    tune.ring_capacity = 16;  // keep the admitted position hot
    parallel_detector det = run_shared(prog, 4, tune);
    expect_matches(det, ref, prog,
                   "fault_seed=" + std::to_string(fault_seed));
  }
}

/// A checker killed mid-stream: the writer services the dead shard (so
/// neither producers nor the fence wedge) and finalize finishes its runs.
/// The access-heavy program makes producers hold staged accesses for the
/// dead shard when the kill lands.
TEST(SharedStructureDiff, CheckerKillServicedByWriter) {
  for (const progen::trace_config& cfg :
       {racy_config(53), access_heavy_config(53)}) {
    progen::program_trace prog(cfg);
    const serial_ref ref = run_serial(prog);
    for (const std::uint64_t kill_at : {1u, 40u, 400u, 2000u}) {
      inject::fault_plan plan;
      plan.pipe_kill_at = kill_at;
      inject::fault_injector inj(plan);
      inject::scoped_injector guard(inj);
      parallel_detector det = run_shared(prog, 4);
      const std::string label = "stmts<=" + std::to_string(cfg.max_stmts) +
                                " kill_at=" + std::to_string(kill_at);
      expect_matches(det, ref, prog, label);
      if (inj.snapshot().pipe_kills > 0) {
        EXPECT_GT(det.pipe_stats().workers_died, 0u) << label;
      }
    }
  }
}

/// The structure writer killed mid-stream: producers spill structure,
/// finalize replays the tail single-threaded. Verdicts stay exact; only
/// the worker-death reasons bit is set (degraded() itself matches serial).
TEST(SharedStructureDiff, StructureWriterKillFallsBackExactly) {
  progen::program_trace prog(racy_config(61));
  const serial_ref ref = run_serial(prog);
  for (const std::uint64_t kill_at : {1u, 5u, 50u}) {
    inject::fault_plan plan;
    plan.pipe_structure_kill_at = kill_at;
    inject::fault_injector inj(plan);
    inject::scoped_injector guard(inj);
    parallel_detector det = run_shared(prog, 4);
    const std::string label = "structure_kill_at=" + std::to_string(kill_at);
    expect_matches(det, ref, prog, label);
    if (inj.snapshot().pipe_structure_kills > 0) {
      EXPECT_EQ(det.par_stats().structure_writer_died, 1u) << label;
      EXPECT_NE(det.counters().degradation_reasons &
                    detect::k_degraded_worker_death,
                0u)
          << label;
    }
  }
}

/// Epoch compaction stays writer-side, inside the fence: checkers never
/// observe a half-compacted id space. Serial runs with the same interval
/// compact at the same quiescent points, so verdicts and paper counters
/// still match exactly.
TEST(SharedStructureDiff, EpochCompactionWriterSide) {
  progen::program_trace prog(racy_config(43));
  race_detector::options opts = base_opts();
  opts.epoch_reset_interval = 8;
  const serial_ref ref = run_serial(prog, opts);
  parallel_detector det = run_parallel(prog, opts, 4, shared_tune());
  expect_matches(det, ref, prog, "epoch_interval=8");
}

/// Refused ring allocation: buffer mode with a dead writer from the start;
/// everything spills and finalize replays the full lockstep protocol
/// single-threaded.
TEST(SharedStructureDiff, RingAllocationRefusedBuffersEverything) {
  progen::program_trace prog(racy_config(71));
  const serial_ref ref = run_serial(prog);
  inject::fault_plan plan;
  plan.fail_alloc_at = 1;
  inject::fault_injector inj(plan);
  inject::scoped_injector guard(inj);
  parallel_detector det = run_shared(prog, 2);
  expect_matches(det, ref, prog, "buffer-mode");
  EXPECT_EQ(det.pipe_stats().ring_capacity, 0u);
  EXPECT_GT(det.pipe_stats().inline_fallbacks, 0u);
}

/// The memory claim itself: one shared graph instead of W replicas. The
/// shared footprint must stay within 1.3x of a single serial detector's
/// structure and strictly under the replicated W-fold sum.
TEST(SharedStructureDiff, SharedGraphMemoryCollapsesWFold) {
  progen::program_trace prog(racy_config(29));
  const serial_ref ref = run_serial(prog);
  parallel_detector det = run_shared(prog, 4);
  parallel_detector rep = run_parallel(prog, base_opts(), 4, {});
  const std::size_t shared_bytes = det.structure_bytes();
  const std::size_t replicated_bytes = rep.structure_bytes();
  EXPECT_GT(shared_bytes, 0u);
  EXPECT_LE(shared_bytes, ref.structure_bytes + ref.structure_bytes * 3 / 10)
      << "shared=" << shared_bytes << " serial=" << ref.structure_bytes;
  EXPECT_LT(shared_bytes, replicated_bytes)
      << "shared=" << shared_bytes << " replicated=" << replicated_bytes;
  EXPECT_EQ(det.pipe_stats().shared_graph_bytes, shared_bytes);
  EXPECT_EQ(rep.pipe_stats().shared_graph_bytes, 0u);
}

// ----------------------------------------------- SharedStructureSafe suite
//
// Race-free traces: the shared-mode wire + fence protocol must be
// ThreadSanitizer-clean under any schedule. The CI tsan job runs exactly
// this suite (ctest -R "SharedStructureSafe").

TEST(SharedStructureSafe, RaceFreeTracesStayClean) {
  for (const std::uint64_t seed : {3u, 17u, 59u}) {
    progen::program_trace prog(safe_config(seed));
    const serial_ref ref = run_serial(prog);
    ASSERT_FALSE(ref.detected);
    for (const unsigned workers : {2u, 4u}) {
      parallel_detector det = run_shared(prog, workers);
      expect_matches(det, ref, prog,
                     "seed=" + std::to_string(seed) +
                         " workers=" + std::to_string(workers));
    }
  }
}

TEST(SharedStructureSafe, PerturbedSchedulesStayClean) {
  progen::program_trace prog(safe_config(23));
  const serial_ref ref = run_serial(prog);
  for (const std::uint64_t fault_seed : {2u, 8u}) {
    inject::fault_plan plan;
    plan.seed = fault_seed;
    plan.perturb_steals = true;
    plan.yield_every = 2;
    inject::fault_injector inj(plan);
    inject::scoped_injector guard(inj);
    parallel_detector det = run_shared(prog, 4);
    expect_matches(det, ref, prog,
                   "fault_seed=" + std::to_string(fault_seed));
  }
}

TEST(SharedStructureSafe, WriterAndCheckerDeathStayClean) {
  progen::program_trace prog(safe_config(41));
  const serial_ref ref = run_serial(prog);
  {
    inject::fault_plan plan;
    plan.pipe_structure_kill_at = 10;
    inject::fault_injector inj(plan);
    inject::scoped_injector guard(inj);
    parallel_detector det = run_shared(prog, 4);
    expect_matches(det, ref, prog, "writer-kill");
  }
  {
    inject::fault_plan plan;
    plan.pipe_kill_at = 10;
    inject::fault_injector inj(plan);
    inject::scoped_injector guard(inj);
    parallel_detector det = run_shared(prog, 4);
    expect_matches(det, ref, prog, "checker-kill");
  }
}

}  // namespace
}  // namespace futrace
