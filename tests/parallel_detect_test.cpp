// Differential tests for parallel-execution detection (exec_mode::
// parallel_detect + detect::parallel_detector): the program executes for
// real on the work-stealing engine while shard checkers detect races
// concurrently, and every observable outcome — verdict, race count,
// canonically-sorted reports, paper counters — must be identical to the
// serial inline run of the *same* program. Programs come from
// progen::program_trace, whose statement trees are frozen at construction
// so serial and parallel runs execute the same program by construction.
//
// Suites:
//   ParDetectDiff       — racy traces, seeds x workers x faults.
//   ParallelDetectSafe  — race-free traces; also the TSan CI fixture
//                         (ctest -R "ParallelDetectSafe").

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

// --------------------------------------------------------------- harness

race_detector::options base_opts() {
  race_detector::options opts;
  // Differential runs compare full report lists; never hit the cap.
  opts.max_reports = 1u << 20;
  return opts;
}

/// Address-free, schedule-independent identity of one report. Locations are
/// mapped to variable indices via the trace's stable var addresses; task
/// ids are serial dense ids, which the parallel replayer reconstructs.
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
};

serial_ref run_serial(progen::program_trace& prog) {
  race_detector det(base_opts());
  runtime rt({.mode = exec_mode::serial_dfs});
  rt.add_observer(&det);
  rt.run([&] { prog(); });
  serial_ref ref;
  ref.detected = det.race_detected();
  ref.count = det.race_count();
  ref.degraded = det.degraded();
  ref.counters = det.counters();
  ref.sigs = signatures(det.reports(), prog);
  return ref;
}

parallel_detector run_parallel(progen::program_trace& prog, unsigned workers,
                               parallel_detector::tuning tune = {}) {
  parallel_detector det(base_opts(), tune);
  runtime rt({.mode = exec_mode::parallel_detect, .workers = workers});
  rt.add_parallel_sink(&det);
  rt.run([&] { prog(); });
  return det;
}

void expect_matches(const parallel_detector& det, const serial_ref& ref,
                    const progen::program_trace& prog,
                    const std::string& label) {
  EXPECT_EQ(det.race_detected(), ref.detected) << label;
  EXPECT_EQ(det.race_count(), ref.count) << label;
  EXPECT_EQ(det.degraded(), ref.degraded) << label;
  expect_paper_counters_equal(det.counters(), ref.counters, label);
  EXPECT_EQ(signatures(det.reports(), prog), ref.sigs) << label;
  // program_trace gets are serially feasible by construction.
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

// ---------------------------------------------------- ParDetectDiff suite

/// Core matrix: seeds x engine workers {1, 2, 4}.
TEST(ParDetectDiff, MatchesSerialAcrossWorkersAndBackends) {
  for (const std::uint64_t seed : {2u, 11u, 29u, 47u, 83u}) {
    progen::program_trace prog(racy_config(seed));
    const serial_ref ref = run_serial(prog);
    for (const unsigned workers : {1u, 2u, 4u}) {
      parallel_detector det = run_parallel(prog, workers);
      EXPECT_TRUE(det.parallel_active());
      expect_matches(det, ref, prog,
                     "seed=" + std::to_string(seed) +
                         " workers=" + std::to_string(workers));
    }
  }
}

/// Checker-count decoupled from worker count (W != P), including one shard.
TEST(ParDetectDiff, CheckerCountIndependent) {
  progen::program_trace prog(racy_config(7));
  const serial_ref ref = run_serial(prog);
  for (const unsigned checkers : {1u, 2u, 3u}) {
    parallel_detector::tuning tune;
    tune.checkers = checkers;
    parallel_detector det = run_parallel(prog, 4, tune);
    expect_matches(det, ref, prog,
                   "checkers=" + std::to_string(checkers));
  }
}

/// A tiny ring forces the producer backpressure path without faults.
TEST(ParDetectDiff, TinyRingBackpressure) {
  progen::program_trace prog(racy_config(13));
  const serial_ref ref = run_serial(prog);
  parallel_detector::tuning tune;
  tune.ring_capacity = 8;
  parallel_detector det = run_parallel(prog, 4, tune);
  expect_matches(det, ref, prog, "ring=8");
}

/// Schedule perturbation (seeded steal victims + forced yields) must not
/// change any detection outcome: the merge key is DAG position, not arrival
/// order.
TEST(ParDetectDiff, StealPerturbationInvariant) {
  progen::program_trace prog(racy_config(31));
  const serial_ref ref = run_serial(prog);
  for (const std::uint64_t fault_seed : {1u, 5u, 9u}) {
    inject::fault_plan plan;
    plan.seed = fault_seed;
    plan.perturb_steals = true;
    plan.yield_every = 3;
    inject::fault_injector inj(plan);
    inject::scoped_injector guard(inj);
    parallel_detector det = run_parallel(prog, 4);
    expect_matches(det, ref, prog,
                   "fault_seed=" + std::to_string(fault_seed));
  }
}

/// A checker killed mid-stream hands its heads to the producers, which move
/// its unread events to its spill when they need the slots; finalize
/// replays spill-then-ring inline. No event may be lost. The access-heavy
/// program keeps the rings full when the kill lands, so producers spill.
TEST(ParDetectDiff, CheckerKillDegradesToInlineTakeover) {
  for (const progen::trace_config& cfg :
       {racy_config(53), access_heavy_config(53)}) {
    progen::program_trace prog(cfg);
    const serial_ref ref = run_serial(prog);
    for (const std::uint64_t kill_at : {1u, 40u, 400u, 2000u}) {
      inject::fault_plan plan;
      plan.pipe_kill_at = kill_at;
      inject::fault_injector inj(plan);
      inject::scoped_injector guard(inj);
      parallel_detector det = run_parallel(prog, 4);
      const std::string label = "stmts<=" + std::to_string(cfg.max_stmts) +
                                " kill_at=" + std::to_string(kill_at);
      expect_matches(det, ref, prog, label);
      if (inj.snapshot().pipe_kills > 0) {
        EXPECT_GT(det.pipe_stats().workers_died, 0u) << label;
        EXPECT_GT(det.par_stats().takeover_events, 0u) << label;
        EXPECT_GT(det.pipe_stats().inline_fallbacks, 0u) << label;
      }
    }
  }
}

/// Stalled checkers back events up into the rings; forced-full pushes spin
/// the producer. Both are latency-only faults.
TEST(ParDetectDiff, StallAndForcedFullAreLatencyOnly) {
  progen::program_trace prog(racy_config(67));
  const serial_ref ref = run_serial(prog);
  {
    inject::fault_plan plan;
    plan.pipe_stall_at = 25;
    inject::fault_injector inj(plan);
    inject::scoped_injector guard(inj);
    parallel_detector det = run_parallel(prog, 2);
    expect_matches(det, ref, prog, "stall_at=25");
  }
  {
    inject::fault_plan plan;
    plan.pipe_ring_full_at = 10;
    plan.pipe_ring_full_spins = 64;
    inject::fault_injector inj(plan);
    inject::scoped_injector guard(inj);
    parallel_detector det = run_parallel(prog, 2);
    expect_matches(det, ref, prog, "ring_full_at=10");
    EXPECT_GT(det.pipe_stats().backpressure_waits, 0u);
  }
}

/// Refused ring allocation falls back to buffer mode: no checker threads,
/// every event spilled, full replay at finalize. Slow but exact.
TEST(ParDetectDiff, RingAllocationRefusedBuffersEverything) {
  progen::program_trace prog(racy_config(71));
  const serial_ref ref = run_serial(prog);
  inject::fault_plan plan;
  plan.fail_alloc_at = 1;  // the ring block is the first gated allocation
  inject::fault_injector inj(plan);
  inject::scoped_injector guard(inj);
  parallel_detector det = run_parallel(prog, 2);
  expect_matches(det, ref, prog, "buffer-mode");
  EXPECT_EQ(det.pipe_stats().ring_capacity, 0u);
  EXPECT_GT(det.pipe_stats().inline_fallbacks, 0u);
}

/// Satellite 1 regression: repeated steal-perturbed parallel runs must
/// render byte-identical report listings (canonical order, not detection
/// order).
TEST(ParDetectDiff, ReportRenderingDeterministicUnderStealHeavySchedules) {
  progen::program_trace prog(racy_config(97));
  ASSERT_TRUE(run_serial(prog).detected);

  std::string first_rendering;
  for (int run = 0; run < 4; ++run) {
    inject::fault_plan plan;
    plan.seed = static_cast<std::uint64_t>(run) * 1315423911u + 1;
    plan.perturb_steals = true;
    plan.yield_every = 2;
    inject::fault_injector inj(plan);
    inject::scoped_injector guard(inj);
    parallel_detector det = run_parallel(prog, 4);
    std::string rendering;
    for (const detect::race_report& r : det.reports()) {
      // Addresses vary run to run only if the allocation moved; the same
      // trace object reuses its buffers, so full renderings compare.
      rendering += r.to_string();
      rendering += '\n';
    }
    if (run == 0) {
      first_rendering = rendering;
      EXPECT_FALSE(rendering.empty());
    } else {
      EXPECT_EQ(rendering, first_rendering) << "run=" << run;
    }
  }
}

// ----------------------------------------------- ParallelDetectSafe suite
//
// Race-free traces: every write action was converted to a read at
// generation, so the replay is ThreadSanitizer-clean under any schedule.
// The CI tsan-parallel-detect job runs exactly this suite.

TEST(ParallelDetectSafe, RaceFreeTracesStayClean) {
  for (const std::uint64_t seed : {3u, 17u, 59u}) {
    progen::program_trace prog(safe_config(seed));
    const serial_ref ref = run_serial(prog);
    EXPECT_FALSE(ref.detected) << "seed=" << seed;
    for (const unsigned workers : {2u, 4u}) {
      parallel_detector det = run_parallel(prog, workers);
      expect_matches(det, ref, prog,
                     "safe seed=" + std::to_string(seed) +
                         " workers=" + std::to_string(workers));
    }
  }
}

TEST(ParallelDetectSafe, PerturbedSchedulesStayClean) {
  progen::program_trace prog(safe_config(23));
  const serial_ref ref = run_serial(prog);
  ASSERT_FALSE(ref.detected);
  for (const std::uint64_t fault_seed : {2u, 8u}) {
    inject::fault_plan plan;
    plan.seed = fault_seed;
    plan.perturb_steals = true;
    plan.yield_every = 4;
    inject::fault_injector inj(plan);
    inject::scoped_injector guard(inj);
    parallel_detector det = run_parallel(prog, 4);
    expect_matches(det, ref, prog,
                   "safe fault_seed=" + std::to_string(fault_seed));
  }
}

/// Explicit shared state outside progen: a fork-join sum over disjoint
/// slices is race-free and must stay clean in parallel-detect mode.
TEST(ParallelDetectSafe, DisjointSlicesNoFalsePositives) {
  shared_array<int> data;
  const auto body = [&data] {
    data.assign(64, 1);
    finish([&data] {
      for (int t = 0; t < 4; ++t) {
        async([&data, t] {
          for (int i = t * 16; i < (t + 1) * 16; ++i) {
            data.write(i, data.read(i) + t);
          }
        });
      }
    });
    (void)data.read_range(0, 64);
  };

  race_detector serial_det(base_opts());
  {
    runtime rt({.mode = exec_mode::serial_dfs});
    rt.add_observer(&serial_det);
    rt.run(body);
  }
  EXPECT_FALSE(serial_det.race_detected());

  parallel_detector det(base_opts());
  runtime rt({.mode = exec_mode::parallel_detect, .workers = 4});
  rt.add_parallel_sink(&det);
  rt.run(body);
  EXPECT_FALSE(det.race_detected());
  expect_paper_counters_equal(det.counters(), serial_det.counters(),
                              "disjoint slices");
}

}  // namespace
}  // namespace futrace
