/// fault_soak: randomized fault-injection soak across all three engines.
///
/// For each seed the driver derives a deterministic fault plan and runs the
/// property-test program generator (serial modes) and two builtin
/// parallel-safe programs (parallel mode) under it, asserting the failure
/// model the runtime promises:
///
///   1. Determinism: the same (program seed, plan) produces byte-identical
///      outcomes on repeated serial depth-first runs.
///   2. Passivity: an installed injector with an empty plan changes nothing
///      relative to the uninstrumented baseline.
///   3. Mode agreement: serial elision and serial DFS suffer the same fault
///      at the same program point (same stats, same outcome class).
///   4. Detector robustness: injected allocation failures never change
///      program-side results; detector counters keep counting, the verdict
///      only loses (never invents) races, and degraded() reports it.
///   5. Cleanup: after any faulted run the ambient engine context is clear
///      and a fresh runtime works, in every mode — no hang, no leaked
///      worker, no leaked task (the engine destructor asserts this).
///
/// --stress-accesses N runs the resource-cap acceptance check instead: an
/// N-access trace against a byte-capped shadow memory plus an injected
/// allocation failure must complete, degrade gracefully, and keep counting.

#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "futrace/detect/parallel_pipeline.hpp"
#include "futrace/detect/pipeline.hpp"
#include "futrace/detect/race_detector.hpp"
#include "futrace/detect/suppressions.hpp"
#include "futrace/inject/fault_injector.hpp"
#include "futrace/obs/metrics.hpp"
#include "futrace/progen/program_trace.hpp"
#include "futrace/progen/random_program.hpp"
#include "futrace/runtime/runtime.hpp"
#include "futrace/support/flags.hpp"
#include "futrace/support/rng.hpp"

namespace {

using namespace futrace;

int g_failures = 0;
// Successful epoch compactions across every service-mode axis run; the soak
// fails if the axis was never actually exercised.
std::uint64_t g_epoch_resets = 0;

void fail(std::uint64_t seed, const char* invariant, const std::string& detail) {
  std::printf("FAIL seed=%llu %s: %s\n",
              static_cast<unsigned long long>(seed), invariant,
              detail.c_str());
  ++g_failures;
}

/// Everything observable about one run, for byte-level comparison.
struct outcome {
  bool completed = false;
  std::string error_kind;  // exception class, "" when completed
  std::string error_what;
  progen::progen_stats stats{};
  std::uint64_t det_reads = 0;
  std::uint64_t det_writes = 0;
  std::vector<int> racy_vars;  // indices into the program's variable array
  bool det_degraded = false;
};

bool stats_equal(const progen::progen_stats& a, const progen::progen_stats& b) {
  return a.reads == b.reads && a.writes == b.writes &&
         a.range_reads == b.range_reads && a.range_writes == b.range_writes &&
         a.gets == b.gets && a.asyncs == b.asyncs && a.futures == b.futures &&
         a.finishes == b.finishes && a.promises == b.promises &&
         a.puts == b.puts && a.promise_gets == b.promise_gets;
}

bool outcomes_equal(const outcome& a, const outcome& b) {
  return a.completed == b.completed && a.error_kind == b.error_kind &&
         a.error_what == b.error_what && stats_equal(a.stats, b.stats) &&
         a.det_reads == b.det_reads && a.det_writes == b.det_writes &&
         a.racy_vars == b.racy_vars && a.det_degraded == b.det_degraded;
}

std::string describe(const outcome& o) {
  if (o.completed) return "completed";
  return o.error_kind + ": " + o.error_what;
}

bool subset(const std::vector<int>& small, const std::vector<int>& big) {
  for (int v : small) {
    if (std::find(big.begin(), big.end(), v) == big.end()) return false;
  }
  return true;
}

/// Runs `fn` inside a fresh runtime and classifies the result.
template <typename Fn>
void classify(runtime& rt, outcome& out, Fn&& fn) {
  try {
    rt.run(fn);
    out.completed = true;
  } catch (const inject::injected_fault& e) {
    out.error_kind = "injected_fault";
    out.error_what = e.what();
  } catch (const detect::race_found_error& e) {
    out.error_kind = "race_found_error";
    out.error_what = e.what();
  } catch (const deadlock_error& e) {
    out.error_kind = "deadlock_error";
    out.error_what = e.what();
  } catch (const usage_error& e) {
    out.error_kind = "usage_error";
    out.error_what = e.what();
  } catch (const futrace::runtime_error& e) {
    out.error_kind = "runtime_error";
    out.error_what = e.what();
  } catch (const std::bad_alloc&) {
    out.error_kind = "bad_alloc";
  } catch (const std::exception& e) {
    out.error_kind = "exception";
    out.error_what = e.what();
  }
}

/// Service-mode knobs for run_serial (DESIGN.md §12 axes).
struct serial_run_opts {
  /// options::epoch_reset_interval for the attached detector.
  std::size_t epoch_interval = 0;
  /// options::suppressions for the attached detector.
  const detect::suppression_set* suppressions = nullptr;
  /// Run the program twice, each request in its own root-level finish: the
  /// boundary between the requests is the quiescent point epoch compaction
  /// needs (a bare progen run spawns unjoined root asyncs that keep every
  /// spawn point non-quiescent until program end).
  bool two_phase = false;
};

/// Service-mode observables run_serial can harvest alongside the outcome.
struct serial_run_extra {
  std::uint64_t epoch_resets = 0;
  std::uint64_t races_observed = 0;
  std::uint64_t suppressed = 0;
  std::size_t reports = 0;
  inject::fault_injector::counters fired{};
};

/// One serial execution of the generated program. `plan` may be null (no
/// injector installed); a detector is attached in serial_dfs mode only.
outcome run_serial(exec_mode mode, progen::random_program& prog,
                   const inject::fault_plan* plan,
                   const serial_run_opts& sopts = {},
                   serial_run_extra* extra = nullptr) {
  outcome out;
  std::unique_ptr<inject::fault_injector> inj;
  std::unique_ptr<inject::scoped_injector> guard;
  if (plan != nullptr) {
    inj = std::make_unique<inject::fault_injector>(*plan);
    guard = std::make_unique<inject::scoped_injector>(*inj);
  }
  detect::race_detector det({.epoch_reset_interval = sopts.epoch_interval,
                             .suppressions = sopts.suppressions});
  runtime rt({.mode = mode});
  if (mode == exec_mode::serial_dfs) rt.add_observer(&det);
  if (sopts.two_phase) {
    classify(rt, out, [&prog] {
      finish([&prog] { prog(); });
      finish([&prog] { prog(); });
    });
  } else {
    classify(rt, out, [&prog] { prog(); });
  }
  out.stats = prog.stats();
  if (mode == exec_mode::serial_dfs) {
    const auto c = det.counters();
    out.det_reads = c.reads;
    out.det_writes = c.writes;
    out.det_degraded = c.degraded;
    for (const void* addr : det.racy_locations()) {
      for (int i = 0; i < prog.num_vars(); ++i) {
        if (prog.var_address(i) == addr) out.racy_vars.push_back(i);
      }
    }
  }
  if (extra != nullptr) {
    extra->epoch_resets = det.epoch_resets();
    extra->races_observed = det.race_count();
    extra->suppressed = det.suppressed_races();
    extra->reports = det.reports().size();
    if (inj) extra->fired = inj->snapshot();
  }
  return out;
}

/// The ambient context must be clear and a fresh runtime must work after
/// every run, faulted or not.
void check_cleanup(std::uint64_t seed, exec_mode mode, const char* where) {
  if (detail::ctx().eng != nullptr) {
    fail(seed, where, "ambient engine context not cleared after run");
    return;
  }
  int observed = 0;
  runtime rt({.mode = mode, .workers = 2, .deadlock_timeout_ms = 5000});
  try {
    rt.run([&observed] {
      finish([&observed] {
        async([&observed] { observed = 1; });
      });
    });
  } catch (const std::exception& e) {
    fail(seed, where, std::string("fresh runtime failed after run: ") + e.what());
    return;
  }
  if (observed != 1) fail(seed, where, "fresh runtime lost a task");
}

/// Derives the serial-mode fault plan for a seed. Roughly half the plans
/// throw somewhere, a quarter deny allocations, the rest drop puts or stay
/// empty (control group).
inject::fault_plan serial_plan_for(std::uint64_t seed) {
  support::xoshiro256 rng(seed ^ 0xFA01D5EEDULL);
  inject::fault_plan p;
  p.seed = seed;
  switch (rng.below(8)) {
    case 0:
      p.throw_at_spawn = 1 + rng.below(40);
      break;
    case 1:
      p.throw_at_get = 1 + rng.below(60);
      break;
    case 2:
      p.throw_at_put = 1 + rng.below(10);
      break;
    case 3:
    case 4:
      p.fail_alloc_at = 1 + rng.below(64);
      if (rng.chance(0.5)) p.fail_alloc_every = 1 + rng.below(8);
      break;
    case 5:
      p.drop_put_at = 1 + rng.below(6);
      break;
    default:
      break;  // empty plan: control group
  }
  return p;
}

void soak_serial_seed(std::uint64_t seed) {
  progen::progen_config cfg;
  cfg.seed = seed;
  cfg.max_tasks = 120;
  progen::random_program prog(cfg);

  // Uninstrumented baseline, then the empty-plan passivity check.
  const outcome base = run_serial(exec_mode::serial_dfs, prog, nullptr);
  inject::fault_plan empty;
  empty.seed = seed;
  const outcome with_empty = run_serial(exec_mode::serial_dfs, prog, &empty);
  if (!outcomes_equal(base, with_empty)) {
    fail(seed, "passivity",
         "empty plan changed the run: " + describe(base) + " vs " +
             describe(with_empty));
  }

  // The seed's real plan: determinism across repeated DFS runs.
  const inject::fault_plan plan = serial_plan_for(seed);
  const outcome first = run_serial(exec_mode::serial_dfs, prog, &plan);
  check_cleanup(seed, exec_mode::serial_dfs, "serial-cleanup");
  const outcome second = run_serial(exec_mode::serial_dfs, prog, &plan);
  if (!outcomes_equal(first, second)) {
    fail(seed, "determinism",
         plan.describe() + ": " + describe(first) + " vs " + describe(second));
  }

  // Mode agreement: the elision engine executes the identical depth-first
  // order, so the same plan must fault the same program point. Allocation
  // faults are exempt from the stats comparison only in that elision has no
  // detector — but shadow degradation never aborts the program, so stats
  // still agree.
  const outcome elision = run_serial(exec_mode::serial_elision, prog, &plan);
  if (elision.completed != first.completed ||
      elision.error_kind != first.error_kind ||
      !stats_equal(elision.stats, first.stats)) {
    fail(seed, "mode-agreement",
         plan.describe() + ": elision " + describe(elision) + " vs dfs " +
             describe(first));
  }

  // Detector robustness under allocation faults: program-side results are
  // unchanged, counters keep counting, the verdict only loses races.
  if (plan.fail_alloc_at != 0) {
    if (first.completed != base.completed ||
        !stats_equal(first.stats, base.stats)) {
      fail(seed, "alloc-transparency",
           "allocation fault changed program behavior: " + describe(base) +
               " vs " + describe(first));
    }
    if (first.det_reads != base.det_reads ||
        first.det_writes != base.det_writes) {
      fail(seed, "alloc-counters", "degraded detector stopped counting");
    }
    if (!subset(first.racy_vars, base.racy_vars)) {
      fail(seed, "alloc-precision",
           "degraded detector invented a race not in the baseline");
    }
  }

  // ---- service-mode axes (DESIGN.md §12) -----------------------------------

  // Suppression transparency: a match-everything rule set must change no
  // program-side observable — races stay counted, racy_vars included — while
  // materializing zero reports.
  detect::suppression_set wildcard;
  std::string supp_err;
  if (!wildcard.parse("{\n accept-all\n}\n", &supp_err)) {
    fail(seed, "suppression-parse", supp_err);
    return;
  }
  serial_run_extra supx;
  const outcome suppressed = run_serial(exec_mode::serial_dfs, prog, nullptr,
                                        {.suppressions = &wildcard}, &supx);
  if (!outcomes_equal(suppressed, base)) {
    fail(seed, "suppression-transparency",
         "wildcard suppressions changed the run: " + describe(base) + " vs " +
             describe(suppressed));
  }
  if (supx.reports != 0) {
    fail(seed, "suppression-reports",
         "suppressed run still materialized " + std::to_string(supx.reports) +
             " report(s)");
  }
  if (supx.suppressed != supx.races_observed) {
    fail(seed, "suppression-accounting",
         "suppressed != races_observed under a match-everything set");
  }

  // Epoch-reset transparency under the seed's fault plan: compaction is
  // detector-internal, so outcomes must be byte-identical with and without
  // it. Allocation-ordinal plans are exempt — compaction frees and shrinks
  // shadow state, shifting the allocation-gate ordinal stream (the same
  // schedule-stability caveat the pipelined soak applies to alloc plans).
  if (plan.fail_alloc_at == 0) {
    serial_run_extra off_x, on_x;
    const outcome epoch_off = run_serial(exec_mode::serial_dfs, prog, &plan,
                                         {.two_phase = true}, &off_x);
    const outcome epoch_on =
        run_serial(exec_mode::serial_dfs, prog, &plan,
                   {.epoch_interval = 16, .two_phase = true}, &on_x);
    if (!outcomes_equal(epoch_off, epoch_on)) {
      fail(seed, "epoch-transparency",
           plan.describe() + ": " + describe(epoch_off) + " vs " +
               describe(epoch_on));
    }
    if (off_x.races_observed != on_x.races_observed ||
        off_x.reports != on_x.reports) {
      fail(seed, "epoch-verdict", "epoch reset changed race accounting");
    }
    g_epoch_resets += on_x.epoch_resets;
  }

  // A fault injected at the compaction site itself: deterministic across
  // runs, classified as injected_fault, and the ambient context stays clean.
  inject::fault_plan epoch_throw;
  epoch_throw.seed = seed;
  epoch_throw.throw_at_epoch_reset = 1 + static_cast<std::uint32_t>(seed % 3);
  serial_run_extra throw_x, throw_x2;
  const outcome throw_first =
      run_serial(exec_mode::serial_dfs, prog, &epoch_throw,
                 {.epoch_interval = 16, .two_phase = true}, &throw_x);
  check_cleanup(seed, exec_mode::serial_dfs, "epoch-throw-cleanup");
  const outcome throw_second =
      run_serial(exec_mode::serial_dfs, prog, &epoch_throw,
                 {.epoch_interval = 16, .two_phase = true}, &throw_x2);
  if (!outcomes_equal(throw_first, throw_second)) {
    fail(seed, "epoch-throw-determinism",
         epoch_throw.describe() + ": " + describe(throw_first) + " vs " +
             describe(throw_second));
  }
  if (throw_x.fired.thrown_epoch_reset > 0 &&
      throw_first.error_kind != "injected_fault") {
    fail(seed, "epoch-throw-class",
         "compaction-site fault fired but run ended as " +
             describe(throw_first));
  }
  if (throw_x.fired.thrown_epoch_reset == 0 && !throw_first.completed) {
    fail(seed, "epoch-throw-spurious",
         "run failed with no compaction-site fault fired: " +
             describe(throw_first));
  }
}

// ---- Parallel-safe builtin programs ----------------------------------------
// progen's generated programs mutate generator state from task bodies and are
// serial-only by design; the parallel soak uses these two instead.

int future_tree(int depth) {
  if (depth == 0) return 1;
  auto left = async_future([depth] { return future_tree(depth - 1); });
  auto right = async_future([depth] { return future_tree(depth - 1); });
  return left.get() + right.get();
}

int promise_pipeline(int stages) {
  std::vector<promise<int>> links(static_cast<std::size_t>(stages) + 1);
  finish([&links, stages] {
    for (int i = 1; i <= stages; ++i) {
      async([&links, i] { links[i].put(links[i - 1].get() + 1); });
    }
    links[0].put(0);
  });
  return links[static_cast<std::size_t>(stages)].get();
}

inject::fault_plan parallel_plan_for(std::uint64_t seed) {
  support::xoshiro256 rng(seed ^ 0x9A8A11E1ULL);
  inject::fault_plan p;
  p.seed = seed;
  if (rng.chance(0.5)) p.perturb_steals = true;
  if (rng.chance(0.4)) p.yield_every = 1 + static_cast<std::uint32_t>(rng.below(16));
  switch (rng.below(6)) {
    case 0:
      p.throw_at_spawn = 1 + rng.below(40);
      break;
    case 1:
      p.throw_at_get = 1 + rng.below(60);
      break;
    case 2:
      p.throw_at_put = 1 + rng.below(8);
      break;
    default:
      break;
  }
  // Dropped fulfillments force a real watchdog timeout per run; sample them.
  if (seed % 8 == 3) p.drop_put_at = 1 + rng.below(6);
  return p;
}

void soak_parallel_seed(std::uint64_t seed, std::uint32_t watchdog_ms) {
  const inject::fault_plan plan = parallel_plan_for(seed);
  inject::fault_injector inj(plan);
  const bool pipeline = seed % 2 == 1;
  const int depth = 5, stages = 24;
  const int expected = pipeline ? stages : 1 << depth;

  outcome out;
  {
    inject::scoped_injector guard(inj);
    runtime rt({.mode = exec_mode::parallel,
                .workers = 1 + static_cast<unsigned>(seed % 4),
                .deadlock_timeout_ms = watchdog_ms});
    int result = -1;
    classify(rt, out, [&result, pipeline, depth, stages] {
      result = pipeline ? promise_pipeline(stages) : future_tree(depth);
    });
    if (out.completed && result != expected) {
      fail(seed, "parallel-value",
           plan.describe() + ": got " + std::to_string(result) +
               ", expected " + std::to_string(expected));
    }
  }

  const auto fired = inj.snapshot();
  if (fired.faults_fired() == 0 && !out.completed) {
    fail(seed, "parallel-spurious",
         plan.describe() + ": failed with no fault fired: " + describe(out));
  }
  if (!out.completed && out.error_kind != "injected_fault" &&
      out.error_kind != "deadlock_error") {
    fail(seed, "parallel-error-class",
         plan.describe() + ": unexpected " + describe(out));
  }
  if (fired.dropped_puts > 0 && out.completed && pipeline) {
    fail(seed, "parallel-lost-put",
         plan.describe() + ": pipeline completed despite a dropped put");
  }
  check_cleanup(seed, exec_mode::parallel, "parallel-cleanup");
}

// ---- Pipelined-detector soak -----------------------------------------------
// Streams each progen program through the detect_threads=4 pipelined detector
// under a seeded pipe-fault plan (checker stall, checker kill, forced
// ring-full backpressure, or none — the control group), occasionally with a
// tiny ring so wraparound and backpressure happen under load.
// Invariants: program behavior is untouched, the run never deadlocks or
// drops events, verdicts / racy locations / paper counters are identical to
// the inline detector, and a killed checker's events are replayed at
// finalize — sticky and counted, still exact. Allocation-ordinal plans are
// deliberately excluded here: checker threads consult the allocation gate
// concurrently, so ordinal triggers are not schedule-stable in pipelined
// mode.

struct pipe_run {
  outcome out;
  detect::detector_counters det{};
  std::uint64_t race_count = 0;
  bool detected = false;
  detect::pipeline_stats pipe{};
  bool pipelined = false;
};

/// The Table 2 / verdict surface only: engine-tier diagnostics (direct or
/// hashed hit counts, memo rates) are layout-dependent and differ between
/// inline and sharded configurations by design.
bool paper_counters_equal(const detect::detector_counters& a,
                          const detect::detector_counters& b) {
  return a.tasks == b.tasks && a.async_tasks == b.async_tasks &&
         a.future_tasks == b.future_tasks &&
         a.continuation_tasks == b.continuation_tasks &&
         a.promise_puts == b.promise_puts &&
         a.get_operations == b.get_operations &&
         a.non_tree_joins == b.non_tree_joins &&
         a.shared_mem_accesses == b.shared_mem_accesses &&
         a.reads == b.reads && a.writes == b.writes &&
         a.avg_readers == b.avg_readers && a.max_readers == b.max_readers &&
         a.locations == b.locations && a.races_observed == b.races_observed &&
         a.racy_locations == b.racy_locations &&
         a.untracked_accesses == b.untracked_accesses &&
         a.degraded == b.degraded;
}

inject::fault_plan pipe_plan_for(std::uint64_t seed) {
  support::xoshiro256 rng(seed ^ 0x717E11FEULL);
  inject::fault_plan p;
  p.seed = seed;
  switch (rng.below(6)) {
    case 0:
    case 1:
      p.pipe_kill_at = 1 + rng.below(500);
      break;
    case 2:
      p.pipe_stall_at = 1 + rng.below(300);
      break;
    case 3:
      p.pipe_ring_full_at = 1 + rng.below(100);
      p.pipe_ring_full_spins = 32 + static_cast<std::uint32_t>(rng.below(256));
      break;
    default:
      break;  // control group: the pipeline under no faults at all
  }
  return p;
}

/// One serial_dfs execution checked through pipelined_detector. The caller
/// installs any injector; this only runs and harvests. `epoch_interval` and
/// `two_phase` mirror run_serial's service-mode knobs.
pipe_run run_pipelined(progen::random_program& prog, unsigned threads,
                       std::size_t ring_capacity,
                       std::size_t epoch_interval = 0,
                       bool two_phase = false) {
  pipe_run r;
  detect::race_detector::options opts;
  opts.detect_threads = threads;
  opts.epoch_reset_interval = epoch_interval;
  detect::pipelined_detector det(opts, {.ring_capacity = ring_capacity});
  runtime rt({.mode = exec_mode::serial_dfs});
  rt.add_observer(&det);
  if (two_phase) {
    classify(rt, r.out, [&prog] {
      finish([&prog] { prog(); });
      finish([&prog] { prog(); });
    });
  } else {
    classify(rt, r.out, [&prog] { prog(); });
  }
  r.out.stats = prog.stats();
  const auto c = det.counters();
  r.out.det_reads = c.reads;
  r.out.det_writes = c.writes;
  r.out.det_degraded = c.degraded;
  for (const void* addr : det.racy_locations()) {
    for (int i = 0; i < prog.num_vars(); ++i) {
      if (prog.var_address(i) == addr) r.out.racy_vars.push_back(i);
    }
  }
  r.det = c;
  r.race_count = det.race_count();
  r.detected = det.race_detected();
  r.pipe = det.pipe_stats();
  r.pipelined = det.pipelined();
  return r;
}

void soak_pipelined_seed(std::uint64_t seed) {
  progen::progen_config cfg;
  cfg.seed = seed;
  cfg.max_tasks = 120;
  progen::random_program prog(cfg);

  // Inline reference (detect_threads = 0): the verdict every pipelined run
  // must reproduce exactly.
  const pipe_run ref = run_pipelined(prog, 0, std::size_t{1} << 12);
  if (ref.pipelined) {
    fail(seed, "pipe-inline-ref", "detect_threads=0 spawned checker threads");
    return;
  }

  const inject::fault_plan plan = pipe_plan_for(seed);
  // A tiny ring every fourth seed forces wraparound and backpressure under
  // whatever fault is armed.
  const std::size_t ring = seed % 4 == 0 ? 64 : std::size_t{1} << 12;
  inject::fault_injector inj(plan);
  pipe_run run;
  {
    inject::scoped_injector guard(inj);
    run = run_pipelined(prog, 4, ring);
  }
  const auto fired = inj.snapshot();
  const std::string ctx =
      plan.describe() + " ring=" + std::to_string(ring) + ": ";

  // Pipe faults are detector-internal: the program's behavior and stats must
  // be byte-identical to the inline reference.
  if (run.out.completed != ref.out.completed ||
      run.out.error_kind != ref.out.error_kind ||
      !stats_equal(run.out.stats, ref.out.stats)) {
    fail(seed, "pipe-transparency",
         ctx + "pipelined run changed program behavior: " + describe(ref.out) +
             " vs " + describe(run.out));
  }

  // Verdict equality: detected flag, race count, racy variables, and every
  // paper-level counter. This is the determinism claim of DESIGN.md §10
  // under active fault injection.
  if (run.detected != ref.detected || run.race_count != ref.race_count) {
    fail(seed, "pipe-verdict",
         ctx + "race verdict diverged: inline " +
             std::to_string(ref.race_count) + " vs pipelined " +
             std::to_string(run.race_count));
  }
  if (run.out.racy_vars != ref.out.racy_vars) {
    fail(seed, "pipe-racy-vars",
         ctx + "racy variable sets diverged (" +
             std::to_string(ref.out.racy_vars.size()) + " vs " +
             std::to_string(run.out.racy_vars.size()) + ")");
  }
  if (!paper_counters_equal(run.det, ref.det)) {
    fail(seed, "pipe-counters", ctx + "paper counters diverged from inline");
  }

  // A killed checker must be detected, counted, and have its events
  // replayed at finalize without losing any (verdicts already compared
  // above).
  if (fired.pipe_kills > 0) {
    if (run.pipe.workers_died == 0) {
      fail(seed, "pipe-kill-uncounted",
           ctx + "worker kill fired but workers_died == 0");
    }
    if (run.pipe.inline_fallbacks == 0) {
      fail(seed, "pipe-kill-fallback",
           ctx + "worker kill fired but no event was applied inline");
    }
  } else if (run.pipe.workers_died != 0) {
    fail(seed, "pipe-spurious-death",
         ctx + "workers died with no kill fault armed");
  }

  // Forced ring-full must surface as backpressure spins, never anything else.
  if (fired.pipe_forced_fulls > 0 &&
      run.pipe.backpressure_waits < plan.pipe_ring_full_spins) {
    fail(seed, "pipe-backpressure",
         ctx + "forced ring-full fired but backpressure_waits=" +
             std::to_string(run.pipe.backpressure_waits));
  }

  // Control group: with no faults armed the pipeline must stay pipelined
  // end to end.
  if (!plan.any() && (!run.pipelined || run.pipe.inline_fallbacks != 0)) {
    fail(seed, "pipe-passivity",
         ctx + "fault-free pipelined run degraded to inline checking");
  }

  // Epoch compaction through the pipeline, under the same fault plan and a
  // two-request stream (the boundary between requests is the quiescent
  // point). Worker replicas compact in per-ring FIFO lockstep, so verdicts,
  // racy variables, and paper counters must match an inline, no-reset run of
  // the identical stream — including when the plan kills a checker mid-run.
  const pipe_run epoch_ref = run_pipelined(prog, 0, std::size_t{1} << 12, 0,
                                           /*two_phase=*/true);
  inject::fault_injector epoch_inj(plan);
  pipe_run epoch_run;
  {
    inject::scoped_injector guard(epoch_inj);
    epoch_run = run_pipelined(prog, 4, ring, /*epoch_interval=*/16,
                              /*two_phase=*/true);
  }
  if (epoch_run.detected != epoch_ref.detected ||
      epoch_run.race_count != epoch_ref.race_count) {
    fail(seed, "pipe-epoch-verdict",
         ctx + "race verdict diverged under epoch reset: inline " +
             std::to_string(epoch_ref.race_count) + " vs pipelined " +
             std::to_string(epoch_run.race_count));
  }
  if (epoch_run.out.racy_vars != epoch_ref.out.racy_vars) {
    fail(seed, "pipe-epoch-racy-vars",
         ctx + "racy variable sets diverged under epoch reset");
  }
  if (!paper_counters_equal(epoch_run.det, epoch_ref.det)) {
    fail(seed, "pipe-epoch-counters",
         ctx + "paper counters diverged under epoch reset");
  }
  g_epoch_resets += epoch_run.det.epoch_resets;

  check_cleanup(seed, exec_mode::serial_dfs, "pipe-cleanup");
}

// ---- Parallel-detect soak: work-stealing execution + concurrent checkers ---

/// Verdict-relevant outcome of one run of a frozen program_trace.
struct pardetect_run {
  bool detected = false;
  std::uint64_t race_count = 0;
  std::vector<int> racy_vars;
  detect::detector_counters det;
  detect::pipeline_stats pipe{};
  detect::parallel_pipeline_stats par{};
};

std::vector<int> trace_racy_vars(const std::vector<const void*>& locs,
                                 const progen::program_trace& prog) {
  std::vector<int> vars;
  for (const void* addr : locs) {
    for (int i = 0; i < prog.num_vars(); ++i) {
      if (prog.var_address(i) == addr) vars.push_back(i);
    }
  }
  std::sort(vars.begin(), vars.end());
  return vars;
}

inject::fault_plan pardetect_plan_for(std::uint64_t seed) {
  support::xoshiro256 rng(seed ^ 0x9A8A11E1ULL);
  inject::fault_plan p;
  p.seed = seed;
  // Schedule perturbation rides along independently of the transport fault,
  // so kills and stalls land under shuffled steal orders too.
  if (rng.chance(0.5)) p.perturb_steals = true;
  if (rng.chance(0.4)) p.yield_every = 2 + static_cast<std::uint32_t>(rng.below(6));
  switch (rng.below(6)) {
    case 0:
    case 1:
      p.pipe_kill_at = 1 + rng.below(500);
      break;
    case 2:
      p.pipe_stall_at = 1 + rng.below(300);
      break;
    case 3:
      p.pipe_ring_full_at = 1 + rng.below(100);
      p.pipe_ring_full_spins = 32 + static_cast<std::uint32_t>(rng.below(256));
      break;
    default:
      break;  // control group: parallel-detect under no faults at all
  }
  return p;
}

pardetect_run run_pardetect(progen::program_trace& prog, unsigned workers,
                            std::size_t ring_capacity) {
  detect::parallel_detector det({}, {.ring_capacity = ring_capacity});
  runtime rt({.mode = exec_mode::parallel_detect, .workers = workers});
  rt.add_parallel_sink(&det);
  rt.run([&prog] { prog(); });
  pardetect_run r;
  r.detected = det.race_detected();
  r.race_count = det.race_count();
  r.racy_vars = trace_racy_vars(det.racy_locations(), prog);
  r.det = det.counters();
  r.pipe = det.pipe_stats();
  r.par = det.par_stats();
  return r;
}

// A racy trace's accesses race for real on the work-stealing engine, and
// ThreadSanitizer reports every one of them; TSan builds soak race-free
// traces instead (the racy axis runs in every other build).
#if defined(__SANITIZE_THREAD__)
constexpr bool k_race_free_traces = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool k_race_free_traces = true;
#else
constexpr bool k_race_free_traces = false;
#endif
#else
constexpr bool k_race_free_traces = false;
#endif

void soak_pardetect_seed(std::uint64_t seed) {
  progen::trace_config cfg;
  cfg.seed = seed;
  cfg.max_tasks = 120;
  cfg.race_free = k_race_free_traces;
  progen::program_trace prog(cfg);

  // Serial inline reference of the same frozen trace: the verdict every
  // parallel-detect schedule must reproduce exactly.
  pardetect_run ref;
  {
    detect::race_detector det;
    runtime rt({.mode = exec_mode::serial_dfs});
    rt.add_observer(&det);
    rt.run([&prog] { prog(); });
    ref.detected = det.race_detected();
    ref.race_count = det.race_count();
    ref.racy_vars = trace_racy_vars(det.racy_locations(), prog);
    ref.det = det.counters();
  }

  const inject::fault_plan plan = pardetect_plan_for(seed);
  // A tiny ring every fourth seed forces sustained backpressure across the
  // whole producer row under whatever fault is armed.
  const std::size_t ring = seed % 4 == 0 ? 64 : std::size_t{1} << 12;
  const unsigned workers = 1 + static_cast<unsigned>(seed % 4);  // 1..4
  inject::fault_injector inj(plan);
  pardetect_run run;
  {
    inject::scoped_injector guard(inj);
    run = run_pardetect(prog, workers, ring);
  }
  const auto fired = inj.snapshot();
  const std::string ctx = plan.describe() + " workers=" +
                          std::to_string(workers) +
                          " ring=" + std::to_string(ring) + ": ";

  // Verdict equality against the serial inline reference: detected flag,
  // race count, racy variables, and every paper-level counter. This is the
  // DESIGN.md §14 determinism claim under active fault injection and real
  // parallel execution.
  if (run.detected != ref.detected || run.race_count != ref.race_count) {
    fail(seed, "pardetect-verdict",
         ctx + "race verdict diverged: serial " +
             std::to_string(ref.race_count) + " vs parallel-detect " +
             std::to_string(run.race_count));
  }
  if (run.racy_vars != ref.racy_vars) {
    fail(seed, "pardetect-racy-vars",
         ctx + "racy variable sets diverged (" +
             std::to_string(ref.racy_vars.size()) + " vs " +
             std::to_string(run.racy_vars.size()) + ")");
  }
  if (!paper_counters_equal(run.det, ref.det)) {
    fail(seed, "pardetect-counters",
         ctx + "paper counters diverged from serial inline");
  }
  // program_trace gets are serially feasible by construction; the replayer
  // must never have to skip one, and clean EOF unwind drops nothing.
  if (run.par.infeasible_gets != 0 || run.par.dropped_events != 0) {
    fail(seed, "pardetect-replay",
         ctx + "replayer skipped " + std::to_string(run.par.infeasible_gets) +
             " gets, dropped " + std::to_string(run.par.dropped_events) +
             " events");
  }

  // A killed checker must be detected, counted, and taken over inline at
  // finalize without losing events (verdicts already compared above).
  if (fired.pipe_kills > 0) {
    if (run.pipe.workers_died == 0) {
      fail(seed, "pardetect-kill-uncounted",
           ctx + "checker kill fired but workers_died == 0");
    }
    if (run.pipe.inline_fallbacks == 0) {
      fail(seed, "pardetect-kill-takeover",
           ctx + "checker kill fired but no inline takeover happened");
    }
  } else if (run.pipe.workers_died != 0) {
    fail(seed, "pardetect-spurious-death",
         ctx + "checkers died with no kill fault armed");
  }

  // Forced ring-full must surface as backpressure spins, never anything else.
  if (fired.pipe_forced_fulls > 0 &&
      run.pipe.backpressure_waits < plan.pipe_ring_full_spins) {
    fail(seed, "pardetect-backpressure",
         ctx + "forced ring-full fired but backpressure_waits=" +
             std::to_string(run.pipe.backpressure_waits));
  }

  // Control group: with no transport fault armed nothing may degrade.
  if (plan.pipe_kill_at == 0 &&
      (run.pipe.workers_died != 0 || run.par.spilled_events != 0)) {
    fail(seed, "pardetect-passivity",
         ctx + "no kill armed but events spilled or checkers died");
  }

  check_cleanup(seed, exec_mode::parallel, "pardetect-cleanup");
}

// ---- Resource-cap acceptance: big trace against a capped shadow memory -----

int run_stress(std::uint64_t accesses, const std::string& metrics_out) {
  constexpr std::size_t k_locations = 1u << 17;
  constexpr std::size_t k_shadow_cap = 1u << 20;  // 1 MiB
  inject::fault_plan plan;
  plan.fail_alloc_at = 5000;  // injected failure fires before the byte cap
  inject::fault_injector inj(plan);
  inject::scoped_injector guard(inj);

  detect::race_detector det(
      {.max_reports = 8, .max_shadow_bytes = k_shadow_cap});
  runtime rt({.mode = exec_mode::serial_dfs});
  rt.add_observer(&det);
  shared_array<int> data(k_locations);
  rt.run([&data, accesses] {
    std::uint64_t done = 0;
    while (done < accesses) {
      for (std::size_t i = 0; i < k_locations && done < accesses; ++i) {
        data.write(i, static_cast<int>(i));
        ++done;
      }
    }
  });

  const auto c = det.counters();
  std::printf("stress: %llu accesses, %llu locations tracked, "
              "%llu untracked accesses, degraded=%d, failed allocs=%llu\n",
              static_cast<unsigned long long>(c.shared_mem_accesses),
              static_cast<unsigned long long>(c.locations),
              static_cast<unsigned long long>(c.untracked_accesses),
              c.degraded ? 1 : 0,
              static_cast<unsigned long long>(inj.snapshot().failed_allocs));
  int rc = 0;
  if (c.shared_mem_accesses != accesses) {
    std::printf("FAIL stress: counters stopped counting\n");
    rc = 1;
  }
  if (!det.degraded() || !c.degraded) {
    std::printf("FAIL stress: degradation not reported\n");
    rc = 1;
  }
  if (c.locations >= k_locations) {
    std::printf("FAIL stress: shadow memory did not stop materializing\n");
    rc = 1;
  }
  if (inj.snapshot().failed_allocs == 0) {
    std::printf("FAIL stress: injected allocation failure never fired\n");
    rc = 1;
  }
  if (c.races_observed != 0) {
    std::printf("FAIL stress: race invented on a race-free trace\n");
    rc = 1;
  }

  // One registry snapshot over every engine the stress run exercised —
  // detector, shadow tiers, reachability graph, fault injector — in the
  // same nested schema the bench rows use, so bench_diff can gate it.
  if (!metrics_out.empty()) {
    obs::metrics_registry reg;
    obs::add_detector_source(reg, [&det] { return det.counters(); });
    obs::add_shadow_source(reg, [&det] { return det.storage_stats(); });
    obs::add_reachability_source(reg,
                                 [&det] { return det.reachability_stats(); });
    obs::add_fault_source(reg, [&inj] { return inj.snapshot(); });
    const obs::metrics_snapshot snap = reg.snapshot();
    std::ofstream out(metrics_out);
    if (!out) {
      std::printf("FAIL stress: cannot open %s for writing\n",
                  metrics_out.c_str());
      return 1;
    }
    out << snap.to_json().dump();
    std::printf("stress: wrote %zu metrics from %zu sources to %s\n",
                snap.entries().size(), reg.source_count(),
                metrics_out.c_str());
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  support::flag_parser flags;
  flags.define("seeds", "200", "number of fault-plan seeds to soak");
  flags.define("seed-base", "1", "first seed value");
  flags.define("watchdog-ms", "600",
               "parallel deadlock watchdog timeout per wait");
  flags.define("stress-accesses", "0",
               "run the shadow-memory cap stress test with N accesses "
               "instead of the soak");
  flags.define("pipe-seeds", "0",
               "run only the pipelined-detector soak with N seeds "
               "instead of the full soak");
  flags.define("parallel-seeds", "0",
               "run only the parallel-detect soak (work-stealing execution "
               "+ concurrent checkers) with N seeds instead of the full "
               "soak");
  flags.define("metrics-out", "",
               "with --stress-accesses: write an obs registry snapshot "
               "(detector/shadow/reachability/fault) to this JSON path");
  flags.parse(argc, argv);

  const std::uint64_t stress =
      static_cast<std::uint64_t>(flags.get_int("stress-accesses"));
  if (stress > 0) return run_stress(stress, flags.get_string("metrics-out"));

  const std::uint64_t seeds =
      static_cast<std::uint64_t>(flags.get_int("seeds"));
  const std::uint64_t base =
      static_cast<std::uint64_t>(flags.get_int("seed-base"));
  const auto watchdog_ms =
      static_cast<std::uint32_t>(flags.get_int("watchdog-ms"));

  const std::uint64_t parallel_seeds =
      static_cast<std::uint64_t>(flags.get_int("parallel-seeds"));
  if (parallel_seeds > 0) {
    for (std::uint64_t s = base; s < base + parallel_seeds; ++s) {
      soak_pardetect_seed(s);
      if ((s - base + 1) % 50 == 0) {
        std::printf("... %llu/%llu parallel-detect seeds\n",
                    static_cast<unsigned long long>(s - base + 1),
                    static_cast<unsigned long long>(parallel_seeds));
      }
    }
    if (g_failures == 0) {
      std::printf("fault_soak: %llu parallel-detect seeds passed\n",
                  static_cast<unsigned long long>(parallel_seeds));
      return 0;
    }
    std::printf("fault_soak: %d failure(s)\n", g_failures);
    return 1;
  }

  const std::uint64_t pipe_seeds =
      static_cast<std::uint64_t>(flags.get_int("pipe-seeds"));
  if (pipe_seeds > 0) {
    for (std::uint64_t s = base; s < base + pipe_seeds; ++s) {
      soak_pipelined_seed(s);
      if ((s - base + 1) % 50 == 0) {
        std::printf("... %llu/%llu pipelined seeds\n",
                    static_cast<unsigned long long>(s - base + 1),
                    static_cast<unsigned long long>(pipe_seeds));
      }
    }
    if (pipe_seeds >= 8 && g_epoch_resets == 0) {
      std::printf("FAIL: epoch-reset axis never compacted across %llu "
                  "pipelined seeds\n",
                  static_cast<unsigned long long>(pipe_seeds));
      ++g_failures;
    }
    if (g_failures == 0) {
      std::printf("fault_soak: %llu pipelined seeds passed "
                  "(%llu epoch compactions)\n",
                  static_cast<unsigned long long>(pipe_seeds),
                  static_cast<unsigned long long>(g_epoch_resets));
      return 0;
    }
    std::printf("fault_soak: %d failure(s)\n", g_failures);
    return 1;
  }

  for (std::uint64_t s = base; s < base + seeds; ++s) {
    soak_serial_seed(s);
    soak_parallel_seed(s, watchdog_ms);
    soak_pipelined_seed(s);
    soak_pardetect_seed(s);
    if ((s - base + 1) % 50 == 0) {
      std::printf("... %llu/%llu seeds\n",
                  static_cast<unsigned long long>(s - base + 1),
                  static_cast<unsigned long long>(seeds));
    }
  }
  if (seeds >= 8 && g_epoch_resets == 0) {
    std::printf("FAIL: epoch-reset axis never compacted across %llu seeds\n",
                static_cast<unsigned long long>(seeds));
    ++g_failures;
  }
  if (g_failures == 0) {
    std::printf(
        "fault_soak: %llu seeds x {elision, dfs, parallel, pipelined, "
        "parallel-detect} passed (%llu epoch compactions)\n",
        static_cast<unsigned long long>(seeds),
        static_cast<unsigned long long>(g_epoch_resets));
    return 0;
  }
  std::printf("fault_soak: %d failure(s)\n", g_failures);
  return 1;
}
