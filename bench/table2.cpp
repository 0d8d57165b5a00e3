// Regenerates Table 2 of the paper: for each benchmark, the dynamic task
// count, non-tree join count, shared-memory access count, average stored
// readers, sequential (serial elision) time, race-detection time, and the
// slowdown ratio.
//
// Absolute times are machine-dependent (the paper used HJ on a 16-core
// Ivybridge JVM; this is ahead-of-time C++), so the column to compare is
// *Slowdown* and the structural counters. Paper values are printed alongside
// for reference. Sizes default to a laptop-friendly scale; use --scale (and
// --repeats) to grow toward the paper's inputs.

#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>

#include "futrace/detect/parallel_pipeline.hpp"
#include "futrace/detect/pipeline.hpp"
#include "futrace/detect/race_detector.hpp"
#include "futrace/hook/heap_hooks.hpp"
#include "futrace/obs/metrics.hpp"
#include "futrace/runtime/runtime.hpp"
#include "futrace/support/flags.hpp"
#include "futrace/support/json.hpp"
#include "futrace/support/stats.hpp"
#include "futrace/support/table.hpp"
#include "futrace/support/timer.hpp"
#include "futrace/workloads/workloads.hpp"

namespace {

using futrace::support::sample_set;
using futrace::support::stopwatch;
using futrace::support::text_table;

struct paper_row {
  const char* tasks;
  const char* ntjoins;
  const char* slowdown;
};

struct row_result {
  std::string name;
  futrace::detect::detector_counters counters;
  futrace::detect::pipeline_stats pipe{};
  bool pipe_mode = false;  // row ran with --detect-threads > 0
  bool parallel_mode = false;  // row ran with --exec=parallel-detect
  bool shared_structure = false;  // row ran with --structure=shared
  // Reachability-structure footprint: one graph under --structure=shared,
  // the sum over checker replicas under replicated (the CI memory gate
  // compares the two on Jacobi at W=4).
  std::size_t structure_bytes = 0;
  unsigned workers = 0;        // engine workers in parallel mode
  double seq_ms = 0;
  double racedet_ms = 0;
  /// Inline serial-detection reference time for the same workload (only
  /// measured in parallel mode, for the Speedup column).
  double serial_racedet_ms = 0;
  bool verified = false;
  paper_row paper;

  double slowdown() const { return seq_ms > 0 ? racedet_ms / seq_ms : 0; }
  /// Wall-clock speedup of parallel-detect time-to-verdict over serial
  /// inline detection. Worker-count and machine dependent, so bench_diff
  /// treats it as advisory.
  double speedup_vs_serial() const {
    return racedet_ms > 0 ? serial_racedet_ms / racedet_ms : 0;
  }
  // Fast-path hit rates (see DESIGN.md "Performance architecture"); the
  // formulas live in obs/metrics so table cells, bench JSON, and registry
  // snapshots can never drift apart.
  double direct_rate() const { return futrace::obs::direct_hit_rate(counters); }
  double memo_rate() const { return futrace::obs::memo_hit_rate(counters); }
  double stamp_rate() const { return futrace::obs::stamp_hit_rate(counters); }
  double range_rate() const { return futrace::obs::range_hit_rate(counters); }
};

/// Global bench configuration shared by every row.
struct bench_config {
  int repeats = 3;
  bool fastpath = true;
  bool ranges = true;
  unsigned detect_threads = 0;  // 0 = inline detector, N = pipelined
  bool exec_parallel = false;   // --exec=parallel-detect
  unsigned workers = 4;         // --threads: engine workers in parallel mode
  std::string trace_path;       // --trace=FILE: Chrome trace of the last rep
  // --structure: reachability-structure ownership in parallel-detect mode.
  futrace::detect::structure_mode structure =
      futrace::detect::structure_mode::replicated;
  bool instrument_heap = false;  // --instrument-heap: allocator hooks armed
};

// Runs one benchmark in both configurations. `make` returns a fresh workload
// object; workloads are single-use because shadow memory is keyed by the
// addresses the run touches.
template <typename Make>
row_result run_row(const std::string& name, Make make,
                   const bench_config& cfg,
                   paper_row paper) {
  row_result row;
  row.name = name;
  row.paper = paper;

  sample_set seq_times;
  for (int r = 0; r < cfg.repeats; ++r) {
    auto w = make();
    futrace::runtime rt({.mode = futrace::exec_mode::serial_elision});
    stopwatch timer;
    rt.run([&] { (*w)(); });
    seq_times.add(timer.elapsed_ms());
    if (r == 0) row.verified = w->verify();
  }

  futrace::detect::race_detector::options det_opts;
  det_opts.enable_fastpath = cfg.fastpath;
  det_opts.enable_range_checks = cfg.ranges;
  det_opts.detect_threads = cfg.detect_threads;
  det_opts.instrument_heap = cfg.instrument_heap;
  row.pipe_mode = cfg.detect_threads > 0;
  row.parallel_mode = cfg.exec_parallel;
  row.workers = cfg.exec_parallel ? cfg.workers : 0;
  row.shared_structure =
      cfg.exec_parallel &&
      cfg.structure == futrace::detect::structure_mode::shared;

  if (cfg.exec_parallel) {
    // Parallel-execution detection: the workload runs for real on the
    // work-stealing engine while shard checkers race-check concurrently.
    // The serial inline run is re-measured as the speedup reference, and
    // its verdict must agree with the parallel one.
    sample_set serial_det_times;
    bool serial_raced = false;
    for (int r = 0; r < cfg.repeats; ++r) {
      auto w = make();
      futrace::detect::race_detector det(det_opts);
      futrace::runtime rt({.mode = futrace::exec_mode::serial_dfs});
      rt.add_observer(&det);
      stopwatch timer;
      rt.run([&] { (*w)(); });
      serial_raced = det.race_detected();
      serial_det_times.add(timer.elapsed_ms());
      if (r == 0) row.verified = row.verified && w->verify();
    }

    sample_set det_times;
    futrace::detect::parallel_detector::tuning tune;
    tune.structure = cfg.structure;
    for (int r = 0; r < cfg.repeats; ++r) {
      auto w = make();
      // Only the final repetition traces (execution lanes come from the
      // producers; the inner detectors are trace-muted), matching the
      // serial branch's one-clean-run policy.
      det_opts.trace_path =
          r == cfg.repeats - 1 ? cfg.trace_path : std::string();
      futrace::detect::parallel_detector det(det_opts, tune);
      futrace::runtime rt({.mode = futrace::exec_mode::parallel_detect,
                           .workers = cfg.workers});
      rt.add_parallel_sink(&det);
      // Timed region covers run *and* verdict: the first query joins the
      // checkers and finishes the replay, so this is time-to-verdict.
      stopwatch timer;
      rt.run([&] { (*w)(); });
      const bool raced = det.race_detected();
      det_times.add(timer.elapsed_ms());
      row.verified =
          row.verified && w->verify() && raced == serial_raced && !raced;
      if (r == cfg.repeats - 1) {
        row.counters = det.counters();
        row.pipe = det.pipe_stats();
        row.structure_bytes = det.structure_bytes();
      }
    }
    row.seq_ms = seq_times.mean();
    row.racedet_ms = det_times.mean();
    row.serial_racedet_ms = serial_det_times.mean();
    return row;
  }

  // The timed region covers run *and* verdict: in pipelined mode the first
  // query drains the rings and joins the checkers, so the measurement is
  // end-to-end time-to-verdict, not just time-to-last-event.
  sample_set det_times;
  for (int r = 0; r < cfg.repeats; ++r) {
    auto w = make();
    futrace::runtime rt({.mode = futrace::exec_mode::serial_dfs});
    // Only the final repetition traces, so the exported timeline is one
    // clean run (and earlier timed reps stay unperturbed).
    det_opts.trace_path =
        r == cfg.repeats - 1 ? cfg.trace_path : std::string();
    if (row.pipe_mode) {
      futrace::detect::pipelined_detector det(det_opts);
      rt.add_observer(&det);
      stopwatch timer;
      rt.run([&] { (*w)(); });
      const bool raced = det.race_detected();
      det_times.add(timer.elapsed_ms());
      row.verified = row.verified && w->verify() && !raced;
      if (r == cfg.repeats - 1) {
        row.counters = det.counters();
        row.pipe = det.pipe_stats();
      }
    } else {
      futrace::detect::race_detector det(det_opts);
      rt.add_observer(&det);
      stopwatch timer;
      rt.run([&] { (*w)(); });
      const bool raced = det.race_detected();
      det_times.add(timer.elapsed_ms());
      row.verified = row.verified && w->verify() && !raced;
      if (r == cfg.repeats - 1) row.counters = det.counters();
    }
  }

  row.seq_ms = seq_times.mean();
  row.racedet_ms = det_times.mean();
  return row;
}

futrace::support::json row_to_json(const row_result& r) {
  using futrace::support::json;
  json row = json::object();
  row["name"] = r.name;
  row["verified"] = r.verified;
  row["seq_ms"] = r.seq_ms;
  row["racedet_ms"] = r.racedet_ms;
  row["slowdown"] = r.slowdown();
  if (r.parallel_mode) {
    row["workers"] = static_cast<std::uint64_t>(r.workers);
    row["structure"] = r.shared_structure ? "shared" : "replicated";
    // Allocator- and mode-dependent; bench_diff classifies it advisory.
    row["structure_bytes"] = static_cast<std::uint64_t>(r.structure_bytes);
    row["serial_racedet_ms"] = r.serial_racedet_ms;
    // Worker-count dependent; bench_diff classifies "speedup" as advisory.
    row["speedup_vs_serial"] = r.speedup_vs_serial();
  }
  // The canonical sub-object schemas come from obs/metrics — the same keys,
  // order, and values as every other bench emitter and the checked-in
  // baselines (bench_diff gates on the paper counters within them).
  row["counters"] = futrace::obs::counters_json(r.counters);
  row["rates"] = futrace::obs::rates_json(r.counters);
  if (r.pipe_mode || r.parallel_mode) {
    // Ring/fill metrics are scheduling-dependent (bench_diff treats
    // occupancy/backpressure as advisory); pipe_events and inline_fallbacks
    // are deterministic and gate normally.
    row["pipe"] = futrace::obs::pipe_json(r.pipe);
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  futrace::support::flag_parser flags;
  flags.define("scale", "1", "size multiplier toward the paper's inputs")
      .define("repeats", "3", "timed repetitions per configuration")
      .define("rows", "all",
              "comma-free row filter substring (e.g. 'crypt', 'jacobi')")
      .define("json", "false", "write machine-readable results")
      .define("json-out", "BENCH_table2.json", "path for --json output")
      .define("no-fastpath", "false",
              "disable the direct/memo/stamp fast paths (baseline mode)")
      .define("no-ranges", "false",
              "decompose bulk accesses per element (PR 2 scalar path)")
      .define("detect-threads", "0",
              "stream events to N address-sharded checker threads "
              "(0 = inline detection on the execution thread)")
      .define("exec", "serial",
              "execution mode: serial (elide tasks, detect inline or "
              "pipelined per --detect-threads) or parallel-detect (run on "
              "the work-stealing engine, detect concurrently)")
      .define("threads", "4",
              "engine workers for --exec=parallel-detect")
      .define("structure", "replicated",
              "parallel-detect reachability-structure ownership: replicated "
              "(per-checker graph replicas) or shared (one graph behind a "
              "single-writer structure thread; W× less structure CPU/RSS)")
      .define("trace", "",
              "write a Chrome trace-event JSON (Perfetto-loadable) of each "
              "row's final timed repetition to this path; rows overwrite, "
              "so combine with --rows to pick one workload")
      .define("instrument-heap", "false",
              "arm the allocator hooks (futrace/hook): auto-register heap "
              "blocks allocated by instrumented code and retire their "
              "shadow identity on free; prints a heap summary line");
  flags.parse(argc, argv);
  const auto scale = static_cast<std::size_t>(flags.get_int("scale"));
  const std::string filter = flags.get_string("rows");
  const bool emit_json = flags.get_bool("json");
  const std::string json_path = flags.get_string("json-out");

  bench_config cfg;
  cfg.repeats = static_cast<int>(flags.get_int("repeats"));
  cfg.fastpath = !flags.get_bool("no-fastpath");
  cfg.ranges = !flags.get_bool("no-ranges");
  cfg.detect_threads = static_cast<unsigned>(flags.get_int("detect-threads"));
  const std::string exec = flags.get_string("exec");
  if (exec == "parallel-detect") {
    cfg.exec_parallel = true;
  } else if (exec != "serial") {
    std::fprintf(stderr, "unknown --exec '%s' (serial, parallel-detect)\n",
                 exec.c_str());
    return 2;
  }
  cfg.workers = static_cast<unsigned>(flags.get_int("threads"));
  if (cfg.exec_parallel && cfg.workers == 0) {
    std::fprintf(stderr, "--exec=parallel-detect needs --threads >= 1\n");
    return 2;
  }
  const std::string structure = flags.get_string("structure");
  if (structure == "shared") {
    cfg.structure = futrace::detect::structure_mode::shared;
  } else if (structure != "replicated") {
    std::fprintf(stderr, "unknown --structure '%s' (replicated, shared)\n",
                 structure.c_str());
    return 2;
  }
  if (cfg.structure == futrace::detect::structure_mode::shared &&
      !cfg.exec_parallel) {
    std::fprintf(stderr, "--structure=shared needs --exec=parallel-detect\n");
    return 2;
  }
  if (cfg.exec_parallel && cfg.detect_threads > 0) {
    std::fprintf(stderr,
                 "--detect-threads applies to serial execution only; "
                 "parallel-detect shards via its own checkers\n");
    return 2;
  }
  cfg.trace_path = flags.get_string("trace");
  cfg.instrument_heap = flags.get_bool("instrument-heap");
  const bool instrument_heap = cfg.instrument_heap;
  if (instrument_heap) {
    // Armed for the whole run: registration self-gates on instrumented
    // task context, so the elision (seq) baselines and harness allocations
    // stay invisible. Inert — plus a weak-false interposition_active —
    // under FUTRACE_SANITIZE builds.
    futrace::hook::set_heap_instrumentation(true);
  }

  using namespace futrace::workloads;
  std::vector<row_result> rows;
  auto want = [&](const char* name) {
    return filter == "all" || std::string(name).find(filter) !=
                                  std::string::npos;
  };

  std::size_t pow2_scale = 1;
  while (pow2_scale * 2 <= scale) pow2_scale *= 2;

  if (want("Series-af")) {
    rows.push_back(run_row(
        "Series-af",
        [&] {
          return std::make_unique<series_workload>(series_config{
              .coefficients = 2000 * scale, .integration_points = 150});
        },
        cfg, {"999,999", "0", "1.00"}));
  }
  if (want("Series-future")) {
    rows.push_back(run_row(
        "Series-future",
        [&] {
          return std::make_unique<series_workload>(
              series_config{.coefficients = 2000 * scale,
                            .integration_points = 150,
                            .use_futures = true});
        },
        cfg, {"999,999", "0", "1.00"}));
  }
  if (want("Crypt-af")) {
    rows.push_back(run_row(
        "Crypt-af",
        [&] {
          return std::make_unique<crypt_workload>(
              crypt_config{.bytes = 262144 * scale});
        },
        cfg, {"12,500,000", "0", "7.77"}));
  }
  if (want("Crypt-future")) {
    rows.push_back(run_row(
        "Crypt-future",
        [&] {
          return std::make_unique<crypt_workload>(crypt_config{
              .bytes = 262144 * scale, .use_futures = true});
        },
        cfg, {"12,500,000", "0", "8.26"}));
  }
  if (want("Jacobi")) {
    const std::size_t n = 256 * pow2_scale + 2;
    rows.push_back(run_row(
        "Jacobi",
        [&, n] {
          return std::make_unique<jacobi_workload>(
              jacobi_config{.n = n, .tile = 32, .iterations = 8});
        },
        cfg, {"8,192", "34,944", "8.05"}));
  }
  if (want("Smith-Waterman")) {
    const std::size_t dim = 1000 * scale;
    rows.push_back(run_row(
        "Smith-Waterman",
        [&, dim] {
          return std::make_unique<sw_workload>(
              sw_config{.rows = dim, .cols = dim, .tile = 50});
        },
        cfg, {"1,608", "4,641", "9.92"}));
  }
  if (want("Strassen")) {
    const std::size_t n = 128 * pow2_scale;
    rows.push_back(run_row(
        "Strassen",
        [&, n] {
          return std::make_unique<strassen_workload>(
              strassen_config{.n = n, .cutoff = 32});
        },
        cfg, {"30,811", "33,612", "5.35"}));
  }

  text_table table({"Benchmark", "#Tasks", "#NTJoins", "#SharedMem",
                    "#AvgReaders", "Seq(ms)", "Racedet(ms)", "Slowdown",
                    "Speedup", "Direct%", "Memo%", "Stamp%", "Range%",
                    "Pipe%", "PaperSlowdown", "Verified"});
  for (const row_result& r : rows) {
    table.add_row({r.name, text_table::with_commas(r.counters.tasks),
                   text_table::with_commas(r.counters.non_tree_joins),
                   text_table::with_commas(r.counters.shared_mem_accesses),
                   text_table::fixed(r.counters.avg_readers, 3),
                   text_table::fixed(r.seq_ms, 1),
                   text_table::fixed(r.racedet_ms, 1),
                   text_table::fixed(r.slowdown(), 2) + "x",
                   r.parallel_mode
                       ? text_table::fixed(r.speedup_vs_serial(), 2) + "x"
                       : std::string("-"),
                   text_table::fixed(100.0 * r.direct_rate(), 1),
                   text_table::fixed(100.0 * r.memo_rate(), 1),
                   text_table::fixed(100.0 * r.stamp_rate(), 1),
                   text_table::fixed(100.0 * r.range_rate(), 1),
                   r.pipe_mode || r.parallel_mode
                       ? text_table::fixed(r.pipe.occupancy_pct(), 1)
                       : std::string("-"),
                   std::string(r.paper.slowdown) + "x",
                   r.verified ? "yes" : "NO"});
  }
  std::printf("Table 2 — determinacy race detection overhead "
              "(scale=%zu, repeats=%d, fastpath=%s, ranges=%s, exec=%s, "
              "threads=%u, detect-threads=%u)\n\n",
              scale, cfg.repeats, cfg.fastpath ? "on" : "off",
              cfg.ranges ? "on" : "off",
              cfg.exec_parallel ? "parallel-detect" : "serial",
              cfg.exec_parallel ? cfg.workers : 0, cfg.detect_threads);
  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\nPaper rows used JGF Size C / 2048x2048 / 10000x10000 / 1024x1024 "
      "inputs on a 16-core Ivybridge JVM; compare slowdown shape, not "
      "absolute ms.\n");
  if (instrument_heap) {
    const futrace::hook::heap_stats hs = futrace::hook::stats();
    std::printf(
        "heap hooks: interposed=%s blocks=%llu retired=%llu bytes=%llu "
        "annotated=%llu deferred=%llu foreign=%llu live=%zu\n",
        futrace::hook::interposition_active() ? "yes" : "no",
        static_cast<unsigned long long>(hs.blocks_registered),
        static_cast<unsigned long long>(hs.blocks_retired),
        static_cast<unsigned long long>(hs.hooked_bytes),
        static_cast<unsigned long long>(hs.annotate_regions),
        static_cast<unsigned long long>(hs.deferred_retires),
        static_cast<unsigned long long>(hs.foreign_frees),
        futrace::hook::live_blocks());
  }

  if (emit_json) {
    using futrace::support::json;
    json doc = json::object();
    doc["bench"] = "table2";
    doc["scale"] = static_cast<std::uint64_t>(scale);
    doc["repeats"] = cfg.repeats;
    doc["fastpath"] = cfg.fastpath;
    doc["ranges"] = cfg.ranges;
    doc["detect_threads"] = static_cast<std::uint64_t>(cfg.detect_threads);
    doc["exec"] = cfg.exec_parallel ? "parallel-detect" : "serial";
    if (cfg.exec_parallel) {
      doc["threads"] = static_cast<std::uint64_t>(cfg.workers);
      doc["structure"] =
          cfg.structure == futrace::detect::structure_mode::shared
              ? "shared"
              : "replicated";
    }
    if (instrument_heap) {
      // Allocation counts vary with libc/STL versions, so bench_diff must
      // treat this sub-object as advisory, never equality-gated.
      const futrace::hook::heap_stats hs = futrace::hook::stats();
      json heap = json::object();
      heap["interposed"] = futrace::hook::interposition_active();
      heap["blocks_registered"] = hs.blocks_registered;
      heap["blocks_retired"] = hs.blocks_retired;
      heap["hooked_bytes"] = hs.hooked_bytes;
      heap["annotate_regions"] = hs.annotate_regions;
      heap["deferred_retires"] = hs.deferred_retires;
      heap["foreign_frees"] = hs.foreign_frees;
      doc["heap"] = heap;
    }
    json row_array = json::array();
    for (const row_result& r : rows) row_array.push_back(row_to_json(r));
    doc["rows"] = row_array;
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
      return 1;
    }
    out << doc.dump();
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  for (const row_result& r : rows) {
    if (!r.verified) {
      std::fprintf(stderr, "FAILED verification: %s\n", r.name.c_str());
      return 1;
    }
  }
  return 0;
}
