// Baseline comparisons backing two of the paper's verbal claims:
//
//  1. §5: on async-finish programs the detector "performs similarly to
//     SP-bags" — measured here against our ESP-bags implementation on the
//     async-finish rows of Table 2.
//
//  2. §1/§6: vector-clock detectors are impractical for dynamic task
//     parallelism — measured as detection time and, decisively, clock
//     memory against our detector on future-heavy workloads.

#include <cstdio>
#include <fstream>
#include <memory>

#include "futrace/baselines/esp_bags_detector.hpp"
#include "futrace/baselines/vector_clock_detector.hpp"
#include "futrace/detect/race_detector.hpp"
#include "futrace/obs/metrics.hpp"
#include "futrace/runtime/runtime.hpp"
#include "futrace/support/flags.hpp"
#include "futrace/support/json.hpp"
#include "futrace/support/table.hpp"
#include "futrace/support/timer.hpp"
#include "futrace/workloads/workloads.hpp"

namespace {

using futrace::support::stopwatch;
using futrace::support::text_table;

template <typename MakeDet, typename Make>
std::pair<double, std::size_t> time_with(MakeDet make_det, Make make,
                                         int repeats) {
  double best = 1e300;
  std::size_t mem = 0;
  for (int r = 0; r < repeats; ++r) {
    auto w = make();
    auto det = make_det();
    futrace::runtime rt({.mode = futrace::exec_mode::serial_dfs});
    rt.add_observer(&det);
    stopwatch timer;
    rt.run([&] { (*w)(); });
    best = std::min(best, timer.elapsed_ms());
    mem = det.memory_bytes();
  }
  return {best, mem};
}

std::string mib(std::size_t bytes) {
  return text_table::fixed(static_cast<double>(bytes) / (1024.0 * 1024.0), 2) +
         " MiB";
}

}  // namespace

int main(int argc, char** argv) {
  futrace::support::flag_parser flags;
  flags.define("scale", "1", "size multiplier")
      .define("repeats", "3", "repetitions (best-of)")
      .define("json", "false", "write machine-readable results")
      .define("json-out", "BENCH_vs_baselines.json", "path for --json output")
      .define("no-fastpath", "false",
              "disable the direct/memo/stamp fast paths")
      .define("trace", "",
              "write a Chrome trace-event JSON of the final repetition of "
              "each part-2 'ours' run to this path (rows overwrite)");
  flags.parse(argc, argv);
  const auto scale = static_cast<std::size_t>(flags.get_int("scale"));
  const int repeats = static_cast<int>(flags.get_int("repeats"));
  const std::string trace_path = flags.get_string("trace");
  futrace::detect::race_detector::options det_opts;
  det_opts.enable_fastpath = !flags.get_bool("no-fastpath");

  using namespace futrace::workloads;
  using futrace::support::json;
  json doc = json::object();
  doc["bench"] = "vs_baselines";
  doc["scale"] = static_cast<std::uint64_t>(scale);
  doc["repeats"] = repeats;
  doc["fastpath"] = det_opts.enable_fastpath;
  json esp_rows = json::array();
  json vc_rows = json::array();

  // ---- Part 1: ours vs ESP-bags on async-finish programs -------------------
  {
    text_table table({"Benchmark", "This paper (ms)", "ESP-bags (ms)",
                      "Ratio"});
    auto add = [&](const char* name, auto make) {
      auto [ours, ours_mem] = time_with(
          [&] { return futrace::detect::race_detector(det_opts); }, make,
          repeats);
      auto [esp, esp_mem] = time_with(
          [] { return futrace::baselines::esp_bags_detector(); }, make,
          repeats);
      (void)ours_mem;
      (void)esp_mem;
      table.add_row({name, text_table::fixed(ours, 1),
                     text_table::fixed(esp, 1),
                     text_table::fixed(ours / esp, 2) + "x"});
      json row = json::object();
      row["name"] = name;
      row["ours_ms"] = ours;
      row["esp_bags_ms"] = esp;
      row["ratio"] = esp > 0 ? ours / esp : 0.0;
      esp_rows.push_back(row);
    };
    add("Series-af", [&] {
      return std::make_unique<series_workload>(series_config{
          .coefficients = 1500 * scale, .integration_points = 120});
    });
    add("Crypt-af", [&] {
      return std::make_unique<crypt_workload>(
          crypt_config{.bytes = 131072 * scale});
    });
    std::printf("Detector vs ESP-bags on async-finish programs (paper §5: "
                "\"no additional overhead for async/finish\")\n\n");
    std::fputs(table.render().c_str(), stdout);
  }

  // ---- Part 2: ours vs vector clocks on future programs --------------------
  // Memory columns compare the *ordering structures* only — the reachability
  // graph (O(a + f + n), Theorem 1) against the per-task clocks (O(#tasks)
  // per task) — since both detectors share the same shadow-memory design.
  {
    text_table table({"Benchmark", "#Tasks", "This paper (ms)",
                      "Graph mem", "VectorClock (ms)", "Clock mem"});
    auto add = [&](const char* name, auto make) {
      double ours_ms = 1e300, vc_ms = 1e300;
      std::size_t graph_mem = 0, clock_mem = 0;
      std::uint64_t tasks = 0;
      futrace::support::json counters;
      for (int r = 0; r < repeats; ++r) {
        {
          auto w = make();
          futrace::detect::race_detector::options opts = det_opts;
          // Only the final repetition traces; best-of timing keeps the
          // reported minimum clean of any tracing overhead.
          if (r == repeats - 1) opts.trace_path = trace_path;
          futrace::detect::race_detector det(opts);
          futrace::runtime rt({.mode = futrace::exec_mode::serial_dfs});
          rt.add_observer(&det);
          stopwatch timer;
          rt.run([&] { (*w)(); });
          ours_ms = std::min(ours_ms, timer.elapsed_ms());
          graph_mem = det.structure_bytes();
          tasks = det.counters().tasks;
          counters = futrace::obs::counters_json(det.counters());
        }
        {
          auto w = make();
          futrace::baselines::vector_clock_detector det;
          futrace::runtime rt({.mode = futrace::exec_mode::serial_dfs});
          rt.add_observer(&det);
          stopwatch timer;
          rt.run([&] { (*w)(); });
          vc_ms = std::min(vc_ms, timer.elapsed_ms());
          clock_mem = det.clock_bytes();
        }
      }
      table.add_row({name, text_table::with_commas(tasks),
                     text_table::fixed(ours_ms, 1), mib(graph_mem),
                     text_table::fixed(vc_ms, 1), mib(clock_mem)});
      json row = json::object();
      row["name"] = name;
      row["tasks"] = tasks;
      row["ours_ms"] = ours_ms;
      row["graph_mem_bytes"] = static_cast<std::uint64_t>(graph_mem);
      row["vector_clock_ms"] = vc_ms;
      row["clock_mem_bytes"] = static_cast<std::uint64_t>(clock_mem);
      // Canonical counters schema (obs/metrics), shared with table2 rows.
      row["counters"] = counters;
      vc_rows.push_back(row);
    };
    add("Series-future", [&] {
      return std::make_unique<series_workload>(
          series_config{.coefficients = 1500 * scale,
                        .integration_points = 120,
                        .use_futures = true});
    });
    add("Crypt-future", [&] {
      return std::make_unique<crypt_workload>(
          crypt_config{.bytes = 131072 * scale, .use_futures = true});
    });
    add("Jacobi", [&] {
      return std::make_unique<jacobi_workload>(
          jacobi_config{.n = 258, .tile = 32, .iterations = 8});
    });
    add("Smith-Waterman", [&] {
      return std::make_unique<sw_workload>(
          sw_config{.rows = 600, .cols = 600, .tile = 40});
    });
    std::printf("\nDetector vs per-task vector clocks on future programs "
                "(paper §1/§6: clock storage grows with task count)\n\n");
    std::fputs(table.render().c_str(), stdout);
    std::printf("\nEvery spawn copies the parent's O(#tasks) clock, so clock "
                "bytes grow quadratically with task count; the reachability "
                "graph stays O(tasks + non-tree joins).\n");
  }

  if (flags.get_bool("json")) {
    doc["esp_bags"] = esp_rows;
    doc["vector_clock"] = vc_rows;
    const std::string path = flags.get_string("json-out");
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
      return 1;
    }
    out << doc.dump();
    std::printf("\nwrote %s\n", path.c_str());
  }
  return 0;
}
