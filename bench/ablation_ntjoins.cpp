// Ablation backing the paper's §5 observation that "slowdowns are not
// significantly impacted by the number of non-tree edges ... usually only
// requiring 1-2 hops involving non-tree edges":
//
//  (a) sweep the number of non-tree joins at constant shared-memory traffic
//      (future chain: every task joins its predecessor),
//  (b) sweep the *hop distance* a PRECEDE query must walk (task i joins
//      task i-1, but the queried access pairs are k hops apart),
//  (c) sweep the number of parallel future readers per location (the
//      v·(f+1) term of Theorem 1's space/time bound).
//
// Reported per configuration: detection time, PRECEDE queries, non-tree
// edges walked per query — the direct cost drivers in Algorithm 10.

#include <cstdio>
#include <fstream>
#include <vector>

#include "futrace/detect/race_detector.hpp"
#include "futrace/obs/metrics.hpp"
#include "futrace/runtime/runtime.hpp"
#include "futrace/support/flags.hpp"
#include "futrace/support/json.hpp"
#include "futrace/support/table.hpp"
#include "futrace/support/timer.hpp"
#include "futrace/workloads/jacobi.hpp"

namespace {

using namespace futrace;
using support::stopwatch;
using support::text_table;

struct run_stats {
  double ms = 0;
  detect::detector_counters counters;
  dsr::reachability_stats reach;
};

template <typename Fn>
run_stats run_detected(const detect::race_detector::options& opts,
                       Fn&& program) {
  detect::race_detector det(opts);
  runtime rt({.mode = exec_mode::serial_dfs});
  rt.add_observer(&det);
  stopwatch timer;
  rt.run(std::forward<Fn>(program));
  run_stats s;
  s.ms = timer.elapsed_ms();
  s.counters = det.counters();
  s.reach = det.reachability_stats();
  if (det.race_detected()) {
    std::fprintf(stderr, "ablation workload unexpectedly racy\n");
    std::exit(1);
  }
  return s;
}

double per_query(std::uint64_t total, std::uint64_t queries) {
  return queries == 0 ? 0.0
                      : static_cast<double>(total) /
                            static_cast<double>(queries);
}

// (a)+(b): chain of future tasks; task i gets task i-hop, then reads the
// cells written by that predecessor and writes its own.
void chain_workload(std::size_t tasks, std::size_t hop,
                    std::size_t accesses_per_task) {
  shared_array<int> cells(tasks * accesses_per_task, 0);
  std::vector<future<void>> futs(tasks);
  for (std::size_t i = 0; i < tasks; ++i) {
    future<void> dep = i >= hop ? futs[i - hop] : future<void>{};
    futs[i] = async_future([&cells, i, hop, accesses_per_task, dep] {
      if (dep.valid()) dep.get();
      for (std::size_t a = 0; a < accesses_per_task; ++a) {
        if (i >= hop) {
          (void)cells.read((i - hop) * accesses_per_task + a);
        }
        cells.write(i * accesses_per_task + a, static_cast<int>(i));
      }
    });
  }
  for (std::size_t i = tasks - hop > tasks ? 0 : tasks - hop; i < tasks; ++i) {
    futs[i].get();
  }
  // Join stragglers so the implicit finish is quiet about them.
  for (auto& f : futs) f.get();
}

// (b): chain where every task joins only its immediate predecessor but reads
// cells written `back` tasks earlier — the PRECEDE query must walk `back`
// non-tree edges to prove the transitive ordering.
void chain_read_back_workload(std::size_t tasks, std::size_t back,
                              std::size_t accesses_per_task) {
  shared_array<int> cells(tasks * accesses_per_task, 0);
  std::vector<future<void>> futs(tasks);
  for (std::size_t i = 0; i < tasks; ++i) {
    future<void> dep = i >= 1 ? futs[i - 1] : future<void>{};
    futs[i] = async_future([&cells, i, back, accesses_per_task, dep] {
      if (dep.valid()) dep.get();
      for (std::size_t a = 0; a < accesses_per_task; ++a) {
        if (i >= back) {
          (void)cells.read((i - back) * accesses_per_task + a);
        }
        cells.write(i * accesses_per_task + a, static_cast<int>(i));
      }
    });
  }
  for (auto& f : futs) f.get();
}

// (c): f parallel future readers of one location, then an ordered writer.
void reader_fanout_workload(std::size_t readers, std::size_t rounds) {
  shared_array<int> cell(1, 7);
  for (std::size_t round = 0; round < rounds; ++round) {
    std::vector<future<int>> rs(readers);
    for (std::size_t i = 0; i < readers; ++i) {
      rs[i] = async_future([&cell] { return cell.read(0); });
    }
    for (auto& r : rs) (void)r.get();
    cell.write(0, static_cast<int>(round));
  }
}

}  // namespace

int main(int argc, char** argv) {
  support::flag_parser flags;
  flags.define("tasks", "4000", "tasks in the future chain")
      .define("accesses", "64", "shared accesses per task")
      .define("json", "false", "write machine-readable results")
      .define("json-out", "BENCH_ablation_ntjoins.json",
              "path for --json output")
      .define("no-fastpath", "false",
              "disable the direct/memo/stamp fast paths")
      .define("trace", "",
              "write a Chrome trace-event JSON of each detected run to this "
              "path (runs overwrite; the file holds the last sweep point)");
  flags.parse(argc, argv);
  const auto tasks = static_cast<std::size_t>(flags.get_int("tasks"));
  const auto accesses = static_cast<std::size_t>(flags.get_int("accesses"));
  detect::race_detector::options opts;
  opts.enable_fastpath = !flags.get_bool("no-fastpath");
  opts.trace_path = flags.get_string("trace");

  using support::json;
  json doc = json::object();
  doc["bench"] = "ablation_ntjoins";
  doc["tasks"] = static_cast<std::uint64_t>(tasks);
  doc["accesses"] = static_cast<std::uint64_t>(accesses);
  doc["fastpath"] = opts.enable_fastpath;
  json sweep_nt = json::array();
  json sweep_hop = json::array();
  json sweep_readers = json::array();
  json sweep_jacobi = json::array();

  {
    text_table table({"#NTJoins", "#SharedMem", "Time(ms)",
                      "PrecedeQueries", "NtEdges/query",
                      "VisitSteps/query"});
    for (const std::size_t n : {0ul, 500ul, 1000ul, 2000ul, 4000ul}) {
      // Constant total work: n chained future tasks plus (tasks - n)
      // independent ones.
      const std::size_t chain = n == 0 ? 1 : n;
      run_stats s = run_detected(opts, [&] {
        chain_workload(chain, 1, accesses * tasks / chain);
      });
      table.add_row(
          {text_table::with_commas(s.counters.non_tree_joins),
           text_table::with_commas(s.counters.shared_mem_accesses),
           text_table::fixed(s.ms, 1),
           text_table::with_commas(s.reach.precede_queries),
           text_table::fixed(
               per_query(s.reach.nt_edges_walked, s.reach.precede_queries),
               2),
           text_table::fixed(
               per_query(s.reach.visit_steps, s.reach.precede_queries),
               2)});
      json row = json::object();
      row["nt_joins"] = s.counters.non_tree_joins;
      row["shared_mem_accesses"] = s.counters.shared_mem_accesses;
      row["time_ms"] = s.ms;
      row["precede_queries"] = s.reach.precede_queries;
      row["nt_edges_per_query"] =
          per_query(s.reach.nt_edges_walked, s.reach.precede_queries);
      row["visit_steps_per_query"] =
          per_query(s.reach.visit_steps, s.reach.precede_queries);
      row["label_comparisons_per_query"] =
          per_query(s.reach.label_comparisons, s.reach.precede_queries);
      row["frontier_searches_per_query"] =
          per_query(s.reach.frontier_searches, s.reach.precede_queries);
      row["counters"] = obs::counters_json(s.counters);
      sweep_nt.push_back(row);
    }
    std::printf("(a) Sweep of non-tree join count at constant shared-memory "
                "traffic (paper §5: NT joins do not dominate)\n\n");
    std::fputs(table.render().c_str(), stdout);
  }

  {
    text_table table({"HopDistance", "Time(ms)", "NtEdges/query",
                      "VisitSteps/query", "Frontier/query"});
    for (const std::size_t hop : {1ul, 2ul, 4ul, 16ul, 64ul, 256ul}) {
      run_stats s = run_detected(
          opts, [&] { chain_read_back_workload(tasks, hop, accesses); });
      table.add_row(
          {std::to_string(hop), text_table::fixed(s.ms, 1),
           text_table::fixed(
               per_query(s.reach.nt_edges_walked, s.reach.precede_queries),
               2),
           text_table::fixed(
               per_query(s.reach.visit_steps, s.reach.precede_queries), 2),
           text_table::fixed(per_query(s.reach.frontier_searches,
                                       s.reach.precede_queries),
                             2)});
      json row = json::object();
      row["hop_distance"] = static_cast<std::uint64_t>(hop);
      row["time_ms"] = s.ms;
      row["nt_edges_per_query"] =
          per_query(s.reach.nt_edges_walked, s.reach.precede_queries);
      row["visit_steps_per_query"] =
          per_query(s.reach.visit_steps, s.reach.precede_queries);
      row["label_comparisons_per_query"] =
          per_query(s.reach.label_comparisons, s.reach.precede_queries);
      row["frontier_searches_per_query"] =
          per_query(s.reach.frontier_searches, s.reach.precede_queries);
      row["counters"] = obs::counters_json(s.counters);
      sweep_hop.push_back(row);
    }
    std::printf("\n(b) Sweep of producer-consumer hop distance (paper §5: "
                "benchmarks need 1-2 hops; cost grows with distance)\n\n");
    std::fputs(table.render().c_str(), stdout);
  }

  {
    text_table table({"FutureReaders", "#AvgReaders", "Time(ms)",
                      "PrecedeQueries"});
    for (const std::size_t readers : {1ul, 2ul, 4ul, 8ul, 16ul, 32ul}) {
      run_stats s = run_detected(opts, [&] {
        reader_fanout_workload(readers, 3000 / readers);
      });
      table.add_row({std::to_string(readers),
                     text_table::fixed(s.counters.avg_readers, 2),
                     text_table::fixed(s.ms, 1),
                     text_table::with_commas(s.reach.precede_queries)});
      json row = json::object();
      row["future_readers"] = static_cast<std::uint64_t>(readers);
      row["avg_readers"] = s.counters.avg_readers;
      row["time_ms"] = s.ms;
      row["precede_queries"] = s.reach.precede_queries;
      row["counters"] = obs::counters_json(s.counters);
      sweep_readers.push_back(row);
    }
    std::printf("\n(c) Sweep of parallel future readers per location (the "
                "v*(f+1) term of Theorem 1)\n\n");
    std::fputs(table.render().c_str(), stdout);
  }

  {
    // (d) Jacobi with a residual convergence window: a real stencil
    // workload whose extra reads force transitive non-tree queries up to
    // `window` hops deep (single tile, so the per-iteration chain is the
    // only ordering path). This is the Jacobi configuration where the
    // PRECEDE search dominates time-to-verdict.
    text_table table({"ResidualWindow", "Time(ms)", "PrecedeQueries",
                      "NtEdges/query", "VisitSteps/query"});
    for (const std::size_t win : {0ul, 16ul, 64ul, 256ul}) {
      workloads::jacobi_workload w(workloads::jacobi_config{
          .n = 34, .tile = 32, .iterations = 400, .residual_window = win});
      run_stats s = run_detected(opts, [&] { w(); });
      if (!w.verify()) {
        std::fprintf(stderr, "jacobi residual sweep failed verification\n");
        return 1;
      }
      table.add_row(
          {std::to_string(win), text_table::fixed(s.ms, 1),
           text_table::with_commas(s.reach.precede_queries),
           text_table::fixed(
               per_query(s.reach.nt_edges_walked, s.reach.precede_queries),
               2),
           text_table::fixed(
               per_query(s.reach.visit_steps, s.reach.precede_queries),
               2)});
      json row = json::object();
      row["residual_window"] = static_cast<std::uint64_t>(win);
      row["time_ms"] = s.ms;
      row["precede_queries"] = s.reach.precede_queries;
      row["nt_edges_per_query"] =
          per_query(s.reach.nt_edges_walked, s.reach.precede_queries);
      row["visit_steps_per_query"] =
          per_query(s.reach.visit_steps, s.reach.precede_queries);
      row["label_comparisons_per_query"] =
          per_query(s.reach.label_comparisons, s.reach.precede_queries);
      row["frontier_searches_per_query"] =
          per_query(s.reach.frontier_searches, s.reach.precede_queries);
      row["counters"] = obs::counters_json(s.counters);
      sweep_jacobi.push_back(row);
    }
    std::printf("\n(d) Jacobi with a residual convergence window (deep "
                "transitive non-tree queries on a real stencil)\n\n");
    std::fputs(table.render().c_str(), stdout);
  }

  if (flags.get_bool("json")) {
    doc["sweep_nt_joins"] = sweep_nt;
    doc["sweep_hop_distance"] = sweep_hop;
    doc["sweep_future_readers"] = sweep_readers;
    doc["sweep_jacobi_residual"] = sweep_jacobi;
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
