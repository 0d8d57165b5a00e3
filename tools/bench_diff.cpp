// Compares two BENCH_*.json files (as written by bench/table2 --json, the
// google-benchmark binaries via --json, or bench/vs_baselines --json) and
// exits nonzero when the candidate regresses past a threshold.
//
// Classification is by leaf key name, because the two producers use
// different schemas but consistent naming:
//
//   * time-like keys (contain "ms", "time", "cpu", "real", "slowdown",
//     "per_second") are machine-dependent and therefore ADVISORY by
//     default — printed, never gated — unless --strict-time is given.
//   * rate/hit keys ("*_rate", "*_hits") measure fast-path effectiveness:
//     LOWER is worse; gated.
//   * booleans ("verified", "fastpath") must not flip true -> false; gated.
//   * every other numeric key is a structural counter (tasks, nt joins,
//     precede_queries, ...): HIGHER is worse (more work per access); gated.
//
// Arrays of objects are matched by their "name" member when present so row
// order does not matter; other arrays are matched by index. Keys present in
// the baseline but missing from the candidate produce a warning, not a
// failure, so schemas can evolve — EXCEPT the paper counters of the shared
// obs/metrics schema (tasks, precede_queries, ...): those are the measured
// claims of Table 2, and a candidate that silently stops reporting one is
// gated, not excused. Keys only the candidate has are advisory warnings.

#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "futrace/obs/metrics.hpp"
#include "futrace/support/json.hpp"

namespace {

using futrace::support::json;

enum class key_class {
  ignored,
  advisory_time,     // machine-dependent; gated only under --strict-time
  advisory_load,     // scheduling-dependent fill levels; never gated
  rate,
  counter,
  boolean,
  missing_paper,  // paper counter absent from the candidate; always gated
};

struct finding {
  std::string path;
  key_class cls;
  double base = 0;
  double cand = 0;
  double delta_pct = 0;  // signed change relative to baseline
  bool gated = false;    // counts toward the exit status
};

struct diff_config {
  double max_regress_pct = 10.0;
  bool strict_time = false;
};

bool contains(const std::string& s, const char* needle) {
  return s.find(needle) != std::string::npos;
}

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

key_class classify(const std::string& raw_key) {
  const std::string key = lower(raw_key);
  // Run metadata that legitimately differs between runs.
  if (key == "iterations" || key == "repetitions" || key == "repeats" ||
      key == "threads" || contains(key, "index")) {
    return key_class::ignored;
  }
  // Pipeline fill metrics (bench/table2 --detect-threads): ring occupancy
  // and backpressure spins depend on the OS schedule, not the trace, so a
  // swing in either direction is reported but never gated — not even under
  // --strict-time.
  if (contains(key, "occupancy") || contains(key, "backpressure")) {
    return key_class::advisory_load;
  }
  // Parallel-detect transport diagnostics (bench/table2 --exec=
  // parallel-detect): spill/steal/stall/drain volumes and takeover counts
  // depend on the work-stealing schedule and the machine's core count, so
  // they are surfaced but never gated.
  if (contains(key, "spill") || contains(key, "reorder") ||
      contains(key, "steal") || contains(key, "stall") ||
      contains(key, "drain") || contains(key, "demux") ||
      contains(key, "takeover")) {
    return key_class::advisory_load;
  }
  // Shared-structure mode (bench/table2 --structure=shared): admitted-
  // position lag, checker fence spins, and the shared graph footprint all
  // track load and allocator behavior, not the trace — advisory.
  if (contains(key, "admit_lag") || contains(key, "wait_spins") ||
      contains(key, "shared_graph") || contains(key, "structure_bytes")) {
    return key_class::advisory_load;
  }
  // Speedup-vs-serial is wall-clock and worker-count dependent: advisory
  // like the other time keys (gated only under --strict-time).
  if (contains(key, "ms") || contains(key, "time") || contains(key, "cpu") ||
      contains(key, "real") || contains(key, "slowdown") ||
      contains(key, "speedup") || contains(key, "per_second")) {
    return key_class::advisory_time;
  }
  if (contains(key, "rate") || contains(key, "hits")) return key_class::rate;
  return key_class::counter;
}

/// Key for matching array elements: the "name" member when present.
std::string element_key(const json& v, std::size_t index) {
  if (v.is_object()) {
    if (const json* name = v.find("name"); name && name->is_string()) {
      return name->as_string();
    }
  }
  return "#" + std::to_string(index);
}

void diff_value(const std::string& path, const std::string& leaf_key,
                const json& base, const json& cand, const diff_config& cfg,
                std::vector<finding>& out, std::vector<std::string>& warnings);

void diff_object(const std::string& path, const json& base, const json& cand,
                 const diff_config& cfg, std::vector<finding>& out,
                 std::vector<std::string>& warnings) {
  for (const auto& [key, base_member] : base.members()) {
    const json* cand_member = cand.find(key);
    if (cand_member == nullptr) {
      if (futrace::obs::is_paper_counter(key)) {
        out.push_back({path + "/" + key, key_class::missing_paper,
                       base_member.is_number() ? base_member.as_double() : 0,
                       0, -100.0, true});
      } else {
        warnings.push_back("candidate is missing " + path + "/" + key);
      }
      continue;
    }
    diff_value(path + "/" + key, key, base_member, *cand_member, cfg, out,
               warnings);
  }
  // The reverse direction — keys only the candidate reports — cannot be a
  // regression of anything the baseline measured, so it stays advisory.
  for (const auto& [key, cand_member] : cand.members()) {
    (void)cand_member;
    if (base.find(key) == nullptr) {
      warnings.push_back("candidate adds unknown key " + path + "/" + key);
    }
  }
}

void diff_array(const std::string& path, const json& base, const json& cand,
                const diff_config& cfg, std::vector<finding>& out,
                std::vector<std::string>& warnings) {
  for (std::size_t i = 0; i < base.size(); ++i) {
    const std::string key = element_key(base.at(i), i);
    const json* match = nullptr;
    if (key.rfind('#', 0) == 0) {
      if (i < cand.size()) match = &cand.at(i);
    } else {
      for (std::size_t j = 0; j < cand.size(); ++j) {
        if (element_key(cand.at(j), j) == key) {
          match = &cand.at(j);
          break;
        }
      }
    }
    if (match == nullptr) {
      warnings.push_back("candidate is missing " + path + "[" + key + "]");
      continue;
    }
    diff_value(path + "[" + key + "]", key, base.at(i), *match, cfg, out,
               warnings);
  }
}

void diff_value(const std::string& path, const std::string& leaf_key,
                const json& base, const json& cand, const diff_config& cfg,
                std::vector<finding>& out, std::vector<std::string>& warnings) {
  if (base.is_object() && cand.is_object()) {
    diff_object(path, base, cand, cfg, out, warnings);
    return;
  }
  if (base.is_array() && cand.is_array()) {
    diff_array(path, base, cand, cfg, out, warnings);
    return;
  }
  if (base.is_bool() && cand.is_bool()) {
    if (base.as_bool() && !cand.as_bool()) {
      out.push_back({path, key_class::boolean, 1, 0, -100.0, true});
    }
    return;
  }
  if (!base.is_number() || !cand.is_number()) return;  // strings etc.

  const key_class cls = classify(leaf_key);
  if (cls == key_class::ignored) return;
  const double b = base.as_double();
  const double c = cand.as_double();
  if (b == 0 && c == 0) return;
  const double delta_pct = b != 0 ? (c - b) / b * 100.0 : 100.0;

  bool regressed = false;
  bool gated = true;
  switch (cls) {
    case key_class::advisory_time:
      regressed = delta_pct > cfg.max_regress_pct;  // slower = worse
      gated = cfg.strict_time;
      break;
    case key_class::advisory_load:
      // Either direction is worth a look (a drained ring can mean the
      // producer slowed down just as much as a full one can mean the
      // checkers did), but neither is a verdict.
      regressed = delta_pct > cfg.max_regress_pct ||
                  delta_pct < -cfg.max_regress_pct;
      gated = false;
      break;
    case key_class::rate:
      regressed = delta_pct < -cfg.max_regress_pct;  // fewer hits = worse
      break;
    case key_class::counter:
      regressed = delta_pct > cfg.max_regress_pct;  // more work = worse
      break;
    default:
      break;
  }
  if (!regressed) return;
  out.push_back({path, cls, b, c, delta_pct, gated});
}

json load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_diff: cannot read %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    return json::parse(buf.str());
  } catch (const futrace::support::json_parse_error& e) {
    std::fprintf(stderr, "bench_diff: %s: %s\n", path.c_str(), e.what());
    std::exit(2);
  }
}

int report(const std::vector<finding>& findings,
           const std::vector<std::string>& warnings,
           const diff_config& cfg) {
  for (const std::string& w : warnings) {
    std::fprintf(stderr, "warning: %s\n", w.c_str());
  }
  int gated = 0;
  for (const finding& f : findings) {
    const char* tag = f.gated ? "REGRESSION" : "advisory";
    const char* why = "";
    switch (f.cls) {
      case key_class::advisory_time: why = "slower"; break;
      case key_class::advisory_load: why = "load shifted"; break;
      case key_class::rate: why = "hit rate dropped"; break;
      case key_class::counter: why = "counter grew"; break;
      case key_class::boolean: why = "flag flipped to false"; break;
      case key_class::missing_paper:
        why = "paper counter missing from candidate";
        break;
      default: break;
    }
    std::printf("%-10s %s: %.6g -> %.6g (%+.1f%%, %s)\n", tag,
                f.path.c_str(), f.base, f.cand, f.delta_pct, why);
    if (f.gated) ++gated;
  }
  if (gated > 0) {
    std::printf("%d gated regression(s) beyond %.1f%%\n", gated,
                cfg.max_regress_pct);
    return 1;
  }
  std::printf("no gated regressions (threshold %.1f%%, %zu advisory)\n",
              cfg.max_regress_pct, findings.size());
  return 0;
}

// Hermetic check of the classification rules, runnable as a ctest entry
// without any benchmark having to run first.
int self_test() {
  diff_config cfg;
  auto run = [&](const char* base_text, const char* cand_text) {
    std::vector<finding> findings;
    std::vector<std::string> warnings;
    const json base = json::parse(base_text);
    const json cand = json::parse(cand_text);
    diff_value("", "", base, cand, cfg, findings, warnings);
    int gated = 0;
    for (const finding& f : findings) gated += f.gated ? 1 : 0;
    return gated;
  };
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "self-test FAILED: %s\n", what);
      ++failures;
    }
  };

  expect(run(R"({"seq_ms": 10})", R"({"seq_ms": 100})") == 0,
         "time keys are advisory by default");
  expect(run(R"({"precede_queries": 100})", R"({"precede_queries": 150})") == 1,
         "counter growth is gated");
  expect(run(R"({"precede_queries": 100})", R"({"precede_queries": 104})") == 0,
         "counter growth inside the threshold passes");
  expect(run(R"({"memo_hit_rate": 0.9})", R"({"memo_hit_rate": 0.5})") == 1,
         "hit-rate drop is gated");
  expect(run(R"({"direct_hits": 50})", R"({"direct_hits": 100})") == 0,
         "hit growth is an improvement");
  expect(run(R"({"verified": true})", R"({"verified": false})") == 1,
         "verified flipping false is gated");
  // Range-coalescing keys from bench/table2: effectiveness metrics, so a
  // drop gates and growth passes.
  expect(run(R"({"range_hit_rate": 0.8})", R"({"range_hit_rate": 0.2})") == 1,
         "range hit-rate drop is gated");
  expect(run(R"({"range_hit_rate": 0.5})", R"({"range_hit_rate": 0.9})") == 0,
         "range hit-rate growth passes");
  expect(run(R"({"summary_hits": 1000})", R"({"summary_hits": 10})") == 1,
         "summary-hit drop is gated");
  expect(run(R"({"range_events": 100})", R"({"range_events": 90})") == 0,
         "fewer range events (better coalescing) passes");
  expect(run(R"({"rows": [{"name": "b", "tasks": 5}, {"name": "a", "tasks": 9}]})",
             R"({"rows": [{"name": "a", "tasks": 9}, {"name": "b", "tasks": 5}]})") == 0,
         "rows are matched by name, not order");
  expect(run(R"({"iterations": 1000})", R"({"iterations": 5000})") == 0,
         "iteration counts are ignored");

  // Pipelined-detector keys from bench/table2 --detect-threads: fill levels
  // are scheduling noise, degradation counters are hard facts.
  expect(run(R"({"occupancy_pct": 12.0})", R"({"occupancy_pct": 80.0})") == 0,
         "ring occupancy swings are never gated");
  expect(run(R"({"backpressure_waits": 10})",
             R"({"backpressure_waits": 9000})") == 0,
         "backpressure spins are never gated");
  expect(run(R"({"inline_fallbacks": 0})", R"({"inline_fallbacks": 3})") == 1,
         "inline fallbacks appearing is gated");
  expect(run(R"({"pipe_events": 1000})", R"({"pipe_events": 1500})") == 1,
         "pipeline event-count growth is gated");

  // PRECEDE search profile from bench/ablation_ntjoins: more label tests
  // or frontier searches per query is more work per query.
  expect(run(R"({"label_comparisons_per_query": 1.0})",
             R"({"label_comparisons_per_query": 2.0})") == 1,
         "label-comparison growth is gated");
  expect(run(R"({"frontier_searches_per_query": 0.5})",
             R"({"frontier_searches_per_query": 0.0})") == 0,
         "frontier-search drop passes");

  // Parallel-detect keys from bench/table2 --exec=parallel-detect:
  // schedule-dependent transport volumes are advisory, wall-clock speedup
  // is a time key, and the worker count is run metadata.
  expect(run(R"({"spilled_events": 0})", R"({"spilled_events": 500})") == 0,
         "spill volume swings are never gated");
  expect(run(R"({"takeover_events": 0})", R"({"takeover_events": 9})") == 0,
         "inline-takeover volume is never gated");
  expect(run(R"({"steal_attempts": 100})", R"({"steal_attempts": 9000})") == 0,
         "steal counts are never gated");
  expect(run(R"({"speedup_vs_serial": 3.0})",
             R"({"speedup_vs_serial": 0.5})") == 0,
         "speedup-vs-serial regressions are advisory by default");
  // Like every counter, the workers field gates only on growth; a drop
  // shows up through the advisory time/load keys instead.
  expect(run(R"({"workers": 4})", R"({"workers": 8})") == 1,
         "worker-count growth is a config change and gates");
  expect(run(R"({"workers": 4})", R"({"workers": 1})") == 0,
         "worker-count drop alone does not gate");

  // Shared-structure keys from bench/table2 --structure=shared: the
  // admitted-position lag and fence spins track the OS schedule, and the
  // shared graph footprint tracks allocator behavior — all advisory.
  expect(run(R"({"structure_admit_lag_max": 1})",
             R"({"structure_admit_lag_max": 2})") == 0,
         "admit-lag swings are never gated");
  expect(run(R"({"checker_wait_spins": 10})",
             R"({"checker_wait_spins": 90000})") == 0,
         "checker fence spins are never gated");
  expect(run(R"({"shared_graph_bytes": 4096})",
             R"({"shared_graph_bytes": 65536})") == 0,
         "shared-graph footprint swings are never gated");

  cfg.strict_time = true;
  expect(run(R"({"seq_ms": 10})", R"({"seq_ms": 100})") == 1,
         "--strict-time gates time keys");
  expect(run(R"({"occupancy_pct": 12.0})", R"({"occupancy_pct": 80.0})") == 0,
         "--strict-time still does not gate occupancy");
  cfg.strict_time = false;

  // Missing keys warn instead of failing — unless they are paper counters.
  {
    std::vector<finding> findings;
    std::vector<std::string> warnings;
    diff_value("", "", json::parse(R"({"tasks": 1, "gone": 2})"),
               json::parse(R"({"tasks": 1})"), cfg, findings, warnings);
    expect(findings.empty() && warnings.size() == 1,
           "missing candidate keys warn");
  }
  expect(run(R"({"counters": {"precede_queries": 100}})",
             R"({"counters": {}})") == 1,
         "missing paper counter is gated");
  expect(run(R"({"counters": {"tasks": 7, "races_observed": 0}})",
             R"({"counters": {"races_observed": 0}})") == 1,
         "dropping the tasks counter is gated");
  // Candidate-only keys are advisory: a schema can grow without a baseline
  // refresh, but the addition is surfaced.
  {
    std::vector<finding> findings;
    std::vector<std::string> warnings;
    diff_value("", "", json::parse(R"({"tasks": 1})"),
               json::parse(R"({"tasks": 1, "novel_metric": 3})"), cfg,
               findings, warnings);
    expect(findings.empty() && warnings.size() == 1 &&
               warnings[0].find("novel_metric") != std::string::npos,
           "candidate-only keys warn without gating");
  }

  if (failures == 0) std::printf("bench_diff self-test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  diff_config cfg;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return self_test();
    if (arg == "--strict-time") {
      cfg.strict_time = true;
    } else if (arg == "--max-regress" && i + 1 < argc) {
      cfg.max_regress_pct = std::atof(argv[++i]);
    } else if (arg.rfind("--max-regress=", 0) == 0) {
      cfg.max_regress_pct = std::atof(arg.c_str() + std::strlen("--max-regress="));
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "bench_diff: unknown flag %s\n", arg.c_str());
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (files.size() != 2) {
    std::fprintf(stderr,
                 "usage: bench_diff <baseline.json> <candidate.json>\n"
                 "       [--max-regress <pct>] [--strict-time] | --self-test\n");
    return 2;
  }

  const json base = load_file(files[0]);
  const json cand = load_file(files[1]);
  std::vector<finding> findings;
  std::vector<std::string> warnings;
  diff_value("", "", base, cand, cfg, findings, warnings);
  return report(findings, warnings, cfg);
}
