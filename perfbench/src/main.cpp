// The repository benchmark: time-to-verdict of every detection mode on one
// seeded workload, each verdict checked against the inline detector.
//
//   perfbench --workload jacobi-ntjoin --seed 1 --seconds 25 --trace 0
//
// --trace 0 measures the end-to-end metrics. --trace 1 is the separate
// traced run: the same rounds with timing probes in front of the detectors,
// reporting per-layer metrics and writing coarse spans to --spans-out.
// Rounds repeat until --seconds have passed. A program's time in a mode is
// taken over its rounds (see program_ms); the time metrics are the typical
// program and the 99th percentile over the workload's programs. The last
// line of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Any verdict mismatch exits 1.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "futrace/support/flags.hpp"
#include "futrace/support/json.hpp"
#include "futrace/support/stats.hpp"
#include "modes.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using futrace::support::sample_set;

/// The host probe's time on the quiet 4-core Xeon host (105 MiB L3) whose
/// runs set the bounds in BENCHMARK.json. End-to-end times are scaled to that
/// host speed; on other hardware the scale is off by a constant factor,
/// which cancels when two commits are compared there.
constexpr double k_reference_probe_ns = 1.6e6;

/// How often the end-to-end run re-times the host probe.
constexpr std::int64_t k_probe_interval_ns = 20'000'000;

/// Runs of each serial mode per program and round in the end-to-end run:
/// they are cheap next to the concurrent modes, and their estimate is a low
/// percentile, which needs samples.
constexpr int k_serial_repeats = 3;

/// Span capacity of one traced run (progen rounds alone would produce tens
/// of thousands; the rest are counted as dropped).
constexpr std::size_t k_span_capacity = 20000;

unsigned online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// One round's measurements: per-mode sums over the round's programs.
struct round_result {
  std::int64_t setup_ns = 0;
  std::vector<double> mode_ms;  // indexed like the run's mode list
  std::size_t detector_bytes = 0;  // peak over programs, inline verdicts
  tally layers;
};

/// The mismatch between a mode's verdict and the inline reference, or "".
std::string compare_verdicts(const verdict& ref, const verdict& v) {
  if (v.raced != ref.raced) return "race verdict differs";
  if (v.race_count != ref.race_count) {
    return "race count " + std::to_string(v.race_count) + " vs " +
           std::to_string(ref.race_count);
  }
  if (v.racy != ref.racy) return "racy-location set differs";
  if (!paper_counters_equal(v.counters, ref.counters)) {
    return "paper counters differ";
  }
  return "";
}

struct checker {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void fail(const workload& w, std::size_t index, mode_id m,
            const std::string& why) {
    ++failed;
    if (failed <= 10) {
      std::fprintf(stderr, "MISMATCH %s program %zu mode %s: %s\n",
                   w.name.c_str(), index, mode_name(m), why.c_str());
    }
  }
};

/// Mean of `values` with the lowest and highest 10% dropped.
double trimmed_mean(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t drop = values.size() / 10;
  double sum = 0;
  for (std::size_t i = drop; i < values.size() - drop; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * drop);
}

/// One program's time-to-verdict in mode `m`, from its samples over the
/// rounds. A serial mode repeats fixed work on one thread, so interference
/// from the host only adds time: its lower decile is the program's cost. A
/// concurrent mode also varies with the schedule and with which allocator
/// arenas its threads get, often in two clusters, and a user pays that
/// variation: its mean is taken, with the top and bottom 10% dropped to
/// shed host interference.
double program_ms(mode_id m, std::vector<double> over_rounds) {
  if (is_concurrent(m)) return trimmed_mean(std::move(over_rounds));
  sample_set s;
  for (double x : over_rounds) s.add(x);
  return s.percentile(10.0);
}

}  // namespace

int run(int argc, char** argv) {
  // glibc adapts its mmap and trim thresholds to the first large frees it
  // sees, so the regime a process settles in depends on allocation order.
  // Whole runs of the concurrent modes differed by 30% with it. Start every
  // run at the thresholds glibc adapts toward (32 MiB, and twice that).
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);

  futrace::support::flag_parser flags;
  flags.define("workload", "", "jacobi-ntjoin, crypt-tasks, "
                               "strassen-regions or progen-batch")
      .define("seed", "1", "input seed")
      .define("seconds", "10", "measure rounds for this long")
      .define("trace", "0", "0: end-to-end metrics; 1: traced per-layer run")
      .define("spans-out", "", "traced run: write spans as JSON here");
  flags.parse(argc, argv);

  const std::string name = flags.get_string("workload");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const double seconds = static_cast<double>(flags.get_int("seconds"));
  const bool traced = flags.get_int("trace") != 0;
  std::unique_ptr<workload> wl = make_workload(name, seed);
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown --workload '%s'\n", name.c_str());
    return 2;
  }
  if (seconds < 1) {
    std::fprintf(stderr, "--seconds must be at least 1\n");
    return 2;
  }

  const thread_split split;

  const std::vector<mode_id> modes =
      traced ? std::vector<mode_id>{mode_id::elision, mode_id::dfs_noop,
                                    mode_id::inline_plain,
                                    mode_id::inline_traced,
                                    mode_id::pipelined, mode_id::pardetect,
                                    mode_id::pardetect_shared}
             : std::vector<mode_id>{mode_id::elision, mode_id::inline_plain,
                                    mode_id::pipelined, mode_id::pardetect,
                                    mode_id::pardetect_shared};
  auto index_of = [&modes](mode_id m) {
    for (std::size_t i = 0; i < modes.size(); ++i) {
      if (modes[i] == m) return i;
    }
    return modes.size();
  };

  // Machine facts that bound comparability, and the refusal of any thread
  // split the machine cannot run without oversubscription.
  const unsigned nproc = online_cpus();
  std::printf("perfbench: workload=%s (%s) seed=%llu seconds=%g trace=%d\n",
              wl->name.c_str(), wl->describe.c_str(),
              static_cast<unsigned long long>(seed), seconds, traced ? 1 : 0);
  std::printf("machine: nproc=%u compiler=\"%s\" build=%s\n", nproc,
              __VERSION__, PERFBENCH_BUILD_TYPE);
  std::printf("threads: pipelined=1+%u pardetect=%u+%u "
              "pardetect_shared=%u+%u+1 (producer/workers + checkers"
              " [+ writer])\n",
              split.pipe_checkers, split.par_workers, split.par_checkers,
              split.shared_workers, split.shared_checkers);
  for (mode_id m : modes) {
    if (threads_of(m, split) > nproc) {
      std::fprintf(stderr, "refused: mode %s needs %u threads, nproc is %u\n",
                   mode_name(m), threads_of(m, split), nproc);
      return 2;
    }
  }

  std::unique_ptr<span_log> spans;
  if (traced) spans = std::make_unique<span_log>(k_span_capacity);
  run_context ctx;
  ctx.split = split;
  ctx.traced = traced;
  ctx.spans = spans.get();
  const timer_cost timer = traced ? calibrate_timer() : timer_cost{};

  checker check;
  std::vector<round_result> rounds;
  // Time-to-verdict samples per mode and program, one per round.
  std::vector<std::vector<std::vector<double>>> samples(
      modes.size(), std::vector<std::vector<double>>(wl->programs));
  const std::uint32_t root_span =
      spans ? spans->open(wl->name.c_str(), 0) : 0;
  // The shared host's speed drifts by up to 50% over minutes (other
  // tenants' memory traffic). The end-to-end run re-times a fixed
  // memory-bound probe every 20 ms and divides each time by how much slower
  // than the reference the probe ran; as-measured times are kept for the
  // printed summary.
  host_probe probe;
  double host_slowdown = 1.0;
  auto last_probe = bench_clock::now();
  std::vector<std::vector<std::vector<double>>> measured = samples;
  std::size_t racy_programs = 0;

  // Memory pass, untimed: every program once through the inline detector,
  // before any concurrent mode has started a thread. The concurrent modes
  // scatter their allocations over per-thread allocator arenas, and one run
  // in thousands balloons transiently, so a high-water mark taken after
  // them measures luck; their structure footprint is a per-layer metric.
  for (std::size_t i = 0; i < wl->programs; ++i) {
    std::unique_ptr<program> prog = wl->make(i);
    run_mode(mode_id::inline_plain, *prog, run_context{});
  }
  const double inline_rss = peak_rss_mib();

  const auto start = bench_clock::now();
  do {
    round_result rr;
    rr.mode_ms.assign(modes.size(), 0.0);
    const std::uint32_t round_span =
        spans ? spans->open("round", root_span) : 0;
    ctx.parent_span = round_span;
    // The traced run alternates which inline run goes first, so allocator
    // and cache state left by one cannot bias the tracing overhead.
    std::vector<std::size_t> order;
    for (std::size_t k = 0; k < modes.size(); ++k) {
      const int runs = traced || is_concurrent(modes[k]) ? 1 : k_serial_repeats;
      order.insert(order.end(), runs, k);
    }
    if (traced && rounds.size() % 2 == 1) {
      std::swap(order[index_of(mode_id::inline_plain)],
                order[index_of(mode_id::inline_traced)]);
    }
    for (std::size_t i = 0; i < wl->programs; ++i) {
      std::unique_ptr<program> shared_prog;
      if (wl->shared_instance) {
        const auto t0 = bench_clock::now();
        shared_prog = wl->make(i);
        rr.setup_ns += ns_between(t0, bench_clock::now());
      }
      verdict reference;
      bool have_reference = false;
      for (const std::size_t k : order) {
        const mode_id m = modes[k];
        std::unique_ptr<program> fresh;
        program* prog = shared_prog.get();
        if (!wl->shared_instance) {
          const auto t0 = bench_clock::now();
          fresh = wl->make(i);
          rr.setup_ns += ns_between(t0, bench_clock::now());
          prog = fresh.get();
        }
        if (!traced && (check.attempted == 0 ||
                        ns_between(last_probe, bench_clock::now()) >
                            k_probe_interval_ns)) {
          host_slowdown = probe.run() / k_reference_probe_ns;
          last_probe = bench_clock::now();
        }
        ++check.attempted;
        mode_result res;
        try {
          res = run_mode(m, *prog, ctx);
        } catch (const std::exception& e) {
          check.fail(*wl, i, m, std::string("threw: ") + e.what());
          continue;
        }
        rr.mode_ms[k] += res.ms;
        samples[k][i].push_back(res.ms / host_slowdown);
        measured[k][i].push_back(res.ms);
        rr.layers.merge(res.layers);
        if (!res.output_ok) {
          check.fail(*wl, i, m, "program output failed verify()");
          continue;
        }
        if (!res.engaged) {
          check.fail(*wl, i, m, "concurrent transport did not engage");
          continue;
        }
        if (!res.has_verdict) continue;
        if (!have_reference && (m == mode_id::inline_plain ||
                                m == mode_id::inline_traced)) {
          reference = res.v;
          have_reference = true;
          if (rounds.empty() && res.v.raced) ++racy_programs;
          rr.detector_bytes = std::max(rr.detector_bytes, res.detector_bytes);
          if (wl->race_free && res.v.raced) {
            check.fail(*wl, i, m, "race reported on a race-free workload");
          }
          continue;
        }
        const std::string why = have_reference
                                    ? compare_verdicts(reference, res.v)
                                    : "no inline reference";
        if (!why.empty()) check.fail(*wl, i, m, why + " " + prog->placement());
      }
    }
    if (spans) spans->close(round_span);
    rounds.push_back(std::move(rr));
  } while (static_cast<double>(ns_between(start, bench_clock::now())) * 1e-9 <
           seconds);
  if (spans) spans->close(root_span);

  auto median_over_rounds = [&rounds](auto&& f) {
    sample_set s;
    for (const round_result& r : rounds) s.add(f(r));
    return s.median();
  };
  auto mode_ms = [&](mode_id m) {
    const std::size_t k = index_of(m);
    return [k](const round_result& r) { return r.mode_ms[k]; };
  };

  futrace::support::json metrics = futrace::support::json::object();
  auto emit = [&metrics](const std::string& metric, double value,
                          const char* unit) {
    std::printf("  %-40s %16.4f %s\n", metric.c_str(), value, unit);
    futrace::support::json entry = futrace::support::json::object();
    entry["value"] = value;
    entry["unit"] = unit;
    metrics[metric] = entry;
  };

  // Each program's time per mode: the single-program kernels have one
  // program, progen-batch has 1,000. Across programs, the typical program is
  // their 10%-trimmed mean: progen's programs change with the seed, and a
  // median over them jumped between clusters of program sizes.
  auto over_programs = [&](const auto& per_mode) {
    std::vector<std::vector<double>> out(modes.size());
    for (std::size_t k = 0; k < modes.size(); ++k) {
      for (const std::vector<double>& s : per_mode[k]) {
        if (!s.empty()) out[k].push_back(program_ms(modes[k], s));
      }
    }
    return out;
  };
  auto p99 = [](const std::vector<double>& values) {
    sample_set s;
    for (double x : values) s.add(x);
    return s.percentile(99);
  };
  const auto per_program = over_programs(samples);
  const auto as_measured = over_programs(measured);
  std::printf("rounds: %zu, programs per round: %zu, racy programs: %zu "
              "(per program: serial modes p10 over rounds, concurrent modes "
              "10%%-trimmed mean)\n",
              rounds.size(), wl->programs, racy_programs);
  for (std::size_t k = 0; k < modes.size(); ++k) {
    if (per_program[k].empty()) continue;
    std::printf("  %-18s typical %.4f p99 %.4f ms over %zu programs; as "
                "measured %.4f p99 %.4f ms\n",
                mode_name(modes[k]), trimmed_mean(per_program[k]),
                p99(per_program[k]), per_program[k].size(),
                trimmed_mean(as_measured[k]), p99(as_measured[k]));
  }
  if (!traced) {
    emit("setup_s",
         median_over_rounds([](const round_result& r) {
           return static_cast<double>(r.setup_ns) * 1e-9;
         }),
         "s");
    auto typical = [&](mode_id m) {
      return trimmed_mean(per_program[index_of(m)]);
    };
    emit("elision_ms", typical(mode_id::elision), "ms");
    emit("inline_ms", typical(mode_id::inline_plain), "ms");
    emit("pipelined_ms", typical(mode_id::pipelined), "ms");
    emit("pardetect_ms", typical(mode_id::pardetect), "ms");
    emit("pardetect_shared_ms", typical(mode_id::pardetect_shared), "ms");
    emit("inline_p99_ms", p99(per_program[index_of(mode_id::inline_plain)]),
         "ms");
    emit("pardetect_p99_ms", p99(per_program[index_of(mode_id::pardetect)]),
         "ms");
    emit("detector_mb",
         median_over_rounds([](const round_result& r) {
           return static_cast<double>(r.detector_bytes) / (1024.0 * 1024.0);
         }),
         "MiB");
    emit("peak_rss_mb", inline_rss, "MiB");
  } else {
    // Per-layer numbers are per-round sums over the programs. As for the
    // end-to-end times, a serial run's time takes the lower decile over
    // rounds and everything else the median; ratios are formed after that,
    // so each side of a ratio is the same kind of estimate.
    auto over_rounds = [&rounds](double q, auto&& f) {
      sample_set s;
      for (const round_result& r : rounds) s.add(f(r));
      return s.percentile(q);
    };
    auto serial_ms = [&](const std::string& key) {
      return over_rounds(10, [&](const round_result& r) {
        return r.layers.get(key) * 1e-6;
      });
    };
    auto concurrent_ms = [&](const std::string& key) {
      return over_rounds(50, [&](const round_result& r) {
        return r.layers.get(key) * 1e-6;
      });
    };
    auto count = [&](const std::string& key) {
      return over_rounds(50, [&](const round_result& r) {
        return r.layers.get(key);
      });
    };
    // A probed layer's time net of the probe's own in-interval cost.
    auto net_ms = [&](const std::string& layer) {
      return over_rounds(10, [&](const round_result& r) {
        return (r.layers.get(layer + "_ns") -
                r.layers.get(layer + "_calls") * timer.interval_ns) *
               1e-6;
      });
    };
    auto ratio = [](double num, double den) {
      return den > 0 ? num / den : 0.0;
    };

    const double inline_ms = over_rounds(10, mode_ms(mode_id::inline_plain));
    const double elision_ms = over_rounds(10, mode_ms(mode_id::elision));
    const double dfs_ms = serial_ms("runtime.dfs_ns");
    const double construct_ms = serial_ms("detect.construct_ns");
    const double access_ms = net_ms("detect.access");
    const double structure_ms = net_ms("detect.structure");
    const double traced_ms = serial_ms("detect.traced_inline_ns");

    emit("runtime.dfs_ms", dfs_ms, "ms");
    emit("runtime.tasks", count("runtime.tasks"), "count");
    emit("detect.construct_ms", construct_ms, "ms");
    emit("detect.access_ms", access_ms, "ms");
    emit("detect.access_calls", count("detect.access_calls"), "count");
    emit("detect.ns_per_access",
         ratio(access_ms * 1e6, count("detect.checked_accesses")), "ns");
    emit("detect.structure_ms", structure_ms, "ms");
    emit("detect.structure_calls", count("detect.structure_calls"), "count");
    emit("detect.traced_inline_ms", traced_ms, "ms");
    emit("detect.attributed_pct",
         100.0 * ratio(dfs_ms + construct_ms + access_ms + structure_ms,
                       inline_ms),
         "%");
    emit("detect.trace_overhead_pct", 100.0 * (ratio(traced_ms, inline_ms) - 1),
         "%");
    emit("detect.timer_ns_per_call", timer.total_ns, "ns");
    emit("detect.slowdown", ratio(inline_ms, elision_ms), "x");
    for (const char* c :
         {"detect.stamp_hits", "detect.range_hits", "detect.summary_hits",
          "detect.races_observed", "detect.reports", "detect.racy_locations",
          "shadow.direct_hits", "shadow.hashed_hits", "shadow.slabs_built",
          "shadow.migrated_cells", "shadow.summaries_established",
          "shadow.summary_materializations", "shadow.locations",
          "shadow.live_regions", "dsr.precede_queries", "dsr.memo_hits"}) {
      emit(c, count(c), "count");
    }
    emit("dsr.memo_hit_rate",
         ratio(count("dsr.memo_hits"), count("dsr.precede_queries")), "ratio");
    for (const char* c : {"dsr.visit_steps", "dsr.nt_edges_walked",
                          "dsr.lsa_hops"}) {
      emit(c, count(c), "count");
    }
    emit("dsr.structure_bytes", count("dsr.structure_bytes"), "B");

    emit("pipelined.construct_ms", concurrent_ms("pipelined.construct_ns"),
         "ms");
    emit("pipelined.producer_ms", concurrent_ms("pipelined.producer_ns"), "ms");
    emit("pipelined.finalize_ms", concurrent_ms("pipelined.finalize_ns"), "ms");
    for (const char* c : {"pipelined.events", "pipelined.split_subevents",
                          "pipelined.backpressure_waits"}) {
      emit(c, count(c), "count");
    }
    emit("pipelined.occupancy_pct",
         100.0 * ratio(count("pipelined.occupancy_sum"),
                       count("pipelined.occupancy_capacity")),
         "%");

    for (const std::string prefix : {"pardetect", "pardetect_shared"}) {
      emit(prefix + ".construct_ms", concurrent_ms(prefix + ".construct_ns"),
           "ms");
      emit(prefix + ".emit_ms", concurrent_ms(prefix + ".emit_ns"), "ms");
      emit(prefix + ".finalize_ms", concurrent_ms(prefix + ".finalize_ns"),
           "ms");
      std::vector<std::string> counts = {".backpressure_waits",
                                         ".spilled_events"};
      if (prefix == "pardetect_shared") {
        counts.push_back(".checker_wait_spins");
        counts.push_back(".structure_admit_lag_max");
      }
      for (const std::string& c : counts) {
        emit(prefix + c, count(prefix + c), "count");
      }
      emit(prefix + ".structure_bytes", count(prefix + ".structure_bytes"),
           "B");
    }
    const std::string spans_path = flags.get_string("spans-out");
    if (!spans_path.empty()) {
      const std::string label = wl->name + " seed " + std::to_string(seed);
      if (!spans->write(spans_path, label)) {
        std::fprintf(stderr, "cannot write spans to %s\n", spans_path.c_str());
        return 1;
      }
      std::printf("spans: %zu written to %s (%llu dropped)\n", spans->size(),
                  spans_path.c_str(),
                  static_cast<unsigned long long>(spans->dropped()));
    }
  }

  if (wl->replaced != 0) {
    std::printf("placement: %llu program builds re-placed off a shard-chunk "
                "boundary\n",
                static_cast<unsigned long long>(wl->replaced));
  }
  std::printf("verdicts: %llu mode runs, %llu mismatched (error_rate %.6f)\n",
              static_cast<unsigned long long>(check.attempted),
              static_cast<unsigned long long>(check.failed),
              check.attempted == 0
                  ? 0.0
                  : static_cast<double>(check.failed) /
                        static_cast<double>(check.attempted));
  futrace::support::json result = futrace::support::json::object();
  result["correct"] = check.failed == 0;
  result["attempted"] = check.attempted;
  result["failed"] = check.failed;
  result["metrics"] = metrics;
  // dump() ends with its own newline.
  std::fputs(result.dump(0).c_str(), stdout);
  return check.failed == 0 ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
