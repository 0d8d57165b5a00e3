// Differential tests for the pipelined, address-sharded detection engine
// (detect::pipelined_detector, the one-producer case of parallel-detect):
// with detect_threads in {0, 1, 4} the same program must produce identical
// verdicts, identical report sequences, and identical paper-level counters
// — pipelining is a scheduling change, never a semantic one. Plus the
// transport's mechanics: ring wraparound and backpressure under a tiny ring
// with a large finish fan-in, inline fallback when the ring allocation is
// refused, and fault-injected checker stalls/kills degrading to a finalize
// replay instead of deadlocking or dropping events.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "futrace/detect/pipeline.hpp"
#include "futrace/detect/race_detector.hpp"
#include "futrace/inject/fault_injector.hpp"
#include "futrace/progen/random_program.hpp"
#include "futrace/runtime/runtime.hpp"
#include "futrace/runtime/shared.hpp"

namespace futrace {
namespace {

using detect::pipelined_detector;
using detect::race_detector;

// --------------------------------------------------------------- harness

race_detector::options opts_with_threads(unsigned threads) {
  race_detector::options opts;
  opts.detect_threads = threads;
  return opts;
}

template <typename Body>
pipelined_detector run_pipelined(race_detector::options opts, Body&& body,
                                 pipelined_detector::tuning tune = {}) {
  pipelined_detector det(opts, tune);
  runtime rt({.mode = exec_mode::serial_dfs});
  rt.add_observer(&det);
  rt.run(body);
  return det;
}

/// Address-free fingerprint of one race report. Locations are heap
/// addresses and only comparable when the runs share the arrays; task ids,
/// race kinds, and sites are deterministic across re-executions.
struct report_sig {
  detect::race_kind kind;
  task_id first_task;
  task_id second_task;
  std::string first_file;
  std::uint32_t first_line;
  std::string second_file;
  std::uint32_t second_line;

  bool operator==(const report_sig&) const = default;
};

std::vector<report_sig> signatures(const std::vector<detect::race_report>& r) {
  std::vector<report_sig> sigs;
  sigs.reserve(r.size());
  for (const detect::race_report& rep : r) {
    sigs.push_back(report_sig{rep.kind, rep.first_task, rep.second_task,
                              rep.first_site.file, rep.first_site.line,
                              rep.second_site.file, rep.second_site.line});
  }
  return sigs;
}

/// The paper-level (Table 2) counters the pipeline guarantees exactly.
/// Engine-tier diagnostics (direct/hashed/stamp/memo hits) are
/// layout-dependent under sharding and deliberately excluded.
void expect_paper_counters_equal(const detect::detector_counters& a,
                                 const detect::detector_counters& b,
                                 const char* label) {
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

/// Runs `body` under detect_threads 0, 1, and 4 and asserts every
/// observable outcome agrees. The body's shared state must live *outside*
/// the lambda (captured by reference) so racy-location addresses are
/// comparable across the three runs. Returns the 4-thread detector for
/// further assertions.
template <typename Body>
pipelined_detector differential(Body&& body,
                                pipelined_detector::tuning tune = {}) {
  pipelined_detector inline_det = run_pipelined(opts_with_threads(0), body);
  EXPECT_FALSE(inline_det.pipelined());
  pipelined_detector one = run_pipelined(opts_with_threads(1), body, tune);
  pipelined_detector four = run_pipelined(opts_with_threads(4), body, tune);
  EXPECT_TRUE(one.pipelined());
  EXPECT_TRUE(four.pipelined());

  for (const auto* det : {&one, &four}) {
    const char* label = det == &one ? "W=1 vs inline" : "W=4 vs inline";
    EXPECT_EQ(det->race_count(), inline_det.race_count()) << label;
    EXPECT_EQ(det->race_detected(), inline_det.race_detected()) << label;
    EXPECT_EQ(det->degraded(), inline_det.degraded()) << label;
    EXPECT_EQ(det->racy_locations(), inline_det.racy_locations()) << label;
    EXPECT_EQ(signatures(det->reports()), signatures(inline_det.reports()))
        << label;
    // Same-address runs: report locations must match exactly too.
    EXPECT_EQ(det->reports().size(), inline_det.reports().size()) << label;
    if (det->reports().size() == inline_det.reports().size()) {
      for (std::size_t i = 0; i < det->reports().size(); ++i) {
        EXPECT_EQ(det->reports()[i].location,
                  inline_det.reports()[i].location)
            << label << " report " << i;
      }
    }
    expect_paper_counters_equal(det->counters(), inline_det.counters(),
                                label);
  }
  return four;
}

// ------------------------------------------------------- handwritten shapes

TEST(Pipeline, RaceFreeScalarProgramAgrees) {
  shared_array<int> data(256);
  differential([&] {
    finish([&] {
      for (int half = 0; half < 2; ++half) {
        async([&, half] {
          for (std::size_t i = half * 128; i < (half + 1) * 128u; ++i) {
            data.write(i, static_cast<int>(i));
          }
        });
      }
    });
    int total = 0;
    for (std::size_t i = 0; i < data.size(); ++i) total += data.read(i);
    (void)total;
  });
}

TEST(Pipeline, RacyProgramSameReportsAndLocations) {
  shared_array<int> data(64);
  shared<int> flag;
  const pipelined_detector det = differential([&] {
    finish([&] {
      async([&] {
        for (std::size_t i = 0; i < data.size(); i += 2) data.write(i, 1);
        flag.write(1);
      });
      // Races with the async on even indices and on flag.
      for (std::size_t i = 0; i < data.size(); ++i) data.write(i, 2);
      (void)flag.read();
    });
  });
  EXPECT_TRUE(det.race_detected());
  EXPECT_GT(det.racy_locations().size(), 1u);
}

TEST(Pipeline, FutureAndPromiseEdgesOrderAccesses) {
  shared_array<long> cells(32);
  differential([&] {
    auto f = async_future([&] {
      for (std::size_t i = 0; i < 16; ++i) cells.write(i, 7);
      return 7;
    });
    const int v = f.get();  // join: the writes below cannot race
    for (std::size_t i = 0; i < 16; ++i) cells.write(i, v + 1);
    finish([&] {
      async([&] { cells.write(20, 1); });
      async([&] { cells.write(20, 2); });  // racy pair on one location
    });
  });
}

// Range accesses that straddle many chunk boundaries: with chunk_shift 6
// (64-byte chunks) a 1 KiB array spans 16 chunks, so every whole-array
// range event splits into per-owner sub-events on all four workers.
TEST(Pipeline, RangeEventsSplitAcrossChunkOwnersAgree) {
  shared_array<int> data(256);
  pipelined_detector::tuning tune;
  tune.chunk_shift = 6;
  const pipelined_detector det = differential(
      [&] {
        finish([&] {
          async([&] { data.write_range(0, 256); });
        });
        (void)data.read_range(0, 256);
        finish([&] {
          async([&] { (void)data.read_range(64, 128); });
          data.write_range(100, 8);  // racy overlap inside the read
        });
      },
      tune);
  EXPECT_TRUE(det.race_detected());
  EXPECT_GT(det.pipe_stats().split_subevents, 0u);
}

TEST(Pipeline, NonTreeJoinViaGetAgrees) {
  shared<int> cell;
  differential([&] {
    finish([&] {
      auto f = async_future([&] {
        cell.write(1);
        return 1;
      });
      async([&] {
        (void)f.get();  // non-tree join: reader ordered after the writer
        (void)cell.read();
      });
    });
  });
}

// ------------------------------------------------------- progen differential

/// Generated programs re-run with the same seed produce the same event
/// stream but not the same heap addresses, so this comparison sticks to
/// address-free observables (counts, report signatures).
TEST(Pipeline, ProgenSeedSweepAgreesWithInline) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    progen::progen_config cfg;
    cfg.seed = seed;
    auto run_with = [&](unsigned threads) {
      progen::random_program prog(cfg);
      return run_pipelined(opts_with_threads(threads), [&] { prog(); });
    };
    const pipelined_detector inline_det = run_with(0);
    for (const unsigned threads : {1u, 4u}) {
      const pipelined_detector piped = run_with(threads);
      const std::string label =
          "seed " + std::to_string(seed) + " W=" + std::to_string(threads);
      EXPECT_EQ(piped.race_count(), inline_det.race_count()) << label;
      EXPECT_EQ(piped.racy_locations().size(),
                inline_det.racy_locations().size())
          << label;
      EXPECT_EQ(signatures(piped.reports()), signatures(inline_det.reports()))
          << label;
      expect_paper_counters_equal(piped.counters(), inline_det.counters(),
                                  label.c_str());
    }
  }
}

// ----------------------------------------------------------- ring mechanics

// A 4-slot ring forces constant wraparound and producer backpressure, and
// a finish joining 100 children — a joined list far wider than the ring —
// travels as one finish_end slot that the replayers expand.
TEST(Pipeline, TinyRingWrapsUnderLargeFanIn) {
  shared_array<int> data(128);
  pipelined_detector::tuning tune;
  tune.ring_capacity = 4;
  const pipelined_detector det = differential(
      [&] {
        finish([&] {
          for (int t = 0; t < 100; ++t) {
            async([&, t] {
              data.write(static_cast<std::size_t>(t) % data.size(), t);
            });
          }
        });
        for (std::size_t i = 0; i < data.size(); ++i) (void)data.read(i);
      },
      tune);
  EXPECT_EQ(det.pipe_stats().ring_capacity, 4u);
  EXPECT_GT(det.pipe_stats().backpressure_waits, 0u);
  EXPECT_EQ(det.pipe_stats().workers_died, 0u);
}

TEST(Pipeline, FailFastForcesInlineMode) {
  race_detector::options opts = opts_with_threads(4);
  opts.fail_fast = true;
  shared<int> cell;
  pipelined_detector det(opts);
  EXPECT_FALSE(det.pipelined());
  runtime rt({.mode = exec_mode::serial_dfs});
  rt.add_observer(&det);
  EXPECT_THROW(rt.run([&] {
                 finish([&] {
                   async([&] { cell.write(1); });
                   cell.write(2);
                 });
               }),
               detect::race_found_error);
}

TEST(Pipeline, RefusedRingAllocationFallsBackInline) {
  inject::fault_plan plan;
  plan.fail_alloc_at = 1;
  plan.fail_alloc_every = 1;  // deny every allocation the gate sees
  inject::fault_injector inj(plan);
  shared<int> cell;
  std::uint64_t races = 0;
  {
    inject::scoped_injector guard(inj);
    pipelined_detector det(opts_with_threads(4));
    EXPECT_FALSE(det.pipelined());
    EXPECT_GE(det.pipe_stats().inline_fallbacks, 1u);
    runtime rt({.mode = exec_mode::serial_dfs});
    rt.add_observer(&det);
    rt.run([&] {
      finish([&] {
        async([&] { cell.write(1); });
        cell.write(2);
      });
    });
    races = det.race_count();
  }
  // Under a deny-all gate the inline detector still runs (possibly
  // degraded); the same program without the gate must agree or exceed.
  pipelined_detector ref = run_pipelined(opts_with_threads(0), [&] {
    finish([&] {
      async([&] { cell.write(1); });
      cell.write(2);
    });
  });
  EXPECT_LE(races, ref.race_count());
}

// ------------------------------------------------------------- fault hooks

template <typename Body>
pipelined_detector run_with_plan(const inject::fault_plan& plan,
                                 unsigned threads, Body&& body,
                                 inject::fault_injector::counters* out,
                                 pipelined_detector::tuning tune = {}) {
  inject::fault_injector inj(plan);
  inject::scoped_injector guard(inj);
  pipelined_detector det =
      run_pipelined(opts_with_threads(threads), body, tune);
  if (out != nullptr) *out = inj.snapshot();
  return det;
}

template <typename Body>
void expect_degrades_not_deadlocks(const inject::fault_plan& plan,
                                   Body&& body, bool expect_death) {
  const pipelined_detector ref = run_pipelined(opts_with_threads(0), body);
  inject::fault_injector::counters fired;
  const pipelined_detector det = run_with_plan(plan, 4, body, &fired);
  EXPECT_TRUE(det.pipelined());
  EXPECT_EQ(det.race_count(), ref.race_count());
  EXPECT_EQ(det.racy_locations(), ref.racy_locations());
  EXPECT_EQ(signatures(det.reports()), signatures(ref.reports()));
  expect_paper_counters_equal(det.counters(), ref.counters(), "fault vs ref");
  if (expect_death) {
    EXPECT_EQ(fired.pipe_kills, 1u);
    EXPECT_EQ(det.pipe_stats().workers_died, 1u);
    EXPECT_GT(det.pipe_stats().inline_fallbacks, 0u);
  } else {
    EXPECT_EQ(det.pipe_stats().workers_died, 0u);
  }
}

TEST(PipelineFaults, KilledWorkerDegradesToInlineChecking) {
  shared_array<int> data(128);
  shared<int> cell;
  auto body = [&] {
    finish([&] {
      for (int t = 0; t < 8; ++t) {
        async([&, t] {
          for (std::size_t i = 0; i < data.size(); ++i) {
            data.write(i, t);  // every pair of asyncs races on every cell
          }
          cell.write(t);
        });
      }
    });
  };
  inject::fault_plan plan;
  plan.pipe_kill_at = 50;  // mid-run, well inside the event stream
  expect_degrades_not_deadlocks(plan, body, /*expect_death=*/true);
}

TEST(PipelineFaults, KilledWorkerCountersMergeExactly) {
  // A dead checker's unread events stay in the ring until the producer
  // needs their slots, when it moves them, in order, to the checker's
  // spill; finalize replays spill-then-ring into the dead checker's own
  // detector. Each event is therefore applied exactly
  // once, in order, to exactly the detector its shard owns — so a killed
  // run must match a clean run at the same width on EVERY counter,
  // engine-tier diagnostics included, not just the paper surface.
  shared_array<int> data(256);
  shared<int> cell;
  auto body = [&] {
    finish([&] {
      for (int t = 0; t < 6; ++t) {
        async([&, t] {
          for (std::size_t i = 0; i < data.size(); ++i) {
            (void)data.read(i);
            data.write(i, t);
          }
          cell.write(t);
        });
      }
    });
  };
  const pipelined_detector clean = run_pipelined(opts_with_threads(4), body);
  ASSERT_EQ(clean.pipe_stats().workers_died, 0u);
  // Wire events the checkers apply in total (the kill ordinal's range):
  // every access sub-event once, every structure event once per checker;
  // a checker skips the accesses other checkers own without counting.
  // The wire carries no continuation spawns or ends and no root end, and
  // one finish_begin plus one finish_end per finish, so this is not the
  // observer event count. A kill on the last of them fires after the
  // producer's last push: finalize replays just the killed event.
  const detect::pipeline_stats& cs = clean.pipe_stats();
  const std::uint64_t structure = cs.events - cs.access_events;
  const std::uint64_t last =
      cs.access_events + cs.split_subevents + 4 * structure;
  // Program start, two finishes (the root's implicit one and the body's),
  // 6 spawns and 6 task ends.
  ASSERT_EQ(structure, 17u);

  // An 8-slot ring is smaller than the publish batch: every publish is a
  // flush before a wait for space or at end of stream.
  pipelined_detector::tuning small_ring;
  small_ring.ring_capacity = 8;
  for (const pipelined_detector::tuning& tune :
       {pipelined_detector::tuning{}, small_ring}) {
    for (const std::uint64_t kill_at : {std::uint64_t{1}, std::uint64_t{75},
                                        std::uint64_t{400}, last}) {
      inject::fault_plan plan;
      plan.pipe_kill_at = kill_at;
      inject::fault_injector::counters fired;
      const pipelined_detector killed =
          run_with_plan(plan, 4, body, &fired, tune);
      const std::string label = "kill@" + std::to_string(kill_at) +
                                " ring=" + std::to_string(tune.ring_capacity);
      ASSERT_EQ(fired.pipe_kills, 1u) << label;
      EXPECT_EQ(killed.pipe_stats().workers_died, 1u) << label;
      if (kill_at == last) {
        // Only the killed event itself was left to take over.
        EXPECT_EQ(killed.pipe_stats().inline_fallbacks, 1u) << label;
      }

      const detect::detector_counters a = killed.counters();
      const detect::detector_counters b = clean.counters();
      expect_paper_counters_equal(a, b, label.c_str());
      EXPECT_EQ(a.direct_hits, b.direct_hits) << label;
      EXPECT_EQ(a.hashed_hits, b.hashed_hits) << label;
      EXPECT_EQ(a.memo_hits, b.memo_hits) << label;
      EXPECT_EQ(a.stamp_hits, b.stamp_hits) << label;
      EXPECT_EQ(a.precede_queries, b.precede_queries) << label;
      EXPECT_EQ(a.range_events, b.range_events) << label;
      EXPECT_EQ(a.range_hits, b.range_hits) << label;
      EXPECT_EQ(a.summary_hits, b.summary_hits) << label;
    }
  }
}

TEST(PipelineFaults, StalledWorkerOnlyDelaysVerdicts) {
  shared_array<int> data(64);
  auto body = [&] {
    finish([&] {
      async([&] {
        for (std::size_t i = 0; i < data.size(); ++i) data.write(i, 1);
      });
      for (std::size_t i = 0; i < data.size(); ++i) (void)data.read(i);
    });
  };
  inject::fault_plan plan;
  plan.pipe_stall_at = 10;  // one 20ms stall: backpressure, then catch-up
  expect_degrades_not_deadlocks(plan, body, /*expect_death=*/false);
}

TEST(PipelineFaults, ForcedRingFullInjectsBackpressure) {
  shared_array<int> data(64);
  auto body = [&] {
    for (std::size_t i = 0; i < data.size(); ++i) data.write(i, 3);
  };
  inject::fault_plan plan;
  plan.pipe_ring_full_at = 5;
  plan.pipe_ring_full_spins = 256;
  inject::fault_injector::counters fired;
  const pipelined_detector det = run_with_plan(plan, 4, body, &fired);
  EXPECT_EQ(fired.pipe_forced_fulls, 1u);
  EXPECT_GE(det.pipe_stats().backpressure_waits, 256u);
  const pipelined_detector ref = run_pipelined(opts_with_threads(0), body);
  EXPECT_EQ(det.race_count(), ref.race_count());
}

TEST(PipelineFaults, KillUnderTinyRingLargeFanInIsSafe) {
  // A finish whose joined list is wider than the whole ring, with a kill
  // armed before, inside and after the fan-in. Two shapes: 80 children
  // through a 4-slot ring, and 1,000 children through a 64-slot ring —
  // twice the publish batch, so staged runs publish both when full and
  // before the producer waits.
  struct shape {
    int children;
    std::size_t ring;
    std::vector<std::uint64_t> kills;
  };
  shared_array<int> data(64);
  for (const shape& sh : {shape{80, 4, {1, 40, 90, 200}},
                          shape{1000, 64, {1, 4000, 8500, 9000}}}) {
    auto body = [&] {
      finish([&] {
        for (int t = 0; t < sh.children; ++t) {
          async([&, t] { data.write(static_cast<std::size_t>(t) % 64, t); });
        }
      });
      for (std::size_t i = 0; i < data.size(); ++i) (void)data.read(i);
    };
    const pipelined_detector ref = run_pipelined(opts_with_threads(0), body);
    for (const std::uint64_t kill_at : sh.kills) {
      inject::fault_plan plan;
      plan.pipe_kill_at = kill_at;
      inject::fault_injector::counters fired;
      pipelined_detector::tuning tune;
      tune.ring_capacity = sh.ring;  // far narrower than the fan-in
      const pipelined_detector det =
          run_with_plan(plan, 4, body, &fired, tune);
      const std::string label = "children=" + std::to_string(sh.children) +
                                " kill@" + std::to_string(kill_at);
      EXPECT_EQ(det.race_count(), ref.race_count()) << label;
      EXPECT_EQ(det.racy_locations(), ref.racy_locations()) << label;
      expect_paper_counters_equal(det.counters(), ref.counters(),
                                  label.c_str());
      // Every kill point lies inside the wire stream: 165 structure events
      // x 4 checkers + 144 accesses, and 2,005 x 4 + 1,064.
      EXPECT_EQ(fired.pipe_kills, 1u) << label;
      EXPECT_EQ(det.pipe_stats().workers_died, 1u) << label;
    }
  }
}

// --------------------------------------------------------------- telemetry

TEST(Pipeline, StatsAccountForStreamedEvents) {
  shared_array<int> data(32);
  const pipelined_detector det =
      run_pipelined(opts_with_threads(2), [&] {
        finish([&] {
          async([&] {
            for (std::size_t i = 0; i < data.size(); ++i) data.write(i, 1);
          });
        });
      });
  const detect::pipeline_stats& s = det.pipe_stats();
  EXPECT_EQ(s.workers, 2u);
  EXPECT_GT(s.events, 0u);
  EXPECT_GT(s.access_events, 0u);
  EXPECT_GE(s.events, s.access_events);
  EXPECT_EQ(s.workers_died, 0u);
  EXPECT_EQ(s.inline_fallbacks, 0u);
  EXPECT_GE(s.occupancy_pct(), 0.0);
  EXPECT_LE(s.occupancy_pct(), 100.0);
}

}  // namespace
}  // namespace futrace
