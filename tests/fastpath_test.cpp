// Differential tests for the detector's hot-path fast paths (direct-mapped
// array shadow, PRECEDE memoization, per-cell stamp elision): with
// options::enable_fastpath off the detector reproduces the unoptimized
// algorithms exactly, and the two configurations must agree on every
// per-location race verdict. This is the --no-fastpath debugging contract.
// PrecedeMemo pins the PRECEDE memo's invalidation rules on its own.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "futrace/baselines/oracle_detector.hpp"
#include "futrace/detect/race_detector.hpp"
#include "futrace/progen/random_program.hpp"
#include "futrace/runtime/runtime.hpp"
#include "futrace/runtime/shared.hpp"

namespace futrace {
namespace {

using progen::progen_config;
using progen::random_program;

std::set<const void*> racy_set(const detect::race_detector& det) {
  const auto locations = det.racy_locations();
  return {locations.begin(), locations.end()};
}

detect::race_detector::options with_fastpath(bool enabled) {
  detect::race_detector::options opts;
  opts.enable_fastpath = enabled;
  return opts;
}

detect::race_detector::options with_ranges(bool enabled) {
  detect::race_detector::options opts;
  opts.enable_range_checks = enabled;
  return opts;
}

/// Runs `body` under a fresh serial_dfs runtime + detector.
template <typename Body>
detect::race_detector run_detected(detect::race_detector::options opts,
                                   Body&& body) {
  detect::race_detector det(opts);
  runtime rt({.mode = exec_mode::serial_dfs});
  rt.add_observer(&det);
  rt.run(body);
  return det;
}

// ---------------------------------------------------------------- equivalence

// Generated programs, safe and unsafe handle flow, racy and race-free: the
// fast-path detector and the plain detector must flag exactly the same
// locations. Counts may differ (the stamp elides duplicate reports of an
// already-flagged pair); verdicts may not.
TEST(FastpathDifferential, MatchesPlainDetectorAcrossSeeds) {
  const progen_config shapes[] = {
      {},  // balanced defaults
      {.max_depth = 4,
       .min_stmts = 2,
       .max_stmts = 8,
       .num_vars = 4,
       .max_tasks = 300,
       .w_read = 3,
       .w_write = 2,
       .w_async = 0.5,
       .w_future = 2.5,
       .w_finish = 0.4,
       .w_get = 3.0},
      {.max_depth = 3,
       .min_stmts = 3,
       .max_stmts = 9,
       .num_vars = 3,
       .w_read = 3,
       .w_write = 2.5,
       .w_async = 1.2,
       .w_future = 0.8,
       .w_finish = 0.8,
       .w_get = 1.0,
       .w_promise = 2.0,
       .w_put = 2.6,
       .w_promise_get = 2.6},
  };
  for (const bool safe : {true, false}) {
    for (std::size_t s = 0; s < std::size(shapes); ++s) {
      for (int seed = 1; seed <= 25; ++seed) {
        progen_config cfg = shapes[s];
        cfg.safe_handles = safe;
        cfg.seed = static_cast<std::uint64_t>(seed) * 7919 + s;
        random_program prog(cfg);

        auto fast = run_detected(with_fastpath(true), [&] { prog(); });
        auto plain = run_detected(with_fastpath(false), [&] { prog(); });

        EXPECT_EQ(racy_set(fast), racy_set(plain))
            << "shape=" << s << " safe=" << safe << " seed=" << cfg.seed;
        EXPECT_EQ(fast.race_detected(), plain.race_detected())
            << "shape=" << s << " safe=" << safe << " seed=" << cfg.seed;
        // The structural counters the fast paths must not perturb.
        const auto cf = fast.counters();
        const auto cp = plain.counters();
        EXPECT_EQ(cf.tasks, cp.tasks);
        EXPECT_EQ(cf.reads, cp.reads);
        EXPECT_EQ(cf.writes, cp.writes);
        EXPECT_EQ(cf.non_tree_joins, cp.non_tree_joins);
        EXPECT_EQ(cf.racy_locations, cp.racy_locations);
      }
    }
  }
}

// The fast-path detector must still match the step-level oracle (Theorem 2)
// — a spot check on top of property_test's exhaustive sweep, kept here so a
// fast-path regression fails in the file that owns the feature.
TEST(FastpathDifferential, MatchesOracleOnRacyPrograms) {
  for (int seed = 1; seed <= 20; ++seed) {
    progen_config cfg;
    cfg.seed = static_cast<std::uint64_t>(seed) * 104729;
    random_program prog(cfg);

    detect::race_detector det(with_fastpath(true));
    baselines::oracle_detector oracle;
    runtime rt({.mode = exec_mode::serial_dfs});
    rt.add_observer(&det);
    rt.add_observer(&oracle);
    rt.run([&] { prog(); });

    const auto det_locations = det.racy_locations();
    const auto oracle_locations = oracle.racy_locations();
    EXPECT_EQ(std::set<const void*>(det_locations.begin(),
                                    det_locations.end()),
              std::set<const void*>(oracle_locations.begin(),
                                    oracle_locations.end()))
        << "seed=" << cfg.seed;
  }
}

// ------------------------------------------------------------------- counters

// A deliberately fast-path-friendly program: array accesses (direct tier),
// tight re-access loops with no task events in between (stamp tier), and a
// non-tree-joined future writer re-checked per element (memo tier). All
// three tiers must actually engage — hit counters are how the benches prove
// the optimization is on, so they must not silently read zero.
TEST(FastpathCounters, AllThreeTiersEngage) {
  auto det = run_detected(with_fastpath(true), [] {
    shared_array<int> data(256);
    // Future chain producing a non-tree join: f2 joins f1 (both children of
    // the root), so f1 reaches the root's set only through a non-tree edge
    // and every precedes(f1, root) check takes the memoizable search path.
    auto f1 = async_future([&] {
      for (std::size_t i = 0; i < data.size(); ++i) {
        data.write(i, static_cast<int>(i));
      }
    });
    auto f2 = async_future([&f1] { f1.get(); });
    f2.get();
    int sum = 0;
    for (std::size_t i = 0; i < data.size(); ++i) sum += data.read(i);
    // Same task, same step: the second sweep re-reads cells this task just
    // stamped.
    for (std::size_t i = 0; i < data.size(); ++i) sum += data.read(i);
    (void)sum;
  });

  EXPECT_FALSE(det.race_detected());
  const auto c = det.counters();
  EXPECT_GT(c.direct_hits, 0u) << "array accesses must use the slab tier";
  EXPECT_GT(c.memo_hits, 0u) << "repeated PRECEDE checks must hit the memo";
  EXPECT_GT(c.stamp_hits, 0u) << "same-task same-step re-reads must be elided";
  EXPECT_EQ(c.direct_hits + c.hashed_hits, c.shared_mem_accesses);
}

TEST(FastpathCounters, NoFastpathDisablesAllTiers) {
  auto program = [] {
    shared_array<int> data(64);
    finish([&] {
      async([&] {
        for (std::size_t i = 0; i < data.size(); ++i) {
          data.write(i, static_cast<int>(i));
        }
      });
    });
    int sum = 0;
    for (std::size_t i = 0; i < data.size(); ++i) sum += data.read(i);
    for (std::size_t i = 0; i < data.size(); ++i) sum += data.read(i);
    (void)sum;
  };
  auto det = run_detected(with_fastpath(false), program);
  const auto c = det.counters();
  EXPECT_EQ(c.direct_hits, 0u);
  EXPECT_EQ(c.memo_hits, 0u);
  EXPECT_EQ(c.stamp_hits, 0u);
  EXPECT_EQ(c.hashed_hits, c.shared_mem_accesses);
  EXPECT_FALSE(det.race_detected());
}

// Racy programs: both configurations must report the same racy locations —
// including the raced-on array cells served from the direct tier. Both runs
// share one array, so its cells have the same addresses in each.
TEST(FastpathDifferential, RacyArrayVerdictsMatch) {
  shared_array<int> data(32);
  auto program = [&] {
    // Unjoined future writes race with the root's reads.
    auto f = async_future([&] {
      for (std::size_t i = 0; i < data.size(); ++i) {
        data.write(i, static_cast<int>(i));
      }
    });
    int sum = 0;
    for (std::size_t i = 0; i < data.size(); ++i) sum += data.read(i);
    f.get();
    (void)sum;
  };
  auto fast = run_detected(with_fastpath(true), program);
  auto plain = run_detected(with_fastpath(false), program);
  EXPECT_TRUE(fast.race_detected());
  EXPECT_EQ(racy_set(fast), racy_set(plain));
  EXPECT_EQ(fast.counters().racy_locations, 32u);
}

// ------------------------------------------------------------- PRECEDE memo
//
// The graph memo caches positive PRECEDE verdicts per (a, querying task) and
// is invalidated by a task switch, a set union or a non-tree edge. These pin
// it after unions, warm next to a racy pair, and across the id renumbering
// of epoch compaction.

// A positive cached before finish joins and a future get must still hold
// after them, and no phantom race may appear.
TEST(PrecedeMemo, HitsStayCorrectAfterUnions) {
  shared_array<int> cells(4, 0);
  auto det = run_detected(with_fastpath(true), [&] {
    future<void> producer = async_future([&] { cells.write(0, 1); });
    producer.get();
    (void)cells.read(0);  // query producer => main: cached positive
    // Unions: a finish block merges children into the main set, and a
    // second future chain adds a non-tree edge.
    finish([&] {
      async([&] { cells.write(1, 2); });
      async([&] { cells.write(2, 3); });
    });
    future<void> late = async_future([&] { (void)cells.read(0); });
    late.get();
    // Re-query the original producer ordering after all the unions.
    (void)cells.read(0);
    cells.write(0, 4);
  });
  EXPECT_EQ(det.race_count(), 0u);
}

// The memo only caches positives: a racy pair after a warm positive on the
// same querying task must still be reported, exactly as without the memo.
TEST(PrecedeMemo, RacesStillDetectedWithMemoWarm) {
  shared_array<int> cells(2, 0);
  auto program = [&] {
    future<void> ordered = async_future([&] { cells.write(0, 1); });
    ordered.get();
    (void)cells.read(0);  // warm positive for (ordered => main)
    // Unjoined sibling: its write races with the main task's read.
    async([&] { cells.write(1, 7); });
    (void)cells.read(1);
  };
  auto fast = run_detected(with_fastpath(true), program);
  auto plain = run_detected(with_fastpath(false), program);
  EXPECT_GT(fast.race_count(), 0u);
  EXPECT_EQ(fast.race_count(), plain.race_count());
  EXPECT_EQ(racy_set(fast), racy_set(plain));
}

// Epoch compaction renumbers runtime ids, so memo entries from the prior
// epoch must not answer for reborn ids. A long root-level chain with a tiny
// reset interval compacts several times; its verdict and paper counters
// must match a run without compaction.
TEST(PrecedeMemo, CompactionInvalidatesStaleEntries) {
  shared_array<int> cells(8, 0);
  auto program = [&] {
    for (int round = 0; round < 200; ++round) {
      future<void> f =
          async_future([&cells, round] { cells.write(round % 8, round); });
      f.get();
      (void)cells.read(round % 8);
    }
  };
  detect::race_detector::options compacting;
  compacting.epoch_reset_interval = 16;
  auto det = run_detected(compacting, program);
  auto reference = run_detected({}, program);
  EXPECT_EQ(det.race_count(), 0u);
  EXPECT_EQ(reference.race_count(), 0u);
  EXPECT_GT(det.epoch_resets(), 0u);
  const detect::detector_counters a = det.counters();
  const detect::detector_counters b = reference.counters();
  EXPECT_EQ(a.tasks, b.tasks);
  EXPECT_EQ(a.non_tree_joins, b.non_tree_joins);
  EXPECT_EQ(a.shared_mem_accesses, b.shared_mem_accesses);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.locations, b.locations);
  EXPECT_DOUBLE_EQ(a.avg_readers, b.avg_readers);
  EXPECT_EQ(a.races_observed, b.races_observed);
  EXPECT_EQ(a.precede_queries, b.precede_queries);
}

// ------------------------------------------------------------------- ranges

// Generated programs now emit bulk read_range/write_range statements (the
// default progen weights include them). The coalesced range engine, the
// per-element decomposition (--no-ranges), and the fully unoptimized path
// must agree on every per-location verdict AND on the structural counters:
// a range of n elements counts as n reads/writes in every configuration.
TEST(RangeDifferential, MatchesNoRangesAcrossSeeds) {
  const progen_config shapes[] = {
      {},  // balanced defaults (range weights on)
      {.max_depth = 4,
       .num_vars = 6,
       .w_read = 1.0,
       .w_write = 1.0,
       .w_range_read = 4.0,  // range-heavy
       .w_range_write = 3.0,
       .w_future = 2.0,
       .w_get = 2.5,
       .max_range_len = 6},
  };
  std::uint64_t total_ranges = 0;
  for (const bool safe : {true, false}) {
    for (std::size_t s = 0; s < std::size(shapes); ++s) {
      for (int seed = 1; seed <= 20; ++seed) {
        progen_config cfg = shapes[s];
        cfg.safe_handles = safe;
        cfg.seed = static_cast<std::uint64_t>(seed) * 15485863 + s;
        random_program prog(cfg);

        auto ranged = run_detected(with_ranges(true), [&] { prog(); });
        total_ranges += prog.stats().range_reads + prog.stats().range_writes;
        auto scalar = run_detected(with_ranges(false), [&] { prog(); });
        auto plain = run_detected(with_fastpath(false), [&] { prog(); });

        EXPECT_EQ(racy_set(ranged), racy_set(scalar))
            << "shape=" << s << " safe=" << safe << " seed=" << cfg.seed;
        EXPECT_EQ(racy_set(ranged), racy_set(plain))
            << "shape=" << s << " safe=" << safe << " seed=" << cfg.seed;
        EXPECT_EQ(ranged.race_detected(), scalar.race_detected());
        const auto cr = ranged.counters();
        const auto cs = scalar.counters();
        EXPECT_EQ(cr.reads, cs.reads);
        EXPECT_EQ(cr.writes, cs.writes);
        EXPECT_EQ(cr.shared_mem_accesses, cs.shared_mem_accesses);
        EXPECT_EQ(cr.racy_locations, cs.racy_locations);
        // --no-ranges must actually take the scalar path.
        EXPECT_EQ(cs.range_hits, 0u);
      }
    }
  }
  // The sweep as a whole must exercise bulk statements (individual short
  // programs may legitimately draw none).
  EXPECT_GT(total_ranges, 0u);
}

// Range verdicts must also match the step-level oracle directly.
TEST(RangeDifferential, MatchesOracleOnRangePrograms) {
  for (int seed = 1; seed <= 15; ++seed) {
    progen_config cfg;
    cfg.w_range_read = 3.0;
    cfg.w_range_write = 2.5;
    cfg.seed = static_cast<std::uint64_t>(seed) * 6700417;
    random_program prog(cfg);

    detect::race_detector det(with_ranges(true));
    baselines::oracle_detector oracle;
    runtime rt({.mode = exec_mode::serial_dfs});
    rt.add_observer(&det);
    rt.add_observer(&oracle);
    rt.run([&] { prog(); });

    const auto det_locations = det.racy_locations();
    const auto oracle_locations = oracle.racy_locations();
    EXPECT_EQ(std::set<const void*>(det_locations.begin(),
                                    det_locations.end()),
              std::set<const void*>(oracle_locations.begin(),
                                    oracle_locations.end()))
        << "seed=" << cfg.seed;
  }
}

// Full-array sweeps: the first write_all establishes a slab run summary, and
// every later full-array access must be answered by the O(1) summary tier.
TEST(RangeCounters, SummaryTierEngagesOnFullArraySweeps) {
  auto det = run_detected(with_ranges(true), [] {
    shared_array<int> data(256);
    finish([&] {
      async([&] {
        const auto out = data.write_all();
        for (std::size_t i = 0; i < out.size(); ++i) {
          out[i] = static_cast<int>(i);
        }
      });
    });
    long sum = 0;
    for (int pass = 0; pass < 3; ++pass) {
      const auto in = data.read_all();
      for (const int v : in) sum += v;
    }
    (void)sum;
  });

  EXPECT_FALSE(det.race_detected());
  const auto c = det.counters();
  EXPECT_GT(c.range_events, 0u);
  EXPECT_GT(c.range_hits, 0u) << "bulk events must resolve via the run walk";
  EXPECT_GT(c.summary_hits, 0u) << "re-sweeps must hit the O(1) summary";
  // Bookkeeping parity with the scalar path.
  EXPECT_EQ(c.reads, 3u * 256u);
  EXPECT_EQ(c.writes, 256u);
  EXPECT_EQ(c.direct_hits + c.hashed_hits, c.shared_mem_accesses);
}

// Racy ranges: an unjoined future's write_range against the root's
// read_range. Every overlapped cell must be flagged, in both configurations,
// whether the race is caught by the per-cell walk or forces summary
// materialization first. All runs share one array, so its cells have the
// same addresses in each.
TEST(RangeDifferential, RacyRangeVerdictsMatch) {
  shared_array<int> data(64);
  auto program = [&] {
    auto f = async_future([&] {
      const auto out = data.write_range(0, 32);
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = static_cast<int>(i);
      }
    });
    const auto in = data.read_range(16, 32);  // cells 16..31 race
    long sum = 0;
    for (const int v : in) sum += v;
    f.get();
    (void)sum;
  };
  auto ranged = run_detected(with_ranges(true), program);
  auto scalar = run_detected(with_ranges(false), program);
  auto plain = run_detected(with_fastpath(false), program);
  EXPECT_TRUE(ranged.race_detected());
  EXPECT_EQ(ranged.counters().racy_locations, 16u);
  EXPECT_EQ(racy_set(ranged), racy_set(scalar));
  EXPECT_EQ(racy_set(ranged), racy_set(plain));
}

}  // namespace
}  // namespace futrace
