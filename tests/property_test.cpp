// Property tests for Theorem 2 (soundness + precision): on randomly
// generated async/finish/future programs, the paper's detector must produce
// exactly the same per-location race verdicts as the brute-force oracle
// (full computation graph + step-level happens-before), and the
// vector-clock baseline must agree as well.
//
// The generator is seeded and the serial depth-first execution is
// deterministic, so every failure here is replayable from its seed.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "futrace/baselines/oracle_detector.hpp"
#include "futrace/baselines/vector_clock_detector.hpp"
#include "futrace/detect/parallel_pipeline.hpp"
#include "futrace/detect/pipeline.hpp"
#include "futrace/detect/race_detector.hpp"
#include "futrace/progen/program_trace.hpp"
#include "futrace/progen/random_program.hpp"
#include "futrace/runtime/runtime.hpp"

namespace futrace {
namespace {

using progen::progen_config;
using progen::random_program;

struct run_result {
  std::set<int> detector_racy_vars;
  std::set<int> oracle_racy_vars;
  std::set<int> vector_clock_racy_vars;
  bool detector_any = false;  // over all locations, incl. handle cells
  bool oracle_any = false;
  std::uint64_t non_tree_joins = 0;
  std::uint64_t tasks = 0;
};

template <typename Program>
std::set<int> to_var_indices(const std::vector<const void*>& locations,
                             const Program& prog) {
  std::set<int> vars;
  for (const void* addr : locations) {
    for (int i = 0; i < prog.num_vars(); ++i) {
      if (prog.var_address(i) == addr) {
        vars.insert(i);
        break;
      }
    }
  }
  return vars;
}

run_result run_one(const progen_config& cfg) {
  random_program prog(cfg);
  detect::race_detector det;
  baselines::oracle_detector oracle;
  baselines::vector_clock_detector vc;

  runtime rt({.mode = exec_mode::serial_dfs});
  rt.add_observer(&det);
  rt.add_observer(&oracle);
  rt.add_observer(&vc);
  rt.run([&] { prog(); });

  run_result r;
  r.detector_racy_vars = to_var_indices(det.racy_locations(), prog);
  r.oracle_racy_vars = to_var_indices(oracle.racy_locations(), prog);
  r.vector_clock_racy_vars = to_var_indices(vc.racy_locations(), prog);
  r.detector_any = det.race_detected();
  r.oracle_any = oracle.race_detected();
  r.non_tree_joins = det.counters().non_tree_joins;
  r.tasks = det.counters().tasks;
  return r;
}

struct shape {
  const char* name;
  progen_config base;
};

// Program-shape mixes stressing different parts of the algorithm.
const shape k_shapes[] = {
    {"balanced", {}},
    {"future-heavy",
     {.max_depth = 4,
      .min_stmts = 2,
      .max_stmts = 8,
      .num_vars = 6,
      .max_tasks = 300,
      .w_read = 3,
      .w_write = 2,
      .w_async = 0.3,
      .w_future = 2.5,
      .w_finish = 0.3,
      .w_get = 3.0}},
    {"async-finish-ish",
     {.max_depth = 5,
      .min_stmts = 2,
      .max_stmts = 6,
      .num_vars = 4,
      .max_tasks = 200,
      .w_read = 3,
      .w_write = 3,
      .w_async = 2.0,
      .w_future = 0.4,
      .w_finish = 2.0,
      .w_get = 0.6}},
    {"deep-nesting",
     {.max_depth = 8,
      .min_stmts = 1,
      .max_stmts = 4,
      .num_vars = 3,
      .max_tasks = 300,
      .w_read = 2,
      .w_write = 2,
      .w_async = 1.5,
      .w_future = 1.5,
      .w_finish = 1.0,
      .w_get = 2.0}},
    {"contended-vars",
     {.max_depth = 3,
      .min_stmts = 3,
      .max_stmts = 10,
      .num_vars = 2,
      .w_read = 5,
      .w_write = 4,
      .w_async = 1.0,
      .w_future = 1.5,
      .w_finish = 0.6,
      .w_get = 2.0}},
    {"get-chains",
     {.max_depth = 2,
      .min_stmts = 4,
      .max_stmts = 12,
      .num_vars = 5,
      .w_read = 2,
      .w_write = 2,
      .w_async = 0.2,
      .w_future = 2.0,
      .w_finish = 0.1,
      .w_get = 4.0}},
    {"promise-heavy",
     {.max_depth = 4,
      .min_stmts = 3,
      .max_stmts = 9,
      .num_vars = 5,
      .w_read = 3,
      .w_write = 2.5,
      .w_async = 1.2,
      .w_future = 0.8,
      .w_finish = 0.8,
      .w_get = 1.0,
      .w_promise = 2.0,
      .w_put = 2.6,
      .w_promise_get = 2.6}},
    // Bulk-dominated traffic: most accesses arrive as read_range/write_range
    // events, stressing the coalesced walk, summary establishment, and
    // materialization against the per-element oracle (every other shape also
    // mixes in ranges via the default weights).
    {"range-heavy",
     {.max_depth = 4,
      .min_stmts = 3,
      .max_stmts = 10,
      .num_vars = 8,
      .w_read = 1.0,
      .w_write = 0.8,
      .w_range_read = 4.5,
      .w_range_write = 3.5,
      .w_async = 1.0,
      .w_future = 1.6,
      .w_finish = 0.6,
      .w_get = 2.2,
      .max_range_len = 8}},
};

class TheoremTwo : public ::testing::TestWithParam<int> {};

// Safe handle flow (the algorithm's precondition, see random_program.hpp):
// per-location verdicts of the detector and the vector-clock baseline must
// equal the step-level oracle's exactly.
TEST_P(TheoremTwo, DetectorMatchesOracleAcrossSeeds) {
  const shape& s = k_shapes[GetParam() % std::size(k_shapes)];
  const int block = GetParam();
  std::uint64_t total_nt = 0;
  std::uint64_t racy_programs = 0;
  constexpr int kSeedsPerBlock = 60;
  for (int i = 0; i < kSeedsPerBlock; ++i) {
    progen_config cfg = s.base;
    cfg.safe_handles = true;
    cfg.seed = static_cast<std::uint64_t>(block) * 100003 + i + 1;
    const run_result r = run_one(cfg);

    EXPECT_EQ(r.detector_racy_vars, r.oracle_racy_vars)
        << "shape=" << s.name << " seed=" << cfg.seed
        << " (detector vs step-level oracle)";
    EXPECT_EQ(r.vector_clock_racy_vars, r.oracle_racy_vars)
        << "shape=" << s.name << " seed=" << cfg.seed
        << " (vector-clock baseline vs oracle)";

    total_nt += r.non_tree_joins;
    racy_programs += !r.oracle_racy_vars.empty();
  }
  // The sweep must actually exercise the machinery: some programs race, some
  // do not, and non-tree joins occur.
  EXPECT_GT(racy_programs, 0u) << s.name;
  EXPECT_LT(racy_programs, static_cast<std::uint64_t>(kSeedsPerBlock))
      << s.name << ": every program raced; race-free cases untested";
  if (s.base.w_get > 0.5) {
    EXPECT_GT(total_nt, 0u) << s.name << ": no non-tree joins exercised";
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TheoremTwo, ::testing::Range(0, 18));

// Unsafe handle flow: a task may join a future whose handle it obtained
// through an unsynchronized channel, violating the precondition of Lemma 1 /
// Lemma 5. The per-location guarantee degrades by design (handle races are
// invisible to the detector, while the oracle sees the resulting step-level
// parallelism), but the program-level verdict and the precision of reported
// locations must survive.
class UnsafeHandles : public ::testing::TestWithParam<int> {};

TEST_P(UnsafeHandles, ProgramVerdictAndPrecisionSurvive) {
  const shape& s = k_shapes[GetParam() % std::size(k_shapes)];
  const int block = GetParam();
  constexpr int kSeedsPerBlock = 40;
  for (int i = 0; i < kSeedsPerBlock; ++i) {
    progen_config cfg = s.base;
    cfg.safe_handles = false;
    cfg.seed = static_cast<std::uint64_t>(block) * 90001 + i + 1;
    const run_result r = run_one(cfg);

    // Program-level soundness both ways, over *all* instrumented locations
    // (ordinary variables and handle registry cells).
    EXPECT_EQ(r.detector_any, r.oracle_any)
        << "shape=" << s.name << " seed=" << cfg.seed;
    // Precision: every location the detector flags is genuinely racy.
    for (const int v : r.detector_racy_vars) {
      EXPECT_TRUE(r.oracle_racy_vars.count(v))
          << "shape=" << s.name << " seed=" << cfg.seed
          << ": detector flagged var " << v
          << " which the oracle says is race-free";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, UnsafeHandles, ::testing::Range(0, 12));

// Determinism (the detector's replay guarantee from the conclusion: a race
// reported for an input is reported in *every* run with that input).
TEST(Determinism, SameSeedSameVerdicts) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    progen_config cfg;
    cfg.seed = seed;
    std::vector<std::set<int>> verdicts;
    std::vector<std::uint64_t> counts;
    for (int run = 0; run < 2; ++run) {
      random_program prog(cfg);
      detect::race_detector det;
      runtime rt({.mode = exec_mode::serial_dfs});
      rt.add_observer(&det);
      rt.run([&] { prog(); });
      verdicts.push_back(to_var_indices(det.racy_locations(), prog));
      counts.push_back(det.race_count());
    }
    EXPECT_EQ(verdicts[0], verdicts[1]) << "seed=" << seed;
    EXPECT_EQ(counts[0], counts[1]) << "seed=" << seed;
  }
}

// Structural invariant: for async-finish-only programs the reader sets never
// hold more than one task (paper §5: #AvgReaders ∈ [0,1] for async-finish).
TEST(StructuralInvariants, AsyncFinishReaderBound) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    progen_config cfg;
    cfg.seed = seed;
    cfg.w_future = 0.0;
    cfg.w_get = 0.0;
    cfg.w_promise = 0.0;
    cfg.w_put = 0.0;
    cfg.w_promise_get = 0.0;
    random_program prog(cfg);
    detect::race_detector det;
    runtime rt({.mode = exec_mode::serial_dfs});
    rt.add_observer(&det);
    rt.run([&] { prog(); });
    EXPECT_LE(det.counters().max_readers, 1u) << "seed=" << seed;
    EXPECT_LE(det.counters().avg_readers, 1.0) << "seed=" << seed;
    EXPECT_EQ(det.counters().non_tree_joins, 0u) << "seed=" << seed;
  }
}

// The oracle referees the PRECEDE memo and the concurrent modes on the
// progen-batch trace shape. A memo keyed on a's set representative served
// one member's positive verdict to the others; these three traces are the
// ones in 2,000 where the default detector then missed races (DESIGN.md §9,
// PRECEDE memoization). The concurrent runs use 64-byte chunks, so the
// 128-byte variable array always straddles a shard boundary and each shard
// replica sees a different subset of the queries.
TEST(OracleReferee, MemoKeyedOnQueriedTask) {
  for (const std::uint64_t seed :
       {11543649285176236877ull, 484896432787705565ull,
        17300148782459959523ull}) {
    progen::trace_config cfg;
    cfg.seed = seed;
    cfg.max_depth = 6;
    cfg.num_vars = 32;
    cfg.max_tasks = 200;
    cfg.max_range_len = 8;
    progen::program_trace prog(cfg);
    const std::string label = "trace seed " + std::to_string(seed);

    detect::race_detector fast;
    detect::race_detector::options no_fastpath;
    no_fastpath.enable_fastpath = false;
    detect::race_detector slow(no_fastpath);
    baselines::oracle_detector oracle;
    {
      runtime rt({.mode = exec_mode::serial_dfs});
      rt.add_observer(&fast);
      rt.add_observer(&slow);
      rt.add_observer(&oracle);
      rt.run([&] { prog(); });
    }
    const std::set<int> expected =
        to_var_indices(oracle.racy_locations(), prog);
    ASSERT_FALSE(expected.empty()) << label;
    EXPECT_EQ(to_var_indices(fast.racy_locations(), prog), expected)
        << label << ": default detector";
    EXPECT_EQ(to_var_indices(slow.racy_locations(), prog), expected)
        << label << ": --no-fastpath";

    detect::race_detector::options three_checkers;
    three_checkers.detect_threads = 3;
    detect::pipelined_detector piped(three_checkers, {.chunk_shift = 6});
    {
      runtime rt({.mode = exec_mode::serial_dfs});
      rt.add_observer(&piped);
      rt.run([&] { prog(); });
    }
    EXPECT_EQ(to_var_indices(piped.racy_locations(), prog), expected)
        << label << ": pipelined W=3";

    detect::parallel_detector::tuning tune;
    tune.checkers = 2;
    tune.chunk_shift = 6;
    detect::parallel_detector replicated({}, tune);
    {
      runtime rt({.mode = exec_mode::parallel_detect, .workers = 2});
      rt.add_parallel_sink(&replicated);
      rt.run([&] { prog(); });
    }
    EXPECT_EQ(to_var_indices(replicated.racy_locations(), prog), expected)
        << label << ": replicated parallel-detect P=2 W=2";
  }
}

}  // namespace
}  // namespace futrace
