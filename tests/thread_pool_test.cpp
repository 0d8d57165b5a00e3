// The process-wide thread pool (support::pooled_thread) behind every
// library thread: the pipelined detector's checkers, parallel-detect's
// checkers and the parallel engine's workers. A run after the first must
// start no OS thread, and reusing threads must change no outcome: runs on
// parked threads, concurrent runs, runs after a killed checker and runs in
// a fork child all match the inline detector, reports included.
//
// Parallel-detect runs execute the program on several threads, where a
// racy trace's accesses race for real; ThreadSanitizer builds run
// race-free traces there (the pipelined runs execute serially and keep the
// racy traces in every build).

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <latch>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "futrace/detect/parallel_pipeline.hpp"
#include "futrace/detect/pipeline.hpp"
#include "futrace/detect/race_detector.hpp"
#include "futrace/inject/fault_injector.hpp"
#include "futrace/progen/program_trace.hpp"
#include "futrace/runtime/runtime.hpp"
#include "futrace/support/thread_pool.hpp"

#if defined(__SANITIZE_THREAD__)
#define FUTRACE_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FUTRACE_TEST_TSAN 1
#endif
#endif

#ifdef FUTRACE_TEST_TSAN
// ThreadSanitizer ends a fork child that starts a thread when the parent
// had several, and parked pool threads are exactly that case. The fork test
// checks that the child starts its own threads; let it.
extern "C" const char* __tsan_default_options() { return "die_after_fork=0"; }
constexpr bool k_tsan = true;
#else
constexpr bool k_tsan = false;
#endif

namespace futrace {
namespace {

using detect::parallel_detector;
using detect::pipelined_detector;
using detect::race_detector;

// --------------------------------------------------------------- harness

race_detector::options base_opts() {
  race_detector::options opts;
  // Compare full report lists; never hit the cap.
  opts.max_reports = 1u << 20;
  return opts;
}

/// progen-batch's program shape (perfbench/src/workloads.cpp) with longer
/// bodies: about 5,000 accesses and 350 tasks, so concurrent runs overlap
/// and a checker kill lands mid-stream.
progen::trace_config batch_shape(std::uint64_t seed) {
  progen::trace_config cfg;
  cfg.seed = seed;
  cfg.max_depth = 6;
  cfg.num_vars = 32;
  cfg.max_range_len = 8;
  cfg.min_stmts = 8;
  cfg.max_stmts = 24;
  return cfg;
}

progen::trace_config parallel_shape(std::uint64_t seed) {
  progen::trace_config cfg = batch_shape(seed);
  cfg.race_free = k_tsan;
  return cfg;
}

/// Everything a run reports that must not depend on where it ran.
struct outcome {
  bool detected = false;
  std::uint64_t count = 0;
  bool degraded = false;
  std::vector<const void*> racy;
  std::vector<detect::race_report> reports;
  detect::detector_counters counters;
};

template <typename Detector>
outcome outcome_of(const Detector& det) {
  outcome o;
  o.detected = det.race_detected();
  o.count = det.race_count();
  o.degraded = det.degraded();
  o.racy = det.racy_locations();
  o.reports = det.reports();
  o.counters = det.counters();
  return o;
}

outcome run_inline(progen::program_trace& prog) {
  race_detector det(base_opts());
  runtime rt({.mode = exec_mode::serial_dfs});
  rt.add_observer(&det);
  rt.run([&] { prog(); });
  return outcome_of(det);
}

outcome run_pipelined(progen::program_trace& prog,
                      detect::pipeline_stats* stats = nullptr) {
  race_detector::options opts = base_opts();
  opts.detect_threads = 3;
  pipelined_detector det(opts);
  runtime rt({.mode = exec_mode::serial_dfs});
  rt.add_observer(&det);
  rt.run([&] { prog(); });
  if (stats != nullptr) *stats = det.pipe_stats();
  return outcome_of(det);
}

outcome run_parallel_detect(progen::program_trace& prog) {
  parallel_detector::tuning tune;
  tune.checkers = 2;
  parallel_detector det(base_opts(), tune);
  runtime rt({.mode = exec_mode::parallel_detect, .workers = 2});
  rt.add_parallel_sink(&det);
  rt.run([&] { prog(); });
  return outcome_of(det);
}

bool same_report(const detect::race_report& a, const detect::race_report& b) {
  const auto same_site = [](const access_site& x, const access_site& y) {
    return x.line == y.line &&
           std::strcmp(x.file != nullptr ? x.file : "",
                       y.file != nullptr ? y.file : "") == 0;
  };
  return a.location == b.location && a.user_location == b.user_location &&
         a.kind == b.kind && a.first_task == b.first_task &&
         a.second_task == b.second_task &&
         same_site(a.first_site, b.first_site) &&
         same_site(a.second_site, b.second_site) &&
         a.occurrences == b.occurrences;
}

/// Empty when `got` equals `want`, else the first difference. A string and
/// not gtest assertions, so a fork child can use it too. Counters are the
/// paper-level ones: engine-tier diagnostics depend on the shard layout.
std::string difference(const outcome& got, const outcome& want) {
  std::ostringstream out;
  const auto field = [&out](const char* name, auto g, auto w) {
    if (g != w && out.tellp() == 0) {
      out << name << ": got " << g << ", want " << w;
    }
  };
  field("race_detected", got.detected, want.detected);
  field("race_count", got.count, want.count);
  field("degraded", got.degraded, want.degraded);
  field("racy locations", got.racy.size(), want.racy.size());
  if (out.tellp() == 0 && got.racy != want.racy) out << "racy set differs";
  field("reports", got.reports.size(), want.reports.size());
  for (std::size_t i = 0; out.tellp() == 0 && i < got.reports.size(); ++i) {
    if (!same_report(got.reports[i], want.reports[i])) {
      out << "report " << i << ": got " << got.reports[i].to_string()
          << ", want " << want.reports[i].to_string();
    }
  }
  const detect::detector_counters& g = got.counters;
  const detect::detector_counters& w = want.counters;
  field("tasks", g.tasks, w.tasks);
  field("async_tasks", g.async_tasks, w.async_tasks);
  field("future_tasks", g.future_tasks, w.future_tasks);
  field("continuation_tasks", g.continuation_tasks, w.continuation_tasks);
  field("promise_puts", g.promise_puts, w.promise_puts);
  field("get_operations", g.get_operations, w.get_operations);
  field("non_tree_joins", g.non_tree_joins, w.non_tree_joins);
  field("shared_mem_accesses", g.shared_mem_accesses, w.shared_mem_accesses);
  field("reads", g.reads, w.reads);
  field("writes", g.writes, w.writes);
  field("locations", g.locations, w.locations);
  field("races_observed", g.races_observed, w.races_observed);
  field("racy_locations", g.racy_locations, w.racy_locations);
  field("untracked_accesses", g.untracked_accesses, w.untracked_accesses);
  field("max_readers", g.max_readers, w.max_readers);
  field("avg_readers", g.avg_readers, w.avg_readers);
  return out.str();
}

std::size_t os_threads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

// ------------------------------------------------------------ the handle

TEST(ThreadPool, JoinWaitsForTheBody) {
  support::pooled_thread t;
  EXPECT_FALSE(t.joinable());
  std::atomic<bool> ran{false};
  t.start([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ran.store(true, std::memory_order_relaxed);
  });
  EXPECT_TRUE(t.joinable());
  t.join();
  EXPECT_FALSE(t.joinable());
  EXPECT_TRUE(ran.load(std::memory_order_relaxed));
}

TEST(ThreadPool, ParkedThreadRunsTheNextBody) {
  std::thread::id first;
  std::thread::id second;
  support::pooled_thread t;
  t.start([&] { first = std::this_thread::get_id(); });
  t.join();
  const std::uint64_t created = support::pool_threads_created();
  t.start([&] { second = std::this_thread::get_id(); });
  t.join();
  EXPECT_EQ(support::pool_threads_created(), created);
  EXPECT_EQ(first, second);
  EXPECT_NE(first, std::this_thread::get_id());
}

/// join() polls before it parks, so a body may end before the join, while
/// the joiner spins, or long after it parked. In every case join() returns
/// only once the body's captures are destroyed.
TEST(ThreadPool, JoinAcrossTheSpinBudget) {
  using clock = std::chrono::steady_clock;
  const std::chrono::microseconds lengths[] = {
      std::chrono::microseconds(0),      // ends at once
      std::chrono::microseconds(10),     // inside the 50 µs spin
      std::chrono::microseconds(5000)};  // well past it: the joiner parks
  for (const std::chrono::microseconds length : lengths) {
    for (int round = 0; round < 10; ++round) {
      auto token = std::make_shared<int>(round);
      const std::weak_ptr<int> watch = token;
      support::pooled_thread t;
      t.start([token = std::move(token), length] {
        if (length > std::chrono::milliseconds(1)) {
          std::this_thread::sleep_for(length);
        } else {
          // Sleeping would overshoot a few µs by the timer slack.
          const auto end = clock::now() + length;
          while (clock::now() < end) {
          }
        }
      });
      t.join();
      EXPECT_TRUE(watch.expired())
          << "join returned before the captures died: body of "
          << length.count() << " µs, round " << round;
    }
  }
}

/// Every started body gets a thread of its own: these four bodies each
/// wait until all four run, which only a pool that grows can satisfy.
TEST(ThreadPool, ConcurrentBodiesEachGetAThread) {
  constexpr int k_bodies = 4;
  std::latch all_running(k_bodies);
  std::array<support::pooled_thread, k_bodies> threads;
  for (support::pooled_thread& t : threads) {
    t.start([&] { all_running.arrive_and_wait(); });
  }
  for (support::pooled_thread& t : threads) t.join();
}

// ------------------------------------------------------- detector reuse

TEST(ThreadPool, SecondPipelinedRunStartsNoThread) {
  progen::program_trace prog(batch_shape(101));
  const outcome want = run_inline(prog);
  EXPECT_EQ(difference(run_pipelined(prog), want), "");
  const std::uint64_t created = support::pool_threads_created();
  const std::size_t threads = os_threads();
  detect::pipeline_stats stats;
  EXPECT_EQ(difference(run_pipelined(prog, &stats), want), "");
  EXPECT_EQ(stats.workers, 3u);
  EXPECT_EQ(support::pool_threads_created(), created);
  EXPECT_EQ(os_threads(), threads);
}

TEST(ThreadPool, SecondParallelDetectRunStartsNoThread) {
  progen::program_trace prog(parallel_shape(102));
  const outcome want = run_inline(prog);
  EXPECT_EQ(difference(run_parallel_detect(prog), want), "");
  const std::uint64_t created = support::pool_threads_created();
  const std::size_t threads = os_threads();
  EXPECT_EQ(difference(run_parallel_detect(prog), want), "");
  EXPECT_EQ(support::pool_threads_created(), created);
  EXPECT_EQ(os_threads(), threads);
}

/// Four serial programs, each with its own pipelined detector, run at once:
/// twelve checker bodies share the pool.
TEST(ThreadPool, ConcurrentPipelinedRunsMatchInline) {
  constexpr int k_runners = 4;
  constexpr int k_rounds = 3;
  std::vector<std::unique_ptr<progen::program_trace>> progs;
  std::vector<outcome> want;
  for (int i = 0; i < k_runners; ++i) {
    progs.push_back(std::make_unique<progen::program_trace>(
        batch_shape(200 + static_cast<std::uint64_t>(i))));
    want.push_back(run_inline(*progs.back()));
    ASSERT_GT(want.back().count, 0u);
  }
  std::vector<std::vector<std::string>> diffs(k_runners);
  std::latch go(k_runners);
  std::vector<std::thread> runners;
  for (int i = 0; i < k_runners; ++i) {
    runners.emplace_back([&, i] {
      go.arrive_and_wait();
      for (int round = 0; round < k_rounds; ++round) {
        diffs[i].push_back(difference(run_pipelined(*progs[i]), want[i]));
      }
    });
  }
  for (std::thread& r : runners) r.join();
  for (int i = 0; i < k_runners; ++i) {
    ASSERT_EQ(diffs[i].size(), static_cast<std::size_t>(k_rounds));
    for (int round = 0; round < k_rounds; ++round) {
      EXPECT_EQ(diffs[i][round], "")
          << "runner " << i << " round " << round;
    }
  }
}

/// A killed checker's body ends and its thread goes back to the pool; the
/// next run parks nothing new and still matches inline.
TEST(ThreadPool, KilledCheckerThreadReturnsToThePool) {
  progen::program_trace prog(batch_shape(103));
  const outcome want = run_inline(prog);
  {
    inject::fault_plan plan;
    plan.pipe_kill_at = 50;
    inject::fault_injector inj(plan);
    inject::scoped_injector guard(inj);
    detect::pipeline_stats stats;
    EXPECT_EQ(difference(run_pipelined(prog, &stats), want), "");
    ASSERT_EQ(inj.snapshot().pipe_kills, 1u);
    EXPECT_EQ(stats.workers_died, 1u);
  }
  const std::uint64_t created = support::pool_threads_created();
  detect::pipeline_stats stats;
  EXPECT_EQ(difference(run_pipelined(prog, &stats), want), "");
  EXPECT_EQ(stats.workers_died, 0u);
  EXPECT_EQ(support::pool_threads_created(), created);
}

/// The parent's parked threads do not exist in a fork child. Without the
/// pool's fork reset the child hands its checkers to them, never finishes,
/// and the alarm kills it.
TEST(ThreadPool, ForkChildStartsItsOwnThreads) {
  progen::program_trace serial_prog(batch_shape(104));
  progen::program_trace parallel_prog(parallel_shape(105));
  const outcome want_serial = run_inline(serial_prog);
  const outcome want_parallel = run_inline(parallel_prog);
  ASSERT_EQ(difference(run_pipelined(serial_prog), want_serial), "");
  ASSERT_GT(support::pool_threads_created(), 0u);

  std::fflush(nullptr);
  const pid_t pid = fork();
  ASSERT_NE(pid, -1) << std::strerror(errno);
  if (pid == 0) {
    alarm(10);
    const std::string serial =
        difference(run_pipelined(serial_prog), want_serial);
    const std::string parallel =
        difference(run_parallel_detect(parallel_prog), want_parallel);
    if (!serial.empty()) std::fprintf(stderr, "child pipelined: %s\n",
                                      serial.c_str());
    if (!parallel.empty()) std::fprintf(stderr, "child parallel-detect: %s\n",
                                        parallel.c_str());
    _exit(serial.empty() && parallel.empty() ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  const bool killed = WIFSIGNALED(status);
  ASSERT_FALSE(killed) << "child killed by signal " << WTERMSIG(status)
                       << (WTERMSIG(status) == SIGALRM
                               ? " (hung until the alarm)"
                               : "");
  const bool exited = WIFEXITED(status);
  ASSERT_TRUE(exited);
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace futrace
