// Tests for the parallel work-stealing engine.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <vector>

#include "futrace/runtime/runtime.hpp"

namespace futrace {
namespace {

// -------------------------------------------------------------- parallel engine

TEST(ParallelEngine, FinishWaitsForAllTasks) {
  runtime rt({.mode = exec_mode::parallel, .workers = 4});
  std::atomic<int> counter{0};
  rt.run([&] {
    finish([&] {
      for (int i = 0; i < 100; ++i) {
        async([&] { counter.fetch_add(1); });
      }
    });
    EXPECT_EQ(counter.load(), 100);
  });
  EXPECT_EQ(counter.load(), 100);
  EXPECT_EQ(rt.tasks_spawned(), 100u);
}

TEST(ParallelEngine, NestedSpawnsAllJoinOuterFinish) {
  runtime rt({.mode = exec_mode::parallel, .workers = 3});
  std::atomic<int> counter{0};
  rt.run([&] {
    finish([&] {
      for (int i = 0; i < 8; ++i) {
        async([&] {
          for (int j = 0; j < 8; ++j) {
            async([&] { counter.fetch_add(1); });
          }
        });
      }
    });
    EXPECT_EQ(counter.load(), 64);
  });
}

TEST(ParallelEngine, FutureGetReturnsValue) {
  runtime rt({.mode = exec_mode::parallel, .workers = 4});
  rt.run([] {
    auto f = async_future([] { return 6 * 7; });
    EXPECT_EQ(f.get(), 42);
  });
}

TEST(ParallelEngine, FutureChainComputesCorrectly) {
  runtime rt({.mode = exec_mode::parallel, .workers = 4});
  rt.run([] {
    auto a = async_future([] { return 1; });
    auto b = async_future([a] { return a.get() + 1; });
    auto c = async_future([b] { return b.get() + 1; });
    EXPECT_EQ(c.get(), 3);
  });
}

// Each link gets its predecessor, then works for a while; main stays busy,
// so thieves take the links oldest first. A thief blocked in link k must not
// help link k+1 on top of itself: that link waits on the blocked k beneath
// it, and neither can ever return. A blocked wait helps only tasks that
// precede it in serial depth-first order, so no run of the chain deadlocks
// (the watchdog would throw deadlock_error).
TEST(ParallelEngine, FutureChainNeverDeadlocksOnOneWorkersStack) {
  const auto work = [](std::chrono::microseconds length) {
    const auto until = std::chrono::steady_clock::now() + length;
    while (std::chrono::steady_clock::now() < until) {
    }
  };
  for (int round = 0; round < 10; ++round) {
    runtime rt({.mode = exec_mode::parallel, .workers = 4,
                .deadlock_timeout_ms = 2000});
    rt.run([&] {
      std::vector<future<int>> chain;
      chain.push_back(async_future([] { return 0; }));
      for (int i = 1; i < 32; ++i) {
        const future<int> prev = chain.back();
        chain.push_back(async_future([prev, work] {
          const int v = prev.get() + 1;
          work(std::chrono::microseconds(50));
          return v;
        }));
      }
      work(std::chrono::milliseconds(5));
      EXPECT_EQ(chain.back().get(), 31);
    });
  }
}

TEST(ParallelEngine, ManyFuturesFanIn) {
  runtime rt({.mode = exec_mode::parallel, .workers = 4});
  rt.run([] {
    std::vector<future<int>> futs;
    for (int i = 0; i < 200; ++i) {
      futs.push_back(async_future([i] { return i; }));
    }
    int total = 0;
    for (auto& f : futs) total += f.get();
    EXPECT_EQ(total, 199 * 200 / 2);
  });
}

TEST(ParallelEngine, RecursiveFibonacciWithFutures) {
  runtime rt({.mode = exec_mode::parallel, .workers = 4});
  rt.run([] {
    struct fib_fn {
      int operator()(int n) const {
        if (n < 2) return n;
        const fib_fn self;
        auto left = async_future([n, self] { return self(n - 1); });
        const int right = self(n - 2);
        return left.get() + right;
      }
    };
    EXPECT_EQ(fib_fn{}(18), 2584);
  });
}

TEST(ParallelEngine, ExceptionInFinishPropagates) {
  runtime rt({.mode = exec_mode::parallel, .workers = 2});
  EXPECT_THROW(rt.run([] {
    finish([] {
      async([] { throw std::runtime_error("task failed"); });
    });
  }),
               std::runtime_error);
}

TEST(ParallelEngine, ExceptionInFutureSurfacesAtGet) {
  runtime rt({.mode = exec_mode::parallel, .workers = 2});
  rt.run([] {
    auto f = async_future([]() -> int { throw std::logic_error("bad"); });
    EXPECT_THROW((void)f.get(), std::logic_error);
  });
}

TEST(ParallelEngine, SingleWorkerStillCompletes) {
  runtime rt({.mode = exec_mode::parallel, .workers = 1});
  std::atomic<int> counter{0};
  rt.run([&] {
    finish([&] {
      for (int i = 0; i < 50; ++i) async([&] { counter.fetch_add(1); });
    });
  });
  EXPECT_EQ(counter.load(), 50);
}

TEST(ParallelEngine, ObserversAreRejected) {
  class noop_observer : public execution_observer {};
  noop_observer obs;
  runtime rt({.mode = exec_mode::parallel});
  EXPECT_DEATH(rt.add_observer(&obs), "serial depth-first");
}

TEST(ParallelEngine, DeeplyNestedFinishScopes) {
  runtime rt({.mode = exec_mode::parallel, .workers = 3});
  std::atomic<int> depth_sum{0};
  rt.run([&] {
    std::function<void(int)> nest = [&](int depth) {
      if (depth == 0) {
        depth_sum.fetch_add(1);
        return;
      }
      finish([&, depth] {
        async([&, depth] { nest(depth - 1); });
        async([&, depth] { nest(depth - 1); });
      });
    };
    nest(8);
  });
  EXPECT_EQ(depth_sum.load(), 256);
}

TEST(ParallelEngine, MixedFuturesPromisesAndFinish) {
  runtime rt({.mode = exec_mode::parallel, .workers = 4});
  rt.run([] {
    promise<int> seed;
    std::vector<future<long>> stages;
    finish([&] {
      async([&] { seed.put(5); });
      for (int i = 0; i < 16; ++i) {
        stages.push_back(async_future([&seed, i] {
          return static_cast<long>(seed.get()) * (i + 1);
        }));
      }
    });
    long total = 0;
    for (auto& s : stages) total += s.get();
    EXPECT_EQ(total, 5L * (16 * 17 / 2));
  });
}

TEST(ParallelEngine, StressManySmallTasksRepeated) {
  for (int round = 0; round < 3; ++round) {
    runtime rt({.mode = exec_mode::parallel, .workers = 4});
    std::atomic<long> sum{0};
    rt.run([&] {
      finish([&] {
        for (int i = 1; i <= 2000; ++i) {
          async([&sum, i] { sum.fetch_add(i, std::memory_order_relaxed); });
        }
      });
    });
    EXPECT_EQ(sum.load(), 2000L * 2001 / 2);
  }
}

// Race-free shared<T> programs compute deterministically in parallel mode.
TEST(ParallelEngine, SharedCellsWithProperSynchronization) {
  for (int round = 0; round < 5; ++round) {
    runtime rt({.mode = exec_mode::parallel, .workers = 4});
    rt.run([] {
      shared_array<int> data(64);
      finish([&] {
        for (std::size_t i = 0; i < 64; ++i) {
          async([&data, i] { data.write(i, static_cast<int>(i) * 2); });
        }
      });
      long long total = 0;
      for (std::size_t i = 0; i < 64; ++i) total += data.read(i);
      EXPECT_EQ(total, 63LL * 64);
    });
  }
}

}  // namespace
}  // namespace futrace
