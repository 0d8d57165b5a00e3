// Micro-benchmarks for the runtime substrate: construct overheads in each
// execution mode, the detection ring and the pipelined transport, thread
// start/join, a detection run's fixed cost, and the parallel engine on
// crypt's task shape.

#include <benchmark/benchmark.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "bench_main.hpp"

#include "futrace/detect/parallel_pipeline.hpp"
#include "futrace/detect/pipeline.hpp"
#include "futrace/detect/race_detector.hpp"
#include "futrace/runtime/runtime.hpp"
#include "futrace/support/broadcast_ring.hpp"
#include "futrace/support/thread_pool.hpp"

namespace {

using namespace futrace;

constexpr int kTasksPerRun = 4096;

void spawn_many() {
  finish([] {
    for (int i = 0; i < kTasksPerRun; ++i) {
      async([] { benchmark::DoNotOptimize(0); });
    }
  });
}

void BM_SpawnElision(benchmark::State& state) {
  for (auto _ : state) {
    runtime rt({.mode = exec_mode::serial_elision});
    rt.run(spawn_many);
  }
  state.SetItemsProcessed(state.iterations() * kTasksPerRun);
}
BENCHMARK(BM_SpawnElision);

void BM_SpawnSerialDfs(benchmark::State& state) {
  for (auto _ : state) {
    runtime rt({.mode = exec_mode::serial_dfs});
    rt.run(spawn_many);
  }
  state.SetItemsProcessed(state.iterations() * kTasksPerRun);
}
BENCHMARK(BM_SpawnSerialDfs);

void BM_SpawnSerialWithDetector(benchmark::State& state) {
  for (auto _ : state) {
    detect::race_detector det;
    runtime rt({.mode = exec_mode::serial_dfs});
    rt.add_observer(&det);
    rt.run(spawn_many);
  }
  state.SetItemsProcessed(state.iterations() * kTasksPerRun);
}
BENCHMARK(BM_SpawnSerialWithDetector);

void BM_SpawnParallel(benchmark::State& state) {
  for (auto _ : state) {
    std::atomic<int> sink{0};
    runtime rt({.mode = exec_mode::parallel, .workers = 2});
    rt.run([&] {
      finish([&] {
        for (int i = 0; i < kTasksPerRun; ++i) {
          async([&] { sink.fetch_add(1, std::memory_order_relaxed); });
        }
      });
    });
    benchmark::DoNotOptimize(sink.load());
  }
  state.SetItemsProcessed(state.iterations() * kTasksPerRun);
}
BENCHMARK(BM_SpawnParallel);

void BM_FutureCreateGetSerial(benchmark::State& state) {
  runtime rt({.mode = exec_mode::serial_dfs});
  rt.run([&] {
    for (auto _ : state) {
      auto f = async_future([] { return 1; });
      benchmark::DoNotOptimize(f.get());
    }
  });
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FutureCreateGetSerial);

void BM_SharedReadUninstrumented(benchmark::State& state) {
  runtime rt({.mode = exec_mode::serial_elision});
  rt.run([&] {
    shared<int> x(42);
    for (auto _ : state) {
      benchmark::DoNotOptimize(x.read());
    }
  });
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SharedReadUninstrumented);

void BM_SharedReadDetected(benchmark::State& state) {
  detect::race_detector det;
  runtime rt({.mode = exec_mode::serial_dfs});
  rt.add_observer(&det);
  rt.run([&] {
    shared<int> x(42);
    x.write(42);
    for (auto _ : state) {
      benchmark::DoNotOptimize(x.read());
    }
  });
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SharedReadDetected);

void BM_PromisePutGetSerial(benchmark::State& state) {
  // One put splits the current chain into a continuation; this measures the
  // full promise round trip including the split bookkeeping.
  detect::race_detector det;
  runtime rt({.mode = exec_mode::serial_dfs});
  rt.add_observer(&det);
  rt.run([&] {
    for (auto _ : state) {
      promise<int> p;
      p.put(1);
      benchmark::DoNotOptimize(p.get());
    }
  });
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PromisePutGetSerial);

void BM_PromisePutGetParallel(benchmark::State& state) {
  runtime rt({.mode = exec_mode::parallel, .workers = 2});
  rt.run([&] {
    for (auto _ : state) {
      promise<int> p;
      p.put(1);
      benchmark::DoNotOptimize(p.get());
    }
  });
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PromisePutGetParallel);

// Per-spawn overhead on the live work-stealing engine at 4 workers: the
// parallel fork path (queue push + wakeup), amortizing pool construction
// over kTasksPerRun spawns. This is the execution baseline the
// parallel-detect producer hot path adds its ring pushes on top of.
void BM_ParallelSpawnOverhead(benchmark::State& state) {
  for (auto _ : state) {
    std::atomic<int> sink{0};
    runtime rt({.mode = exec_mode::parallel, .workers = 4});
    rt.run([&sink] {
      finish([&sink] {
        for (int i = 0; i < kTasksPerRun; ++i) {
          async([&sink] { sink.fetch_add(1, std::memory_order_relaxed); });
        }
      });
    });
    benchmark::DoNotOptimize(sink.load());
  }
  state.SetItemsProcessed(state.iterations() * kTasksPerRun);
}
BENCHMARK(BM_ParallelSpawnOverhead)->UseRealTime();

// Thread lifecycle per detection run: a pipelined run at detect_threads = 3
// starts and joins three checker bodies. Creating and joining three OS
// threads is what every run paid before the pool; the pool
// (support/thread_pool.hpp) wakes three parked threads and collects them.
constexpr int kRunThreads = 3;

void BM_ThreadStartJoin(benchmark::State& state) {
  std::atomic<int> ran{0};
  for (auto _ : state) {
    std::array<std::thread, kRunThreads> threads;
    for (std::thread& t : threads) {
      t = std::thread([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    for (std::thread& t : threads) t.join();
  }
  benchmark::DoNotOptimize(ran.load());
  state.SetItemsProcessed(state.iterations() * kRunThreads);
}
BENCHMARK(BM_ThreadStartJoin)->UseRealTime();

void BM_PooledThreadStartJoin(benchmark::State& state) {
  std::atomic<int> ran{0};
  std::array<support::pooled_thread, kRunThreads> threads;
  for (auto _ : state) {
    for (support::pooled_thread& t : threads) {
      t.start([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    for (support::pooled_thread& t : threads) t.join();
  }
  benchmark::DoNotOptimize(ran.load());
  state.SetItemsProcessed(state.iterations() * kRunThreads);
}
BENCHMARK(BM_PooledThreadStartJoin)->UseRealTime();

// Ring transport cost per item against continuously-draining consumers:
// arg 0 selects per-item publish (0: a flush after every push, so one
// copy and one release store per item, one cache-line ping-pong with the
// consumers per item) or staged publish (1: the ring copies and publishes
// k_publish_batch items at a time from its private block, flushing only
// before a wait for space — the discipline the detector transport uses);
// arg 1 is the number of consumers, each of which reads every item.
void BM_RingPublishBatch(benchmark::State& state) {
  const bool staged = state.range(0) != 0;
  const auto consumers = static_cast<unsigned>(state.range(1));
  support::broadcast_ring<std::uint64_t> ring(std::size_t{1} << 10,
                                              consumers);
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (unsigned c = 0; c < consumers; ++c) {
    readers.emplace_back([&ring, &stop, c] {
      std::uint64_t sum = 0;
      for (;;) {
        const std::size_t n = ring.readable_refresh(c);
        if (n == 0) {
          if (stop.load(std::memory_order_acquire) &&
              ring.readable_refresh(c) == 0) {
            break;
          }
          std::this_thread::yield();
          continue;
        }
        for (std::size_t i = 0; i < n; ++i) sum += ring.consume_slot(c, i);
        ring.pop(c, n);
      }
      benchmark::DoNotOptimize(sum);
    });
  }
  std::uint64_t items = 0;
  for (auto _ : state) {
    if (ring.free_slots() == 0) {
      ring.flush();
      while (ring.free_slots_refresh() == 0) {
      }
    }
    ring.push(items++);
    if (!staged) ring.flush();
  }
  ring.flush();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  state.SetItemsProcessed(static_cast<std::int64_t>(items));
}
BENCHMARK(BM_RingPublishBatch)
    ->ArgNames({"staged", "consumers"})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({0, 3})
    ->Args({1, 3})
    ->UseRealTime();

// A detection run's fixed cost, through each mode's verdict: a program of
// one finish holding one async, so construction, thread handoff and
// finalize are nearly all of it. Pipelined runs three checkers; parallel
// detection two workers and two checkers.
enum class tiny_mode { inline_serial, pipelined, pardetect };

void BM_TinyRun(benchmark::State& state, tiny_mode mode) {
  const auto body = [] {
    finish([] { async([] { benchmark::DoNotOptimize(0); }); });
  };
  const auto serial_verdict = [&body](auto& det) {
    runtime rt({.mode = exec_mode::serial_dfs});
    rt.add_observer(&det);
    rt.run(body);
    return det.race_detected();
  };
  for (auto _ : state) {
    bool raced = false;
    if (mode == tiny_mode::inline_serial) {
      detect::race_detector det;
      raced = serial_verdict(det);
    } else if (mode == tiny_mode::pipelined) {
      detect::pipelined_detector det({.detect_threads = 3});
      raced = serial_verdict(det);
    } else {
      detect::parallel_detector det({}, {.checkers = 2});
      runtime rt({.mode = exec_mode::parallel_detect, .workers = 2});
      rt.add_parallel_sink(&det);
      rt.run(body);
      raced = det.race_detected();
    }
    benchmark::DoNotOptimize(raced);
  }
}
BENCHMARK_CAPTURE(BM_TinyRun, inline, tiny_mode::inline_serial)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_TinyRun, pipelined, tiny_mode::pipelined)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_TinyRun, pardetect, tiny_mode::pardetect)
    ->UseRealTime();

// crypt-tasks' per-task shape: the root spawns kCryptTasks future tasks,
// each reading and writing one 8-byte block with one bulk access apiece and
// stored into a handle array; the root then reads the handles in bulk and
// gets every future in order.
constexpr std::size_t kCryptTasks = 65536;

struct crypt_shape {
  shared_array<std::uint8_t> input{kCryptTasks * 8};
  shared_array<std::uint8_t> output{kCryptTasks * 8};
  shared_array<future<void>> handles{kCryptTasks};

  void run() {
    for (std::size_t t = 0; t < kCryptTasks; ++t) {
      handles.write(t, async_future([this, t] {
        const auto src = input.read_range(t * 8, 8);
        const auto dst = output.write_range(t * 8, 8);
        for (std::size_t i = 0; i < 8; ++i) {
          dst[i] = static_cast<std::uint8_t>(src[i] ^ 0x5A);
        }
      }));
    }
    const auto hs = handles.read_range(0, kCryptTasks);
    for (std::size_t t = 0; t < kCryptTasks; ++t) {
      future<void> f = hs[t];
      f.get();
    }
  }
};

// The pipelined detector end to end on crypt's shape: serial_dfs executes
// it, three checker threads check it. Reports nanoseconds per wire event
// (ns_per_event, printed in seconds with an SI prefix). At this size a run
// sends about 393,000 events, some 24 laps of the 16,384-slot ring, so
// the per-event transport dominates the run's fixed cost, as in
// perfbench's crypt-tasks.
void BM_PipelinedCryptShape(benchmark::State& state) {
  crypt_shape shape;
  std::uint64_t events = 0;
  for (auto _ : state) {
    detect::pipelined_detector det({.detect_threads = 3});
    runtime rt({.mode = exec_mode::serial_dfs});
    rt.add_observer(&det);
    rt.run([&shape] { shape.run(); });
    benchmark::DoNotOptimize(det.race_detected());
    events += det.pipe_stats().events;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["ns_per_event"] =
      benchmark::Counter(static_cast<double>(events),
                         benchmark::Counter::kIsRate |
                             benchmark::Counter::kInvert);
}
BENCHMARK(BM_PipelinedCryptShape)->UseRealTime()->Unit(benchmark::kMillisecond);

// The work-stealing engine alone on crypt's shape, at 1, 2 and 4 workers,
// with no detector: the execution half of crypt-tasks' parallel-detect
// time. Main spawns every future before it gets the first, so thieves take
// tasks the spawner allocated and free them there.
void BM_ParallelFutureFanOut(benchmark::State& state) {
  const auto workers = static_cast<unsigned>(state.range(0));
  crypt_shape shape;
  for (auto _ : state) {
    runtime rt({.mode = exec_mode::parallel, .workers = workers});
    rt.run([&shape] { shape.run(); });
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kCryptTasks));
}
BENCHMARK(BM_ParallelFutureFanOut)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

FUTRACE_BENCH_MAIN("BENCH_micro_runtime.json");
