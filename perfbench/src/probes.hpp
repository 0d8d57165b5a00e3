#pragma once

/// \file probes.hpp
/// Measurement taken from outside the library. The traced run attributes
/// time to layers by timing calls into each layer's public entry points —
/// a forwarding execution_observer in front of race_detector or
/// pipelined_detector, a forwarding parallel_sink in front of
/// parallel_detector — never by instrumenting detection code. Coarse spans
/// (workload, mode, construct, run, finalize) are kept in memory and
/// written out when the benchmark ends.

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "futrace/runtime/observer.hpp"
#include "futrace/runtime/parallel_sink.hpp"

namespace perfbench {

using futrace::access_site;
using futrace::task_id;
using futrace::task_kind;
using bench_clock = std::chrono::steady_clock;

inline std::int64_t ns_between(bench_clock::time_point a,
                               bench_clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// Time spent inside one probed layer and how many calls it took.
struct layer_time {
  std::int64_t ns = 0;
  std::uint64_t calls = 0;
};

template <typename Fn>
inline void timed_call(layer_time& into, Fn&& fn) {
  const auto t0 = bench_clock::now();
  fn();
  into.ns += ns_between(t0, bench_clock::now());
  ++into.calls;
}

/// What one timed_call around an empty body costs, in nanoseconds.
struct timer_cost {
  /// Wall time of the whole call: what the probe adds to a traced run.
  double total_ns = 0;
  /// The part that falls inside the measured interval, by which every
  /// probed layer time overstates the layer's own work.
  double interval_ns = 0;
};

timer_cost calibrate_timer();

/// A fixed memory-bound loop outside the library: random reads over a
/// buffer larger than a core's caches. Its time tracks how fast the shared
/// host runs memory-bound code at that moment, so detection times taken
/// next to it can be scaled to a common host speed.
class host_probe {
 public:
  host_probe();
  /// Times one pass; nanoseconds.
  double run();

 private:
  std::vector<std::uint64_t> buffer_;
  std::uint64_t state_ = 1;
  std::uint64_t sink_ = 0;
};

/// An observer that does nothing, including the base class's per-element
/// decomposition of range events, so a serial_dfs run with it attached
/// costs the engine's bookkeeping plus observer dispatch and nothing else.
class noop_observer final : public futrace::execution_observer {
 public:
  void on_read_range(task_id, const void*, std::size_t, std::size_t,
                     access_site) override {}
  void on_write_range(task_id, const void*, std::size_t, std::size_t,
                      access_site) override {}
};

/// Forwards every observer event to `inner` and times the call. Access
/// events (scalar, range, region retire) and structure events (spawn, end,
/// finish, get, put, program start/end) are kept apart.
class timed_observer final : public futrace::execution_observer {
 public:
  explicit timed_observer(futrace::execution_observer& inner)
      : inner_(inner) {}

  const layer_time& access() const noexcept { return access_; }
  const layer_time& structure() const noexcept { return structure_; }

  void on_program_start(task_id root) override {
    timed_call(structure_, [&] { inner_.on_program_start(root); });
  }
  void on_task_spawn(task_id parent, task_id child, task_kind kind) override {
    timed_call(structure_, [&] { inner_.on_task_spawn(parent, child, kind); });
  }
  void on_task_end(task_id t) override {
    timed_call(structure_, [&] { inner_.on_task_end(t); });
  }
  void on_finish_start(task_id owner) override {
    timed_call(structure_, [&] { inner_.on_finish_start(owner); });
  }
  void on_finish_end(task_id owner, std::span<const task_id> joined) override {
    timed_call(structure_, [&] { inner_.on_finish_end(owner, joined); });
  }
  void on_get(task_id waiter, task_id target) override {
    timed_call(structure_, [&] { inner_.on_get(waiter, target); });
  }
  void on_promise_put(task_id fulfiller) override {
    timed_call(structure_, [&] { inner_.on_promise_put(fulfiller); });
  }
  void on_program_end() override {
    timed_call(structure_, [&] { inner_.on_program_end(); });
  }
  void on_read(task_id t, const void* addr, std::size_t size,
               access_site site) override {
    timed_call(access_, [&] { inner_.on_read(t, addr, size, site); });
  }
  void on_write(task_id t, const void* addr, std::size_t size,
                access_site site) override {
    timed_call(access_, [&] { inner_.on_write(t, addr, size, site); });
  }
  void on_read_range(task_id t, const void* addr, std::size_t count,
                     std::size_t stride, access_site site) override {
    timed_call(access_,
               [&] { inner_.on_read_range(t, addr, count, stride, site); });
  }
  void on_write_range(task_id t, const void* addr, std::size_t count,
                      std::size_t stride, access_site site) override {
    timed_call(access_,
               [&] { inner_.on_write_range(t, addr, count, stride, site); });
  }
  void on_region_retire(task_id t, const void* addr,
                        std::size_t bytes) override {
    timed_call(access_, [&] { inner_.on_region_retire(t, addr, bytes); });
  }

 private:
  futrace::execution_observer& inner_;
  layer_time access_;
  layer_time structure_;
};

/// Forwards every parallel_sink call to `inner` and times the emit_* calls
/// per engine worker. Worker slots are sized in begin(), which the engine
/// calls before any worker thread exists; each worker writes only its own
/// slot, and the totals are read after run() has joined the workers.
class timed_sink final : public futrace::detail::parallel_sink {
 public:
  explicit timed_sink(futrace::detail::parallel_sink& inner) : inner_(inner) {}

  /// Emit time and calls summed over every worker.
  layer_time emit() const;
  /// Time inside begin(), where the detector sizes its transport and
  /// starts its checker threads.
  const layer_time& started() const noexcept { return begin_; }
  /// Time inside program_done(), the end-of-stream hand-off.
  const layer_time& done() const noexcept { return done_; }

  void begin(unsigned workers) override {
    slots_.assign(workers, slot{});
    timed_call(begin_, [&] { inner_.begin(workers); });
  }
  void emit_program_start(unsigned w, task_id root) override {
    timed_call(slots_[w].t, [&] { inner_.emit_program_start(w, root); });
  }
  void emit_spawn(unsigned w, task_id parent, task_id child,
                  task_kind kind) override {
    timed_call(slots_[w].t,
               [&] { inner_.emit_spawn(w, parent, child, kind); });
  }
  void emit_task_end(unsigned w, task_id t) override {
    timed_call(slots_[w].t, [&] { inner_.emit_task_end(w, t); });
  }
  void emit_finish_begin(unsigned w, task_id owner) override {
    timed_call(slots_[w].t, [&] { inner_.emit_finish_begin(w, owner); });
  }
  void emit_finish_end(unsigned w, task_id owner) override {
    timed_call(slots_[w].t, [&] { inner_.emit_finish_end(w, owner); });
  }
  void emit_get(unsigned w, task_id waiter, task_id producer,
                std::uint64_t put_ref) override {
    timed_call(slots_[w].t,
               [&] { inner_.emit_get(w, waiter, producer, put_ref); });
  }
  void emit_put(unsigned w, task_id fulfiller, std::uint64_t put_ref) override {
    timed_call(slots_[w].t, [&] { inner_.emit_put(w, fulfiller, put_ref); });
  }
  void emit_read(unsigned w, task_id t, const void* addr, std::size_t size,
                 access_site site) override {
    timed_call(slots_[w].t, [&] { inner_.emit_read(w, t, addr, size, site); });
  }
  void emit_write(unsigned w, task_id t, const void* addr, std::size_t size,
                  access_site site) override {
    timed_call(slots_[w].t,
               [&] { inner_.emit_write(w, t, addr, size, site); });
  }
  void emit_read_range(unsigned w, task_id t, const void* addr,
                       std::size_t count, std::size_t stride,
                       access_site site) override {
    timed_call(slots_[w].t, [&] {
      inner_.emit_read_range(w, t, addr, count, stride, site);
    });
  }
  void emit_write_range(unsigned w, task_id t, const void* addr,
                        std::size_t count, std::size_t stride,
                        access_site site) override {
    timed_call(slots_[w].t, [&] {
      inner_.emit_write_range(w, t, addr, count, stride, site);
    });
  }
  void emit_region_retire(unsigned w, task_id t, const void* addr,
                          std::size_t bytes) override {
    timed_call(slots_[w].t,
               [&] { inner_.emit_region_retire(w, t, addr, bytes); });
  }
  void program_done() override {
    timed_call(done_, [&] { inner_.program_done(); });
  }

 private:
  struct alignas(64) slot {
    layer_time t;
  };
  futrace::detail::parallel_sink& inner_;
  std::vector<slot> slots_;
  layer_time begin_;
  layer_time done_;
};

/// Spans kept in memory for one run and written as JSON at exit. Each span
/// has a parent id (0 for a root). Past `capacity` spans, new ones are
/// counted as dropped and get id 0, so their children become roots of
/// nothing and are dropped as well.
class span_log {
 public:
  explicit span_log(std::size_t capacity);

  /// Opens a span starting now under `parent`; returns its id (0 if dropped).
  std::uint32_t open(const char* name, std::uint32_t parent);
  void close(std::uint32_t id);
  /// Records an already-finished span.
  std::uint32_t add(const char* name, std::uint32_t parent,
                    bench_clock::time_point start,
                    bench_clock::time_point end);

  std::size_t size() const noexcept { return spans_.size(); }
  std::uint64_t dropped() const noexcept { return dropped_; }
  bool write(const std::string& path, const std::string& label) const;

 private:
  struct span {
    const char* name;
    std::uint32_t parent;
    bench_clock::time_point start;
    bench_clock::time_point end;
  };
  std::size_t capacity_;
  bench_clock::time_point origin_;
  std::vector<span> spans_;
  std::uint64_t dropped_ = 0;
};

}  // namespace perfbench
