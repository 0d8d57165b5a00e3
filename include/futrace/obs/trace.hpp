#pragma once

/// \file trace.hpp
/// Low-overhead timeline tracing: a bounded binary ring of runtime +
/// detector events, exported as Chrome trace-event JSON (loadable in
/// Perfetto / chrome://tracing). One track per task (pid 1) and one per
/// checker worker (pid 2).
///
/// The emission side follows the fault-injection hook idiom
/// (inject/hooks.hpp): a single process-global atomic sink pointer, one
/// relaxed load plus a never-taken branch when tracing is off. Hooks sit
/// only on the *rare* event classes (spawn/end/finish/get/put, slab
/// materialization, race reports, pipeline stalls and takeovers) — the
/// per-access hot path is never instrumented, so a disabled trace adds no
/// measurable overhead and an enabled one stays proportional to the task
/// structure, not the access count.
///
/// Memory is bounded: the buffer is sized up front and events past the
/// capacity are counted as dropped, never allocated. The JSON export
/// reports the truncation in `otherData`.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace futrace::obs {

enum class trace_kind : std::uint8_t {
  task_begin,        // "B" on the task's track; arg0 = task_kind, arg1 = parent
  task_end,          // "E" on the task's track
  finish,            // instant; arg0 = number of tasks joined
  get,               // instant on the waiter's track; arg0 = target task
  put,               // instant on the fulfiller's track
  race,              // instant; arg0 = canonical address, arg1 = race kind
  slab_materialize,  // instant; arg0 = cells materialized from a run summary
  precede_sample,    // "C" counter track; arg0 = precede queries, arg1 = memo hits
  ring_stall,        // instant on a checker-worker track (backpressure)
  takeover,          // instant: finalize replayed a dead checker's events
  worker_death,      // instant on the dead worker's track
};

/// Track namespace an event belongs to: program tasks or checker workers.
enum class trace_track : std::uint8_t { task = 0, checker = 1 };

struct trace_event {
  std::uint64_t ts_ns = 0;  // nanoseconds since the session started
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
  std::uint32_t track = 0;  // task id (trace_track::task) or worker index
  trace_kind kind = trace_kind::task_begin;
  trace_track track_type = trace_track::task;
};

/// Fixed-capacity multi-producer event buffer. `record` is wait-free: one
/// fetch_add to claim a slot; claims past the capacity only bump the
/// dropped counter. Slot payloads are written without synchronization —
/// readers must not run concurrently with writers (the exporters run after
/// the traced execution has quiesced).
class trace_buffer {
 public:
  explicit trace_buffer(std::size_t capacity);

  void record(trace_kind kind, trace_track type, std::uint32_t track,
              std::uint64_t arg0, std::uint64_t arg1) noexcept;

  std::size_t capacity() const noexcept { return slots_.size(); }
  std::uint64_t recorded() const noexcept;
  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// The recorded prefix, in claim order. Quiescent use only.
  std::vector<trace_event> events() const;

 private:
  std::vector<trace_event> slots_;
  std::atomic<std::uint64_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::chrono::steady_clock::time_point start_;
};

namespace detail {
extern std::atomic<trace_buffer*> g_trace_sink;
}  // namespace detail

/// The currently installed sink, or nullptr when tracing is off.
inline trace_buffer* trace_sink() noexcept {
  return detail::g_trace_sink.load(std::memory_order_relaxed);
}

inline bool trace_enabled() noexcept { return trace_sink() != nullptr; }

/// The emission hook: a relaxed load and a never-taken branch when off.
inline void trace_emit(trace_kind kind, trace_track type, std::uint32_t track,
                       std::uint64_t arg0 = 0, std::uint64_t arg1 = 0) noexcept {
  trace_buffer* sink = trace_sink();
  if (sink != nullptr) [[unlikely]] {
    sink->record(kind, type, track, arg0, arg1);
  }
}

/// Renders the buffer as a Chrome trace-event JSON document (object
/// format: {"traceEvents": [...], "otherData": {...}}). Tasks appear as
/// pid 1 with one thread per task id; checker workers as pid 2.
std::string to_chrome_json(const trace_buffer& buf);

/// RAII tracing scope: installs a bounded buffer as the process-global
/// sink and, on destruction, restores the previous sink and writes the
/// Chrome JSON to `path` (empty path = capture only, export by hand via
/// to_json()). Sessions nest; the innermost one captures.
class trace_session {
 public:
  explicit trace_session(std::string path, std::size_t capacity = 1 << 16);
  ~trace_session();

  trace_session(const trace_session&) = delete;
  trace_session& operator=(const trace_session&) = delete;

  const trace_buffer& buffer() const noexcept { return *buf_; }
  std::uint64_t recorded() const noexcept { return buf_->recorded(); }
  std::uint64_t dropped() const noexcept { return buf_->dropped(); }
  std::string to_json() const { return to_chrome_json(*buf_); }

  /// Writes the Chrome JSON to `path`; false (with a stderr note) on I/O
  /// failure. Called automatically by the destructor when a path was given.
  bool write(const std::string& path) const;

 private:
  std::string path_;
  std::unique_ptr<trace_buffer> buf_;
  trace_buffer* previous_ = nullptr;
};

}  // namespace futrace::obs
