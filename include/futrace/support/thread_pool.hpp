#pragma once

/// \file thread_pool.hpp
/// One process-wide pool of parked OS threads behind a std::thread-like
/// handle. Every thread the library runs (the shard checkers, the
/// shared-structure writer and parallel-engine workers 1..P-1) starts here,
/// so only a run that needs more threads at once than any run before it
/// creates an OS thread. start() wakes a parked thread; join() waits for
/// the body to return, not for the thread to exit, and the thread parks
/// again.
///
/// - The pool grows to the process's peak number of bodies running at once
///   and never shrinks. Idle threads block on a condition variable; they
///   never spin.
/// - join() polls for up to 50 µs before it blocks on the slot's condition
///   variable: the bodies a detection run joins usually end within
///   microseconds, and a parked joiner wakes about 10 µs late. The spin is
///   bounded per join, so a busy host pays at most that much per join.
/// - The pool is a leaked singleton and its threads are detached, so static
///   destruction never waits on a parked thread. Parked threads stay
///   visible (`ps -T`) for the life of the process.
/// - The child of a fork() starts with an empty pool: the parent's parked
///   threads do not exist there.

#include <cstdint>
#include <functional>

namespace futrace::support {

struct pool_slot;

/// Handle to one body running on a pooled thread. As with std::thread, a
/// started handle must be joined before it is destroyed or started again.
class pooled_thread {
 public:
  pooled_thread() noexcept = default;
  ~pooled_thread();
  pooled_thread(const pooled_thread&) = delete;
  pooled_thread& operator=(const pooled_thread&) = delete;

  /// Runs `body` on a parked thread, creating one only when none is idle.
  /// Throws std::system_error only when it had to create a thread and
  /// could not. A body that throws terminates the process, as it would on
  /// a std::thread.
  void start(std::function<void()> body);

  bool joinable() const noexcept { return slot_ != nullptr; }

  /// Returns once the body has returned and its captures are destroyed.
  /// From then on the thread touches nothing the caller owns, so the
  /// handle and everything the body used may be freed at once. Spins for
  /// up to 50 µs, then parks.
  void join();

 private:
  pool_slot* slot_ = nullptr;
  std::uint64_t number_ = 0;  // which of the slot's bodies is this handle's
};

/// OS threads the pool has created in this process (in a fork child: since
/// the fork). A start() that finds a parked thread leaves it unchanged.
std::uint64_t pool_threads_created();

}  // namespace futrace::support
