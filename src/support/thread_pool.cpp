#include "futrace/support/thread_pool.hpp"

#include <pthread.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "futrace/support/assert.hpp"
#include "futrace/support/reentry.hpp"
#include "futrace/support/spin_pause.hpp"

namespace futrace::support {

/// One pooled OS thread's mailbox. Never freed: its thread waits on it for
/// the life of the process.
struct pool_slot {
  std::mutex mutex;
  std::condition_variable wake;      // the thread waits for a body here
  std::condition_variable finished;  // joiners wait for theirs here
  std::function<void()> body;        // guarded by mutex
  /// Bodies handed to this slot so far, and bodies it has finished. The
  /// thread runs body number `started` while `done` trails it; the handle
  /// of body n joins once done >= n, even if the slot has taken a later
  /// body by then. `done` is written under mutex, so a parked joiner
  /// cannot miss it, and is atomic so a spinning joiner may read it
  /// without the lock.
  std::uint64_t started = 0;           // guarded by mutex
  std::atomic<std::uint64_t> done{0};  // written under mutex
  pool_slot* next_idle = nullptr;      // guarded by the pool's mutex
};

namespace {

/// How long join() polls the slot before it parks. A detection run's
/// checkers usually end within microseconds of the producer's join, and a
/// parked joiner wakes about 10 µs after its body ends.
constexpr auto k_join_spin = std::chrono::microseconds(50);

struct pool {
  std::mutex mutex;
  pool_slot* idle = nullptr;  // guarded by mutex; LIFO, so the warmest first
  std::atomic<std::uint64_t> created{0};
};

/// Leaked on purpose: destroying it at exit would wait on parked threads.
/// A fork child replaces it (see the_pool()).
pool* g_pool = nullptr;

pool& the_pool() {
  static std::once_flag once;
  std::call_once(once, [] {
    g_pool = new pool;
    // The child of a fork has none of the parent's threads, and another
    // parent thread may have held the pool's mutex at the fork: the child
    // gets a fresh, empty pool.
    FUTRACE_CHECK(pthread_atfork(nullptr, nullptr,
                                 [] { g_pool = new pool; }) == 0);
  });
  return *g_pool;
}

void thread_main(pool_slot* s) noexcept {
  std::unique_lock<std::mutex> lock(s->mutex);
  for (;;) {
    s->wake.wait(lock, [s] {
      return s->done.load(std::memory_order_relaxed) != s->started;
    });
    const std::uint64_t number = s->started;
    std::function<void()> body = std::move(s->body);
    lock.unlock();
    body();
    // The captures die before completion is published: after that the
    // caller may free whatever they refer to.
    body = nullptr;
    FUTRACE_DCHECK(!detail::in_reentry());
    // Idle again before the joiner learns of it, so a start() that
    // follows a join() always finds this thread.
    pool& p = the_pool();
    {
      std::lock_guard<std::mutex> idle_lock(p.mutex);
      s->next_idle = p.idle;
      p.idle = s;
    }
    lock.lock();
    s->done.store(number, std::memory_order_release);
    s->finished.notify_all();
  }
}

}  // namespace

pooled_thread::~pooled_thread() {
  FUTRACE_CHECK_MSG(slot_ == nullptr, "pooled_thread destroyed before join");
}

void pooled_thread::start(std::function<void()> body) {
  FUTRACE_CHECK_MSG(slot_ == nullptr, "pooled_thread started twice");
  // A new slot and its thread live as long as the process: they are not
  // program heap blocks, so the heap hooks must not see them.
  detail::reentry_scope reentry;
  pool& p = the_pool();
  pool_slot* s = nullptr;
  {
    std::lock_guard<std::mutex> lock(p.mutex);
    s = p.idle;
    if (s != nullptr) p.idle = s->next_idle;
  }
  if (s == nullptr) {
    auto fresh = std::make_unique<pool_slot>();
    std::thread(&thread_main, fresh.get()).detach();
    s = fresh.release();
    p.created.fetch_add(1, std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(s->mutex);
    s->body = std::move(body);
    number_ = ++s->started;
  }
  s->wake.notify_one();
  slot_ = s;
}

void pooled_thread::join() {
  FUTRACE_CHECK_MSG(slot_ != nullptr, "join of a pooled_thread not started");
  pool_slot* s = std::exchange(slot_, nullptr);
  const auto finished = [this, s] {
    return s->done.load(std::memory_order_acquire) >= number_;
  };
  const auto deadline = std::chrono::steady_clock::now() + k_join_spin;
  while (!finished()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      std::unique_lock<std::mutex> lock(s->mutex);
      s->finished.wait(lock, finished);
      return;
    }
    spin_pause();
  }
}

std::uint64_t pool_threads_created() {
  return the_pool().created.load(std::memory_order_relaxed);
}

}  // namespace futrace::support
