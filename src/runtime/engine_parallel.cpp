/// Parallel engine: help-first work-stealing execution of async / finish /
/// future programs. In plain `parallel` mode no observers fire — the paper's
/// detector is defined over the serial depth-first execution — but the same
/// program text runs unchanged, which is how a user deploys a program after
/// checking it.
///
/// In `parallel_detect` mode the same engine additionally streams one event
/// per construct to an attached parallel_sink, tagged with the emitting
/// worker index and the engine's spawn-order task ids ("pids"). Emission
/// points are chosen so each pid's events appear in its program order within
/// the emitting worker's stream (a task body runs start-to-finish on one OS
/// thread; helping interleaves other pids' events but never reorders one
/// pid's own): spawn before the queue publish, task_end before the helper
/// restores its previous identity, put before any getter can observe the
/// settled state's ordinal, get after the state settles, finish_end only
/// after the join quiesced. The detector replays the serial DFS order from
/// this structure (DESIGN.md §14).
///
/// Blocking operations (finish_end, future get) "help while waiting": the
/// blocked worker takes queued tasks from its own queue and steals from
/// others until its condition holds. A helped task runs on top of the
/// blocked frame, which cannot resume until it returns, so a blocked wait
/// helps only tasks that run entirely before its own position in the serial
/// depth-first order. Such a task never waits on anything the blocked frame
/// (or a later task) still has to do, because the program is deadlock-free
/// under serial DFS; without the rule a frame could help a later task that
/// waits on the frame's own continuation and deadlock on one stack. The
/// DFS-earliest queued task is eligible for every blocked wait, so some
/// worker can always run it.
///
/// Failure model (see DESIGN.md "Failure model"):
///  - Task exceptions are captured per finish scope, first-exception-wins;
///    finish_end always drains every outstanding child before rethrowing, so
///    a throw never leaks tasks or workers.
///  - Every blocked wait registers in a wait table. A wait that finds no
///    runnable work for deadlock_timeout_ms throws deadlock_error carrying a
///    dump of the wait graph — which tasks are blocked, what each waits on,
///    and the future/promise cycle when one exists (paper Appendix A) —
///    instead of a bare timeout string. A wait whose watchdog fired stays
///    in the dump for the rest of the run, so the other waits of its cycle,
///    whose watchdogs fire moments later, still report the whole cycle.
///  - finish scopes wait 3x the timeout before abandoning, so blocked
///    children fail first and the finish collects their errors; abandonment
///    (a child that never failed *and* never finished) leaks only that
///    finish frame, deliberately, because outstanding children still
///    reference it.
///  - The destructor asserts that no task was leaked: everything spawned was
///    either executed or accounted for as discarded at shutdown.

#include <algorithm>
#include <array>
#include <chrono>
#include <deque>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "engines.hpp"
#include "futrace/inject/hooks.hpp"
#include "futrace/runtime/parallel_sink.hpp"
#include "futrace/support/assert.hpp"
#include "futrace/support/reentry.hpp"
#include "futrace/support/thread_pool.hpp"

namespace futrace::detail {

namespace {

class parallel_engine final : public engine {
 public:
  parallel_engine(unsigned workers, std::uint32_t deadlock_timeout_ms,
                  exec_mode mode, parallel_sink* sink)
      : engine(mode),
        worker_count_(workers == 0
                          ? std::max(1u, std::thread::hardware_concurrency())
                          : workers),
        deadlock_timeout_(std::chrono::milliseconds(
            deadlock_timeout_ms == 0 ? 1 : deadlock_timeout_ms)),
        sink_(sink) {
    workers_.reserve(worker_count_);
    for (unsigned i = 0; i < worker_count_; ++i) {
      workers_.push_back(std::make_unique<worker>());
    }
    waits_.resize(worker_count_);
    if (sink_ != nullptr) sink_->begin(worker_count_);
  }

  ~parallel_engine() override {
    stop_threads();
    FUTRACE_CHECK_MSG(live_tasks_.load(std::memory_order_acquire) == 0,
                      "parallel engine leaked tasks at destruction");
  }

  void run_program(const std::function<void()>& main_fn) override {
    FUTRACE_CHECK_MSG(!running_, "run_program is not reentrant");
    running_ = true;
    done_.store(false, std::memory_order_relaxed);
    timed_out_.clear();
    for (unsigned i = 1; i < worker_count_; ++i) {
      workers_[i]->thread.start([this, i] { worker_loop(i); });
    }
    // The calling thread is worker 0 and executes main() (task 0) directly.
    tls_ = tl_state{this, 0, nullptr, 0};
    if (sink_ != nullptr) sink_->emit_program_start(0, 0);
    std::exception_ptr program_error;
    finish_begin();  // implicit finish around main()
    try {
      main_fn();
    } catch (...) {
      program_error = std::current_exception();
    }
    try {
      finish_end();
    } catch (...) {
      if (!program_error) program_error = std::current_exception();
    }
    tls_ = tl_state{};
    stop_threads();
    // Every producer has quiesced; the sink may drain and replay to EOF.
    if (sink_ != nullptr) sink_->program_done();
    running_ = false;
    if (program_error) std::rethrow_exception(program_error);
  }

  task_id spawn_begin(task_kind) override {
    throw usage_error("inline spawning is not used by the parallel engine");
  }
  void spawn_end() override {}

  void parallel_spawn(std::function<void()> body,
                      future_state_base* produces) override {
    // Engine-internal allocations (the ptask, queue growth) are not program
    // heap traffic; the guard keeps them out of the heap hooks. The child's
    // body runs later, outside any guard.
    reentry_scope reentry;
    tl_state& t = tls_;
    FUTRACE_CHECK_MSG(t.eng == this,
                      "async called from a thread outside the pool");
    const task_id id = static_cast<task_id>(
        tasks_spawned_.fetch_add(1, std::memory_order_relaxed) + 1);
    if (produces != nullptr) {
      produces->task.store(id, std::memory_order_relaxed);
    }
    // The spawn event must precede the queue publish: once the child is
    // stealable its events may hit the sink from another worker, and the
    // replayer descends into the child only after seeing this spawn.
    if (sink_ != nullptr) {
      sink_->emit_spawn(t.index, t.task, id,
                        produces != nullptr ? task_kind::future
                                            : task_kind::async);
    }
    auto* pt = new ptask(std::move(body), t.current_finish, id, t.record,
                         ++t.spawned);
    if (t.record != nullptr) {
      t.record->refs.fetch_add(1, std::memory_order_relaxed);
    }
    pt->ief->pending.fetch_add(1, std::memory_order_relaxed);
    live_tasks_.fetch_add(1, std::memory_order_relaxed);
    workers_[t.index]->queue.push(pt);
  }

  void finish_begin() override {
    reentry_scope reentry;
    tl_state& t = tls_;
    FUTRACE_CHECK_MSG(t.eng == this, "finish outside the pool");
    auto* frame = new pfinish{};
    frame->parent = t.current_finish;
    t.current_finish = frame;
    if (sink_ != nullptr) sink_->emit_finish_begin(t.index, t.task);
  }

  void finish_end() override {
    tl_state& t = tls_;
    pfinish* frame = t.current_finish;
    FUTRACE_CHECK_MSG(frame != nullptr, "unbalanced finish_end");
    // Restore the parent frame immediately: if the wait below throws, the
    // unwinding task must not keep spawning into an abandoned frame.
    t.current_finish = frame->parent;
    if (frame->pending.load(std::memory_order_acquire) != 0) {
      // 3x the wait timeout: children blocked on dead futures fail at 1x,
      // drain into this frame, and the finish rethrows their error. Only a
      // child that neither finishes nor fails forces abandonment.
      wait_guard guard(*this, t.index,
                       wait_record{t.task, k_invalid_task, "finish scope",
                                   &frame->pending});
      stall_clock clock(deadlock_timeout_ * 3);
      dfs_point here(t.record, t.spawned);
      while (frame->pending.load(std::memory_order_acquire) != 0) {
        if (!try_help(&here) && clock.expired()) {
          abandoned_frames_.fetch_add(1, std::memory_order_relaxed);
          throw deadlock_error(describe_stall(
              t.index, t.task,
              "finish did not quiesce: a child task neither completed nor "
              "failed within the grace period"));
        }
      }
    }
    // The join quiesced: emitted before the error check so the stream stays
    // balanced whenever the scope closed normally (an abandoned finish takes
    // the throw above and is closed by the replayer's EOF unwind instead).
    // The help loop above runs user bodies and must stay unguarded; only
    // this bookkeeping tail is engine-internal.
    reentry_scope reentry;
    if (sink_ != nullptr) sink_->emit_finish_end(t.index, t.task);
    std::exception_ptr err = frame->take_error();
    delete frame;
    if (err) std::rethrow_exception(err);
  }

  void wait_future(future_state_base& state) override {
    blocking_wait(state, "future");
  }

  void promise_fulfilled(future_state_base& state) override {
    reentry_scope reentry;
    if (sink_ == nullptr) {
      state.publish(future_state_base::k_ready);
      return;
    }
    tl_state& t = tls_;
    FUTRACE_CHECK_MSG(t.eng == this, "put() from a thread outside the pool");
    const std::uint64_t ref =
        next_put_ref_.fetch_add(1, std::memory_order_relaxed) + 1;
    state.task.store(t.task, std::memory_order_relaxed);
    // Both stores precede the release publish, so a getter that observes
    // settled() also observes the fulfiller pid and the put ordinal.
    state.put_ref.store(ref, std::memory_order_relaxed);
    state.publish(future_state_base::k_ready);
    sink_->emit_put(t.index, t.task, ref);
  }

  void wait_promise(future_state_base& state) override {
    blocking_wait(state, "promise");
  }

  // Reached only with ctx().instrument set, i.e. when a sink is attached
  // (the null checks keep direct engine calls harmless in plain mode). The
  // reentry guards keep the heap hooks out of the sink's emission
  // machinery: a spill-buffer reallocation freeing its old buffer must not
  // re-enter emission mid-push.
  void note_read(const void* addr, std::size_t size,
                 access_site site) override {
    if (sink_ == nullptr) return;
    reentry_scope reentry;
    tl_state& t = tls_;
    sink_->emit_read(t.index, t.task, addr, size, site);
  }
  void note_write(const void* addr, std::size_t size,
                  access_site site) override {
    if (sink_ == nullptr) return;
    reentry_scope reentry;
    tl_state& t = tls_;
    sink_->emit_write(t.index, t.task, addr, size, site);
  }
  void note_read_range(const void* addr, std::size_t count, std::size_t stride,
                       access_site site) override {
    if (sink_ == nullptr) return;
    reentry_scope reentry;
    tl_state& t = tls_;
    sink_->emit_read_range(t.index, t.task, addr, count, stride, site);
  }
  void note_write_range(const void* addr, std::size_t count,
                        std::size_t stride, access_site site) override {
    if (sink_ == nullptr) return;
    reentry_scope reentry;
    tl_state& t = tls_;
    sink_->emit_write_range(t.index, t.task, addr, count, stride, site);
  }

  void note_region_retired(const void* addr, std::size_t bytes) override {
    if (sink_ == nullptr) return;
    reentry_scope reentry;
    tl_state& t = tls_;
    sink_->emit_region_retire(t.index, t.task, addr, bytes);
  }

  task_id current_task() const override { return k_invalid_task; }

  std::uint64_t tasks_spawned() const override {
    return tasks_spawned_.load(std::memory_order_relaxed);
  }

 private:
  struct pfinish {
    std::atomic<std::int64_t> pending{0};
    pfinish* parent = nullptr;
    std::mutex error_mutex;
    std::exception_ptr first_error;

    void record_error(std::exception_ptr e) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::move(e);
    }
    std::exception_ptr take_error() {
      std::lock_guard<std::mutex> lock(error_mutex);
      return std::move(first_error);
    }
  };

  /// A spawned task. Besides the body it records the task's place in the
  /// serial depth-first order — its spawn ordinal under each ancestor, read
  /// through the parent chain — written once at spawn and immutable after,
  /// so any worker may read it. The record outlives the task's run while
  /// its children's records still chain through it.
  struct ptask {
    ptask(std::function<void()> b, pfinish* f, task_id i, ptask* p,
          std::uint32_t o)
        : body(std::move(b)), ief(f), id(i), parent(p), ordinal(o),
          depth(p == nullptr ? 1 : p->depth + 1) {}

    std::function<void()> body;
    pfinish* ief;
    task_id id;
    ptask* const parent;          // the spawning task; nullptr for main
    const std::uint32_t ordinal;  // 1-based spawn index within the parent
    const std::uint32_t depth;    // main is depth 0, its children depth 1
    std::atomic<std::uint32_t> refs{1};  // the task itself + one per child
  };

  static constexpr unsigned k_tracked_queues = 64;

  /// What a blocked wait may help: tasks that run before its point — task
  /// `task` after its first `spawned` spawns; `task` nullptr is main. Also
  /// remembers, per worker queue, the queue version at which this wait last
  /// found nothing it may run there, so a spinning wait rescans (and takes
  /// the queue's lock) only after the queue changed.
  struct dfs_point {
    dfs_point(const ptask* t, std::uint32_t s) : task(t), spawned(s) {
      passed.fill(~std::uint64_t{0});
    }

    const ptask* task;
    std::uint32_t spawned;
    std::array<std::uint64_t, k_tracked_queues> passed;
  };

  /// True when `y`, a task that has not started, runs entirely before point
  /// `p` in the serial depth-first order. Compares spawn paths: y lies
  /// before p iff, at the first level where the paths part, y's branch was
  /// spawned first (below p's own task, "first" means within p's `spawned`).
  static bool runs_before(const ptask* y, const dfs_point& p) {
    const ptask* x = p.task;
    const std::uint32_t x_depth = x == nullptr ? 0 : x->depth;
    while (y->depth > x_depth + 1) y = y->parent;
    if (y->depth == x_depth + 1) {
      if (y->parent == x) return y->ordinal <= p.spawned;
      y = y->parent;
    }
    // An unstarted y has no descendants, so y's line and x's part below
    // some common ancestor; climb to the children of that ancestor.
    while (x->depth > y->depth) x = x->parent;
    while (y->parent != x->parent) {
      y = y->parent;
      x = x->parent;
    }
    return y->ordinal < x->ordinal;
  }

  /// Drops one reference to `pt`, deleting every record on its parent chain
  /// that no longer has a running task or a child record behind it.
  static void release(ptask* pt) {
    while (pt != nullptr &&
           pt->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      ptask* parent = pt->parent;
      delete pt;
      pt = parent;
    }
  }

  /// One worker's spawned, not-yet-started tasks. The owner pushes and takes
  /// at the back (newest first); thieves take at the front (oldest first).
  /// A lock rather than a lock-free Chase–Lev deque: a blocked wait must be
  /// able to pass over the tasks it may not run and take one from the
  /// middle. Thieves only try the lock, so a busy queue sends them on to the
  /// next victim instead of queueing them behind its owner.
  class task_queue {
   public:
    void push(ptask* pt) {
      lock();
      tasks_.push_back(pt);
      changed();
      unlock();
    }

    /// Takes the first task, searching from the back for the owner and from
    /// the front for a thief, that runs before `bound` (any task when
    /// `bound` is nullptr). nullptr when there is none or, for a thief, when
    /// the lock is busy. `slot` is this queue's index in `bound->passed`.
    ptask* take(bool owner, dfs_point* bound, unsigned slot) {
      if (size_.load(std::memory_order_relaxed) == 0) return nullptr;
      const bool tracked = bound != nullptr && slot < k_tracked_queues;
      if (tracked &&
          bound->passed[slot] == version_.load(std::memory_order_relaxed)) {
        return nullptr;
      }
      if (owner) {
        lock();
      } else if (locked_.exchange(true, std::memory_order_acquire)) {
        return nullptr;
      }
      ptask* found = nullptr;
      const std::size_t n = tasks_.size();
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = owner ? n - 1 - k : k;
        if (bound == nullptr || runs_before(tasks_[i], *bound)) {
          found = tasks_[i];
          tasks_.erase(tasks_.begin() + static_cast<std::ptrdiff_t>(i));
          changed();
          break;
        }
      }
      if (found == nullptr && tracked) {
        bound->passed[slot] = version_.load(std::memory_order_relaxed);
      }
      unlock();
      return found;
    }

   private:
    void lock() {
      for (unsigned spins = 0;
           locked_.exchange(true, std::memory_order_acquire);) {
        while (locked_.load(std::memory_order_relaxed)) {
          if (++spins > 64) std::this_thread::yield();
        }
      }
    }
    void unlock() { locked_.store(false, std::memory_order_release); }

    void changed() {
      size_.store(tasks_.size(), std::memory_order_relaxed);
      version_.store(version_.load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
    }

    std::atomic<bool> locked_{false};
    // Read unlocked, as hints: an empty queue, or one unchanged since a
    // wait last found nothing there, is skipped without taking the lock.
    std::atomic<std::size_t> size_{0};
    std::atomic<std::uint64_t> version_{0};
    std::deque<ptask*> tasks_;
  };

  struct worker {
    task_queue queue;
    support::pooled_thread thread;
  };

  struct tl_state {
    parallel_engine* eng = nullptr;
    unsigned index = 0;
    pfinish* current_finish = nullptr;
    task_id task = k_invalid_task;  // task currently executing on this thread
    ptask* record = nullptr;        // its record; nullptr for main
    std::uint32_t spawned = 0;      // spawns it has made so far
  };

  /// One blocked wait, published so the watchdog can dump the wait graph.
  struct wait_record {
    task_id task = k_invalid_task;        // the blocked task
    task_id producer = k_invalid_task;    // known producer of the awaited state
    const char* what = nullptr;           // "future" / "promise" / "finish scope"
    const std::atomic<std::int64_t>* finish_pending = nullptr;
    bool active = false;
    bool timed_out = false;  // its watchdog fired (a timed_out_ entry)
    unsigned worker = 0;  // filled in when the dump snapshots the table
  };

  /// Registers one blocked wait for the watchdog's wait-graph dump. Waits
  /// nest (a help loop can run a task that blocks again on the same worker),
  /// so each worker keeps a stack of active records, not a single slot.
  class wait_guard {
   public:
    wait_guard(parallel_engine& eng, unsigned slot, wait_record record)
        : eng_(eng), slot_(slot) {
      record.active = true;
      std::lock_guard<std::mutex> lock(eng_.wait_mutex_);
      eng_.waits_[slot_].push_back(record);
    }
    ~wait_guard() {
      std::lock_guard<std::mutex> lock(eng_.wait_mutex_);
      eng_.waits_[slot_].pop_back();
    }

   private:
    parallel_engine& eng_;
    unsigned slot_;
  };

  /// Tracks how long a wait has gone without finding runnable work. The
  /// deadline starts at the first failed help attempt, so a wait that keeps
  /// finding work is never declared dead (it is making global progress).
  class stall_clock {
   public:
    explicit stall_clock(std::chrono::steady_clock::duration budget)
        : budget_(budget) {}

    /// Called after a failed help attempt; true once the budget is spent.
    bool expired() {
      if ((++spins_ & 0x3FF) != 0) return false;
      const auto now = std::chrono::steady_clock::now();
      if (start_ == std::chrono::steady_clock::time_point{}) {
        start_ = now;
      } else if (now - start_ > budget_) {
        return true;
      }
      std::this_thread::yield();
      return false;
    }

   private:
    std::chrono::steady_clock::duration budget_;
    std::uint64_t spins_ = 0;
    std::chrono::steady_clock::time_point start_{};
  };

  void blocking_wait(future_state_base& state, const char* what) {
    tl_state& t = tls_;
    FUTRACE_CHECK_MSG(t.eng == this, "get() from a thread outside the pool");
    if (state.settled()) {
      emit_get(t, state);
      return;
    }
    {
      wait_guard guard(*this, t.index,
                       wait_record{t.task,
                                   state.task.load(std::memory_order_relaxed),
                                   what, nullptr});
      stall_clock clock(deadlock_timeout_);
      dfs_point here(t.record, t.spawned);
      while (!state.settled()) {
        if (!try_help(&here) && clock.expired()) {
          std::ostringstream headline;
          headline << what << " never completed: the program has a cyclic "
                   << "future/promise dependence (deadlock, paper Appendix A) "
                   << "or a lost fulfillment";
          throw deadlock_error(describe_stall(t.index, t.task, headline.str()));
        }
      }
    }
    emit_get(t, state);
  }

  /// Emits the get edge once the awaited state is settled. States produced
  /// outside this run (no pid, no put ordinal) carry no edge — the same rule
  /// the serial engine applies to k_invalid_task producers.
  void emit_get(tl_state& t, future_state_base& state) {
    if (sink_ == nullptr) return;
    const task_id producer = state.task.load(std::memory_order_relaxed);
    const std::uint64_t ref = state.put_ref.load(std::memory_order_relaxed);
    if (producer == k_invalid_task && ref == 0) return;
    sink_->emit_get(t.index, t.task, producer, ref);
  }

  /// Renders the wait table and any wait cycle into the deadlock report.
  /// `self_task` is the task whose watchdog fired; the cycle walk starts
  /// from it.
  std::string describe_stall(unsigned self, task_id self_task,
                             const std::string& headline) {
    std::ostringstream out;
    out << "deadlock detected: " << headline << "\n";
    std::vector<wait_record> snapshot;
    {
      std::lock_guard<std::mutex> lock(wait_mutex_);
      for (unsigned w = 0; w < waits_.size(); ++w) {
        for (const wait_record& r : waits_[w]) {
          wait_record copy = r;
          copy.worker = w;
          snapshot.push_back(copy);
        }
      }
      for (const wait_record& r : timed_out_) {
        // Until its task has unwound, a fired wait is also still active.
        const bool active = std::any_of(
            snapshot.begin(), snapshot.end(),
            [&](const wait_record& a) { return a.task == r.task; });
        if (!active) snapshot.push_back(r);
      }
      // This wait leaves the table as its task unwinds, before the task's
      // future is published as failed. A wait on that future whose own
      // watchdog fires in between would otherwise report a chain that
      // ends at this task instead of the cycle.
      wait_record mine = waits_[self].back();
      mine.worker = self;
      mine.timed_out = true;
      timed_out_.push_back(mine);
    }
    for (const wait_record& r : snapshot) {
      out << "  blocked: task " << r.task << " (worker " << r.worker
          << (r.timed_out ? ", timed out" : "")
          << (r.worker == self && r.task == self_task ? ", this wait" : "")
          << ") waiting on " << r.what;
      if (r.producer != k_invalid_task) {
        out << " produced by task " << r.producer;
      }
      if (r.finish_pending != nullptr) {
        out << " (" << r.finish_pending->load(std::memory_order_relaxed)
            << " tasks outstanding)";
      }
      out << "\n";
    }
    // Follow waiter -> producer edges from this wait; a repeated task id is
    // the future/promise cycle that proves the deadlock.
    std::vector<task_id> chain;
    task_id cursor = self_task;
    while (cursor != k_invalid_task) {
      for (std::size_t i = 0; i < chain.size(); ++i) {
        if (chain[i] == cursor) {
          out << "  wait cycle: ";
          for (std::size_t j = i; j < chain.size(); ++j) {
            out << "task " << chain[j] << " -> ";
          }
          out << "task " << cursor;
          return out.str();
        }
      }
      chain.push_back(cursor);
      task_id next = k_invalid_task;
      for (const wait_record& r : snapshot) {
        if (r.task == cursor) {
          next = r.producer;
          break;
        }
      }
      cursor = next;
    }
    out << "  (no closed wait cycle among currently blocked tasks: a "
           "fulfillment was lost or a producer is still running)";
    return out.str();
  }

  void worker_loop(unsigned index) {
    tls_ = tl_state{this, index, nullptr, k_invalid_task};
    // Task bodies running on this thread use the public API, which routes
    // through the ambient context; instrumentation is on iff a sink listens.
    ctx() = context{this, sink_ != nullptr};
    while (!done_.load(std::memory_order_acquire)) {
      if (!try_help(nullptr)) {
        // Brief backoff; stealing is retried immediately after.
        std::this_thread::yield();
      }
    }
    // The thread is a pooled one (support/thread_pool.hpp) and runs other
    // bodies after this one: leave it as it was found.
    ctx() = context{};
    tls_ = tl_state{};
  }

  /// Runs one queued task, if there is one this thread may run: any task
  /// from the idle loop (`bound` nullptr), only tasks that run before
  /// `bound` from a blocked wait.
  bool try_help(dfs_point* bound) {
    tl_state& t = tls_;
    if (inject::yield_site()) std::this_thread::yield();
    if (ptask* pt = workers_[t.index]->queue.take(true, bound, t.index)) {
      run_task(pt);
      return true;
    }
    // Steal sweep starting from a pseudo-random victim (perturbable by the
    // fault injector to explore different steal orders).
    unsigned start = steal_cursor_.fetch_add(1, std::memory_order_relaxed);
    start = inject::steal_start_site(t.index, worker_count_, start);
    for (unsigned k = 0; k < worker_count_; ++k) {
      const unsigned victim = (start + k) % worker_count_;
      if (victim == t.index) continue;
      if (ptask* pt = workers_[victim]->queue.take(false, bound, victim)) {
        run_task(pt);
        return true;
      }
    }
    return false;
  }

  void run_task(ptask* pt) {
    tl_state& t = tls_;
    pfinish* saved_finish = t.current_finish;
    const task_id saved_task = t.task;
    ptask* saved_record = t.record;
    const std::uint32_t saved_spawned = t.spawned;
    t.current_finish = pt->ief;
    t.task = pt->id;
    t.record = pt;
    t.spawned = 0;
    try {
      pt->body();
    } catch (...) {
      pt->ief->record_error(std::current_exception());
    }
    // task_end is emitted even for a failed body so the stream stays
    // balanced per task; it precedes the identity restore (and the pending
    // decrement) so it lands in this pid's stream before the enclosing
    // finish can observe the join. The guard covers destroying the body
    // too: user captures destroyed there may free tracked blocks, and those
    // retires must take the hooks' deferred path (no task identity is
    // executing once the restore below runs).
    reentry_scope reentry;
    if (sink_ != nullptr) sink_->emit_task_end(t.index, pt->id);
    t.current_finish = saved_finish;
    t.task = saved_task;
    t.record = saved_record;
    t.spawned = saved_spawned;
    pt->ief->pending.fetch_sub(1, std::memory_order_release);
    pt->body = nullptr;
    release(pt);
    live_tasks_.fetch_sub(1, std::memory_order_release);
  }

  void stop_threads() {
    done_.store(true, std::memory_order_release);
    for (auto& w : workers_) {
      if (w->thread.joinable()) w->thread.join();
    }
    // After an abandoned finish the queues may still hold never-run tasks.
    // Discard them with full accounting so the leak assertion in the
    // destructor stays meaningful.
    for (auto& w : workers_) {
      while (ptask* pt = w->queue.take(true, nullptr, 0)) {
        pt->ief->pending.fetch_sub(1, std::memory_order_release);
        release(pt);
        live_tasks_.fetch_sub(1, std::memory_order_release);
        discarded_tasks_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  const unsigned worker_count_;
  const std::chrono::steady_clock::duration deadlock_timeout_;
  std::vector<std::unique_ptr<worker>> workers_;
  std::atomic<bool> done_{false};
  std::atomic<unsigned> steal_cursor_{0};
  std::atomic<std::uint64_t> tasks_spawned_{0};
  std::atomic<std::uint64_t> next_put_ref_{0};
  std::atomic<std::int64_t> live_tasks_{0};
  std::atomic<std::uint64_t> abandoned_frames_{0};
  std::atomic<std::uint64_t> discarded_tasks_{0};
  parallel_sink* const sink_;
  bool running_ = false;

  std::mutex wait_mutex_;
  std::vector<std::vector<wait_record>> waits_;  // per-worker nested waits
  std::vector<wait_record> timed_out_;  // this run's fired watchdogs

  static thread_local tl_state tls_;
};

thread_local parallel_engine::tl_state parallel_engine::tls_{};

}  // namespace

std::unique_ptr<engine> make_parallel_engine(unsigned workers,
                                             std::uint32_t deadlock_timeout_ms,
                                             exec_mode mode,
                                             parallel_sink* sink) {
  return std::make_unique<parallel_engine>(workers, deadlock_timeout_ms, mode,
                                           sink);
}

}  // namespace futrace::detail
