#include "futrace/detect/parallel_pipeline.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <deque>
#include <mutex>
#include <span>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "futrace/detect/event_ring.hpp"
#include "futrace/inject/fault_injector.hpp"
#include "futrace/inject/hooks.hpp"
#include "futrace/obs/trace.hpp"
#include "futrace/support/alloc_gate.hpp"
#include "futrace/support/assert.hpp"
#include "futrace/support/spin_pause.hpp"
#include "futrace/support/thread_pool.hpp"

namespace futrace::detect {

namespace {

/// Bounded busy-wait: pause for a short burst, then hand the core to the
/// scheduler, because on an oversubscribed machine the thread being waited
/// on cannot run until the waiter yields.
struct spin_backoff {
  unsigned spins = 0;
  void wait() noexcept {
    if (++spins < 64) {
      support::spin_pause();
    } else {
      std::this_thread::yield();
    }
  }
  void reset() noexcept { spins = 0; }
};

/// Mirror of the serial engine's task frame (engine_serial.cpp): `id` is
/// the dense serial task id, `base` the first identity of the continuation
/// chain, `ief_frame` indexes finish_stack (k_no_frame for the root chain),
/// `puts_seen` the put counter at frame entry — a joined child that saw
/// puts forces a continuation split of the resumed frame, exactly as the
/// serial spawn_end does.
inline constexpr std::uint32_t k_no_frame = 0xFFFFFFFFu;

struct replay_frame {
  task_id id = 0;
  task_id base = 0;
  std::uint32_t ief_frame = k_no_frame;
  bool continuation = false;
  std::uint64_t puts_seen = 0;
};

struct replay_finish {
  task_id owner = 0;
  std::vector<task_id> joined;
};

/// Serial position of one replica-local race report: structure events
/// replayed before the access that raised it, and the access's ring
/// position. Every replica replays the same structure stream, and the
/// accesses between two structure events all belong to one pid, hence to
/// one producer, whose ring positions follow its program order (a split
/// range's sub-events take consecutive positions) — so the key orders
/// reports from different shards exactly as the inline detector raised
/// them.
struct report_tag {
  std::uint64_t structure = 0;
  std::uint64_t pos = 0;
};

/// A wire event with its position in its producer's ring: what a replayer
/// queues, and what a producer spills for a consumer that will not read
/// its ring again.
struct queued_event {
  pipe_event ev;
  std::uint64_t pos = 0;
};

/// Applies one access-class event (an access or a region retire) to `det`
/// as dense serial task `t`: the canonical address and geometry come from
/// the wire, the site from the run's site table.
void apply_access(race_detector& det, task_id t, const pipe_event& ev,
                  const wire_site_table& sites) {
  const void* addr = reinterpret_cast<const void*>(ev.a);
  switch (ev.op) {
    case pipe_op::read:
      det.on_canonical_read(t, addr, reinterpret_cast<const void*>(ev.b),
                            sites.resolve(ev.site));
      break;
    case pipe_op::write:
      det.on_canonical_write(t, addr, reinterpret_cast<const void*>(ev.b),
                             sites.resolve(ev.site));
      break;
    case pipe_op::read_range:
      det.on_read_range(t, addr, static_cast<std::size_t>(ev.b), ev.stride,
                        sites.resolve(ev.site));
      break;
    case pipe_op::write_range:
      det.on_write_range(t, addr, static_cast<std::size_t>(ev.b), ev.stride,
                         sites.resolve(ev.site));
      break;
    case pipe_op::region_retire:
      det.on_region_retire(t, addr, static_cast<std::size_t>(ev.b));
      break;
    default:
      FUTRACE_DCHECK(false);  // structure events go to the replayer
      break;
  }
}

/// Reconstructs the serial depth-first observer stream from the parallel
/// wire. Events are demuxed into per-pid FIFO queues (a pid's events arrive
/// in its program order: its body runs on one OS thread and its ring is
/// FIFO); replay then walks the DFS source order — descend into a child's
/// queue at its spawn event, return at its task end — renumbering tasks
/// densely and re-deriving continuation splits, finish joined-lists, and
/// get targets exactly as serial_engine would have. The replica therefore
/// sees a stream bit-identical to the inline serial run's.
///
/// Single-threaded: owned by one checker thread during the run, resumed on
/// the main thread at finalize (after the checker joined).
class dfs_replayer {
 public:
  dfs_replayer(race_detector* det, const wire_site_table* sites)
      : det_(det), sites_(sites) {}

  void enqueue(const pipe_event& ev, std::uint64_t pos) {
    ++pending_;
    queues_[ev.task].push_back(queued_event{ev, pos});
  }

  /// enqueue() followed by as many step()s as it enables, minus the queue:
  /// when nothing is pending and `ev` is the current source's next event,
  /// it is applied at once. A single producer's stream is already in DFS
  /// order, so there every event takes this path.
  void offer(const pipe_event& ev, std::uint64_t pos) {
    if (pending_ == 0 && started_ && !ended_ && !source_stack_.empty() &&
        ev.task == source_stack_.back()) [[likely]] {
      apply(ev, pos);
      return;
    }
    enqueue(ev, pos);
  }

  /// Replays one event if the DFS order admits one; false means blocked
  /// (the current source's next event has not arrived yet).
  bool step() {
    if (ended_ || pending_ == 0) return false;
    if (!started_) {
      // The root's stream starts with program_start; nothing is admissible
      // before it.
      const auto it = queues_.find(0);
      if (it == queues_.end() || it->second.empty()) return false;
      const pipe_event ev = it->second.front().ev;
      it->second.pop_front();
      --pending_;
      FUTRACE_DCHECK(ev.op == pipe_op::program_start);
      const task_id root = next_task_++;
      task_stack_.push_back({root, root, k_no_frame, false, put_counter_});
      set_initial(ev.task, root);
      det_->on_program_start(root);
      source_stack_.push_back(ev.task);
      ++structure_applied_;
      started_ = true;
      return true;
    }
    if (source_stack_.empty()) return false;
    const auto it = queues_.find(source_stack_.back());
    if (it == queues_.end() || it->second.empty()) return false;
    const queued_event q = it->second.front();
    it->second.pop_front();
    --pending_;
    apply(q.ev, q.pos);
    return true;
  }

  /// Closes every open frame exactly as the serial engine's end-of-program
  /// (or error unwind) would: continuations and the root pop with task-end
  /// events, finish frames above each frame's floor close with their joined
  /// lists, then on_program_end fires. Serves both the clean EOF (where it
  /// reduces to end_root: the stream left only the root chain open) and a
  /// program error (where abandoned frames close exactly as the serial
  /// unwind closes them).
  void unwind_eof() {
    if (ended_) return;
    ended_ = true;
    if (!started_) return;
    // Anything still queued can never be admitted — its serial position
    // lies beyond an event that never arrived (only possible after a
    // program error). The serial execution would never have reached it.
    for (const auto& [pid, q] : queues_) {
      dropped_ += q.size();
    }
    while (!task_stack_.empty()) {
      const replay_frame top = task_stack_.back();
      const std::size_t floor =
          top.ief_frame == k_no_frame ? 0 : top.ief_frame + 1;
      while (finish_stack_.size() > floor) {
        try {
          det_->on_finish_end(
              top.id, std::span<const task_id>(finish_stack_.back().joined));
        } catch (...) {
        }
        finish_stack_.pop_back();
      }
      task_stack_.pop_back();
      try {
        det_->on_task_end(top.id);
      } catch (...) {
      }
    }
    try {
      det_->on_program_end();
    } catch (...) {
    }
  }

  std::uint64_t infeasible_gets() const noexcept { return infeasible_gets_; }
  std::uint64_t dropped() const noexcept { return dropped_; }
  /// tags()[i] is the serial position of det->reports()[i].
  const std::vector<report_tag>& tags() const noexcept { return tags_; }

  // -- shared-structure writer interface --------------------------------------
  // The single-writer structure thread applies one event at a time and
  // labels the run that follows it; these accessors expose exactly the
  // state it needs between steps.

  /// The next admissible event (the one step() would replay), or nullptr
  /// when the DFS order is blocked on an event that has not arrived.
  const pipe_event* peek() const {
    if (ended_) return nullptr;
    if (!started_) {
      const auto it = queues_.find(0);
      if (it == queues_.end() || it->second.empty()) return nullptr;
      return &it->second.front().ev;
    }
    if (source_stack_.empty()) return nullptr;
    const auto it = queues_.find(source_stack_.back());
    if (it == queues_.end() || it->second.empty()) return nullptr;
    return &it->second.front().ev;
  }

  bool has_admissible() const { return peek() != nullptr; }

  /// The pid whose queue feeds the replay right now (the source of the
  /// next structure event, and the owner of every access in the current
  /// run); k_invalid_task once the root chain has closed.
  task_id current_source() const {
    if (!started_ || source_stack_.empty()) return k_invalid_task;
    return source_stack_.back();
  }

  /// The dense serial id the current source's accesses check under.
  task_id current_dense() const {
    return task_stack_.empty() ? k_invalid_task : task_stack_.back().id;
  }

 private:
  void apply(const pipe_event& ev, std::uint64_t pos) {
    switch (ev.op) {
      case pipe_op::spawn: {
        // Serial spawn_begin: the child gets the next dense id and runs to
        // completion before the parent resumes — descend into its queue.
        const task_id parent = task_stack_.back().id;
        const task_id child = next_task_++;
        FUTRACE_DCHECK(!finish_stack_.empty());
        const auto ief = static_cast<std::uint32_t>(finish_stack_.size() - 1);
        finish_stack_.back().joined.push_back(child);
        det_->on_task_spawn(parent, child, static_cast<task_kind>(ev.b));
        task_stack_.push_back({child, child, ief, false, put_counter_});
        set_initial(static_cast<task_id>(ev.a), child);
        source_stack_.push_back(static_cast<task_id>(ev.a));
        break;
      }
      case pipe_op::task_end: {
        // Serial spawn_end: close the child's continuation chain, pop it,
        // and split the resumed frame when the child published puts.
        end_continuations();
        const replay_frame frame = task_stack_.back();
        task_stack_.pop_back();
        det_->on_task_end(frame.id);
        if (task_stack_.back().puts_seen != put_counter_) split_current();
        source_stack_.pop_back();
        FUTRACE_DCHECK(queues_[ev.task].empty());
        queues_.erase(ev.task);  // a pid's stream ends with its task_end
        break;
      }
      case pipe_op::finish_begin: {
        const task_id owner = task_stack_.back().id;
        finish_stack_.push_back({owner, {}});
        det_->on_finish_start(owner);
        break;
      }
      case pipe_op::finish_end: {
        FUTRACE_DCHECK(!finish_stack_.empty());
        const task_id current = task_stack_.back().id;
        det_->on_finish_end(
            current, std::span<const task_id>(finish_stack_.back().joined));
        finish_stack_.pop_back();
        break;
      }
      case pipe_op::get: {
        // b = put ordinal (promise get), else a = producer pid (future
        // get). Either maps to the dense id the serial engine would have
        // recorded in the state: the fulfiller's pre-split identity, or
        // the future's spawn id.
        const task_id waiter = task_stack_.back().id;
        task_id target = k_invalid_task;
        if (ev.b != 0) {
          if (ev.b <= put_identity_.size()) target = put_identity_[ev.b - 1];
        } else if (ev.a < serial_initial_.size()) {
          target = serial_initial_[ev.a];
        }
        if (target == k_invalid_task) {
          // The producer has no serial position yet: the parallel schedule
          // realized an order the serial DFS cannot (the serial engine
          // would have refused the program before this get).
          ++infeasible_gets_;
          break;
        }
        det_->on_get(waiter, target);
        break;
      }
      case pipe_op::put: {
        // Serial promise_fulfilled: record the pre-split identity as the
        // promise's join target, then split the current task.
        const task_id fulfiller = task_stack_.back().id;
        if (ev.a > put_identity_.size()) {
          put_identity_.resize(ev.a, k_invalid_task);
        }
        put_identity_[ev.a - 1] = fulfiller;
        det_->on_promise_put(fulfiller);
        ++put_counter_;
        split_current();
        break;
      }
      case pipe_op::read:
      case pipe_op::write:
      case pipe_op::read_range:
      case pipe_op::write_range:
      case pipe_op::region_retire:
        apply_access(*det_, task_stack_.back().id, ev, *sites_);
        break;
      case pipe_op::program_start:
        FUTRACE_DCHECK(false);  // consumed by the started_ branch of step()
        break;
    }
    if (is_access(ev.op)) {
      while (tags_.size() < det_->reports().size()) {
        tags_.push_back(report_tag{structure_applied_, pos});
      }
    } else if (ev.op != pipe_op::region_retire) {
      ++structure_applied_;
    }
  }

  void set_initial(task_id pid, task_id dense) {
    if (pid >= serial_initial_.size()) {
      serial_initial_.resize(pid + 1, k_invalid_task);
    }
    serial_initial_[pid] = dense;
  }

  /// Serial split_current: the running task continues under a fresh dense
  /// id; the continuation joins the same finish frame its base does.
  void split_current() {
    const replay_frame cur = task_stack_.back();
    const task_id cont = next_task_++;
    if (cur.ief_frame != k_no_frame) {
      finish_stack_[cur.ief_frame].joined.push_back(cont);
    }
    det_->on_task_spawn(cur.id, cont, task_kind::continuation);
    task_stack_.push_back({cont, cur.base, cur.ief_frame, true, put_counter_});
  }

  /// Serial end_continuations: pop the chain above the base frame,
  /// innermost first.
  void end_continuations() {
    while (task_stack_.back().continuation) {
      const task_id id = task_stack_.back().id;
      task_stack_.pop_back();
      det_->on_task_end(id);
    }
  }

  race_detector* det_;
  const wire_site_table* sites_;
  std::unordered_map<task_id, std::deque<queued_event>> queues_;
  std::vector<replay_frame> task_stack_;
  std::vector<replay_finish> finish_stack_;
  /// The DFS descent through the *parallel* id space: source_stack_.back()
  /// names the pid whose queue feeds the replay right now.
  std::vector<task_id> source_stack_;
  /// pid -> dense id at its spawn (the id a future's state would carry),
  /// k_invalid_task until replayed. Pids and put ordinals are dense, so
  /// both maps are vectors.
  std::vector<task_id> serial_initial_;
  /// put ordinal - 1 -> dense pre-split fulfiller id (the id a promise's
  /// state would carry), k_invalid_task until replayed.
  std::vector<task_id> put_identity_;
  task_id next_task_ = 0;
  std::uint64_t put_counter_ = 0;
  std::uint64_t pending_ = 0;  // events queued, not yet replayed
  std::uint64_t structure_applied_ = 0;
  std::vector<report_tag> tags_;
  std::uint64_t infeasible_gets_ = 0;
  std::uint64_t dropped_ = 0;
  bool started_ = false;
  bool ended_ = false;
};

/// Sentinel for "no structure ordinal can match this run" (the run after
/// the root chain closed, which can own no accesses).
inline constexpr std::uint64_t k_invalid_seq = ~std::uint64_t{0};

/// One admitted structure event, as the shard checkers need it: run n
/// (1-based) is the shared-graph state after the writer applied the n-th
/// structure event. Its accesses are exactly those of `pid` tagged with the
/// per-pid ordinal `k`, checked as dense serial task `dense` at the owner's
/// serial step `step` (adopted via note_run_boundary so stamp elision is
/// bit-identical to the inline serial run).
struct run_label {
  task_id pid = k_invalid_task;
  std::uint64_t k = k_invalid_seq;
  task_id dense = k_invalid_task;
  std::uint64_t step = 0;
};

/// A shared-mode checker's bucketed access: the event and its pid's
/// structure ordinal when it ran, which names the run it belongs to.
struct bucketed_access {
  pipe_event ev;
  std::uint64_t k = 0;
};

/// One entry of a producer's direct-mapped site cache, in front of the
/// run's wire_site_table. An empty entry reads {nullptr, 0} -> id 0, which
/// is what the table holds for that site.
struct site_slot {
  const char* file = nullptr;
  std::uint32_t line = 0;
  std::uint32_t id = 0;
};
inline constexpr unsigned k_site_cache_bits = 6;

/// Slots a checker applies from one ring before it retires them.
inline constexpr std::size_t k_checker_sweep = 256;

}  // namespace

struct parallel_detector::impl {
  /// Per engine-worker emission state. Touched only by that worker's OS
  /// thread while the engine runs, and only by the main thread afterwards
  /// (the engine joins its pool before program_done). Its counters are
  /// written on every event, so it owns whole cache lines: sharing one
  /// with a neighbouring heap object made crypt-tasks' pipelined run about
  /// 1.5x slower on a 4-core host.
  struct alignas(64) producer_state {
    /// Producer-side canonicalization: span_of against the live element
    /// geometry at the access point, slab tier off (stores no cells). The
    /// global region registry is mutex+version guarded, so P concurrent
    /// mirrors are safe.
    shadow_memory span_shadow;
    /// Per consumer: the events it reads that the ring would have
    /// overwritten after it left for good — or, in buffer mode, every
    /// event it reads — with their ring positions. Only older events move
    /// here, so a consumer's spill precedes what is left of it in the ring.
    std::vector<std::vector<queued_event>> spill;
    std::array<site_slot, std::size_t{1} << k_site_cache_bits> site_cache{};
    std::uint64_t events = 0;
    std::uint64_t access_events = 0;
    std::uint64_t split_subevents = 0;
    std::uint64_t backpressure_waits = 0;
    std::uint64_t occupancy_samples = 0;
    std::uint64_t occupancy_sum = 0;
    /// Slots written so far: the next event's ring position.
    std::uint64_t pushes = 0;
    std::uint64_t spilled = 0;
  };

  struct checker {
    unsigned index = 0;  // also its consumer index in every ring
    std::unique_ptr<race_detector> det;
    std::unique_ptr<dfs_replayer> rp;
    support::pooled_thread thread;
    /// Set (release) by the checker on a kill fault or an escaped
    /// exception, as its last act; whoever acquires it owns the checker's
    /// heads from then on (gone() below).
    std::atomic<bool> dead{false};
    bool thread_started = false;
    /// Idle backoff waits: the checker found nothing to do.
    std::uint64_t wait_spins = 0;
    /// The replica's counters once its replay is complete. A replicated
    /// checker that reaches the end of the stream alive closes its replay
    /// and fills these on its own thread, so the shadow walks behind them
    /// run in parallel; merge() asks the other replicas itself.
    detector_counters final_counters;
    bool final_ready = false;

    // -- shared-structure run state (structure_mode::shared) ------------------
    // Owned by the checker thread while it lives; the store to `dead`
    // (release) hands it to the structure writer, whose join hands it to
    // the main thread — one owner at every instant.
    /// Per pid (pids are dense): structure events seen so far in its
    /// producer's ring — the ordinal the pid's next access is tagged with.
    std::vector<std::uint64_t> struct_seen;
    /// Access events demuxed per pid; a pid's entries are FIFO in its
    /// program order, so ordinal tags are nondecreasing per queue.
    std::unordered_map<task_id, std::deque<bucketed_access>> buckets;
    std::uint64_t next_run = 1;  // first run not yet completed
    bool run_entered = false;    // note_run_boundary done for next_run
    run_label cur{};             // label of next_run once entered
    /// Highest fully-completed run; the writer's fence acquires it.
    std::atomic<std::uint64_t> done_run{0};
    std::uint64_t admit_lag_max = 0;
  };

  /// The single-writer shared reachability structure (structure_mode::
  /// shared): one race_detector owns the only graph, fed by the structure
  /// events of every producer's ring, which the writer reads as one more
  /// consumer. Checkers attach to it for PRECEDE queries under query_mutex
  /// and never apply structure events to it.
  struct shared_structure {
    std::unique_ptr<race_detector> owner;
    std::unique_ptr<dfs_replayer> rp;
    support::pooled_thread thread;
    bool thread_started = false;
    /// Set (release) when the writer dies (fault injection, escaped
    /// exception, failed thread start); producers take over its heads and
    /// finalize replays single-threaded.
    std::atomic<bool> dead{false};
    /// Admitted position: runs 1..applied exist (their run_label is
    /// appended before this release store).
    std::atomic<std::uint64_t> applied{0};
    /// Highest n whose terminator — the (n+1)-th structure event — the
    /// writer holds. A run's accesses and its terminator come from the
    /// same pid, hence the same ring, in that order, so terminator >= n
    /// means every run-n access was published before the store.
    std::atomic<std::uint64_t> terminator{0};
    /// The stream is fully applied: the final run's terminator is EOF.
    std::atomic<bool> eof{false};
    /// Serializes every checker's PRECEDE query on the owner's graph (the
    /// search, path halving and memo all mutate it).
    std::mutex query_mutex;
    /// Guards `runs`: push_back keeps element references stable but a
    /// deque's internal block map is not concurrently indexable.
    std::mutex run_mutex;
    std::deque<run_label> runs;  // runs[n-1] labels run n
    /// Structure events applied per pid, in serial order — the k of the
    /// next run label. Writer-thread local (main-thread at finalize).
    std::unordered_map<task_id, std::uint64_t> applied_count;
    std::uint64_t fence_spins = 0;
  };

  race_detector::options opts;
  tuning tune;
  unsigned producers = 0;      // P, fixed by begin()
  unsigned checker_count = 0;  // W
  /// Readers of every ring: the W checkers, then — shared mode — the
  /// structure writer as consumer W.
  unsigned consumer_count = 0;
  bool begun = false;
  bool finalized = false;
  /// Root pid from program_start: no producer emits a task_end for the
  /// root, so finalize closes its trace lane itself.
  task_id root_pid = k_invalid_task;
  /// Ring allocation refused at begin(): no rings, no threads, every event
  /// spills and the whole replay runs at finalize. Full fidelity, zero
  /// overlap.
  bool buffer_mode = false;
  std::atomic<bool> done{false};

  /// The sites the wire names, shared by every producer and consumer.
  wire_site_table sites;
  std::vector<std::unique_ptr<producer_state>> pstates;
  /// One ring per producer, read in full by every consumer (none in buffer
  /// mode). Kept apart from producer_state: consumers read this vector,
  /// producers write their state on every event.
  std::vector<std::unique_ptr<event_ring>> rings;
  std::vector<std::unique_ptr<checker>> checkers;
  /// Non-null iff tuning::structure == structure_mode::shared.
  std::unique_ptr<shared_structure> shared;
  /// The run's trace session (Chrome JSON written at destruction). Owned
  /// here: producers emit the execution lanes, every inner detector is
  /// trace-muted.
  std::unique_ptr<obs::trace_session> trace;

  bool shard_pow2 = false;
  std::size_t shard_mask = 0;

  pipeline_stats stats;
  parallel_pipeline_stats pstats;

  detector_counters merged_counters;
  std::vector<race_report> merged_reports;
  std::vector<const void*> merged_racy;
  std::vector<std::uint64_t> merged_suppression;
  bool merged_degraded = false;

  // -- who reads what ---------------------------------------------------------

  std::size_t owner_of(std::uint64_t addr) const noexcept {
    if (checker_count == 1) return 0;
    const std::uint64_t chunk = addr >> tune.chunk_shift;
    return shard_pow2 ? static_cast<std::size_t>(chunk) & shard_mask
                      : static_cast<std::size_t>(chunk % checker_count);
  }

  /// Whether consumer `c` reads `ev`; it skips the rest of the ring. A
  /// checker reads every structure event (replicated: to replay it;
  /// shared: to count its pid's ordinal), the accesses it owns and every
  /// region retire. The shared-mode writer reads structure events alone.
  bool reads(unsigned c, const pipe_event& ev) const noexcept {
    if (is_structure(ev.op)) return true;
    if (c == checker_count) return false;
    return ev.op == pipe_op::region_retire || owner_of(ev.a) == c;
  }

  /// Whether consumer `c` applies `ev`: the events the worker fault site
  /// fires on and a takeover counts. Everything it reads, except that a
  /// shared-mode checker only counts structure events.
  bool applies(unsigned c, const pipe_event& ev) const noexcept {
    return reads(c, ev) &&
           !(shared && c < checker_count && is_structure(ev.op));
  }

  /// True once nobody but the producer will read consumer `c`'s view of
  /// the rings before finalize: the checker (or the writer) is dead and —
  /// for a checker under shared mode — the structure writer, which
  /// services dead shards, is dead too. Both flags are sticky and each is
  /// its owner's last act, so from the acquiring load on, producer p alone
  /// owns c's head in ring p.
  bool gone(unsigned c) const {
    if (c == checker_count) return shared->dead.load(std::memory_order_acquire);
    if (!checkers[c]->dead.load(std::memory_order_acquire)) return false;
    return shared == nullptr || shared->dead.load(std::memory_order_acquire);
  }

  // -- emission (engine worker threads) ---------------------------------------

  /// Producer p's wire id for `site`: its cache, else the shared table
  /// (which takes a mutex, once per site and producer until evicted).
  std::uint32_t site_id(producer_state& ps, access_site site) {
    const std::uint64_t h =
        (reinterpret_cast<std::uintptr_t>(site.file) ^
         (std::uint64_t{site.line} << 32 | site.line)) *
        0x9E3779B97F4A7C15ULL;
    site_slot& slot = ps.site_cache[h >> (64 - k_site_cache_bits)];
    if (slot.file != site.file || slot.line != site.line) [[unlikely]] {
      slot = site_slot{site.file, site.line, sites.intern(site)};
    }
    return slot.id;
  }

  /// Appends `ev` to consumer c's spill if c reads it.
  void spill(producer_state& ps, unsigned c, const pipe_event& ev,
             std::uint64_t pos) {
    if (!reads(c, ev)) return;
    ps.spill[c].push_back(queued_event{ev, pos});
    ++ps.spilled;
  }

  /// Writes `ev` once into producer p's ring, for every consumer; in
  /// buffer mode it goes straight to the spills. The ring stages it in the
  /// producer's private block and publishes full blocks; finalize publishes
  /// the rest.
  void push(unsigned p, const pipe_event& ev) {
    producer_state& ps = *pstates[p];
    const std::uint64_t pos = ps.pushes++;
    if (buffer_mode) [[unlikely]] {
      for (unsigned c = 0; c < consumer_count; ++c) spill(ps, c, ev, pos);
      return;
    }
    event_ring& ring = *rings[p];
    if ((pos & 63) == 63) {
      ps.occupancy_sum += ring.size_approx();
      ++ps.occupancy_samples;
    }
    if (const std::uint32_t forced = inject::pipe_ring_full_site())
        [[unlikely]] {
      for (std::uint32_t i = 0; i < forced; ++i) {
        ++ps.backpressure_waits;
        support::spin_pause();
      }
    }
    if (ring.free_slots() == 0) [[unlikely]] wait_for_slot(ps, ring);
    ring.push(ev);
  }

  /// Backpressure: publish what is staged (a consumer can only free slots
  /// it can see), then spin until the slowest consumer frees one. A
  /// consumer that is gone never holds the producer: its unread slots move
  /// to its spill, in order, before the ring could overwrite them.
  void wait_for_slot(producer_state& ps, event_ring& ring) {
    ring.flush();
    if (obs::trace_enabled()) [[unlikely]] {
      unsigned slowest = 0;
      for (unsigned c = 1; c < consumer_count; ++c) {
        if (ring.position(c) < ring.position(slowest)) slowest = c;
      }
      obs::trace_emit(obs::trace_kind::ring_stall, obs::trace_track::checker,
                      slowest, 1);
    }
    spin_backoff backoff;
    for (;;) {
      for (unsigned c = 0; c < consumer_count; ++c) {
        if (!gone(c)) continue;
        ring.drain(c, [&](std::uint64_t pos, const pipe_event& ev) {
          spill(ps, c, ev, pos);
        });
      }
      if (ring.free_slots_refresh() != 0) return;
      ++ps.backpressure_waits;
      backoff.wait();
    }
  }

  /// Producer-side execution lanes: the producers are the single
  /// authoritative runtime-event stream (the checker replicas and the
  /// structure owner are trace-muted).
  void trace_lane(pipe_op op, task_id pid, std::uint64_t a, std::uint64_t b) {
    switch (op) {
      case pipe_op::program_start:
        obs::trace_emit(obs::trace_kind::task_begin, obs::trace_track::task,
                        pid, static_cast<std::uint64_t>(task_kind::root),
                        k_invalid_task);
        break;
      case pipe_op::spawn:
        obs::trace_emit(obs::trace_kind::task_begin, obs::trace_track::task,
                        static_cast<task_id>(a), b, pid);
        break;
      case pipe_op::task_end:
        obs::trace_emit(obs::trace_kind::task_end, obs::trace_track::task,
                        pid);
        break;
      case pipe_op::finish_end:
        // The parallel wire carries no joined count (replayers re-derive
        // the joined lists); the lane records the join point itself.
        obs::trace_emit(obs::trace_kind::finish, obs::trace_track::task, pid);
        break;
      case pipe_op::get:
        obs::trace_emit(obs::trace_kind::get, obs::trace_track::task, pid, a);
        break;
      case pipe_op::put:
        obs::trace_emit(obs::trace_kind::put, obs::trace_track::task, pid);
        break;
      default:
        break;
    }
    (void)b;
  }

  /// Graph-structure events: one slot that every checker replays (or, in
  /// shared mode, counts) and the shared-mode writer applies.
  void emit_struct(unsigned p, pipe_op op, task_id pid, std::uint64_t a,
                   std::uint64_t b) {
    if (op == pipe_op::program_start) root_pid = pid;
    if (obs::trace_enabled()) [[unlikely]] trace_lane(op, pid, a, b);
    pipe_event ev;
    ev.op = op;
    ev.task = pid;
    ev.a = a;
    ev.b = b;
    ++pstates[p]->events;
    push(p, ev);
    // Staged accesses precede this event in the pid's program order and in
    // the ring, so no consumer can see it before them. With several
    // producers it publishes at once: another producer's pids may wait in
    // a replayer for it. A single producer stages it like an access — it
    // flushes before every wait and at finalize, and nothing else can wait
    // on its staged events.
    if (producers > 1 && !buffer_mode) rings[p]->flush();
  }

  /// Sends one range access as sub-events, split at chunk boundaries so
  /// each names one owner. A stride too wide for the wire sends the range
  /// element by element instead (k_max_wire_stride): count-1 sub-events,
  /// which read no stride. Either way the sub-events take consecutive
  /// ring positions.
  void emit_range_split(unsigned p, bool is_write, task_id pid,
                        const void* addr, std::size_t count,
                        std::size_t stride, access_site site) {
    producer_state& ps = *pstates[p];
    const std::uint32_t sid = site_id(ps, site);
    const bool wide = stride > k_max_wire_stride;
    std::uintptr_t a = reinterpret_cast<std::uintptr_t>(addr);
    std::size_t remaining = count;
    std::uint64_t sub = 0;
    while (remaining > 0) {
      std::size_t k = remaining;
      if (wide) {
        k = 1;
      } else if (checker_count > 1 && stride != 0) {
        const std::uintptr_t room =
            next_chunk_boundary(a, tune.chunk_shift) - a;
        // Elements owned by this chunk: those whose *base* precedes the
        // boundary (an element may straddle into the next chunk). Most
        // ranges fit whole, which needs no division.
        std::size_t bytes = 0;
        if (__builtin_mul_overflow(remaining, stride, &bytes) ||
            bytes > room) {
          k = std::min<std::size_t>(remaining, (room + stride - 1) / stride);
        }
      }
      pipe_event ev;
      ev.op = is_write ? pipe_op::write_range : pipe_op::read_range;
      ev.task = pid;
      ev.a = a;
      ev.b = k;
      ev.stride = wide ? 0 : static_cast<std::uint32_t>(stride);
      ev.site = sid;
      push(p, ev);
      ++sub;
      a += k * stride;
      remaining -= k;
    }
    if (sub > 1) ps.split_subevents += sub - 1;
  }

  void emit_range(unsigned p, bool is_write, task_id pid, const void* addr,
                  std::size_t count, std::size_t stride, access_site site) {
    producer_state& ps = *pstates[p];
    ++ps.access_events;
    ++ps.events;
    emit_range_split(p, is_write, pid, addr, count, stride, site);
  }

  void emit_access(unsigned p, bool is_write, task_id pid, const void* addr,
                   std::size_t size, access_site site) {
    producer_state& ps = *pstates[p];
    ++ps.access_events;
    ++ps.events;
    // Canonicalize on the emitting worker (it sees the element geometry no
    // later than the access); replicas run assume-canonical.
    const shadow_memory::access_span span = ps.span_shadow.span_of(addr, size);
    if (span.count == 1) [[likely]] {
      pipe_event ev;
      ev.op = is_write ? pipe_op::write : pipe_op::read;
      ev.task = pid;
      ev.a = reinterpret_cast<std::uintptr_t>(span.first);
      // The checker never reads a scalar's size; `b` carries the
      // program-touched address for report provenance.
      ev.b = reinterpret_cast<std::uintptr_t>(addr);
      ev.site = site_id(ps, site);
      push(p, ev);
      return;
    }
    emit_range_split(p, is_write, pid, span.first, span.count, span.stride,
                     site);
  }

  /// Region retire: access-class (it mutates only shadow state, so the
  /// structure writer skips it) but applied by EVERY checker — the range
  /// may span chunk owners, and each shard retires only the cells it holds.
  void emit_region_retire(unsigned p, task_id pid, const void* addr,
                          std::size_t bytes) {
    producer_state& ps = *pstates[p];
    ++ps.access_events;
    ++ps.events;
    pipe_event ev;
    ev.op = pipe_op::region_retire;
    ev.task = pid;
    ev.a = reinterpret_cast<std::uintptr_t>(addr);
    ev.b = bytes;
    push(p, ev);
  }

  // -- checker threads --------------------------------------------------------

  /// Replicated checker: read every ring with this checker's head, apply
  /// what it reads, skip the accesses other shards own.
  void checker_loop(checker& c) {
    const unsigned me = c.index;
    spin_backoff backoff;
    for (;;) {
      std::size_t drained = 0;
      for (unsigned p = 0; p < producers; ++p) {
        event_ring& ring = *rings[p];
        // Retire in bounded sweeps: a producer waiting on a full ring
        // resumes after one sweep, not after a whole ring's worth of work.
        const std::size_t n =
            std::min(ring.readable_refresh(me), k_checker_sweep);
        if (n == 0) continue;
        const std::uint64_t head = ring.position(me);
        for (std::size_t i = 0; i < n; ++i) {
          const pipe_event& ev = ring.consume_slot(me, i);
          if (!reads(me, ev)) continue;
          const int action = inject::pipe_worker_site();
          if (action == inject::pipe_kill) [[unlikely]] {
            // Exit without draining: already-retired events were applied,
            // everything else stays for the finalize takeover.
            if (i != 0) ring.pop(me, i);
            c.dead.store(true, std::memory_order_release);
            return;
          }
          if (action == inject::pipe_stall) [[unlikely]] {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
          }
          c.rp->offer(ev, head + i);
        }
        ring.pop(me, n);
        drained += n;
      }
      bool stepped = false;
      while (c.rp->step()) stepped = true;
      if (drained == 0 && !stepped) {
        if (done.load(std::memory_order_acquire)) {
          // Re-check after observing done: a producer may have pushed
          // between the drain sweep and the flag read.
          bool empty = true;
          for (unsigned p = 0; p < producers; ++p) {
            if (rings[p]->readable_refresh(me) != 0) {
              empty = false;
              break;
            }
          }
          if (!empty) continue;
          // The stream is complete and nothing of it is left for a
          // takeover: close the replay here, in parallel with the others.
          c.rp->unwind_eof();
          c.final_counters = c.det->counters();
          c.final_ready = true;
          return;
        }
        ++c.wait_spins;
        backoff.wait();
      } else {
        backoff.reset();
      }
    }
  }

  // -- shared-structure mode (one writer, W read-only checkers) ---------------

  /// The highest run whose accesses are all on the wire. Read eof first:
  /// once it is set, applied is final and every run is terminated.
  std::uint64_t term_snapshot() const {
    const shared_structure& sh = *shared;
    const bool at_eof = sh.eof.load(std::memory_order_acquire);
    const std::uint64_t applied = sh.applied.load(std::memory_order_acquire);
    return at_eof ? applied : sh.terminator.load(std::memory_order_acquire);
  }

  std::uint64_t& struct_seen(checker& c, task_id pid) {
    if (pid >= c.struct_seen.size()) {
      c.struct_seen.resize(std::size_t{pid} + 1, 0);
    }
    return c.struct_seen[pid];
  }

  /// One event of a shared-mode checker's stream. A structure event
  /// advances its pid's ordinal (every consumer sees every event of a
  /// ring, so the count matches the producer's program order); an access
  /// the checker owns, or a region retire, goes to its pid's bucket under
  /// that ordinal. `live` is true only on the checker's own thread, where
  /// the kill/stall fault site fires; false means a kill fired and `ev`
  /// stays unread.
  bool take_shared(checker& c, const pipe_event& ev, bool live) {
    if (is_structure(ev.op)) {
      ++struct_seen(c, ev.task);
      return true;
    }
    if (!reads(c.index, ev)) return true;
    if (live) {
      const int action = inject::pipe_worker_site();
      if (action == inject::pipe_kill) [[unlikely]] return false;
      if (action == inject::pipe_stall) [[unlikely]] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
    c.buckets[ev.task].push_back(
        bucketed_access{ev, struct_seen(c, ev.task)});
    return true;
  }

  /// Drains checker `c`'s view of every ring into its per-pid buckets. A
  /// kill leaves the killed event unread (finalize consumes it) and
  /// reports through `*killed`.
  std::size_t drain_shared(checker& c, bool live, bool* killed) {
    std::size_t drained = 0;
    for (unsigned p = 0; p < producers; ++p) {
      event_ring& ring = *rings[p];
      const std::size_t n = ring.readable_refresh(c.index);
      for (std::size_t i = 0; i < n; ++i) {
        if (!take_shared(c, ring.consume_slot(c.index, i), live))
            [[unlikely]] {
          if (i != 0) ring.pop(c.index, i);
          *killed = true;
          return drained;
        }
      }
      if (n != 0) {
        ring.pop(c.index, n);
        drained += n;
      }
    }
    return drained;
  }

  /// Advances checker `c` through admitted runs: enter run n (adopt the
  /// owner's serial step), apply every bucketed access tagged for it, and
  /// complete it — publishing done_run for the writer's fence — once its
  /// terminator is on the wire (`term` >= n, snapshotted before the drain
  /// that made the buckets current). Runs complete strictly in order.
  bool process_runs_shared(checker& c, std::uint64_t term) {
    shared_structure& sh = *shared;
    bool progress = false;
    for (;;) {
      const std::uint64_t n = c.next_run;
      const std::uint64_t admitted =
          sh.applied.load(std::memory_order_acquire);
      if (n > admitted) break;
      const std::uint64_t lag = admitted - (n - 1);
      if (lag > c.admit_lag_max) c.admit_lag_max = lag;
      if (!c.run_entered) {
        {
          std::lock_guard<std::mutex> lock(sh.run_mutex);
          c.cur = sh.runs[static_cast<std::size_t>(n - 1)];
        }
        c.det->note_run_boundary(c.cur.step);
        c.run_entered = true;
      }
      if (c.cur.pid != k_invalid_task) {
        const auto it = c.buckets.find(c.cur.pid);
        if (it != c.buckets.end()) {
          std::deque<bucketed_access>& q = it->second;
          while (!q.empty() && q.front().k == c.cur.k) {
            apply_access(*c.det, c.cur.dense, q.front().ev, sites);
            q.pop_front();
            progress = true;
          }
          if (q.empty()) c.buckets.erase(it);
        }
      }
      if (term < n) break;  // run still open: more accesses may arrive
      c.done_run.store(n, std::memory_order_release);
      c.next_run = n + 1;
      c.run_entered = false;
      progress = true;
    }
    return progress;
  }

  void checker_loop_shared(checker& c) {
    shared_structure& sh = *shared;
    spin_backoff backoff;
    for (;;) {
      // Snapshot the terminator BEFORE the drain: any run it covers had
      // all accesses published before the snapshot, so this very sweep
      // captures them — completing such a run afterwards is sound.
      const std::uint64_t term = term_snapshot();
      bool killed = false;
      const std::size_t drained = drain_shared(c, /*live=*/true, &killed);
      if (killed) {
        c.dead.store(true, std::memory_order_release);
        return;
      }
      const bool stepped = process_runs_shared(c, term);
      if (drained != 0 || stepped) {
        backoff.reset();
        continue;
      }
      if (done.load(std::memory_order_acquire)) {
        const bool writer_gone = sh.dead.load(std::memory_order_acquire);
        const bool at_eof = sh.eof.load(std::memory_order_acquire);
        bool empty = true;
        for (unsigned p = 0; p < producers; ++p) {
          if (rings[p]->readable_refresh(c.index) != 0) {
            empty = false;
            break;
          }
        }
        // Exit once nothing more can arrive and nothing more can be
        // admitted; leftovers (a dead writer's tail) fall to finalize.
        if (empty &&
            (writer_gone ||
             (at_eof &&
              c.next_run > sh.applied.load(std::memory_order_acquire)))) {
          return;
        }
      }
      ++c.wait_spins;
      backoff.wait();
    }
  }

  /// Writer-side: move every structure event its head can reach into the
  /// replayer, skipping accesses and region retires.
  std::size_t drain_structure() {
    shared_structure& sh = *shared;
    std::size_t drained = 0;
    for (unsigned p = 0; p < producers; ++p) {
      drained += rings[p]->drain(
          checker_count, [&](std::uint64_t pos, const pipe_event& ev) {
            if (is_structure(ev.op)) sh.rp->enqueue(ev, pos);
          });
    }
    return drained;
  }

  /// Writer-side stand-in for dead shards: drain their heads and advance
  /// their runs so neither producers (full ring) nor the fence can wedge
  /// on a shard whose thread is gone. Safe: the dead store (release) was
  /// the checker thread's last action, and while the writer lives only it
  /// touches the shard afterwards.
  void service_dead_shards() {
    for (auto& cp : checkers) {
      checker& c = *cp;
      if (!c.dead.load(std::memory_order_acquire)) continue;
      const std::uint64_t term = term_snapshot();
      bool killed = false;
      drain_shared(c, /*live=*/false, &killed);
      process_runs_shared(c, term);
    }
  }

  /// Blocks until every shard has completed run n. Live checkers always
  /// progress (their run-n accesses are already published — the terminator
  /// is in hand); dead shards are serviced right here; the writer's own
  /// head keeps draining so producers never wedge on a fenced writer.
  void fence_checkers(std::uint64_t n) {
    shared_structure& sh = *shared;
    spin_backoff backoff;
    for (;;) {
      bool all = true;
      for (auto& cp : checkers) {
        checker& c = *cp;
        if (c.done_run.load(std::memory_order_acquire) >= n) continue;
        if (c.dead.load(std::memory_order_acquire)) {
          const std::uint64_t term = term_snapshot();
          bool killed = false;
          drain_shared(c, /*live=*/false, &killed);
          process_runs_shared(c, term);
          if (c.done_run.load(std::memory_order_relaxed) >= n) continue;
        }
        all = false;
      }
      if (all) return;
      drain_structure();
      ++sh.fence_spins;
      backoff.wait();
    }
  }

  /// Applies the next admissible structure event to the shared graph and
  /// publishes the new admitted position: run-table entry first, then the
  /// release store checkers acquire. Callers have already fenced, so no
  /// checker can be mid-query while the graph (or an epoch compaction)
  /// mutates.
  void apply_one_structure() {
    shared_structure& sh = *shared;
    const pipe_event* next = sh.rp->peek();
    FUTRACE_DCHECK(next != nullptr);
    const task_id src = next->task;
    const bool ok = sh.rp->step();
    FUTRACE_DCHECK(ok);
    (void)ok;
    ++sh.applied_count[src];
    run_label e;
    e.pid = sh.rp->current_source();
    e.k = e.pid == k_invalid_task ? k_invalid_seq : sh.applied_count[e.pid];
    e.dense = sh.rp->current_dense();
    e.step = sh.owner->current_step();
    {
      std::lock_guard<std::mutex> lock(sh.run_mutex);
      sh.runs.push_back(e);
    }
    ++pstats.structure_events;
    sh.applied.fetch_add(1, std::memory_order_release);
  }

  /// The structure thread: lockstep single-writer loop. Holding the next
  /// admissible event e_{n+1} proves every run-n access is published, so:
  /// publish terminator(n), fence all shards past run n, then apply
  /// e_{n+1} into the quiescent graph and admit run n+1.
  void writer_loop() {
    shared_structure& sh = *shared;
    spin_backoff backoff;
    for (;;) {
      const std::size_t drained = drain_structure();
      if (sh.rp->has_admissible()) {
        const std::uint64_t n = sh.applied.load(std::memory_order_relaxed);
        sh.terminator.store(n, std::memory_order_release);
        fence_checkers(n);
        if (inject::pipe_structure_site()) [[unlikely]] {
          sh.dead.store(true, std::memory_order_release);
          return;
        }
        apply_one_structure();
        backoff.reset();
        continue;
      }
      if (drained != 0) {
        backoff.reset();
        continue;
      }
      if (done.load(std::memory_order_acquire)) {
        // Re-check after observing done (same race as the checker loop).
        if (drain_structure() != 0 || sh.rp->has_admissible()) continue;
        const std::uint64_t n = sh.applied.load(std::memory_order_relaxed);
        sh.terminator.store(n, std::memory_order_release);
        sh.eof.store(true, std::memory_order_release);
        fence_checkers(n);
        return;
      }
      service_dead_shards();
      backoff.wait();
    }
  }

  // -- finalize & merge -------------------------------------------------------

  void fold_producer_stats() {
    for (auto& psp : pstates) {
      stats.events += psp->events;
      stats.access_events += psp->access_events;
      stats.split_subevents += psp->split_subevents;
      stats.backpressure_waits += psp->backpressure_waits;
      stats.occupancy_samples += psp->occupancy_samples;
      stats.occupancy_sum += psp->occupancy_sum;
      pstats.spilled_events += psp->spilled;
    }
  }

  /// Hands consumer `c`'s unread events from producer p to `take`, in
  /// stream order: its spill (the oldest events, moved there only when
  /// the ring would have overwritten them), then what is left of it in
  /// the ring, skipping what c does not read. Main thread, after every
  /// producer and consumer has stopped.
  template <typename Take>
  void take_over(unsigned p, unsigned c, Take&& take) {
    std::vector<queued_event>& sp = pstates[p]->spill[c];
    for (const queued_event& q : sp) take(q.ev, q.pos);
    std::vector<queued_event>().swap(sp);
    if (buffer_mode) return;
    rings[p]->drain(c, [&](std::uint64_t pos, const pipe_event& ev) {
      if (reads(c, ev)) take(ev, pos);
    });
  }

  void finalize() {
    if (finalized) return;
    finalized = true;
    if (!begun) return;  // constructed but never attached to a run
    // No producer emits a task_end for the root (the stream ends with
    // program_done); close the root's lane slice so the exported timeline
    // balances, mirroring the serial runtime's on_task_end(root).
    if (obs::trace_enabled() && root_pid != k_invalid_task) [[unlikely]] {
      obs::trace_emit(obs::trace_kind::task_end, obs::trace_track::task,
                      root_pid);
    }
    // The engine joins its workers before program_done (parallel_sink
    // contract), so the main thread may act for every producer now:
    // publish whatever is still staged, then close the stream.
    for (auto& ring : rings) ring->flush();
    done.store(true, std::memory_order_release);
    if (shared) {
      finalize_shared();
      return;
    }
    for (auto& cp : checkers) {
      if (cp->thread.joinable()) cp->thread.join();
    }
    for (auto& cp : checkers) {
      checker& c = *cp;
      // Inline takeover of whatever the checker did not apply. Per
      // producer the spill precedes the ring remainder in stream order, so
      // the per-pid order the replay depends on survives.
      std::uint64_t taken = 0;
      for (unsigned p = 0; p < producers; ++p) {
        take_over(p, c.index, [&](const pipe_event& ev, std::uint64_t pos) {
          c.rp->offer(ev, pos);
          ++taken;
        });
      }
      while (c.rp->step()) {
      }
      c.rp->unwind_eof();
      pstats.takeover_events += taken;
      stats.inline_fallbacks += taken;
      if (c.dead.load(std::memory_order_relaxed) && c.thread_started) {
        ++stats.workers_died;
        obs::trace_emit(obs::trace_kind::worker_death,
                        obs::trace_track::checker, c.index);
        obs::trace_emit(obs::trace_kind::takeover, obs::trace_track::checker,
                        c.index, taken);
      }
      stats.checker_wait_spins += c.wait_spins;
      pstats.infeasible_gets += c.rp->infeasible_gets();
      pstats.dropped_events += c.rp->dropped();
    }
    fold_producer_stats();
    merge();
  }

  /// Shared-mode finalize: join everything, then run the same lockstep
  /// protocol single-threaded over whatever is left — a dead writer's
  /// unapplied tail, dead shards' unread events, every spill — one thread
  /// playing all the roles. Bit-identical by the same argument as the
  /// live path.
  void finalize_shared() {
    shared_structure& sh = *shared;
    for (auto& cp : checkers) {
      if (cp->thread.joinable()) cp->thread.join();
    }
    if (sh.thread.joinable()) sh.thread.join();

    // Structure the writer did not read, then each checker's unread
    // events into its buckets; a takeover counts what the consumer would
    // have applied.
    std::uint64_t taken = 0;
    for (unsigned p = 0; p < producers; ++p) {
      take_over(p, checker_count, [&](const pipe_event& ev, std::uint64_t pos) {
        sh.rp->enqueue(ev, pos);
        ++taken;
      });
    }
    for (auto& cp : checkers) {
      checker& c = *cp;
      for (unsigned p = 0; p < producers; ++p) {
        take_over(p, c.index, [&](const pipe_event& ev, std::uint64_t) {
          take_shared(c, ev, /*live=*/false);
          if (applies(c.index, ev)) ++taken;
        });
      }
    }
    // Replay: everything is on this thread now, so "terminator in hand"
    // is simply "the next event is admissible" — finish every admitted
    // run, then admit one more.
    while (sh.rp->has_admissible()) {
      const std::uint64_t admitted =
          sh.applied.load(std::memory_order_relaxed);
      for (auto& cp : checkers) process_runs_shared(*cp, admitted);
      apply_one_structure();
    }
    sh.terminator.store(sh.applied.load(std::memory_order_relaxed),
                        std::memory_order_release);
    sh.eof.store(true, std::memory_order_release);
    for (auto& cp : checkers) {
      process_runs_shared(*cp, sh.applied.load(std::memory_order_relaxed));
    }
    sh.rp->unwind_eof();

    for (auto& cp : checkers) {
      checker& c = *cp;
      // Anything still bucketed had no admissible run: its serial position
      // lies beyond structure that never arrived (program error).
      for (const auto& [pid, q] : c.buckets) {
        pstats.dropped_events += q.size();
      }
      c.buckets.clear();
      if (c.dead.load(std::memory_order_relaxed) && c.thread_started) {
        ++stats.workers_died;
      }
      stats.checker_wait_spins += c.wait_spins;
      stats.structure_admit_lag_max =
          std::max(stats.structure_admit_lag_max, c.admit_lag_max);
    }
    if (sh.dead.load(std::memory_order_relaxed) && sh.thread_started) {
      pstats.structure_writer_died = 1;
    }
    pstats.takeover_events += taken;
    stats.inline_fallbacks += taken;
    stats.checker_wait_spins += sh.fence_spins;
    stats.shared_graph_bytes = sh.owner->structure_bytes();
    pstats.infeasible_gets += sh.rp->infeasible_gets();
    pstats.dropped_events += sh.rp->dropped();
    fold_producer_stats();
    merge();
  }

  void merge() {
    detector_counters c;
    // Structural counters come from the one structure pass: the shared
    // owner, or (replicated, where every replica replays the same
    // structure) checker 0's.
    std::vector<detector_counters> per_checker;
    per_checker.reserve(checkers.size());
    for (auto& cp : checkers) {
      per_checker.push_back(cp->final_ready ? cp->final_counters
                                            : cp->det->counters());
    }
    const detector_counters c0 =
        shared ? shared->owner->counters() : per_checker[0];
    c.tasks = c0.tasks;
    c.async_tasks = c0.async_tasks;
    c.future_tasks = c0.future_tasks;
    c.continuation_tasks = c0.continuation_tasks;
    c.promise_puts = c0.promise_puts;
    c.get_operations = c0.get_operations;
    c.non_tree_joins = c0.non_tree_joins;
    c.epoch_resets = c0.epoch_resets;
    if (shared) {
      // The owner's graph answers every checker's query and owns the memo,
      // so its memo hits are the run's. Its own query count would double
      // the checkers' access-time counts summed below, which alone
      // reproduce the serial total.
      c.memo_hits = c0.memo_hits;
      c.degraded = c0.degraded;
      c.degradation_reasons = c0.degradation_reasons;
    }
    // Address-routed state is disjoint across shards: sums and maxima are
    // exact. avg_readers merges through the raw sample sum.
    std::uint64_t reader_samples = 0;
    for (std::size_t w = 0; w < checkers.size(); ++w) {
      const detector_counters& ci = per_checker[w];
      const auto& cp = checkers[w];
      c.shared_mem_accesses += ci.shared_mem_accesses;
      c.reads += ci.reads;
      c.writes += ci.writes;
      c.locations += ci.locations;
      c.races_observed += ci.races_observed;
      c.untracked_accesses += ci.untracked_accesses;
      c.max_readers = std::max(c.max_readers, ci.max_readers);
      c.degraded = c.degraded || ci.degraded;
      c.degradation_reasons |= ci.degradation_reasons;
      c.suppressed_races += ci.suppressed_races;
      c.errors_throttled += ci.errors_throttled;
      c.reports_capped += ci.reports_capped;
      reader_samples += cp->det->reader_samples();
      c.direct_hits += ci.direct_hits;
      c.hashed_hits += ci.hashed_hits;
      c.memo_hits += ci.memo_hits;
      c.stamp_hits += ci.stamp_hits;
      c.precede_queries += ci.precede_queries;
      c.range_events += ci.range_events;
      c.range_hits += ci.range_hits;
      c.summary_hits += ci.summary_hits;
    }
    c.avg_readers = c.shared_mem_accesses == 0
                        ? 0.0
                        : static_cast<double>(reader_samples) /
                              static_cast<double>(c.shared_mem_accesses);

    merged_racy.clear();
    for (auto& cp : checkers) {
      const std::vector<const void*> r = cp->det->racy_locations();
      merged_racy.insert(merged_racy.end(), r.begin(), r.end());
    }
    std::sort(merged_racy.begin(), merged_racy.end());
    merged_racy.erase(std::unique(merged_racy.begin(), merged_racy.end()),
                      merged_racy.end());
    c.racy_locations = merged_racy.size();

    // Each address is owned by exactly one shard, so there are no
    // cross-shard duplicates to fold.
    const std::size_t total = merge_reports();
    c.reports_capped += total - merged_reports.size();

    merged_suppression.clear();
    for (auto& cp : checkers) {
      const std::vector<std::uint64_t>& hits = cp->det->suppression_hits();
      if (merged_suppression.size() < hits.size()) {
        merged_suppression.resize(hits.size(), 0);
      }
      for (std::size_t i = 0; i < hits.size(); ++i) {
        merged_suppression[i] += hits[i];
      }
    }

    if (stats.workers_died != 0 || pstats.structure_writer_died != 0) {
      // Reasons bit only, like a checker death: verdicts stayed exact (the
      // finalize replay kept full fidelity), so degraded() itself — which
      // serial comparison gates on — is untouched.
      c.degradation_reasons |= k_degraded_worker_death;
    }
    merged_degraded = c.degraded;
    merged_counters = c;
  }

  /// Fills merged_reports, capped at max_reports; returns the uncapped
  /// total. Replicated: by serial position (report_tag, then local index),
  /// which reproduces the inline report sequence and its truncation. Each
  /// replica caps at max_reports, which suffices: a report among the global
  /// first N has fewer than N predecessors in its own shard too. Shared
  /// mode applies accesses outside any replayer, so it has no serial
  /// position and merges by canonical identity instead.
  std::size_t merge_reports() {
    merged_reports.clear();
    if (shared) {
      for (auto& cp : checkers) {
        const std::vector<race_report>& reps = cp->det->reports();
        merged_reports.insert(merged_reports.end(), reps.begin(), reps.end());
      }
      sort_reports_canonical(merged_reports);
      const std::size_t total = merged_reports.size();
      if (total > opts.max_reports) merged_reports.resize(opts.max_reports);
      return total;
    }
    struct entry {
      report_tag tag;
      std::uint32_t idx;
      const race_report* report;
    };
    std::vector<entry> all;
    for (auto& cp : checkers) {
      const std::vector<race_report>& reps = cp->det->reports();
      const std::vector<report_tag>& tags = cp->rp->tags();
      FUTRACE_DCHECK(tags.size() == reps.size());
      for (std::size_t i = 0; i < reps.size(); ++i) {
        all.push_back(entry{tags[i], static_cast<std::uint32_t>(i), &reps[i]});
      }
    }
    std::sort(all.begin(), all.end(), [](const entry& x, const entry& y) {
      return std::tie(x.tag.structure, x.tag.pos, x.idx) <
             std::tie(y.tag.structure, y.tag.pos, y.idx);
    });
    const std::size_t keep = std::min(all.size(), opts.max_reports);
    merged_reports.reserve(keep);
    for (std::size_t i = 0; i < keep; ++i) {
      merged_reports.push_back(*all[i].report);
    }
    return all.size();
  }
};

parallel_detector::parallel_detector(race_detector::options opts)
    : parallel_detector(opts, tuning{}) {}

parallel_detector::parallel_detector(race_detector::options opts, tuning tune)
    : impl_(std::make_unique<impl>()) {
  // fail_fast is meaningless here: there is no serial execution thread to
  // throw at the faulting access (detection trails execution), so it is
  // forced off and races are collected instead.
  opts.fail_fast = false;
  impl_->opts = opts;
  impl_->tune = tune;
  // The trace session is owned here, not by any inner detector (they all
  // clear trace_path and run muted): producers emit the execution lanes,
  // exactly one per runtime event.
  if (!opts.trace_path.empty()) {
    impl_->trace = std::make_unique<obs::trace_session>(opts.trace_path);
  }
}

parallel_detector::parallel_detector(parallel_detector&&) noexcept = default;
parallel_detector& parallel_detector::operator=(parallel_detector&&) noexcept =
    default;

parallel_detector::~parallel_detector() {
  // Join checker threads even when results were never queried (impl_ is
  // null only in the moved-from shell).
  if (impl_) impl_->finalize();
}

void parallel_detector::begin(unsigned workers) {
  impl& im = *impl_;
  FUTRACE_CHECK_MSG(!im.begun, "parallel_detector attached to a second run");
  FUTRACE_CHECK_MSG(workers > 0, "parallel_detector: no engine workers");
  im.begun = true;
  im.producers = workers;
  im.checker_count =
      im.tune.checkers == 0 ? workers : im.tune.checkers;
  im.shard_pow2 = (im.checker_count & (im.checker_count - 1)) == 0;
  im.shard_mask = im.checker_count - 1;

  const bool shared_mode = im.tune.structure == structure_mode::shared;
  im.consumer_count = im.checker_count + (shared_mode ? 1 : 0);

  std::size_t cap = 2;
  while (cap < im.tune.ring_capacity) cap <<= 1;
  if (support::alloc_should_fail(cap * sizeof(pipe_event) * im.producers)) {
    // Ring allocation refused: buffer mode. Every event spills producer-side
    // and the whole replay runs at finalize — full fidelity, no overlap.
    im.buffer_mode = true;
    ++im.stats.inline_fallbacks;
  }
  im.stats.workers = im.checker_count;
  im.stats.ring_capacity = im.buffer_mode ? 0 : cap;
  im.pstats.exec_workers = im.producers;
  im.pstats.checkers = im.checker_count;

  im.pstates.reserve(im.producers);
  for (unsigned p = 0; p < im.producers; ++p) {
    auto ps = std::make_unique<impl::producer_state>();
    ps->span_shadow.set_direct_mapped(false);
    ps->spill.resize(im.consumer_count);
    im.pstates.push_back(std::move(ps));
  }

  if (shared_mode) {
    im.shared = std::make_unique<impl::shared_structure>();
    race_detector::options owner_opts = im.opts;
    owner_opts.detect_threads = 0;
    owner_opts.fail_fast = false;
    owner_opts.trace_path.clear();
    im.shared->owner = std::make_unique<race_detector>(owner_opts);
    im.shared->owner->set_trace_muted(true);
    im.shared->rp =
        std::make_unique<dfs_replayer>(im.shared->owner.get(), &im.sites);
  }

  im.checkers.reserve(im.checker_count);
  for (unsigned w = 0; w < im.checker_count; ++w) {
    auto c = std::make_unique<impl::checker>();
    c->index = w;
    race_detector::options inner = im.opts;
    inner.detect_threads = 0;
    inner.fail_fast = false;
    inner.trace_path.clear();
    c->det = std::make_unique<race_detector>(inner);
    c->det->set_assume_canonical(true);
    // Replicas each replay the full structure stream; without muting, every
    // runtime event would appear W times in any ambient timeline.
    c->det->set_trace_muted(true);
    if (im.checker_count > 1) {
      c->det->configure_shard(im.tune.chunk_shift, w, im.checker_count);
    }
    if (shared_mode) {
      // No private replayer, no private graph use: structure resolves
      // against the owner, read-only.
      c->det->attach_shared_structure(im.shared->owner.get(),
                                      &im.shared->query_mutex);
    } else {
      c->rp = std::make_unique<dfs_replayer>(c->det.get(), &im.sites);
    }
    im.checkers.push_back(std::move(c));
  }
  if (im.buffer_mode) {
    for (auto& cp : im.checkers) {
      cp->dead.store(true, std::memory_order_relaxed);
    }
    // Everything spills; finalize replays single-threaded in both modes.
    if (im.shared) im.shared->dead.store(true, std::memory_order_relaxed);
    return;
  }
  // Every ring exists before any consumer starts reading.
  im.rings.reserve(im.producers);
  for (unsigned p = 0; p < im.producers; ++p) {
    im.rings.push_back(std::make_unique<event_ring>(cap, im.consumer_count));
  }
  for (auto& cp : im.checkers) {
    impl::checker& c = *cp;
    try {
      // Capture the impl, not `this`: the detector shell may be moved
      // while checkers run; the impl's address is stable.
      c.thread.start([im_ptr = &im, &c] {
        try {
          if (im_ptr->shared) {
            im_ptr->checker_loop_shared(c);
          } else {
            im_ptr->checker_loop(c);
          }
        } catch (...) {
          // Unexpected checker failure behaves like a kill: the shard goes
          // dead, its unread events wait for the finalize takeover.
          c.dead.store(true, std::memory_order_release);
        }
      });
      c.thread_started = true;
    } catch (...) {
      // The pool could not create a thread: dead from the start, counted
      // like a death.
      c.dead.store(true, std::memory_order_relaxed);
      c.thread_started = true;
    }
  }
  if (im.shared) {
    impl::shared_structure& sh = *im.shared;
    try {
      sh.thread.start([im_ptr = &im] {
        try {
          im_ptr->writer_loop();
        } catch (...) {
          // An escaped exception (e.g. an injected epoch-reset fault mid-
          // apply) behaves like a writer kill: producers take over its
          // heads, finalize replays single-threaded.
          im_ptr->shared->dead.store(true, std::memory_order_release);
        }
      });
      sh.thread_started = true;
    } catch (...) {
      sh.dead.store(true, std::memory_order_relaxed);
      sh.thread_started = true;
    }
  }
}

void parallel_detector::emit_program_start(unsigned worker, task_id root) {
  impl_->emit_struct(worker, pipe_op::program_start, root, 0, 0);
}

void parallel_detector::emit_spawn(unsigned worker, task_id parent,
                                   task_id child, task_kind kind) {
  impl_->emit_struct(worker, pipe_op::spawn, parent, child,
                     static_cast<std::uint64_t>(kind));
}

void parallel_detector::emit_task_end(unsigned worker, task_id t) {
  impl_->emit_struct(worker, pipe_op::task_end, t, 0, 0);
}

void parallel_detector::emit_finish_begin(unsigned worker, task_id owner) {
  impl_->emit_struct(worker, pipe_op::finish_begin, owner, 0, 0);
}

void parallel_detector::emit_finish_end(unsigned worker, task_id owner) {
  impl_->emit_struct(worker, pipe_op::finish_end, owner, 0, 0);
}

void parallel_detector::emit_get(unsigned worker, task_id waiter,
                                 task_id producer, std::uint64_t put_ref) {
  impl_->emit_struct(worker, pipe_op::get, waiter, producer, put_ref);
}

void parallel_detector::emit_put(unsigned worker, task_id fulfiller,
                                 std::uint64_t put_ref) {
  impl_->emit_struct(worker, pipe_op::put, fulfiller, put_ref, 0);
}

void parallel_detector::emit_read(unsigned worker, task_id t, const void* addr,
                                  std::size_t size, access_site site) {
  impl_->emit_access(worker, false, t, addr, size, site);
}

void parallel_detector::emit_write(unsigned worker, task_id t,
                                   const void* addr, std::size_t size,
                                   access_site site) {
  impl_->emit_access(worker, true, t, addr, size, site);
}

void parallel_detector::emit_read_range(unsigned worker, task_id t,
                                        const void* addr, std::size_t count,
                                        std::size_t stride, access_site site) {
  impl_->emit_range(worker, false, t, addr, count, stride, site);
}

void parallel_detector::emit_write_range(unsigned worker, task_id t,
                                         const void* addr, std::size_t count,
                                         std::size_t stride, access_site site) {
  impl_->emit_range(worker, true, t, addr, count, stride, site);
}

void parallel_detector::emit_region_retire(unsigned worker, task_id t,
                                           const void* addr,
                                           std::size_t bytes) {
  impl_->emit_region_retire(worker, t, addr, bytes);
}

void parallel_detector::program_done() { impl_->finalize(); }

bool parallel_detector::race_detected() const {
  impl_->finalize();
  return impl_->merged_counters.races_observed > 0;
}

std::uint64_t parallel_detector::race_count() const {
  impl_->finalize();
  return impl_->merged_counters.races_observed;
}

bool parallel_detector::degraded() const {
  impl_->finalize();
  return impl_->merged_degraded;
}

const std::vector<race_report>& parallel_detector::reports() const {
  impl_->finalize();
  return impl_->merged_reports;
}

std::vector<const void*> parallel_detector::racy_locations() const {
  impl_->finalize();
  return impl_->merged_racy;
}

detector_counters parallel_detector::counters() const {
  impl_->finalize();
  return impl_->merged_counters;
}

std::size_t parallel_detector::memory_bytes() const {
  impl_->finalize();
  // Walks every replica's shadow cells, so it is computed on demand rather
  // than inside finalize (which time-to-verdict includes). Attached shared-
  // mode checkers report zero structure bytes; the owner's graph counts
  // exactly once.
  std::size_t bytes = 0;
  for (const auto& cp : impl_->checkers) bytes += cp->det->memory_bytes();
  if (impl_->shared) bytes += impl_->shared->owner->memory_bytes();
  return bytes;
}

std::size_t parallel_detector::structure_bytes() const {
  impl_->finalize();
  if (impl_->shared) return impl_->shared->owner->structure_bytes();
  std::size_t total = 0;
  for (const auto& cp : impl_->checkers) {
    total += cp->det->structure_bytes();
  }
  return total;
}

const pipeline_stats& parallel_detector::pipe_stats() const {
  impl_->finalize();
  return impl_->stats;
}

const parallel_pipeline_stats& parallel_detector::par_stats() const {
  impl_->finalize();
  return impl_->pstats;
}

std::vector<std::uint64_t> parallel_detector::suppression_hits() const {
  impl_->finalize();
  return impl_->merged_suppression;
}

bool parallel_detector::parallel_active() const { return impl_->begun; }

}  // namespace futrace::detect
