#include "futrace/detect/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <thread>

#include "futrace/detect/event_ring.hpp"
#include "futrace/inject/fault_injector.hpp"
#include "futrace/inject/hooks.hpp"
#include "futrace/obs/trace.hpp"
#include "futrace/support/alloc_gate.hpp"
#include "futrace/support/assert.hpp"

namespace futrace::detect {

namespace {

inline void spin_pause() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

/// Bounded busy-wait: pause for a short burst, then hand the core to the
/// scheduler. When fewer cores are free than there are pipeline threads
/// (worst case: one core total), the thread being waited on cannot run
/// until the waiter yields — pausing forever would burn whole scheduler
/// quanta on either side of the ring.
struct spin_backoff {
  unsigned spins = 0;
  void wait() noexcept {
    if (++spins < 64) {
      spin_pause();
    } else {
      std::this_thread::yield();
    }
  }
  void reset() noexcept { spins = 0; }
};

/// Provenance of one worker-local race report: the serial event (and
/// sub-event, for split ranges) that produced it. Reports tagged this way
/// merge across shards back into the exact inline report order.
struct report_tag {
  std::uint64_t seq = 0;
  std::uint32_t sub = 0;
};

}  // namespace

struct pipelined_detector::impl {
  struct worker {
    std::unique_ptr<race_detector> det;
    std::unique_ptr<event_ring> ring;
    std::thread thread;
    /// Set (release) by the worker when a kill fault makes it exit without
    /// draining; the producer polls it (acquire) and takes the shard over.
    std::atomic<bool> dead{false};
    /// Producer-side: events for this shard are applied inline from now on
    /// (worker died or its thread never started). Sticky.
    bool inline_mode = false;
    std::uint32_t index = 0;       // shard index (checker-track id in traces)
    std::vector<report_tag> tags;  // tags[i] belongs to det->reports()[i]
    std::vector<task_id> scratch;  // finish_end joined-list reassembly
  };

  race_detector::options opts;
  tuning tune;
  bool use_pipeline = false;
  bool finalized = false;

  std::unique_ptr<race_detector> inline_det;  // inline mode only

  std::vector<std::unique_ptr<worker>> workers;
  std::atomic<bool> done{false};

  /// Producer-side canonicalization: span_of against the live element
  /// geometry, with the slab tier off (this instance stores no cells).
  shadow_memory span_shadow;
  std::uint64_t seq = 0;
  std::uint64_t pushes = 0;
  bool shard_pow2 = false;
  std::size_t shard_mask = 0;
  pipeline_stats stats;

  // Valid after finalize().
  detector_counters merged_counters;
  std::vector<race_report> merged_reports;
  std::vector<const void*> merged_racy;
  bool merged_degraded = false;

  /// Pipelined-mode trace sink (inline mode hands trace_path to the inner
  /// detector instead). Workers are trace-muted — the producer emits the
  /// single authoritative runtime-event stream — but their race and slab
  /// instants stay live, which is safe because address sharding makes each
  /// of those unique to one worker.
  std::unique_ptr<obs::trace_session> trace;

  // -- shared event application (worker thread / producer takeover) ----------

  static void tag_new_reports(worker& w, std::uint64_t seq_no,
                              std::uint32_t sub) {
    while (w.tags.size() < w.det->reports().size()) {
      w.tags.push_back(report_tag{seq_no, sub});
    }
  }

  static void dispatch(worker& w, const pipe_event& ev,
                       std::span<const task_id> joined) {
    race_detector& det = *w.det;
    switch (ev.op) {
      case pipe_op::program_start:
        det.on_program_start(ev.task);
        break;
      case pipe_op::spawn:
        det.on_task_spawn(ev.task, static_cast<task_id>(ev.a),
                          static_cast<task_kind>(ev.b));
        break;
      case pipe_op::task_end:
        det.on_task_end(ev.task);
        break;
      case pipe_op::finish_end:
        det.on_finish_end(ev.task, joined);
        break;
      case pipe_op::get:
        det.on_get(ev.task, static_cast<task_id>(ev.a));
        break;
      case pipe_op::put:
        det.on_promise_put(ev.task);
        break;
      case pipe_op::read:
        // `stride` is unused by scalar accesses, so it carries the address
        // the program actually touched (== a unless span_of canonicalized
        // a sub-element access) for report provenance.
        det.on_canonical_read(ev.task, reinterpret_cast<const void*>(ev.a),
                              reinterpret_cast<const void*>(ev.stride),
                              access_site{ev.file, ev.line});
        break;
      case pipe_op::write:
        det.on_canonical_write(ev.task, reinterpret_cast<const void*>(ev.a),
                               reinterpret_cast<const void*>(ev.stride),
                               access_site{ev.file, ev.line});
        break;
      case pipe_op::read_range:
        det.on_read_range(ev.task, reinterpret_cast<const void*>(ev.a),
                          static_cast<std::size_t>(ev.b), ev.stride,
                          access_site{ev.file, ev.line});
        break;
      case pipe_op::write_range:
        det.on_write_range(ev.task, reinterpret_cast<const void*>(ev.a),
                           static_cast<std::size_t>(ev.b), ev.stride,
                           access_site{ev.file, ev.line});
        break;
      case pipe_op::region_retire:
        // Broadcast like a graph event (the range may span shard owners);
        // this worker's detector retires only the cells its shard holds.
        det.on_region_retire(ev.task, reinterpret_cast<const void*>(ev.a),
                             static_cast<std::size_t>(ev.b));
        break;
      case pipe_op::finish_begin:
        // Parallel-wire vocabulary; the serial producer never sends it
        // (on_finish_start carries no detector state).
        break;
    }
    tag_new_reports(w, ev.seq, ev.sub);
  }

  /// Applies the event whose header is the `base`-th readable slot
  /// (continuations follow contiguously in ring order). Returns the slots
  /// the event occupied. Caller guarantees they are all readable.
  static std::size_t apply_at(worker& w, std::size_t base) {
    const pipe_event header = w.ring->consume_slot(base);
    const std::size_t need = event_slots(header);
    if (header.op == pipe_op::finish_end) {
      w.scratch.clear();
      for (std::size_t k = 1; k < need; ++k) {
        const pipe_cont_view v =
            std::bit_cast<pipe_cont_view>(w.ring->consume_slot(base + k));
        for (std::uint32_t i = 0; i < v.used; ++i) {
          w.scratch.push_back(v.ids[i]);
        }
      }
      dispatch(w, header, std::span<const task_id>(w.scratch));
    } else {
      dispatch(w, header, {});
    }
    return need;
  }

  // -- checker worker thread --------------------------------------------------

  /// A finish event wider than the whole ring: pop the header, then collect
  /// continuation slots one at a time as the producer streams them. No
  /// fault hook fires here — a kill mid-collection would strand the
  /// producer's takeover drain on headerless continuation slots.
  static void consume_oversize(worker& w) {
    event_ring& ring = *w.ring;
    const pipe_event header = ring.consume_slot(0);
    ring.pop(1);
    const std::size_t conts = event_slots(header) - 1;
    w.scratch.clear();
    for (std::size_t k = 0; k < conts; ++k) {
      spin_backoff backoff;
      while (ring.readable_refresh() == 0) backoff.wait();
      const pipe_cont_view v =
          std::bit_cast<pipe_cont_view>(ring.consume_slot(0));
      ring.pop(1);
      for (std::uint32_t i = 0; i < v.used; ++i) {
        w.scratch.push_back(v.ids[i]);
      }
    }
    dispatch(w, header, std::span<const task_id>(w.scratch));
  }

  void worker_loop(worker& w) {
    event_ring& ring = *w.ring;
    spin_backoff backoff;
    for (;;) {
      const std::size_t n = ring.readable_refresh();
      if (n == 0) {
        if (done.load(std::memory_order_acquire)) {
          if (ring.readable_refresh() == 0) return;
          continue;
        }
        backoff.wait();
        continue;
      }
      backoff.reset();
      std::size_t consumed = 0;
      while (consumed < n) {
        const pipe_event& header = ring.consume_slot(consumed);
        const std::size_t need = event_slots(header);
        if (consumed + need > n) break;  // tail event not fully published yet
        const int action = inject::pipe_worker_site();
        if (action == inject::pipe_kill) [[unlikely]] {
          // Exit without draining: already-applied events retire, the
          // current one stays in the ring for the producer's takeover.
          if (consumed != 0) ring.pop(consumed);
          w.dead.store(true, std::memory_order_release);
          return;
        }
        if (action == inject::pipe_stall) [[unlikely]] {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        consumed += apply_at(w, consumed);
      }
      if (consumed != 0) {
        ring.pop(consumed);
      } else {
        // First readable event is incomplete. If it can never fit the ring
        // at once, stream it; otherwise wait for the rest of its slots.
        if (event_slots(ring.consume_slot(0)) > ring.capacity()) {
          consume_oversize(w);
        } else {
          backoff.wait();
        }
      }
    }
  }

  // -- producer side ----------------------------------------------------------

  std::size_t owner_of(std::uintptr_t addr) const noexcept {
    const std::uintptr_t chunk = addr >> tune.chunk_shift;
    return shard_pow2 ? static_cast<std::size_t>(chunk) & shard_mask
                      : static_cast<std::size_t>(chunk % workers.size());
  }

  /// Spins until `need` slots are free. False means the worker died and the
  /// caller must take the event inline.
  bool wait_slots(worker& w, std::size_t need) {
    ++pushes;
    if ((pushes & 63) == 0) {
      stats.occupancy_sum += w.ring->size_approx();
      ++stats.occupancy_samples;
    }
    if (const std::uint32_t forced = inject::pipe_ring_full_site())
        [[unlikely]] {
      for (std::uint32_t i = 0; i < forced; ++i) {
        ++stats.backpressure_waits;
        spin_pause();
      }
    }
    if (w.dead.load(std::memory_order_acquire)) return false;
    if (w.ring->free_slots() >= need) [[likely]] return true;
    // The worker can only free slots it can see.
    w.ring->flush();
    // One instant per backpressure episode (not per spin) on the stalled
    // worker's checker track.
    obs::trace_emit(obs::trace_kind::ring_stall, obs::trace_track::checker,
                    w.index, need);
    // Spin with the always-refresh variant: the lazy free_slots() cache only
    // refreshes on a completely-full view, so waiting on it for a
    // multi-slot event whose need exceeds a stale nonzero view would never
    // observe the consumer's progress.
    spin_backoff backoff;
    while (w.ring->free_slots_refresh() < need) {
      ++stats.backpressure_waits;
      backoff.wait();
      if (w.dead.load(std::memory_order_acquire)) return false;
    }
    return true;
  }

  /// The k-th continuation slot (k >= 1) of a finish event's joined list.
  static pipe_event continuation(std::span<const task_id> joined,
                                 std::size_t k) {
    pipe_cont_view v;
    const std::size_t off = (k - 1) * pipe_cont_view::k_ids;
    v.used = static_cast<std::uint32_t>(
        std::min(pipe_cont_view::k_ids, joined.size() - off));
    for (std::uint32_t i = 0; i < v.used; ++i) v.ids[i] = joined[off + i];
    return std::bit_cast<pipe_event>(v);
  }

  /// Stages one event into `w`'s ring, backpressuring on a full ring. An
  /// event that fits the ring stages header + continuations together, so
  /// they publish in one release store; an oversize finish list streams
  /// incrementally. False means the worker died mid-stream: any partial
  /// tail it left is discarded by the takeover drain and the caller
  /// re-applies the event inline.
  bool stream_event(worker& w, const pipe_event& ev,
                    std::span<const task_id> joined) {
    const std::size_t need = event_slots(ev);
    event_ring& ring = *w.ring;
    if (need <= ring.capacity()) [[likely]] {
      if (!wait_slots(w, need)) return false;
      ring.produce_slot(0) = ev;
      for (std::size_t k = 1; k < need; ++k) {
        ring.produce_slot(k) = continuation(joined, k);
      }
      ring.stage(need);
      return true;
    }
    // An oversize event can never be visible whole: the worker collects it
    // while the continuations are still being written. Publish what
    // precedes it, so the worker drains up to the header meanwhile.
    ring.flush();
    for (std::size_t k = 0; k < need; ++k) {
      if (!wait_slots(w, 1)) return false;
      ring.produce_slot(0) = k == 0 ? ev : continuation(joined, k);
      ring.stage(1);
    }
    return true;
  }

  /// Joins a dead worker's thread and drains every *complete* event it left
  /// in its ring into its detector, inline on the execution thread. A
  /// partial tail (the producer died mid-stream of the in-flight event) is
  /// discarded — the caller re-applies that event itself. The shard runs
  /// inline from here on.
  void handle_death(worker& w) {
    obs::trace_emit(obs::trace_kind::worker_death, obs::trace_track::checker,
                    w.index);
    if (w.thread.joinable()) w.thread.join();
    event_ring& ring = *w.ring;
    ring.flush();
    const std::size_t n = ring.readable_refresh();
    std::size_t consumed = 0;
    std::uint64_t drained = 0;
    while (consumed < n) {
      const pipe_event& header = ring.consume_slot(consumed);
      const std::size_t need = event_slots(header);
      if (consumed + need > n) {
        consumed = n;  // partial tail: discard
        break;
      }
      apply_at(w, consumed);
      ++stats.inline_fallbacks;
      ++drained;
      consumed += need;
    }
    if (consumed != 0) ring.pop(consumed);
    w.inline_mode = true;
    ++stats.workers_died;
    obs::trace_emit(obs::trace_kind::takeover, obs::trace_track::checker,
                    w.index, drained);
  }

  void apply_inline(worker& w, const pipe_event& ev,
                    std::span<const task_id> joined) {
    dispatch(w, ev, joined);
    ++stats.inline_fallbacks;
  }

  void broadcast(const pipe_event& ev, std::span<const task_id> joined) {
    for (auto& wp : workers) {
      worker& w = *wp;
      if (w.inline_mode) {
        apply_inline(w, ev, joined);
      } else if (!stream_event(w, ev, joined)) {
        handle_death(w);
        apply_inline(w, ev, joined);
      }
    }
  }

  void route(std::size_t shard, const pipe_event& ev) {
    worker& w = *workers[shard];
    if (w.inline_mode) {
      apply_inline(w, ev, {});
    } else if (!stream_event(w, ev, {})) {
      handle_death(w);
      apply_inline(w, ev, {});
    }
  }

  void produce_graph(pipe_op op, task_id task, std::uint64_t a,
                     std::uint64_t b, std::span<const task_id> joined) {
    ++stats.events;
    // The producer is the single authoritative runtime-event stream when
    // pipelined (worker replicas are trace-muted, or W replays would each
    // duplicate it).
    if (obs::trace_enabled()) [[unlikely]] {
      switch (op) {
        case pipe_op::program_start:
          obs::trace_emit(obs::trace_kind::task_begin, obs::trace_track::task,
                          task, static_cast<std::uint64_t>(task_kind::root),
                          k_invalid_task);
          break;
        case pipe_op::spawn:
          obs::trace_emit(obs::trace_kind::task_begin, obs::trace_track::task,
                          static_cast<task_id>(a), b, task);
          break;
        case pipe_op::task_end:
          obs::trace_emit(obs::trace_kind::task_end, obs::trace_track::task,
                          task);
          break;
        case pipe_op::finish_end:
          obs::trace_emit(obs::trace_kind::finish, obs::trace_track::task,
                          task, a);
          break;
        case pipe_op::get:
          obs::trace_emit(obs::trace_kind::get, obs::trace_track::task, task,
                          a);
          break;
        case pipe_op::put:
          obs::trace_emit(obs::trace_kind::put, obs::trace_track::task, task);
          break;
        default:
          break;
      }
    }
    pipe_event ev;
    ev.op = op;
    ev.task = task;
    ev.a = a;
    ev.b = b;
    ev.seq = seq++;
    broadcast(ev, joined);
  }

  void produce_range(bool is_write, task_id t, const void* addr,
                     std::size_t count, std::size_t stride, access_site site,
                     std::uint64_t seq_no) {
    std::uintptr_t a = reinterpret_cast<std::uintptr_t>(addr);
    std::size_t remaining = count;
    std::uint32_t sub = 0;
    while (remaining > 0) {
      std::size_t k = remaining;
      if (workers.size() > 1 && stride != 0) {
        const std::uintptr_t boundary =
            next_chunk_boundary(a, tune.chunk_shift);
        // Elements owned by this chunk: those whose *base* precedes the
        // boundary (an element may straddle into the next chunk).
        k = std::min<std::size_t>(
            remaining, (boundary - a + stride - 1) / stride);
      }
      pipe_event ev;
      ev.op = is_write ? pipe_op::write_range : pipe_op::read_range;
      ev.task = t;
      ev.a = a;
      ev.b = k;
      ev.stride = stride;
      ev.file = site.file;
      ev.line = site.line;
      ev.seq = seq_no;
      ev.sub = sub;
      route(owner_of(a), ev);
      ++sub;
      a += k * stride;
      remaining -= k;
    }
    if (sub > 1) stats.split_subevents += sub - 1;
  }

  void produce_access(bool is_write, task_id t, const void* addr,
                      std::size_t size, access_site site) {
    ++stats.events;
    ++stats.access_events;
    const std::uint64_t seq_no = seq++;
    // Canonicalize on the producer (the serial thread sees the element
    // geometry at the exact serial point); workers run assume-canonical.
    const shadow_memory::access_span span = span_shadow.span_of(addr, size);
    if (span.count == 1) [[likely]] {
      pipe_event ev;
      ev.op = is_write ? pipe_op::write : pipe_op::read;
      ev.task = t;
      ev.a = reinterpret_cast<std::uintptr_t>(span.first);
      ev.b = size;
      // `stride` is dead weight for a scalar access; reuse it to carry the
      // program-touched address across the ring for report provenance.
      ev.stride = reinterpret_cast<std::uintptr_t>(addr);
      ev.file = site.file;
      ev.line = site.line;
      ev.seq = seq_no;
      route(owner_of(ev.a), ev);
      return;
    }
    produce_range(is_write, t, span.first, span.count, span.stride, site,
                  seq_no);
  }

  // -- finalize & merge -------------------------------------------------------

  void finalize() {
    if (finalized) return;
    finalized = true;
    if (!use_pipeline) return;
    // The root's timeline slice was already closed by the runtime's
    // on_task_end(root), which the producer mirrors like any other task end.
    // Workers exit on `done` once their ring reads empty, so every staged
    // slot must be visible first.
    for (auto& wp : workers) {
      if (!wp->inline_mode) wp->ring->flush();
    }
    done.store(true, std::memory_order_release);
    for (auto& wp : workers) {
      worker& w = *wp;
      if (w.inline_mode) continue;
      if (w.thread.joinable()) w.thread.join();
      if (w.dead.load(std::memory_order_relaxed)) {
        // Died after the producer's last interaction with this shard:
        // drain what it left behind. (handle_death also marks it inline,
        // which is moot now but keeps the counters honest.)
        handle_death(w);
      }
    }
    merge();
  }

  void merge() {
    detector_counters c;
    // Graph events are broadcast, so the structural counters are identical
    // in every replica; take worker 0's.
    const detector_counters c0 = workers[0]->det->counters();
    c.tasks = c0.tasks;
    c.async_tasks = c0.async_tasks;
    c.future_tasks = c0.future_tasks;
    c.continuation_tasks = c0.continuation_tasks;
    c.promise_puts = c0.promise_puts;
    c.get_operations = c0.get_operations;
    c.non_tree_joins = c0.non_tree_joins;
    // Epoch resets are driven by the broadcast graph stream, so every
    // replica compacts at the same spawns; worker 0 speaks for all.
    c.epoch_resets = c0.epoch_resets;
    // Address-routed state is disjoint across shards: sums and maxima are
    // exact. avg_readers merges through the raw sample sum, not the
    // per-shard averages.
    std::uint64_t reader_samples = 0;
    for (auto& wp : workers) {
      const detector_counters ci = wp->det->counters();
      c.shared_mem_accesses += ci.shared_mem_accesses;
      c.reads += ci.reads;
      c.writes += ci.writes;
      c.locations += ci.locations;
      c.races_observed += ci.races_observed;
      c.untracked_accesses += ci.untracked_accesses;
      c.max_readers = std::max(c.max_readers, ci.max_readers);
      c.degraded = c.degraded || ci.degraded;
      c.degradation_reasons |= ci.degradation_reasons;
      // Races are address-routed, so the service-mode tallies are disjoint
      // per shard and sum exactly. (Error limits apply per replica: a
      // shard-local per-pair count, which throttles no later than inline.)
      c.suppressed_races += ci.suppressed_races;
      c.errors_throttled += ci.errors_throttled;
      c.reports_capped += ci.reports_capped;
      reader_samples += wp->det->reader_samples();
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
    for (auto& wp : workers) {
      const std::vector<const void*> r = wp->det->racy_locations();
      merged_racy.insert(merged_racy.end(), r.begin(), r.end());
    }
    std::sort(merged_racy.begin(), merged_racy.end());
    merged_racy.erase(std::unique(merged_racy.begin(), merged_racy.end()),
                      merged_racy.end());
    c.racy_locations = merged_racy.size();
    merged_degraded = c.degraded;
    merged_counters = c;

    // Deterministic report merge: order by (serial event, sub-event, local
    // index). One event's reports come from a single worker, so the key is
    // globally unique and the merged sequence is exactly the inline one.
    // Each worker caps at max_reports, which suffices: a report among the
    // global first N has fewer than N predecessors in its own worker too.
    struct entry {
      report_tag tag;
      std::uint32_t idx;
      const race_report* report;
    };
    std::vector<entry> all;
    for (auto& wp : workers) {
      const std::vector<race_report>& reps = wp->det->reports();
      FUTRACE_DCHECK(wp->tags.size() == reps.size());
      for (std::size_t i = 0; i < reps.size(); ++i) {
        all.push_back(entry{wp->tags[i], static_cast<std::uint32_t>(i),
                            &reps[i]});
      }
    }
    std::sort(all.begin(), all.end(), [](const entry& x, const entry& y) {
      if (x.tag.seq != y.tag.seq) return x.tag.seq < y.tag.seq;
      if (x.tag.sub != y.tag.sub) return x.tag.sub < y.tag.sub;
      return x.idx < y.idx;
    });
    const std::size_t keep = std::min(all.size(), opts.max_reports);
    merged_reports.clear();
    merged_reports.reserve(keep);
    for (std::size_t i = 0; i < keep; ++i) {
      merged_reports.push_back(*all[i].report);
    }
    // Distinct pairs not shown globally: what the workers never
    // materialized, plus materialized reports the global cap cut here.
    merged_counters.reports_capped += all.size() - keep;
    if (stats.workers_died != 0) {
      merged_counters.degradation_reasons |= k_degraded_worker_death;
    }
  }
};

pipelined_detector::pipelined_detector(race_detector::options opts)
    : pipelined_detector(opts, tuning{}) {}

pipelined_detector::pipelined_detector(race_detector::options opts,
                                       tuning tune)
    : impl_(std::make_unique<impl>()) {
  impl_->opts = opts;
  impl_->tune = tune;
  const unsigned requested = opts.detect_threads;
  // fail_fast must throw at the faulting access on the execution thread, so
  // it forces inline mode regardless of detect_threads.
  bool pipelined = requested > 0 && !opts.fail_fast;
  if (pipelined) {
    std::size_t cap = 2;
    while (cap < tune.ring_capacity) cap <<= 1;
    if (support::alloc_should_fail(cap * sizeof(pipe_event) * requested)) {
      // Ring allocation refused: degrade to inline checking, sticky and
      // counted, exactly like a dead worker.
      pipelined = false;
      ++impl_->stats.inline_fallbacks;
    }
  }
  if (!pipelined) {
    race_detector::options inner = opts;
    inner.detect_threads = 0;
    impl_->inline_det = std::make_unique<race_detector>(inner);
    return;
  }
  impl_->use_pipeline = true;
  impl_->span_shadow.set_direct_mapped(false);
  impl_->shard_pow2 = (requested & (requested - 1)) == 0;
  impl_->shard_mask = requested - 1;
  impl_->stats.workers = requested;
  // Pipelined mode owns the trace session itself: workers must not each
  // install (or write) one, and the producer needs the sink live for the
  // runtime-event stream.
  if (!opts.trace_path.empty()) {
    impl_->trace = std::make_unique<obs::trace_session>(opts.trace_path);
  }
  for (unsigned i = 0; i < requested; ++i) {
    auto w = std::make_unique<impl::worker>();
    race_detector::options inner = opts;
    inner.detect_threads = 0;
    inner.fail_fast = false;
    inner.trace_path.clear();  // the pipeline owns the one session
    w->det = std::make_unique<race_detector>(inner);
    w->det->set_assume_canonical(true);
    w->det->set_trace_muted(true);
    w->index = i;
    if (requested > 1) {
      w->det->configure_shard(tune.chunk_shift, i, requested);
    }
    w->ring = std::make_unique<event_ring>(tune.ring_capacity);
    impl_->workers.push_back(std::move(w));
  }
  impl_->stats.ring_capacity = impl_->workers[0]->ring->capacity();
  impl* self = impl_.get();
  for (auto& wp : impl_->workers) {
    impl::worker* w = wp.get();
    try {
      w->thread = std::thread([self, w] { self->worker_loop(*w); });
    } catch (...) {
      // Thread creation failed: this shard checks inline from the start.
      w->inline_mode = true;
      ++impl_->stats.workers_died;
    }
  }
}

pipelined_detector::~pipelined_detector() {
  if (impl_) impl_->finalize();
}

pipelined_detector::pipelined_detector(pipelined_detector&&) noexcept =
    default;
pipelined_detector& pipelined_detector::operator=(
    pipelined_detector&& other) noexcept {
  if (this != &other) {
    if (impl_) impl_->finalize();  // join workers before dropping them
    impl_ = std::move(other.impl_);
  }
  return *this;
}

void pipelined_detector::on_program_start(task_id root) {
  if (!impl_->use_pipeline) {
    impl_->inline_det->on_program_start(root);
    return;
  }
  impl_->produce_graph(pipe_op::program_start, root, 0, 0, {});
}

void pipelined_detector::on_task_spawn(task_id parent, task_id child,
                                       task_kind kind) {
  if (!impl_->use_pipeline) {
    impl_->inline_det->on_task_spawn(parent, child, kind);
    return;
  }
  impl_->produce_graph(pipe_op::spawn, parent, child,
                       static_cast<std::uint64_t>(kind), {});
}

void pipelined_detector::on_task_end(task_id t) {
  if (!impl_->use_pipeline) {
    impl_->inline_det->on_task_end(t);
    return;
  }
  impl_->produce_graph(pipe_op::task_end, t, 0, 0, {});
}

void pipelined_detector::on_finish_end(task_id owner,
                                       std::span<const task_id> joined) {
  if (!impl_->use_pipeline) {
    impl_->inline_det->on_finish_end(owner, joined);
    return;
  }
  impl_->produce_graph(pipe_op::finish_end, owner, joined.size(), 0, joined);
}

void pipelined_detector::on_get(task_id waiter, task_id target) {
  if (!impl_->use_pipeline) {
    impl_->inline_det->on_get(waiter, target);
    return;
  }
  impl_->produce_graph(pipe_op::get, waiter, target, 0, {});
}

void pipelined_detector::on_promise_put(task_id fulfiller) {
  if (!impl_->use_pipeline) {
    impl_->inline_det->on_promise_put(fulfiller);
    return;
  }
  impl_->produce_graph(pipe_op::put, fulfiller, 0, 0, {});
}

void pipelined_detector::on_read(task_id t, const void* addr,
                                 std::size_t size, access_site site) {
  if (!impl_->use_pipeline) {
    impl_->inline_det->on_read(t, addr, size, site);
    return;
  }
  impl_->produce_access(false, t, addr, size, site);
}

void pipelined_detector::on_write(task_id t, const void* addr,
                                  std::size_t size, access_site site) {
  if (!impl_->use_pipeline) {
    impl_->inline_det->on_write(t, addr, size, site);
    return;
  }
  impl_->produce_access(true, t, addr, size, site);
}

void pipelined_detector::on_read_range(task_id t, const void* addr,
                                       std::size_t count, std::size_t stride,
                                       access_site site) {
  if (!impl_->use_pipeline) {
    impl_->inline_det->on_read_range(t, addr, count, stride, site);
    return;
  }
  if (count == 0) return;
  ++impl_->stats.events;
  ++impl_->stats.access_events;
  impl_->produce_range(false, t, addr, count, stride, site, impl_->seq++);
}

void pipelined_detector::on_write_range(task_id t, const void* addr,
                                        std::size_t count, std::size_t stride,
                                        access_site site) {
  if (!impl_->use_pipeline) {
    impl_->inline_det->on_write_range(t, addr, count, stride, site);
    return;
  }
  if (count == 0) return;
  ++impl_->stats.events;
  ++impl_->stats.access_events;
  impl_->produce_range(true, t, addr, count, stride, site, impl_->seq++);
}

void pipelined_detector::on_region_retire(task_id t, const void* addr,
                                          std::size_t bytes) {
  if (!impl_->use_pipeline) {
    impl_->inline_det->on_region_retire(t, addr, bytes);
    return;
  }
  // Rides the broadcast path: FIFO order per ring places the retire between
  // exactly the accesses it separated in the serial execution, and every
  // shard drops whatever cells of the range it owns.
  impl_->produce_graph(pipe_op::region_retire, t,
                       reinterpret_cast<std::uintptr_t>(addr), bytes, {});
}

void pipelined_detector::on_program_end() {
  if (!impl_->use_pipeline) impl_->inline_det->on_program_end();
  impl_->finalize();
}

bool pipelined_detector::race_detected() const { return race_count() > 0; }

std::uint64_t pipelined_detector::race_count() const {
  if (!impl_->use_pipeline) return impl_->inline_det->race_count();
  impl_->finalize();
  return impl_->merged_counters.races_observed;
}

bool pipelined_detector::degraded() const {
  if (!impl_->use_pipeline) return impl_->inline_det->degraded();
  impl_->finalize();
  return impl_->merged_degraded;
}

const std::vector<race_report>& pipelined_detector::reports() const {
  if (!impl_->use_pipeline) return impl_->inline_det->reports();
  impl_->finalize();
  return impl_->merged_reports;
}

std::vector<const void*> pipelined_detector::racy_locations() const {
  if (!impl_->use_pipeline) return impl_->inline_det->racy_locations();
  impl_->finalize();
  return impl_->merged_racy;
}

detector_counters pipelined_detector::counters() const {
  if (!impl_->use_pipeline) return impl_->inline_det->counters();
  impl_->finalize();
  return impl_->merged_counters;
}

std::size_t pipelined_detector::memory_bytes() const {
  if (!impl_->use_pipeline) return impl_->inline_det->memory_bytes();
  std::size_t bytes = impl_->span_shadow.memory_bytes();
  for (const auto& wp : impl_->workers) {
    bytes += wp->det->memory_bytes() +
             wp->ring->capacity() * sizeof(pipe_event);
  }
  return bytes;
}

const pipeline_stats& pipelined_detector::pipe_stats() const {
  return impl_->stats;
}

std::vector<std::uint64_t> pipelined_detector::suppression_hits() const {
  if (!impl_->use_pipeline) return impl_->inline_det->suppression_hits();
  impl_->finalize();
  std::vector<std::uint64_t> sum;
  for (const auto& wp : impl_->workers) {
    const std::vector<std::uint64_t>& h = wp->det->suppression_hits();
    if (sum.size() < h.size()) sum.resize(h.size(), 0);
    for (std::size_t i = 0; i < h.size(); ++i) sum[i] += h[i];
  }
  return sum;
}

bool pipelined_detector::pipelined() const { return impl_->use_pipeline; }

}  // namespace futrace::detect
