#pragma once

/// \file pipeline.hpp
/// Pipelined race detection: overlap the instrumented serial execution
/// with race checking instead of paying the full detector on the execution
/// thread.
///
///   execution thread                     checker threads (W)
///   ----------------                     -------------------
///   run program, observe events  ──ring──┬─►  checker 0: DFS replay into
///   translate to the parallel wire,      ├─►  checker 1:   graph replica +
///   span_of + chunk split                └─►     ...       shadow shard
///
/// This is the one-producer case of parallel-detect (parallel_pipeline.hpp,
/// DESIGN.md §10 and §14): pipelined_detector is a thin observer that
/// translates the serial observer stream into the parallel wire and feeds
/// it, as producer 0, to a replicated parallel_detector with W =
/// detect_threads checkers. Every checker owns a complete private
/// race_detector — its own reachability-graph replica and a shadow memory
/// clipped to the address chunks it owns (shard.hpp). The producer writes
/// each event once into one ring that every checker reads: every checker
/// replays the structure events, and exactly one applies each access, by
/// address, while the others skip it. A single producer's stream already
/// is the serial depth-first order, so each checker's replayer applies
/// every event as it arrives.
/// The checkers run on threads from the process-wide pool
/// (support/thread_pool.hpp): a run wakes parked threads rather than
/// creating them, and each returns to the pool when its checker finishes.
///
/// Determinism: per-location verdicts are exactly the inline detector's
/// (one checker sees all accesses of a location, in serial order, against
/// the correct graph), reports merge by serial position into the inline
/// report sequence and its max_reports truncation, and the paper-level
/// counters of Table 2 are exact sums / maxima over shards. Engine-tier
/// diagnostics (direct/hashed/stamp hit counts and the like) are
/// layout-dependent and only comparable between runs of the same
/// configuration.
///
/// Failure model: a full ring means backpressure (the producer spins),
/// never allocation or drops. A checker that dies mid-run (fault
/// injection, or the pool could not create a thread for it) no longer
/// holds the ring: the producer moves its unread events to a spill before
/// overwriting them, and finalize replays spill then ring — sticky and
/// counted, never a deadlock or a lost event. options::fail_fast and a
/// refused ring allocation force inline mode: the first race must throw at
/// the faulting access on the execution thread.

#include <cstdint>
#include <memory>
#include <vector>

#include "futrace/detect/race_detector.hpp"
#include "futrace/detect/shard.hpp"
#include "futrace/runtime/observer.hpp"

namespace futrace::detect {

/// Pipeline-plumbing counters (reported next to detector_counters; these
/// are timing/address-dependent diagnostics, never equality-gated across
/// configurations).
struct pipeline_stats {
  std::uint64_t workers = 0;        // checker threads actually started
  std::uint64_t ring_capacity = 0;  // slots per ring (rounded to pow2)
  std::uint64_t events = 0;         // wire events streamed
  std::uint64_t access_events = 0;  // subset applied by one shard
  /// Extra sub-events minted when a range access straddled chunk owners,
  /// or had a stride too wide for the wire (sent element by element).
  std::uint64_t split_subevents = 0;
  /// Producer spins while a ring was full (the backpressure path).
  std::uint64_t backpressure_waits = 0;
  /// Ring fill-level sampling (every 64th slot), for the Pipe% column: the
  /// published slots the slowest consumer has not retired.
  std::uint64_t occupancy_samples = 0;
  std::uint64_t occupancy_sum = 0;
  /// Events replayed on the main thread at finalize after a checker died
  /// (plus one when the rings could not be allocated). Sticky degradation,
  /// not an error: verdicts stay exact, overlap is lost for the affected
  /// shard.
  std::uint64_t inline_fallbacks = 0;
  std::uint64_t workers_died = 0;
  /// Checker backoff waits: a checker found nothing to apply — its rings
  /// were empty (detection kept up with execution) or, under shared
  /// structure, the admitted position did not yet cover its next access
  /// (plus the writer's spins at the run fence there).
  std::uint64_t checker_wait_spins = 0;
  // -- shared-structure mode (parallel_pipeline.hpp, --structure=shared);
  //    zero in every other configuration.
  /// Max runs the writer's admitted position was ahead of the slowest
  /// shard's next run when a checker sampled it (pipeline depth, in runs).
  std::uint64_t structure_admit_lag_max = 0;
  /// Bytes of the one shared reachability graph — the memory that was
  /// W-fold under replication.
  std::uint64_t shared_graph_bytes = 0;

  /// Mean sampled ring occupancy as a percentage of capacity.
  double occupancy_pct() const noexcept {
    if (occupancy_samples == 0 || ring_capacity == 0) return 0.0;
    return 100.0 * static_cast<double>(occupancy_sum) /
           (static_cast<double>(occupancy_samples) *
            static_cast<double>(ring_capacity));
  }
};

/// Drop-in replacement for attaching a race_detector directly: construct
/// with options whose detect_threads selects inline (0) or pipelined (N)
/// checking, attach to the runtime, query results after run(). Queries
/// finalize the pipeline (wait for the checker bodies, merge shards) on
/// first use.
class pipelined_detector final : public execution_observer {
 public:
  struct tuning {
    /// Slots in the producer's ring (rounded up to a power of two), which
    /// every checker reads. 16Ki 32-byte slots = 512 KiB, deep enough to
    /// absorb checker hiccups. The ring is allocated untouched, so a run
    /// pays (in time and resident memory) only for the slots it actually
    /// writes.
    std::size_t ring_capacity = std::size_t{1} << 14;
    /// log2 of the address-chunk size dealt round-robin to checkers.
    unsigned chunk_shift = k_default_chunk_shift;
  };

  explicit pipelined_detector(race_detector::options opts);
  pipelined_detector(race_detector::options opts, tuning tune);
  ~pipelined_detector() override;

  pipelined_detector(const pipelined_detector&) = delete;
  pipelined_detector& operator=(const pipelined_detector&) = delete;
  pipelined_detector(pipelined_detector&&) noexcept;
  pipelined_detector& operator=(pipelined_detector&&) noexcept;

  // -- execution_observer ----------------------------------------------------
  void on_program_start(task_id root) override;
  void on_task_spawn(task_id parent, task_id child, task_kind kind) override;
  void on_task_end(task_id t) override;
  void on_finish_start(task_id owner) override;
  void on_finish_end(task_id owner, std::span<const task_id> joined) override;
  void on_get(task_id waiter, task_id target) override;
  void on_promise_put(task_id fulfiller) override;
  void on_read(task_id t, const void* addr, std::size_t size,
               access_site site) override;
  void on_write(task_id t, const void* addr, std::size_t size,
                access_site site) override;
  void on_read_range(task_id t, const void* addr, std::size_t count,
                     std::size_t stride, access_site site) override;
  void on_write_range(task_id t, const void* addr, std::size_t count,
                      std::size_t stride, access_site site) override;
  void on_region_retire(task_id t, const void* addr,
                        std::size_t bytes) override;
  void on_program_end() override;

  // -- results (mirror race_detector's query surface) -------------------------
  bool race_detected() const;
  std::uint64_t race_count() const;
  bool degraded() const;
  const std::vector<race_report>& reports() const;
  std::vector<const void*> racy_locations() const;
  detector_counters counters() const;
  std::size_t memory_bytes() const;
  const pipeline_stats& pipe_stats() const;

  /// Per-rule suppression hit counts (index-aligned with the rules of
  /// options::suppressions), summed across shards in pipelined mode.
  std::vector<std::uint64_t> suppression_hits() const;

  /// True when events are being streamed to checker threads (false in
  /// inline mode: detect_threads == 0, fail_fast, or a refused ring
  /// allocation at construction).
  bool pipelined() const;

 private:
  struct impl;
  std::unique_ptr<impl> impl_;
};

}  // namespace futrace::detect
