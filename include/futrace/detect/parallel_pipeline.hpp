#pragma once

/// \file parallel_pipeline.hpp
/// Concurrent race detection: P producers stream events to W shard
/// checkers. Under `exec_mode::parallel_detect` the producers are the
/// work-stealing engine's workers, running the program for real; the
/// pipelined detector (pipeline.hpp) is the one-producer case, fed by the
/// serial engine through a thin translating observer. This is futrace's
/// only concurrent transport:
///
///   engine workers (P threads)            shard checkers (W threads)
///   --------------------------            --------------------------
///   worker 0: execute + emit ──ring 0──┬─►  checker 0: demux by pid,
///   worker 1: execute + emit ──ring 1──┼─►    replay serial DFS order,
///       ...                     ...    │      race_detector replica
///                                      └─►  checker w: shadow shard w
///
/// Every producer owns one bounded support::broadcast_ring, and every
/// checker reads every ring with its own head — P rings per run, each
/// event written once. Graph-structure events (spawn, task end, finish,
/// get, put) are read by every checker; access events are canonicalized
/// producer-side (span_of against the live element geometry) and split at
/// chunk boundaries into per-owner sub-events, and each checker skips the
/// accesses another shard owns. A slot is overwritten only after every
/// consumer has retired it.
///
/// Per-ring FIFO order is not a global epoch barrier: P streams interleave
/// arbitrarily. The merge key is *DAG position* — every event carries its
/// producing task's pid (the engine's spawn-order id), and each checker
/// demuxes its rings into per-pid FIFO queues (a pid executes on one OS
/// thread, so its program order survives the transport). A replayer then
/// reconstructs the serial depth-first elision order purely from stream
/// structure: it descends into a child's queue at its spawn event, returns
/// at its task end, renumbers tasks densely exactly as the serial engine
/// would, and re-derives continuation splits at promise puts, finish
/// joined-lists, and get targets (via the put ordinal / producer pid
/// carried on the wire).
/// Each replica therefore observes the exact event stream the inline
/// serial detector would have seen — structure events are admitted in
/// happens-before (serial DFS) order before any dependent access event —
/// so verdicts, reports, and paper counters are bit-identical to the
/// serial inline run by construction (DESIGN.md §14). With one producer
/// the stream arrives in DFS order already, and each event is applied as
/// it is drained.
///
/// Checkers (and the shared-structure writer) run on threads from the
/// process-wide pool (support/thread_pool.hpp), as do the engine's workers
/// 1..P-1: a run after the first creates no OS thread.
///
/// Failure model: a full ring backpressures its producer; a checker that
/// dies (fault injection, or the pool failing to create a thread for it)
/// hands its heads to the producers, which move its unread events, in
/// order, to a spill whenever the ring would overwrite them — so a dead
/// checker never blocks a producer. Finalize replays each dead checker's
/// spill, then what is left of it in the rings, inline on the main
/// thread. A refused ring allocation spills everything (buffer mode).
/// Sticky, counted, never a lost event. options::fail_fast is forced off
/// (the first-race throw is only meaningful on the execution thread of a
/// serial run).
///
/// structure_mode::shared (DESIGN.md §15) replaces the per-checker graph
/// replicas with ONE reachability graph owned by a dedicated single-writer
/// structure thread, which reads every ring as consumer W and skips its
/// accesses. It applies structure events in serial DFS-replay order and
/// publishes a monotonically increasing *admitted position*. Checkers
/// apply only access events, each tagged with its pid's structure ordinal
/// (which every checker counts itself, since it sees every event of the
/// ring), wait until the admitted position covers the access's structural
/// prerequisites, and then issue PRECEDE queries against the shared graph
/// under one structure mutex. The writer applies the next structure event
/// only once every shard has finished the current run, so readers never
/// observe a partially-applied structure event and epoch compaction stays
/// writer-side, fenced by the admitted position. Structure CPU drops from
/// W× to 1× and graph RSS from W replicas to one; verdicts, reports, and
/// paper counters remain bit-identical to the serial inline run.

#include <cstdint>
#include <memory>
#include <vector>

#include "futrace/detect/pipeline.hpp"
#include "futrace/detect/race_detector.hpp"
#include "futrace/detect/shard.hpp"
#include "futrace/runtime/parallel_sink.hpp"

namespace futrace::detect {

/// Transport/replay diagnostics specific to parallel-detect mode. All of
/// these are schedule-dependent (spill and reorder depend on when faults
/// and steals land), so they are advisory, never equality-gated.
struct parallel_pipeline_stats {
  unsigned exec_workers = 0;  // P: engine workers that emitted
  unsigned checkers = 0;      // W: shard checker threads
  /// Events a producer moved out of its ring for a consumer that will not
  /// read it again (a dead checker or writer), or buffered because no ring
  /// was allocated; one per consumer copy.
  std::uint64_t spilled_events = 0;
  /// Get edges skipped because their producer had no serial position yet
  /// at the get's replay point (a schedule serial DFS cannot realize; the
  /// serial engine would have refused the program).
  std::uint64_t infeasible_gets = 0;
  /// Events left unadmitted when EOF unwind closed the replay (only after
  /// a program error left the stream unbalanced).
  std::uint64_t dropped_events = 0;
  /// Events applied inline on the main thread at finalize (takeover after
  /// checker death or spill mode): those the dead consumer would have
  /// applied, not the ones it would have skipped.
  std::uint64_t takeover_events = 0;
  /// Structure events applied by the shared-structure writer (zero under
  /// structure_mode::replicated).
  std::uint64_t structure_events = 0;
  /// 1 iff the shared-structure writer thread died (fault injection or an
  /// escaped exception) and finalize completed the replay on the main
  /// thread. Sets k_degraded_worker_death, like a checker death.
  std::uint64_t structure_writer_died = 0;
};

/// Who owns the reachability structure in parallel-detect mode.
enum class structure_mode : std::uint8_t {
  /// Every checker replays the full structure stream into a private graph
  /// replica (the PR-8 design): no cross-checker coordination, W× structure
  /// CPU and graph memory.
  replicated,
  /// One shared graph behind a single-writer structure thread; checkers
  /// fence on the admitted position and query it under a mutex
  /// (DESIGN.md §15). Structure CPU and graph RSS drop to 1×.
  shared,
};

/// The parallel_sink implementation: attach with runtime::add_parallel_sink
/// under {.mode = exec_mode::parallel_detect, .workers = P}, query results
/// after run() returns (queries finalize: wait for the checker bodies,
/// finish the replay, merge shards). pipelined_detector drives one as
/// producer 0. reports() does not depend on the schedule: replicated mode
/// merges by serial position (the inline report sequence), shared mode
/// sorts canonically (race_report.hpp).
class parallel_detector final : public detail::parallel_sink {
 public:
  struct tuning {
    /// Slots per producer ring, rounded up to a power of two. 16Ki
    /// 32-byte slots = 512 KiB per ring.
    std::size_t ring_capacity = std::size_t{1} << 14;
    /// Shard checker threads (W). 0 means "match the engine workers".
    unsigned checkers = 0;
    /// log2 of the address-chunk size dealt round-robin to shards.
    unsigned chunk_shift = k_default_chunk_shift;
    /// Reachability-structure ownership (--structure=shared|replicated).
    /// Replicated remains the default: it needs no inter-checker fencing,
    /// so existing baselines and CI gates keep their profile.
    structure_mode structure = structure_mode::replicated;
  };

  explicit parallel_detector(race_detector::options opts = {});
  parallel_detector(race_detector::options opts, tuning tune);
  ~parallel_detector() override;

  parallel_detector(const parallel_detector&) = delete;
  parallel_detector& operator=(const parallel_detector&) = delete;
  parallel_detector(parallel_detector&&) noexcept;
  parallel_detector& operator=(parallel_detector&&) noexcept;

  // -- detail::parallel_sink -------------------------------------------------
  void begin(unsigned workers) override;
  void emit_program_start(unsigned worker, task_id root) override;
  void emit_spawn(unsigned worker, task_id parent, task_id child,
                  task_kind kind) override;
  void emit_task_end(unsigned worker, task_id t) override;
  void emit_finish_begin(unsigned worker, task_id owner) override;
  void emit_finish_end(unsigned worker, task_id owner) override;
  void emit_get(unsigned worker, task_id waiter, task_id producer,
                std::uint64_t put_ref) override;
  void emit_put(unsigned worker, task_id fulfiller,
                std::uint64_t put_ref) override;
  void emit_read(unsigned worker, task_id t, const void* addr,
                 std::size_t size, access_site site) override;
  void emit_write(unsigned worker, task_id t, const void* addr,
                  std::size_t size, access_site site) override;
  void emit_read_range(unsigned worker, task_id t, const void* addr,
                       std::size_t count, std::size_t stride,
                       access_site site) override;
  void emit_write_range(unsigned worker, task_id t, const void* addr,
                        std::size_t count, std::size_t stride,
                        access_site site) override;
  void emit_region_retire(unsigned worker, task_id t, const void* addr,
                          std::size_t bytes) override;
  void program_done() override;

  // -- results ---------------------------------------------------------------
  bool race_detected() const;
  std::uint64_t race_count() const;
  bool degraded() const;
  /// Replicated: the inline detector's report sequence and max_reports
  /// truncation, merged by serial position. Shared: sorted by
  /// report_canonical_less. Either way byte-comparable across schedules
  /// and worker counts.
  const std::vector<race_report>& reports() const;
  std::vector<const void*> racy_locations() const;
  detector_counters counters() const;
  /// Walks every shard's shadow state: computed per call, not at finalize.
  std::size_t memory_bytes() const;
  /// Footprint of the reachability structure(s) alone: the one shared
  /// graph under structure_mode::shared, or the sum over the W checker
  /// replicas under replicated — the quantity shared mode collapses from
  /// W× to 1× (asserted in tests and the CI memory gate).
  std::size_t structure_bytes() const;
  /// Transport fill/backpressure counters in the pipeline's schema (workers
  /// = checker threads); advisory, shared with obs::pipe_json.
  const pipeline_stats& pipe_stats() const;
  const parallel_pipeline_stats& par_stats() const;
  std::vector<std::uint64_t> suppression_hits() const;

  /// True once begin() ran, i.e. an engine actually streamed to this sink.
  bool parallel_active() const;

 private:
  struct impl;
  std::unique_ptr<impl> impl_;
};

}  // namespace futrace::detect
