#pragma once

/// \file race_detector.hpp
/// The paper's on-the-fly determinacy race detector (Algorithms 1–10).
/// Attach to a serial_dfs runtime; after run() completes, query reports and
/// counters. The detector is sound and precise for async/finish/future
/// programs: it reports a race iff the executed input admits one
/// (Theorem 2), independent of scheduling, because it analyses the serial
/// depth-first execution.
///
///   futrace::detect::race_detector det;
///   futrace::runtime rt({.mode = futrace::exec_mode::serial_dfs});
///   rt.add_observer(&det);
///   rt.run(program);
///   if (det.race_detected()) { ... det.reports() ... }

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "futrace/detect/race_report.hpp"
#include "futrace/detect/shadow_memory.hpp"
#include "futrace/dsr/reachability_graph.hpp"
#include "futrace/obs/trace.hpp"
#include "futrace/runtime/errors.hpp"
#include "futrace/runtime/observer.hpp"

namespace futrace::detect {

/// Run-local PRECEDE verdict cache used by the range-check engine (defined
/// in race_detector.cpp). One instance lives for exactly one observer event,
/// during which the reachability graph cannot change, so both verdict
/// polarities are cacheable.
struct precede_cache;

/// Known-race filter loaded from --suppressions=FILE (suppressions.hpp).
class suppression_set;

/// Why a detector stopped materializing state (or reports), as a bitmask so
/// soak runs can distinguish benign throttling from real capacity loss.
/// degraded() covers only the capacity bits; the error-limit bit is benign
/// (paper counters stay exact, only report materialization is bounded).
enum degradation_reason : std::uint32_t {
  k_degraded_shadow_cap = 1u << 0,   // shadow byte cap / failed allocation
  k_degraded_graph_cap = 1u << 1,    // task-vertex cap / failed allocation
  k_degraded_worker_death = 1u << 2, // checker died, replayed at finalize
  k_degraded_error_limit = 1u << 3,  // report throttling engaged (benign)
};

/// The per-execution statistics of Table 2, plus detector internals.
struct detector_counters {
  std::uint64_t tasks = 0;          // spawned tasks (excludes the root)
  std::uint64_t async_tasks = 0;
  std::uint64_t future_tasks = 0;
  std::uint64_t continuation_tasks = 0;  // promise put() splits
  std::uint64_t promise_puts = 0;
  std::uint64_t get_operations = 0;
  std::uint64_t non_tree_joins = 0;  // #NTJoins
  std::uint64_t shared_mem_accesses = 0;  // #SharedMem
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  double avg_readers = 0.0;  // #AvgReaders
  std::uint64_t max_readers = 0;
  std::uint64_t locations = 0;
  std::uint64_t races_observed = 0;
  std::uint64_t racy_locations = 0;
  /// Accesses that were counted but not shadow-tracked (degraded mode).
  std::uint64_t untracked_accesses = 0;
  /// True iff a resource cap (or injected allocation failure) forced the
  /// detector to stop materializing state; counts above keep counting, but
  /// race reports from that point on are incomplete.
  bool degraded = false;
  /// degradation_reason bits explaining `degraded` (plus the benign
  /// error-limit bit, which does not set `degraded`).
  std::uint32_t degradation_reasons = 0;

  // -- service mode (DESIGN.md §12) ------------------------------------------
  /// Distinct race site pairs that arrived after max_reports was exhausted
  /// and were therefore not materialized ("N further distinct race sites
  /// not shown").
  std::uint64_t reports_capped = 0;
  /// Successful quiescent-point epoch compactions.
  std::uint64_t epoch_resets = 0;
  /// Races matched by a suppression rule (counted in races_observed too).
  std::uint64_t suppressed_races = 0;
  /// Races dropped by the per-pair/global error limits (counted in
  /// races_observed too).
  std::uint64_t errors_throttled = 0;

  // -- fast-path instrumentation (see DESIGN.md "Performance architecture")
  /// Accesses served by a direct-mapped shared_array slab (no hashing).
  std::uint64_t direct_hits = 0;
  /// Accesses served by the hashed ptr_map tier.
  std::uint64_t hashed_hits = 0;
  /// PRECEDE queries answered from the reachability memo table.
  std::uint64_t memo_hits = 0;
  /// Accesses elided entirely by the per-cell (task, step) stamp.
  std::uint64_t stamp_hits = 0;
  /// Total PRECEDE queries issued (denominator for the memo-hit rate).
  std::uint64_t precede_queries = 0;
  /// Bulk on_read_range/on_write_range events received (counted whether or
  /// not native range checking served them).
  std::uint64_t range_events = 0;
  /// Elements served by the native range engine — one slab resolution plus
  /// a tight per-cell loop, or an O(1) summary transition — instead of
  /// per-element decomposition.
  std::uint64_t range_hits = 0;
  /// Elements answered by a slab run-summary transition (the O(1) re-sweep
  /// path; a subset of range_hits).
  std::uint64_t summary_hits = 0;
};

/// Thrown by the detector when options::fail_fast is set and the first
/// determinacy race is found; carries the report.
class race_found_error : public futrace::runtime_error {
 public:
  explicit race_found_error(race_report report)
      : futrace::runtime_error(report.to_string()), report_(report) {}

  const race_report& report() const noexcept { return report_; }

 private:
  race_report report_;
};

class race_detector final : public execution_observer {
 public:
  struct options {
    /// Maximum number of detailed reports retained; further races are
    /// counted but not materialized.
    std::size_t max_reports = 64;
    /// Throw race_found_error at the first race instead of collecting —
    /// the CI-style fail-fast mode. The first report is always a true race
    /// (precision holds up to the first race even under racy handle flows).
    bool fail_fast = false;
    /// Cap on reachability-graph task vertices; 0 = unlimited. Beyond the
    /// cap the detector degrades gracefully instead of growing: counters
    /// keep counting, race checks stop.
    std::size_t max_tasks = 0;
    /// Cap on shadow-memory table bytes; 0 = unlimited. Beyond the cap (or
    /// on an injected allocation failure) new locations stop materializing;
    /// already-tracked locations keep full detection.
    std::size_t max_shadow_bytes = 0;
    /// Enables the hot-path fast paths: direct-mapped array shadow, PRECEDE
    /// memoization, and per-cell access-stamp elision. Off reproduces the
    /// unoptimized detector exactly (the --no-fastpath differential mode);
    /// race verdicts per location are identical either way.
    bool enable_fastpath = true;
    /// Enables native checking of on_read_range/on_write_range events: one
    /// slab resolution per run, a tight per-cell loop with a run-local
    /// PRECEDE cache, and O(1) full-slab run summaries. Off decomposes
    /// every range event into the per-element path (the --no-ranges
    /// differential mode); race verdicts per location are identical either
    /// way. The native path needs the slab tier, so it engages only when
    /// enable_fastpath is also on.
    bool enable_range_checks = true;
    /// Number of pipelined checker threads (pipeline.hpp). 0 — the default —
    /// means inline checking on the execution thread; N >= 1 streams events
    /// to N address-sharded checkers. race_detector itself ignores the field
    /// (it is always a single-threaded checker); pipelined_detector reads it
    /// to decide between forwarding inline and spinning up the pipeline.
    unsigned detect_threads = 0;
    /// When non-empty, the detector owns an obs::trace_session for its
    /// lifetime and the Chrome trace-event JSON is written here at
    /// destruction (the --trace=FILE flag on benches and examples). Empty —
    /// the default — means no session is installed and the trace hooks stay
    /// a single predicted-untaken branch.
    std::string trace_path{};

    // -- service mode (DESIGN.md §12) ----------------------------------------
    /// Every N spawns, attempt a quiescent-point epoch compaction: retire
    /// finalized reachability vertices, free cold shadow slabs of
    /// unregistered regions, and shrink the hashed shadow tier, so
    /// steady-state RSS plateaus under streaming workloads. 0 — the
    /// default — disables compaction. Verdicts and paper counters are
    /// bit-identical either way.
    std::size_t epoch_reset_interval = 0;
    /// Known/accepted races to filter (non-owning; must outlive the
    /// detector). Matched races count in races_observed and the racy
    /// location set but are neither materialized nor allowed to trip
    /// fail_fast; per-rule hit counts are kept in suppression_hits().
    const suppression_set* suppressions = nullptr;
    /// Valgrind-style "too many errors, disabling further reporting at this
    /// site": after this many reports for one (site, site) pair, further
    /// races at that pair are counted but not materialized. 0 = unlimited.
    std::uint64_t error_limit_per_pair = 0;
    /// Global counterpart of error_limit_per_pair. 0 = unlimited.
    std::uint64_t error_limit_global = 0;
    /// Arm the heap-instrumentation hooks (futrace/hook, --instrument-heap)
    /// for the run: every malloc'd block is tracked, and its free fires an
    /// on_region_retire that drops the block's shadow identities. The
    /// detector itself only consumes the retire events; the tools read this
    /// field to arm the hooks around run(). No-op under FUTRACE_SANITIZE
    /// builds (hooks are compiled out).
    bool instrument_heap = false;
  };

  race_detector();
  explicit race_detector(options opts);

  // -- shard checker configuration (parallel_pipeline.hpp) --------------------
  /// Promises that every scalar on_read/on_write address is already the
  /// canonical element base with size == stride (the producer runs span_of
  /// before routing), so the checker-side detector skips the span
  /// decomposition entirely. Off by default: the inline detector must
  /// canonicalize for itself.
  void set_assume_canonical(bool on) noexcept { assume_canonical_ = on; }

  /// Restricts this detector's shadow memory to the addresses one shard
  /// checker owns (shard.hpp); forwards to shadow_memory::set_shard. Must be
  /// called before the first access event.
  void configure_shard(unsigned chunk_shift, std::size_t index,
                       std::size_t count) noexcept {
    shadow_.set_shard(chunk_shift, index, count);
  }

  /// The exact #AvgReaders numerator (sample sum), so per-shard averages
  /// merge without rounding: avg = sum(samples) / sum(accesses).
  std::uint64_t reader_samples() const noexcept {
    return shadow_.reader_samples();
  }

  /// Silences this detector's runtime-event trace emissions (spawn/end/
  /// finish/get/put). Shard checker replicas replay the producers' graph
  /// stream, so without muting every runtime event would appear once per
  /// checker in the timeline; races and slab events stay un-muted because
  /// address sharding already makes each of those unique to one checker.
  void set_trace_muted(bool on) noexcept { trace_muted_ = on; }

  // -- shared-structure checker mode (parallel_pipeline.hpp) ------------------
  /// Binds this (checker-side) detector to a structure owner's graph
  /// (--structure=shared, DESIGN.md §15). The checker then receives NO
  /// structure events at all: PRECEDE queries, joinability, witness
  /// provenance, and graph degradation all route to `owner`, whose mutable
  /// query paths are serialized by `mutex`. The caller guarantees the owner
  /// is quiescent — no structure event mid-application — whenever this
  /// detector processes accesses (the pipeline's admitted-position
  /// lockstep). Must be called before the first access event.
  void attach_shared_structure(race_detector* owner,
                               std::mutex* mutex) noexcept {
    shared_owner_ = owner;
    shared_mutex_ = mutex;
  }

  /// Shared-structure checkers adopt the owner's step counter at every run
  /// boundary (`owner_step` = the owner's current_step() after applying the
  /// run's structure event). The owner bumps exactly where the serial
  /// detector's own bump_step() fires, so the checker's (task, step) stamps
  /// — and therefore stamp elision and the PRECEDE query count — are
  /// bit-compatible with the serial run.
  void note_run_boundary(std::uint64_t owner_step) noexcept {
    step_ = owner_step;
    if (step_ >= (1ull << 31)) stamp_enabled_ = false;
    step_low_ = static_cast<std::uint32_t>(step_) & 0x7FFFFFFFu;
  }

  /// The serial step counter (bumped at every structure event); recorded by
  /// the shared-structure writer into each run-table entry.
  std::uint64_t current_step() const noexcept { return step_; }

  /// This shard's PRECEDE query count (shared-structure mode); the merged
  /// PrecedeQueries is the sum over shards, bit-identical to serial.
  std::uint64_t shared_queries() const noexcept { return shared_queries_; }

  /// Worker-side scalar access entry points: like on_read/on_write with
  /// assume-canonical in force (`addr` is the canonical element base), but
  /// carrying the address the program actually touched so reports keep
  /// their provenance across the pipeline. `user_addr == nullptr` means
  /// the producer recorded no distinct user address (treated as == addr).
  void on_canonical_read(task_id t, const void* addr, const void* user_addr,
                         access_site site);
  void on_canonical_write(task_id t, const void* addr, const void* user_addr,
                          access_site site);

  // -- execution_observer ----------------------------------------------------
  void on_program_start(task_id root) override;
  void on_task_spawn(task_id parent, task_id child, task_kind kind) override;
  void on_task_end(task_id t) override;
  void on_finish_end(task_id owner, std::span<const task_id> joined) override;
  void on_get(task_id waiter, task_id target) override;
  void on_promise_put(task_id fulfiller) override;
  void on_program_end() override;
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

  // -- results ----------------------------------------------------------------
  bool race_detected() const noexcept { return races_observed_ > 0; }
  std::uint64_t race_count() const noexcept { return races_observed_; }

  /// True once a resource cap or injected allocation failure made the
  /// detector stop materializing state. Sticky; the detector stays fully
  /// queryable, but reports after the degradation point are incomplete.
  /// Excludes the benign error-limit reason (see degradation_reasons()).
  bool degraded() const noexcept {
    return structure_degraded() || shadow_.degraded();
  }

  /// Bitmask of degradation_reason explaining degraded(), plus the benign
  /// k_degraded_error_limit bit when report throttling engaged.
  std::uint32_t degradation_reasons() const noexcept {
    std::uint32_t r = 0;
    if (shadow_.degraded()) r |= k_degraded_shadow_cap;
    if (structure_degraded()) r |= k_degraded_graph_cap;
    if (error_limited_) r |= k_degraded_error_limit;
    return r;
  }

  const std::vector<race_report>& reports() const noexcept { return reports_; }

  /// Distinct race site pairs dropped after max_reports was exhausted; when
  /// non-zero, report renderers should append "N further distinct race
  /// sites not shown".
  std::uint64_t reports_capped() const noexcept { return reports_capped_; }

  /// Successful epoch compactions (options::epoch_reset_interval).
  std::uint64_t epoch_resets() const noexcept { return epoch_resets_; }

  /// Per-rule hit counts, index-aligned with options::suppressions' rules.
  const std::vector<std::uint64_t>& suppression_hits() const noexcept {
    return suppression_hits_;
  }

  /// Total suppressed races (sum of suppression_hits()).
  std::uint64_t suppressed_races() const noexcept { return suppressed_; }

  /// Races dropped by the error limits.
  std::uint64_t errors_throttled() const noexcept { return errors_throttled_; }

  /// Distinct locations with at least one detected race, sorted by address.
  /// This is the unit of Theorem 2's guarantee and what the property tests
  /// compare against the brute-force oracle.
  std::vector<const void*> racy_locations() const;

  detector_counters counters() const;

  /// The reachability graph's structural and query counters.
  const dsr::reachability_stats& reachability_stats() const {
    return graph_.stats();
  }

  const shadow_stats& storage_stats() const { return shadow_.stats(); }

  /// Approximate detector heap footprint (reachability graph + shadow
  /// memory), for the baseline-comparison benchmark.
  std::size_t memory_bytes() const;

  /// Footprint of the reachability structure alone (no shadow memory): the
  /// O(a + f + n) term of Theorem 1, comparable against a vector-clock
  /// detector's clock storage.
  std::size_t structure_bytes() const { return graph_.memory_bytes(); }

  /// True iff the task can still be joined by a later get(): future tasks
  /// and tasks that fulfilled a promise. Lemma 4's one-async-reader coverage
  /// only applies to tasks joinable exclusively through finish, so the read
  /// rule keys on this. The cell checks never reach a task retired by epoch
  /// compaction (retired readers are ordered, hence removed, first), so the
  /// retired answer is a conservative placeholder.
  bool is_joinable(task_id t) const {
    if (shared_owner_ != nullptr) return shared_owner_->is_joinable(t);
    const dsr::task_id i = graph_.id_map().to_index(t);
    if (i == dsr::k_invalid_task) return false;
    return kinds_[i] == task_kind::future || put_flags_[i];
  }

 private:
  /// The graph-degradation flag that governs this detector's access checks:
  /// a shared-structure checker's own graph never degrades (it sees no
  /// structure events), so it reads the owner's flag — which only mutates
  /// at structure events, i.e. while this detector is fenced out.
  bool structure_degraded() const noexcept {
    return shared_owner_ != nullptr ? shared_owner_->graph_degraded_
                                    : graph_degraded_;
  }

  /// Algorithm 10 on this detector's graph, or on the owner's graph under
  /// the structure mutex when attached. An attached checker counts its own
  /// queries exactly like reachability_graph::precedes, so per-shard sums
  /// reproduce the serial PrecedeQueries.
  bool precedes(task_id a, task_id b);

  /// explain() against the structure that actually answered the queries —
  /// the owner's graph (under the structure mutex) when attached.
  dsr::precede_explanation explain_structure(task_id first, task_id second);
  /// `addr` is the canonical shadow-cell base (the dedup/report key);
  /// `user_addr` is what the program actually touched, carried only so the
  /// report can print both when span_of canonicalized a sub-element access.
  void report(const void* addr, const void* user_addr, race_kind kind,
              task_id first, site_id first_site, task_id second,
              site_id second_site);

  /// Epoch compaction (options::epoch_reset_interval): once the interval
  /// has elapsed, every non-continuation spawn whose parent is the
  /// root-chain tip is a quiescence candidate; the graph verifies and
  /// compacts, then the detector compacts its id-indexed mirrors and the
  /// shadow tiers. Continuation splits are excluded because they can fire
  /// from a noexcept unwind context (~spawn_scope).
  void maybe_epoch_reset(task_id parent, task_kind kind);
  void compact_local_state();

  /// PRECEDE with the run-local verdict cache (sound for the duration of
  /// one observer event; see precede_cache).
  bool ordered(task_id before, task_id after, precede_cache& cache);

  /// The Algorithm 9 read check on one cell (stamp elision included).
  void check_read_cell(shadow_cell& cell, task_id t, site_id sid,
                       const void* addr, const void* user_addr,
                       precede_cache& cache);

  /// The Algorithm 8 write check on one cell. Returns true iff the cell is
  /// known to have left the check in the uniform state {writer = t, no
  /// readers} with the full check actually run (stamp-elided cells return
  /// false — elision can hide earlier reader state). A full-slab write walk
  /// that is uniform everywhere collapses into a run summary.
  bool check_write_cell(shadow_cell& cell, task_id t, site_id sid,
                        const void* addr, const void* user_addr,
                        precede_cache& cache);

  /// O(1) summary transitions for a full-slab range access. Return false —
  /// mutating nothing the per-cell walk would not also do — when the access
  /// diverges from what one uniform interval can represent (a race, or a
  /// second concurrent reader); the caller then materializes and walks.
  bool try_summary_read(shadow_memory::direct_range& slab, task_id t,
                        site_id sid, std::size_t count);
  bool try_summary_write(shadow_memory::direct_range& slab, task_id t,
                         site_id sid, std::size_t count);

  /// Every observer event that can change the current task or the
  /// reachability graph advances the step counter; between two events the
  /// serial depth-first execution stays in one step of one task, which is
  /// what makes the per-cell stamp elision sound. The stamp stores the low
  /// 31 bits plus a write-kind bit; if an execution ever exceeds 2^31
  /// steps the stamp tier shuts off for good rather than risk a stale
  /// match after wraparound.
  void bump_step() noexcept {
    ++step_;
    if (step_ >= (1ull << 31)) stamp_enabled_ = false;
    step_low_ = static_cast<std::uint32_t>(step_) & 0x7FFFFFFFu;
  }

  options opts_;
  dsr::reachability_graph graph_;
  shadow_memory shadow_;
  site_table sites_;
  std::vector<task_kind> kinds_;
  std::vector<std::uint8_t> put_flags_;  // task fulfilled a promise
  std::vector<race_report> reports_;
  /// Dedup index for reports_: (first site, second site, canonical address,
  /// kind) → index into reports_. Duplicates bump occurrences on the first
  /// report instead of burning a max_reports slot; entries whose report was
  /// dropped by the cap map to k_report_dropped so later duplicates are
  /// still recognized (and still not materialized).
  static constexpr std::size_t k_report_dropped = static_cast<std::size_t>(-1);
  using report_key =
      std::tuple<std::uint32_t, std::uint32_t, const void*, std::uint8_t>;
  std::map<report_key, std::size_t> report_index_;
  std::vector<const void*> racy_location_list_;  // deduped lazily
  std::uint64_t races_observed_ = 0;
  std::uint64_t get_operations_ = 0;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t promise_puts_ = 0;
  // Per-kind spawn tallies (kinds_ is compacted by epoch resets, so the
  // Table 2 counters cannot be derived from it by iteration).
  std::uint64_t tasks_spawned_ = 0;
  std::uint64_t async_tasks_ = 0;
  std::uint64_t future_tasks_ = 0;
  std::uint64_t continuation_tasks_ = 0;
  // -- service mode ----------------------------------------------------------
  /// The root task's continuation chain (every identity it has split into):
  /// at a spawn whose parent is the chain tip these are exactly the live
  /// tasks, which is when epoch compaction can run.
  std::vector<task_id> root_chain_;
  task_id root_chain_tip_ = k_invalid_task;
  std::uint64_t spawns_since_reset_ = 0;
  std::uint64_t epoch_resets_ = 0;
  /// The graph's id translation as of the last compaction this detector
  /// mirrored; compact_local_state() uses it to re-index kinds_/put_flags_
  /// before adopting the graph's new map.
  dsr::epoch_id_map id_map_;
  std::vector<std::uint64_t> suppression_hits_;
  std::uint64_t suppressed_ = 0;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t>
      pair_error_counts_;
  std::uint64_t global_error_count_ = 0;
  std::uint64_t errors_throttled_ = 0;
  std::uint64_t reports_capped_ = 0;
  bool error_limited_ = false;
  std::uint64_t step_ = 0;
  std::uint32_t step_low_ = 0;
  std::uint64_t stamp_hits_ = 0;
  std::uint64_t range_events_ = 0;
  std::uint64_t range_hits_ = 0;
  std::uint64_t summary_hits_ = 0;
  bool stamp_enabled_ = true;
  bool range_enabled_ = true;
  bool assume_canonical_ = false;  // shard checker mode: skip span_of
  bool trace_muted_ = false;       // checker replica: no runtime-event tracing
  // -- shared-structure checker mode (parallel_pipeline.hpp) -----------------
  race_detector* shared_owner_ = nullptr;  // structure owner (writer-side)
  std::mutex* shared_mutex_ = nullptr;     // serializes mutable query paths
  std::uint64_t shared_queries_ = 0;
  /// Owned trace sink when options::trace_path is set (null otherwise).
  /// Declared last: it is torn down first, so the global hook is already
  /// uninstalled (and the JSON flushed) before any other member dies.
  std::unique_ptr<obs::trace_session> trace_;
  /// Set when the task cap (or an injected node-allocation failure) fires:
  /// tasks past this point have no graph vertex, so every reachability
  /// query — and with it all race checking — stops. Scalar counters and
  /// already-collected reports remain valid and queryable.
  bool graph_degraded_ = false;
};

}  // namespace futrace::detect
