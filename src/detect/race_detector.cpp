#include "futrace/detect/race_detector.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "futrace/detect/suppressions.hpp"
#include "futrace/inject/hooks.hpp"
#include "futrace/support/assert.hpp"

namespace futrace::detect {

/// Run-local PRECEDE verdict cache for one observer event. No graph
/// mutation can happen between the accesses of one event (union, nt-insert
/// and task switches all ride on *other* observer events), and the querying
/// task is fixed for the event, so both verdict polarities are cacheable
/// keyed on the predecessor task alone. A range walk over a slab typically
/// meets only a handful of distinct writer/reader tasks, which this
/// collapses to one real PRECEDE query each.
struct precede_cache {
  static constexpr std::size_t k_slots = 8;
  task_id tasks[k_slots];
  bool verdicts[k_slots];
  std::size_t size = 0;

  const bool* lookup(task_id before) const {
    for (std::size_t i = 0; i < size; ++i) {
      if (tasks[i] == before) return &verdicts[i];
    }
    return nullptr;
  }

  void store(task_id before, bool verdict) {
    if (size < k_slots) {
      tasks[size] = before;
      verdicts[size] = verdict;
      ++size;
    }
  }
};

const char* race_kind_name(race_kind kind) {
  switch (kind) {
    case race_kind::write_write:
      return "write-write";
    case race_kind::read_write:
      return "read-write";
    case race_kind::write_read:
      return "write-read";
  }
  return "?";
}

namespace {

/// Renders a spawn-tree interval; a temporary postorder id (counting down
/// from MAXINT while the task — or its set's shallowest member — is still
/// live) is meaningless to a reader, so it prints as "*", matching to_dot().
/// Final postorder values come from the dfid counter and can never reach
/// the temporary range, so the midpoint cleanly separates the two.
void append_label(std::ostringstream& out, const dsr::interval_label& label) {
  constexpr std::uint64_t k_temporary_floor = std::uint64_t{1} << 63;
  out << "[" << label.pre << ",";
  if (label.post >= k_temporary_floor) {
    out << "*";
  } else {
    out << label.post;
  }
  out << "]";
}

}  // namespace

std::string race_report::to_string() const {
  std::ostringstream out;
  out << race_kind_name(kind) << " determinacy race at " << location;
  if (user_location != nullptr && user_location != location) {
    out << " (touched " << user_location << ")";
  }
  out << ": task " << first_task << " (" << first_site.file << ":"
      << first_site.line << ")";
  if (witness.valid) {
    out << " ";
    append_label(out, witness.first_label);
  }
  out << " || task " << second_task << " (" << second_site.file << ":"
      << second_site.line << ")";
  if (witness.valid) {
    out << " ";
    append_label(out, witness.second_label);
    out << "; sets ";
    append_label(out, witness.first_set_label);
    out << " || ";
    append_label(out, witness.second_set_label);
    out << "; searched frontier {";
    for (std::size_t i = 0; i < witness.frontier.size(); ++i) {
      if (i != 0) out << ", ";
      out << witness.frontier[i];
    }
    out << "}, " << witness.lsa_hops << " lsa hops; " << witness.tier
        << " tier";
  }
  if (occurrences > 1) {
    out << "; seen " << occurrences << "x";
  }
  return out.str();
}

bool report_canonical_less(const race_report& a, const race_report& b) {
  const auto site_cmp = [](const access_site& x, const access_site& y) {
    const char* xf = x.file != nullptr ? x.file : "";
    const char* yf = y.file != nullptr ? y.file : "";
    const int c = std::strcmp(xf, yf);
    if (c != 0) return c;
    return x.line < y.line ? -1 : (x.line > y.line ? 1 : 0);
  };
  if (const int c = site_cmp(a.first_site, b.first_site); c != 0) return c < 0;
  if (const int c = site_cmp(a.second_site, b.second_site); c != 0)
    return c < 0;
  if (a.location != b.location) return a.location < b.location;
  return static_cast<int>(a.kind) < static_cast<int>(b.kind);
}

void sort_reports_canonical(std::vector<race_report>& reports) {
  std::stable_sort(reports.begin(), reports.end(), report_canonical_less);
}

race_detector::race_detector() : race_detector(options{}) {}

race_detector::race_detector(options opts) : opts_(opts) {
  kinds_.reserve(1024);
  graph_.set_max_tasks(opts_.max_tasks);
  shadow_.set_max_bytes(opts_.max_shadow_bytes);
  graph_.set_memo_enabled(opts_.enable_fastpath);
  shadow_.set_direct_mapped(opts_.enable_fastpath);
  stamp_enabled_ = opts_.enable_fastpath;
  range_enabled_ = opts_.enable_range_checks;
  if (!opts_.trace_path.empty()) {
    trace_ = std::make_unique<obs::trace_session>(opts_.trace_path);
  }
  if (opts_.suppressions != nullptr) {
    suppression_hits_.assign(opts_.suppressions->size(), 0);
  }
}

void race_detector::on_program_start(task_id root) {
  bump_step();
  if (!trace_muted_) {
    obs::trace_emit(obs::trace_kind::task_begin, obs::trace_track::task, root,
                    static_cast<std::uint64_t>(task_kind::root),
                    k_invalid_task);
  }
  const dsr::task_id id = graph_.create_root();
  FUTRACE_CHECK_MSG(id == root, "detector and runtime task ids diverged");
  kinds_.push_back(task_kind::root);
  put_flags_.push_back(0);
  root_chain_.assign(1, root);
  root_chain_tip_ = root;
}

void race_detector::on_task_spawn(task_id parent, task_id child,
                                  task_kind kind) {
  bump_step();
  if (!trace_muted_) {
    obs::trace_emit(obs::trace_kind::task_begin, obs::trace_track::task, child,
                    static_cast<std::uint64_t>(kind), parent);
  }
  // Epoch compaction re-indexes every id-keyed mirror, so it must run
  // before this spawn's entries are appended.
  maybe_epoch_reset(parent, kind);
  // Per-task bookkeeping survives degradation: counters keep counting.
  ++tasks_spawned_;
  if (kind == task_kind::async) ++async_tasks_;
  if (kind == task_kind::future) ++future_tasks_;
  if (kind == task_kind::continuation) {
    ++continuation_tasks_;
    // The root only ever splits via its own puts; each split extends the set
    // of identities that are live at root level (the quiescence frontier).
    if (parent == root_chain_tip_) {
      root_chain_.push_back(child);
      root_chain_tip_ = child;
    }
  }
  kinds_.push_back(kind);
  put_flags_.push_back(0);
  if (!graph_degraded_ &&
      (graph_.at_capacity() ||
       support::alloc_should_fail(sizeof(dsr::task_id) * 16))) {
    // Graceful degradation: this task gets no reachability vertex, so every
    // later precedes() query would be meaningless — stop race checking
    // entirely rather than reporting nonsense. Everything collected so far
    // stays queryable.
    graph_degraded_ = true;
  }
  if (graph_degraded_) return;
  // Algorithm 2: label assignment, set creation, LSA inheritance.
  const dsr::task_id id = graph_.create_task(parent);
  FUTRACE_CHECK_MSG(id == child, "detector and runtime task ids diverged");
}

void race_detector::on_promise_put(task_id fulfiller) {
  bump_step();
  if (!trace_muted_) {
    obs::trace_emit(obs::trace_kind::put, obs::trace_track::task, fulfiller);
  }
  ++promise_puts_;
  put_flags_[graph_.id_map().to_index(fulfiller)] = 1;
}

void race_detector::on_task_end(task_id t) {
  bump_step();
  if (!trace_muted_) {
    obs::trace_emit(obs::trace_kind::task_end, obs::trace_track::task, t);
  }
  if (graph_degraded_) return;
  // Algorithm 3: finalize the postorder value.
  graph_.on_terminate(t);
}

void race_detector::on_finish_end(task_id owner,
                                  std::span<const task_id> joined) {
  bump_step();
  if (!trace_muted_ && obs::trace_enabled()) {
    obs::trace_emit(obs::trace_kind::finish, obs::trace_track::task, owner,
                    joined.size());
    // Piggyback a PRECEDE counter sample on the (rare) finish event so the
    // timeline shows query pressure without instrumenting the access path.
    const dsr::reachability_stats& gs = graph_.stats();
    obs::trace_emit(obs::trace_kind::precede_sample, obs::trace_track::task,
                    owner, gs.precede_queries, gs.memo_hits);
  }
  if (graph_degraded_) return;
  // Algorithm 6: every task whose IEF just ended merges into the owner's
  // set (tree joins).
  for (const task_id t : joined) graph_.on_finish_join(owner, t);
}

void race_detector::on_get(task_id waiter, task_id target) {
  bump_step();
  if (!trace_muted_) {
    obs::trace_emit(obs::trace_kind::get, obs::trace_track::task, waiter,
                    target);
  }
  // Algorithm 4: tree join (merge) or non-tree join (predecessor edge).
  ++get_operations_;
  if (graph_degraded_) return;
  graph_.on_get(waiter, target);
}

void race_detector::on_program_end() {
  // The runtime delivers on_task_end(root) before this hook (both in the
  // normal end_root path and on exceptional unwind), so the root's "B"
  // slice is already paired; nothing to close here. The trace file itself
  // is written when the owning trace_session is destroyed.
}

void race_detector::maybe_epoch_reset(task_id parent, task_kind kind) {
  if (opts_.epoch_reset_interval == 0 || graph_degraded_) return;
  if (++spawns_since_reset_ < opts_.epoch_reset_interval) return;
  // Continuation splits can fire from spawn_end() inside ~spawn_scope — a
  // noexcept context where neither the fault-injection site nor an
  // allocating compaction may throw. Skip them; the next ordinary root-level
  // spawn (always inside spawn_begin, throw-safe) compacts instead.
  if (kind == task_kind::continuation) return;
  // A spawn whose parent is the root-chain tip happens at root level, where
  // the only live tasks are the root's own identities — the quiescence
  // candidate. Anything spawned deeper keeps the interval armed until the
  // execution next returns to root level.
  if (parent != root_chain_tip_) return;
  inject::epoch_reset_site();
  if (!graph_.try_compact(root_chain_)) return;  // e.g. unmerged root async
  spawns_since_reset_ = 0;
  ++epoch_resets_;
  compact_local_state();
}

void race_detector::compact_local_state() {
  const dsr::epoch_id_map& nm = graph_.id_map();
  // Re-index the per-task mirrors: old storage positions (via the pre-reset
  // id_map_) collapse onto the kept prefix of the new layout.
  std::vector<task_kind> kept_kinds;
  std::vector<std::uint8_t> kept_puts;
  kept_kinds.reserve(nm.kept_count() + 1);
  kept_puts.reserve(nm.kept_count() + 1);
  for (const dsr::task_id id : nm.kept()) {
    const dsr::task_id oi = id_map_.to_index(id);
    kept_kinds.push_back(kinds_[oi]);
    kept_puts.push_back(put_flags_[oi]);
  }
  // The tombstone slot stands in for every retired task; is_joinable never
  // receives it (retired ids translate to k_invalid_task), so the entry
  // only keeps the mirrors index-aligned with the graph.
  kept_kinds.push_back(task_kind::continuation);
  kept_puts.push_back(0);
  kinds_ = std::move(kept_kinds);
  put_flags_ = std::move(kept_puts);
  id_map_ = nm;
  // The racy-location list is consumed deduped (racy_locations()), so
  // deduping it in place now changes no observable result and stops a racy
  // hot loop from growing it without bound across epochs.
  std::sort(racy_location_list_.begin(), racy_location_list_.end());
  racy_location_list_.erase(
      std::unique(racy_location_list_.begin(), racy_location_list_.end()),
      racy_location_list_.end());
  // Free cold shadow state: slabs of regions no longer registered, and the
  // hashed tier's excess capacity.
  shadow_.retire_dead_slabs();
}

bool race_detector::ordered(task_id before, task_id after,
                            precede_cache& cache) {
  if (before == k_invalid_task) return true;
  if (const bool* hit = cache.lookup(before)) return *hit;
  const bool verdict = precedes(before, after);
  cache.store(before, verdict);
  return verdict;
}

bool race_detector::precedes(task_id a, task_id b) {
  if (shared_owner_ == nullptr) [[likely]] return graph_.precedes(a, b);
  // Shared-structure checker: count first, like reachability_graph::precedes,
  // so the sum of shared_queries_ over shards reproduces the serial count.
  ++shared_queries_;
  if (a == k_invalid_task) return true;
  // The graph's query path mutates (path halving, visit epochs, its memo),
  // so every shard's query takes the structure mutex.
  std::lock_guard<std::mutex> lock(*shared_mutex_);
  return shared_owner_->graph_.precedes(a, b);
}

dsr::precede_explanation race_detector::explain_structure(task_id first,
                                                          task_id second) {
  if (shared_owner_ == nullptr) return graph_.explain(first, second);
  std::lock_guard<std::mutex> lock(*shared_mutex_);
  return shared_owner_->graph_.explain(first, second);
}

void race_detector::check_read_cell(shadow_cell& cell, task_id t, site_id sid,
                                    const void* addr, const void* user_addr,
                                    precede_cache& cache) {
  // Stamp elision: the same task already accessed this cell in this step
  // (no observer event in between), so every PRECEDE verdict the check
  // below would compute is unchanged and re-running it cannot alter any
  // per-location race verdict — a prior access of either kind covers a
  // re-read. Only duplicate reports of an already-reported pair are elided.
  if (stamp_enabled_ && cell.stamp_task == t &&
      (cell.stamp_step & ~k_stamp_write) == step_low_) {
    ++stamp_hits_;
    return;
  }

  bool covered = false;
  for (std::size_t i = 0; i < cell.reader_count();) {
    const reader_entry prev = cell.reader_at(i);
    if (ordered(prev.task, t, cache)) {
      cell.remove_reader_at(i);
      continue;
    }
    if (!is_joinable(prev.task) && !is_joinable(t)) covered = true;
    ++i;
  }

  if (cell.writer != k_invalid_task && !ordered(cell.writer, t, cache)) {
    report(addr, user_addr, race_kind::write_read, cell.writer,
           cell.writer_site, t, sid);
  }

  if (!covered) {
    if (cell.add_reader(reader_entry{t, sid})) {
      shadow_.note_reader_count(cell.reader_count());
    } else {
      // Overflow allocation refused: the reader entry was dropped, so
      // detection results are incomplete from here on.
      shadow_.mark_degraded();
    }
  }
  if (stamp_enabled_) {
    cell.stamp_task = t;
    cell.stamp_step = step_low_;
  }
}

bool race_detector::check_write_cell(shadow_cell& cell, task_id t, site_id sid,
                                     const void* addr, const void* user_addr,
                                     precede_cache& cache) {
  // Stamp elision for writes requires the stamped access to have been a
  // *write*: re-running a write after a write by the same task in the same
  // step is a no-op (readers were already retired or reported, the writer
  // field would be rewritten with the same task). After a mere read the
  // write must still run — it retires readers and takes over the writer
  // field.
  if (stamp_enabled_ && cell.stamp_task == t &&
      cell.stamp_step == (step_low_ | k_stamp_write)) {
    ++stamp_hits_;
    return false;
  }

  bool kept_reader = false;
  for (std::size_t i = 0; i < cell.reader_count();) {
    const reader_entry prev = cell.reader_at(i);
    if (ordered(prev.task, t, cache)) {
      cell.remove_reader_at(i);
      continue;
    }
    report(addr, user_addr, race_kind::read_write, prev.task, prev.site, t,
           sid);
    kept_reader = true;
    ++i;
  }

  if (cell.writer != k_invalid_task && !ordered(cell.writer, t, cache)) {
    report(addr, user_addr, race_kind::write_write, cell.writer,
           cell.writer_site, t, sid);
  }

  cell.writer = t;
  cell.writer_site = sid;
  if (stamp_enabled_) {
    cell.stamp_task = t;
    cell.stamp_step = step_low_ | k_stamp_write;
  }
  return !kept_reader;
}

void race_detector::on_read(task_id t, const void* addr, std::size_t size,
                            access_site site) {
  // The program-touched address, preserved through canonicalization so a
  // race report can print both when they differ (a sub-element access).
  const void* user_addr = addr;
  // Mixed-size decomposition: an access wider than its element geometry
  // covers every underlying shadow cell, not only the one at `addr` (a
  // single-cell check silently under-checks straddling accesses). Applies
  // with or without the fast path — span_of follows the registered element
  // geometry, not the slab tier. Pipelined workers skip it: the producer
  // already decomposed and canonicalized before routing.
  if (!assume_canonical_) {
    const shadow_memory::access_span span = shadow_.span_of(addr, size);
    if (span.count > 1) [[unlikely]] {
      on_read_range(t, span.first, span.count, span.stride, site);
      return;
    }
    // span.first is the canonical element base (== addr unless the access
    // lands mid-element), so all shadow tiers key the same location.
    addr = span.first;
  }
  on_canonical_read(t, addr, user_addr, site);
}

void race_detector::on_canonical_read(task_id t, const void* addr,
                                      const void* user_addr,
                                      access_site site) {
  // Algorithm 9, with the add-rule read as intended (see DESIGN.md §5): the
  // reader is recorded unless a surviving parallel *async* reader already
  // covers an async reader (Lemma 4); future readers are always recorded.
  ++reads_;
  if (structure_degraded()) {
    shadow_.count_only();
    return;
  }
  shadow_cell* cell_ptr = shadow_.try_access(addr);
  if (cell_ptr == nullptr) return;  // shadow degraded: new location untracked
  precede_cache cache;
  check_read_cell(*cell_ptr, t, sites_.intern(site), addr,
                  user_addr != nullptr ? user_addr : addr, cache);
}

void race_detector::on_write(task_id t, const void* addr, std::size_t size,
                             access_site site) {
  const void* user_addr = addr;
  if (!assume_canonical_) {
    const shadow_memory::access_span span = shadow_.span_of(addr, size);
    if (span.count > 1) [[unlikely]] {
      on_write_range(t, span.first, span.count, span.stride, site);
      return;
    }
    addr = span.first;
  }
  on_canonical_write(t, addr, user_addr, site);
}

void race_detector::on_canonical_write(task_id t, const void* addr,
                                       const void* user_addr,
                                       access_site site) {
  // Algorithm 8: check every stored reader and the previous writer; readers
  // that precede the write retire, racing readers stay recorded.
  ++writes_;
  if (structure_degraded()) {
    shadow_.count_only();
    return;
  }
  shadow_cell* cell_ptr = shadow_.try_access(addr);
  if (cell_ptr == nullptr) return;  // shadow degraded: new location untracked
  precede_cache cache;
  check_write_cell(*cell_ptr, t, sites_.intern(site), addr,
                   user_addr != nullptr ? user_addr : addr, cache);
}

bool race_detector::try_summary_read(shadow_memory::direct_range& slab,
                                     task_id t, site_id sid,
                                     std::size_t count) {
  shadow_memory::run_summary& s = slab.summary;
  // Whole-slab stamp: the same task already swept the slab in this step.
  if (stamp_enabled_ && s.stamp_task == t &&
      (s.stamp_step & ~k_stamp_write) == step_low_) {
    stamp_hits_ += count;
    shadow_.note_range_direct(count);
    shadow_.add_reader_samples(
        count * (s.reader.task == k_invalid_task ? 0u : 1u));
    return true;
  }
  const std::uint64_t pre_readers = s.reader.task == k_invalid_task ? 0 : 1;
  bool covered = false;
  if (s.reader.task != k_invalid_task) {
    if (precedes(s.reader.task, t)) {
      s.reader = reader_entry{};
    } else if (!is_joinable(s.reader.task) && !is_joinable(t)) {
      covered = true;
    } else {
      // Would need a second stored reader per cell — beyond what one
      // uniform interval can represent.
      return false;
    }
  }
  if (s.writer != k_invalid_task && !precedes(s.writer, t)) {
    // Write-read race on every cell: materialize for exact per-cell
    // reports. (The reader retirement above is exactly what the per-cell
    // walk would also do, so the mutation is safe to keep.)
    return false;
  }
  shadow_.note_range_direct(count);
  shadow_.add_reader_samples(count * pre_readers);
  if (!covered) {
    s.reader = reader_entry{t, sid};
    shadow_.note_reader_count(1);
  }
  if (stamp_enabled_) {
    s.stamp_task = t;
    s.stamp_step = step_low_;
  }
  return true;
}

bool race_detector::try_summary_write(shadow_memory::direct_range& slab,
                                      task_id t, site_id sid,
                                      std::size_t count) {
  shadow_memory::run_summary& s = slab.summary;
  if (stamp_enabled_ && s.stamp_task == t &&
      s.stamp_step == (step_low_ | k_stamp_write)) {
    stamp_hits_ += count;
    shadow_.note_range_direct(count);
    shadow_.add_reader_samples(
        count * (s.reader.task == k_invalid_task ? 0u : 1u));
    return true;
  }
  const std::uint64_t pre_readers = s.reader.task == k_invalid_task ? 0 : 1;
  if (s.reader.task != k_invalid_task) {
    if (!precedes(s.reader.task, t)) return false;  // read-write race
    s.reader = reader_entry{};
  }
  if (s.writer != k_invalid_task && !precedes(s.writer, t)) {
    return false;  // write-write race on every cell
  }
  shadow_.note_range_direct(count);
  shadow_.add_reader_samples(count * pre_readers);
  s.writer = t;
  s.writer_site = sid;
  if (stamp_enabled_) {
    s.stamp_task = t;
    s.stamp_step = step_low_ | k_stamp_write;
  }
  return true;
}

void race_detector::on_read_range(task_id t, const void* addr,
                                  std::size_t count, std::size_t stride,
                                  access_site site) {
  if (count == 0) return;
  if (count == 1) {
    on_read(t, addr, stride, site);
    return;
  }
  ++range_events_;
  if (structure_degraded()) {
    reads_ += count;
    shadow_.count_only_n(count);
    return;
  }
  if (!range_enabled_) {
    // --no-ranges: the per-element checking path, element by element.
    execution_observer::on_read_range(t, addr, count, stride, site);
    return;
  }
  const shadow_memory::slab_run run = shadow_.find_run(addr, count, stride);
  if (run.slab == nullptr) {
    // Hashed tier, stride mismatch, misalignment, or a run spilling past
    // its slab: fall back to per-element checking for this event.
    execution_observer::on_read_range(t, addr, count, stride, site);
    return;
  }
  const site_id sid = sites_.intern(site);
  if (run.slab->summary.valid) {
    if (run.full && try_summary_read(*run.slab, t, sid, count)) {
      reads_ += count;
      range_hits_ += count;
      summary_hits_ += count;
      return;
    }
    if (!shadow_.materialize(*run.slab)) {
      // The slab's cells could not be allocated and it left the slab tier:
      // the hashed tier checks this run per element.
      execution_observer::on_read_range(t, addr, count, stride, site);
      return;
    }
  }
  reads_ += count;
  shadow_.note_range_direct(count);
  precede_cache cache;
  std::uint64_t sampled = 0;
  shadow_cell* cell = &run.slab->cells[run.index];
  const char* base = static_cast<const char*>(addr);
  for (std::size_t i = 0; i < count; ++i, ++cell) {
    sampled += cell->reader_count();
    const void* elem = base + i * stride;
    check_read_cell(*cell, t, sid, elem, elem, cache);
  }
  shadow_.add_reader_samples(sampled);
  range_hits_ += count;
}

void race_detector::on_write_range(task_id t, const void* addr,
                                   std::size_t count, std::size_t stride,
                                   access_site site) {
  if (count == 0) return;
  if (count == 1) {
    on_write(t, addr, stride, site);
    return;
  }
  ++range_events_;
  if (structure_degraded()) {
    writes_ += count;
    shadow_.count_only_n(count);
    return;
  }
  if (!range_enabled_) {
    execution_observer::on_write_range(t, addr, count, stride, site);
    return;
  }
  const shadow_memory::slab_run run = shadow_.find_run(addr, count, stride);
  if (run.slab == nullptr) {
    execution_observer::on_write_range(t, addr, count, stride, site);
    return;
  }
  const site_id sid = sites_.intern(site);
  if (run.slab->summary.valid) {
    if (run.full && try_summary_write(*run.slab, t, sid, count)) {
      writes_ += count;
      range_hits_ += count;
      summary_hits_ += count;
      return;
    }
    if (!shadow_.materialize(*run.slab)) {
      execution_observer::on_write_range(t, addr, count, stride, site);
      return;
    }
  }
  writes_ += count;
  shadow_.note_range_direct(count);
  precede_cache cache;
  std::uint64_t sampled = 0;
  bool uniform = true;
  shadow_cell* cell = &run.slab->cells[run.index];
  const char* base = static_cast<const char*>(addr);
  for (std::size_t i = 0; i < count; ++i, ++cell) {
    sampled += cell->reader_count();
    const void* elem = base + i * stride;
    uniform &= check_write_cell(*cell, t, sid, elem, elem, cache);
  }
  shadow_.add_reader_samples(sampled);
  range_hits_ += count;
  // A race-free full-slab write leaves every cell in the identical state
  // {writer = t, no readers, stamp (t, step, write)} — collapse it to a run
  // summary so the next full-slab sweep under the same ordering is one
  // PRECEDE query and one summary update instead of O(cells).
  if (run.full && uniform && !shadow_.degraded()) {
    shadow_memory::run_summary s;
    s.writer = t;
    s.writer_site = sid;
    s.stamp_task = stamp_enabled_ ? t : k_invalid_task;
    s.stamp_step = step_low_ | k_stamp_write;
    shadow_.establish_summary(*run.slab, s);
  }
}

void race_detector::on_region_retire(task_id t, const void* addr,
                                     std::size_t bytes) {
  (void)t;  // retires apply where the event sits in the serial order; the
            // freeing task's identity carries no extra information here.
  // No bump_step(): retire is not an access and advancing the step would
  // shift every later stamp (and the PRECEDE query count) away from the
  // serial baseline. Dropping cells is stamp-safe — a fresh cell never
  // matches any stamp, so the next access runs the full check.
  shadow_.retire_region(addr, bytes);
}

void race_detector::report(const void* addr, const void* user_addr,
                           race_kind kind, task_id first, site_id first_site,
                           task_id second, site_id second_site) {
  // Every observed race counts, duplicate or not — the Table 2 counters and
  // racy-location set are independent of how reports are folded.
  ++races_observed_;
  racy_location_list_.push_back(addr);
  obs::trace_emit(obs::trace_kind::race, obs::trace_track::task, second,
                  reinterpret_cast<std::uintptr_t>(addr),
                  static_cast<std::uint64_t>(kind));

  // Service-mode filtering sits between the paper counters (final above)
  // and report materialization: a suppressed or throttled race counts like
  // any other but produces no report and cannot trip fail_fast.
  if (opts_.suppressions != nullptr && !opts_.suppressions->empty()) {
    const access_site fs = sites_.resolve(first_site);
    const access_site ss = sites_.resolve(second_site);
    std::string first_str =
        std::string(fs.file) + ":" + std::to_string(fs.line);
    std::string second_str =
        std::string(ss.file) + ":" + std::to_string(ss.line);
    char addr_buf[32];
    std::snprintf(addr_buf, sizeof addr_buf, "%p", addr);
    suppression_query q;
    q.kind = race_kind_name(kind);
    q.first = first_str;
    q.second = second_str;
    q.addr = addr_buf;
    q.tier = shadow_.tier_name(addr);
    q.labels = [this, first, second]() {
      if (structure_degraded()) return std::string{};
      // explain() is counter- and memo-neutral, so a label-constrained rule
      // cannot perturb any Table 2 counter (see the witness capture below).
      const dsr::precede_explanation ex = explain_structure(first, second);
      std::ostringstream out;
      append_label(out, ex.a_set_label);
      out << " || ";
      append_label(out, ex.b_set_label);
      return out.str();
    };
    const int rule = opts_.suppressions->match(q);
    if (rule >= 0) {
      ++suppression_hits_[static_cast<std::size_t>(rule)];
      ++suppressed_;
      return;
    }
  }

  if (opts_.error_limit_per_pair != 0 || opts_.error_limit_global != 0) {
    std::uint64_t& pair_count =
        pair_error_counts_[{static_cast<std::uint32_t>(first_site),
                            static_cast<std::uint32_t>(second_site)}];
    const bool pair_over = opts_.error_limit_per_pair != 0 &&
                           pair_count >= opts_.error_limit_per_pair;
    const bool global_over = opts_.error_limit_global != 0 &&
                             global_error_count_ >= opts_.error_limit_global;
    if (pair_over || global_over) {
      ++errors_throttled_;
      error_limited_ = true;
      return;
    }
    ++pair_count;
    ++global_error_count_;
  }

  const report_key key{first_site, second_site, addr,
                       static_cast<std::uint8_t>(kind)};
  const auto [slot, inserted] = report_index_.try_emplace(key, k_report_dropped);
  if (!inserted) {
    // Same site pair, same canonical address, same kind: fold into the
    // first occurrence instead of burning a max_reports slot (a racy loop
    // would otherwise exhaust the cap with identical reports). fail_fast
    // cannot reach here — the first occurrence already threw.
    if (slot->second != k_report_dropped) {
      ++reports_[slot->second].occurrences;
    }
    return;
  }

  race_report materialized;
  materialized.location = addr;
  materialized.user_location = user_addr;
  materialized.kind = kind;
  materialized.first_task = first;
  materialized.second_task = second;
  materialized.first_site = sites_.resolve(first_site);
  materialized.second_site = sites_.resolve(second_site);
  if (!structure_degraded()) {
    // The witness: re-run PRECEDE purely for provenance. explain() touches
    // neither the stats counters nor the memo table, so capturing it here
    // cannot perturb any Table 2 counter or cached verdict.
    dsr::precede_explanation ex = explain_structure(first, second);
    race_witness& w = materialized.witness;
    w.valid = true;
    w.first_label = ex.a_label;
    w.second_label = ex.b_label;
    w.first_terminated = ex.a_terminated;
    w.second_terminated = ex.b_terminated;
    w.first_set_label = ex.a_set_label;
    w.second_set_label = ex.b_set_label;
    w.frontier = std::move(ex.frontier);
    w.lsa_hops = ex.lsa_hops;
    w.tier = shadow_.tier_name(addr);
  }

  if (reports_.size() < opts_.max_reports) {
    slot->second = reports_.size();
    reports_.push_back(materialized);
  } else {
    // A distinct race site pair lost to the cap: renderers surface these as
    // "N further distinct race sites not shown".
    ++reports_capped_;
  }
  if (opts_.fail_fast) {
    throw race_found_error(std::move(materialized));
  }
}

std::vector<const void*> race_detector::racy_locations() const {
  std::vector<const void*> locations = racy_location_list_;
  std::sort(locations.begin(), locations.end());
  locations.erase(std::unique(locations.begin(), locations.end()),
                  locations.end());
  return locations;
}

detector_counters race_detector::counters() const {
  detector_counters c;
  const dsr::reachability_stats& gs = graph_.stats();
  // Scalar tallies survive both degradation (the graph stops growing) and
  // epoch compaction (kinds_ shrinks to the kept tasks).
  c.tasks = tasks_spawned_;
  c.async_tasks = async_tasks_;
  c.future_tasks = future_tasks_;
  c.continuation_tasks = continuation_tasks_;
  c.promise_puts = promise_puts_;
  c.get_operations = get_operations_;
  c.non_tree_joins = gs.non_tree_joins;
  c.shared_mem_accesses = shadow_.access_count();
  c.reads = reads_;
  c.writes = writes_;
  c.avg_readers = shadow_.average_readers();
  c.max_readers = shadow_.max_readers();
  c.locations = shadow_.location_count();
  c.races_observed = races_observed_;
  c.racy_locations = racy_locations().size();
  c.untracked_accesses = shadow_.skipped_accesses();
  c.degraded = degraded();
  c.degradation_reasons = degradation_reasons();
  c.reports_capped = reports_capped_;
  c.epoch_resets = epoch_resets_;
  c.suppressed_races = suppressed_;
  c.errors_throttled = errors_throttled_;
  const shadow_stats& ss = shadow_.stats();
  c.direct_hits = ss.direct_hits;
  c.hashed_hits = ss.hashed_hits;
  c.memo_hits = gs.memo_hits;
  c.stamp_hits = stamp_hits_;
  c.precede_queries =
      shared_owner_ != nullptr ? shared_queries_ : gs.precede_queries;
  c.range_events = range_events_;
  c.range_hits = range_hits_;
  c.summary_hits = summary_hits_;
  return c;
}

std::size_t race_detector::memory_bytes() const {
  // A shared-structure checker does not own its graph footprint — the
  // structure owner counts those bytes exactly once.
  const std::size_t structure =
      shared_owner_ != nullptr ? 0 : structure_bytes();
  return structure + shadow_.memory_bytes() +
         kinds_.capacity() * sizeof(task_kind) + put_flags_.capacity();
}

}  // namespace futrace::detect
