#include "modes.hpp"

#include <algorithm>

#include "futrace/detect/parallel_pipeline.hpp"
#include "futrace/detect/pipeline.hpp"
#include "futrace/runtime/runtime.hpp"
#include "futrace/runtime/shared_regions.hpp"

namespace perfbench {
namespace {

namespace fd = futrace::detect;
using futrace::exec_mode;

/// One timed mode run: construct [t0, t1), run [t1, t2), first verdict
/// query [t2, t3).
struct phases {
  bench_clock::time_point t0, t1, t2, t3;

  double total_ms() const {
    return static_cast<double>(ns_between(t0, t3)) * 1e-6;
  }
};

void record_spans(const run_context& ctx, mode_id m, const phases& ph) {
  if (ctx.spans == nullptr) return;
  const std::uint32_t id =
      ctx.spans->add(mode_name(m), ctx.parent_span, ph.t0, ph.t3);
  if (id == 0) return;
  ctx.spans->add("construct", id, ph.t0, ph.t1);
  ctx.spans->add("run", id, ph.t1, ph.t2);
  ctx.spans->add("finalize", id, ph.t2, ph.t3);
}

/// Everything but `raced`, which the caller took inside the timed region.
template <typename Detector>
void fill_verdict(verdict& v, const Detector& det) {
  v.race_count = det.race_count();
  v.racy = det.racy_locations();
  v.counters = det.counters();
}

double as_double(std::uint64_t x) { return static_cast<double>(x); }

/// The detect, shadow and dsr layer numbers of a finished inline detector.
void tally_inline(tally& t, const fd::race_detector& det,
                  const timed_observer& probe, const phases& ph) {
  const fd::detector_counters c = det.counters();
  t.add("detect.traced_inline_ns", as_double(ns_between(ph.t0, ph.t3)));
  t.add("detect.access_ns", as_double(probe.access().ns));
  t.add("detect.access_calls", as_double(probe.access().calls));
  t.add("detect.structure_ns", as_double(probe.structure().ns));
  t.add("detect.structure_calls", as_double(probe.structure().calls));
  t.add("detect.checked_accesses", as_double(c.shared_mem_accesses));
  t.add("detect.stamp_hits", as_double(c.stamp_hits));
  t.add("detect.range_hits", as_double(c.range_hits));
  t.add("detect.summary_hits", as_double(c.summary_hits));
  t.add("detect.races_observed", as_double(c.races_observed));
  t.add("detect.reports", as_double(det.reports().size()));
  t.add("detect.racy_locations", as_double(c.racy_locations));

  const fd::shadow_stats& s = det.storage_stats();
  t.add("shadow.direct_hits", as_double(s.direct_hits));
  t.add("shadow.hashed_hits", as_double(s.hashed_hits));
  t.add("shadow.slabs_built", as_double(s.slabs_built));
  t.add("shadow.migrated_cells", as_double(s.migrated_cells));
  t.add("shadow.summaries_established", as_double(s.summaries_established));
  t.add("shadow.summary_materializations",
        as_double(s.summary_materializations));
  t.add("shadow.locations", as_double(c.locations));
  t.peak("shadow.live_regions",
         as_double(futrace::detail::shared_region_snapshot().size()));

  const futrace::dsr::reachability_stats r = det.reachability_stats();
  t.add("dsr.precede_queries", as_double(r.precede_queries));
  t.add("dsr.memo_hits", as_double(r.memo_hits));
  t.add("dsr.visit_steps", as_double(r.visit_steps));
  t.add("dsr.nt_edges_walked", as_double(r.nt_edges_walked));
  t.add("dsr.lsa_hops", as_double(r.lsa_hops));
  t.peak("dsr.structure_bytes", as_double(det.structure_bytes()));
}

mode_result run_elision(program& p, const run_context& ctx) {
  mode_result r;
  phases ph;
  ph.t0 = bench_clock::now();
  {
    futrace::runtime rt({.mode = exec_mode::serial_elision});
    ph.t1 = bench_clock::now();
    rt.run([&p] { p.run(); });
    ph.t2 = ph.t3 = bench_clock::now();
  }
  r.ms = ph.total_ms();
  r.output_ok = p.verify();
  record_spans(ctx, mode_id::elision, ph);
  return r;
}

mode_result run_dfs_noop(program& p, const run_context& ctx) {
  mode_result r;
  phases ph;
  ph.t0 = bench_clock::now();
  noop_observer noop;
  futrace::runtime rt({.mode = exec_mode::serial_dfs});
  rt.add_observer(&noop);
  ph.t1 = bench_clock::now();
  rt.run([&p] { p.run(); });
  ph.t2 = ph.t3 = bench_clock::now();
  r.ms = ph.total_ms();
  r.output_ok = p.verify();
  r.layers.add("runtime.dfs_ns", as_double(ns_between(ph.t0, ph.t3)));
  r.layers.add("runtime.tasks", as_double(rt.tasks_spawned() - 1));
  record_spans(ctx, mode_id::dfs_noop, ph);
  return r;
}

mode_result run_inline(program& p, const run_context& ctx, bool traced) {
  mode_result r;
  phases ph;
  ph.t0 = bench_clock::now();
  fd::race_detector det;
  const auto constructed = bench_clock::now();
  timed_observer probe(det);
  futrace::runtime rt({.mode = exec_mode::serial_dfs});
  rt.add_observer(traced ? static_cast<futrace::execution_observer*>(&probe)
                         : &det);
  ph.t1 = bench_clock::now();
  rt.run([&p] { p.run(); });
  ph.t2 = bench_clock::now();
  r.v.raced = det.race_detected();
  ph.t3 = bench_clock::now();
  r.ms = ph.total_ms();
  r.output_ok = p.verify();
  r.has_verdict = true;
  fill_verdict(r.v, det);
  r.detector_bytes = det.memory_bytes();
  if (traced) {
    tally_inline(r.layers, det, probe, ph);
    r.layers.add("detect.construct_ns",
                 as_double(ns_between(ph.t0, constructed)));
  }
  record_spans(ctx, traced ? mode_id::inline_traced : mode_id::inline_plain,
               ph);
  return r;
}

mode_result run_pipelined(program& p, const run_context& ctx) {
  mode_result r;
  phases ph;
  ph.t0 = bench_clock::now();
  fd::race_detector::options opts;
  opts.detect_threads = ctx.split.pipe_checkers;
  fd::pipelined_detector det(opts);
  timed_observer probe(det);
  futrace::runtime rt({.mode = exec_mode::serial_dfs});
  rt.add_observer(ctx.traced
                      ? static_cast<futrace::execution_observer*>(&probe)
                      : &det);
  ph.t1 = bench_clock::now();
  rt.run([&p] { p.run(); });
  ph.t2 = bench_clock::now();
  r.v.raced = det.race_detected();
  ph.t3 = bench_clock::now();
  r.ms = ph.total_ms();
  r.output_ok = p.verify();
  r.engaged = det.pipelined();
  r.has_verdict = true;
  fill_verdict(r.v, det);
  if (ctx.traced) {
    const fd::pipeline_stats& s = det.pipe_stats();
    tally& t = r.layers;
    t.add("pipelined.construct_ns", as_double(ns_between(ph.t0, ph.t1)));
    t.add("pipelined.producer_ns",
          as_double(probe.access().ns + probe.structure().ns));
    t.add("pipelined.finalize_ns", as_double(ns_between(ph.t2, ph.t3)));
    t.add("pipelined.events", as_double(s.events));
    t.add("pipelined.split_subevents", as_double(s.split_subevents));
    t.add("pipelined.backpressure_waits", as_double(s.backpressure_waits));
    t.add("pipelined.occupancy_sum", as_double(s.occupancy_sum));
    t.add("pipelined.occupancy_capacity",
          as_double(s.occupancy_samples) * as_double(s.ring_capacity));
  }
  record_spans(ctx, mode_id::pipelined, ph);
  return r;
}

mode_result run_pardetect(program& p, const run_context& ctx, bool shared) {
  const mode_id m = shared ? mode_id::pardetect_shared : mode_id::pardetect;
  const unsigned workers =
      shared ? ctx.split.shared_workers : ctx.split.par_workers;
  fd::parallel_detector::tuning tune;
  tune.checkers = shared ? ctx.split.shared_checkers : ctx.split.par_checkers;
  tune.structure =
      shared ? fd::structure_mode::shared : fd::structure_mode::replicated;

  mode_result r;
  phases ph;
  ph.t0 = bench_clock::now();
  fd::parallel_detector det({}, tune);
  timed_sink probe(det);
  futrace::runtime rt({.mode = exec_mode::parallel_detect, .workers = workers});
  rt.add_parallel_sink(
      ctx.traced ? static_cast<futrace::detail::parallel_sink*>(&probe)
                 : &det);
  ph.t1 = bench_clock::now();
  rt.run([&p] { p.run(); });
  ph.t2 = bench_clock::now();
  r.v.raced = det.race_detected();
  ph.t3 = bench_clock::now();
  r.ms = ph.total_ms();
  r.output_ok = p.verify();
  r.engaged = det.parallel_active();
  r.has_verdict = true;
  fill_verdict(r.v, det);
  if (ctx.traced) {
    const std::string prefix = mode_name(m);
    const fd::pipeline_stats& s = det.pipe_stats();
    tally& t = r.layers;
    // The engine calls begin() from run(); it belongs to construction.
    t.add(prefix + ".construct_ns",
          as_double(ns_between(ph.t0, ph.t1) + probe.started().ns));
    t.add(prefix + ".emit_ns", as_double(probe.emit().ns));
    t.add(prefix + ".finalize_ns",
          as_double(probe.done().ns + ns_between(ph.t2, ph.t3)));
    t.add(prefix + ".backpressure_waits", as_double(s.backpressure_waits));
    t.add(prefix + ".spilled_events",
          as_double(det.par_stats().spilled_events));
    t.peak(prefix + ".structure_bytes", as_double(det.structure_bytes()));
    if (shared) {
      t.add(prefix + ".checker_wait_spins", as_double(s.checker_wait_spins));
      t.peak(prefix + ".structure_admit_lag_max",
             as_double(s.structure_admit_lag_max));
    }
  }
  record_spans(ctx, m, ph);
  return r;
}

}  // namespace

const char* mode_name(mode_id m) {
  switch (m) {
    case mode_id::elision: return "elision";
    case mode_id::dfs_noop: return "dfs_noop";
    case mode_id::inline_plain: return "inline";
    case mode_id::inline_traced: return "inline_traced";
    case mode_id::pipelined: return "pipelined";
    case mode_id::pardetect: return "pardetect";
    case mode_id::pardetect_shared: return "pardetect_shared";
  }
  return "?";
}

unsigned threads_of(mode_id m, const thread_split& split) {
  switch (m) {
    case mode_id::pipelined:
      return 1 + split.pipe_checkers;
    case mode_id::pardetect:
      return split.par_workers + split.par_checkers;
    case mode_id::pardetect_shared:
      return split.shared_workers + split.shared_checkers + 1;
    default:
      return 1;
  }
}

void tally::peak(const std::string& name, double v) {
  auto [it, inserted] = peaks_.emplace(name, v);
  if (!inserted) it->second = std::max(it->second, v);
}

void tally::merge(const tally& other) {
  for (const auto& [name, v] : other.sums_) add(name, v);
  for (const auto& [name, v] : other.peaks_) peak(name, v);
}

double tally::get(const std::string& name) const {
  if (auto it = sums_.find(name); it != sums_.end()) return it->second;
  if (auto it = peaks_.find(name); it != peaks_.end()) return it->second;
  return 0.0;
}

mode_result run_mode(mode_id m, program& p, const run_context& ctx) {
  switch (m) {
    case mode_id::elision: return run_elision(p, ctx);
    case mode_id::dfs_noop: return run_dfs_noop(p, ctx);
    case mode_id::inline_plain: return run_inline(p, ctx, false);
    case mode_id::inline_traced: return run_inline(p, ctx, true);
    case mode_id::pipelined: return run_pipelined(p, ctx);
    case mode_id::pardetect: return run_pardetect(p, ctx, false);
    case mode_id::pardetect_shared: return run_pardetect(p, ctx, true);
  }
  return {};
}

bool paper_counters_equal(const futrace::detect::detector_counters& a,
                          const futrace::detect::detector_counters& b) {
  return a.tasks == b.tasks && a.async_tasks == b.async_tasks &&
         a.future_tasks == b.future_tasks &&
         a.continuation_tasks == b.continuation_tasks &&
         a.promise_puts == b.promise_puts &&
         a.get_operations == b.get_operations &&
         a.non_tree_joins == b.non_tree_joins &&
         a.shared_mem_accesses == b.shared_mem_accesses &&
         a.reads == b.reads && a.writes == b.writes &&
         a.avg_readers == b.avg_readers && a.max_readers == b.max_readers &&
         a.locations == b.locations && a.races_observed == b.races_observed &&
         a.racy_locations == b.racy_locations &&
         a.untracked_accesses == b.untracked_accesses &&
         a.degraded == b.degraded;
}

}  // namespace perfbench
