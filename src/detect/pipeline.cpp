#include "futrace/detect/pipeline.hpp"

#include <unordered_map>
#include <vector>

#include "futrace/detect/event_ring.hpp"
#include "futrace/detect/parallel_pipeline.hpp"
#include "futrace/support/alloc_gate.hpp"

namespace futrace::detect {

/// Translates the serial observer stream into the parallel wire and feeds
/// it, as producer 0, to a replicated parallel_detector. The wire names a
/// task by the base id of its continuation chain (its pid); the checkers'
/// DFS replayer re-derives everything the serial engine adds on top of
/// that — continuation splits at puts and at the end of a joined child
/// that saw puts, the continuations' ends, finish joined-lists, and dense
/// renumbering — so none of it is sent.
struct pipelined_detector::impl {
  /// Mirror of one serial task frame.
  struct frame {
    task_id base;
    bool continuation;
  };

  std::unique_ptr<race_detector> inline_det;  // inline mode
  std::unique_ptr<parallel_detector> par;     // pipelined mode
  pipeline_stats inline_stats;                // inline mode's pipe_stats()
  std::vector<frame> stack;
  /// Pre-put identity -> put ordinal (1, 2, ...). A get on that identity is
  /// a promise get and names the put; any other get names a future's pid.
  std::unordered_map<task_id, std::uint64_t> put_of;
  std::uint64_t puts = 0;

  task_id pid() const { return stack.back().base; }
};

pipelined_detector::pipelined_detector(race_detector::options opts)
    : pipelined_detector(opts, tuning{}) {}

pipelined_detector::pipelined_detector(race_detector::options opts,
                                       tuning tune)
    : impl_(std::make_unique<impl>()) {
  const unsigned requested = opts.detect_threads;
  // fail_fast must throw at the faulting access on the execution thread, so
  // it forces inline mode regardless of detect_threads.
  bool pipelined = requested > 0 && !opts.fail_fast;
  if (pipelined) {
    // The one producer's ring, which every checker reads.
    std::size_t cap = 2;
    while (cap < tune.ring_capacity) cap <<= 1;
    if (support::alloc_should_fail(cap * sizeof(pipe_event))) {
      // Ring allocation refused: degrade to inline checking, sticky and
      // counted, exactly like a dead checker.
      pipelined = false;
      ++impl_->inline_stats.inline_fallbacks;
    }
  }
  opts.detect_threads = 0;
  if (!pipelined) {
    impl_->inline_det = std::make_unique<race_detector>(opts);
    return;
  }
  parallel_detector::tuning par_tune;
  par_tune.ring_capacity = tune.ring_capacity;
  par_tune.checkers = requested;
  par_tune.chunk_shift = tune.chunk_shift;
  impl_->par = std::make_unique<parallel_detector>(opts, par_tune);
  // begin() gates the ring block again; a plan that refuses only that
  // second request runs parallel_detector's buffer mode (exact, no
  // overlap).
  impl_->par->begin(1);
}

pipelined_detector::~pipelined_detector() = default;
pipelined_detector::pipelined_detector(pipelined_detector&&) noexcept =
    default;
pipelined_detector& pipelined_detector::operator=(
    pipelined_detector&&) noexcept = default;

void pipelined_detector::on_program_start(task_id root) {
  impl& im = *impl_;
  if (!im.par) return im.inline_det->on_program_start(root);
  im.stack.push_back({root, false});
  im.par->emit_program_start(0, root);
}

void pipelined_detector::on_task_spawn(task_id parent, task_id child,
                                       task_kind kind) {
  impl& im = *impl_;
  if (!im.par) return im.inline_det->on_task_spawn(parent, child, kind);
  if (kind == task_kind::continuation) {
    im.stack.push_back({im.pid(), true});
    return;
  }
  im.par->emit_spawn(0, im.pid(), child, kind);
  im.stack.push_back({child, false});
}

void pipelined_detector::on_task_end(task_id t) {
  impl& im = *impl_;
  if (!im.par) return im.inline_det->on_task_end(t);
  const impl::frame top = im.stack.back();
  im.stack.pop_back();
  // The replayer ends a chain's continuations at its base's end, and
  // finalize closes the root's chain.
  if (top.continuation || im.stack.empty()) return;
  im.par->emit_task_end(0, top.base);
}

void pipelined_detector::on_finish_start(task_id owner) {
  impl& im = *impl_;
  if (!im.par) return im.inline_det->on_finish_start(owner);
  im.par->emit_finish_begin(0, im.pid());
}

void pipelined_detector::on_finish_end(task_id owner,
                                       std::span<const task_id> joined) {
  impl& im = *impl_;
  if (!im.par) return im.inline_det->on_finish_end(owner, joined);
  im.par->emit_finish_end(0, im.pid());
}

void pipelined_detector::on_get(task_id waiter, task_id target) {
  impl& im = *impl_;
  if (!im.par) return im.inline_det->on_get(waiter, target);
  std::uint64_t put_ref = 0;
  if (im.puts != 0) {
    const auto it = im.put_of.find(target);
    if (it != im.put_of.end()) put_ref = it->second;
  }
  im.par->emit_get(0, im.pid(), target, put_ref);
}

void pipelined_detector::on_promise_put(task_id fulfiller) {
  impl& im = *impl_;
  if (!im.par) return im.inline_det->on_promise_put(fulfiller);
  im.put_of.emplace(fulfiller, ++im.puts);
  im.par->emit_put(0, im.pid(), im.puts);
}

void pipelined_detector::on_read(task_id t, const void* addr,
                                 std::size_t size, access_site site) {
  impl& im = *impl_;
  if (!im.par) return im.inline_det->on_read(t, addr, size, site);
  im.par->emit_read(0, im.pid(), addr, size, site);
}

void pipelined_detector::on_write(task_id t, const void* addr,
                                  std::size_t size, access_site site) {
  impl& im = *impl_;
  if (!im.par) return im.inline_det->on_write(t, addr, size, site);
  im.par->emit_write(0, im.pid(), addr, size, site);
}

void pipelined_detector::on_read_range(task_id t, const void* addr,
                                       std::size_t count, std::size_t stride,
                                       access_site site) {
  impl& im = *impl_;
  if (!im.par) {
    return im.inline_det->on_read_range(t, addr, count, stride, site);
  }
  im.par->emit_read_range(0, im.pid(), addr, count, stride, site);
}

void pipelined_detector::on_write_range(task_id t, const void* addr,
                                        std::size_t count, std::size_t stride,
                                        access_site site) {
  impl& im = *impl_;
  if (!im.par) {
    return im.inline_det->on_write_range(t, addr, count, stride, site);
  }
  im.par->emit_write_range(0, im.pid(), addr, count, stride, site);
}

void pipelined_detector::on_region_retire(task_id t, const void* addr,
                                          std::size_t bytes) {
  impl& im = *impl_;
  if (!im.par) return im.inline_det->on_region_retire(t, addr, bytes);
  im.par->emit_region_retire(0, im.pid(), addr, bytes);
}

void pipelined_detector::on_program_end() {
  impl& im = *impl_;
  if (!im.par) return im.inline_det->on_program_end();
  im.par->program_done();
}

bool pipelined_detector::race_detected() const { return race_count() > 0; }

std::uint64_t pipelined_detector::race_count() const {
  return impl_->par ? impl_->par->race_count()
                    : impl_->inline_det->race_count();
}

bool pipelined_detector::degraded() const {
  return impl_->par ? impl_->par->degraded() : impl_->inline_det->degraded();
}

const std::vector<race_report>& pipelined_detector::reports() const {
  return impl_->par ? impl_->par->reports() : impl_->inline_det->reports();
}

std::vector<const void*> pipelined_detector::racy_locations() const {
  return impl_->par ? impl_->par->racy_locations()
                    : impl_->inline_det->racy_locations();
}

detector_counters pipelined_detector::counters() const {
  return impl_->par ? impl_->par->counters() : impl_->inline_det->counters();
}

std::size_t pipelined_detector::memory_bytes() const {
  return impl_->par ? impl_->par->memory_bytes()
                    : impl_->inline_det->memory_bytes();
}

const pipeline_stats& pipelined_detector::pipe_stats() const {
  return impl_->par ? impl_->par->pipe_stats() : impl_->inline_stats;
}

std::vector<std::uint64_t> pipelined_detector::suppression_hits() const {
  return impl_->par ? impl_->par->suppression_hits()
                    : impl_->inline_det->suppression_hits();
}

bool pipelined_detector::pipelined() const { return impl_->par != nullptr; }

}  // namespace futrace::detect
