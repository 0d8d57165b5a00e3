// Differential tests for the concurrent detector's wire encoding: 32-byte
// events in one broadcast ring per producer, sites interned to 32-bit ids,
// ring positions as the report merge key. A synthetic racy program is fed
// through the public observer API (inline and pipelined W=3) and through
// the parallel_sink API (parallel-detect P=2, W=2, replicated and shared)
// at 64-byte chunks, so range accesses split into many sub-events. Every
// access names a fresh synthetic site, more than five thousand in all, and
// one task sweeps a range whose stride does not fit the wire's 32-bit
// field. Reports (sites, addresses, order, max_reports truncation),
// verdicts and racy sets must equal the inline detector's.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "futrace/detect/parallel_pipeline.hpp"
#include "futrace/detect/pipeline.hpp"
#include "futrace/detect/race_detector.hpp"

namespace futrace {
namespace {

using detect::parallel_detector;
using detect::pipelined_detector;
using detect::race_detector;
using detect::race_report;

constexpr unsigned k_chunk_shift = 6;  // 64-byte chunks
constexpr std::uint64_t k_base = 0x7f0000100000;
constexpr std::uint64_t k_wide_base = 0x100000000000;
constexpr std::uint64_t k_wide_stride = (std::uint64_t{1} << 32) + 8;

// Synthetic sites: distinct (file pointer, line) pairs. Two of the files
// share their text, so only the pointer tells their sites apart.
const char k_file_a[] = "wire_a.cpp";
const char k_file_b[] = "wire_b.cpp";
const char k_file_b_twin[] = "wire_b.cpp";
const char* const k_files[] = {k_file_a, k_file_b, k_file_b_twin};

/// One event of the synthetic program, in serial depth-first order. Task ids
/// are the serial engine's (root 0, children in spawn order); the program
/// has no promises, so a task's id is also its pid on the parallel wire.
struct step {
  enum class kind {
    spawn,
    end,
    get,
    read,
    write,
    read_range,
    write_range,
  } k;
  task_id t = 0;
  task_id other = 0;  // spawn: child; get: target
  std::uint64_t addr = 0;
  std::size_t count = 0;
  std::size_t stride = 0;
  access_site site;
};

struct program {
  std::vector<step> steps;
  task_id tasks = 1;
  unsigned sites = 0;
};

/// The root spawns futures that write overlapping strided ranges and
/// scalars, gets half of them, and reads what all of them wrote: races
/// between siblings, between the root and unjoined futures, none after a
/// get. One future sweeps a wide-stride range the root rewrites. Every
/// access has its own site.
program make_program() {
  program p;
  auto site = [&p] {
    const unsigned n = p.sites++;
    return access_site{k_files[n % 3], 1000 + n / 3};
  };
  constexpr task_id k_children = 48;
  for (task_id c = 1; c <= k_children; ++c) {
    p.steps.push_back({step::kind::spawn, 0, c, 0, 0, 0, {}});
    const std::uint64_t lo = k_base + (c % 8) * 256;
    for (int r = 0; r < 12; ++r) {
      const std::uint64_t a = lo + static_cast<std::uint64_t>(r) * 40;
      p.steps.push_back({step::kind::write_range, c, 0, a, 9, 8, site()});
      p.steps.push_back({step::kind::read_range, c, 0, a + 4, 5, 16, site()});
      p.steps.push_back({step::kind::write, c, 0, a + 72, 0, 0, site()});
      p.steps.push_back({step::kind::read, c, 0, a + 8 * (c % 5), 0, 0,
                         site()});
    }
    if (c == 7) {
      p.steps.push_back({step::kind::write_range, c, 0, k_wide_base, 6,
                         k_wide_stride, site()});
    }
    p.steps.push_back({step::kind::end, c, 0, 0, 0, 0, {}});
  }
  // The root races with every future it has not joined yet.
  for (int r = 0; r < 40; ++r) {
    p.steps.push_back({step::kind::read, 0, 0,
                       k_base + static_cast<std::uint64_t>(r) * 48, 0, 0,
                       site()});
  }
  p.steps.push_back({step::kind::read_range, 0, 0, k_wide_base + 8, 6,
                     k_wide_stride, site()});
  p.steps.push_back({step::kind::write_range, 0, 0, k_wide_base, 6,
                     k_wide_stride, site()});
  for (task_id c = 2; c <= k_children; c += 2) {
    p.steps.push_back({step::kind::get, 0, c, 0, 0, 0, {}});
  }
  for (int r = 0; r < 2400; ++r) {
    const std::uint64_t a = k_base + static_cast<std::uint64_t>(r % 512) * 4;
    p.steps.push_back({r % 3 == 0 ? step::kind::write : step::kind::read, 0, 0,
                       a, 0, 0, site()});
    if (r % 7 == 0) {
      p.steps.push_back({step::kind::write_range, 0, 0, a, 3, 24, site()});
    }
  }
  p.tasks = k_children + 1;
  return p;
}

/// The serial engine's observer stream for `p`: program start, the root's
/// implicit finish around the body, the root's end.
void feed_observer(const program& p, execution_observer& obs) {
  obs.on_program_start(0);
  obs.on_finish_start(0);
  for (const step& s : p.steps) {
    const void* a = reinterpret_cast<const void*>(s.addr);
    switch (s.k) {
      case step::kind::spawn:
        obs.on_task_spawn(s.t, s.other, task_kind::future);
        break;
      case step::kind::end:
        obs.on_task_end(s.t);
        break;
      case step::kind::get:
        obs.on_get(s.t, s.other);
        break;
      case step::kind::read:
        obs.on_read(s.t, a, 4, s.site);
        break;
      case step::kind::write:
        obs.on_write(s.t, a, 4, s.site);
        break;
      case step::kind::read_range:
        obs.on_read_range(s.t, a, s.count, s.stride, s.site);
        break;
      case step::kind::write_range:
        obs.on_write_range(s.t, a, s.count, s.stride, s.site);
        break;
    }
  }
  std::vector<task_id> joined;
  for (task_id c = 1; c < p.tasks; ++c) joined.push_back(c);
  obs.on_finish_end(0, joined);
  obs.on_task_end(0);
  obs.on_program_end();
}

/// The same program on the parallel wire from two producers: the root on
/// worker 0, child c on worker c % 2. The root's end is not sent (finalize
/// closes it) and the replayer rebuilds the finish's joined list.
void feed_sink(const program& p, parallel_detector& det) {
  const auto worker = [](task_id t) { return static_cast<unsigned>(t % 2); };
  det.begin(2);
  det.emit_program_start(0, 0);
  det.emit_finish_begin(0, 0);
  for (const step& s : p.steps) {
    const void* a = reinterpret_cast<const void*>(s.addr);
    const unsigned w = worker(s.t);
    switch (s.k) {
      case step::kind::spawn:
        det.emit_spawn(w, s.t, s.other, task_kind::future);
        break;
      case step::kind::end:
        det.emit_task_end(w, s.t);
        break;
      case step::kind::get:
        det.emit_get(w, s.t, s.other, 0);
        break;
      case step::kind::read:
        det.emit_read(w, s.t, a, 4, s.site);
        break;
      case step::kind::write:
        det.emit_write(w, s.t, a, 4, s.site);
        break;
      case step::kind::read_range:
        det.emit_read_range(w, s.t, a, s.count, s.stride, s.site);
        break;
      case step::kind::write_range:
        det.emit_write_range(w, s.t, a, s.count, s.stride, s.site);
        break;
    }
  }
  det.emit_finish_end(0, 0);
  det.program_done();
}

/// Everything a report says, sites by text and pointer.
std::string render(const race_report& r) {
  return std::to_string(static_cast<int>(r.kind)) + " " +
         std::to_string(reinterpret_cast<std::uintptr_t>(r.location)) + " " +
         std::to_string(reinterpret_cast<std::uintptr_t>(r.user_location)) +
         " " + std::to_string(r.first_task) + " " +
         std::to_string(r.second_task) + " " + r.first_site.file + ":" +
         std::to_string(r.first_site.line) + "@" +
         std::to_string(reinterpret_cast<std::uintptr_t>(r.first_site.file)) +
         " " + r.second_site.file + ":" + std::to_string(r.second_site.line) +
         "@" +
         std::to_string(reinterpret_cast<std::uintptr_t>(r.second_site.file)) +
         " x" + std::to_string(r.occurrences);
}

std::vector<std::string> render_all(const std::vector<race_report>& reports) {
  std::vector<std::string> out;
  for (const race_report& r : reports) out.push_back(render(r));
  return out;
}

struct outcome {
  bool raced = false;
  std::uint64_t races = 0;
  std::vector<const void*> racy;
  std::vector<std::string> reports;
  detect::pipeline_stats pipe;
};

template <typename Det>
outcome collect(const Det& det) {
  outcome o;
  o.raced = det.race_detected();
  o.races = det.race_count();
  o.racy = det.racy_locations();
  o.reports = render_all(det.reports());
  return o;
}

race_detector::options options_with(std::size_t max_reports) {
  race_detector::options opts;
  opts.max_reports = max_reports;
  return opts;
}

outcome run_inline(const program& p, std::size_t max_reports) {
  race_detector det(options_with(max_reports));
  feed_observer(p, det);
  return collect(det);
}

outcome run_pipelined(const program& p, std::size_t max_reports,
                      std::size_t ring_capacity) {
  race_detector::options opts = options_with(max_reports);
  opts.detect_threads = 3;
  pipelined_detector::tuning tune;
  tune.chunk_shift = k_chunk_shift;
  tune.ring_capacity = ring_capacity;
  pipelined_detector det(opts, tune);
  EXPECT_TRUE(det.pipelined());
  feed_observer(p, det);
  outcome o = collect(det);
  o.pipe = det.pipe_stats();
  return o;
}

outcome run_parallel(const program& p, std::size_t max_reports,
                     detect::structure_mode mode,
                     std::size_t ring_capacity) {
  parallel_detector::tuning tune;
  tune.checkers = 2;
  tune.chunk_shift = k_chunk_shift;
  tune.structure = mode;
  tune.ring_capacity = ring_capacity;
  parallel_detector det(options_with(max_reports), tune);
  feed_sink(p, det);
  outcome o = collect(det);
  o.pipe = det.pipe_stats();
  return o;
}

void expect_same(const outcome& got, const outcome& ref,
                 const std::string& label, bool canonical_order = false) {
  EXPECT_EQ(got.raced, ref.raced) << label;
  EXPECT_EQ(got.races, ref.races) << label;
  EXPECT_EQ(got.racy, ref.racy) << label;
  if (!canonical_order) {
    EXPECT_EQ(got.reports, ref.reports) << label;
    return;
  }
  std::vector<std::string> a = got.reports;
  std::vector<std::string> b = ref.reports;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b) << label;
}

TEST(PipelineWire, ManySitesSplitRangesAndWideStrideMatchInline) {
  const program p = make_program();
  ASSERT_GT(p.sites, 5000u);
  const outcome full = run_inline(p, 100000);
  ASSERT_TRUE(full.raced);
  ASSERT_GT(full.reports.size(), 500u);
  ASSERT_LT(full.reports.size(), 100000u);
  for (const std::size_t cap : {std::size_t{100000}, std::size_t{37}}) {
    const outcome ref = run_inline(p, cap);
    // A ring smaller than the run makes the producer wait on the checkers.
    for (const std::size_t ring : {std::size_t{1} << 14, std::size_t{64}}) {
      const std::string label = "max_reports=" + std::to_string(cap) +
                                " ring=" + std::to_string(ring);
      const outcome got = run_pipelined(p, cap, ring);
      expect_same(got, ref, label);
      EXPECT_EQ(got.pipe.workers_died, 0u) << label;
      EXPECT_GT(got.pipe.split_subevents, 0u) << label;
    }
  }
}

// The wide-stride rule alone: a range whose stride does not fit the wire's
// 32-bit field travels element by element (count-1 sub-events), so each
// element is checked, and reported, exactly as inline.
TEST(PipelineWire, WideStrideRangeTravelsElementByElement) {
  program p;
  p.steps.push_back({step::kind::spawn, 0, 1, 0, 0, 0, {}});
  p.steps.push_back({step::kind::write_range, 1, 0, k_wide_base, 5,
                     k_wide_stride, access_site{k_file_a, 1}});
  p.steps.push_back({step::kind::end, 1, 0, 0, 0, 0, {}});
  p.steps.push_back({step::kind::read_range, 0, 0, k_wide_base, 5,
                     k_wide_stride, access_site{k_file_a, 2}});
  p.tasks = 2;
  const outcome ref = run_inline(p, 100);
  ASSERT_EQ(ref.racy.size(), 5u);
  ASSERT_EQ(ref.reports.size(), 5u);
  for (const std::size_t ring : {std::size_t{1} << 14, std::size_t{4}}) {
    const outcome got = run_pipelined(p, 100, ring);
    expect_same(got, ref, "ring=" + std::to_string(ring));
    // Two ranges of five elements: four extra sub-events each.
    EXPECT_EQ(got.pipe.split_subevents, 8u);
    EXPECT_EQ(got.pipe.access_events, 2u);
  }
}

TEST(ParallelWire, ReplicatedMatchesInlineFromTwoProducers) {
  const program p = make_program();
  for (const std::size_t cap : {std::size_t{100000}, std::size_t{37}}) {
    const outcome ref = run_inline(p, cap);
    for (const std::size_t ring : {std::size_t{1} << 14, std::size_t{64}}) {
      const std::string label = "max_reports=" + std::to_string(cap) +
                                " ring=" + std::to_string(ring);
      const outcome got = run_parallel(
          p, cap, detect::structure_mode::replicated, ring);
      expect_same(got, ref, label);
      EXPECT_EQ(got.pipe.workers_died, 0u) << label;
    }
  }
}

// Shared mode merges reports canonically, so its order is not inline's;
// the set, verdicts and racy locations are.
TEST(ParallelWire, SharedMatchesInlineFromTwoProducers) {
  const program p = make_program();
  const outcome ref = run_inline(p, 100000);
  for (const std::size_t ring : {std::size_t{1} << 14, std::size_t{64}}) {
    const std::string label = "ring=" + std::to_string(ring);
    const outcome got =
        run_parallel(p, 100000, detect::structure_mode::shared, ring);
    expect_same(got, ref, label, /*canonical_order=*/true);
    EXPECT_EQ(got.pipe.workers_died, 0u) << label;
  }
}

}  // namespace
}  // namespace futrace
