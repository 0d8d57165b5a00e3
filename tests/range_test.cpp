// Tests for the bulk-access layer: mixed-size scalar accesses that straddle
// several shadow strides (the size-decomposition regression from the range
// work), and the slab run-summary lifecycle (establishment, O(1) re-sweep
// hits, materialization back to per-cell state on divergence).
//
// Soundness contract under test: a scalar access of `size` bytes into a
// registered region of stride `s` must be checked against every element it
// overlaps — not just the first — and every configuration (ranges on,
// --no-ranges, --no-fastpath) must agree on the racy-location set.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <set>
#include <source_location>
#include <string>
#include <vector>

#include "futrace/detect/parallel_pipeline.hpp"
#include "futrace/detect/pipeline.hpp"
#include "futrace/detect/race_detector.hpp"
#include "futrace/detect/race_report.hpp"
#include "futrace/runtime/runtime.hpp"
#include "futrace/runtime/shared.hpp"
#include "futrace/runtime/shared_regions.hpp"
#include "futrace/support/alloc_gate.hpp"

namespace futrace {
namespace {

/// Racy locations as byte offsets from `base`, the run's array.
std::set<std::ptrdiff_t> racy_offsets(const detect::race_detector& det,
                                      const void* base) {
  std::set<std::ptrdiff_t> offsets;
  for (const void* loc : det.racy_locations()) {
    offsets.insert(static_cast<const char*>(loc) -
                   static_cast<const char*>(base));
  }
  return offsets;
}

detect::race_detector::options config(bool fastpath, bool ranges) {
  detect::race_detector::options opts;
  opts.enable_fastpath = fastpath;
  opts.enable_range_checks = ranges;
  return opts;
}

template <typename Body>
detect::race_detector run_detected(detect::race_detector::options opts,
                                   Body&& body) {
  detect::race_detector det(opts);
  runtime rt({.mode = exec_mode::serial_dfs});
  rt.add_observer(&det);
  rt.run(body);
  return det;
}

/// All three configurations on one program; returns the ranges-on detector
/// after asserting the racy sets agree. Each run allocates a fresh array
/// and `body` stores its base in its argument, so the sets are compared as
/// offsets from that base: an allocator need not hand a run the block the
/// previous run freed (ASan's quarantine never does).
template <typename Body>
detect::race_detector run_all_configs(Body&& body) {
  const void* base = nullptr;
  const auto run = [&](bool fastpath, bool ranges) {
    return run_detected(config(fastpath, ranges), [&] { body(base); });
  };
  auto ranged = run(true, true);
  const std::set<std::ptrdiff_t> offsets = racy_offsets(ranged, base);
  auto scalar = run(true, false);
  EXPECT_EQ(racy_offsets(scalar, base), offsets) << "ranges on vs --no-ranges";
  auto plain = run(false, true);
  EXPECT_EQ(racy_offsets(plain, base), offsets) << "ranges on vs --no-fastpath";
  return ranged;
}

// ----------------------------------------------------------- mixed-size sizes

// Regression: an 8-byte scalar access into a byte array spans eight shadow
// strides. The detector must check all eight locations — under-checking
// here silently dropped seven racy cells before size decomposition existed.
TEST(MixedSizeAccess, WideScalarReadChecksEveryElement) {
  auto program = [](const void*& base) {
    shared_array<std::uint8_t> bytes(64, 0);
    base = bytes.address(0);
    auto f = async_future([&] {
      for (std::size_t i = 0; i < 8; ++i) {
        bytes.write(i, static_cast<std::uint8_t>(i));
      }
    });
    // One word-sized load covering bytes 0..7, as compiled field/array
    // accesses wider than the element stride would produce.
    detail::instrument_read(bytes.address(0), 8,
                            std::source_location::current());
    f.get();
  };
  auto det = run_all_configs(program);
  EXPECT_TRUE(det.race_detected());
  EXPECT_EQ(det.counters().racy_locations, 8u)
      << "every byte under the wide load must be flagged, not just the first";
}

TEST(MixedSizeAccess, WideScalarWriteChecksEveryElement) {
  auto program = [](const void*& base) {
    shared_array<std::uint32_t> words(16, 0);
    base = words.address(0);
    auto f = async_future([&] {
      (void)words.read(0);
      (void)words.read(1);
      (void)words.read(5);  // outside the wide store: must stay race-free
    });
    // An 8-byte store over elements 0 and 1.
    detail::instrument_write(words.address(0), 8,
                             std::source_location::current());
    f.get();
  };
  auto det = run_all_configs(program);
  EXPECT_TRUE(det.race_detected());
  EXPECT_EQ(det.counters().racy_locations, 2u);
}

// An access that straddles an element boundary without covering either
// element fully still conflicts with both.
TEST(MixedSizeAccess, UnalignedStraddleCoversBothElements) {
  auto program = [](const void*& base) {
    shared_array<std::uint32_t> words(8, 0);
    base = words.address(0);
    auto f = async_future([&] {
      words.write(0, 1);
      words.write(1, 2);
    });
    const void* mid =
        static_cast<const char*>(words.address(0)) + 2;  // bytes 2..5
    detail::instrument_read(mid, 4, std::source_location::current());
    f.get();
  };
  auto det = run_all_configs(program);
  EXPECT_TRUE(det.race_detected());
  EXPECT_EQ(det.counters().racy_locations, 2u);
}

// Element-sized accesses must keep taking the one-cell path: no behavioural
// change for the overwhelmingly common case.
TEST(MixedSizeAccess, ElementSizedAccessStaysScalar) {
  auto det = run_detected(config(true, true), [] {
    shared_array<std::uint32_t> words(8, 0);
    finish([&] {
      async([&] { words.write(3, 7); });
    });
    (void)words.read(3);
  });
  EXPECT_FALSE(det.race_detected());
  EXPECT_EQ(det.counters().range_events, 0u);
}

// ------------------------------------------------------------- run summaries

// After an unjoined future bulk-writes a whole array, a scalar read into the
// middle must materialize the slab summary back to per-cell state and still
// report the race on exactly the touched cell.
TEST(RangeSummary, ScalarAccessMaterializesAndKeepsVerdict) {
  auto program = [](const void*& base) {
    shared_array<int> data(128, 0);
    base = data.address(0);
    auto f = async_future([&] {
      const auto out = data.write_all();
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = static_cast<int>(i);
      }
    });
    (void)data.read(64);  // races with the unjoined bulk writer
    f.get();
  };
  auto det = run_all_configs(program);
  EXPECT_TRUE(det.race_detected());
  EXPECT_EQ(det.counters().racy_locations, 1u);
}

// A partial range into a summarized slab materializes too; with the writer
// joined, no races appear and later full sweeps still work.
TEST(RangeSummary, PartialRangeAfterSummaryStaysRaceFree) {
  auto det = run_detected(config(true, true), [] {
    shared_array<int> data(128, 0);
    finish([&] {
      async([&] {
        const auto out = data.write_all();
        for (std::size_t i = 0; i < out.size(); ++i) {
          out[i] = static_cast<int>(i);
        }
      });
    });
    long sum = 0;
    const auto part = data.read_range(10, 50);
    for (const int v : part) sum += v;
    const auto all = data.read_all();
    for (const int v : all) sum += v;
    (void)sum;
  });
  EXPECT_FALSE(det.race_detected());
  EXPECT_EQ(det.counters().reads, 50u + 128u);
  EXPECT_EQ(det.counters().writes, 128u);
}

// Interleaved full-array sweeps by ordered tasks: each sweep after the first
// should be answered by the summary tier in O(1) graph work.
TEST(RangeSummary, OrderedFullSweepsHitSummaryTier) {
  auto det = run_detected(config(true, true), [] {
    shared_array<double> grid(512, 0.0);
    for (int pass = 0; pass < 4; ++pass) {
      finish([&] {
        async([&] {
          const auto out = grid.write_all();
          for (std::size_t i = 0; i < out.size(); ++i) {
            out[i] = static_cast<double>(pass) + static_cast<double>(i);
          }
        });
      });
    }
  });
  EXPECT_FALSE(det.race_detected());
  const auto c = det.counters();
  EXPECT_GT(c.summary_hits, 0u)
      << "iterated full-slab writes must use the O(1) summary update";
  EXPECT_EQ(c.writes, 4u * 512u);
}

// A fresh array's first full-array write is answered by the untouched
// summary every slab is born with: no per-cell walk, and the cells are
// allocated only when a scalar access diverges from the summary.
TEST(RangeSummary, FreshSlabFirstFullWriteHitsSummary) {
  auto det = run_all_configs([](const void*& base) {
    shared_array<int> data(256, 0);
    base = data.address(0);
    finish([&] {
      async([&] { (void)data.write_all(); });
    });
    (void)data.read(7);
  });
  EXPECT_FALSE(det.race_detected());
  const auto c = det.counters();
  EXPECT_EQ(c.summary_hits, 256u);
  EXPECT_EQ(c.locations, 256u);
  EXPECT_EQ(det.storage_stats().summaries_established, 0u);
  EXPECT_EQ(det.storage_stats().summary_materializations, 1u);
}

// ------------------------------------------------- refused cell allocation
//
// A slab's cells are allocated on its first materialization, after the
// build admitted the slab. The gate below admits the build's request and
// refuses the allocation itself.

std::size_t g_cell_bytes = 0;
int g_cell_requests = 0;

bool refuse_cell_allocation(std::size_t bytes) noexcept {
  return bytes == g_cell_bytes && ++g_cell_requests > 1;
}

constexpr std::size_t k_gated_elems = 1000;

template <typename Body>
detect::race_detector run_with_refused_cells(Body&& body) {
  g_cell_bytes = k_gated_elems * sizeof(detect::shadow_cell);
  g_cell_requests = 0;
  support::alloc_gate().store(refuse_cell_allocation);
  auto det = run_detected(config(true, true), body);
  support::alloc_gate().store(nullptr);
  EXPECT_EQ(g_cell_requests, 2) << "build admitted, allocation refused";
  return det;
}

// An untouched slab whose cells cannot be allocated falls back to the
// hashed tier and the partial range is checked per element: same verdict
// and paper counters as without the refusal, and no degradation.
TEST(RangeSummary, RefusedCellAllocationChecksPerElement) {
  auto program = [] {
    shared_array<int> data(k_gated_elems, 0);
    auto f = async_future([&] { (void)data.write_range(0, 500); });
    (void)data.read_range(100, 50);  // races with the unjoined writer
    f.get();
  };
  auto reference = run_detected(config(true, true), program);
  auto det = run_with_refused_cells(program);
  EXPECT_FALSE(det.degraded());
  EXPECT_EQ(det.storage_stats().slab_fallbacks, 1u);
  const auto c = det.counters();
  const auto r = reference.counters();
  EXPECT_EQ(c.racy_locations, 50u);
  EXPECT_EQ(c.racy_locations, r.racy_locations);
  EXPECT_EQ(c.reads, r.reads);
  EXPECT_EQ(c.writes, r.writes);
  EXPECT_EQ(c.locations, r.locations);
}

// A slab whose summary already holds the future's write cannot hand it to
// the hashed tier without its cells: the refusal degrades the detector
// instead of throwing out of the access.
TEST(RangeSummary, RefusedCellAllocationAfterSummaryDegrades) {
  auto det = run_with_refused_cells([] {
    shared_array<int> data(k_gated_elems, 0);
    auto f = async_future([&] { (void)data.write_all(); });
    (void)data.read(64);
    f.get();
  });
  EXPECT_TRUE(det.degraded());
  EXPECT_NE(det.degradation_reasons() & detect::k_degraded_shadow_cap, 0u);
  EXPECT_EQ(det.counters().reads, 1u);
  EXPECT_EQ(det.counters().writes, k_gated_elems);
}

// ------------------------------------------------------------- region churn
//
// Thousands of live arrays registered and re-registered while the detector
// runs, in every detection configuration. The arrays live in one pool of
// 64-byte slots registered by hand, so every run sees the same addresses and
// no array straddles a shard chunk. Registration changes happen only while
// the root task runs alone, so parallel execution canonicalizes accesses
// against the same geometry as the serial run. The accesses are
// instrumentation events only, so the racy ones touch no memory when the
// program runs in parallel.

struct alignas(64) churn_slot {
  std::uint32_t words[16];
};

constexpr std::size_t k_churn_slots = 2112;  // all live at once
constexpr std::size_t k_premapped = 64;      // accessed before registration
constexpr std::size_t k_wide = 16;           // registered with 8-byte stride

void churn_read(const void* p, std::size_t bytes,
                std::source_location loc = std::source_location::current()) {
  detail::instrument_read(p, bytes, loc);
}
void churn_write(const void* p, std::size_t bytes,
                 std::source_location loc = std::source_location::current()) {
  detail::instrument_write(p, bytes, loc);
}
void churn_read_range(
    const void* p, std::size_t count, std::size_t stride,
    std::source_location loc = std::source_location::current()) {
  detail::instrument_read_range(p, count, stride, loc);
}
void churn_write_range(
    const void* p, std::size_t count, std::size_t stride,
    std::source_location loc = std::source_location::current()) {
  detail::instrument_write_range(p, count, stride, loc);
}

/// The churn program over `pool`; counts refused (un)registrations.
struct churn_program {
  std::vector<churn_slot>& pool;
  std::size_t& refused;

  const void* word(std::size_t s, std::size_t i) const {
    return &pool[s].words[i];
  }
  void reg(std::size_t s, std::size_t bytes, std::size_t stride) const {
    if (!detail::register_shared_region(pool[s].words, bytes, stride)) {
      ++refused;
    }
  }
  void unreg(std::size_t s) const {
    if (!detail::unregister_shared_region(pool[s].words)) ++refused;
  }

  /// Slot `s`'s first access after registration, by kind: a full write, a
  /// full read, a partial range, or a scalar write.
  void first_access(std::size_t s) const {
    const std::size_t stride = s < k_wide ? 8 : 4;
    const std::size_t n = 32 / stride;
    switch (s % 4) {
      case 0:
        churn_write_range(word(s, 0), n, stride);
        break;
      case 1:
        churn_read_range(word(s, 0), n, stride);
        break;
      case 2:
        churn_write_range(word(s, stride / 4), n / 2, stride);
        break;
      default:
        churn_write(word(s, 6), stride);
        break;
    }
  }

  void operator()() const {
    // Hashed-tier state for slots registered later: their cells migrate into
    // the slab (word 1 of a wide slot is inside an element and stays hashed).
    finish([this] {
      for (std::size_t s = 0; s < k_premapped; ++s) {
        async([this, s] {
          churn_write(word(s, 0), 4);
          churn_write(word(s, 1), 4);
          churn_read(word(s, 4), 4);
        });
      }
    });
    for (std::size_t s = 0; s < k_churn_slots; ++s) {
      reg(s, 32, s < k_wide ? 8 : 4);
    }
    // First accesses in batches, each by an unjoined future; the root races
    // with some of them before joining.
    for (std::size_t b = 0; b < k_churn_slots; b += 32) {
      auto f = async_future([this, b] {
        for (std::size_t s = b; s < b + 32; ++s) first_access(s);
      });
      for (std::size_t s = b; s < b + 32; s += 7) {
        churn_read(word(s, 0), s < k_wide ? 8 : 4);
      }
      f.get();
    }
    // Ordered full sweeps: every slab is back to one uniform state.
    for (const bool write : {false, true}) {
      finish([this, write] {
        for (std::size_t b = 0; b < k_churn_slots; b += 64) {
          async([this, b, write] {
            for (std::size_t s = b; s < b + 64; ++s) {
              const std::size_t stride = s < k_wide ? 8 : 4;
              if (write) {
                churn_write_range(word(s, 0), 32 / stride, stride);
              } else {
                churn_read_range(word(s, 0), 32 / stride, stride);
              }
            }
          });
        }
      });
    }
    // Re-registration at the same address: identical geometry, an 8-byte
    // stride over the whole slot, and a shrunk range.
    for (std::size_t s = 100; s < 164; ++s) {
      unreg(s);
      reg(s, 32, 4);
    }
    for (std::size_t s = 164; s < 228; ++s) {
      unreg(s);
      reg(s, 64, 8);
    }
    for (std::size_t s = 228; s < 260; ++s) {
      unreg(s);
      reg(s, 16, 4);
    }
    auto f = async_future([this] {
      for (std::size_t s = 100; s < 228; ++s) {
        churn_write_range(word(s, 0), 8, s < 164 ? 4 : 8);
      }
      for (std::size_t s = 228; s < 260; ++s) {
        churn_read_range(word(s, 0), 4, 4);
      }
    });
    // In an 8-byte slot, word 1 lies inside element 0 and canonicalizes to
    // its base.
    for (std::size_t s = 100; s < 260; s += 5) churn_read(word(s, 1), 4);
    for (std::size_t s = 228; s < 260; s += 3) churn_write(word(s, 2), 4);
    f.get();
    finish([this] {
      async([this] {
        for (std::size_t s = 164; s < 228; s += 2) churn_write(word(s, 10), 8);
        for (std::size_t s = 228; s < 260; ++s) churn_write(word(s, 6), 4);
      });
    });
    for (std::size_t s = 0; s < k_churn_slots; ++s) unreg(s);
  }
};

/// Address-free identity of one report: locations as pool byte offsets.
struct churn_sig {
  detect::race_kind kind;
  std::ptrdiff_t offset;
  task_id first_task;
  task_id second_task;
  std::uint32_t first_line;
  std::uint32_t second_line;
  std::uint64_t occurrences;

  bool operator==(const churn_sig&) const = default;
};

struct churn_result {
  bool detected = false;
  std::uint64_t races = 0;
  detect::detector_counters counters;
  std::set<std::ptrdiff_t> racy;
  std::vector<churn_sig> sigs;
  std::size_t refused = 0;
};

template <typename Det>
churn_result collect(const Det& det, const std::vector<churn_slot>& pool) {
  const char* base = reinterpret_cast<const char*>(pool.data());
  const auto offset = [base](const void* p) {
    return static_cast<const char*>(p) - base;
  };
  churn_result r;
  r.detected = det.race_detected();
  r.races = det.race_count();
  r.counters = det.counters();
  for (const void* p : det.racy_locations()) r.racy.insert(offset(p));
  std::vector<detect::race_report> reports = det.reports();
  detect::sort_reports_canonical(reports);
  for (const detect::race_report& rep : reports) {
    r.sigs.push_back(churn_sig{rep.kind, offset(rep.location),
                               rep.first_task, rep.second_task,
                               rep.first_site.line, rep.second_site.line,
                               rep.occurrences});
  }
  return r;
}

detect::race_detector::options churn_options() {
  detect::race_detector::options opts;
  opts.max_reports = 1u << 20;  // compare full report lists
  return opts;
}

churn_result churn_serial(detect::race_detector::options opts,
                          std::vector<churn_slot>& pool) {
  std::size_t refused = 0;
  detect::race_detector det(opts);
  runtime rt({.mode = exec_mode::serial_dfs});
  rt.add_observer(&det);
  rt.run(churn_program{pool, refused});
  churn_result r = collect(det, pool);
  r.refused = refused;
  return r;
}

churn_result churn_pipelined(std::vector<churn_slot>& pool) {
  std::size_t refused = 0;
  detect::race_detector::options opts = churn_options();
  opts.detect_threads = 3;
  detect::pipelined_detector det(opts);
  runtime rt({.mode = exec_mode::serial_dfs});
  rt.add_observer(&det);
  rt.run(churn_program{pool, refused});
  EXPECT_TRUE(det.pipelined());
  churn_result r = collect(det, pool);
  r.refused = refused;
  return r;
}

churn_result churn_parallel(detect::structure_mode structure,
                            std::vector<churn_slot>& pool) {
  std::size_t refused = 0;
  detect::parallel_detector::tuning tune;
  tune.checkers = 2;
  tune.structure = structure;
  detect::parallel_detector det(churn_options(), tune);
  runtime rt({.mode = exec_mode::parallel_detect, .workers = 2});
  rt.add_parallel_sink(&det);
  rt.run(churn_program{pool, refused});
  EXPECT_TRUE(det.parallel_active());
  churn_result r = collect(det, pool);
  r.refused = refused;
  return r;
}

void expect_churn_equal(const churn_result& a, const churn_result& ref,
                        const std::string& label) {
  EXPECT_EQ(a.refused, 0u) << label;
  EXPECT_EQ(a.detected, ref.detected) << label;
  EXPECT_EQ(a.races, ref.races) << label;
  EXPECT_EQ(a.racy, ref.racy) << label;
  EXPECT_EQ(a.sigs, ref.sigs) << label;
  const detect::detector_counters& c = a.counters;
  const detect::detector_counters& r = ref.counters;
  EXPECT_EQ(c.tasks, r.tasks) << label;
  EXPECT_EQ(c.future_tasks, r.future_tasks) << label;
  EXPECT_EQ(c.get_operations, r.get_operations) << label;
  EXPECT_EQ(c.shared_mem_accesses, r.shared_mem_accesses) << label;
  EXPECT_EQ(c.reads, r.reads) << label;
  EXPECT_EQ(c.writes, r.writes) << label;
  EXPECT_EQ(c.locations, r.locations) << label;
  EXPECT_EQ(c.races_observed, r.races_observed) << label;
  EXPECT_EQ(c.racy_locations, r.racy_locations) << label;
  EXPECT_EQ(c.max_readers, r.max_readers) << label;
  EXPECT_DOUBLE_EQ(c.avg_readers, r.avg_readers) << label;
  EXPECT_EQ(c.degraded, r.degraded) << label;
}

TEST(RegionChurn, AllConfigurationsAgree) {
  std::vector<churn_slot> pool(k_churn_slots);
  const churn_result ref = churn_serial(churn_options(), pool);
  EXPECT_EQ(ref.refused, 0u);
  EXPECT_TRUE(ref.detected);
  EXPECT_GT(ref.counters.locations, 8u * k_churn_slots);

  detect::race_detector::options no_ranges = churn_options();
  no_ranges.enable_range_checks = false;
  expect_churn_equal(churn_serial(no_ranges, pool), ref, "--no-ranges");
  detect::race_detector::options no_fastpath = churn_options();
  no_fastpath.enable_fastpath = false;
  expect_churn_equal(churn_serial(no_fastpath, pool), ref, "--no-fastpath");
  expect_churn_equal(churn_pipelined(pool), ref, "pipelined W=3");
  expect_churn_equal(churn_parallel(detect::structure_mode::replicated, pool),
                     ref, "parallel-detect replicated");
  expect_churn_equal(churn_parallel(detect::structure_mode::shared, pool), ref,
                     "parallel-detect shared");
}

}  // namespace
}  // namespace futrace
