// Heap-instrumentation layer tests (DESIGN.md §16): allocator
// interposition, the STL demo (std::vector / linked-list kernels detected
// with ZERO shared_array in user code, verdict-differential against the
// wrapped equivalents), the realloc migration path, annotation macros,
// registration gating, and the shared_regions satellite fixes (stride
// truncation rejection, unregister_shared_region's bool).
//
// This binary links futrace::hooks_interpose, so — outside FUTRACE_SANITIZE
// builds, where that TU compiles to nothing — every malloc/new in the
// process routes through the hooks. FUTRACE_TEST_EXPECT_INTERPOSE (set by
// CMake to 1, or 0 under sanitizers) pins which variant was built;
// InterpositionMatchesBuildConfig fails if the link line ever drifts.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "futrace/detect/parallel_pipeline.hpp"
#include "futrace/detect/race_detector.hpp"
#include "futrace/hook/heap_hooks.hpp"
#include "futrace/runtime/runtime.hpp"
#include "futrace/runtime/shared_regions.hpp"
#include "futrace/support/thread_pool.hpp"

#ifndef FUTRACE_TEST_EXPECT_INTERPOSE
#error "CMake must define FUTRACE_TEST_EXPECT_INTERPOSE for this test"
#endif

namespace futrace {
namespace {

class HeapHooks : public ::testing::Test {
 protected:
  void SetUp() override { hook::reset(); }
  void TearDown() override { hook::reset(); }
};

TEST_F(HeapHooks, InterpositionMatchesBuildConfig) {
  EXPECT_EQ(hook::interposition_active(), FUTRACE_TEST_EXPECT_INTERPOSE == 1)
      << "sanitizer builds must compile the allocator interposer out "
         "(weak-false fallback); regular builds must link it in";
}

// ------------------------------------------------------------ STL demo

/// The wrapped equivalent of the vector kernel below: same DAG, same
/// access pattern, shared state declared through shared_array.
detect::detector_counters wrapped_vector_kernel(bool racy) {
  detect::race_detector det(detect::race_detector::options{});
  runtime rt({.mode = exec_mode::serial_dfs});
  rt.add_observer(&det);
  rt.run([&] {
    shared_array<int> data(64, 0);
    finish([&] {
      async([&] {
        for (std::size_t i = 0; i < 32; ++i) data.write(i, 1);
      });
      async([&, racy] {
        const std::size_t base = racy ? 16 : 32;
        for (std::size_t i = 0; i < 32; ++i) data.write(base + i, 2);
      });
    });
  });
  return det.counters();
}

/// The same kernel over a plain std::vector<int>: no shared_array
/// anywhere — the heap hooks register the vector's buffer, and per-access
/// instrumentation comes from write_shared on the elements.
detect::detector_counters stl_vector_kernel(bool racy) {
  hook::set_heap_instrumentation(true);
  detect::race_detector det(detect::race_detector::options{});
  runtime rt({.mode = exec_mode::serial_dfs});
  rt.add_observer(&det);
  rt.run([&] {
    std::vector<int> data(64, 0);
    finish([&] {
      async([&] {
        for (std::size_t i = 0; i < 32; ++i) write_shared(data[i], 1);
      });
      async([&, racy] {
        const std::size_t base = racy ? 16 : 32;
        for (std::size_t i = 0; i < 32; ++i) write_shared(data[base + i], 2);
      });
    });
  });
  hook::set_heap_instrumentation(false);
  return det.counters();
}

/// Verdict differential: the STL kernel and its wrapped equivalent must
/// agree on every structural paper counter — same verdict, same race
/// count, same access/location totals — in both the racy and the clean
/// shape.
TEST_F(HeapHooks, StlVectorKernelDifferentialEqualsWrapped) {
  for (const bool racy : {true, false}) {
    const detect::detector_counters stl = stl_vector_kernel(racy);
    const detect::detector_counters wrapped = wrapped_vector_kernel(racy);
    const char* label = racy ? "racy" : "clean";
    EXPECT_EQ(stl.races_observed, wrapped.races_observed) << label;
    EXPECT_EQ(stl.racy_locations, wrapped.racy_locations) << label;
    EXPECT_EQ(stl.tasks, wrapped.tasks) << label;
    EXPECT_EQ(stl.writes, wrapped.writes) << label;
    EXPECT_EQ(stl.reads, wrapped.reads) << label;
    EXPECT_EQ(stl.locations, wrapped.locations) << label;
    if (racy) {
      EXPECT_GT(stl.races_observed, 0u) << "racy shape must actually race";
    } else {
      EXPECT_EQ(stl.races_observed, 0u);
    }
  }
  if (hook::interposition_active()) {
    // The vector's buffer really flowed through the allocator hooks.
    EXPECT_GT(hook::stats().blocks_registered, 0u);
    EXPECT_GT(hook::stats().blocks_retired, 0u);
  }
}

/// Linked-list kernel: nodes allocated with plain `new`, fields accessed
/// through read_shared/write_shared. Two unordered tasks writing the same
/// node race; writing distinct nodes is clean. Zero shared_array.
TEST_F(HeapHooks, LinkedListKernelDetectsRaces) {
  struct node {
    int value = 0;
    node* next = nullptr;
  };
  hook::set_heap_instrumentation(true);
  for (const bool racy : {true, false}) {
    detect::race_detector det(detect::race_detector::options{});
    runtime rt({.mode = exec_mode::serial_dfs});
    rt.add_observer(&det);
    rt.run([&] {
      node* head = new node;
      head->next = new node;
      finish([&] {
        async([head] { write_shared(head->value, 1); });
        async([head, racy] {
          node* target = racy ? head : head->next;
          write_shared(target->value, 2);
        });
      });
      delete head->next;
      delete head;
    });
    EXPECT_EQ(det.race_detected(), racy);
  }
  hook::set_heap_instrumentation(false);
}

// --------------------------------------------------- registration paths

/// Registration is gated to instrumented task context: allocations made
/// outside run() (or with the layer disarmed) stay untracked.
TEST_F(HeapHooks, RegistrationRequiresInstrumentedContext) {
  hook::set_heap_instrumentation(true);
  alignas(8) unsigned char buf[32];
  hook::note_alloc(buf, sizeof(buf));  // no runtime on this thread
  EXPECT_EQ(hook::live_blocks(), 0u);
  EXPECT_EQ(hook::stats().blocks_registered, 0u);

  hook::set_heap_instrumentation(false);
  detect::race_detector det(detect::race_detector::options{});
  runtime rt({.mode = exec_mode::serial_dfs});
  rt.add_observer(&det);
  rt.run([&] {
    hook::note_alloc(buf, sizeof(buf));  // layer disarmed
  });
  EXPECT_EQ(hook::stats().blocks_registered, 0u);
}

/// A parallel-detect run that has to create pool threads (engine worker 1
/// starts from inside the instrumented run) must not leave the pool's
/// slots and thread states behind as program blocks: they live as long as
/// the process and are never freed.
TEST_F(HeapHooks, PoolThreadsAreNotProgramBlocks) {
  hook::set_heap_instrumentation(true);
  const std::uint64_t created = support::pool_threads_created();
  {
    detect::parallel_detector::tuning tune;
    tune.checkers = 2;
    detect::parallel_detector det(detect::race_detector::options{}, tune);
    runtime rt({.mode = exec_mode::parallel_detect, .workers = 2});
    rt.add_parallel_sink(&det);
    rt.run([] {});
    EXPECT_FALSE(det.race_detected());
  }
  ASSERT_GT(support::pool_threads_created(), created)
      << "the run must create pool threads for this test to mean anything";
  EXPECT_EQ(hook::live_blocks(), 0u);
  hook::set_heap_instrumentation(false);
}

TEST_F(HeapHooks, ReallocMigratesIdentity) {
  hook::set_heap_instrumentation(true);
  alignas(8) unsigned char first[32];
  alignas(8) unsigned char second[64];
  detect::race_detector det(detect::race_detector::options{});
  runtime rt({.mode = exec_mode::serial_dfs});
  rt.add_observer(&det);
  rt.run([&] {
    hook::note_alloc(first, sizeof(first));
    EXPECT_EQ(detail::heap_block_bytes(first), sizeof(first));
    // Moving realloc: old identity retired, new extent tracked.
    hook::note_realloc(first, second, sizeof(second));
    EXPECT_EQ(detail::heap_block_bytes(first), 0u);
    EXPECT_EQ(detail::heap_block_bytes(second), sizeof(second));
    // In-place growth: still a retire + fresh registration.
    hook::note_realloc(second, second, sizeof(second));
    EXPECT_EQ(detail::heap_block_bytes(second), sizeof(second));
    // Late registration: a block the layer never saw gets tracked on its
    // first realloc from instrumented code.
    hook::note_realloc(first, first, sizeof(first));
    EXPECT_EQ(detail::heap_block_bytes(first), sizeof(first));
    hook::note_free(first);
    hook::note_free(second);
  });
  const hook::heap_stats s = hook::stats();
  EXPECT_EQ(s.blocks_registered, 4u);
  EXPECT_EQ(s.blocks_retired, 4u);
  EXPECT_EQ(hook::live_blocks(), 0u);
  hook::set_heap_instrumentation(false);
}

TEST_F(HeapHooks, FailedAndNoopReallocKeepOldBlock) {
  hook::set_heap_instrumentation(true);
  alignas(8) unsigned char buf[32];
  detect::race_detector det(detect::race_detector::options{});
  runtime rt({.mode = exec_mode::serial_dfs});
  rt.add_observer(&det);
  rt.run([&] {
    hook::note_alloc(buf, sizeof(buf));
    // Failed realloc (new_ptr null, bytes nonzero): old block untouched.
    hook::note_realloc(buf, nullptr, 128);
    EXPECT_EQ(detail::heap_block_bytes(buf), sizeof(buf));
    // realloc(p, 0) frees.
    hook::note_realloc(buf, nullptr, 0);
    EXPECT_EQ(detail::heap_block_bytes(buf), 0u);
  });
  EXPECT_EQ(hook::live_blocks(), 0u);
  hook::set_heap_instrumentation(false);
}

TEST_F(HeapHooks, ScopedSuppressHidesTraffic) {
  hook::set_heap_instrumentation(true);
  alignas(8) unsigned char buf[32];
  detect::race_detector det(detect::race_detector::options{});
  runtime rt({.mode = exec_mode::serial_dfs});
  rt.add_observer(&det);
  rt.run([&] {
    hook::scoped_suppress mute;
    hook::note_alloc(buf, sizeof(buf));
  });
  EXPECT_EQ(hook::stats().blocks_registered, 0u);
  hook::set_heap_instrumentation(false);
}

// --------------------------------------------------------- annotations

TEST_F(HeapHooks, AnnotateRegionPairRegistersAndRetires) {
  alignas(16) int buf[64] = {};
  EXPECT_TRUE(FUTRACE_ANNOTATE_REGION(buf, sizeof(buf), sizeof(int)));
  EXPECT_EQ(hook::stats().annotate_regions, 1u);
  // Geometry is live in the shared-region registry.
  bool found = false;
  for (const detail::shared_region& r : detail::shared_region_snapshot()) {
    if (r.base == reinterpret_cast<std::uintptr_t>(buf)) {
      found = true;
      EXPECT_EQ(r.stride, sizeof(int));
    }
  }
  EXPECT_TRUE(found);

  EXPECT_TRUE(FUTRACE_ANNOTATE_END(buf));
  for (const detail::shared_region& r : detail::shared_region_snapshot()) {
    EXPECT_NE(r.base, reinterpret_cast<std::uintptr_t>(buf));
  }
  // Ending twice is a foreign free, counted not crashed.
  EXPECT_FALSE(FUTRACE_ANNOTATE_END(buf));
  EXPECT_EQ(hook::stats().foreign_frees, 1u);
}

/// Freeing a tracked block implicitly ends annotations inside it, so no
/// stale geometry survives over recycled memory.
TEST_F(HeapHooks, FreeEndsContainedAnnotations) {
  hook::set_heap_instrumentation(true);
  alignas(16) unsigned char buf[256];
  detect::race_detector det(detect::race_detector::options{});
  runtime rt({.mode = exec_mode::serial_dfs});
  rt.add_observer(&det);
  rt.run([&] {
    hook::note_alloc(buf, sizeof(buf));
    EXPECT_TRUE(FUTRACE_ANNOTATE_REGION(buf, sizeof(buf), 4));
    hook::note_free(buf);
  });
  for (const detail::shared_region& r : detail::shared_region_snapshot()) {
    EXPECT_NE(r.base, reinterpret_cast<std::uintptr_t>(buf));
  }
  EXPECT_EQ(hook::live_blocks(), 0u);
  hook::set_heap_instrumentation(false);
}

/// Annotated regions feed the direct-mapped slab tier exactly like a
/// shared_array: a racy kernel over an annotated malloc'd buffer is
/// detected with the same verdict as the wrapped shape.
TEST_F(HeapHooks, AnnotatedBufferDetectsRace) {
  hook::set_heap_instrumentation(true);
  detect::race_detector det(detect::race_detector::options{});
  runtime rt({.mode = exec_mode::serial_dfs});
  rt.add_observer(&det);
  rt.run([&] {
    int* buf = static_cast<int*>(std::malloc(64 * sizeof(int)));
    ASSERT_NE(buf, nullptr);
    FUTRACE_ANNOTATE_REGION(buf, 64 * sizeof(int), sizeof(int));
    finish([&] {
      async([buf] { write_shared(buf[7], 1); });
      async([buf] { write_shared(buf[7], 2); });
    });
    FUTRACE_ANNOTATE_END(buf);
    std::free(buf);
  });
  EXPECT_TRUE(det.race_detected());
  EXPECT_EQ(det.race_count(), 1u);
  hook::set_heap_instrumentation(false);
}

// -------------------------------------- shared_regions satellite fixes

TEST(SharedRegions, RejectsStrideWiderThan32Bits) {
  alignas(16) static unsigned char buf[64];
  // A stride that does not fit the record's 32-bit field must be refused
  // outright — the old silent truncation handed shadow memory a wrong
  // element geometry.
  EXPECT_FALSE(detail::register_shared_region(
      buf, sizeof(buf), std::size_t{0x100000000ull}));
  EXPECT_FALSE(detail::register_shared_region(
      buf, sizeof(buf), std::size_t{0x200000001ull}));
  // Boundary: the largest representable stride is accepted.
  EXPECT_TRUE(detail::register_shared_region(buf, sizeof(buf),
                                             std::size_t{0xFFFFFFFFull}));
  EXPECT_TRUE(detail::unregister_shared_region(buf));
}

TEST(SharedRegions, UnregisterReportsAbsentBase) {
  alignas(16) static unsigned char buf[64];
  EXPECT_FALSE(detail::unregister_shared_region(buf))
      << "never-registered base must report false, not silently succeed";
  ASSERT_TRUE(detail::register_shared_region(buf, sizeof(buf), 4));
  EXPECT_TRUE(detail::unregister_shared_region(buf));
  EXPECT_FALSE(detail::unregister_shared_region(buf))
      << "double unregister must report false so free-hooks can count it";
  EXPECT_FALSE(detail::unregister_shared_region(nullptr));
}

TEST(SharedRegions, HeapBlockTableBasics) {
  alignas(8) static unsigned char buf[32];
  detail::clear_heap_blocks();
  EXPECT_FALSE(detail::register_heap_block(nullptr, 8));
  EXPECT_FALSE(detail::register_heap_block(buf, 0));
  EXPECT_TRUE(detail::register_heap_block(buf, sizeof(buf)));
  EXPECT_FALSE(detail::register_heap_block(buf, 16))
      << "duplicate base keeps the original extent";
  EXPECT_EQ(detail::heap_block_bytes(buf), sizeof(buf));
  EXPECT_EQ(detail::heap_block_count(), 1u);
  EXPECT_EQ(detail::release_heap_block(buf), sizeof(buf));
  EXPECT_EQ(detail::release_heap_block(buf), 0u) << "double free reports 0";
  detail::clear_heap_blocks();
}

}  // namespace
}  // namespace futrace
