// Unit tests for the shadow-memory layer: cell mechanics (inline reader +
// overflow), counters, and the site table.

#include <gtest/gtest.h>

#include <vector>

#include "futrace/detect/shadow_memory.hpp"
#include "futrace/detect/shard.hpp"

namespace futrace::detect {
namespace {

// ----------------------------------------------------------------- shadow_cell

TEST(ShadowCell, StartsEmpty) {
  shadow_cell cell;
  EXPECT_EQ(cell.writer, k_invalid_task);
  EXPECT_EQ(cell.reader_count(), 0u);
  EXPECT_EQ(cell.overflow, nullptr);
}

TEST(ShadowCell, SingleReaderStaysInline) {
  shadow_cell cell;
  cell.add_reader(reader_entry{7, 1});
  EXPECT_EQ(cell.reader_count(), 1u);
  EXPECT_EQ(cell.reader_at(0).task, 7u);
  EXPECT_EQ(cell.overflow, nullptr);
}

TEST(ShadowCell, OverflowHoldsAdditionalReaders) {
  shadow_cell cell;
  for (task_id t = 1; t <= 5; ++t) cell.add_reader(reader_entry{t, 0});
  EXPECT_EQ(cell.reader_count(), 5u);
  ASSERT_NE(cell.overflow, nullptr);
  std::vector<bool> seen(6, false);
  for (std::size_t i = 0; i < cell.reader_count(); ++i) {
    seen[cell.reader_at(i).task] = true;
  }
  for (task_id t = 1; t <= 5; ++t) EXPECT_TRUE(seen[t]) << t;
  delete cell.overflow;
}

TEST(ShadowCell, RemoveInlineReaderPullsFromOverflow) {
  shadow_cell cell;
  cell.add_reader(reader_entry{1, 0});
  cell.add_reader(reader_entry{2, 0});
  cell.add_reader(reader_entry{3, 0});
  cell.remove_reader_at(0);  // removes task 1; an overflow entry fills in
  EXPECT_EQ(cell.reader_count(), 2u);
  bool saw2 = false, saw3 = false;
  for (std::size_t i = 0; i < cell.reader_count(); ++i) {
    saw2 |= cell.reader_at(i).task == 2;
    saw3 |= cell.reader_at(i).task == 3;
  }
  EXPECT_TRUE(saw2);
  EXPECT_TRUE(saw3);
  delete cell.overflow;
}

TEST(ShadowCell, RemoveDownToEmpty) {
  shadow_cell cell;
  for (task_id t = 1; t <= 3; ++t) cell.add_reader(reader_entry{t, 0});
  while (cell.reader_count() > 0) cell.remove_reader_at(0);
  EXPECT_EQ(cell.reader_count(), 0u);
  cell.add_reader(reader_entry{9, 0});  // reusable afterwards
  EXPECT_EQ(cell.reader_at(0).task, 9u);
  delete cell.overflow;
}

TEST(ShadowCell, CompactLayout) {
  EXPECT_LE(sizeof(shadow_cell), 32u)
      << "cell growth directly scales the dominant cache-miss cost; 32 bytes "
         "= two cells per cache line (24 bytes of race state + the 8-byte "
         "access stamp that powers the detector's elision fast path)";
}

// --------------------------------------------------------------- shadow_memory

TEST(ShadowMemory, CountsAccessesAndLocations) {
  shadow_memory shadow;
  int a = 0, b = 0;
  shadow.access(&a);
  shadow.access(&a);
  shadow.access(&b);
  EXPECT_EQ(shadow.access_count(), 3u);
  EXPECT_EQ(shadow.location_count(), 2u);
}

TEST(ShadowMemory, AverageReadersSamplesAtAccessTime) {
  shadow_memory shadow;
  int loc = 0;
  shadow.access(&loc);                                  // 0 readers sampled
  shadow.access(&loc).add_reader(reader_entry{1, 0});   // 0 sampled, then add
  shadow.access(&loc);                                  // 1 sampled
  shadow.access(&loc);                                  // 1 sampled
  EXPECT_DOUBLE_EQ(shadow.average_readers(), 2.0 / 4.0);
}

TEST(ShadowMemory, MaxReadersTracked) {
  shadow_memory shadow;
  int loc = 0;
  auto& cell = shadow.access(&loc);
  for (task_id t = 1; t <= 4; ++t) {
    cell.add_reader(reader_entry{t, 0});
    shadow.note_reader_count(cell.reader_count());
  }
  EXPECT_EQ(shadow.max_readers(), 4u);
}

TEST(ShadowMemory, MemoryBytesIncludesOverflow) {
  shadow_memory shadow;
  int loc = 0;
  const std::size_t before = shadow.memory_bytes();
  auto& cell = shadow.access(&loc);
  for (task_id t = 1; t <= 10; ++t) cell.add_reader(reader_entry{t, 0});
  EXPECT_GT(shadow.memory_bytes(), before);
}

TEST(ShadowMemory, OverflowFreedOnDestruction) {
  // Covered implicitly by ASAN-less builds via no crash; structurally: the
  // destructor must null out what it deletes when iterated twice.
  auto* shadow = new shadow_memory();
  int loc = 0;
  auto& cell = shadow->access(&loc);
  for (task_id t = 1; t <= 5; ++t) cell.add_reader(reader_entry{t, 0});
  delete shadow;  // must free the overflow vector
}

// ------------------------------------------------------------------ site_table

TEST(SiteTable, InternsAndResolves) {
  site_table sites;
  const site_id a = sites.intern(access_site{"alpha.cpp", 10});
  const site_id b = sites.intern(access_site{"beta.cpp", 20});
  EXPECT_NE(a, b);
  EXPECT_STREQ(sites.resolve(a).file, "alpha.cpp");
  EXPECT_EQ(sites.resolve(a).line, 10u);
  EXPECT_STREQ(sites.resolve(b).file, "beta.cpp");
}

TEST(SiteTable, SameSiteSameId) {
  site_table sites;
  const site_id a1 = sites.intern(access_site{"alpha.cpp", 10});
  const site_id other = sites.intern(access_site{"alpha.cpp", 11});
  const site_id a2 = sites.intern(access_site{"alpha.cpp", 10});
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, other);
}

TEST(SiteTable, UnknownIdResolvesToSentinel) {
  site_table sites;
  EXPECT_STREQ(sites.resolve(12345).file, "<unknown>");
}

TEST(SiteTable, HotLoopCacheDoesNotConfuseSites) {
  site_table sites;
  const site_id a = sites.intern(access_site{"f.cpp", 1});
  const site_id b = sites.intern(access_site{"f.cpp", 2});
  // Alternate to defeat/validate the one-entry cache.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(sites.intern(access_site{"f.cpp", 1}), a);
    EXPECT_EQ(sites.intern(access_site{"f.cpp", 2}), b);
  }
}

// Regression for the key construction bug: (file_ptr << 16) ^ line shifted
// away the pointer's high 16 bits, so two file pointers differing only
// there collided at the same line and one site silently aliased the other.
// The pointers below are fabricated (never dereferenced — the table only
// stores and compares them) to hit that exact collision.
TEST(SiteTable, HighPointerBitsDoNotCollide) {
  site_table sites;
  const char* f1 = reinterpret_cast<const char*>(0x0001000000001000ULL);
  const char* f2 = reinterpret_cast<const char*>(0x0002000000001000ULL);
  const site_id a = sites.intern(access_site{f1, 7});
  const site_id b = sites.intern(access_site{f2, 7});
  EXPECT_NE(a, b);
  EXPECT_EQ(sites.resolve(a).file, f1);
  EXPECT_EQ(sites.resolve(b).file, f2);
}

TEST(SiteTable, LineXorCancellationDoesNotCollide) {
  site_table sites;
  // Under the old key, (p << 16) ^ line let a line number cancel pointer
  // bits: p and p+1 with lines 10 and 10 ^ 0x10000 produced the same key.
  const char* f1 = reinterpret_cast<const char*>(0x5000);
  const char* f2 = reinterpret_cast<const char*>(0x5001);
  const site_id a = sites.intern(access_site{f1, 10});
  const site_id b = sites.intern(access_site{f2, 10u ^ 0x10000u});
  EXPECT_NE(a, b);
  EXPECT_EQ(sites.resolve(a).line, 10u);
  EXPECT_EQ(sites.resolve(b).line, 10u ^ 0x10000u);
}

// -------------------------------------------------------- direct-mapped slabs

namespace {

/// RAII registration of a buffer with the process-global region registry;
/// tests share one process, so cleanup must be unconditional.
struct region_guard {
  region_guard(const void* base, std::size_t bytes, std::size_t stride)
      : base_(base),
        ok_(futrace::detail::register_shared_region(base, bytes, stride)) {}
  ~region_guard() { futrace::detail::unregister_shared_region(base_); }
  const void* base_;
  bool ok_;
};

bool deny_all_allocs(std::size_t) noexcept { return true; }
bool deny_big_allocs(std::size_t bytes) noexcept { return bytes > 1024; }

struct gate_guard {
  explicit gate_guard(futrace::support::alloc_gate_fn fn) {
    futrace::support::alloc_gate().store(fn);
  }
  ~gate_guard() { futrace::support::alloc_gate().store(nullptr); }
};

}  // namespace

TEST(DirectShadow, RegisteredRangeServedFromSlab) {
  std::vector<int> buf(64);
  region_guard reg(buf.data(), buf.size() * sizeof(int), sizeof(int));
  ASSERT_TRUE(reg.ok_);

  shadow_memory shadow;
  for (std::size_t i = 0; i < buf.size(); ++i) {
    shadow_cell* cell = shadow.try_access(&buf[i]);
    ASSERT_NE(cell, nullptr);
    cell->writer = static_cast<task_id>(i);
  }
  EXPECT_EQ(shadow.stats().slabs_built, 1u);
  EXPECT_EQ(shadow.stats().direct_hits, buf.size());
  EXPECT_EQ(shadow.stats().hashed_hits, 0u);
  EXPECT_EQ(shadow.location_count(), buf.size());
  // Re-access resolves to the same cell (state persists).
  EXPECT_EQ(shadow.try_access(&buf[5])->writer, 5u);
}

// The hashed table is allocated at its first insert: a fresh shadow owns no
// memory, and accesses that only slabs serve never allocate the table.
TEST(DirectShadow, SlabOnlyAccessesAllocateNoHashedTable) {
  std::vector<int> buf(64);
  region_guard reg(buf.data(), buf.size() * sizeof(int), sizeof(int));
  ASSERT_TRUE(reg.ok_);

  shadow_memory shadow;
  EXPECT_EQ(shadow.memory_bytes(), 0u);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    shadow.access(&buf[i]).writer = static_cast<task_id>(i);
    ASSERT_NE(shadow.try_access(&buf[i]), nullptr);
  }
  EXPECT_EQ(shadow.stats().hashed_hits, 0u);
  EXPECT_EQ(shadow.memory_bytes(), buf.size() * sizeof(shadow_cell));
}

TEST(DirectShadow, ScalarAccessesStayHashed) {
  std::vector<int> buf(16);
  region_guard reg(buf.data(), buf.size() * sizeof(int), sizeof(int));
  ASSERT_TRUE(reg.ok_);

  shadow_memory shadow;
  int scalar = 0;
  shadow.try_access(&buf[0])->writer = 1;
  shadow.try_access(&scalar)->writer = 2;
  EXPECT_EQ(shadow.stats().direct_hits, 1u);
  EXPECT_EQ(shadow.stats().hashed_hits, 1u);
  EXPECT_EQ(shadow.location_count(), 2u);
}

TEST(DirectShadow, LateRegistrationMigratesHashedCells) {
  std::vector<int> buf(32);
  shadow_memory shadow;
  // Touch two elements before the range is registered: they materialize in
  // the hashed tier.
  shadow.try_access(&buf[3])->writer = 33;
  shadow.try_access(&buf[9])->writer = 99;
  EXPECT_EQ(shadow.stats().hashed_hits, 2u);

  region_guard reg(buf.data(), buf.size() * sizeof(int), sizeof(int));
  ASSERT_TRUE(reg.ok_);
  // The next in-range access builds the slab and migrates existing cells;
  // their shadow state must survive the move.
  shadow_cell* cell = shadow.try_access(&buf[3]);
  EXPECT_EQ(shadow.stats().migrated_cells, 2u);
  EXPECT_EQ(cell->writer, 33u);
  EXPECT_EQ(shadow.try_access(&buf[9])->writer, 99u);
  EXPECT_EQ(shadow.location_count(), 2u);
}

TEST(DirectShadow, GeometryChangeAtSameAddressIsRejected) {
  std::vector<double> buf(16);
  shadow_memory shadow;
  {
    region_guard reg(buf.data(), buf.size() * sizeof(double), sizeof(double));
    ASSERT_TRUE(reg.ok_);
    shadow.try_access(&buf[0]);
    EXPECT_EQ(shadow.stats().slabs_built, 1u);
  }
  // Same base address, different stride: serving it from the old slab would
  // merge distinct locations, so the newcomer must stay on the hashed path.
  region_guard reg2(buf.data(), buf.size() * sizeof(double), 4);
  ASSERT_TRUE(reg2.ok_);
  shadow.try_access(&buf[1]);
  EXPECT_EQ(shadow.stats().rejected_overlaps, 1u);
  EXPECT_EQ(shadow.stats().slabs_built, 1u);
}

TEST(DirectShadow, NonPowerOfTwoStrideFallsBack) {
  struct odd {
    char bytes[12];
  };
  std::vector<odd> buf(8);
  region_guard reg(buf.data(), buf.size() * sizeof(odd), sizeof(odd));
  ASSERT_TRUE(reg.ok_);

  shadow_memory shadow;
  shadow.try_access(&buf[0]);
  EXPECT_EQ(shadow.stats().slab_fallbacks, 1u);
  EXPECT_EQ(shadow.stats().slabs_built, 0u);
  EXPECT_EQ(shadow.stats().hashed_hits, 1u);
  EXPECT_FALSE(shadow.degraded());
}

TEST(DirectShadow, ByteCapRefusesSlabWithoutDegrading) {
  std::vector<int> buf(4096);  // slab would need 4096 * sizeof(shadow_cell)
  region_guard reg(buf.data(), buf.size() * sizeof(int), sizeof(int));
  ASSERT_TRUE(reg.ok_);

  shadow_memory shadow;
  shadow.set_max_bytes(64 * 1024);
  shadow.try_access(&buf[0]);
  EXPECT_EQ(shadow.stats().slab_fallbacks, 1u);
  EXPECT_EQ(shadow.stats().slabs_built, 0u);
  // A refused slab is a fallback, not degradation: the hashed tier serves
  // the range with full fidelity until the cap itself is hit.
  EXPECT_FALSE(shadow.degraded());
  EXPECT_EQ(shadow.stats().hashed_hits, 1u);
}

TEST(DirectShadow, AllocGateRefusesSlabWithoutDegrading) {
  std::vector<int> buf(1024);  // slab allocation > 1 KiB, cells are not
  region_guard reg(buf.data(), buf.size() * sizeof(int), sizeof(int));
  ASSERT_TRUE(reg.ok_);

  gate_guard gate(deny_big_allocs);
  shadow_memory shadow;
  for (int i = 0; i < 8; ++i) shadow.try_access(&buf[i]);
  EXPECT_EQ(shadow.stats().slab_fallbacks, 1u);
  EXPECT_EQ(shadow.stats().direct_hits, 0u);
  EXPECT_EQ(shadow.stats().hashed_hits, 8u);
  EXPECT_FALSE(shadow.degraded());
}

// A slab is born summarized: the build charges its cells against the byte
// budget but allocates none, a touched summary counts every cell as a
// location, and the first scalar access allocates the cells from it.
TEST(DirectShadow, SlabBornSummarizedAllocatesOnMaterialize) {
  std::vector<int> buf(64);
  region_guard reg(buf.data(), buf.size() * sizeof(int), sizeof(int));
  ASSERT_TRUE(reg.ok_);

  shadow_memory shadow;
  const shadow_memory::slab_run run =
      shadow.find_run(buf.data(), buf.size(), sizeof(int));
  ASSERT_NE(run.slab, nullptr);
  EXPECT_TRUE(run.full);
  EXPECT_TRUE(run.slab->summary.valid);
  EXPECT_FALSE(run.slab->summary.touched());
  EXPECT_TRUE(run.slab->cells.empty());
  EXPECT_EQ(shadow.location_count(), 0u);
  EXPECT_GE(shadow.memory_bytes(), buf.size() * sizeof(shadow_cell));

  run.slab->summary.writer = 7;  // what a full-slab write transition leaves
  EXPECT_EQ(shadow.location_count(), buf.size());
  shadow_cell* cell = shadow.try_access(&buf[3]);
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->writer, 7u);
  EXPECT_EQ(run.slab->cells.size(), buf.size());
  EXPECT_FALSE(run.slab->summary.valid);
  EXPECT_EQ(shadow.stats().summary_materializations, 1u);
  EXPECT_EQ(shadow.location_count(), buf.size());
}

namespace {

/// Admits the first allocation of `g_lazy_bytes` (the slab build's byte-cap
/// decision) and refuses every later one (the lazy cell allocation).
std::size_t g_lazy_bytes = 0;
int g_lazy_requests = 0;
bool refuse_lazy_cells(std::size_t bytes) noexcept {
  return bytes == g_lazy_bytes && ++g_lazy_requests > 1;
}

}  // namespace

// A refused lazy cell allocation on an untouched slab is a slab fallback,
// not degradation: the slab leaves the slab tier and the hashed tier serves
// the access, exactly as if the slab had been refused at build.
TEST(DirectShadow, RefusedLazyAllocationFallsBackToHashed) {
  std::vector<int> buf(64);
  region_guard reg(buf.data(), buf.size() * sizeof(int), sizeof(int));
  ASSERT_TRUE(reg.ok_);

  shadow_memory shadow;
  ASSERT_NE(shadow.find_run(buf.data(), buf.size(), sizeof(int)).slab,
            nullptr);
  EXPECT_EQ(shadow.stats().slabs_built, 1u);
  const std::size_t bytes_with_slab = shadow.memory_bytes();
  gate_guard gate(deny_big_allocs);  // cells: 2 KiB, a hashed cell: 32 B
  shadow_cell* cell = shadow.try_access(&buf[3]);
  ASSERT_NE(cell, nullptr);
  cell->writer = 3;
  EXPECT_FALSE(shadow.degraded());
  EXPECT_EQ(shadow.stats().slab_fallbacks, 1u);
  EXPECT_EQ(shadow.stats().hashed_hits, 1u);
  EXPECT_STREQ(shadow.tier_name(&buf[3]), "hashed");
  EXPECT_EQ(shadow.find_run(buf.data(), buf.size(), sizeof(int)).slab,
            nullptr);
  EXPECT_EQ(shadow.try_access(&buf[3])->writer, 3u);
  EXPECT_EQ(shadow.location_count(), 1u);
  // The evicted slab's bytes left; the fallback's insert allocated the
  // hashed table.
  EXPECT_EQ(shadow.memory_bytes() + buf.size() * sizeof(shadow_cell),
            bytes_with_slab +
                futrace::support::ptr_map<shadow_cell>().bytes_after_insert());
}

// A slab whose summary already holds accesses cannot hand them over without
// its cells: a refused lazy allocation degrades the shadow instead of
// throwing, and the slab's cells still count as locations.
TEST(DirectShadow, RefusedLazyAllocationOfTouchedSlabDegrades) {
  std::vector<int> buf(64);
  region_guard reg(buf.data(), buf.size() * sizeof(int), sizeof(int));
  ASSERT_TRUE(reg.ok_);

  shadow_memory shadow;
  const shadow_memory::slab_run run =
      shadow.find_run(buf.data(), buf.size(), sizeof(int));
  ASSERT_NE(run.slab, nullptr);
  run.slab->summary.writer = 7;  // what a full-slab write transition leaves
  gate_guard gate(deny_all_allocs);
  EXPECT_EQ(shadow.try_access(&buf[3]), nullptr);
  EXPECT_TRUE(shadow.degraded());
  EXPECT_EQ(shadow.skipped_accesses(), 1u);
  EXPECT_EQ(shadow.stats().slab_fallbacks, 1u);
  EXPECT_EQ(shadow.location_count(), buf.size());
}

// A registration after hashed accesses whose migration cannot allocate the
// slab's cells leaves those cells hashed, with their state, and the sync
// still completes: later registrations build their slabs.
TEST(DirectShadow, RefusedMigrationKeepsHashedCells) {
  std::vector<int> buf(64);
  std::vector<int> later(64);
  shadow_memory shadow;
  shadow.try_access(&buf[3])->writer = 33;

  g_lazy_bytes = buf.size() * sizeof(shadow_cell);
  g_lazy_requests = 0;
  gate_guard gate(refuse_lazy_cells);
  region_guard reg(buf.data(), buf.size() * sizeof(int), sizeof(int));
  region_guard reg_later(later.data(), later.size() * sizeof(int) / 2,
                         sizeof(int));
  ASSERT_TRUE(reg.ok_);
  ASSERT_TRUE(reg_later.ok_);
  shadow_cell* cell = shadow.try_access(&buf[3]);
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->writer, 33u);
  EXPECT_EQ(g_lazy_requests, 2);
  EXPECT_FALSE(shadow.degraded());
  EXPECT_EQ(shadow.stats().migrated_cells, 0u);
  EXPECT_EQ(shadow.stats().slab_fallbacks, 1u);
  EXPECT_EQ(shadow.stats().slabs_built, 1u);  // `later` only
  EXPECT_STREQ(shadow.tier_name(&buf[3]), "hashed");
  EXPECT_STREQ(shadow.tier_name(&later[0]), "direct");
}

// Each registration costs a shadow instance only the registry records
// published since its last sync, never a pass over every live region.
TEST(DirectShadow, SyncReadsOnlyNewRegistrations) {
  constexpr std::size_t k_arrays = 4096;
  constexpr std::size_t k_elems = 4;
  std::vector<int> buf(k_arrays * k_elems);
  shadow_memory shadow;
  for (std::size_t i = 0; i < k_arrays; ++i) {
    ASSERT_TRUE(futrace::detail::register_shared_region(
        &buf[i * k_elems], k_elems * sizeof(int), sizeof(int)));
    ASSERT_NE(shadow.try_access(&buf[i * k_elems]), nullptr);
  }
  EXPECT_EQ(shadow.stats().slabs_built, k_arrays);
  EXPECT_LE(shadow.stats().region_records_synced, 2 * k_arrays);
  for (std::size_t i = 0; i < k_arrays; ++i) {
    EXPECT_TRUE(futrace::detail::unregister_shared_region(&buf[i * k_elems]));
  }
}

// ------------------------------------------------- reader overflow alloc gate

TEST(ShadowCell, OverflowAllocationRefusalDropsReader) {
  shadow_cell cell;
  EXPECT_TRUE(cell.add_reader(reader_entry{1, 0}));  // inline, no allocation
  {
    gate_guard gate(deny_all_allocs);
    EXPECT_FALSE(cell.add_reader(reader_entry{2, 0}));
    EXPECT_EQ(cell.reader_count(), 1u);
  }
  // Gate lifted: the overflow vector can materialize again.
  EXPECT_TRUE(cell.add_reader(reader_entry{3, 0}));
  EXPECT_EQ(cell.reader_count(), 2u);
  delete cell.overflow;
}

// ------------------------------------------------------- hashed-tier MRU slot

TEST(HashedMru, RepeatAccessServedFromMruSlot) {
  shadow_memory shadow;
  int scalar = 0;
  shadow_cell* first = shadow.try_access(&scalar);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(shadow.stats().mru_hits, 0u);  // cold: full probe + insert
  shadow_cell* again = shadow.try_access(&scalar);
  EXPECT_EQ(again, first);
  EXPECT_EQ(shadow.stats().mru_hits, 1u);
  // A different address misses the MRU and repoints it.
  int other = 0;
  shadow.try_access(&other);
  EXPECT_EQ(shadow.stats().mru_hits, 1u);
  shadow.try_access(&other);
  EXPECT_EQ(shadow.stats().mru_hits, 2u);
}

TEST(HashedMru, AccessVariantAlsoUsesMru) {
  shadow_memory shadow;
  int scalar = 0;
  shadow.access(&scalar).writer = 42;
  EXPECT_EQ(shadow.access(&scalar).writer, 42u);
  EXPECT_GE(shadow.stats().mru_hits, 1u);
}

// Regression: migrate_into_slab erases migrated keys from the hashed map,
// and ptr_map's backshift deletion relocates *other* entries — including,
// possibly, the cell the MRU slot points at. The erase must invalidate the
// MRU, or the next access to the cached address reads a dangling pointer.
TEST(HashedMru, InvalidatedWhenMigrationErasesHashedCells) {
  std::vector<int> buf(32);
  shadow_memory shadow;
  int scalar = 0;
  // Populate the hashed tier: array cells (pre-registration) plus a scalar.
  shadow.try_access(&buf[3])->writer = 3;
  shadow.try_access(&buf[9])->writer = 9;
  shadow.try_access(&scalar)->writer = 77;  // MRU now caches the scalar cell

  region_guard reg(buf.data(), buf.size() * sizeof(int), sizeof(int));
  ASSERT_TRUE(reg.ok_);
  // First in-range access builds the slab and erases the two migrated keys
  // from the hashed map (backshift may relocate the scalar's cell).
  EXPECT_EQ(shadow.try_access(&buf[3])->writer, 3u);
  EXPECT_EQ(shadow.stats().migrated_cells, 2u);

  // The scalar's shadow state must be found through a fresh lookup, not a
  // cached pointer into the pre-erase table layout.
  shadow_cell* cell = shadow.try_access(&scalar);
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->writer, 77u);
  EXPECT_EQ(shadow.try_access(&buf[9])->writer, 9u);
}

TEST(HashedMru, TableGrowthRefreshesBeforeNextHit) {
  // Interleave one hot scalar with enough cold inserts to force rehashes;
  // every insert repoints the MRU at a post-growth pointer, so the hot
  // address must always resolve to live, correct state.
  shadow_memory shadow;
  int hot = 0;
  shadow.try_access(&hot)->writer = 123;
  std::vector<int> cold(4096);
  for (std::size_t i = 0; i < cold.size(); ++i) {
    shadow.try_access(&cold[i])->writer = static_cast<task_id>(i);
    ASSERT_EQ(shadow.try_access(&hot)->writer, 123u) << "after insert " << i;
  }
}

// --------------------------------------------------------- shard-clipped slabs

TEST(DirectShadowShard, SlabClippedToOwnedChunks) {
  std::vector<int> buf(256);  // 1 KiB: spans several 64-byte chunks
  region_guard reg(buf.data(), buf.size() * sizeof(int), sizeof(int));
  ASSERT_TRUE(reg.ok_);

  constexpr unsigned kShift = 6;
  constexpr std::size_t kShards = 2;
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    shadow_memory shadow;
    shadow.set_shard(kShift, shard, kShards);
    std::size_t owned = 0;
    for (std::size_t i = 0; i < buf.size(); ++i) {
      if (shard_of(&buf[i], kShift, kShards) != shard) continue;
      ++owned;
      shadow_cell* cell = shadow.try_access(&buf[i]);
      ASSERT_NE(cell, nullptr);
      cell->writer = static_cast<task_id>(i);
    }
    ASSERT_GT(owned, 0u);
    // Every owned cell is served by a clipped slab — never the hashed tier.
    EXPECT_EQ(shadow.stats().direct_hits, owned) << "shard " << shard;
    EXPECT_EQ(shadow.stats().hashed_hits, 0u) << "shard " << shard;
    EXPECT_EQ(shadow.stats().slabs_built, 1u) << "shard " << shard;
    EXPECT_EQ(shadow.location_count(), owned) << "shard " << shard;
    // State persists across re-access.
    for (std::size_t i = 0; i < buf.size(); ++i) {
      if (shard_of(&buf[i], kShift, kShards) != shard) continue;
      EXPECT_EQ(shadow.try_access(&buf[i])->writer, static_cast<task_id>(i));
      break;
    }
  }
}

TEST(DirectShadowShard, ShardsPartitionTheRegion) {
  std::vector<int> buf(128);
  region_guard reg(buf.data(), buf.size() * sizeof(int), sizeof(int));
  ASSERT_TRUE(reg.ok_);

  constexpr unsigned kShift = 6;
  constexpr std::size_t kShards = 4;
  std::size_t covered = 0;
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    shadow_memory shadow;
    shadow.set_shard(kShift, shard, kShards);
    for (std::size_t i = 0; i < buf.size(); ++i) {
      if (shard_of(&buf[i], kShift, kShards) != shard) continue;
      ASSERT_NE(shadow.try_access(&buf[i]), nullptr);
      ++covered;
    }
  }
  EXPECT_EQ(covered, buf.size());  // every element owned exactly once
}

}  // namespace
}  // namespace futrace::detect
