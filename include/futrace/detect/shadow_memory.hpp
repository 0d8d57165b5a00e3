#pragma once

/// \file shadow_memory.hpp
/// Shadow memory (paper §4.2). Every instrumented location carries:
///   - w: the task that last wrote it, and
///   - r: the set of tasks that read it in parallel since the last write —
///        at most one async task (Lemma 4 makes one representative async
///        reader sufficient) but arbitrarily many future tasks.
///
/// One shadow lookup happens per instrumented access, and big workloads
/// touch hundreds of megabytes of shadow state, so storage is two-tier:
///
///   - Direct-mapped slabs. A `shared_array<T>` registers its address range
///     (shared_regions.hpp); accesses inside a registered range resolve to
///     `slab[(addr - base) >> log2(stride)]` — one bounds check and one
///     indexed load, no hashing, no probing. Array elements dominate the
///     paper's workloads (Jacobi, Smith-Waterman, Crypt), so most accesses
///     take this path.
///   - A hashed `ptr_map` for everything else: scalar `shared<T>` cells,
///     unregistered ranges, and ranges whose slab could not be built
///     (byte cap, allocation failure, non-power-of-two stride, overlap
///     with an existing slab).
///
/// The cell layout stays compact: 32 bytes (two per cache line), with
/// source positions interned to 4-byte site ids, one reader stored inline
/// (the paper's #AvgReaders is < 2 everywhere; additional future readers
/// spill to a heap vector), and an 8-byte access stamp the detector uses to
/// elide provably-redundant re-checks (race_detector.hpp).
///
/// The detector owns the update rules (Algorithms 8 and 9); this class owns
/// storage and the counters the paper reports (#SharedMem, #AvgReaders).

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <new>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "futrace/obs/trace.hpp"
#include "futrace/runtime/observer.hpp"
#include "futrace/runtime/shared_regions.hpp"
#include "futrace/support/alloc_gate.hpp"
#include "futrace/support/ptr_map.hpp"
#include "futrace/support/small_vector.hpp"

namespace futrace::detect {

/// Interned source position (index into site_table).
using site_id = std::uint32_t;

/// Interns access_site values; hot loops hit the one-entry cache because
/// consecutive accesses come from the same statement.
class site_table {
 public:
  site_table() { sites_.push_back(access_site{"<unknown>", 0}); }

  site_id intern(access_site site) {
    if (site.file == last_file_ && site.line == last_line_) return last_id_;
    const std::uint64_t key =
        mix(reinterpret_cast<std::uint64_t>(site.file)) ^
        mix(0x9E3779B97F4A7C15ULL + site.line);
    auto [it, inserted] = index_.try_emplace(
        key, static_cast<site_id>(sites_.size()));
    if (inserted) sites_.push_back(site);
    last_file_ = site.file;
    last_line_ = site.line;
    last_id_ = it->second;
    return it->second;
  }

  access_site resolve(site_id id) const {
    return id < sites_.size() ? sites_[id] : sites_[0];
  }

 private:
  // splitmix64 finalizer. The previous key, (file_ptr << 16) ^ line, threw
  // away the pointer's high 16 bits and let two files collide whenever
  // their pointers differed only there (or a line number cancelled the low
  // pointer bits); mixing each component to full avalanche first makes the
  // combined key collision-resistant.
  static std::uint64_t mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  std::vector<access_site> sites_;
  std::unordered_map<std::uint64_t, site_id> index_;
  const char* last_file_ = nullptr;
  std::uint32_t last_line_ = 0;
  site_id last_id_ = 0;
};

struct reader_entry {
  task_id task = k_invalid_task;
  site_id site = 0;
};

/// In shadow_cell::stamp_step: set when the stamped access was a write.
inline constexpr std::uint32_t k_stamp_write = 0x80000000u;

/// 32-byte shadow cell: writer + one inline reader + overflow list + the
/// detector's last-access stamp (task and 31-bit step, with k_stamp_write
/// marking write accesses). Two cells per cache line.
struct shadow_cell {
  task_id writer = k_invalid_task;
  site_id writer_site = 0;
  reader_entry reader0;
  std::vector<reader_entry>* overflow = nullptr;
  task_id stamp_task = k_invalid_task;
  std::uint32_t stamp_step = 0;

  std::size_t reader_count() const {
    if (reader0.task == k_invalid_task) return 0;
    return 1 + (overflow ? overflow->size() : 0);
  }

  reader_entry reader_at(std::size_t i) const {
    return i == 0 ? reader0 : (*overflow)[i - 1];
  }

  /// O(1) unordered removal: the last entry fills the hole.
  void remove_reader_at(std::size_t i) {
    if (overflow && !overflow->empty()) {
      if (i == 0) {
        reader0 = overflow->back();
      } else {
        (*overflow)[i - 1] = overflow->back();
      }
      overflow->pop_back();
      return;
    }
    reader0 = reader_entry{};
  }

  /// Records a reader. Returns false — dropping the entry — only when the
  /// overflow vector is needed and its allocation is refused by the alloc
  /// gate; the caller must then treat detection results as incomplete.
  bool add_reader(reader_entry e) {
    if (reader0.task == k_invalid_task) {
      reader0 = e;
      return true;
    }
    if (!overflow) {
      if (support::alloc_should_fail(sizeof(std::vector<reader_entry>))) {
        return false;
      }
      overflow = new std::vector<reader_entry>();
    }
    overflow->push_back(e);
    return true;
  }

  /// True once any access touched this cell (Algorithms 8/9 always leave a
  /// writer or at least one reader behind); lets slabs count distinct
  /// locations without per-cell occupancy bookkeeping.
  bool touched() const noexcept {
    return writer != k_invalid_task || reader0.task != k_invalid_task;
  }
};
static_assert(sizeof(shadow_cell) <= 32);

/// Counters for the storage fast path (direct-mapped slabs vs hashing).
struct shadow_stats {
  std::uint64_t direct_hits = 0;   // accesses served by a slab
  std::uint64_t hashed_hits = 0;   // accesses served by the ptr_map
  std::uint64_t mru_hits = 0;      // hashed hits served by the one-slot MRU
  std::uint64_t slabs_built = 0;   // registered ranges direct-mapped
  std::uint64_t slab_fallbacks = 0;   // ranges kept on the hashed path
  std::uint64_t rejected_overlaps = 0;  // ranges colliding with a live slab
  std::uint64_t migrated_cells = 0;  // hashed cells moved into a new slab
  std::uint64_t summaries_established = 0;  // full-slab runs collapsed
  std::uint64_t summary_materializations = 0;  // summaries expanded back
  std::uint64_t region_records_synced = 0;  // registry records read by sync
};

class shadow_memory {
 public:
  /// Uniform-interval summary of a whole slab: when valid, *every* cell of
  /// the slab logically holds this state (writer, at most one reader, and
  /// the detector's last-access stamp) and the per-cell array is stale or
  /// not yet allocated. Every slab is born with a valid *untouched* summary
  /// (no writer, no reader, no stamp) — exactly the state a fresh cell
  /// holds — so a fresh array's first full-array access is one O(1)
  /// summary transition instead of a walk. The detector also re-establishes
  /// a summary after a full-slab range write that reported no race (the
  /// one walk that provably leaves all cells identical), and later
  /// full-slab range accesses maintain it in O(1). Any scalar access,
  /// partial range, race, or state the single reader slot cannot hold
  /// triggers materialize(), copying the summary into every cell before
  /// per-cell checking resumes, so the set of reported races is exactly
  /// that of per-element checking.
  struct run_summary {
    bool valid = false;
    task_id writer = k_invalid_task;
    site_id writer_site = 0;
    reader_entry reader;
    task_id stamp_task = k_invalid_task;
    std::uint32_t stamp_step = 0;

    /// True once any access reached the summarized cells.
    bool touched() const noexcept {
      return writer != k_invalid_task || reader.task != k_invalid_task;
    }
  };

  /// One direct-mapped range: a contiguous slab of cells covering
  /// [base, end) at 1 << shift bytes per element. Slabs persist for the
  /// lifetime of the shadow memory even if the underlying shared_array is
  /// destroyed — same never-forget policy as the hashed table, so address
  /// reuse keeps its location identity within one execution. `cells` stays
  /// empty until the first materialize(); a slab that is only ever swept
  /// whole never allocates it.
  struct direct_range {
    std::uintptr_t base = 0;
    std::uintptr_t end = 0;
    std::uint32_t shift = 0;
    /// The mirrored_regions_ key of the registration this slab was built
    /// from, so retiring the slab also forgets the registration and an
    /// identical later re-registration gets a fresh slab.
    std::uint64_t region_key = 0;
    std::vector<shadow_cell> cells;
    run_summary summary;

    std::size_t size() const noexcept {
      return static_cast<std::size_t>(end - base) >> shift;
    }
  };

  /// A resolved range access: the run starts at cell `index` of `slab`.
  /// `slab == nullptr` means the range could not be served natively (hashed
  /// tier, stride mismatch, misalignment, or spilling past the slab) and
  /// the caller must decompose to per-element accesses. The cell itself is
  /// only addressable once the slab's summary is resolved (materialize()).
  struct slab_run {
    direct_range* slab = nullptr;
    std::size_t index = 0;
    bool full = false;  // the run covers every cell of the slab
  };

  /// A scalar access decomposed against the registered element geometry:
  /// the access [addr, addr+size) overlaps `count` elements of `stride`
  /// bytes, the first starting at `first` (element-aligned). count == 1
  /// for the common case of an access no larger than its element.
  struct access_span {
    const void* first = nullptr;
    std::size_t count = 1;
    std::size_t stride = 0;
  };

  shadow_memory() = default;
  shadow_memory(shadow_memory&&) noexcept = default;
  shadow_memory& operator=(shadow_memory&&) noexcept = default;

  ~shadow_memory() {
    cells_.for_each([](const void*, shadow_cell& cell) {
      delete cell.overflow;
      cell.overflow = nullptr;
    });
    for (direct_range& r : ranges_) {
      for (shadow_cell& cell : r.cells) {
        delete cell.overflow;
        cell.overflow = nullptr;
      }
    }
  }

  /// Finds or creates the cell for a location, counting the access and the
  /// readers currently stored (the paper's #AvgReaders statistic samples the
  /// reader-set size at every read/write).
  shadow_cell& access(const void* addr) {
    ++accesses_;
    if (shadow_cell* cell = direct_find(addr)) {
      ++stats_.direct_hits;
      readers_sampled_ += cell->reader_count();
      return *cell;
    }
    if (shadow_cell* cell = hashed_mru(addr)) {
      readers_sampled_ += cell->reader_count();
      return *cell;
    }
    shadow_cell& cell = cells_[addr];
    ++stats_.hashed_hits;
    note_hashed_cell(addr, &cell);
    readers_sampled_ += cell.reader_count();
    return cell;
  }

  /// Caps the shadow table's heap footprint; 0 means unlimited. Once the cap
  /// (or an injected allocation failure) is hit, the map degrades: existing
  /// cells keep working, new locations stop materializing, and accesses keep
  /// being counted. Slab construction also respects the cap, but a refused
  /// slab is not degradation — the range falls back to the hashed path with
  /// full fidelity.
  void set_max_bytes(std::size_t bytes) noexcept { max_bytes_ = bytes; }

  /// Enables/disables the direct-mapped slab tier (on by default). The
  /// detector turns it off in --no-fastpath differential-debugging runs.
  void set_direct_mapped(bool enabled) noexcept { direct_enabled_ = enabled; }

  /// Restricts this shadow instance to the addresses one pipelined checker
  /// worker owns (shard.hpp's chunk rule): registered regions are clipped to
  /// the owned chunks, producing one slab per owned chunk-intersection
  /// instead of one slab per region. The sharded producer routes every
  /// access to its owner, so cells for unowned addresses are simply never
  /// materialized — and a per-chunk range sub-event that covers a whole
  /// clipped slab still collapses into a run summary, keeping the O(1)
  /// re-sweep tier alive under sharding. Must be set before the first
  /// access; `count <= 1` means no clipping (the inline layout).
  void set_shard(unsigned chunk_shift, std::size_t index,
                 std::size_t count) noexcept {
    shard_shift_ = chunk_shift;
    shard_index_ = index;
    shard_count_ = count;
  }

  /// True once an insertion was refused (byte cap or injected allocation
  /// failure). Sticky: detection results are incomplete from that point on.
  bool degraded() const noexcept { return degraded_; }

  /// Marks the shadow state incomplete (used by the detector when a reader
  /// entry had to be dropped because its overflow allocation was refused).
  void mark_degraded() noexcept { degraded_ = true; }

  /// Resource-capped variant of access(): returns nullptr instead of
  /// materializing a cell when the table cannot (or must not) grow. The
  /// access is counted either way — Table 2 counters survive degradation.
  shadow_cell* try_access(const void* addr) {
    ++accesses_;
    if (shadow_cell* cell = direct_find(addr)) {
      ++stats_.direct_hits;
      readers_sampled_ += cell->reader_count();
      return cell;
    }
    if (shadow_cell* cell = hashed_mru(addr)) {
      readers_sampled_ += cell->reader_count();
      return cell;
    }
    if (shadow_cell* cell = cells_.find(addr)) {
      ++stats_.hashed_hits;
      note_hashed_cell(addr, cell);
      readers_sampled_ += cell->reader_count();
      return cell;
    }
    if (!degraded_) {
      const bool over_cap =
          max_bytes_ != 0 &&
          slab_bytes_ + cells_.bytes_after_insert() > max_bytes_;
      if (!over_cap && !support::alloc_should_fail(sizeof(shadow_cell))) {
        ++stats_.hashed_hits;
        shadow_cell* cell = &cells_[addr];
        note_hashed_cell(addr, cell);
        return cell;
      }
      degraded_ = true;
    }
    ++skipped_;
    return nullptr;
  }

  /// Counts an access without touching storage (used once the detector's
  /// reachability graph has degraded and cell contents no longer matter).
  void count_only() noexcept {
    ++accesses_;
    ++skipped_;
  }

  /// Bulk count_only: `count` untracked accesses in one call.
  void count_only_n(std::size_t count) noexcept {
    accesses_ += count;
    skipped_ += count;
  }

  /// Counts `count` slab-served accesses in one call (the range engine's
  /// tight loop and the summary fast path both resolve the slab once but
  /// must keep #SharedMem and the tier counters element-exact).
  void note_range_direct(std::size_t count) noexcept {
    accesses_ += count;
    stats_.direct_hits += count;
  }

  /// Adds `n` to the #AvgReaders sample sum (range paths sample readers in
  /// bulk instead of once per access()).
  void add_reader_samples(std::uint64_t n) noexcept { readers_sampled_ += n; }

  /// The #AvgReaders numerator. Exposed exactly (not via the avg double) so
  /// the pipelined detector can merge per-shard averages without rounding.
  std::uint64_t reader_samples() const noexcept { return readers_sampled_; }

  /// Resolves a range access of `count` elements of `stride` bytes starting
  /// at `addr` against the slab tier. Succeeds only when the whole run lives
  /// in one slab, element-aligned, with stride equal to the slab's: then the
  /// caller can walk `count` consecutive cells from `index` with no further
  /// lookups. Does NOT materialize a pending summary — the caller decides
  /// between the O(1) summary transition and materialize-then-walk.
  slab_run find_run(const void* addr, std::size_t count, std::size_t stride) {
    if (!direct_enabled_) return {};
    sync_if_stale();
    if (ranges_.empty()) return {};
    const std::uintptr_t a = reinterpret_cast<std::uintptr_t>(addr);
    direct_range* r = find_slab(a);
    if (r == nullptr) return {};
    if (stride != (std::size_t{1} << r->shift)) return {};
    if (((a - r->base) & (stride - 1)) != 0) return {};
    if (count > ((r->end - a) >> r->shift)) return {};
    const std::size_t idx = static_cast<std::size_t>((a - r->base) >> r->shift);
    return slab_run{r, idx, idx == 0 && count == r->size()};
  }

  /// Collapses a slab to the given uniform state (detector calls this after
  /// a race-free full-slab write walk).
  void establish_summary(direct_range& r, const run_summary& s) {
    r.summary = s;
    r.summary.valid = true;
    ++stats_.summaries_established;
  }

  /// Expands a slab summary into per-cell state: every cell takes the
  /// uniform writer/reader/stamp; spilled reader vectors are cleared but
  /// keep their allocation. Expanding the untouched birth summary is lazy
  /// allocation, not a summary materialization, and is not counted as one.
  ///
  /// The first materialization of a slab allocates its cell array, asking
  /// the alloc gate again. If that allocation is refused (gate or
  /// std::bad_alloc) the slab leaves the slab tier — `r` dangles and false
  /// is returned — and the hashed tier serves its range from then on, as
  /// for a slab refused at build. A slab that already held accesses loses
  /// that history, so the shadow is then marked degraded.
  bool materialize(direct_range& r) noexcept {
    const run_summary s = r.summary;
    shadow_cell uniform;
    uniform.writer = s.writer;
    uniform.writer_site = s.writer_site;
    uniform.reader0 = s.reader;
    uniform.stamp_task = s.stamp_task;
    uniform.stamp_step = s.stamp_step;
    if (r.cells.empty()) {
      bool allocated = false;
      if (!support::alloc_should_fail(r.size() * sizeof(shadow_cell))) {
        try {
          r.cells.assign(r.size(), uniform);
          allocated = true;
        } catch (const std::bad_alloc&) {
        }
      }
      if (!allocated) {
        evict_unallocated(r);
        return false;
      }
    } else {
      for (shadow_cell& cell : r.cells) {
        std::vector<reader_entry>* overflow = cell.overflow;
        if (overflow) overflow->clear();
        cell = uniform;
        cell.overflow = overflow;
      }
    }
    r.summary = run_summary{};
    if (s.touched()) {
      obs::trace_emit(obs::trace_kind::slab_materialize,
                      obs::trace_track::task, 0, r.size());
      ++stats_.summary_materializations;
    }
    return true;
  }

  /// Decomposes a scalar access of `size` bytes at `addr` against the
  /// registered element geometry (the live region list, independent of
  /// whether slabs are enabled). An access no larger than the smallest
  /// registered element — the overwhelmingly common case — returns
  /// {addr, 1} after one version check; an access that straddles element
  /// boundaries returns the aligned run of every element it overlaps, so
  /// the detector checks each underlying location instead of only the
  /// first (mixed-size under-checking fix).
  access_span span_of(const void* addr, std::size_t size) {
    sync_if_stale();
    const std::uintptr_t a = reinterpret_cast<std::uintptr_t>(addr);
    // Fast bail for the common aligned scalar: when every live region has a
    // power-of-two stride and a stride-aligned base, element boundaries are
    // `size`-aligned for any power-of-two size <= the minimum stride, so a
    // size-aligned access cannot cross one.
    if (misaligned_geoms_ == 0 && size <= min_geom_stride_ &&
        (size & (size - 1)) == 0 && (a & (size - 1)) == 0) {
      return access_span{addr, 1, size};
    }
    const auto it = geoms_.upper_bound(a);
    if (it == geoms_.begin()) return access_span{addr, 1, size};
    const detail::shared_region& g = std::prev(it)->second;
    if (a >= g.end) return access_span{addr, 1, size};
    const std::uintptr_t first = g.base + (a - g.base) / g.stride * g.stride;
    const std::uintptr_t last = std::min<std::uintptr_t>(a + size, g.end);
    const std::size_t count =
        static_cast<std::size_t>((last - first + g.stride - 1) / g.stride);
    // count == 1 still canonicalizes `first` to the element base, so the
    // hashed and slab tiers key sub-element accesses to the same location.
    return access_span{reinterpret_cast<const void*>(first), count, g.stride};
  }

  /// Side-effect-free tier probe for race-report provenance: names the
  /// tier holding `addr`'s shadow state. A plain binary search over the
  /// slab index — no MRU update, no summary materialization, no lazy sync —
  /// so calling it on the cold report path cannot perturb any counter,
  /// cached state, or pending summary (unlike the access-path lookups).
  const char* tier_name(const void* addr) const noexcept {
    const std::uintptr_t a = reinterpret_cast<std::uintptr_t>(addr);
    const auto it = std::upper_bound(
        ranges_.begin(), ranges_.end(), a,
        [](std::uintptr_t key, const direct_range& r) { return key < r.base; });
    if (it != ranges_.begin()) {
      const direct_range& r = *std::prev(it);
      if (a < r.end && element_base(r, a)) return "direct";
    }
    return "hashed";
  }

  /// Accesses whose shadow state was not tracked (degraded mode).
  std::uint64_t skipped_accesses() const noexcept { return skipped_; }

  /// Number of distinct locations touched. Hashed cells materialize on
  /// first access; a slab counts its touched cells, or all of them while a
  /// touched summary is pending (a slab still in its untouched birth state
  /// counts none).
  std::size_t location_count() const noexcept {
    std::size_t n = cells_.size() + retired_locations_;
    for (const direct_range& r : ranges_) n += touched_cells(r);
    return n;
  }

  /// Total read+write accesses observed (the paper's #SharedMem).
  std::uint64_t access_count() const noexcept { return accesses_; }

  /// Mean reader-set size over all accesses (the paper's #AvgReaders).
  double average_readers() const noexcept {
    return accesses_ == 0 ? 0.0
                          : static_cast<double>(readers_sampled_) /
                                static_cast<double>(accesses_);
  }

  /// Largest reader set ever sampled (diagnostics; bounded by the number of
  /// future tasks, per the space bound of Theorem 1).
  std::uint64_t max_readers() const noexcept { return max_readers_; }

  void note_reader_count(std::size_t n) {
    if (n > max_readers_) max_readers_ = n;
  }

  const shadow_stats& stats() const noexcept { return stats_; }

  /// Approximate heap footprint: table, slabs (charged at build, whether or
  /// not their cells are allocated yet), plus spilled reader vectors.
  std::size_t memory_bytes() const {
    std::size_t bytes = cells_.table_bytes() + slab_bytes_;
    const auto count_overflow = [&bytes](const shadow_cell& cell) {
      if (cell.overflow) {
        bytes += sizeof(*cell.overflow) +
                 cell.overflow->capacity() * sizeof(reader_entry);
      }
    };
    cells_.for_each(
        [&](const void*, const shadow_cell& cell) { count_overflow(cell); });
    for (const direct_range& r : ranges_) {
      for (const shadow_cell& cell : r.cells) count_overflow(cell);
    }
    return bytes;
  }

  /// Epoch compaction (DESIGN.md §12): frees every slab whose address range
  /// no longer overlaps a *live* registered region — the backing
  /// shared_array is gone, so no tracked access can resolve there again
  /// short of raw address reuse — and rehashes the hashed tier down to its
  /// current population. Touched retired cells keep counting in
  /// location_count() through an accumulator (exact up to address reuse,
  /// where a re-registered range restarts its count). Returns the number of
  /// slabs retired. Never touches a slab an overlapping live region is
  /// being served by, so detection state for reachable locations is intact.
  /// One merged pass over the slabs and the live regions, both base-sorted.
  std::size_t retire_dead_slabs() {
    sync_if_stale();
    auto live = geoms_.begin();
    std::size_t kept = 0;
    for (std::size_t i = 0; i < ranges_.size(); ++i) {
      direct_range& r = ranges_[i];
      // Live regions are disjoint, so their ends ascend with their bases.
      while (live != geoms_.end() && live->second.end <= r.base) ++live;
      if (live != geoms_.end() && live->second.base < r.end) {
        if (kept != i) ranges_[kept] = std::move(r);
        ++kept;
        continue;
      }
      retired_locations_ += drop_slab(r);
    }
    const std::size_t retired = ranges_.size() - kept;
    ranges_.erase(ranges_.begin() + static_cast<std::ptrdiff_t>(kept),
                  ranges_.end());
    if (retired != 0) mru_range_ = 0;  // indices shifted under the MRU
    cells_.shrink();
    invalidate_hashed_mru();  // shrink() may rehash: cached pointers dangle
    return retired;
  }

  /// Retires the shadow identities in [addr, addr+bytes): the program freed
  /// the block, so a recycled address must start with a fresh cell instead
  /// of inheriting the dead object's access history (a false race). This is
  /// the one deliberate hole in the never-forget policy, driven by the heap
  /// hooks' region-retire events. Touched cells fold into the location
  /// accumulator, so #Locations stays live + retired. A slab overlapping
  /// the range is retired whole (its registration key is forgotten, so an
  /// identical re-registration gets a fresh slab); partially-freed slabs do
  /// not occur for heap blocks, which retire at their allocation extent.
  /// Returns the number of touched cells retired.
  std::size_t retire_region(const void* addr, std::size_t bytes) {
    if (addr == nullptr || bytes == 0) return 0;
    sync_if_stale();
    const std::uintptr_t lo = reinterpret_cast<std::uintptr_t>(addr);
    const std::uintptr_t hi = lo + bytes;
    std::size_t retired = 0;
    const std::vector<const void*> dead = hashed_keys_in(lo, hi);
    for (const void* a : dead) {
      shadow_cell* cell = cells_.find(a);
      if (cell->touched()) {
        ++retired_locations_;
        ++retired;
      }
      delete cell->overflow;
      cell->overflow = nullptr;
      cells_.erase(a);
    }
    // Backshift deletion relocates entries *other* than the erased keys, so
    // the MRU pointer may dangle even for an unrelated address.
    if (!dead.empty()) invalidate_hashed_mru();
    // Slab tier: the overlapping slabs are one contiguous run of the
    // base-sorted list, starting at the last slab based at or below lo.
    auto first = std::upper_bound(
        ranges_.begin(), ranges_.end(), lo,
        [](std::uintptr_t key, const direct_range& r) { return key < r.base; });
    if (first != ranges_.begin() && std::prev(first)->end > lo) --first;
    auto last = first;
    while (last != ranges_.end() && last->base < hi) {
      const std::size_t touched = drop_slab(*last);
      retired_locations_ += touched;
      retired += touched;
      ++last;
    }
    if (first != last) {
      ranges_.erase(first, last);
      mru_range_ = 0;
    }
    return retired;
  }

  /// Calls fn(addr, cell) for every materialized hashed cell and every
  /// touched slab cell. A summarized slab presents its uniform state for
  /// every cell (the per-cell array is stale while a summary is pending).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    cells_.for_each(fn);
    for (const direct_range& r : ranges_) {
      if (r.summary.valid) {
        if (!r.summary.touched()) continue;
        shadow_cell synth;
        synth.writer = r.summary.writer;
        synth.writer_site = r.summary.writer_site;
        synth.reader0 = r.summary.reader;
        synth.stamp_task = r.summary.stamp_task;
        synth.stamp_step = r.summary.stamp_step;
        for (std::size_t i = 0; i < r.size(); ++i) {
          fn(reinterpret_cast<const void*>(r.base + (i << r.shift)), synth);
        }
        continue;
      }
      for (std::size_t i = 0; i < r.cells.size(); ++i) {
        if (r.cells[i].touched()) {
          fn(reinterpret_cast<const void*>(r.base + (i << r.shift)),
             r.cells[i]);
        }
      }
    }
  }

 private:
  /// One-slot MRU over the hashed tier: bulk workloads re-touch the same
  /// scalar location in bursts, and a hit skips the whole probe sequence.
  /// The cached pointer dangles whenever the map erases (backshift deletion
  /// moves *other* entries, not only the erased key — see ptr_map::erase) or
  /// rehashes, so: every erase clears the slot, and every hashed
  /// access/insert refreshes it with a pointer obtained *after* any growth.
  shadow_cell* hashed_mru(const void* addr) noexcept {
    if (addr == mru_addr_ && mru_cell_ != nullptr) {
      ++stats_.hashed_hits;
      ++stats_.mru_hits;
      return mru_cell_;
    }
    return nullptr;
  }

  void note_hashed_cell(const void* addr, shadow_cell* cell) noexcept {
    mru_addr_ = addr;
    mru_cell_ = cell;
  }

  void invalidate_hashed_mru() noexcept {
    mru_addr_ = nullptr;
    mru_cell_ = nullptr;
  }

  /// The hashed tier's keys in [lo, hi). Free when the tier is empty (the
  /// common case: registered arrays keep it so); otherwise a probe per byte
  /// for a small range, or one scan of the table for a large one.
  std::vector<const void*> hashed_keys_in(std::uintptr_t lo,
                                          std::uintptr_t hi) const {
    std::vector<const void*> keys;
    if (cells_.empty()) return keys;
    if (hi - lo <= 1024) {
      for (std::uintptr_t p = lo; p < hi; ++p) {
        const void* a = reinterpret_cast<const void*>(p);
        if (cells_.find(a) != nullptr) keys.push_back(a);
      }
    } else {
      cells_.for_each([&](const void* a, const shadow_cell&) {
        const std::uintptr_t p = reinterpret_cast<std::uintptr_t>(a);
        if (p >= lo && p < hi) keys.push_back(a);
      });
    }
    return keys;
  }

  void sync_if_stale() {
    if (region_version_seen_ != detail::shared_region_version())
        [[unlikely]] {
      sync_regions();
    }
  }

  /// Resolves `addr` to its slab — one most-recently-used probe (bulk
  /// workloads stream through one array at a time), then a binary search
  /// over the base-sorted range list. Divide-and-conquer workloads
  /// (Strassen) keep hundreds of temporary-array slabs alive and alternate
  /// between them every iteration, so the miss path must be logarithmic,
  /// not linear. Callers have already synced and checked ranges_ nonempty.
  direct_range* find_slab(std::uintptr_t a) {
    direct_range& mru = ranges_[mru_range_];
    if (a >= mru.base && a < mru.end) return &mru;
    const auto it = std::upper_bound(
        ranges_.begin(), ranges_.end(), a,
        [](std::uintptr_t key, const direct_range& r) { return key < r.base; });
    if (it == ranges_.begin()) return nullptr;
    direct_range& r = *std::prev(it);
    if (a >= r.end) return nullptr;
    mru_range_ = static_cast<std::size_t>(std::prev(it) - ranges_.begin());
    return &r;
  }

  /// The scalar access-path lookup. A pending run summary materializes
  /// here: a scalar access into a summarized slab is exactly the
  /// "divergence" the summary cannot represent. A slab serves only its
  /// element bases: accesses are canonicalized against the live geometry,
  /// so an address inside an element reaches here only when a different
  /// geometry (or none) now covers the slab's old range, and it is then a
  /// location of its own, exactly as the hashed tier would key it.
  shadow_cell* direct_find(const void* addr) {
    if (!direct_enabled_) return nullptr;
    sync_if_stale();
    if (ranges_.empty()) return nullptr;
    const std::uintptr_t a = reinterpret_cast<std::uintptr_t>(addr);
    direct_range* r = find_slab(a);
    if (r == nullptr || !element_base(*r, a)) return nullptr;
    if (r->summary.valid) [[unlikely]] {
      if (!materialize(*r)) return nullptr;  // evicted to the hashed tier
    }
    return &r->cells[(a - r->base) >> r->shift];
  }

  /// Catches up with the registry's change log: O(records published since
  /// the last sync) — the live-region mirror takes each record in
  /// O(log regions), and only registrations this instance has not seen
  /// before are considered for a slab. A reader that fell behind the
  /// retained log receives the whole live set once instead.
  void sync_regions() {
    const std::uint64_t seen = region_version_seen_;
    bool full = false;
    const std::uint64_t version =
        detail::shared_region_changes_since(seen, changes_, &full);
    stats_.region_records_synced += changes_.size();
    if (full) {
      geoms_.clear();
      geom_strides_.fill(0);
      misaligned_geoms_ = 0;
    }
    for (const detail::shared_region_change& c : changes_) {
      // Element-geometry mirror for span_of(): the *live* regions only —
      // decomposition follows the current registration, while slabs keep
      // their never-forget policy below.
      if (c.added) {
        if (geoms_.emplace(c.region.base, c.region).second) {
          count_geom(c.region, true);
        }
        continue;
      }
      const auto it = geoms_.find(c.region.base);
      if (it != geoms_.end() && it->second.seq == c.region.seq) {
        count_geom(it->second, false);
        geoms_.erase(it);
      }
    }
    min_geom_stride_ = static_cast<std::size_t>(-1);
    for (std::size_t k = 0; k < geom_strides_.size(); ++k) {
      if (geom_strides_[k] != 0) {
        min_geom_stride_ = std::size_t{1} << k;
        break;
      }
    }
    for (const detail::shared_region_change& c : changes_) {
      // New registrations that are still live. Seen-set keyed on the full
      // geometry: re-registering an identical range (address reuse by an
      // identical array) silently reuses its slab, while a geometry change
      // at the same address goes through try_build_slab and is rejected to
      // the hashed path, which keeps per-address location identity exact.
      if (!direct_enabled_ || !c.added || c.region.seq <= seen) continue;
      const auto it = geoms_.find(c.region.base);
      if (it == geoms_.end() || it->second.seq != c.region.seq) continue;
      if (!mirrored_regions_.insert(region_key(c.region)).second) continue;
      try_build_slab(c.region);
    }
    // Published only once every record is applied: a sync interrupted by an
    // exception is redone from the same point (each step is idempotent).
    region_version_seen_ = version;
  }

  /// Tallies one live region into (or out of) the span_of() fast-path
  /// summary: aligned power-of-two regions by stride, the rest by count.
  void count_geom(const detail::shared_region& g, bool add) noexcept {
    const bool aligned = (g.stride & (g.stride - 1)) == 0 &&
                         (g.base & (g.stride - 1)) == 0;
    std::size_t& n = aligned
        ? geom_strides_[static_cast<std::size_t>(std::countr_zero(g.stride))]
        : misaligned_geoms_;
    n = add ? n + 1 : n - 1;
  }

  static std::uint64_t mix64(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  static bool element_base(const direct_range& r, std::uintptr_t a) noexcept {
    return ((a - r.base) & ((std::uintptr_t{1} << r.shift) - 1)) == 0;
  }

  static std::uint64_t region_key(const detail::shared_region& reg) {
    return mix64(reg.base) ^ mix64(reg.end + 1) ^
           mix64(0x100000000ULL + reg.stride);
  }

  /// Cells of `r` that hold an access (all of them under a touched
  /// summary, none under the untouched birth summary).
  static std::size_t touched_cells(const direct_range& r) noexcept {
    if (r.summary.valid) return r.summary.touched() ? r.size() : 0;
    std::size_t n = 0;
    for (const shadow_cell& cell : r.cells) n += cell.touched() ? 1 : 0;
    return n;
  }

  /// Releases a slab's storage and forgets its registration key; returns
  /// its touched cell count for the retired-location accumulator. The
  /// caller removes it from ranges_.
  std::size_t drop_slab(direct_range& r) {
    const std::size_t touched = touched_cells(r);
    for (shadow_cell& cell : r.cells) {
      delete cell.overflow;
      cell.overflow = nullptr;
    }
    slab_bytes_ -= r.size() * sizeof(shadow_cell);
    mirrored_regions_.erase(r.region_key);
    return touched;
  }

  /// Takes a slab whose cell array could not be allocated out of the slab
  /// tier. Its registration stays mirrored, so the range is hashed from now
  /// on, exactly like a slab refused at build; a touched summary's history
  /// is lost (its cells still count as locations) and the shadow degrades.
  void evict_unallocated(direct_range& r) noexcept {
    if (r.summary.touched()) {
      retired_locations_ += r.size();
      degraded_ = true;
    }
    slab_bytes_ -= r.size() * sizeof(shadow_cell);
    ranges_.erase(ranges_.begin() + (&r - ranges_.data()));
    mru_range_ = 0;
    ++stats_.slab_fallbacks;
  }

  /// Builds a slab for a newly registered region, or records why it stays
  /// on the hashed path. A refused slab is never degradation: the hashed
  /// tier serves the range with identical fidelity, just slower. The slab
  /// is born summarized: its cells are charged against the byte cap and
  /// the alloc gate here, but allocated only by the first materialize().
  void try_build_slab(const detail::shared_region& reg) {
    // Only power-of-two strides index with a shift.
    if (reg.stride == 0 || (reg.stride & (reg.stride - 1)) != 0) {
      ++stats_.slab_fallbacks;
      return;
    }
    // Slabs are disjoint and base-sorted: only the last one based below
    // reg.end can overlap.
    const auto above = std::lower_bound(
        ranges_.begin(), ranges_.end(), reg.end,
        [](const direct_range& r, std::uintptr_t key) { return r.base < key; });
    if (above != ranges_.begin() && std::prev(above)->end > reg.base) {
      // Overlaps a slab built for an earlier (possibly since-destroyed)
      // array. Serving two identities from one slab would corrupt cell
      // state, so the newcomer stays hashed.
      ++stats_.rejected_overlaps;
      ++stats_.slab_fallbacks;
      return;
    }
    const std::uint32_t shift =
        static_cast<std::uint32_t>(std::countr_zero(reg.stride));
    // In shard mode the region is clipped to the chunks this instance owns:
    // one run of consecutively owned cells per chunk-intersection, each run
    // becoming its own slab. A cell is owned by the chunk containing its
    // base address (the element may straddle into the next chunk), which is
    // exactly the producer's routing rule, so every cell the router sends
    // here has a slab and no unowned cell ever materializes.
    struct cell_run {
      std::uintptr_t base;
      std::uintptr_t end;
    };
    support::small_vector<cell_run, 8> runs;
    if (shard_count_ <= 1) {
      runs.push_back({reg.base, reg.end});
    } else {
      const std::uintptr_t chunk = std::uintptr_t{1} << shard_shift_;
      for (std::uintptr_t c = reg.base & ~(chunk - 1); c < reg.end;
           c += chunk) {
        if (((c >> shard_shift_) % shard_count_) != shard_index_) continue;
        // Cells whose base lies in [c, c + chunk) ∩ [reg.base, reg.end).
        const std::uintptr_t lo = std::max(c, reg.base);
        const std::uintptr_t hi = std::min(c + chunk, reg.end);
        const std::uintptr_t first =
            reg.base + (lo - reg.base + reg.stride - 1) / reg.stride *
                           reg.stride;
        const std::uintptr_t last =
            reg.base + (hi - reg.base + reg.stride - 1) / reg.stride *
                           reg.stride;
        if (first < last) runs.push_back({first, last});
      }
      if (runs.empty()) return;  // nothing owned; not a fallback
    }
    std::size_t total_bytes = 0;
    for (const auto& [run_base, run_end] : runs) {
      total_bytes += (static_cast<std::size_t>(run_end - run_base) >> shift) *
                     sizeof(shadow_cell);
    }
    if (max_bytes_ != 0 &&
        slab_bytes_ + total_bytes + cells_.table_bytes() > max_bytes_) {
      ++stats_.slab_fallbacks;
      return;
    }
    if (support::alloc_should_fail(total_bytes)) {
      ++stats_.slab_fallbacks;
      return;
    }
    for (const auto& [run_base, run_end] : runs) {
      direct_range r;
      r.base = run_base;
      r.end = run_end;
      r.shift = shift;
      r.region_key = region_key(reg);
      r.summary.valid = true;  // born untouched
      std::size_t inserted_at = 0;
      try {
        // Keep the list sorted by base so direct_find can binary-search;
        // overlap rejection above guarantees the order is total.
        const auto pos = std::upper_bound(
            ranges_.begin(), ranges_.end(), r.base,
            [](std::uintptr_t key, const direct_range& existing) {
              return key < existing.base;
            });
        const auto ins = ranges_.insert(pos, std::move(r));
        inserted_at = static_cast<std::size_t>(ins - ranges_.begin());
      } catch (...) {
        ++stats_.slab_fallbacks;
        return;
      }
      mru_range_ = inserted_at;
      slab_bytes_ += ranges_[inserted_at].size() * sizeof(shadow_cell);
      if (!migrate_into_slab(ranges_[inserted_at])) return;
    }
    ++stats_.slabs_built;
  }

  /// Moves cells the hashed tier already materialized for in-range element
  /// bases into the new slab, so a range registered after its first
  /// accesses (e.g. `assign` on a default-constructed array) keeps its
  /// shadow state. Keys inside an element stay hashed: they are distinct
  /// locations the slab cannot hold (see direct_find). Costs nothing while
  /// the hashed tier is empty. Returns false when the slab's cells could not
  /// be allocated: it was evicted (see materialize()) and the cells stay
  /// hashed.
  bool migrate_into_slab(direct_range& r) {
    std::vector<const void*> in_range = hashed_keys_in(r.base, r.end);
    std::erase_if(in_range, [&r](const void* addr) {
      return !element_base(r, reinterpret_cast<std::uintptr_t>(addr));
    });
    if (in_range.empty()) return true;
    if (!materialize(r)) return false;  // allocates the untouched cells
    for (const void* addr : in_range) {
      const std::uintptr_t a = reinterpret_cast<std::uintptr_t>(addr);
      // The copied cell takes ownership of the overflow pointer; erase()
      // resets the vacated slot to a default-constructed cell.
      r.cells[(a - r.base) >> r.shift] = *cells_.find(addr);
      cells_.erase(addr);
      ++stats_.migrated_cells;
    }
    // Backshift deletion relocates entries *other* than the erased keys, so
    // the MRU pointer may dangle even for an address that was never in range.
    invalidate_hashed_mru();
    return true;
  }

  support::ptr_map<shadow_cell> cells_;
  std::vector<direct_range> ranges_;  // base-sorted, disjoint
  /// Live registered regions keyed by base (the registry's view as of the
  /// last sync), with the span_of() fast-path tallies.
  std::map<std::uintptr_t, detail::shared_region> geoms_;
  std::array<std::size_t, 32> geom_strides_{};  // aligned regions by log2
  std::size_t misaligned_geoms_ = 0;  // non-pow2 stride or unaligned base
  std::size_t min_geom_stride_ = static_cast<std::size_t>(-1);
  std::vector<detail::shared_region_change> changes_;  // sync scratch
  std::unordered_set<std::uint64_t> mirrored_regions_;
  std::size_t mru_range_ = 0;
  const void* mru_addr_ = nullptr;     // one-slot hashed-tier MRU
  shadow_cell* mru_cell_ = nullptr;
  unsigned shard_shift_ = 0;           // set_shard(): chunk size log2
  std::size_t shard_index_ = 0;
  std::size_t shard_count_ = 1;        // 1 = unsharded (inline layout)
  std::uint64_t region_version_seen_ = 0;
  std::size_t slab_bytes_ = 0;
  bool direct_enabled_ = true;
  std::size_t retired_locations_ = 0;  // touched cells of retired slabs
  std::uint64_t accesses_ = 0;
  std::uint64_t readers_sampled_ = 0;
  std::uint64_t max_readers_ = 0;
  std::uint64_t skipped_ = 0;
  std::size_t max_bytes_ = 0;  // 0 = unlimited
  bool degraded_ = false;
  shadow_stats stats_;
};

}  // namespace futrace::detect
