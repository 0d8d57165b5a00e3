#pragma once

/// \file shard.hpp
/// Address-sharding rule shared by the concurrent detector's producers
/// (which route access events to shard checkers) and by shadow memory
/// (which, in shard mode, materializes slab cells only for the addresses
/// its checker owns). Both sides MUST agree on ownership, so the rule lives
/// here alone:
///
///   owner(addr) = (addr >> chunk_shift) % shard_count
///
/// i.e. the address space is cut into 2^chunk_shift-byte chunks dealt
/// round-robin to the checkers. Chunks (rather than a per-address hash) keep
/// runs of consecutive array elements on one checker, so bulk range events
/// split into at most a handful of per-chunk sub-events and the range-walk
/// fast path survives sharding. A location is owned by the chunk containing
/// its *element base* address — scalar accesses are canonicalized to the
/// element base before routing, so sub-element and straddling accesses
/// resolve to the same owner as the element itself.
///
/// The shared-structure mode (DESIGN.md §15) leans on the resulting
/// partition for lock-freedom: shards never share a location, so checkers
/// only contend on the one reachability graph, never on shadow state.

#include <cstddef>
#include <cstdint>

namespace futrace::detect {

/// Default chunk size: 16 KiB. Big enough that tile-sized range events
/// (hundreds of bytes) rarely straddle a boundary, small enough that one
/// benchmark array spreads over every worker.
inline constexpr unsigned k_default_chunk_shift = 14;

inline std::size_t shard_of(std::uintptr_t addr, unsigned chunk_shift,
                            std::size_t shard_count) noexcept {
  return static_cast<std::size_t>((addr >> chunk_shift) % shard_count);
}

inline std::size_t shard_of(const void* addr, unsigned chunk_shift,
                            std::size_t shard_count) noexcept {
  return shard_of(reinterpret_cast<std::uintptr_t>(addr), chunk_shift,
                  shard_count);
}

/// First address past `addr` where ownership can change: the next chunk
/// boundary.
inline std::uintptr_t next_chunk_boundary(std::uintptr_t addr,
                                          unsigned chunk_shift) noexcept {
  return ((addr >> chunk_shift) + 1) << chunk_shift;
}

}  // namespace futrace::detect
