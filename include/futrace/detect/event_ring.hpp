#pragma once

/// \file event_ring.hpp
/// The wire vocabulary of the concurrent detector (parallel_pipeline.hpp):
/// one 32-byte slot per event, written once into its producer's bounded
/// support::broadcast_ring. Every shard checker reads the whole ring with
/// its own head (and, in shared-structure mode, so does the structure
/// writer); each takes what it needs and skips the rest. The pipelined
/// detector (pipeline.hpp) speaks the same wire as its single producer.
///
/// Task ids on the wire are producer ids ("pids"): the parallel engine's
/// spawn-order ids, or, from the serial engine, the base id of a
/// continuation chain. The checkers' DFS replayer renumbers them densely
/// and re-derives continuation splits and finish joined-lists, so every
/// event fits one slot. Two event families share the encoding:
///
///   - Structure events (program start, spawn, task end, finish begin and
///     end, get, put). Every checker replays them into its private
///     reachability graph in serial DFS order.
///   - Access events (read/write, scalar and range). Exactly one checker
///     applies each, by the sharding rule (shard.hpp) on its canonical
///     address; range events are split at chunk boundaries into per-owner
///     sub-events, which take consecutive ring positions.
///
/// A slot carries no sequence number: its ring position is its place in
/// the producer's stream, and that is the only order the checkers need
/// (the report merge key is (structure events replayed, ring position)).
/// Sites travel as 32-bit ids into the detector's wire_site_table.
///
/// The producer stages every event in its ring's private block, and a
/// flush copies the block into the ring in one burst and publishes it with
/// one release store: when the block holds broadcast_ring::k_publish_batch
/// events, before every producer wait, at every structure event when there
/// are several producers, and at end of stream.

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <unordered_map>

#include "futrace/runtime/observer.hpp"
#include "futrace/support/assert.hpp"
#include "futrace/support/broadcast_ring.hpp"

namespace futrace::detect {

enum class pipe_op : std::uint8_t {
  program_start,  // task = root
  spawn,          // task = parent, a = child, b = task_kind
  task_end,       // task = t
  finish_end,     // task = owner (the replayer rebuilds the joined list)
  get,            // task = waiter, a = producer pid, b = put ordinal or 0
  put,            // task = fulfiller, a = put ordinal
  read,           // task, a = addr (canonical), b = user addr, site
  write,          // task, a = addr (canonical), b = user addr, site
  read_range,     // task, a = addr, b = count, stride, site
  write_range,    // task, a = addr, b = count, stride, site
  finish_begin,   // task = owner
  /// A heap block / annotated region was freed (futrace/hook): task = the
  /// freeing task, a = base address, b = byte length. Access-class — it
  /// mutates only shadow state — but applied by *every* checker, because
  /// the retired range may span cells owned by several shards; each
  /// checker retires only the cells it owns.
  region_retire,
};

/// True for the events every checker replays into its graph.
constexpr bool is_structure(pipe_op op) noexcept {
  return op < pipe_op::read || op == pipe_op::finish_begin;
}

/// True for the events exactly one checker applies, by address.
constexpr bool is_access(pipe_op op) noexcept {
  return op >= pipe_op::read && op <= pipe_op::write_range;
}

/// A range stride that does not fit the 32-bit field never reaches the
/// wire: the producer sends such a range element by element, as count-1
/// sub-events (a count-1 range reads no stride).
inline constexpr std::uint64_t k_max_wire_stride =
    std::numeric_limits<std::uint32_t>::max();

struct alignas(32) pipe_event {
  pipe_op op = pipe_op::program_start;
  std::uint8_t pad8 = 0;
  std::uint16_t pad16 = 0;
  task_id task = 0;           // the event's acting pid
  std::uint64_t a = 0;        // addr / child / producer / put ordinal
  std::uint64_t b = 0;        // user addr / count / task_kind / put ordinal
  std::uint32_t stride = 0;   // range element stride
  std::uint32_t site = 0;     // wire_site_table id
};
static_assert(sizeof(pipe_event) == 32,
              "two events per cache line; adjust the layout, not the assert");

using event_ring = support::broadcast_ring<pipe_event>;

/// Interns access sites to the 32-bit ids the wire carries, keyed on the
/// exact (file pointer, line) pair. One table serves every producer of a
/// run: a producer interns a site on its first use under the mutex (its
/// own cache answers later uses), and consumers resolve ids without a
/// lock. Storage is append-only and never moves — chunk k holds
/// k_first_chunk << k entries and is allocated once — so an entry, and
/// the chunk pointer leading to it, is written before the producer
/// publishes any event naming it, and the ring's release store carries
/// both to every consumer that reads that event. Id 0 is {nullptr, 0},
/// the value an empty producer-cache entry holds.
class wire_site_table {
 public:
  wire_site_table() { intern(access_site{nullptr, 0}); }

  wire_site_table(const wire_site_table&) = delete;
  wire_site_table& operator=(const wire_site_table&) = delete;

  ~wire_site_table() {
    for (access_site* chunk : chunks_) delete[] chunk;
  }

  std::uint32_t intern(access_site site) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = index_.try_emplace(key{site.file, site.line},
                                                   size_);
    if (inserted) append(site);
    return it->second;
  }

  /// The site behind an id the caller read from a published event.
  access_site resolve(std::uint32_t id) const noexcept {
    const std::uint64_t x = std::uint64_t{id} / k_first_chunk + 1;
    const unsigned k = static_cast<unsigned>(63 - __builtin_clzll(x));
    return chunks_[k][id - k_first_chunk * ((std::uint64_t{1} << k) - 1)];
  }

 private:
  static constexpr std::uint64_t k_first_chunk = 64;

  struct key {
    const char* file;
    std::uint32_t line;
    bool operator==(const key&) const = default;
  };
  struct key_hash {
    std::size_t operator()(const key& k) const noexcept {
      std::uint64_t z = reinterpret_cast<std::uint64_t>(k.file) ^
                        (std::uint64_t{k.line} * 0x9E3779B97F4A7C15ULL);
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      return static_cast<std::size_t>(z ^ (z >> 31));
    }
  };

  /// Called with the mutex held.
  void append(access_site site) {
    FUTRACE_CHECK_MSG(size_ != std::numeric_limits<std::uint32_t>::max(),
                      "wire_site_table: more than 2^32 - 1 distinct sites");
    const std::uint64_t x = std::uint64_t{size_} / k_first_chunk + 1;
    const unsigned k = static_cast<unsigned>(63 - __builtin_clzll(x));
    if (chunks_[k] == nullptr) {
      chunks_[k] = new access_site[k_first_chunk << k];
    }
    chunks_[k][size_ - k_first_chunk * ((std::uint64_t{1} << k) - 1)] = site;
    ++size_;
  }

  std::mutex mutex_;
  std::unordered_map<key, std::uint32_t, key_hash> index_;
  /// 27 chunks reach past 2^32 ids; the array is sized for 32.
  std::array<access_site*, 32> chunks_{};
  std::uint32_t size_ = 0;
};

}  // namespace futrace::detect
