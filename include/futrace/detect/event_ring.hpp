#pragma once

/// \file event_ring.hpp
/// The event vocabulary of the pipelined detector: one cache-line-sized slot
/// per observer event, streamed from the execution thread to each checker
/// worker through a bounded support::spsc_ring (one ring per worker, so
/// every ring is strictly single-producer single-consumer).
///
/// Two event families share the encoding:
///
///   - Graph events (program start, spawn, end, finish-exit, get, put).
///     These are the serial execution's sequence points: they are broadcast
///     to *every* worker ring, and each worker applies them to its private
///     reachability-graph replica in stream order. FIFO order per ring is
///     what makes a graph event an epoch barrier — a worker cannot check an
///     access against a graph state other than the one the serial execution
///     had when the access happened, because the mutation rides in the same
///     queue as the accesses it orders.
///   - Access events (read/write, scalar and range). Routed to exactly one
///     worker by the sharding rule (shard.hpp); range events are split at
///     chunk boundaries into per-owner sub-events, numbered by `sub` so the
///     serial interleaving of reports can be reconstructed exactly.
///
/// A finish-exit event carries its joined-task list in trailing
/// continuation slots (finish fan-in is unbounded); the slot count derives
/// from the joined count in the header (event_slots). The producer stages
/// every event and the ring publishes staged slots in batches
/// (spsc_ring::k_publish_batch, plus a flush before every producer wait
/// and at end of stream). Header + continuations of an event that fits the
/// ring are staged together, so they publish in the same release store and
/// a consumer never observes a torn event; a finish list larger than the
/// whole ring streams incrementally and the consumer pops slots as it
/// collects them.

#include <cstddef>
#include <cstdint>

#include "futrace/runtime/observer.hpp"
#include "futrace/support/spsc_ring.hpp"

namespace futrace::detect {

enum class pipe_op : std::uint8_t {
  program_start,  // task = root
  spawn,          // task = parent, a = child, b = task_kind
  task_end,       // task = t
  finish_end,     // task = owner, a = joined count, ids in continuations
  get,            // task = waiter, a = target
  put,            // task = fulfiller
  read,           // task, a = addr (canonical), b = size, stride = user addr
  write,          // task, a = addr (canonical), b = size, stride = user addr
  read_range,     // task, a = addr, b = count, stride
  write_range,    // task, a = addr, b = count, stride
  // Parallel-detect additions (DESIGN.md §14). The parallel wire reuses the
  // vocabulary above with pids for task ids, but every event is single-slot:
  // finish_end carries a = 0 (joined lists are reconstructed by the
  // replayer), get carries a = producer pid and b = put ordinal, and put
  // carries a = put ordinal.
  finish_begin,  // task = owner (parallel wire only)
  /// A heap block / annotated region was freed (futrace/hook): task = the
  /// freeing task, a = base address, b = byte length. Access-class — it
  /// mutates only shadow state — but broadcast to *every* worker ring like
  /// a graph event, because the retired range may span cells owned by
  /// several shards; each worker retires only the cells it owns.
  region_retire,
};

struct alignas(64) pipe_event {
  pipe_op op = pipe_op::program_start;
  std::uint8_t pad8 = 0;
  std::uint16_t pad16 = 0;
  std::uint32_t sub = 0;   // sub-event index within one serial event
  task_id task = 0;        // the event's acting task
  std::uint32_t line = 0;  // access_site line
  std::uint64_t seq = 0;   // serial event number (report-merge key)
  std::uint64_t a = 0;     // addr / child / target / joined count
  std::uint64_t b = 0;     // count / size / task_kind
  std::uint64_t stride = 0;
  const char* file = nullptr;  // access_site file (static-duration string)
  /// Explicit tail fill: continuation slots are written through a
  /// bit_cast'ed pipe_event *assignment*, and member-wise copies need not
  /// preserve padding bytes — the last two ids of a pipe_cont_view live
  /// here, so these bytes must be a real member, not tail padding.
  std::uint64_t pad_tail = 0;
};
static_assert(sizeof(pipe_event) == 64,
              "one event per cache line; adjust the layout, not the assert");

/// A continuation slot reinterpreted as packed task ids (finish_end joined
/// lists). 15 ids per slot: index 0 stores how many of this slot's entries
/// are valid so consumers need no arithmetic against the header.
struct alignas(64) pipe_cont_view {
  static constexpr std::size_t k_ids = 15;
  std::uint32_t used = 0;
  std::uint32_t ids[k_ids] = {};
};
static_assert(sizeof(pipe_cont_view) == 64);

/// Continuation slots needed for a joined list of `n` tasks.
inline std::size_t cont_slots_for(std::size_t n) noexcept {
  return (n + pipe_cont_view::k_ids - 1) / pipe_cont_view::k_ids;
}

/// Total ring slots (header + continuations) one event occupies. Only a
/// finish-exit event is ever wider than one slot; its width derives from
/// the joined count it carries, so fan-in is unbounded.
inline std::size_t event_slots(const pipe_event& ev) noexcept {
  return ev.op == pipe_op::finish_end
             ? 1 + cont_slots_for(static_cast<std::size_t>(ev.a))
             : 1;
}

using event_ring = support::spsc_ring<pipe_event>;

}  // namespace futrace::detect
