#pragma once

/// \file event_ring.hpp
/// The wire vocabulary of the concurrent detector (parallel_pipeline.hpp):
/// one cache-line-sized slot per event, streamed from each producer to each
/// shard checker through a bounded support::spsc_ring (one ring per
/// producer × checker pair, so every ring is strictly single-producer
/// single-consumer). The pipelined detector (pipeline.hpp) speaks the same
/// wire as its single producer.
///
/// Task ids on the wire are producer ids ("pids"): the parallel engine's
/// spawn-order ids, or, from the serial engine, the base id of a
/// continuation chain. The checkers' DFS replayer renumbers them densely
/// and re-derives continuation splits and finish joined-lists, so every
/// event fits one slot. Two event families share the encoding:
///
///   - Structure events (program start, spawn, task end, finish begin and
///     end, get, put). Broadcast to every checker; each replica replays
///     them into its private reachability graph in serial DFS order.
///   - Access events (read/write, scalar and range). Routed to exactly one
///     checker by the sharding rule (shard.hpp); range events are split at
///     chunk boundaries into per-owner sub-events, numbered by `sub` so the
///     serial interleaving of reports can be reconstructed exactly.
///
/// The producer stages every event and the ring publishes staged slots in
/// batches (spsc_ring::k_publish_batch, plus a flush before every producer
/// wait and at end of stream).

#include <cstddef>
#include <cstdint>

#include "futrace/runtime/observer.hpp"
#include "futrace/support/spsc_ring.hpp"

namespace futrace::detect {

enum class pipe_op : std::uint8_t {
  program_start,  // task = root
  spawn,          // task = parent, a = child, b = task_kind
  task_end,       // task = t
  finish_end,     // task = owner (the replayer rebuilds the joined list)
  get,            // task = waiter, a = producer pid, b = put ordinal or 0
  put,            // task = fulfiller, a = put ordinal
  read,           // task, a = addr (canonical), b = size, stride = user addr
  write,          // task, a = addr (canonical), b = size, stride = user addr
  read_range,     // task, a = addr, b = count, stride
  write_range,    // task, a = addr, b = count, stride
  finish_begin,   // task = owner
  /// A heap block / annotated region was freed (futrace/hook): task = the
  /// freeing task, a = base address, b = byte length. Access-class — it
  /// mutates only shadow state — but sent to *every* checker, because the
  /// retired range may span cells owned by several shards; each checker
  /// retires only the cells it owns.
  region_retire,
};

struct alignas(64) pipe_event {
  pipe_op op = pipe_op::program_start;
  std::uint8_t pad8 = 0;
  std::uint16_t pad16 = 0;
  std::uint32_t sub = 0;   // sub-event index within one access event
  task_id task = 0;        // the event's acting pid
  std::uint32_t line = 0;  // access_site line
  /// Replicated: the producer-stream ordinal (the report-merge key).
  /// Shared: the pid's structure ordinal (the run an access belongs to).
  std::uint64_t seq = 0;
  std::uint64_t a = 0;     // addr / child / producer / put ordinal
  std::uint64_t b = 0;     // count / size / task_kind / put ordinal
  std::uint64_t stride = 0;
  const char* file = nullptr;  // access_site file (static-duration string)
};
static_assert(sizeof(pipe_event) == 64,
              "one event per cache line; adjust the layout, not the assert");

using event_ring = support::spsc_ring<pipe_event>;

}  // namespace futrace::detect
