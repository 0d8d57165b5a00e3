#pragma once

/// \file workloads.hpp
/// The benchmark's four seeded workloads. A workload is a list of programs
/// run once per round through every detection mode; every input comes from
/// the benchmark's seed argument.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// One program the modes run: a Table 2 kernel instance or one progen trace.
class program {
 public:
  virtual ~program() = default;
  /// The root task's body (what runtime::run executes).
  virtual void run() = 0;
  /// Checks the program's output after a run (Table 2 kernels compare with
  /// an uninstrumented reference; progen traces have no output to check).
  virtual bool verify() const = 0;
  /// Where the program's shared data lives, for reproducing a mismatch.
  virtual std::string placement() const { return ""; }
};

struct workload {
  std::string name;
  /// Table 2 kernels must be race-free; progen programs may race.
  bool race_free = true;
  /// Programs per round.
  std::size_t programs = 1;
  /// True: one instance serves every mode of its round (progen traces
  /// replay identically, so racy addresses compare across modes). False:
  /// each mode gets a fresh instance (Table 2 kernels are single-use).
  bool shared_instance = false;
  /// Builds program `index` of the batch; deterministic in the seed.
  std::function<std::unique_ptr<program>(std::size_t index)> make;
  /// One line on the shape of the input, for the printed header.
  std::string describe;
  /// progen-batch: programs built twice or more so that their variable
  /// array would not straddle a shard chunk (see make_workload).
  std::uint64_t replaced = 0;
};

/// The named workload, or nullptr if the name is unknown.
///
/// A progen program whose variable array lands across a shard-chunk
/// boundary of the concurrent detectors is built again at another address.
/// Placed across one, pipelined and replicated parallel-detect can count
/// more races than the inline detector (a known library defect, README.md).
std::unique_ptr<workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace perfbench
