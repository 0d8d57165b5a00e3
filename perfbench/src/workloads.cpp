#include "workloads.hpp"

#include <cstdio>

#include "futrace/detect/shard.hpp"
#include "futrace/progen/program_trace.hpp"
#include "futrace/support/rng.hpp"
#include "futrace/workloads/workloads.hpp"

namespace perfbench {
namespace {

namespace fw = futrace::workloads;

/// Adapts a Table 2 kernel (anything with operator() and verify()).
template <typename Kernel>
class kernel_program final : public program {
 public:
  template <typename Config>
  explicit kernel_program(const Config& cfg) : kernel_(cfg) {}
  void run() override { kernel_(); }
  bool verify() const override { return kernel_.verify(); }

 private:
  Kernel kernel_;
};

class trace_program final : public program {
 public:
  explicit trace_program(const futrace::progen::trace_config& cfg)
      : trace_(cfg) {
    // A trace allocates its variables on its first replay and reuses them
    // on later ones, so replay once, untimed, to fix their placement.
    futrace::runtime rt({.mode = futrace::exec_mode::serial_elision});
    rt.run([this] { trace_(); });
  }
  void run() override { trace_(); }
  bool verify() const override { return true; }

  std::string placement() const override {
    char buf[64];
    std::snprintf(buf, sizeof buf, "variables at %p",
                  trace_.var_address(0));
    return buf;
  }

  /// True if the variables span two shard chunks of the concurrent
  /// detectors, so range accesses over them are split between checkers.
  bool straddles_chunk() const {
    constexpr unsigned shift = futrace::detect::k_default_chunk_shift;
    const auto first = reinterpret_cast<std::uintptr_t>(trace_.var_address(0));
    const auto last = reinterpret_cast<std::uintptr_t>(
        trace_.var_address(trace_.num_vars() - 1));
    return (first >> shift) != (last >> shift);
  }

 private:
  futrace::progen::program_trace trace_;
};

/// Programs per progen-batch round.
constexpr std::size_t k_progen_programs = 1000;

/// Attempts at placing one progen program clear of a chunk boundary.
constexpr std::size_t k_placement_attempts = 8;

}  // namespace

std::unique_ptr<workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  auto w = std::make_unique<workload>();
  w->name = name;
  if (name == "jacobi-ntjoin") {
    const fw::jacobi_config cfg{
        .n = 514, .tile = 32, .iterations = 8, .seed = seed};
    w->make = [cfg](std::size_t) {
      return std::make_unique<kernel_program<fw::jacobi_workload>>(cfg);
    };
    w->describe = "Jacobi n=514 tile=32 iterations=8";
  } else if (name == "crypt-tasks") {
    const fw::crypt_config cfg{
        .bytes = 512 * 1024, .use_futures = true, .seed = seed};
    w->make = [cfg](std::size_t) {
      return std::make_unique<kernel_program<fw::crypt_workload>>(cfg);
    };
    w->describe = "Crypt-future 512 KiB, one 8-byte block per future task";
  } else if (name == "strassen-regions") {
    const fw::strassen_config cfg{.n = 256, .cutoff = 32, .seed = seed};
    w->make = [cfg](std::size_t) {
      return std::make_unique<kernel_program<fw::strassen_workload>>(cfg);
    };
    w->describe = "Strassen n=256 cutoff=32";
  } else if (name == "progen-batch") {
    w->race_free = false;
    w->programs = k_progen_programs;
    w->shared_instance = true;
    // The workload owns this function, so the raw pointer outlives it.
    workload* self = w.get();
    w->make = [seed, self](std::size_t index) {
      std::uint64_t state = seed ^ (0x9E3779B97F4A7C15ull * (index + 1));
      futrace::progen::trace_config cfg;
      cfg.seed = futrace::support::splitmix64(state);
      cfg.max_depth = 6;
      cfg.num_vars = 32;
      cfg.max_tasks = 200;
      cfg.max_range_len = 8;
      auto prog = std::make_unique<trace_program>(cfg);
      // Holding the misplaced copies alive moves the next allocation.
      std::vector<std::unique_ptr<trace_program>> misplaced;
      while (prog->straddles_chunk() &&
             misplaced.size() < k_placement_attempts) {
        misplaced.push_back(std::move(prog));
        prog = std::make_unique<trace_program>(cfg);
      }
      if (!misplaced.empty()) ++self->replaced;
      return prog;
    };
    w->describe = std::to_string(k_progen_programs) +
                  " progen traces (max_tasks 200, depth 6, 32 vars, "
                  "ranges <= 8)";
  } else {
    return nullptr;
  }
  return w;
}

}  // namespace perfbench
