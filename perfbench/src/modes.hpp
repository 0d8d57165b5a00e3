#pragma once

/// \file modes.hpp
/// Runs one program through one detection mode and measures its
/// time-to-verdict: construct the detector and runtime, run(), then the
/// first race_detected() query (which drains and joins the checker threads
/// in the concurrent modes). The library always gets default
/// race_detector::options; only the thread split is chosen here.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "futrace/detect/race_detector.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {

enum class mode_id : std::uint8_t {
  elision,           // serial_elision, no detector: the paper's "Seq"
  dfs_noop,          // serial_dfs with a do-nothing observer
  inline_plain,      // serial_dfs + race_detector: the paper's "Racedet"
  inline_traced,     // the same, behind a timed_observer
  pipelined,         // serial_dfs + pipelined_detector (W checkers)
  pardetect,         // parallel_detect, replicated structure
  pardetect_shared,  // parallel_detect, shared structure
};

const char* mode_name(mode_id m);

/// True for the modes that run checker threads beside the program.
inline bool is_concurrent(mode_id m) {
  return m == mode_id::pipelined || m == mode_id::pardetect ||
         m == mode_id::pardetect_shared;
}

/// Threads each concurrent mode runs: the suggested split for a 4-core
/// machine. The calling thread counts: it is the producer in pipelined mode
/// and engine worker 0 in parallel_detect.
struct thread_split {
  unsigned pipe_checkers = 3;
  unsigned par_workers = 2;
  unsigned par_checkers = 2;
  unsigned shared_workers = 2;
  unsigned shared_checkers = 1;  // plus the structure writer thread
};

unsigned threads_of(mode_id m, const thread_split& split);

/// Per-layer numbers of one round: sums over its programs, or maxima.
class tally {
 public:
  void add(const std::string& name, double v) { sums_[name] += v; }
  void peak(const std::string& name, double v);
  void merge(const tally& other);
  /// The summed or peak value; 0 if never recorded.
  double get(const std::string& name) const;

 private:
  std::map<std::string, double> sums_;
  std::map<std::string, double> peaks_;
};

/// What a mode concluded about a program; compared against inline.
struct verdict {
  bool raced = false;
  std::uint64_t race_count = 0;
  std::vector<const void*> racy;
  futrace::detect::detector_counters counters{};
};

struct mode_result {
  double ms = 0;           // time-to-verdict
  bool output_ok = true;   // program::verify() after the run
  bool engaged = true;     // the concurrent transport actually ran
  bool has_verdict = false;
  verdict v;
  std::size_t detector_bytes = 0;  // inline modes: memory_bytes() at verdict
  tally layers;                    // traced modes only
};

struct run_context {
  thread_split split;
  /// Wrap the concurrent detectors in timing probes and fill layers.
  bool traced = false;
  span_log* spans = nullptr;
  std::uint32_t parent_span = 0;
};

mode_result run_mode(mode_id m, program& p, const run_context& ctx);

/// The Table 2 counters every mode must reproduce exactly.
bool paper_counters_equal(const futrace::detect::detector_counters& a,
                          const futrace::detect::detector_counters& b);

}  // namespace perfbench
