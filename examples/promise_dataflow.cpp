// Promise-based dataflow: single-assignment cells fulfilled mid-task, the
// "promise" variant of futures from paper §2 (Habanero's data-driven
// futures). A diamond dependence graph runs as four tasks synchronizing
// purely through promises; the detector verifies the wiring, then the same
// program runs on the parallel pool.
//
//     source ----> left ----+
//       |                   +----> sink
//       +--------> right ---+

#include <cstdio>

#include "futrace/detect/race_detector.hpp"
#include "futrace/runtime/runtime.hpp"

namespace {

using namespace futrace;

struct diamond {
  shared<int> source_out{0};
  shared<int> left_out{0};
  shared<int> right_out{0};
  shared<int> sink_out{0};
  promise<void> source_done;
  promise<void> left_done;
  promise<void> right_done;

  void operator()() {
    finish([&] {
      async([&] {
        source_out.write(10);
        source_done.put();
        // Post-put code is correctly *parallel* with the consumers: the
        // detector knows this task's identity split at the put.
      });
      async([&] {
        source_done.get();
        left_out.write(source_out.read() * 2);
        left_done.put();
      });
      async([&] {
        source_done.get();
        right_out.write(source_out.read() + 5);
        right_done.put();
      });
      async([&] {
        left_done.get();
        right_done.get();
        sink_out.write(left_out.read() + right_out.read());
      });
    });
  }
};

}  // namespace

int main() {
  // 1) Verify the dataflow wiring once, on the serial depth-first engine.
  {
    diamond d;
    detect::race_detector detector;
    runtime rt({.mode = exec_mode::serial_dfs});
    rt.add_observer(&detector);
    rt.run([&] { d(); });
    const auto c = detector.counters();
    std::printf("detector: %llu tasks (%llu continuations from puts), "
                "%llu puts, %llu non-tree joins, %llu races\n",
                static_cast<unsigned long long>(c.tasks),
                static_cast<unsigned long long>(c.continuation_tasks),
                static_cast<unsigned long long>(c.promise_puts),
                static_cast<unsigned long long>(c.non_tree_joins),
                static_cast<unsigned long long>(c.races_observed));
    if (detector.race_detected()) {
      for (const auto& r : detector.reports()) {
        std::printf("  %s\n", r.to_string().c_str());
      }
      return 1;
    }
    std::printf("serial result: %d (expected 35)\n", d.sink_out.read());
  }

  // 2) Race-free ⇒ determinate: run on the pool.
  diamond d;
  {
    runtime rt({.mode = exec_mode::parallel});
    rt.run([&] { d(); });
  }
  const int result = d.sink_out.read();
  std::printf("parallel result: %d — %s\n", result,
              result == 35 ? "ok" : "MISMATCH");
  return result == 35 ? 0 : 1;
}
