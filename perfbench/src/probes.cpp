#include "probes.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

timer_cost calibrate_timer() {
  // Medians of several batches, so one descheduling does not skew them.
  constexpr int k_batches = 9;
  constexpr int k_calls = 200000;
  std::vector<double> total;
  std::vector<double> interval;
  for (int b = 0; b < k_batches; ++b) {
    layer_time sink;
    const auto t0 = bench_clock::now();
    for (int i = 0; i < k_calls; ++i) timed_call(sink, [] {});
    total.push_back(static_cast<double>(ns_between(t0, bench_clock::now())) /
                    k_calls);
    interval.push_back(static_cast<double>(sink.ns) / k_calls);
  }
  std::sort(total.begin(), total.end());
  std::sort(interval.begin(), interval.end());
  return {total[k_batches / 2], interval[k_batches / 2]};
}

namespace {
constexpr std::size_t k_probe_words = std::size_t{4} << 20;  // 32 MiB
constexpr int k_probe_reads = 200000;
}  // namespace

host_probe::host_probe() : buffer_(k_probe_words) {
  for (std::size_t i = 0; i < buffer_.size(); ++i) buffer_[i] = i * 2654435761u;
}

double host_probe::run() {
  const auto t0 = bench_clock::now();
  std::uint64_t x = state_;
  std::uint64_t acc = 0;
  for (int i = 0; i < k_probe_reads; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    acc += buffer_[(x >> 20) & (k_probe_words - 1)];
  }
  state_ = x;
  sink_ += acc;
  return static_cast<double>(ns_between(t0, bench_clock::now()));
}

layer_time timed_sink::emit() const {
  layer_time total;
  for (const slot& s : slots_) {
    total.ns += s.t.ns;
    total.calls += s.t.calls;
  }
  return total;
}

span_log::span_log(std::size_t capacity)
    : capacity_(capacity), origin_(bench_clock::now()) {
  spans_.reserve(std::min<std::size_t>(capacity, 4096));
}

std::uint32_t span_log::open(const char* name, std::uint32_t parent) {
  const auto now = bench_clock::now();
  return add(name, parent, now, now);
}

void span_log::close(std::uint32_t id) {
  if (id != 0) spans_[id - 1].end = bench_clock::now();
}

std::uint32_t span_log::add(const char* name, std::uint32_t parent,
                            bench_clock::time_point start,
                            bench_clock::time_point end) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return 0;
  }
  spans_.push_back(span{name, parent, start, end});
  return static_cast<std::uint32_t>(spans_.size());
}

bool span_log::write(const std::string& path, const std::string& label) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"run\": \"%s\", \"dropped\": %llu, \"spans\": [",
               label.c_str(), static_cast<unsigned long long>(dropped_));
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"id\": %zu, \"parent\": %u, \"name\": \"%s\", "
                 "\"start_us\": %.3f, \"dur_us\": %.3f}",
                 i == 0 ? "" : ",", i + 1, s.parent, s.name,
                 static_cast<double>(ns_between(origin_, s.start)) * 1e-3,
                 static_cast<double>(ns_between(s.start, s.end)) * 1e-3);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
