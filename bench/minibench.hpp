// Minimal in-tree microbenchmark harness, API-compatible with the subset of
// Google Benchmark the microbenches use (BENCHMARK_CAPTURE, State ranges,
// DoNotOptimize, items_per_second) and printing the same console table.
//
// Why not the system Google Benchmark: the distro package ships a library
// built as DEBUG (its IMPORTED_CONFIGURATIONS is NONE), so every run prints
// "***WARNING*** Library was built as DEBUG. Timings may be affected." and
// the timings really are affected. Building our own harness from source in
// the same configuration as the code under test removes both problems and
// drops the external dependency. Calibration follows the same scheme:
// repeat with growing iteration counts until the measured wall time exceeds
// a minimum, then report ns/op, CPU ns/op and items/s.
//
// Environment knobs:
//   NOCALLOC_BENCH_FAST=1      -- shorter calibration target (smoke mode)
//   NOCALLOC_BENCH_MIN_TIME=s  -- explicit calibration target in seconds
//   NOCALLOC_BENCH_JSON=path   -- also write a machine-readable summary
//                                 (one entry per benchmark run) to `path`
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <functional>
#include <string>
#include <vector>

namespace benchmark {

namespace detail {

inline double wall_now() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

inline double cpu_now() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Google Benchmark's human counter format: 6 significant digits with a
/// k/M/G scale suffix (e.g. "2.34655M" or "156.95k").
inline std::string human_rate(double v) {
  char buf[64];
  if (v >= 1e9) {
    std::snprintf(buf, sizeof buf, "%.6gG", v / 1e9);
  } else if (v >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.6gM", v / 1e6);
  } else if (v >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.6gk", v / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.6g", v);
  }
  return buf;
}

}  // namespace detail

class State;

namespace detail {
struct StateIterator {
  State* state;
  std::size_t left;

  inline bool operator!=(const StateIterator& other) const;
  StateIterator& operator++() {
    --left;
    return *this;
  }
  int operator*() const { return 0; }
};
}  // namespace detail

class State {
 public:
  State(std::size_t max_iterations, std::vector<std::int64_t> ranges)
      : max_iterations_(max_iterations), ranges_(std::move(ranges)) {}

  std::int64_t range(std::size_t i = 0) const { return ranges_.at(i); }
  std::size_t iterations() const { return max_iterations_; }
  void SetItemsProcessed(std::int64_t n) { items_ = n; }

  detail::StateIterator begin() {
    wall_start_ = detail::wall_now();
    cpu_start_ = detail::cpu_now();
    return {this, max_iterations_};
  }
  detail::StateIterator end() { return {this, 0}; }

  // Filled by the timing loop.
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  std::int64_t items() const { return items_; }

 private:
  friend struct detail::StateIterator;
  void stop_timers() {
    wall_seconds = detail::wall_now() - wall_start_;
    cpu_seconds = detail::cpu_now() - cpu_start_;
  }

  std::size_t max_iterations_;
  std::vector<std::int64_t> ranges_;
  std::int64_t items_ = 0;
  double wall_start_ = 0.0;
  double cpu_start_ = 0.0;
};

namespace detail {
inline bool StateIterator::operator!=(const StateIterator& other) const {
  (void)other;
  if (left != 0) return true;
  state->stop_timers();
  return false;
}
}  // namespace detail

template <typename T>
inline void DoNotOptimize(T& value) {
  asm volatile("" : "+m"(value) : : "memory");
}
template <typename T>
inline void DoNotOptimize(const T& value) {
  asm volatile("" : : "m"(value) : "memory");
}

namespace detail {

struct Registration {
  std::string name;
  std::function<void(State&)> fn;
  std::vector<std::vector<std::int64_t>> arg_sets;
};

inline std::vector<Registration*>& registry() {
  static std::vector<Registration*> r;
  return r;
}

/// One finished (benchmark, arg set) run, kept for the JSON summary.
struct RunResult {
  std::string name;
  double ns_per_op = 0.0;
  double cpu_ns_per_op = 0.0;
  std::size_t iterations = 0;
  double items_per_second = 0.0;  // 0 when the bench sets no item count
};

inline std::vector<RunResult>& results() {
  static std::vector<RunResult> r;
  return r;
}

}  // namespace detail

/// Builder returned by BENCHMARK_CAPTURE; Arg/Args append one run each.
class Benchmark {
 public:
  explicit Benchmark(detail::Registration* reg) : reg_(reg) {}
  Benchmark* Arg(std::int64_t a) {
    reg_->arg_sets.push_back({a});
    return this;
  }
  Benchmark* Args(std::vector<std::int64_t> a) {
    reg_->arg_sets.push_back(std::move(a));
    return this;
  }

 private:
  detail::Registration* reg_;
};

inline Benchmark* RegisterBenchmark(const char* name,
                                    std::function<void(State&)> fn) {
  auto* reg = new detail::Registration{name, std::move(fn), {}};
  detail::registry().push_back(reg);
  // Intentionally leaked builder: registrations live for the process.
  return new Benchmark(reg);
}

namespace detail {

inline double min_time() {
  if (const char* env = std::getenv("NOCALLOC_BENCH_MIN_TIME")) {
    const double v = std::atof(env);
    if (v > 0) return v;
  }
  const char* fast = std::getenv("NOCALLOC_BENCH_FAST");
  return (fast != nullptr && fast[0] == '1') ? 0.05 : 0.3;
}

/// Runs one (benchmark, arg set) pair: calibrate iterations until the wall
/// time reaches min_time, then report the final timed run.
inline void run_one(const Registration& reg,
                    const std::vector<std::int64_t>& args) {
  std::string name = reg.name;
  for (std::int64_t a : args) {
    name += '/';
    name += std::to_string(a);
  }

  const double target = min_time();
  std::size_t iters = 1;
  double wall = 0.0, cpu = 0.0;
  std::int64_t items = 0;
  for (;;) {
    State state(iters, args);
    reg.fn(state);
    wall = state.wall_seconds;
    cpu = state.cpu_seconds;
    items = state.items();
    if (wall >= target || iters >= (std::size_t{1} << 40)) break;
    // Predict the needed count from the observed rate, with head-room, but
    // grow at most 10x per step (same policy Google Benchmark uses).
    double predicted =
        wall > 1e-9 ? static_cast<double>(iters) * target / wall * 1.4
                    : static_cast<double>(iters) * 10.0;
    const double cap = static_cast<double>(iters) * 10.0;
    if (predicted > cap) predicted = cap;
    if (predicted < static_cast<double>(iters) + 1) {
      predicted = static_cast<double>(iters) + 1;
    }
    iters = static_cast<std::size_t>(predicted);
  }

  const double its = static_cast<double>(iters);
  RunResult res;
  res.name = name;
  res.ns_per_op = wall / its * 1e9;
  res.cpu_ns_per_op = cpu / its * 1e9;
  res.iterations = iters;
  std::string line = name;
  if (line.size() < 32) line.resize(32, ' ');
  char nums[160];
  std::snprintf(nums, sizeof nums, " %10.0f ns %12.0f ns %12zu",
                res.ns_per_op, res.cpu_ns_per_op, iters);
  line += nums;
  if (items > 0) {
    res.items_per_second = static_cast<double>(items) / wall;
    line += " items_per_second=" + human_rate(res.items_per_second) + "/s";
  }
  results().push_back(std::move(res));
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

/// Writes the collected runs to NOCALLOC_BENCH_JSON when it is set; the
/// format mirrors the hand-rolled summaries the network microbenches emit
/// (one object per run, rates in ops/s so trends diff directly).
inline void write_json_summary(const char* argv0) {
  const char* path = std::getenv("NOCALLOC_BENCH_JSON");
  if (path == nullptr || path[0] == '\0') return;
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::printf("WARNING: could not write %s\n", path);
    return;
  }
  const char* base = std::strrchr(argv0, '/');
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"runs\": [\n",
               base != nullptr ? base + 1 : argv0);
  const std::vector<RunResult>& rs = results();
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const RunResult& r = rs[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"ns_per_op\": %.3f, "
                 "\"cpu_ns_per_op\": %.3f, \"iterations\": %zu, "
                 "\"items_per_second\": %.1f}%s\n",
                 r.name.c_str(), r.ns_per_op, r.cpu_ns_per_op, r.iterations,
                 r.items_per_second, i + 1 < rs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

inline int run_all(const char* argv0) {
  char stamp[64];
  const std::time_t now = std::time(nullptr);
  std::strftime(stamp, sizeof stamp, "%FT%T%z", std::localtime(&now));
  std::printf("%s\n", stamp);
  std::printf("Running %s\n", argv0);
#ifdef NOCALLOC_BUILD_TYPE
  std::printf("Build type: %s\n", NOCALLOC_BUILD_TYPE);
  if (std::strcmp(NOCALLOC_BUILD_TYPE, "Debug") == 0) {
    std::printf("***WARNING*** Benchmark was built as DEBUG. Timings may be "
                "affected.\n");
  }
#endif
  const char* rule = "----------------------------------------------------"
                     "--------------------------------------";
  std::printf("%s\n", rule);
  std::printf("%-32s %13s %15s %12s UserCounters...\n", "Benchmark", "Time",
              "CPU", "Iterations");
  std::printf("%s\n", rule);
  for (const Registration* reg : registry()) {
    for (const auto& args : reg->arg_sets) run_one(*reg, args);
  }
  write_json_summary(argv0);
  return 0;
}

}  // namespace detail

}  // namespace benchmark

#define MINIBENCH_CONCAT2(a, b) a##b
#define MINIBENCH_CONCAT(a, b) MINIBENCH_CONCAT2(a, b)

/// Registers func under "func/test_case_name" with the extra arguments bound,
/// mirroring Google Benchmark's BENCHMARK_CAPTURE.
#define BENCHMARK_CAPTURE(func, test_case_name, ...)                       \
  static ::benchmark::Benchmark* MINIBENCH_CONCAT(mb_reg_, __COUNTER__) =  \
      ::benchmark::RegisterBenchmark(                                      \
          #func "/" #test_case_name,                                       \
          [](::benchmark::State& st) { func(st, __VA_ARGS__); })

#define BENCHMARK_MAIN()                                        \
  int main(int, char** argv) {                                  \
    return ::benchmark::detail::run_all(argv[0]);               \
  }
