// Measurement primitives for nocbench: sample sets, fixed log-bucket
// histograms for very frequent calls, and an in-memory span recorder.
//
// Every probe sits in the benchmark's own code, around calls into the
// library's public API; nothing here reaches inside the simulator.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace nocbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A small set of timings (or other values) kept in full.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  void add_all(const Samples& other);
  std::size_t size() const { return values_.size(); }
  double sum() const;
  double max() const;
  /// Linear interpolation between closest ranks; 0 when empty.
  double quantile(double q) const;

 private:
  std::vector<double> values_;
};

/// Counts of integer nanosecond values in buckets 1/32 of an octave wide
/// (exact below 32 ns), so recording a sample is a few integer operations
/// and no allocation. Quantiles are bucket midpoints, within about 1.6%.
class LogHistogram {
 public:
  void add(std::uint64_t ns);
  std::uint64_t count() const { return count_; }
  /// 0 when empty.
  double quantile(double q) const;

 private:
  static constexpr int kSubBits = 5;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kBuckets = kSub + (64 - kSubBits) * kSub;
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
};

/// Records spans (name, start, end, id, parent, run) in memory and writes
/// them as JSON lines on request. Thread-safe: sweep curves open spans from
/// pool threads.
class Tracer {
 public:
  Tracer();

  /// Spans opened from now on carry this run id (one per traced job).
  void set_run(std::uint64_t run);

  /// Opens a span and returns its id (never 0; 0 means "no parent").
  std::uint64_t open(std::string name, std::uint64_t parent);
  /// Ends a span and returns its duration in seconds.
  double close(std::uint64_t id);

  std::size_t size() const;
  /// Writes one JSON object per span; false if the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Rec {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t parent = 0;
    std::uint64_t run = 0;
  };
  std::int64_t now_ns() const;

  Clock::time_point origin_;
  std::uint64_t run_ = 0;
  mutable std::mutex mu_;
  std::vector<Rec> spans_;  // guarded by mu_; id = index + 1
};

/// Scoped span that also reports its own duration.
class Span {
 public:
  Span(Tracer& tracer, std::string name, std::uint64_t parent)
      : tracer_(tracer), id_(tracer.open(std::move(name), parent)) {}
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return id_; }

  /// Ends the span (idempotent) and returns its duration in seconds.
  double close();

 private:
  Tracer& tracer_;
  std::uint64_t id_;
  double seconds_ = -1.0;
};

}  // namespace nocbench
