#include "probe.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace nocbench {

void Samples::add_all(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::sum() const {
  double s = 0.0;
  for (double v : values_) s += v;
  return s;
}

double Samples::max() const {
  return values_.empty() ? 0.0
                         : *std::max_element(values_.begin(), values_.end());
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

void LogHistogram::add(std::uint64_t ns) {
  std::size_t idx = 0;
  if (ns < kSub) {
    idx = ns;
  } else {
    // Octave e (the top set bit) keeps its next kSubBits bits as the
    // sub-bucket: values in [2^e, 2^(e+1)) split into kSub equal buckets.
    const int e = std::bit_width(ns) - 1;
    const std::uint64_t sub = (ns >> (e - kSubBits)) - kSub;
    idx = static_cast<std::size_t>(kSub + (e - kSubBits) * kSub) + sub;
  }
  ++counts_[idx];
  ++count_;
}

double LogHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen < std::max<std::uint64_t>(rank, 1)) continue;
    if (i < static_cast<std::size_t>(kSub)) return static_cast<double>(i);
    const std::size_t e = (i - kSub) / kSub + kSubBits;
    const std::size_t sub = (i - kSub) % kSub;
    const double width = std::ldexp(1.0, static_cast<int>(e) - kSubBits);
    return static_cast<double>(kSub + sub) * width + width / 2;
  }
  return 0.0;
}

Tracer::Tracer() : origin_(Clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

void Tracer::set_run(std::uint64_t run) {
  std::lock_guard<std::mutex> lock(mu_);
  run_ = run;
}

std::uint64_t Tracer::open(std::string name, std::uint64_t parent) {
  Rec rec;
  rec.name = std::move(name);
  rec.parent = parent;
  rec.start_ns = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  rec.run = run_;
  spans_.push_back(std::move(rec));
  return spans_.size();
}

double Tracer::close(std::uint64_t id) {
  const std::int64_t end = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  Rec& rec = spans_[id - 1];
  rec.end_ns = end;
  return static_cast<double>(end - rec.start_ns) * 1e-9;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Rec& r = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"id\":%zu,\"parent\":%llu,\"run\":%llu}\n",
                 r.name.c_str(), static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns), i + 1,
                 static_cast<unsigned long long>(r.parent),
                 static_cast<unsigned long long>(r.run));
  }
  return std::fclose(f) == 0;
}

double Span::close() {
  if (seconds_ < 0.0) seconds_ = tracer_.close(id_);
  return seconds_;
}

}  // namespace nocbench
