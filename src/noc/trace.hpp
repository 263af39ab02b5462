// Trace-driven traffic.
//
// The paper evaluates with synthetic request/reply traffic; production
// systems replay recorded traces. This module supplies the substitute: a
// simple text trace format ("cycle src dst R|W" per line) plus a
// TrafficSource that replays a trace deterministically, so workloads can be
// captured once and re-run across allocator configurations.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "noc/traffic.hpp"

namespace nocalloc::noc {

/// One trace record: terminal `src` creates a request to `dst` at `cycle`.
struct TraceRecord {
  Cycle cycle = 0;
  int src = -1;
  int dst = -1;
  PacketType type = PacketType::kReadRequest;  // requests only

  bool operator==(const TraceRecord&) const = default;
};

/// An ordered collection of trace records.
class TrafficTrace {
 public:
  /// Appends a record. Records may arrive unsorted; sort() before use.
  void add(const TraceRecord& record);

  /// Sorts records by (cycle, src); replay requires this order.
  void sort();

  const std::vector<TraceRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }

  /// Parses the text format: one record per line as
  ///   <cycle> <src-terminal> <dst-terminal> <R|W>
  /// Blank lines and lines starting with '#' are ignored. Each field must
  /// parse whole (no sign, no trailing junk) and a line must have exactly
  /// four; anything else aborts naming the line number and text -- a bad
  /// trace is a setup error, not a runtime condition.
  static TrafficTrace parse(std::istream& in);
  /// parse() on the file at `path`; a file that cannot be opened aborts
  /// naming the path.
  static TrafficTrace load(const std::string& path);

  /// Serializes to the parse() format.
  std::string to_string() const;
  /// Writes to_string() to `path`; a failed open or write aborts naming
  /// the path.
  void save(const std::string& path) const;

  /// Collects this trace's records for one terminal of a network with
  /// `terminals` terminals, preserving order. Aborts naming the record if
  /// any record's src or dst is not one of those terminals, so a replay
  /// that builds its sources from here rejects such a trace before it
  /// simulates.
  std::vector<TraceRecord> for_terminal(int terminal,
                                        std::size_t terminals) const;

 private:
  std::vector<TraceRecord> records_;
};

/// Replays one terminal's slice of a trace: each record becomes a request
/// packet created at its recorded cycle (or as soon afterwards as the
/// source is polled).
class TraceSource final : public TrafficSource {
 public:
  TraceSource(int terminal, std::vector<TraceRecord> records);

  bool maybe_generate(Cycle now, std::uint64_t& next_id,
                      Packet& out) override;

  void state(StateArchive& ar) override {
    ar.u64(next_);
    if (ar.loading()) NOCALLOC_CHECK(next_ <= records_.size());
  }

  std::size_t remaining() const { return records_.size() - next_; }

 private:
  int terminal_;
  std::vector<TraceRecord> records_;
  std::size_t next_ = 0;
};

}  // namespace nocalloc::noc
