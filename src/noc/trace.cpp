#include "noc/trace.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/check.hpp"
#include "common/parse.hpp"

namespace nocalloc::noc {

namespace {

// Terminal indices are ints in TraceRecord and Packet.
constexpr std::size_t kMaxTerminal = std::numeric_limits<int>::max();

[[noreturn]] void bad_line(std::size_t line_no, const std::string& line,
                           const std::string& what) {
  fail("trace line " + std::to_string(line_no) + ": " + what + ": '" + line +
       "'");
}

}  // namespace

void TrafficTrace::add(const TraceRecord& record) {
  NOCALLOC_CHECK(record.src >= 0 && record.dst >= 0 &&
                 record.src != record.dst);
  NOCALLOC_CHECK(is_request(record.type));
  records_.push_back(record);
}

void TrafficTrace::sort() {
  std::stable_sort(records_.begin(), records_.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     return a.cycle != b.cycle ? a.cycle < b.cycle
                                               : a.src < b.src;
                   });
}

TrafficTrace TrafficTrace::parse(std::istream& in) {
  TrafficTrace trace;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream tokens(line);
    std::vector<std::string> fields;
    for (std::string f; tokens >> f;) fields.push_back(f);
    if (fields.size() != 4) {
      bad_line(line_no, line, "expected <cycle> <src> <dst> <R|W>");
    }
    const auto cycle = parse_size(fields[0]);
    const auto src = parse_size(fields[1]);
    const auto dst = parse_size(fields[2]);
    if (!cycle) bad_line(line_no, line, "cycle is not an integer >= 0");
    if (!src || *src > kMaxTerminal) {
      bad_line(line_no, line, "src is not a terminal index");
    }
    if (!dst || *dst > kMaxTerminal) {
      bad_line(line_no, line, "dst is not a terminal index");
    }
    if (*src == *dst) bad_line(line_no, line, "src and dst are equal");
    if (fields[3] != "R" && fields[3] != "W") {
      bad_line(line_no, line, "type is not R or W");
    }
    trace.add({*cycle, static_cast<int>(*src), static_cast<int>(*dst),
               fields[3] == "R" ? PacketType::kReadRequest
                                : PacketType::kWriteRequest});
  }
  trace.sort();
  return trace;
}

TrafficTrace TrafficTrace::load(const std::string& path) {
  std::ifstream file(path);
  if (!file.good()) fail("cannot open trace file '" + path + "' for reading");
  return parse(file);
}

std::string TrafficTrace::to_string() const {
  std::ostringstream out;
  out << "# cycle src dst R|W\n";
  for (const TraceRecord& rec : records_) {
    out << rec.cycle << ' ' << rec.src << ' ' << rec.dst << ' '
        << (rec.type == PacketType::kReadRequest ? 'R' : 'W') << '\n';
  }
  return out.str();
}

void TrafficTrace::save(const std::string& path) const {
  std::ofstream file(path);
  file << to_string() << std::flush;
  if (!file.good()) fail("cannot write trace file '" + path + "'");
}

std::vector<TraceRecord> TrafficTrace::for_terminal(
    int terminal, std::size_t terminals) const {
  std::vector<TraceRecord> out;
  for (const TraceRecord& rec : records_) {
    if (static_cast<std::size_t>(rec.src) >= terminals ||
        static_cast<std::size_t>(rec.dst) >= terminals) {
      fail("trace record '" + std::to_string(rec.cycle) + " " +
           std::to_string(rec.src) + " " + std::to_string(rec.dst) +
           "' names a terminal outside the network (" +
           std::to_string(terminals) + " terminals)");
    }
    if (rec.src == terminal) out.push_back(rec);
  }
  return out;
}

TraceSource::TraceSource(int terminal, std::vector<TraceRecord> records)
    : terminal_(terminal), records_(std::move(records)) {
  for (std::size_t i = 0; i < records_.size(); ++i) {
    NOCALLOC_CHECK(records_[i].src == terminal_);
    NOCALLOC_CHECK(i == 0 || records_[i - 1].cycle <= records_[i].cycle);
  }
}

bool TraceSource::maybe_generate(Cycle now, std::uint64_t& next_id,
                                 Packet& out) {
  // At most one packet per poll; same-cycle records drain on consecutive
  // cycles (their recorded cycle is kept as the creation time, so queueing
  // delay is attributed to the packet, not silently dropped).
  if (next_ >= records_.size() || records_[next_].cycle > now) return false;
  const TraceRecord& rec = records_[next_++];
  out = Packet{};
  out.id = next_id++;
  out.type = rec.type;
  out.src_terminal = rec.src;
  out.dst_terminal = rec.dst;
  out.length = packet_length(rec.type);
  out.created = rec.cycle;
  return true;
}

}  // namespace nocalloc::noc
