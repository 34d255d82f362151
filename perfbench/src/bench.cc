#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench.h"

namespace dmlbench {

std::string CompareBits(const std::vector<double>& expected,
                        const std::vector<double>& actual) {
  if (expected.size() != actual.size()) return "output count differs";
  for (size_t i = 0; i < expected.size(); ++i) {
    if (std::memcmp(&expected[i], &actual[i], sizeof(double)) != 0) {
      return "output " + std::to_string(i) + " differs from the warm-up (" +
             std::to_string(actual[i]) + " vs " +
             std::to_string(expected[i]) + ")";
    }
  }
  return "";
}

std::map<std::string, Tracer::Totals> Tracer::Summarize() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_s[static_cast<size_t>(s.parent)] += (s.end_ns - s.start_ns) * 1e-9;
    }
  }
  std::map<std::string, Totals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Totals& t = totals[s.name];
    const double duration = (s.end_ns - s.start_ns) * 1e-9;
    t.spans += 1;
    t.total_s += duration;
    t.self_s += duration - child_s[i];
    t.count += s.count;
  }
  return totals;
}

Status Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::InvalidArgument("cannot write spans to " + path);
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"answer\":" << s.answer << ",\"count\":" << s.count << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return out ? Status::OK() : Status::Internal("short write to " + path);
}

}  // namespace dmlbench
