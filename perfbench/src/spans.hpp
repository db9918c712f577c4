// In-memory spans for the traced run. Spans are recorded from the
// benchmark's own files around each call into a layer, kept in memory
// and written out when the run ends. A span's self time is its
// duration minus the part of its interval that its children cover.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct Span {
  std::uint64_t trace_id = 0;  // one per op (or per set-up round)
  std::int64_t parent = -1;    // index into the same log; -1 = root
  const char* name = "";       // a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  void Reserve(std::size_t n) { spans_.reserve(n); }
  /// Append a span; returns its index, the `parent` of its children.
  std::int64_t Add(std::uint64_t trace_id, std::int64_t parent,
                   const char* name, std::int64_t start_ns,
                   std::int64_t end_ns);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// One CSV row per span, for the first `max_spans` spans:
  /// trace_id,span_id,parent_id,name,start_ns,end_ns.
  [[nodiscard]] bool WriteCsv(const std::string& path,
                              std::size_t max_spans) const;

 private:
  std::vector<Span> spans_;
};

/// Self time of every span, in the log's order: duration minus the
/// union of its children's intervals clipped to its own interval, so
/// overlapping children are not subtracted twice.
[[nodiscard]] std::vector<std::int64_t> SelfTimesNs(
    const std::vector<Span>& spans);

struct SpanSelfStat {
  std::string name;
  Percentile p50;  // microseconds
  Percentile p99;
};

/// p50 and p99 self time per span name, in order of first appearance.
[[nodiscard]] std::vector<SpanSelfStat> SelfTimeStats(
    const std::vector<Span>& spans);

}  // namespace perfbench
