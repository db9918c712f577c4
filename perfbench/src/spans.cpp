#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string_view>
#include <utility>

namespace perfbench {

std::int64_t SpanLog::Add(std::uint64_t trace_id, std::int64_t parent,
                          const char* name, std::int64_t start_ns,
                          std::int64_t end_ns) {
  spans_.push_back({trace_id, parent, name, start_ns, end_ns});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

bool SpanLog::WriteCsv(const std::string& path, std::size_t max_spans) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "trace_id,span_id,parent_id,name,start_ns,end_ns\n");
  for (std::size_t i = 0; i < std::min(max_spans, spans_.size()); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file, "%llu,%zu,%lld,%s,%lld,%lld\n",
                 static_cast<unsigned long long>(span.trace_id), i,
                 static_cast<long long>(span.parent), span.name,
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return std::fclose(file) == 0;
}

std::vector<std::int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_ns, span.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = span.start_ns;  // end of the covered prefix
    for (const auto& [start, end] : kids) {
      const std::int64_t lo = std::max(start, cursor);
      const std::int64_t hi = std::min(end, span.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[i] = std::max<std::int64_t>(0, span.end_ns - span.start_ns - covered);
  }
  return self;
}

std::vector<SpanSelfStat> SelfTimeStats(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = SelfTimesNs(spans);
  std::vector<std::string_view> order;
  std::map<std::string_view, std::vector<double>> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto [it, inserted] = by_name.try_emplace(spans[i].name);
    if (inserted) order.push_back(spans[i].name);
    it->second.push_back(static_cast<double>(self[i]) / 1e3);
  }
  std::vector<SpanSelfStat> stats;
  for (std::string_view name : order) {
    std::vector<double>& values = by_name[name];
    SpanSelfStat stat;
    stat.name = std::string(name);
    stat.p50 = PercentileOf(values, 0.50);
    stat.p99 = PercentileOf(values, 0.99);
    stats.push_back(std::move(stat));
  }
  return stats;
}

}  // namespace perfbench
