#include "stats.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>

namespace perfbench {
namespace {

double Seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

Percentile PercentileOf(std::vector<double>& samples, double q) {
  Percentile result;
  result.samples = samples.size();
  if (samples.empty()) return result;
  const auto n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(
      std::clamp(std::ceil(q * n), 1.0, n));  // 1-based nearest rank
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  result.value = samples[rank - 1];
  result.beyond = samples.size() - rank;
  return result;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

ProcessSample SampleProcess() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  ProcessSample sample;
  sample.user_s = Seconds(usage.ru_utime);
  sample.sys_s = Seconds(usage.ru_stime);
  sample.voluntary_switches = static_cast<std::uint64_t>(usage.ru_nvcsw);
  sample.involuntary_switches = static_cast<std::uint64_t>(usage.ru_nivcsw);
  return sample;
}

std::uint64_t HostStealTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  // user nice system idle iowait irq softirq steal
  std::uint64_t fields[8] = {};
  stat >> cpu;
  for (std::uint64_t& field : fields) stat >> field;
  if (!stat || cpu != "cpu") return 0;
  return fields[7];
}

double TicksPerSecond() { return static_cast<double>(sysconf(_SC_CLK_TCK)); }

double ResidentMb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size_pages = 0;
  std::uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  const auto page = static_cast<double>(sysconf(_SC_PAGESIZE));
  return static_cast<double>(resident_pages) * page / (1024.0 * 1024.0);
}

std::size_t ThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return static_cast<std::size_t>(std::stoul(line.substr(8)));
    }
  }
  return 0;
}

}  // namespace perfbench
