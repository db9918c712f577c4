// Small statistics and process-sampling helpers shared by the driver,
// the reporter and the tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A nearest-rank percentile of exact samples, with the sample count it
/// rests on: `beyond` is how many samples lie above the reported rank,
/// the number the benchmark prints next to every tail figure.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

/// Nearest-rank percentile (q in (0, 1]) of `samples`; reorders the
/// vector. Zero with samples == 0 on an empty input.
[[nodiscard]] Percentile PercentileOf(std::vector<double>& samples, double q);

/// Median of a small set (sorts a copy); 0 on an empty input.
[[nodiscard]] double Median(std::vector<double> values);

/// Outcome counts of one measured phase. Every op the phase scheduled
/// lands in exactly one bucket.
struct OpAccounting {
  std::size_t scheduled = 0;
  std::size_t ok = 0;
  std::size_t aborted = 0;
  std::size_t failed = 0;      // kFailed, including op timeouts
  std::size_t pending = 0;     // launched, never returned
  std::size_t unlaunched = 0;  // scheduled, never launched

  [[nodiscard]] std::size_t not_ok() const {
    return aborted + failed + pending + unlaunched;
  }
  /// ok + aborted + failed + pending + unlaunched == scheduled.
  [[nodiscard]] bool Balanced() const {
    return ok + not_ok() == scheduled;
  }
  /// (failed + aborted + timed out + never launched) / attempted.
  [[nodiscard]] double ErrorFrac() const {
    return scheduled == 0 ? 0.0
                          : static_cast<double>(not_ok()) /
                                static_cast<double>(scheduled);
  }
};

/// Process-wide resource usage at one instant (getrusage and /proc).
struct ProcessSample {
  double user_s = 0.0;
  double sys_s = 0.0;
  std::uint64_t voluntary_switches = 0;
  std::uint64_t involuntary_switches = 0;

  [[nodiscard]] double cpu_s() const { return user_s + sys_s; }
};

[[nodiscard]] ProcessSample SampleProcess();
/// CPU time the hypervisor ran something else while the machine's
/// CPUs wanted to run, summed over CPUs, in clock ticks since boot (the
/// "steal" column of /proc/stat; 0 where the kernel does not report it).
[[nodiscard]] std::uint64_t HostStealTicks();
/// Clock ticks per second of HostStealTicks().
[[nodiscard]] double TicksPerSecond();
/// Resident set size in MiB (/proc/self/statm).
[[nodiscard]] double ResidentMb();
/// Live threads of this process (/proc/self/status).
[[nodiscard]] std::size_t ThreadCount();

}  // namespace perfbench
