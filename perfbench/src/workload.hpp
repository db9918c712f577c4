// The benchmark's four workloads and the inputs each one derives from
// its seed. The cluster only ever receives the generated operations.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "load/scenario.hpp"

namespace perfbench {

namespace load = sbft::load;

enum class Loop { kOpen, kClosed };

struct WorkloadSpec {
  std::string name;
  std::string why;
  Loop loop = Loop::kOpen;
  /// Register groups behind the consistent-hash router.
  std::size_t groups = 1;
  /// Key space. Open loop: keys drawn uniformly from it. Closed loop:
  /// each logical client owns one distinct key sampled from it.
  std::size_t n_keys = 0;
  /// Closed loop: logical clients, each with one op in flight.
  std::size_t clients = 0;
  double read_fraction = 0.5;
  /// Closed loop: strict write/read alternation instead of a seeded
  /// Bernoulli mix.
  bool alternate = false;
  /// Open loop: Poisson offered rate.
  double rate_ops_per_sec = 0.0;
  /// Transient corruption of every server of every group, repeated at
  /// this period inside each phase (0 = never).
  std::uint64_t corrupt_every_us = 0;
  /// Phases are cut into windows of this length, and the end-to-end
  /// figures are medians over the windows. Long enough for about 1,000
  /// writes, so each window's p99 has about ten samples beyond it; on a
  /// workload that injects faults, one fault period, so that every
  /// window holds exactly one fault.
  std::uint64_t window_us = 0;
};

/// Servers per group (n = 16 tolerates f = 3 Byzantine servers).
inline constexpr std::uint32_t kServersPerGroup = 16;
/// Keys reserved above every workload's key space for the set-up write
/// that proves each group live; the workload never touches them.
inline constexpr std::size_t kSetupKeys = 64;

[[nodiscard]] const std::vector<WorkloadSpec>& Workloads();
[[nodiscard]] std::optional<WorkloadSpec> FindWorkload(const std::string& name);

/// Open loop: the deterministic schedule of one phase (load::BuildSchedule
/// over the workload's rate, keys and mix), from `seed`.
[[nodiscard]] std::vector<load::ScheduledOp> OpenSchedule(
    const WorkloadSpec& spec, std::uint64_t seed, std::uint64_t duration_us);

/// Closed loop: the distinct key each logical client owns, from `seed`.
[[nodiscard]] std::vector<std::uint32_t> ClientKeys(const WorkloadSpec& spec,
                                                    std::uint64_t seed);

}  // namespace perfbench
