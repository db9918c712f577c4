#include "workload.hpp"

#include <algorithm>
#include <numeric>

#include "common/rng.hpp"

namespace perfbench {

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> list;

    WorkloadSpec paced;
    paced.name = "paced";
    paced.why =
        "open loop, Poisson 2000 ops/s, 1 group, 1024 keys, 50/50: ops "
        "arrive alone, so each pays the full hop path; bypasses round "
        "amortization";
    paced.loop = Loop::kOpen;
    paced.n_keys = 1024;
    paced.read_fraction = 0.5;
    paced.rate_ops_per_sec = 2000.0;
    paced.window_us = 1'000'000;
    list.push_back(paced);

    WorkloadSpec saturate;
    saturate.name = "saturate";
    saturate.why =
        "closed loop, 1 group, 256 clients alternating write/read: "
        "CPU-bound, batch windows fill and shared FLUSH amortizes rounds";
    saturate.loop = Loop::kClosed;
    saturate.n_keys = 1024;
    saturate.clients = 256;
    saturate.read_fraction = 0.5;
    saturate.alternate = true;
    saturate.window_us = 250'000;
    list.push_back(saturate);

    WorkloadSpec sharded;
    sharded.name = "sharded_read";
    sharded.why =
        "closed loop, 4 groups behind the router, 256 clients, 9 reads per "
        "write: the only workload where routing and per-group threads "
        "matter";
    sharded.loop = Loop::kClosed;
    sharded.groups = 4;
    sharded.n_keys = 1024;
    sharded.clients = 256;
    sharded.read_fraction = 0.9;
    sharded.window_us = 500'000;
    list.push_back(sharded);

    WorkloadSpec corrupt;
    corrupt.name = "corrupt";
    corrupt.why =
        "closed loop, 1 group, 64 clients alternating write/read, every "
        "server corrupted once a second: the only workload that runs the "
        "stabilization machinery";
    corrupt.loop = Loop::kClosed;
    corrupt.n_keys = 1024;
    corrupt.clients = 64;
    corrupt.read_fraction = 0.5;
    corrupt.alternate = true;
    corrupt.corrupt_every_us = 1'000'000;
    corrupt.window_us = 1'000'000;
    list.push_back(corrupt);
    return list;
  }();
  return kWorkloads;
}

std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return spec;
  }
  return std::nullopt;
}

std::vector<load::ScheduledOp> OpenSchedule(const WorkloadSpec& spec,
                                            std::uint64_t seed,
                                            std::uint64_t duration_us) {
  load::Scenario scenario;
  scenario.n_keys = spec.n_keys;
  scenario.read_fraction = spec.read_fraction;
  scenario.rate_ops_per_sec = spec.rate_ops_per_sec;
  scenario.duration_us = duration_us;
  scenario.seed = seed;
  return load::BuildSchedule(scenario);
}

std::vector<std::uint32_t> ClientKeys(const WorkloadSpec& spec,
                                      std::uint64_t seed) {
  std::vector<std::uint32_t> keys(spec.n_keys);
  std::iota(keys.begin(), keys.end(), 0u);
  sbft::Rng rng(seed);
  // Partial Fisher-Yates: the first `clients` entries are a uniform
  // sample without replacement.
  for (std::size_t i = 0; i < spec.clients && i + 1 < keys.size(); ++i) {
    const std::size_t j = i + rng.NextBelow(keys.size() - i);
    std::swap(keys[i], keys[j]);
  }
  keys.resize(std::min(spec.clients, keys.size()));
  return keys;
}

}  // namespace perfbench
