// Correctness of a run: the recorded ops become a History, checked per
// key for regularity (load::CheckRegularPerKey). With injected
// corruptions the run is split at each injection; every segment must
// reach a clean suffix (load::MeasureStabilization), and only reads
// inside a segment's violation window are excused.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "driver.hpp"
#include "load/stabilization.hpp"
#include "spec/history.hpp"

namespace perfbench {

/// The launched ops among slots [0, n) as a History: one register per
/// key (OpRecord::client = key), times in nanoseconds since the run's
/// epoch, and a unique never-written value for any read that returned
/// something other than a workload value or the initial value. Each key
/// also gets a completed write of the initial (empty) value at time 0.
[[nodiscard]] sbft::History BuildHistory(const OpSlot* slots, std::size_t n);

/// Outcome counts of slots [first, end) of a phase that scheduled
/// `scheduled` ops; slots past `end` count as never launched.
[[nodiscard]] OpAccounting Account(const OpSlot* slots, std::size_t first,
                                   std::size_t end, std::size_t scheduled);

/// The partition adds up, and agrees with the driver's own launch and
/// completion tallies for the phase.
[[nodiscard]] bool AccountingConsistent(const OpAccounting& accounting,
                                        std::size_t launched,
                                        std::size_t returned);

struct Verdict {
  /// No violation outside the excused windows.
  bool regular = true;
  /// Every corruption was followed by a clean suffix that judges reads.
  bool stabilized = true;
  std::vector<std::string> violations;  // a sample, for the report
  std::vector<load::StabilizationReport> windows;  // one per corruption

  [[nodiscard]] bool ok() const { return regular && stabilized; }
};

[[nodiscard]] Verdict Verify(const sbft::History& history,
                             std::vector<std::int64_t> corruption_ns);

}  // namespace perfbench
