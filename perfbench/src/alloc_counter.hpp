// Heap allocation counting for the traced run. alloc_counter.cpp
// replaces the global operator new of the benchmark binary; counting is
// off until EnableAllocCounting(true), so the untraced run pays one
// relaxed load per allocation and nothing else.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocCount {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};

void EnableAllocCounting(bool on);
/// Totals since the process started counting, summed over all threads.
[[nodiscard]] AllocCount AllocTotals();

}  // namespace perfbench
