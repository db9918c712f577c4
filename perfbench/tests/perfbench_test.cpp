// Tests for the benchmark's own logic: span self time, op accounting,
// percentile sample counts, schedule determinism and the checker path.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "driver.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "verify.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

TEST(SpanSelfTime, OverlappingChildrenAreSubtractedOnce) {
  SpanLog log;
  const std::int64_t root = log.Add(1, -1, "op", 0, 100);
  log.Add(1, root, "a", 10, 40);
  log.Add(1, root, "b", 30, 60);   // overlaps a on [30, 40]
  log.Add(1, root, "c", 90, 120);  // runs past the parent's end
  const std::vector<std::int64_t> self = SelfTimesNs(log.spans());
  ASSERT_EQ(self.size(), 4u);
  EXPECT_EQ(self[0], 100 - 50 - 10);  // covered: [10, 60] and [90, 100]
  EXPECT_EQ(self[1], 30);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
}

TEST(SpanSelfTime, StatsPerNameInMicroseconds) {
  SpanLog log;
  for (int i = 0; i < 100; ++i) {
    const std::int64_t root = log.Add(i, -1, "op", 0, 10'000 + i * 1000);
    log.Add(i, root, "child", 0, 10'000);
  }
  const std::vector<SpanSelfStat> stats = SelfTimeStats(log.spans());
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "op");
  EXPECT_DOUBLE_EQ(stats[0].p50.value, 49.0);  // rank 50 of 0..99 us
  EXPECT_DOUBLE_EQ(stats[0].p99.value, 98.0);
  EXPECT_EQ(stats[1].name, "child");
  EXPECT_DOUBLE_EQ(stats[1].p99.value, 10.0);
}

TEST(Percentiles, NearestRankWithSampleCounts) {
  std::vector<double> samples;
  for (int i = 200; i >= 1; --i) samples.push_back(i);
  const Percentile p99 = PercentileOf(samples, 0.99);
  EXPECT_DOUBLE_EQ(p99.value, 198.0);
  EXPECT_EQ(p99.samples, 200u);
  EXPECT_EQ(p99.beyond, 2u);
  const Percentile p50 = PercentileOf(samples, 0.50);
  EXPECT_DOUBLE_EQ(p50.value, 100.0);
  EXPECT_EQ(p50.beyond, 100u);

  std::vector<double> empty;
  const Percentile none = PercentileOf(empty, 0.99);
  EXPECT_EQ(none.samples, 0u);
  EXPECT_DOUBLE_EQ(none.value, 0.0);
}

OpSlot Slot(std::uint32_t key, bool is_write, Outcome outcome,
            std::int64_t launch_ns, std::int64_t done_ns) {
  OpSlot slot{};
  slot.key = key;
  slot.client = key;
  slot.is_write = is_write;
  slot.launched = true;
  slot.outcome = outcome;
  slot.due_ns = launch_ns;
  slot.launch_ns = launch_ns;
  slot.submitted_ns = launch_ns;
  slot.done_ns = done_ns;
  return slot;
}

TEST(Accounting, ErrorFracAndPartitionOfASyntheticPhase) {
  std::vector<OpSlot> slots;
  for (int i = 0; i < 5; ++i) {
    slots.push_back(Slot(0, true, Outcome::kOk, i * 10, i * 10 + 5));
  }
  slots.push_back(Slot(0, false, Outcome::kAborted, 60, 65));
  slots.push_back(Slot(0, true, Outcome::kFailed, 70, 75));
  slots.push_back(Slot(0, false, Outcome::kPending, 80, 0));
  OpSlot unlaunched{};
  slots.push_back(unlaunched);  // claimed, never launched

  const OpAccounting a = Account(slots.data(), 0, slots.size(), 10);
  EXPECT_EQ(a.ok, 5u);
  EXPECT_EQ(a.aborted, 1u);
  EXPECT_EQ(a.failed, 1u);
  EXPECT_EQ(a.pending, 1u);
  EXPECT_EQ(a.unlaunched, 2u);
  EXPECT_TRUE(a.Balanced());
  EXPECT_DOUBLE_EQ(a.ErrorFrac(), 0.5);
  // 8 launched, 7 returned according to the driver's own tallies.
  EXPECT_TRUE(AccountingConsistent(a, 8, 7));
  EXPECT_FALSE(AccountingConsistent(a, 8, 8));  // a lost completion
  EXPECT_FALSE(AccountingConsistent(a, 9, 7));  // a launch with no slot

  OpAccounting empty;
  EXPECT_DOUBLE_EQ(empty.ErrorFrac(), 0.0);
  EXPECT_TRUE(empty.Balanced());
}

TEST(Schedule, SameSeedSameInputs) {
  const WorkloadSpec paced = *FindWorkload("paced");
  const auto a = OpenSchedule(paced, 7, 500'000);
  const auto b = OpenSchedule(paced, 7, 500'000);
  const auto c = OpenSchedule(paced, 8, 500'000);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at_us, b[i].at_us);
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].is_write, b[i].is_write);
    if (i < c.size() && (a[i].at_us != c[i].at_us || a[i].key != c[i].key)) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);

  const WorkloadSpec sharded = *FindWorkload("sharded_read");
  const std::vector<std::uint32_t> keys = ClientKeys(sharded, 3);
  EXPECT_EQ(keys, ClientKeys(sharded, 3));
  EXPECT_NE(keys, ClientKeys(sharded, 4));
  EXPECT_EQ(keys.size(), sharded.clients);
  EXPECT_EQ(std::set<std::uint32_t>(keys.begin(), keys.end()).size(),
            keys.size());
  for (std::uint32_t key : keys) EXPECT_LT(key, sharded.n_keys);
}

TEST(Checker, CleanHistoryPasses) {
  std::vector<OpSlot> slots;
  slots.push_back(Slot(1, false, Outcome::kOk, 0, 10));  // initial value
  slots.back().read = ReadValue::kInitial;
  slots.push_back(Slot(1, true, Outcome::kOk, 20, 30));
  slots.back().seq = 0;
  slots.push_back(Slot(1, false, Outcome::kOk, 40, 50));
  slots.back().read = ReadValue::kWorkload;
  slots.back().read_seq = 0;
  const Verdict verdict = Verify(BuildHistory(slots.data(), slots.size()), {});
  EXPECT_TRUE(verdict.ok());
}

TEST(Checker, ReadOfANeverWrittenValueFails) {
  std::vector<OpSlot> slots;
  slots.push_back(Slot(1, true, Outcome::kOk, 0, 10));
  slots.push_back(Slot(1, false, Outcome::kOk, 20, 30));
  slots.back().read = ReadValue::kForeign;
  const Verdict verdict = Verify(BuildHistory(slots.data(), slots.size()), {});
  EXPECT_FALSE(verdict.regular);
  EXPECT_FALSE(verdict.ok());
  EXPECT_FALSE(verdict.violations.empty());
}

TEST(Checker, StaleReadAfterACompletedWriteFails) {
  std::vector<OpSlot> slots;
  slots.push_back(Slot(2, true, Outcome::kOk, 0, 10));
  slots.back().seq = 0;
  slots.push_back(Slot(2, true, Outcome::kOk, 20, 30));
  slots.back().seq = 1;
  slots.push_back(Slot(2, false, Outcome::kOk, 40, 50));
  slots.back().read = ReadValue::kWorkload;
  slots.back().read_seq = 0;  // superseded by seq 1
  EXPECT_FALSE(Verify(BuildHistory(slots.data(), slots.size()), {}).ok());
}

TEST(Checker, InitialValueAfterACompletedWriteFails) {
  std::vector<OpSlot> slots;
  slots.push_back(Slot(4, true, Outcome::kOk, 10, 20));
  slots.back().seq = 0;
  slots.push_back(Slot(4, false, Outcome::kOk, 30, 40));
  slots.back().read = ReadValue::kInitial;  // the write was lost
  EXPECT_FALSE(Verify(BuildHistory(slots.data(), slots.size()), {}).ok());

  // Concurrent with the write, the initial value is still admissible.
  slots.back().launch_ns = 15;
  EXPECT_TRUE(Verify(BuildHistory(slots.data(), slots.size()), {}).ok());
}

TEST(Checker, GarbageIsExcusedOnlyUntilTheFirstWriteAfterACorruption) {
  std::vector<OpSlot> slots;
  slots.push_back(Slot(3, true, Outcome::kOk, 0, 10));  // before the fault
  slots.push_back(Slot(3, false, Outcome::kOk, 200, 210));  // garbage
  slots.back().read = ReadValue::kForeign;
  slots.push_back(Slot(3, true, Outcome::kOk, 300, 310));
  slots.back().seq = 1;
  slots.push_back(Slot(3, false, Outcome::kOk, 400, 410));
  slots.back().read = ReadValue::kWorkload;
  slots.back().read_seq = 1;
  const sbft::History history = BuildHistory(slots.data(), slots.size());
  const Verdict healed = Verify(history, {100});
  EXPECT_TRUE(healed.ok());
  ASSERT_EQ(healed.windows.size(), 1u);
  EXPECT_EQ(healed.windows[0].excused_reads, 1u);
  EXPECT_GT(healed.windows[0].violation_window_us, 0u);

  // The same garbage read before any corruption is a violation.
  EXPECT_FALSE(Verify(history, {}).ok());
  // Garbage after the post-fault write never stabilizes.
  slots.push_back(Slot(3, false, Outcome::kOk, 500, 510));
  slots.back().read = ReadValue::kForeign;
  EXPECT_FALSE(Verify(BuildHistory(slots.data(), slots.size()), {100}).ok());
}

TEST(Checker, ASegmentRemembersOnlyTheLatestWriteBeforeItsCorruption) {
  std::vector<OpSlot> slots;
  slots.push_back(Slot(5, true, Outcome::kOk, 0, 10));
  slots.back().seq = 0;
  slots.push_back(Slot(5, true, Outcome::kOk, 20, 30));
  slots.back().seq = 1;
  slots.push_back(Slot(5, false, Outcome::kOk, 200, 210));  // after the fault
  slots.back().read = ReadValue::kWorkload;
  slots.back().read_seq = 1;
  slots.push_back(Slot(5, true, Outcome::kOk, 300, 310));
  slots.back().seq = 2;
  slots.push_back(Slot(5, false, Outcome::kOk, 400, 410));
  slots.back().read = ReadValue::kWorkload;
  slots.back().read_seq = 2;
  EXPECT_TRUE(Verify(BuildHistory(slots.data(), slots.size()), {100}).ok());

  slots.back().read_seq = 0;  // superseded before the corruption
  EXPECT_FALSE(Verify(BuildHistory(slots.data(), slots.size()), {100}).ok());
}

}  // namespace
}  // namespace perfbench
