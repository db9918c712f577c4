#include "verify.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <set>

namespace perfbench {
namespace {

/// Never-written value for read index `i` (writes all start with 'k').
sbft::Value ForeignValue(std::size_t i) {
  const std::string text = "?foreign#" + std::to_string(i);
  return sbft::Value(text.begin(), text.end());
}

/// The ops the segment [from_ns, to_ns) of a run judges: the reads that
/// returned in it, the writes invoked before its end that had not
/// completed by its start, and per key the latest write that had, the
/// only older value a read may still return. A read that spans the next
/// corruption may be disturbed by it, and belongs to the next segment.
sbft::History Segment(const sbft::History& history, std::int64_t from_ns,
                      std::int64_t to_ns) {
  const auto from = static_cast<sbft::VirtualTime>(from_ns);
  const auto to = static_cast<sbft::VirtualTime>(to_ns);
  const auto completed_before = [&](const sbft::OpRecord& op) {
    return op.result == sbft::OpRecord::Result::kOk && op.returned_at < from;
  };
  std::map<std::uint32_t, const sbft::OpRecord*> latest;
  for (const sbft::OpRecord& op : history.ops()) {
    if (op.kind != sbft::OpRecord::Kind::kWrite || !completed_before(op)) {
      continue;
    }
    const sbft::OpRecord*& last = latest[op.client];
    if (last == nullptr || last->returned_at < op.returned_at) last = &op;
  }
  sbft::History segment;
  for (const auto& [key, write] : latest) segment.Add(*write);
  for (const sbft::OpRecord& op : history.ops()) {
    const bool keep =
        op.kind == sbft::OpRecord::Kind::kWrite
            ? op.invoked_at < to && !completed_before(op)
            : op.result != sbft::OpRecord::Result::kPending &&
                  op.returned_at >= from && op.returned_at < to;
    if (keep) segment.Add(op);
  }
  return segment;
}

}  // namespace

sbft::History BuildHistory(const OpSlot* slots, std::size_t n) {
  sbft::History history;
  // Every key starts out holding the empty value: one completed write of
  // it at the epoch, before any launch. A read that returns the empty
  // value after a real write on its key completed is then a stale read.
  std::set<std::uint32_t> keys;
  for (std::size_t i = 0; i < n; ++i) {
    if (slots[i].launched) keys.insert(slots[i].key);
  }
  for (std::uint32_t key : keys) {
    sbft::OpRecord initial;
    initial.kind = sbft::OpRecord::Kind::kWrite;
    initial.result = sbft::OpRecord::Result::kOk;
    initial.client = key;
    initial.invoked_at = 0;
    initial.returned_at = 0;
    history.Add(std::move(initial));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const OpSlot& slot = slots[i];
    if (!slot.launched) continue;
    sbft::OpRecord record;
    record.kind = slot.is_write ? sbft::OpRecord::Kind::kWrite
                                : sbft::OpRecord::Kind::kRead;
    switch (slot.outcome) {
      case Outcome::kOk:
        record.result = sbft::OpRecord::Result::kOk;
        break;
      case Outcome::kAborted:
        record.result = sbft::OpRecord::Result::kAborted;
        break;
      case Outcome::kFailed:
        record.result = sbft::OpRecord::Result::kFailed;
        break;
      case Outcome::kPending:
        record.result = sbft::OpRecord::Result::kPending;
        break;
    }
    record.client = slot.key;
    record.invoked_at = static_cast<sbft::VirtualTime>(slot.launch_ns);
    record.returned_at = static_cast<sbft::VirtualTime>(slot.done_ns);
    if (slot.is_write) {
      record.value = ValueOf(slot.key, slot.seq);
    } else if (slot.outcome == Outcome::kOk) {
      switch (slot.read) {
        case ReadValue::kWorkload:
          record.value = ValueOf(slot.key, slot.read_seq);
          break;
        case ReadValue::kForeign:
          record.value = ForeignValue(i);
          break;
        case ReadValue::kNone:
        case ReadValue::kInitial:
          break;
      }
    }
    history.Add(std::move(record));
  }
  return history;
}

OpAccounting Account(const OpSlot* slots, std::size_t first, std::size_t end,
                     std::size_t scheduled) {
  OpAccounting accounting;
  accounting.scheduled = scheduled;
  std::size_t launched = 0;
  for (std::size_t i = first; i < end; ++i) {
    const OpSlot& slot = slots[i];
    if (!slot.launched) continue;
    ++launched;
    switch (slot.outcome) {
      case Outcome::kOk:
        ++accounting.ok;
        break;
      case Outcome::kAborted:
        ++accounting.aborted;
        break;
      case Outcome::kFailed:
        ++accounting.failed;
        break;
      case Outcome::kPending:
        ++accounting.pending;
        break;
    }
  }
  accounting.unlaunched = scheduled >= launched ? scheduled - launched : 0;
  return accounting;
}

bool AccountingConsistent(const OpAccounting& accounting, std::size_t launched,
                          std::size_t returned) {
  return accounting.Balanced() &&
         accounting.ok + accounting.aborted + accounting.failed == returned &&
         accounting.scheduled - accounting.unlaunched == launched;
}

Verdict Verify(const sbft::History& history,
               std::vector<std::int64_t> corruption_ns) {
  constexpr std::size_t kSampleViolations = 8;
  Verdict verdict;
  std::sort(corruption_ns.begin(), corruption_ns.end());
  const auto check_clean = [&](const sbft::History& part) {
    sbft::CheckOptions options;
    options.max_violations = kSampleViolations;
    const sbft::CheckReport report = load::CheckRegularPerKey(part, options);
    if (!report.ok) {
      verdict.regular = false;
      verdict.violations.insert(verdict.violations.end(),
                                report.violations.begin(),
                                report.violations.end());
    }
  };
  if (corruption_ns.empty()) {
    check_clean(history);
    return verdict;
  }
  check_clean(Segment(history, 0, corruption_ns.front()));
  for (std::size_t i = 0; i < corruption_ns.size(); ++i) {
    const std::int64_t cutoff = i + 1 < corruption_ns.size()
                                    ? corruption_ns[i + 1]
                                    : std::numeric_limits<std::int64_t>::max();
    const load::StabilizationReport report = load::MeasureStabilization(
        Segment(history, corruption_ns[i], cutoff),
        static_cast<std::uint64_t>(corruption_ns[i]));
    if (!report.stabilized) {
      verdict.stabilized = false;
      verdict.violations.push_back("corruption " + std::to_string(i) +
                                   ": no clean suffix before the next one");
    }
    verdict.windows.push_back(report);
  }
  return verdict;
}

}  // namespace perfbench
