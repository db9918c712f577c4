#include "driver.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Ops still in flight this long after a phase's last launch make the
/// phase undrained (the cluster's own op timeout is 10 s).
constexpr std::int64_t kDrainTimeoutNs = 20'000'000'000;
/// Slot reservation for closed loops, whose op count is not known in
/// advance: far above any throughput this deployment reaches.
constexpr double kClosedLoopSlotsPerSec = 200'000.0;

Outcome OutcomeOf(sbft::OpStatus status) {
  switch (status) {
    case sbft::OpStatus::kOk:
      return Outcome::kOk;
    case sbft::OpStatus::kAborted:
      return Outcome::kAborted;
    case sbft::OpStatus::kFailed:
      return Outcome::kFailed;
  }
  return Outcome::kFailed;
}

/// Parse "k<key>#<seq>" back into its sequence number.
void ParseRead(const sbft::Bytes& value, OpSlot& slot) {
  if (value.empty()) {
    slot.read = ReadValue::kInitial;
    return;
  }
  slot.read = ReadValue::kForeign;
  std::uint64_t key = 0;
  std::uint64_t seq = 0;
  std::size_t i = 0;
  if (value[i++] != 'k') return;
  const std::size_t key_begin = i;
  while (i < value.size() && value[i] >= '0' && value[i] <= '9' &&
         i - key_begin < 10) {
    key = key * 10 + (value[i++] - '0');
  }
  if (i == key_begin || i >= value.size() || value[i++] != '#') return;
  const std::size_t seq_begin = i;
  while (i < value.size() && value[i] >= '0' && value[i] <= '9' &&
         i - seq_begin < 10) {
    seq = seq * 10 + (value[i++] - '0');
  }
  if (i == seq_begin || i != value.size()) return;
  if (key != slot.key || seq > 0xffffffffull) return;
  slot.read = ReadValue::kWorkload;
  slot.read_seq = static_cast<std::uint32_t>(seq);
}

sbft::ShardedCluster::Options ClusterOptions(const WorkloadSpec& spec,
                                             std::uint64_t seed) {
  sbft::ShardedCluster::Options options;
  options.group.config = sbft::ProtocolConfig::ForServers(kServersPerGroup);
  options.group.use_tcp = true;
  options.group.multiplex = true;
  options.group.n_clients = spec.n_keys + kSetupKeys;
  options.group.seed = seed;
  options.group.batch_max_ops = 64;
  options.group.batch_max_delay_us = 200;
  options.group.shared_flush = true;
  options.n_groups = spec.groups;
  return options;
}

}  // namespace

sbft::Value ValueOf(std::uint32_t key, std::uint32_t seq) {
  char text[32];
  const int n = std::snprintf(text, sizeof(text), "k%u#%u", key, seq);
  return sbft::Value(text, text + n);
}

Driver::Driver(const WorkloadSpec& spec, std::uint64_t seed,
               std::uint64_t planned_us)
    : spec_(spec), seed_(seed), epoch_(Clock::now()) {
  const double planned_s = static_cast<double>(planned_us) / 1e6;
  const double per_sec = spec.loop == Loop::kOpen ? spec.rate_ops_per_sec * 1.5
                                                  : kClosedLoopSlotsPerSec;
  capacity_ = static_cast<std::size_t>(per_sec * planned_s) + 4096;
  slots_ = std::make_unique_for_overwrite<OpSlot[]>(capacity_);
  keys_ = std::vector<KeyQueue>(spec.n_keys);
  key_seq_base_.assign(spec.n_keys, 0);
  if (spec.loop == Loop::kClosed) {
    sbft::Rng root(seed);
    for (std::uint32_t key : ClientKeys(spec, seed)) {
      Client client;
      client.key = key;
      client.rng = root.Fork();
      client.next_is_write =
          spec.alternate || !client.rng.NextBool(spec.read_fraction);
      clients_.push_back(client);
    }
  }
}

Driver::~Driver() { TearDown(); }

std::int64_t Driver::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

void Driver::SleepUntilNs(std::int64_t ns) const {
  std::this_thread::sleep_until(epoch_ + std::chrono::nanoseconds(ns));
}

void Driver::SetUp(int rounds) {
  const sbft::ShardedCluster::Options options = ClusterOptions(spec_, seed_);
  for (int round = 0; round < rounds; ++round) {
    SetupRound record;
    record.begin_ns = NowNs();
    auto cluster = std::make_unique<sbft::ShardedCluster>(options);
    record.built_ns = NowNs();
    cluster->Start();
    record.started_ns = NowNs();
    if (setup_keys_.empty()) {
      // One reserved key per group, above the workload's key space.
      for (std::size_t group = 0; group < spec_.groups; ++group) {
        for (std::size_t key = spec_.n_keys;
             key < spec_.n_keys + kSetupKeys; ++key) {
          if (cluster->WriteGroupOf(key) == group) {
            setup_keys_.push_back(static_cast<std::uint32_t>(key));
            break;
          }
        }
      }
      if (setup_keys_.size() != spec_.groups) {
        throw std::runtime_error("no reserved set-up key routes to a group");
      }
    }
    for (std::uint32_t key : setup_keys_) {
      const sbft::WriteOutcome outcome =
          cluster->Write(key, ValueOf(key, static_cast<std::uint32_t>(round)));
      if (outcome.status != sbft::OpStatus::kOk) {
        throw std::runtime_error("set-up write did not complete");
      }
    }
    record.written_ns = NowNs();
    if (round + 1 < rounds) {
      record.stopped_begin_ns = NowNs();
      cluster->Stop();
      cluster.reset();
      record.stopped_end_ns = NowNs();
    } else {
      cluster_ = std::move(cluster);
    }
    setup_rounds_.push_back(record);
  }
}

void Driver::TearDown() {
  if (cluster_ == nullptr) return;
  SetupRound& record = setup_rounds_.back();
  record.stopped_begin_ns = NowNs();
  cluster_->Stop();
  cluster_.reset();
  record.stopped_end_ns = NowNs();
}

double Driver::ProgramResidentMb() const {
  // Claimed slots are written in index order from the start of the
  // array, so their pages are the first ones of it.
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const std::size_t claimed = std::min(next_slot_.load(), capacity_);
  const std::size_t slot_bytes =
      (claimed * sizeof(OpSlot) + page - 1) / page * page;
  return ResidentMb() - static_cast<double>(slot_bytes) / (1024.0 * 1024.0);
}

Counters Driver::ReadCounters() const {
  Counters counters;
  counters.frames = cluster_->frames_delivered();
  counters.protocol_cpu_ns = cluster_->protocol_cpu_ns();
  counters.flush_rounds = cluster_->node_flush_rounds();
  counters.process = SampleProcess();
  counters.allocs = AllocTotals();
  return counters;
}

PhaseResult Driver::RunPhase(std::uint64_t duration_us, PhaseKind kind) {
  if (cluster_ == nullptr) throw std::logic_error("RunPhase before SetUp");
  PhaseResult result;
  result.kind = kind;
  ++phase_count_;
  EnableAllocCounting(kind == PhaseKind::kTraced);
  // Every phase starts and ends drained, so the non-atomic mux counter
  // is read while the cluster is quiescent.
  result.before = ReadCounters();
  result.first_slot = std::min(next_slot_.load(), capacity_);
  const std::size_t launched_before = launched_.load();
  const std::size_t returned_before = returned_.load();
  if (spec_.loop == Loop::kOpen) {
    RunOpen(duration_us, result);
  } else {
    RunClosed(duration_us, result);
  }
  result.end_slot = std::min(next_slot_.load(), capacity_);
  if (spec_.loop == Loop::kClosed) {
    result.scheduled = result.end_slot - result.first_slot;
  }
  result.launched = launched_.load() - launched_before;
  result.returned = returned_.load() - returned_before;
  // The phase ends when its last op returned, but never before its
  // offered window closed.
  result.end_ns = std::max(
      LastDoneNs(result),
      result.start_ns + static_cast<std::int64_t>(duration_us) * 1000);
  result.rss_mb = ProgramResidentMb();
  result.threads = ThreadCount();
  result.keys_awaiting_handoff = cluster_->keys_awaiting_handoff();
  result.after = ReadCounters();
  EnableAllocCounting(false);
  if (!result.drained) {
    // Join the node threads before anyone reads the slots their
    // callbacks may still write.
    TearDown();
  }
  return result;
}

std::int64_t Driver::LastDoneNs(const PhaseResult& result) const {
  std::int64_t last = 0;
  for (std::size_t i = result.first_slot; i < result.end_slot; ++i) {
    const OpSlot& slot = slots_[i];
    if (slot.launched && slot.outcome != Outcome::kPending) {
      last = std::max(last, slot.done_ns);
    }
  }
  return last;
}

void Driver::RunOpen(std::uint64_t duration_us, PhaseResult& result) {
  const std::vector<load::ScheduledOp> schedule =
      OpenSchedule(spec_, seed_ * 1'000'003 + phase_count_, duration_us);
  const std::size_t first = result.first_slot;
  if (first + schedule.size() > capacity_) {
    overflow_ = true;
    return;
  }
  std::vector<std::uint32_t> writes(spec_.n_keys, 0);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const load::ScheduledOp& op = schedule[i];
    OpSlot& slot = slots_[first + i];
    slot = OpSlot{};
    slot.key = op.key;
    slot.client = op.key;
    slot.is_write = op.is_write;
    if (op.is_write) {
      // Schedules restart their per-key sequence every phase; the base
      // keeps written values unique across the whole run.
      slot.seq = key_seq_base_[op.key] + op.seq;
      ++writes[op.key];
    }
  }
  for (std::size_t key = 0; key < spec_.n_keys; ++key) {
    key_seq_base_[key] += writes[key];
  }
  next_slot_ = first + schedule.size();
  result.scheduled = schedule.size();

  Events events = PhaseEvents(duration_us);
  result.start_ns = NowNs();
  const auto due = [&](std::uint64_t at_us) {
    return result.start_ns + static_cast<std::int64_t>(at_us) * 1000;
  };
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    slots_[first + i].due_ns = due(schedule[i].at_us);
  }
  result.windows.push_back(
      {result.start_ns, SampleProcess(), HostStealTicks()});
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    FireEvents(events, schedule[i].at_us, result);
    const std::size_t index = first + i;
    OpSlot& slot = slots_[index];
    SleepUntilNs(slot.due_ns);
    bool launch_now = false;
    {
      std::lock_guard<std::mutex> lock(keys_mutex_);
      KeyQueue& queue = keys_[slot.key];
      if (queue.busy) {
        slot.queued = true;
        queue.waiting.push_back(index);
      } else {
        queue.busy = true;
        launch_now = true;
      }
    }
    if (launch_now) Launch(index);
  }
  FireEvents(events, duration_us, result);
  result.drained = WaitDrained(NowNs() + kDrainTimeoutNs);
}

void Driver::RunClosed(std::uint64_t duration_us, PhaseResult& result) {
  Events events = PhaseEvents(duration_us);
  result.start_ns = NowNs();
  issuing_.store(true, std::memory_order_release);
  for (std::size_t client = 0; client < clients_.size(); ++client) {
    std::size_t index = 0;
    // Every client's first op is due at the phase start; the time it
    // takes to inject them all is queueing, and counts.
    if (ClaimClientOp(client, result.start_ns, &index)) Launch(index);
  }
  result.windows.push_back(
      {result.start_ns, SampleProcess(), HostStealTicks()});
  FireEvents(events, duration_us, result);
  issuing_.store(false, std::memory_order_release);
  result.drained = WaitDrained(NowNs() + kDrainTimeoutNs);
}

Driver::Events Driver::PhaseEvents(std::uint64_t duration_us) const {
  Events events;
  events.duration_us = duration_us;
  events.n_windows = std::max<std::uint64_t>(1, duration_us / spec_.window_us);
  // The warm-up corrupts too: the first corruption of a run pays
  // one-time costs that the measured ones should not.
  if (spec_.corrupt_every_us > 0) {
    for (std::uint64_t at = spec_.corrupt_every_us / 2; at < duration_us;
         at += spec_.corrupt_every_us) {
      events.corrupt_at_us.push_back(at);
    }
  }
  return events;
}

void Driver::FireEvents(Events& events, std::uint64_t upto_us,
                        PhaseResult& result) {
  const auto due = [&](std::uint64_t at_us) {
    return result.start_ns + static_cast<std::int64_t>(at_us) * 1000;
  };
  const auto window_end_us = [&](std::size_t k) {
    return events.duration_us * k / events.n_windows;
  };
  while (true) {
    const bool corruption =
        events.next_corruption < events.corrupt_at_us.size() &&
        events.corrupt_at_us[events.next_corruption] <= upto_us;
    const bool window = events.next_window <= events.n_windows &&
                        window_end_us(events.next_window) <= upto_us;
    if (!corruption && !window) return;
    if (corruption &&
        (!window || events.corrupt_at_us[events.next_corruption] <=
                        window_end_us(events.next_window))) {
      SleepUntilNs(due(events.corrupt_at_us[events.next_corruption++]));
      CorruptAll(result);
    } else {
      SleepUntilNs(due(window_end_us(events.next_window++)));
      result.windows.push_back({NowNs(), SampleProcess(), HostStealTicks()});
    }
  }
}

void Driver::CorruptAll(PhaseResult& result) {
  // Stamped before the corruption is queued, so every read it can
  // disturb is invoked after the stamp. One seed for every server: the
  // garbage agrees across replicas, is witnessed by a quorum and
  // answers reads instead of aborting them, the case Theorem 2 bounds.
  result.corruption_ns.push_back(NowNs());
  const std::uint64_t seed = seed_ * 7919 + corruption_events_++ * 131 + 1;
  for (std::size_t server = 0; server < kServersPerGroup; ++server) {
    cluster_->CorruptServer(server, seed);
  }
}

bool Driver::ClaimClientOp(std::size_t client, std::int64_t due_ns,
                           std::size_t* index) {
  const std::size_t slot_index =
      next_slot_.fetch_add(1, std::memory_order_relaxed);
  if (slot_index >= capacity_) {
    overflow_ = true;
    return false;
  }
  Client& owner = clients_[client];
  OpSlot& slot = slots_[slot_index];
  slot = OpSlot{};
  slot.due_ns = due_ns;
  slot.key = owner.key;
  slot.client = static_cast<std::uint32_t>(client);
  slot.is_write = owner.next_is_write;
  if (slot.is_write) slot.seq = owner.next_seq++;
  owner.next_is_write = spec_.alternate
                            ? !slot.is_write
                            : !owner.rng.NextBool(spec_.read_fraction);
  *index = slot_index;
  return true;
}

void Driver::Launch(std::size_t index) {
  OpSlot& slot = slots_[index];
  slot.launched = true;
  launched_.fetch_add(1, std::memory_order_relaxed);
  active_.fetch_add(2, std::memory_order_relaxed);
  slot.launch_ns = NowNs();
  if (slot.is_write) {
    cluster_->AsyncWrite(slot.key, ValueOf(slot.key, slot.seq),
                         [this, index](const sbft::WriteOutcome& outcome) {
                           Complete(index, outcome.status, nullptr);
                         });
  } else {
    cluster_->AsyncRead(slot.key,
                        [this, index](const sbft::ReadOutcome& outcome) {
                          slots_[index].union_graph = outcome.used_union_graph;
                          Complete(index, outcome.status, &outcome.value);
                        });
  }
  slot.submitted_ns = NowNs();
  active_.fetch_sub(1, std::memory_order_release);
}

void Driver::Complete(std::size_t index, sbft::OpStatus status,
                      const sbft::Bytes* value) {
  OpSlot& slot = slots_[index];
  slot.done_ns = NowNs();
  slot.outcome = OutcomeOf(status);
  returned_.fetch_add(1, std::memory_order_relaxed);
  if (value != nullptr && status == sbft::OpStatus::kOk) {
    ParseRead(*value, slot);
  }
  std::size_t next = 0;
  bool has_next = false;
  if (spec_.loop == Loop::kOpen) {
    std::lock_guard<std::mutex> lock(keys_mutex_);
    KeyQueue& queue = keys_[slot.key];
    if (queue.waiting.empty()) {
      queue.busy = false;
    } else {
      next = queue.waiting.front();
      queue.waiting.pop_front();
      has_next = true;
    }
  } else if (issuing_.load(std::memory_order_acquire)) {
    // Closed loop: the next op is due the moment this one completed.
    has_next = ClaimClientOp(slot.client, slot.done_ns, &next);
  }
  // Launch the follow-up before discharging this op, so the in-flight
  // count never reads zero while the chain continues.
  if (has_next) Launch(next);
  active_.fetch_sub(1, std::memory_order_acq_rel);
}

bool Driver::WaitDrained(std::int64_t deadline_ns) {
  while (active_.load(std::memory_order_acquire) != 0) {
    if (NowNs() > deadline_ns) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

}  // namespace perfbench
