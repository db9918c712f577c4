// The benchmark driver: builds a ShardedCluster on the production path
// (TCP loopback, mux topology, batching and shared FLUSH), drives one
// workload through the public async API, and records one slot per op.
//
// A run is a sequence of phases separated by a full drain, so the
// layers' counters are read while the cluster is quiescent: a warm-up
// phase, then one measured phase (or, in the traced run, an untraced
// and a traced one). Open-loop phases launch ops at their scheduled
// due time, one in flight per key, queueing the rest behind it; closed-
// loop phases keep one op in flight per logical client and launch the
// next from the completion callback. Latency is always charged from
// the op's intended start (its due time, or the previous op's
// completion).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "alloc_counter.hpp"
#include "common/rng.hpp"
#include "runtime/sharded_cluster.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {

enum class Outcome : std::uint8_t { kPending, kOk, kAborted, kFailed };
enum class ReadValue : std::uint8_t { kNone, kInitial, kWorkload, kForeign };

/// One op. Trivially constructible so the slot array can be reserved
/// up front without touching its pages; a slot is zeroed when claimed.
struct OpSlot {
  std::int64_t due_ns;        // intended start
  std::int64_t launch_ns;     // just before AsyncWrite / AsyncRead
  std::int64_t submitted_ns;  // just after it returned
  std::int64_t done_ns;       // completion callback
  std::uint32_t key;
  std::uint32_t client;    // closed loop: logical client; open loop: key
  std::uint32_t seq;       // write: sequence number of its value
  std::uint32_t read_seq;  // ok read of a workload value: its sequence
  bool is_write;
  bool launched;
  bool queued;       // open loop: waited behind an earlier op on its key
  bool union_graph;  // ok read certified from the union graph
  Outcome outcome;
  ReadValue read;
};

/// The value written for (key, seq); reads are parsed back into it.
[[nodiscard]] sbft::Value ValueOf(std::uint32_t key, std::uint32_t seq);

struct SetupRound {
  std::int64_t begin_ns = 0;
  std::int64_t built_ns = 0;    // ShardedCluster constructed
  std::int64_t started_ns = 0;  // Start() returned
  std::int64_t written_ns = 0;  // one write completed on every group
  std::int64_t stopped_begin_ns = 0;  // teardown (0 = not torn down)
  std::int64_t stopped_end_ns = 0;
};

struct Counters {
  std::uint64_t frames = 0;
  std::uint64_t protocol_cpu_ns = 0;
  std::uint64_t flush_rounds = 0;
  ProcessSample process;
  AllocCount allocs;
};

/// A window boundary: when it was crossed, the process CPU then, and
/// the host's steal counter.
struct WindowMark {
  std::int64_t at_ns = 0;
  ProcessSample process;
  std::uint64_t steal_ticks = 0;
};

/// Only traced phases count allocations; faults are injected in every
/// phase, the warm-up included.
enum class PhaseKind { kWarmup, kMeasured, kTraced };

struct PhaseResult {
  PhaseKind kind = PhaseKind::kWarmup;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;  // every op of the phase has returned
  std::size_t first_slot = 0;
  std::size_t end_slot = 0;  // slots [first_slot, end_slot)
  /// Ops the phase scheduled (open loop) or claimed (closed loop), and
  /// the driver's own launch and completion tallies, kept apart from
  /// the slots so the accounting check is not a tautology.
  std::size_t scheduled = 0;
  std::size_t launched = 0;
  std::size_t returned = 0;
  Counters before;
  Counters after;
  double rss_mb = 0.0;  // at the end, see ProgramResidentMb()
  std::size_t threads = 0;
  std::size_t keys_awaiting_handoff = 0;
  std::vector<std::int64_t> corruption_ns;
  /// Boundaries of the phase's equal windows (about window_us long),
  /// from its start to the end of its offered window; the drain that
  /// follows lies outside them.
  std::vector<WindowMark> windows;
  /// False when the drain deadline passed with ops still in flight.
  bool drained = true;
};

class Driver {
 public:
  /// `planned_us` bounds the run's total phase time; the slot array is
  /// sized from it before any cluster exists.
  Driver(const WorkloadSpec& spec, std::uint64_t seed,
         std::uint64_t planned_us);
  ~Driver();

  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  /// Build, start and prove live `rounds` clusters, tearing down all
  /// but the last, which the phases then run on.
  void SetUp(int rounds);
  PhaseResult RunPhase(std::uint64_t duration_us, PhaseKind kind);
  /// Stop and destroy the cluster; records the last round's teardown.
  void TearDown();

  [[nodiscard]] const std::vector<SetupRound>& setup_rounds() const {
    return setup_rounds_;
  }
  [[nodiscard]] const OpSlot* slots() const { return slots_.get(); }
  /// False once an op could not get a slot (closed loop ran past the
  /// reserved capacity); the run is then invalid.
  [[nodiscard]] bool capacity_ok() const { return !overflow_.load(); }
  [[nodiscard]] std::int64_t NowNs() const;

 private:
  struct KeyQueue {
    bool busy = false;
    std::deque<std::size_t> waiting;
  };
  struct Client {
    std::uint32_t key = 0;
    std::uint32_t next_seq = 0;
    bool next_is_write = true;
    sbft::Rng rng;
  };

  /// The timed events of one phase, in phase time: the ends of its
  /// windows and, on a workload that injects faults, its corruptions.
  struct Events {
    std::uint64_t duration_us = 0;
    std::size_t n_windows = 1;
    std::vector<std::uint64_t> corrupt_at_us;
    std::size_t next_corruption = 0;
    std::size_t next_window = 1;
  };

  void RunOpen(std::uint64_t duration_us, PhaseResult& result);
  void RunClosed(std::uint64_t duration_us, PhaseResult& result);
  [[nodiscard]] Events PhaseEvents(std::uint64_t duration_us) const;
  /// Sleep through the events due at or before `upto_us`, firing them
  /// in time order.
  void FireEvents(Events& events, std::uint64_t upto_us, PhaseResult& result);
  /// Latest completion among the phase's launched slots.
  [[nodiscard]] std::int64_t LastDoneNs(const PhaseResult& result) const;
  void CorruptAll(PhaseResult& result);
  /// Claim a slot for `client`'s next op; false when out of capacity.
  bool ClaimClientOp(std::size_t client, std::int64_t due_ns,
                     std::size_t* index);
  void Launch(std::size_t index);
  void Complete(std::size_t index, sbft::OpStatus status,
                const sbft::Bytes* value);
  [[nodiscard]] bool WaitDrained(std::int64_t deadline_ns);
  [[nodiscard]] Counters ReadCounters() const;
  /// The process's resident memory less the pages of the slots claimed
  /// so far: those grow with the op count, not with the program.
  [[nodiscard]] double ProgramResidentMb() const;
  void SleepUntilNs(std::int64_t ns) const;

  const WorkloadSpec spec_;
  const std::uint64_t seed_;
  const std::chrono::steady_clock::time_point epoch_;
  std::size_t capacity_ = 0;
  std::unique_ptr<OpSlot[]> slots_;
  std::atomic<std::size_t> next_slot_{0};
  std::atomic<bool> overflow_{false};
  /// Launched-op obligations not yet discharged: each launch adds two
  /// (its return and the end of its submit call). Zero means drained.
  std::atomic<std::int64_t> active_{0};
  std::atomic<bool> issuing_{false};  // closed loop: keep launching
  std::atomic<std::size_t> launched_{0};
  std::atomic<std::size_t> returned_{0};

  std::mutex keys_mutex_;  // open loop: per-key single-flight queues
  std::vector<KeyQueue> keys_;
  std::vector<std::uint32_t> key_seq_base_;  // open loop: unique values
  std::vector<Client> clients_;
  std::uint64_t phase_count_ = 0;
  std::uint64_t corruption_events_ = 0;

  std::vector<SetupRound> setup_rounds_;
  std::vector<std::uint32_t> setup_keys_;  // one per group
  // Last member: destroyed first, joining the node threads before the
  // state their callbacks touch.
  std::unique_ptr<sbft::ShardedCluster> cluster_;
};

}  // namespace perfbench
