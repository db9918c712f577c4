// Threaded runtime: the same Automaton objects that run in the
// deterministic simulator run here on real OS threads, communicating
// through in-process mailboxes or TCP sockets on loopback.
//
// Design: one thread per node runs an epoll loop that is also the
// node's dispatch loop. The loop owns the node's mailbox eventfd and,
// with TCP, the node's sockets: its listener, the connections it
// accepted, and the EPOLLOUT/EOF events of its outgoing connections.
// One wakeup is one batch — recv every ready socket, then OnBatchStart,
// every complete frame (straight out of the receive buffers), every
// mailbox item, OnBatchEnd, due timers, and one Flush of the wire.
// Handlers therefore stay single-threaded exactly as in the simulator
// (no locks inside protocol code). Client operations are injected as
// tasks onto the owning node's loop via PostToNode/RunOnNode.
#pragma once

#include <sys/epoll.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "runtime/link_shaper.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/tcp.hpp"
#include "sim/world.hpp"

namespace sbft {

/// How long a node loop may block in epoll for a loop whose earliest
/// timer is due at `deadline`: nullopt (block until an event) without a
/// timer, zero once it is due, otherwise the exact remaining time. The
/// loop waits with epoll_pwait2, so the budget keeps sub-millisecond
/// precision — epoll_wait's millisecond timeout would stretch the mux's
/// 200 µs batch deadline to 1 ms.
std::optional<std::chrono::nanoseconds> NodeLoopTimeout(
    std::optional<std::chrono::steady_clock::time_point> deadline,
    std::chrono::steady_clock::time_point now);

class ThreadCluster {
 public:
  struct Options {
    /// Use TCP sockets on 127.0.0.1 instead of in-process mailboxes for
    /// inter-node frames (mailboxes still carry posted tasks).
    bool use_tcp = false;
    std::uint64_t seed = 1;
    /// Slow/lossy link emulation applied to every inter-node frame at
    /// delivery time (both transports); disabled when all-zero.
    LinkShaping shaping;
  };

  explicit ThreadCluster(Options options);
  ThreadCluster() : ThreadCluster(Options{}) {}
  ~ThreadCluster();

  ThreadCluster(const ThreadCluster&) = delete;
  ThreadCluster& operator=(const ThreadCluster&) = delete;

  /// Register a node before Start().
  NodeId AddNode(std::unique_ptr<Automaton> automaton);

  /// Spawn node loops and run OnStart hooks on each node's own loop.
  void Start();

  /// Close mailboxes, join node loops, then tear down sockets — in that
  /// order, so the transport outlives every thread that can still call
  /// into it. Idempotent.
  void Stop();

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] Automaton& node(NodeId id);

  /// Run `fn` on the node's loop (with exclusive access to its
  /// automaton) and wait for it to finish. Must not be called from that
  /// loop itself: it would wait on the only thread that can run `fn`.
  void RunOnNode(NodeId id, std::function<void()> fn);

  /// Fire-and-forget variant (no join); used by completion callbacks.
  void PostToNode(NodeId id, std::function<void()> fn);

  /// True when the calling thread IS node `id`'s loop of this cluster
  /// (a handler, task, or completion callback). Callers may then touch
  /// the node's automaton directly instead of posting: it is the same
  /// exclusive context a posted task would run in.
  [[nodiscard]] bool OnNodeThread(NodeId id) const;

  /// Listening port of node `id` on 127.0.0.1 (TCP backend only).
  [[nodiscard]] std::uint16_t tcp_port(NodeId id) const;

  /// Total frames delivered across all nodes (throughput accounting).
  [[nodiscard]] std::uint64_t frames_delivered() const {
    return frames_delivered_.load(std::memory_order_relaxed);
  }

  /// Thread-CPU nanoseconds spent inside automaton dispatch — from
  /// frame decode through handlers to reply encode, summed over all
  /// node loops. epoll waits and socket syscalls (recv, sendmsg) sit
  /// outside the measured bracket, so this isolates protocol CPU from
  /// transport and scheduling cost (the numerator of bench_throughput's
  /// protocol_cpu_us_per_op metric).
  [[nodiscard]] std::uint64_t protocol_cpu_ns() const {
    return protocol_cpu_ns_.load(std::memory_order_relaxed);
  }

 private:
  class Endpoint;
  struct NodeState;

  void NodeLoop(NodeId id);
  /// The dispatch bracket of one wakeup (TCP frames, then `batch`).
  void DispatchBatch(NodeId id, std::deque<MailItem>& batch);
  /// TcpBus frame sink: runs inside DispatchFrames on `dst`'s loop.
  void DispatchFrame(NodeId dst, NodeId src, BytesView frame);
  void Deliver(NodeId src, NodeId dst, Bytes frame);
  void DeliverBroadcast(NodeId src, std::span<const NodeId> dsts, Bytes frame);

  /// Push one delivered frame to `dst`'s mailbox (the tail of every
  /// in-process delivery path; also the LinkShaper's forward target).
  void PushFrame(NodeId src, NodeId dst, Frame frame);
  /// True when the shaper consumed the frame (it will be pushed later,
  /// or was dropped by a lossy link).
  bool Shape(NodeId src, NodeId dst, Frame& frame);

  Options options_;
  std::vector<std::unique_ptr<NodeState>> nodes_;
  std::unique_ptr<TcpBus> tcp_;
  std::unique_ptr<LinkShaper> shaper_;
  std::atomic<std::uint64_t> frames_delivered_{0};
  std::atomic<std::uint64_t> protocol_cpu_ns_{0};
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace sbft
