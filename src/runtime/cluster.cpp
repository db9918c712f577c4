#include "runtime/cluster.hpp"

#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <ctime>
#include <utility>

#include "common/error.hpp"

namespace sbft {
namespace {

using Clock = std::chrono::steady_clock;

/// CPU time consumed by the calling thread. One syscall per call —
/// sampled once per dispatched batch, not per frame, so the cost
/// amortizes over the batch like everything else on this path.
std::uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Cluster and node whose loop owns the current thread (null/kNoNode
/// elsewhere). Thread-local, so OnNodeThread needs no synchronization;
/// the cluster pointer keeps node ids of different clusters apart.
thread_local const ThreadCluster* tls_cluster = nullptr;
thread_local NodeId tls_node = kNoNode;

/// epoll_pwait2 with `timeout` (nullopt blocks). Kernels before 5.11
/// lack the syscall; there the wait falls back to epoll_wait, rounding
/// the budget UP to whole milliseconds (rounding down would spin).
int WaitForEvents(int epoll_fd, std::span<epoll_event> events,
                  std::optional<std::chrono::nanoseconds> timeout) {
  static std::atomic<bool> have_pwait2{true};
  const int max = static_cast<int>(events.size());
  if (have_pwait2.load(std::memory_order_relaxed)) {
    timespec ts{};
    if (timeout) {
      ts.tv_sec = static_cast<time_t>(timeout->count() / 1'000'000'000);
      ts.tv_nsec = static_cast<long>(timeout->count() % 1'000'000'000);
    }
    const int n = ::epoll_pwait2(epoll_fd, events.data(), max,
                                 timeout ? &ts : nullptr, nullptr);
    if (n >= 0 || errno != ENOSYS) return n;
    have_pwait2.store(false, std::memory_order_relaxed);
  }
  int ms = -1;
  if (timeout) {
    ms = static_cast<int>(
        std::chrono::ceil<std::chrono::milliseconds>(*timeout).count());
  }
  return ::epoll_wait(epoll_fd, events.data(), max, ms);
}

}  // namespace

std::optional<std::chrono::nanoseconds> NodeLoopTimeout(
    std::optional<Clock::time_point> deadline, Clock::time_point now) {
  if (!deadline) return std::nullopt;
  if (*deadline <= now) return std::chrono::nanoseconds::zero();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(*deadline -
                                                              now);
}

// Endpoint bound to one node of the threaded cluster. Every call comes
// from the node's own loop (handlers, OnStart hooks and posted tasks
// all run there), which is what the TCP backend's owner contract and
// the lock-free timer list rely on.
class ThreadCluster::Endpoint final : public IEndpoint {
 public:
  Endpoint(ThreadCluster& cluster, NodeId id, Rng rng)
      : cluster_(cluster), id_(id), rng_(rng) {}

  void Send(NodeId dst, Bytes frame) override {
    cluster_.Deliver(id_, dst, std::move(frame));
  }

  void Broadcast(std::span<const NodeId> dsts, Bytes frame) override {
    cluster_.DeliverBroadcast(id_, dsts, std::move(frame));
  }

  void SetTimer(VirtualTime delay, int timer_id) override {
    // Delays are microseconds, matching Now().
    timers_.emplace_back(Clock::now() + std::chrono::microseconds(delay),
                         timer_id);
  }

  /// Earliest pending timer deadline, if any.
  [[nodiscard]] std::optional<Clock::time_point> NextTimerDeadline() const {
    if (timers_.empty()) return std::nullopt;
    auto best = timers_.front().first;
    for (const auto& [when, id] : timers_) best = std::min(best, when);
    return best;
  }

  /// Fire every due timer in arming order. A fired timer leaves the
  /// list, so the next wait blocks instead of spinning on it.
  void FireDueTimers(Automaton& automaton) {
    if (timers_.empty()) return;
    const auto now = Clock::now();
    // Collect ids first: OnTimer may re-arm, appending to timers_.
    std::vector<int> due;
    std::erase_if(timers_, [&](const auto& timer) {
      if (timer.first > now) return false;
      due.push_back(timer.second);
      return true;
    });
    for (const int timer_id : due) automaton.OnTimer(timer_id, *this);
  }

  [[nodiscard]] VirtualTime Now() const override {
    return static_cast<VirtualTime>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::now().time_since_epoch())
            .count());
  }

  [[nodiscard]] NodeId self() const override { return id_; }
  Rng& rng() override { return rng_; }

 private:
  ThreadCluster& cluster_;
  NodeId id_;
  Rng rng_;
  /// Pending timers, unordered (the list stays tiny — the mux batch
  /// window arms at most one).
  std::vector<std::pair<Clock::time_point, int>> timers_;
};

struct ThreadCluster::NodeState {
  std::unique_ptr<Automaton> automaton;
  std::unique_ptr<Endpoint> endpoint;
  Mailbox mailbox;
  /// The loop's epoll set: the mailbox eventfd (data.ptr == nullptr)
  /// plus, with TCP, every socket the node owns.
  int epoll_fd = -1;
  /// Frames dispatched in the current wakeup (loop-local tally).
  std::uint64_t frames = 0;
  std::thread thread;

  ~NodeState() {
    if (epoll_fd >= 0) ::close(epoll_fd);
  }
};

ThreadCluster::ThreadCluster(Options options) : options_(options) {
  if (options_.shaping.enabled()) {
    shaper_ = std::make_unique<LinkShaper>(
        options_.shaping, [this](NodeId src, NodeId dst, Frame frame) {
          PushFrame(src, dst, std::move(frame));
        });
  }
  if (options_.use_tcp) {
    tcp_ = std::make_unique<TcpBus>(
        [this](NodeId dst, NodeId src, BytesView frame) {
          DispatchFrame(dst, src, frame);
        });
  }
}

void ThreadCluster::PushFrame(NodeId src, NodeId dst, Frame frame) {
  if (dst >= nodes_.size()) return;
  nodes_[dst]->mailbox.Push(MailItem{src, std::move(frame), nullptr});
}

bool ThreadCluster::Shape(NodeId src, NodeId dst, Frame& frame) {
  // Offer leaves `frame` intact when it declines (returns false), so
  // the caller can continue down the direct-delivery path.
  return shaper_ && shaper_->Offer(src, dst, std::move(frame));
}

ThreadCluster::~ThreadCluster() { Stop(); }

NodeId ThreadCluster::AddNode(std::unique_ptr<Automaton> automaton) {
  SBFT_ASSERT(!started_);
  const auto id = static_cast<NodeId>(nodes_.size());
  auto state = std::make_unique<NodeState>();
  state->automaton = std::move(automaton);
  Rng seeder(options_.seed + id * 7919);
  state->endpoint = std::make_unique<Endpoint>(*this, id, seeder.Fork());
  state->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  SBFT_ASSERT(state->epoll_fd >= 0);
  // Edge-triggered and never read: each mailbox signal is a new edge.
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.ptr = nullptr;
  SBFT_ASSERT(::epoll_ctl(state->epoll_fd, EPOLL_CTL_ADD,
                          state->mailbox.fd(), &ev) == 0);
  if (tcp_) tcp_->AddNode(id, state->epoll_fd);
  nodes_.push_back(std::move(state));
  return id;
}

void ThreadCluster::Start() {
  SBFT_ASSERT(!started_);
  started_ = true;
  if (shaper_) shaper_->Start();
  if (tcp_) tcp_->Start();
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    nodes_[id]->thread = std::thread([this, id] { NodeLoop(id); });
  }
  // OnStart on each node's own loop, synchronously.
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    RunOnNode(id, [this, id] {
      nodes_[id]->automaton->OnStart(*nodes_[id]->endpoint);
    });
  }
}

Automaton& ThreadCluster::node(NodeId id) { return *nodes_.at(id)->automaton; }

bool ThreadCluster::OnNodeThread(NodeId id) const {
  return tls_cluster == this && tls_node == id;
}

std::uint16_t ThreadCluster::tcp_port(NodeId id) const {
  SBFT_ASSERT(tcp_ != nullptr);
  return tcp_->port(id);
}

void ThreadCluster::NodeLoop(NodeId id) {
  tls_cluster = this;
  tls_node = id;
  NodeState& node = *nodes_[id];
  std::array<epoll_event, 64> events{};
  std::deque<MailItem> batch;
  for (;;) {
    // Block until a socket, the mailbox or the next timer needs the
    // loop — but only poll when items are already queued (a post from
    // this loop's own last batch never signals the eventfd).
    auto timeout = NodeLoopTimeout(node.endpoint->NextTimerDeadline(),
                                   Clock::now());
    if (!node.mailbox.PrepareToPark()) {
      timeout = std::chrono::nanoseconds::zero();
    }
    const int n = WaitForEvents(node.epoll_fd, events, timeout);
    // Transport first: accept, recv into the receive buffers, continue
    // backlogged flushes. The mailbox's event needs no handling.
    for (int i = 0; i < n; ++i) {
      const epoll_event& event = events[static_cast<std::size_t>(i)];
      if (event.data.ptr != nullptr) tcp_->OnEvent(event);
    }
    if (!node.mailbox.Drain(batch)) break;  // closed and drained
    DispatchBatch(id, batch);
    // Everything this wakeup queued on the wire goes out in (at most)
    // one syscall per touched connection.
    if (tcp_) tcp_->Flush(id);
  }
}

void ThreadCluster::DispatchBatch(NodeId id, std::deque<MailItem>& batch) {
  NodeState& node = *nodes_[id];
  Automaton& automaton = *node.automaton;
  Endpoint& endpoint = *node.endpoint;
  const bool received = tcp_ && tcp_->HasReceived(id);
  if (!received && batch.empty()) {
    endpoint.FireDueTimers(automaton);  // a timer-only wakeup
    return;
  }
  // The dispatch bracket below — batch hooks, handlers, timers — is
  // the protocol work of this wakeup; the epoll wait and recv before it
  // and the flush after it are transport. Sample thread CPU at its
  // edges to attribute cost accordingly.
  const std::uint64_t cpu_start = ThreadCpuNs();
  // Bracket the wakeup so the node can coalesce everything it sends in
  // response to it (protocol-round batching seam — one wakeup, one
  // shared round).
  automaton.OnBatchStart(endpoint);
  if (received) tcp_->DispatchFrames(id);
  for (auto& item : batch) {
    if (item.task) {
      item.task();
    } else {
      ++node.frames;
      automaton.OnFrame(item.src, item.frame.view(), endpoint);
      // Recycle into this loop's pool — its own sends draw from the
      // same pool, so a steady request/reply load reuses storage.
      item.frame.Recycle(FramePool());
    }
  }
  automaton.OnBatchEnd(endpoint);
  if (node.frames != 0) {
    frames_delivered_.fetch_add(node.frames, std::memory_order_relaxed);
    node.frames = 0;
  }
  // Due timers fire after the batch, on the same loop that runs
  // handlers — automata stay single-threaded here as in the sim.
  endpoint.FireDueTimers(automaton);
  protocol_cpu_ns_.fetch_add(ThreadCpuNs() - cpu_start,
                             std::memory_order_relaxed);
}

void ThreadCluster::DispatchFrame(NodeId dst, NodeId src, BytesView frame) {
  NodeState& node = *nodes_[dst];
  Frame owned;
  if (shaper_) {
    // The view dies with this call; a shaped frame needs its own copy.
    Bytes copy = FramePool().Acquire();
    copy.assign(frame.begin(), frame.end());
    owned = Frame(std::move(copy));
    if (Shape(src, dst, owned)) return;
    frame = owned.view();
  }
  ++node.frames;
  node.automaton->OnFrame(src, frame, *node.endpoint);
  owned.Recycle(FramePool());
}

void ThreadCluster::Deliver(NodeId src, NodeId dst, Bytes frame) {
  if (dst >= nodes_.size()) return;
  if (tcp_) {
    tcp_->Send(src, dst, frame);
    FramePool().Release(std::move(frame));
    return;
  }
  Frame wrapped(std::move(frame));
  if (Shape(src, dst, wrapped)) return;
  nodes_[dst]->mailbox.Push(MailItem{src, std::move(wrapped), nullptr});
}

void ThreadCluster::DeliverBroadcast(NodeId src, std::span<const NodeId> dsts,
                                     Bytes frame) {
  if (tcp_) {
    // One encode, one socket write per destination, zero frame copies.
    for (NodeId dst : dsts) {
      if (dst < nodes_.size()) tcp_->Send(src, dst, frame);
    }
    FramePool().Release(std::move(frame));
    return;
  }
  // One payload shared by every destination mailbox.
  auto payload = std::make_shared<Bytes>(std::move(frame));
  for (NodeId dst : dsts) {
    if (dst < nodes_.size()) {
      Frame wrapped(payload);  // per-destination shaping decisions
      if (Shape(src, dst, wrapped)) continue;
      nodes_[dst]->mailbox.Push(MailItem{src, std::move(wrapped), nullptr});
    }
  }
}

void ThreadCluster::RunOnNode(NodeId id, std::function<void()> fn) {
  SBFT_ASSERT(id < nodes_.size());
  // From the node's own loop the wait below could never end.
  SBFT_ASSERT(!OnNodeThread(id));
  std::promise<void> done;
  auto future = done.get_future();
  const bool pushed = nodes_[id]->mailbox.Push(MailItem{
      kNoNode, {}, [fn = std::move(fn), &done] {
        fn();
        done.set_value();
      }});
  SBFT_ASSERT(pushed);
  future.wait();
}

void ThreadCluster::PostToNode(NodeId id, std::function<void()> fn) {
  if (id >= nodes_.size()) return;
  nodes_[id]->mailbox.Push(MailItem{kNoNode, {}, std::move(fn)});
}

void ThreadCluster::Stop() {
  if (stopped_ || !started_) {
    stopped_ = true;
    return;
  }
  stopped_ = true;
  // The shaper stops first: frames it still holds are dropped, and
  // later Offers decline so sends fall through to (soon-closed)
  // mailboxes. Node loops are the only callers into the TCP bus, so
  // closing mailboxes and joining the loops before the transport means
  // it is torn down only once nothing can touch it.
  if (shaper_) shaper_->Stop();
  for (auto& node : nodes_) node->mailbox.Close();
  for (auto& node : nodes_) {
    if (node->thread.joinable()) node->thread.join();
  }
  if (tcp_) tcp_->Stop();
}

}  // namespace sbft
