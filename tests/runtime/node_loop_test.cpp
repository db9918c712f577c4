// ThreadCluster node-loop tests over the TCP backend: torn-frame
// reassembly across recv boundaries (raw-socket byte dribbling), the
// oversized-frame drop, order under backpressure with Flush and the
// EPOLLOUT continuation interleaved on the sender's loop, shutdown
// with writes queued behind a full socket, zero-copy frame views that
// stay valid while handlers send, timer precision, and the RunOnNode
// self-deadlock guard.
#include "runtime/cluster.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sbft {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;
using std::chrono::nanoseconds;
using std::chrono::steady_clock;

bool WaitUntil(const std::function<bool()>& done, int ms = 5000) {
  for (int waited = 0; waited < ms; ++waited) {
    if (done()) return true;
    std::this_thread::sleep_for(milliseconds(1));
  }
  return done();
}

void StoreLe32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

/// Test automaton: every hook forwards to an optional callback, and the
/// endpoint is kept so tasks posted to the node can send from its loop.
class Probe final : public Automaton {
 public:
  void OnStart(IEndpoint& endpoint) override {
    endpoint_ = &endpoint;
    if (on_start) on_start(endpoint);
  }
  void OnFrame(NodeId from, BytesView frame, IEndpoint& endpoint) override {
    if (on_frame) on_frame(from, frame, endpoint);
  }
  void OnTimer(int timer_id, IEndpoint& endpoint) override {
    if (on_timer) on_timer(timer_id, endpoint);
  }
  void OnBatchStart(IEndpoint& /*endpoint*/) override {
    if (on_batch) on_batch();
  }

  [[nodiscard]] IEndpoint& endpoint() const { return *endpoint_; }

  std::function<void(IEndpoint&)> on_start;
  std::function<void(NodeId, BytesView, IEndpoint&)> on_frame;
  std::function<void(int, IEndpoint&)> on_timer;
  std::function<void()> on_batch;

 private:
  IEndpoint* endpoint_ = nullptr;
};

/// A TCP cluster of `n` probes; probes(i) configures node i before Start.
struct ProbeCluster {
  explicit ProbeCluster(std::size_t n) : cluster(Options()) {
    for (std::size_t i = 0; i < n; ++i) {
      auto probe = std::make_unique<Probe>();
      probes.push_back(probe.get());
      cluster.AddNode(std::move(probe));
    }
  }
  static ThreadCluster::Options Options() {
    ThreadCluster::Options options;
    options.use_tcp = true;
    return options;
  }
  ThreadCluster cluster;
  std::vector<Probe*> probes;
};

int ConnectRaw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

struct Recorder {
  std::mutex mutex;
  std::vector<NodeId> sources;
  std::vector<Bytes> frames;

  void Record(NodeId from, BytesView frame) {
    std::lock_guard<std::mutex> lock(mutex);
    sources.push_back(from);
    frames.push_back(ToBytes(frame));
  }
  std::size_t Count() {
    std::lock_guard<std::mutex> lock(mutex);
    return frames.size();
  }
};

// --- Torn-frame reassembly ----------------------------------------------

TEST(ReactorTcp, TornFramesReassembleAcrossRecvBoundaries) {
  ProbeCluster pc(1);
  Recorder recorder;
  pc.probes[0]->on_frame = [&](NodeId from, BytesView frame, IEndpoint&) {
    recorder.Record(from, frame);
  };
  pc.cluster.Start();

  // Hand-framed wire bytes: three frames from "node 7", the middle one
  // empty, the last one 1000 bytes.
  std::vector<std::uint8_t> wire;
  auto append_frame = [&wire](std::uint32_t src, const Bytes& payload) {
    std::uint8_t header[8];
    StoreLe32(header, static_cast<std::uint32_t>(payload.size()));
    StoreLe32(header + 4, src);
    wire.insert(wire.end(), header, header + 8);
    wire.insert(wire.end(), payload.begin(), payload.end());
  };
  append_frame(7, Bytes{1, 2, 3});
  append_frame(7, Bytes{});
  Bytes big(1000);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i);
  }
  append_frame(7, big);

  const int fd = ConnectRaw(pc.cluster.tcp_port(0));
  ASSERT_GE(fd, 0);
  // Dribble the stream in 7-byte chunks with small pauses, so headers
  // and payloads tear across recv calls in every possible alignment.
  for (std::size_t off = 0; off < wire.size(); off += 7) {
    const std::size_t len = std::min<std::size_t>(7, wire.size() - off);
    ASSERT_EQ(::send(fd, wire.data() + off, len, 0),
              static_cast<ssize_t>(len));
    std::this_thread::sleep_for(microseconds(200));
  }

  ASSERT_TRUE(WaitUntil([&] { return recorder.Count() >= 3; }));
  {
    std::lock_guard<std::mutex> lock(recorder.mutex);
    EXPECT_EQ(recorder.sources, (std::vector<NodeId>{7, 7, 7}));
    EXPECT_EQ(recorder.frames[0], (Bytes{1, 2, 3}));
    EXPECT_TRUE(recorder.frames[1].empty());
    EXPECT_EQ(recorder.frames[2], big);
  }
  ::close(fd);
  pc.cluster.Stop();
}

TEST(ReactorTcp, OversizedFrameDropsConnectionNotProcess) {
  ProbeCluster pc(1);
  Recorder recorder;
  pc.probes[0]->on_frame = [&](NodeId from, BytesView frame, IEndpoint&) {
    recorder.Record(from, frame);
  };
  pc.cluster.Start();

  const int fd = ConnectRaw(pc.cluster.tcp_port(0));
  ASSERT_GE(fd, 0);
  std::uint8_t header[8];
  StoreLe32(header, 0xffffffffu);  // length far beyond the frame limit
  StoreLe32(header + 4, 3);
  ASSERT_EQ(::send(fd, header, sizeof(header), 0), 8);

  // The loop must close the connection: the peer observes EOF/reset.
  char buffer[16];
  ssize_t n = -2;
  EXPECT_TRUE(WaitUntil([&] {
    n = ::recv(fd, buffer, sizeof(buffer), MSG_DONTWAIT);
    return n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK);
  }));
  EXPECT_EQ(recorder.Count(), 0u);
  ::close(fd);
  pc.cluster.Stop();
}

// --- Backpressure: Flush and EPOLLOUT interleaved on one loop ------------

// The sender queues four 64KB frames per wakeup and re-posts itself, so
// each of its wakeups runs a Flush while earlier bytes may still be
// waiting for EPOLLOUT on the same loop. The receiver's loop stalls 2ms
// per wakeup for the first half. Total volume (~24MB) far exceeds the
// socket buffers, so the EAGAIN path and the EPOLLOUT continuation are
// exercised continuously. Frames must still arrive complete and in
// order.
TEST(ReactorTcp, BackpressurePreservesOrderAcrossInterleavedFlushers) {
  constexpr std::uint32_t kFrames = 384;  // * 64KB = 24MB
  constexpr std::size_t kSize = std::size_t{64} << 10;
  ProbeCluster pc(2);
  std::mutex mutex;
  std::vector<std::uint32_t> seen;
  std::atomic<bool> slow{true};
  std::atomic<bool> bad_size{false};
  pc.probes[1]->on_batch = [&] {
    if (slow.load()) std::this_thread::sleep_for(milliseconds(2));
  };
  pc.probes[1]->on_frame = [&](NodeId, BytesView frame, IEndpoint&) {
    if (frame.size() != kSize) bad_size.store(true);
    std::uint32_t sequence;
    std::memcpy(&sequence, frame.data(), sizeof(sequence));
    std::lock_guard<std::mutex> lock(mutex);
    seen.push_back(sequence);
  };
  pc.cluster.Start();

  std::uint32_t next = 0;  // touched only on node 0's loop
  std::function<void()> step = [&] {
    Bytes payload(kSize, 0xab);
    for (int k = 0; k < 4 && next < kFrames; ++k, ++next) {
      std::memcpy(payload.data(), &next, sizeof(next));
      pc.probes[0]->endpoint().Send(1, payload);
      if (next == kFrames / 2) slow.store(false);  // let the tail drain
    }
    if (next < kFrames) pc.cluster.PostToNode(0, step);
  };
  pc.cluster.PostToNode(0, step);

  ASSERT_TRUE(WaitUntil(
      [&] {
        std::lock_guard<std::mutex> lock(mutex);
        return seen.size() >= kFrames;
      },
      20000));
  EXPECT_FALSE(bad_size.load());
  {
    std::lock_guard<std::mutex> lock(mutex);
    ASSERT_EQ(seen.size(), kFrames);
    for (std::uint32_t i = 0; i < kFrames; ++i) {
      ASSERT_EQ(seen[i], i) << "frame order broke at " << i;
    }
  }
  pc.cluster.Stop();
}

TEST(ReactorTcp, StopWhileBackpressured) {
  ProbeCluster pc(2);
  std::atomic<std::size_t> delivered{0};
  pc.probes[1]->on_batch = [] { std::this_thread::sleep_for(milliseconds(5)); };
  pc.probes[1]->on_frame = [&](NodeId, BytesView, IEndpoint&) {
    delivered.fetch_add(1);
  };
  pc.cluster.Start();
  std::atomic<int> queued{0};
  for (int i = 0; i < 8; ++i) {
    pc.cluster.PostToNode(0, [&] {
      const Bytes payload(std::size_t{256} << 10, 0xcd);
      for (int k = 0; k < 8; ++k) pc.probes[0]->endpoint().Send(1, payload);
      queued.fetch_add(1);
    });
  }
  ASSERT_TRUE(WaitUntil([&] { return queued.load() == 8; }));
  // Stop with megabytes still queued behind a stalled reader: must not
  // hang, crash, or leak (ASan/TSan runs cover the latter).
  pc.cluster.Stop();
}

// --- Zero-copy dispatch ---------------------------------------------------

/// Deterministic payload for frame `seq`, so a receiver can check every
/// byte of the view it was handed.
Bytes Pattern(std::uint32_t seq, std::size_t size) {
  Bytes out(size);
  for (std::size_t i = 0; i < size; ++i) {
    out[i] = static_cast<std::uint8_t>(seq * 31 + i * 7);
  }
  if (size >= 4) std::memcpy(out.data(), &seq, sizeof(seq));
  return out;
}

std::size_t PatternSize(std::uint32_t seq) {
  // One frame far larger than a receive buffer forces it to grow.
  return seq == 40 ? (std::size_t{300} << 10) : 6000 + seq * 13;
}

// Node 0 sends node 1 a ~1MB burst, more than one receive buffer holds,
// so it spans several recv calls (and one frame must grow the buffer).
// While dispatching every third frame, node 1's handler sends to itself
// and to both peers, then re-checks the view it is still holding. Every
// view must equal the bytes sent, before and after those sends: the
// receive buffer may only move between dispatch passes. Under ASan a
// view into a moved buffer is a heap-use-after-free.
TEST(ReactorTcp, ZeroCopyViewsStayValidWhileHandlersSend) {
  constexpr std::uint32_t kFrames = 96;
  constexpr std::uint32_t kEchoes = kFrames / 3;
  ProbeCluster pc(3);
  std::atomic<std::uint32_t> from_sender{0}, self_echoes{0}, mismatches{0};
  std::atomic<std::uint32_t> echoes_at_0{0}, echoes_at_2{0};
  std::uint32_t expected_seq = 0;  // touched only on node 1's loop
  pc.probes[1]->on_frame = [&](NodeId from, BytesView frame,
                               IEndpoint& endpoint) {
    if (from == 1) {  // an echo this handler sent to itself
      if (frame.size() != 2 || frame[0] != 0xee) mismatches.fetch_add(1);
      self_echoes.fetch_add(1);
      return;
    }
    const std::uint32_t seq = expected_seq++;
    const Bytes expected = Pattern(seq, PatternSize(seq));
    if (!SameBytes(frame, expected)) mismatches.fetch_add(1);
    if (seq % 3 == 0) {
      const Bytes echo{0xee, static_cast<std::uint8_t>(seq)};
      endpoint.Send(1, echo);
      endpoint.Send(0, echo);
      endpoint.Send(2, echo);
      if (!SameBytes(frame, expected)) mismatches.fetch_add(1);
    }
    from_sender.fetch_add(1);
  };
  pc.probes[0]->on_frame = [&](NodeId, BytesView, IEndpoint&) {
    echoes_at_0.fetch_add(1);
  };
  pc.probes[2]->on_frame = [&](NodeId, BytesView, IEndpoint&) {
    echoes_at_2.fetch_add(1);
  };
  pc.cluster.Start();

  pc.cluster.PostToNode(0, [&] {
    for (std::uint32_t seq = 0; seq < kFrames; ++seq) {
      pc.probes[0]->endpoint().Send(1, Pattern(seq, PatternSize(seq)));
    }
  });
  ASSERT_TRUE(WaitUntil([&] {
    return from_sender.load() == kFrames && self_echoes.load() == kEchoes &&
           echoes_at_0.load() == kEchoes && echoes_at_2.load() == kEchoes;
  }));
  EXPECT_EQ(mismatches.load(), 0u);
  pc.cluster.Stop();
}

// --- Timers ---------------------------------------------------------------

TEST(NodeLoopTimeout, KeepsMicrosecondGranularity) {
  const auto now = steady_clock::now();
  EXPECT_EQ(NodeLoopTimeout(now + microseconds(200), now),
            nanoseconds(microseconds(200)));
  // Not rounded up to the next millisecond.
  EXPECT_EQ(NodeLoopTimeout(now + microseconds(1500), now),
            nanoseconds(microseconds(1500)));
  EXPECT_EQ(NodeLoopTimeout(now + nanoseconds(1), now), nanoseconds(1));
}

TEST(NodeLoopTimeout, ExpiredDeadlinePollsAndNoTimerBlocks) {
  const auto now = steady_clock::now();
  EXPECT_EQ(NodeLoopTimeout(now, now), nanoseconds::zero());
  EXPECT_EQ(NodeLoopTimeout(now - milliseconds(5), now), nanoseconds::zero());
  EXPECT_FALSE(NodeLoopTimeout(std::nullopt, now).has_value());
}

std::chrono::microseconds ProcessCpu() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return std::chrono::seconds(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         microseconds(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

// A sub-millisecond timer fires once; afterwards the loop blocks again
// instead of polling a spent deadline with a zero timeout.
TEST(ThreadClusterTest, FiredTimerDoesNotSpinTheLoop) {
  ThreadCluster cluster;
  auto probe = std::make_unique<Probe>();
  std::atomic<int> fired{0};
  probe->on_start = [](IEndpoint& endpoint) { endpoint.SetTimer(300, 7); };
  probe->on_timer = [&](int timer_id, IEndpoint&) {
    EXPECT_EQ(timer_id, 7);
    fired.fetch_add(1);
  };
  cluster.AddNode(std::move(probe));
  cluster.Start();
  ASSERT_TRUE(WaitUntil([&] { return fired.load() == 1; }));
  const auto cpu_before = ProcessCpu();
  std::this_thread::sleep_for(milliseconds(200));
  const auto cpu_used = ProcessCpu() - cpu_before;
  EXPECT_EQ(fired.load(), 1);
  // A spinning loop would burn about the whole 200ms window.
  EXPECT_LT(cpu_used, milliseconds(100));
  cluster.Stop();
}

// --- RunOnNode self-deadlock guard ----------------------------------------

TEST(ThreadClusterDeathTest, RunOnNodeFromItsOwnLoopAsserts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadCluster cluster;
        const NodeId id = cluster.AddNode(std::make_unique<Probe>());
        cluster.Start();
        cluster.RunOnNode(id, [&] { cluster.RunOnNode(id, [] {}); });
      },
      "OnNodeThread");
}

}  // namespace
}  // namespace sbft
