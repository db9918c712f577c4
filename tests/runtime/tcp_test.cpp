// TcpBus unit tests: framing, lazy connect, bidirectional traffic,
// queue-and-flush batching, clean shutdown, error degradation, and
// concurrent owners. The bus owns no thread, so a small harness plays
// the node loops: one epoll set per node, pumped by whichever thread
// owns that node (the test thread for every node, unless a test gives
// each node a thread of its own).
#include "runtime/tcp.hpp"

#include <gtest/gtest.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

namespace sbft {
namespace {

class Harness {
 public:
  struct Item {
    NodeId src;
    NodeId dst;
    Bytes frame;
  };

  explicit Harness(std::size_t nodes)
      : bus([this](NodeId dst, NodeId src, BytesView frame) {
          std::lock_guard<std::mutex> lock(mutex);
          received.push_back({src, dst, ToBytes(frame)});
        }) {
    for (NodeId id = 0; id < nodes; ++id) {
      epoll_fds.push_back(::epoll_create1(EPOLL_CLOEXEC));
      bus.AddNode(id, epoll_fds.back());
    }
    bus.Start();
  }

  ~Harness() {
    bus.Stop();
    for (const int fd : epoll_fds) ::close(fd);
  }

  /// One wakeup of node `id`'s loop: wait up to `timeout_ms` for its
  /// sockets, handle the events, dispatch, flush.
  void Pump(NodeId id, int timeout_ms = 0) {
    epoll_event events[64];
    const int n = ::epoll_wait(epoll_fds[id], events, 64, timeout_ms);
    for (int i = 0; i < n; ++i) bus.OnEvent(events[i]);
    bus.DispatchFrames(id);
    bus.Flush(id);
  }

  /// Pump every node from this thread until `n` frames arrived.
  bool PumpUntil(std::size_t n, int ms = 5000) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
    while (Count() < n && std::chrono::steady_clock::now() < deadline) {
      for (NodeId id = 0; id < epoll_fds.size(); ++id) Pump(id);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return Count() >= n;
  }

  std::size_t Count() {
    std::lock_guard<std::mutex> lock(mutex);
    return received.size();
  }

  std::mutex mutex;
  std::vector<Item> received;
  std::vector<int> epoll_fds;
  TcpBus bus;
};

TEST(TcpBus, RoundTripOneFrame) {
  Harness h(2);
  ASSERT_TRUE(h.bus.Send(0, 1, Bytes{1, 2, 3}));
  h.bus.Flush(0);
  ASSERT_TRUE(h.PumpUntil(1));
  EXPECT_EQ(h.received[0].src, 0u);
  EXPECT_EQ(h.received[0].dst, 1u);
  EXPECT_EQ(h.received[0].frame, (Bytes{1, 2, 3}));
}

TEST(TcpBus, ManyFramesPreserveOrderPerConnection) {
  Harness h(2);
  // Queue the whole burst, then flush once: the frames coalesce into
  // very few sendmsg calls but must still arrive in order.
  for (std::uint8_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(h.bus.Send(0, 1, Bytes{i}));
  }
  h.bus.Flush(0);
  ASSERT_TRUE(h.PumpUntil(50));
  for (std::uint8_t i = 0; i < 50; ++i) {
    EXPECT_EQ(h.received[i].frame, Bytes{i});  // TCP is FIFO
  }
}

TEST(TcpBus, BidirectionalAndEmptyFrames) {
  Harness h(2);
  ASSERT_TRUE(h.bus.Send(0, 1, Bytes{}));
  ASSERT_TRUE(h.bus.Send(1, 0, Bytes{9}));
  h.bus.Flush(0);
  h.bus.Flush(1);
  ASSERT_TRUE(h.PumpUntil(2));
}

TEST(TcpBus, FlushCoalescesInterleavedDestinations) {
  Harness h(3);
  for (std::uint8_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(h.bus.Send(0, 1 + (i % 2), Bytes{i}));
  }
  h.bus.Flush(0);
  ASSERT_TRUE(h.PumpUntil(20));
  // Per-destination order must hold even though sends interleaved.
  std::vector<std::uint8_t> to1, to2;
  for (const auto& item : h.received) {
    (item.dst == 1 ? to1 : to2).push_back(item.frame.at(0));
  }
  ASSERT_EQ(to1.size(), 10u);
  ASSERT_EQ(to2.size(), 10u);
  EXPECT_TRUE(std::is_sorted(to1.begin(), to1.end()));
  EXPECT_TRUE(std::is_sorted(to2.begin(), to2.end()));
}

TEST(TcpBus, SendToUnknownNodeFails) {
  Harness h(1);
  EXPECT_FALSE(h.bus.Send(0, 99, Bytes{1}));
}

TEST(TcpBus, SendAfterStopFails) {
  Harness h(2);
  h.bus.Stop();
  EXPECT_FALSE(h.bus.Send(0, 1, Bytes{1}));
}

TEST(TcpBus, StopIsIdempotent) {
  Harness h(1);
  h.bus.Stop();
  h.bus.Stop();  // must not hang or crash
}

TEST(TcpBus, DroppedConnectionDegradesAndReconnects) {
  Harness h(2);
  ASSERT_TRUE(h.bus.Send(0, 1, Bytes{1}));
  h.bus.Flush(0);
  ASSERT_TRUE(h.PumpUntil(1));

  h.bus.DropConnection(0, 1);
  EXPECT_GE(h.bus.connections_dropped(), 1u);

  // The next send lazily reconnects; traffic resumes without a crash.
  ASSERT_TRUE(h.bus.Send(0, 1, Bytes{2}));
  h.bus.Flush(0);
  ASSERT_TRUE(h.PumpUntil(2));
  EXPECT_EQ(h.received[1].frame, Bytes{2});
}

TEST(TcpBus, StopWithQueuedUnflushedWrites) {
  Harness h(2);
  for (std::uint8_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(h.bus.Send(0, 1, Bytes{i}));
  }
  // No Flush: Stop must tear down cleanly with bytes still queued.
  h.bus.Stop();
}

// Every node on its own owner thread, all sending to all at once: the
// per-node state is touched only by its owner, so this is race-free
// without a lock (the TSan job checks exactly that), and every
// (src, dst) stream still arrives complete and in order.
TEST(TcpBus, ManyNodeCrossTraffic) {
  constexpr std::size_t kNodes = 6;
  constexpr std::uint8_t kRounds = 20;
  Harness h(kNodes);
  std::atomic<bool> done{false};
  std::vector<std::thread> owners;
  for (NodeId id = 0; id < kNodes; ++id) {
    owners.emplace_back([&h, &done, id] {
      for (std::uint8_t round = 0; round < kRounds; ++round) {
        for (NodeId dst = 0; dst < kNodes; ++dst) {
          if (dst == id) continue;
          ASSERT_TRUE(h.bus.Send(
              id, dst, Bytes{static_cast<std::uint8_t>(id), round}));
        }
        h.bus.Flush(id);
        h.Pump(id);
      }
      while (!done.load()) h.Pump(id, 1);
    });
  }
  const std::size_t expected = kNodes * (kNodes - 1) * kRounds;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (h.Count() < expected && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  done.store(true);
  for (auto& owner : owners) owner.join();
  ASSERT_EQ(h.Count(), expected);
  std::vector<std::vector<std::uint8_t>> next(kNodes * kNodes);
  for (const auto& item : h.received) {
    ASSERT_EQ(item.frame.size(), 2u);
    EXPECT_EQ(item.frame[0], item.src);
    next[item.src * kNodes + item.dst].push_back(item.frame[1]);
  }
  for (NodeId src = 0; src < kNodes; ++src) {
    for (NodeId dst = 0; dst < kNodes; ++dst) {
      if (src == dst) continue;
      const auto& rounds = next[src * kNodes + dst];
      ASSERT_EQ(rounds.size(), kRounds);
      EXPECT_TRUE(std::is_sorted(rounds.begin(), rounds.end()));
    }
  }
}

}  // namespace
}  // namespace sbft
