// Threaded-runtime tests: the same automata that run in the simulator
// must work on real threads (mailboxes) and over TCP loopback; the
// mailbox keeps FIFO push/drain semantics and its wakeup contract.
#include "runtime/register_cluster.hpp"

#include <gtest/gtest.h>
#include <poll.h>

#include <atomic>
#include <deque>
#include <future>
#include <string>
#include <thread>

#include "runtime/mailbox.hpp"

namespace sbft {
namespace {

Value Val(const std::string& text) { return Value(text.begin(), text.end()); }

TEST(Mailbox, PushPopFifo) {
  Mailbox mailbox;
  for (int i = 0; i < 10; ++i) {
    mailbox.Push(
        MailItem{static_cast<NodeId>(i), Frame(Bytes{(std::uint8_t)i}), {}});
  }
  std::deque<MailItem> batch;
  ASSERT_TRUE(mailbox.Drain(batch));
  ASSERT_EQ(batch.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(batch[static_cast<std::size_t>(i)].src,
              static_cast<NodeId>(i));
    EXPECT_EQ(batch[static_cast<std::size_t>(i)].frame.view()[0], i);
  }
}

// A parked owner waits on the eventfd, exactly as the node loop does in
// epoll; Close must signal it.
TEST(Mailbox, CloseUnblocksConsumer) {
  Mailbox mailbox;
  std::atomic<bool> returned{false};
  std::thread consumer([&] {
    ASSERT_TRUE(mailbox.PrepareToPark());
    pollfd pfd{mailbox.fd(), POLLIN, 0};
    ASSERT_EQ(::poll(&pfd, 1, 10'000), 1);
    std::deque<MailItem> batch;
    EXPECT_FALSE(mailbox.Drain(batch));  // closed and drained
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  mailbox.Close();
  consumer.join();
  EXPECT_TRUE(returned.load());
}

// The eventfd is written only when a push wakes a parked owner: pushes
// to an awake owner (including its own posts) stay syscall-free.
TEST(Mailbox, SignalsOnlyAParkedOwner) {
  Mailbox mailbox;
  pollfd pfd{mailbox.fd(), POLLIN, 0};
  // Owner awake: the push does not signal, and the owner must not park
  // while items are queued.
  mailbox.Push(MailItem{1, Frame(Bytes{1}), {}});
  EXPECT_EQ(::poll(&pfd, 1, 0), 0);
  EXPECT_FALSE(mailbox.PrepareToPark());
  std::deque<MailItem> batch;
  ASSERT_TRUE(mailbox.Drain(batch));
  // Owner parked: the next push signals.
  ASSERT_TRUE(mailbox.PrepareToPark());
  mailbox.Push(MailItem{2, Frame(Bytes{2}), {}});
  EXPECT_EQ(::poll(&pfd, 1, 0), 1);
  ASSERT_TRUE(mailbox.Drain(batch));
  EXPECT_EQ(batch.size(), 1u);
}

TEST(Mailbox, PushAfterCloseRejected) {
  Mailbox mailbox;
  mailbox.Close();
  EXPECT_FALSE(mailbox.Push(MailItem{}));
}

TEST(Mailbox, DrainSwapsWholeQueueInOrder) {
  Mailbox mailbox;
  for (int i = 0; i < 10; ++i) {
    mailbox.Push(
        MailItem{static_cast<NodeId>(i), Frame(Bytes{(std::uint8_t)i}), {}});
  }
  std::deque<MailItem> batch;
  ASSERT_TRUE(mailbox.Drain(batch));
  ASSERT_EQ(batch.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(batch[static_cast<std::size_t>(i)].src,
              static_cast<NodeId>(i));
  }
  EXPECT_EQ(mailbox.size(), 0u);  // queue fully swapped out
}

TEST(Mailbox, DrainReturnsFalseWhenClosedAndEmpty) {
  Mailbox mailbox;
  mailbox.Push(MailItem{3, Frame(Bytes{1}), {}});
  mailbox.Close();
  std::deque<MailItem> batch;
  EXPECT_TRUE(mailbox.Drain(batch));  // pending item still delivered
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_FALSE(mailbox.Drain(batch));  // closed and drained
}

TEST(Mailbox, PushBatchIsOneBurst) {
  Mailbox mailbox;
  std::vector<MailItem> burst;
  for (int i = 0; i < 5; ++i) {
    burst.push_back(
        MailItem{static_cast<NodeId>(i), Frame(Bytes{(std::uint8_t)i}), {}});
  }
  ASSERT_TRUE(mailbox.PushBatch(std::move(burst)));
  std::deque<MailItem> batch;
  ASSERT_TRUE(mailbox.Drain(batch));
  ASSERT_EQ(batch.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(batch[static_cast<std::size_t>(i)].src,
              static_cast<NodeId>(i));
  }
  mailbox.Close();
  std::vector<MailItem> rejected;
  rejected.push_back(MailItem{});
  EXPECT_FALSE(mailbox.PushBatch(std::move(rejected)));
}

TEST(ThreadClusterTest, InprocWriteRead) {
  RegisterCluster::Options options;
  options.config = ProtocolConfig::ForServers(6);
  options.n_clients = 1;
  RegisterCluster cluster(std::move(options));
  cluster.Start();

  auto write = cluster.Write(0, Val("threaded"));
  ASSERT_EQ(write.status, OpStatus::kOk);
  auto read = cluster.Read(0);
  ASSERT_EQ(read.status, OpStatus::kOk);
  EXPECT_EQ(read.value, Val("threaded"));
  cluster.Stop();
}

TEST(ThreadClusterTest, InprocManyOpsTwoClients) {
  RegisterCluster::Options options;
  options.config = ProtocolConfig::ForServers(6);
  options.n_clients = 2;
  RegisterCluster cluster(std::move(options));
  cluster.Start();

  for (int i = 0; i < 20; ++i) {
    const Value value = Val("op" + std::to_string(i));
    auto write = cluster.Write(i % 2, value);
    ASSERT_EQ(write.status, OpStatus::kOk) << i;
    auto read = cluster.Read((i + 1) % 2);
    ASSERT_EQ(read.status, OpStatus::kOk) << i;
    EXPECT_EQ(read.value, value) << i;
  }
  cluster.Stop();
}

TEST(ThreadClusterTest, InprocWithByzantine) {
  RegisterCluster::Options options;
  options.config = ProtocolConfig::ForServers(6);
  options.byzantine[2] = ByzantineStrategy::kStaleReplay;
  options.n_clients = 1;
  RegisterCluster cluster(std::move(options));
  cluster.Start();

  for (int i = 0; i < 5; ++i) {
    const Value value = Val("byz" + std::to_string(i));
    ASSERT_EQ(cluster.Write(0, value).status, OpStatus::kOk);
    auto read = cluster.Read(0);
    ASSERT_EQ(read.status, OpStatus::kOk);
    EXPECT_EQ(read.value, value);
  }
  cluster.Stop();
}

TEST(ThreadClusterTest, ConcurrentClientsFromThreads) {
  RegisterCluster::Options options;
  options.config = ProtocolConfig::ForServers(6);
  options.n_clients = 3;
  RegisterCluster cluster(std::move(options));
  cluster.Start();

  std::atomic<int> ok{0};
  std::vector<std::thread> drivers;
  for (int c = 0; c < 3; ++c) {
    drivers.emplace_back([&, c] {
      for (int i = 0; i < 10; ++i) {
        const Value value =
            Val("c" + std::to_string(c) + "#" + std::to_string(i));
        if (cluster.Write(static_cast<std::size_t>(c), value).status ==
            OpStatus::kOk) {
          ok.fetch_add(1);
        }
        auto read = cluster.Read(static_cast<std::size_t>(c));
        if (read.status == OpStatus::kOk) ok.fetch_add(1);
      }
    });
  }
  for (auto& driver : drivers) driver.join();
  // Concurrency may fail a few writes through retry exhaustion, but the
  // vast majority of operations must succeed.
  EXPECT_GE(ok.load(), 50);
  cluster.Stop();
}

TEST(ThreadClusterTest, TcpWriteRead) {
  RegisterCluster::Options options;
  options.config = ProtocolConfig::ForServers(6);
  options.use_tcp = true;
  options.n_clients = 1;
  RegisterCluster cluster(std::move(options));
  cluster.Start();

  for (int i = 0; i < 5; ++i) {
    const Value value = Val("tcp" + std::to_string(i));
    auto write = cluster.Write(0, value);
    ASSERT_EQ(write.status, OpStatus::kOk) << i;
    auto read = cluster.Read(0);
    ASSERT_EQ(read.status, OpStatus::kOk) << i;
    EXPECT_EQ(read.value, value) << i;
  }
  cluster.Stop();
}

// A shaped TCP frame outlives the receive buffer its view pointed
// into: the loop copies it for the shaper, which later releases it
// into the destination's mailbox.
TEST(ThreadClusterTest, TcpWithLinkShaping) {
  RegisterCluster::Options options;
  options.config = ProtocolConfig::ForServers(6);
  options.use_tcp = true;
  options.shaping.delay_us = 200;
  options.shaping.jitter_us = 100;
  RegisterCluster cluster(std::move(options));
  cluster.Start();

  for (int i = 0; i < 5; ++i) {
    const Value value = Val("shaped" + std::to_string(i));
    ASSERT_EQ(cluster.Write(0, value).status, OpStatus::kOk) << i;
    auto read = cluster.Read(0);
    ASSERT_EQ(read.status, OpStatus::kOk) << i;
    EXPECT_EQ(read.value, value) << i;
  }
  cluster.Stop();
}

// Many nodes, each its own loop, with cross traffic in every
// direction: four clients driven from four threads against eleven
// servers, every client writing and reading the shared register.
TEST(ThreadClusterTest, TcpManyNodeCrossTraffic) {
  RegisterCluster::Options options;
  options.config = ProtocolConfig::ForServers(11);
  options.use_tcp = true;
  options.n_clients = 4;
  RegisterCluster cluster(std::move(options));
  cluster.Start();

  std::atomic<int> ok{0};
  std::vector<std::thread> drivers;
  for (std::size_t c = 0; c < 4; ++c) {
    drivers.emplace_back([&, c] {
      for (int i = 0; i < 5; ++i) {
        const Value value = Val("x" + std::to_string(c) + std::to_string(i));
        if (cluster.Write(c, value).status == OpStatus::kOk) ok.fetch_add(1);
        if (cluster.Read(c).status == OpStatus::kOk) ok.fetch_add(1);
      }
    });
  }
  for (auto& driver : drivers) driver.join();
  // As in ConcurrentClientsFromThreads: concurrency may abort a few
  // operations, but the vast majority must succeed.
  EXPECT_GE(ok.load(), 32);
  cluster.Stop();
}

TEST(ThreadClusterTest, AsyncApiCompletesOnNodeThread) {
  RegisterCluster::Options options;
  options.config = ProtocolConfig::ForServers(6);
  options.n_clients = 1;
  RegisterCluster cluster(std::move(options));
  cluster.Start();

  std::promise<ReadOutcome> done;
  cluster.AsyncWrite(0, Val("async"), [&](const WriteOutcome& write) {
    EXPECT_EQ(write.status, OpStatus::kOk);
    // Issue the dependent read from the completion callback — the
    // closed-loop pattern the bench generator uses.
    cluster.AsyncRead(0, [&](const ReadOutcome& read) {
      done.set_value(read);
    });
  });
  auto future = done.get_future();
  ASSERT_EQ(future.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  auto read = future.get();
  EXPECT_EQ(read.status, OpStatus::kOk);
  EXPECT_EQ(read.value, Val("async"));
  cluster.Stop();
}

}  // namespace
}  // namespace sbft
