// Node inbox of the threaded runtime: an MPSC queue of frames and tasks
// whose wakeup signal is an eventfd, so the owning node loop waits for
// it in the same epoll set as its sockets and timers. Producers are any
// threads (peer node loops on the in-process backend, the link shaper,
// external drivers posting operations); the consumer is the owning node
// loop, which swaps the whole queue out once per wakeup.
//
// Wakeup contract: the eventfd is written only when a push finds the
// queue empty AND the owner parked (it called PrepareToPark and has not
// drained since). A post from the owner's own thread — a completion
// callback resubmitting an operation — or to an owner that is busy
// dispatching therefore costs no syscall: the owner re-checks the queue
// under the same lock before it parks again. The owner registers fd()
// edge-triggered and never reads it; every write is a fresh edge.
#pragma once

#include <sys/eventfd.h>
#include <unistd.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/frame.hpp"
#include "common/thread_annotations.hpp"
#include "sim/types.hpp"

namespace sbft {

/// A frame from a peer, or a task to run on the node thread (used to
/// inject client operations with single-threaded automaton semantics).
/// Frames move through the mailbox — a broadcast pushes one shared
/// payload to every destination without copying bodies.
struct MailItem {
  NodeId src = kNoNode;
  Frame frame;
  std::function<void()> task;  // non-null => task item
};

class Mailbox {
 public:
  Mailbox() : fd_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {
    SBFT_ASSERT(fd_ >= 0);
  }
  ~Mailbox() { ::close(fd_); }

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// The eventfd signalled when a push (or Close) wakes a parked owner.
  [[nodiscard]] int fd() const { return fd_; }

  /// Returns false if the mailbox is closed.
  bool Push(MailItem item) {
    bool wake;
    {
      MutexLock lock(mutex_);
      if (closed_) return false;
      items_.push_back(std::move(item));
      wake = TakeParkedLocked();
    }
    if (wake) Signal();
    return true;
  }

  /// Push a whole burst under a single lock acquisition (and at most one
  /// signal). Returns false if the mailbox is closed; the batch is then
  /// dropped, matching Push-after-Close semantics.
  bool PushBatch(std::vector<MailItem>&& batch) {
    if (batch.empty()) return true;
    bool wake;
    {
      MutexLock lock(mutex_);
      if (closed_) return false;
      for (auto& item : batch) items_.push_back(std::move(item));
      wake = TakeParkedLocked();
    }
    batch.clear();
    if (wake) Signal();
    return true;
  }

  /// Owner only. Swaps the whole queue into `out` (cleared first) — one
  /// lock per wakeup, however many items arrived — and marks the owner
  /// awake. Never blocks. Returns false only when the mailbox is closed
  /// AND drained (runtime shutdown).
  bool Drain(std::deque<MailItem>& out) {
    out.clear();
    MutexLock lock(mutex_);
    parked_ = false;
    if (items_.empty()) return !closed_;
    out.swap(items_);
    return true;
  }

  /// Owner only, right before it blocks on fd(). Returns false — do not
  /// block — when items are queued or the mailbox is closed; otherwise
  /// records that the owner is parked, so the next push signals fd().
  bool PrepareToPark() {
    MutexLock lock(mutex_);
    if (closed_ || !items_.empty()) return false;
    parked_ = true;
    return true;
  }

  /// Reject further pushes and wake the owner so it can drain what is
  /// left and exit.
  void Close() {
    bool wake;
    {
      MutexLock lock(mutex_);
      closed_ = true;
      wake = TakeParkedLocked();
    }
    if (wake) Signal();
  }

  [[nodiscard]] std::size_t size() const {
    MutexLock lock(mutex_);
    return items_.size();
  }

 private:
  bool TakeParkedLocked() REQUIRES(mutex_) {
    const bool was_parked = parked_;
    parked_ = false;
    return was_parked;
  }

  void Signal() const {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(fd_, &one, sizeof(one));
  }

  /// Leaf lock: pushes happen with the load driver's run-state mutex
  /// held (StartOp under RunState::mutex reaches Push), and nothing is
  /// acquired while this mutex is held.
  mutable Mutex mutex_ ACQUIRED_AFTER(lock_order::kLoadDriver);
  std::deque<MailItem> items_ GUARDED_BY(mutex_);
  bool closed_ GUARDED_BY(mutex_) = false;
  bool parked_ GUARDED_BY(mutex_) = false;
  const int fd_;
};

}  // namespace sbft
