// TCP transport on 127.0.0.1 for the threaded runtime. The bus owns no
// thread: every node's sockets live in the epoll set of the loop that
// owns the node (ThreadCluster's node thread), and that loop drives
// them through the owner-loop API below.
//
// Every node owns a listening socket on an ephemeral port; peers
// connect lazily on first send and keep the connection. Frames are
// length-prefixed: [u32 length][u32 sender id][payload]. All sockets
// are non-blocking and TCP_NODELAY; batching happens at the
// application layer:
//
//   * Read path: OnEvent accepts on the listener and recvs a readable
//     inbound connection into its receive buffer until the socket is
//     drained (a short read or EAGAIN) or the buffer is full. It never
//     calls into the protocol. DispatchFrames then hands every complete
//     frame to the FrameFn as a view straight into that buffer — no
//     copy, no pool acquire. The buffer is compacted or grown only
//     inside OnEvent, so it never moves under a live view.
//   * Write path: Send() only QUEUES a framed buffer on the (src, dst)
//     connection and marks it dirty for `src`. Flush(src) walks the
//     dirty list and writes each connection's whole queue with one
//     sendmsg/iovec — a quorum broadcast or a batch of pipelined
//     replies coalesces into one syscall per connection. The node loop
//     calls Flush once per wakeup.
//   * When a socket buffer fills (EAGAIN / partial write), EPOLLOUT is
//     armed on the SENDER's loop and OnEvent continues the flush there,
//     preserving frame order. An outgoing connection therefore has one
//     owner, and no lock.
//
// Error handling degrades instead of aborting: a connect failure or an
// EPIPE/ECONNRESET on send marks the connection dead, drops its queue,
// and the next Send reconnects lazily. Malformed inbound frames (length
// out of bounds) drop the connection — the peer reconnects; the
// protocol layer tolerates loss-free FIFO per connection, which each
// individual TCP connection provides.
//
// Threading contract: AddNode and Start run before any loop does. After
// that, every call that names a node (OnEvent for that node's sockets,
// DispatchFrames, Send/Flush/DropConnection with that `src`) must come
// from the one thread that owns the node. Different nodes are fully
// concurrent. Stop runs once no owner calls in anymore.
#pragma once

#include <sys/epoll.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/bytes.hpp"
#include "sim/types.hpp"

namespace sbft {

class TcpBus {
 public:
  struct Options {
    /// A connection whose unsent queue exceeds this is dropped (the
    /// peer stopped reading); ops on it fail/retry instead of the node
    /// buffering without bound.
    std::size_t max_pending_bytes = 64u << 20;
  };

  /// Receives one inbound frame on the destination node's loop, inside
  /// DispatchFrames. `frame` points into the connection's receive
  /// buffer and is valid only until the call returns.
  using FrameFn = std::function<void(NodeId dst, NodeId src, BytesView frame)>;

  TcpBus(FrameFn on_frame, Options options);
  explicit TcpBus(FrameFn on_frame) : TcpBus(std::move(on_frame), Options{}) {}
  ~TcpBus();

  TcpBus(const TcpBus&) = delete;
  TcpBus& operator=(const TcpBus&) = delete;

  /// Create the listening socket for `node` and register it on
  /// `epoll_fd`, the epoll set of the loop that will own the node (the
  /// bus registers every later socket of the node there too, with a
  /// non-null data.ptr). Returns the bound port. Call once per node
  /// before Start().
  std::uint16_t AddNode(NodeId node, int epoll_fd);

  /// The port AddNode bound for `node`.
  [[nodiscard]] std::uint16_t port(NodeId node) const {
    return nodes_.at(node)->port;
  }

  /// Allow sends. Socket events are handled whenever the owners poll.
  void Start();
  /// Close every socket. Idempotent; call once no owner calls in.
  void Stop();

  // --- Owner-loop API (see the threading contract above). ---

  /// Handle one epoll event whose data.ptr is non-null: accept, recv
  /// into a receive buffer, continue a backlogged flush, or notice a
  /// peer's EOF. Transport work only; never calls the FrameFn.
  void OnEvent(const epoll_event& event);

  /// True when connections of `node` received bytes (or EOF) since the
  /// last DispatchFrames.
  [[nodiscard]] bool HasReceived(NodeId node) const;

  /// Pass every complete frame received by `node` to the FrameFn, in
  /// order per connection, then close connections that hit EOF or sent
  /// a malformed frame.
  void DispatchFrames(NodeId node);

  /// Queue a frame from `src` to `dst` (connects lazily). Returns false
  /// if the bus is stopped, `dst` is unknown, or the connection could
  /// not be (re)established. The frame is not on the wire until
  /// Flush(src) — or the EPOLLOUT continuation, if the connection is
  /// backlogged.
  bool Send(NodeId src, NodeId dst, BytesView frame);

  /// Write out everything queued by `src` since its last Flush; one
  /// sendmsg per touched connection (more only if a queue exceeds the
  /// iovec limit or the socket buffer fills).
  void Flush(NodeId src);

  /// Chaos hook: forcibly drop the (src, dst) connection as if the peer
  /// reset it. Queued frames are lost; the next Send reconnects.
  void DropConnection(NodeId src, NodeId dst);

  /// Connections dropped on error so far (send-side degradation).
  [[nodiscard]] std::uint64_t connections_dropped() const {
    return connections_dropped_.load(std::memory_order_relaxed);
  }

 private:
  /// What an epoll event's data.ptr points at.
  struct Socket {
    enum class Kind : std::uint8_t { kListener, kInbound, kOutgoing };
    Kind kind;
    NodeId node;  // the owning node
    int fd = -1;  // -1: closed (a dead outgoing connection)
  };

  /// Accepted connection. `buf` is a capacity buffer: `size()` is
  /// capacity, [off, len) the bytes not yet dispatched.
  struct Inbound : Socket {
    Bytes buf;
    std::size_t len = 0;
    std::size_t off = 0;
    bool ready = false;  // listed in Node::ready
    bool done = false;   // EOF, error or malformed: close after dispatch
  };

  /// Outgoing connection to `dst`, owned by the sender's loop. Kept
  /// across drops (fd == -1) and reconnected in place, so the dirty
  /// list never dangles.
  struct Outgoing : Socket {
    NodeId dst = kNoNode;
    std::deque<Bytes> pending;
    /// Bytes of pending.front() already sent.
    std::size_t front_offset = 0;
    std::size_t pending_bytes = 0;
    bool epollout_armed = false;
    bool in_dirty = false;
  };

  /// Per-node transport state; touched only by the node's owner.
  struct Node {
    int epoll_fd = -1;
    std::uint16_t port = 0;
    Socket listener{Socket::Kind::kListener, kNoNode, -1};
    std::vector<std::unique_ptr<Inbound>> inbound;
    std::vector<Inbound*> ready;
    std::vector<std::unique_ptr<Outgoing>> out;  // indexed by dst
    std::vector<Outgoing*> dirty;
  };

  void Accept(Node& node);
  void Receive(Node& node, Inbound& in);
  void CloseInbound(Node& node, Inbound& in);
  void OutgoingEvent(Outgoing& conn, std::uint32_t events);
  bool Connect(Outgoing& conn);
  /// Write `conn.pending`; returns false on a socket error.
  bool FlushConnection(Outgoing& conn);
  void MarkDead(Outgoing& conn);
  /// epoll_ctl on the owning node's set; false if the kernel refused.
  bool Watch(Socket& socket, int op, std::uint32_t events);

  FrameFn on_frame_;
  Options options_;
  std::vector<std::unique_ptr<Node>> nodes_;  // indexed by NodeId
  std::atomic<std::uint64_t> connections_dropped_{0};
  std::atomic<bool> running_{false};
  bool stopped_ = false;
};

}  // namespace sbft
