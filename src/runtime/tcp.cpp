#include "runtime/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/buffer_pool.hpp"
#include "common/error.hpp"

namespace sbft {
namespace {

constexpr std::uint32_t kMaxTcpFrame = 16u << 20;
constexpr std::size_t kHeader = 8;
/// Initial receive-buffer capacity; it grows only to fit one frame
/// larger than this.
constexpr std::size_t kReadChunk = 128u << 10;
constexpr int kMaxIov = 64;
/// Outgoing connections carry no inbound protocol traffic; readability
/// means EOF or reset.
constexpr std::uint32_t kOutgoingEvents = EPOLLIN | EPOLLRDHUP;

std::uint32_t LoadU32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void StoreU32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void SetNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

TcpBus::TcpBus(FrameFn on_frame, Options options)
    : on_frame_(std::move(on_frame)), options_(options) {}

TcpBus::~TcpBus() { Stop(); }

std::uint16_t TcpBus::AddNode(NodeId node, int epoll_fd) {
  SBFT_ASSERT(!running_.load() && !stopped_);
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  SBFT_ASSERT(fd >= 0);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  SBFT_ASSERT(::bind(fd, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0);
  SBFT_ASSERT(::listen(fd, 256) == 0);
  SetNonBlocking(fd);

  socklen_t len = sizeof(addr);
  SBFT_ASSERT(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr),
                            &len) == 0);
  if (nodes_.size() <= node) nodes_.resize(node + 1);
  SBFT_ASSERT(nodes_[node] == nullptr);
  nodes_[node] = std::make_unique<Node>();
  Node& state = *nodes_[node];
  state.epoll_fd = epoll_fd;
  state.port = ntohs(addr.sin_port);
  state.listener.node = node;
  state.listener.fd = fd;
  // Level-triggered accept; Accept drains until EAGAIN anyway.
  const bool watched = Watch(state.listener, EPOLL_CTL_ADD, EPOLLIN);
  SBFT_ASSERT(watched);
  return state.port;
}

void TcpBus::Start() { running_.store(true, std::memory_order_release); }

bool TcpBus::Watch(Socket& socket, int op, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = &socket;
  return ::epoll_ctl(nodes_[socket.node]->epoll_fd, op, socket.fd, &ev) == 0;
}

void TcpBus::OnEvent(const epoll_event& event) {
  auto* socket = static_cast<Socket*>(event.data.ptr);
  Node& node = *nodes_[socket->node];
  switch (socket->kind) {
    case Socket::Kind::kListener:
      Accept(node);
      break;
    case Socket::Kind::kInbound:
      Receive(node, *static_cast<Inbound*>(socket));
      break;
    case Socket::Kind::kOutgoing:
      OutgoingEvent(*static_cast<Outgoing*>(socket), event.events);
      break;
  }
}

void TcpBus::Accept(Node& node) {
  while (true) {
    const int fd = ::accept4(node.listener.fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN, or the listener is going down
    SetNoDelay(fd);
    auto in = std::make_unique<Inbound>();
    in->kind = Socket::Kind::kInbound;
    in->node = node.listener.node;
    in->fd = fd;
    // Level-triggered: Receive may stop at a full buffer and come back
    // on the next wakeup instead of reading until EAGAIN.
    if (!Watch(*in, EPOLL_CTL_ADD, EPOLLIN | EPOLLRDHUP)) {
      ::close(fd);  // degraded: the peer sees EOF and reconnects
      continue;
    }
    node.inbound.push_back(std::move(in));
  }
}

void TcpBus::Receive(Node& node, Inbound& in) {
  if (in.done) return;
  // No view into `in.buf` is live here: DispatchFrames runs after every
  // OnEvent of the wakeup. So this is where the buffer may move.
  if (in.off > 0) {
    std::memmove(in.buf.data(), in.buf.data() + in.off, in.len - in.off);
    in.len -= in.off;
    in.off = 0;
  }
  if (in.buf.empty()) in.buf.resize(kReadChunk);
  while (true) {
    if (in.len == in.buf.size()) {
      // Full. Grow only when the buffer holds no complete frame, i.e.
      // one frame is larger than the buffer; otherwise dispatch first
      // and read the rest on the next (level-triggered) wakeup.
      const std::uint32_t length = LoadU32(in.buf.data());
      if (length > kMaxTcpFrame || kHeader + length <= in.len) break;
      in.buf.resize(kHeader + length);
    }
    const std::size_t space = in.buf.size() - in.len;
    const ssize_t n = ::recv(in.fd, in.buf.data() + in.len, space, 0);
    if (n > 0) {
      in.len += static_cast<std::size_t>(n);
      if (static_cast<std::size_t>(n) < space) break;  // drained
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
      in.done = true;  // peer closed or reset
    }
    break;
  }
  if ((in.len > in.off || in.done) && !in.ready) {
    in.ready = true;
    node.ready.push_back(&in);
  }
}

bool TcpBus::HasReceived(NodeId node) const {
  return node < nodes_.size() && nodes_[node] != nullptr &&
         !nodes_[node]->ready.empty();
}

void TcpBus::DispatchFrames(NodeId id) {
  if (!HasReceived(id)) return;
  Node& node = *nodes_[id];
  for (Inbound* in : node.ready) {
    in->ready = false;
    const std::uint8_t* data = in->buf.data();
    while (in->len - in->off >= kHeader) {
      const std::uint32_t length = LoadU32(data + in->off);
      const NodeId src = LoadU32(data + in->off + 4);
      if (length > kMaxTcpFrame) {  // malformed: drop the connection
        in->done = true;
        break;
      }
      if (in->len - in->off - kHeader < length) break;  // torn: wait
      const std::uint8_t* payload = data + in->off + kHeader;
      in->off += kHeader + length;
      on_frame_(id, src, BytesView(payload, length));
    }
    if (in->off == in->len) {
      in->off = 0;
      in->len = 0;
    }
  }
  // Close after the whole pass: no handler runs past this point, and
  // `ready` is not walked again.
  for (Inbound* in : node.ready) {
    if (in->done) CloseInbound(node, *in);
  }
  node.ready.clear();
}

void TcpBus::CloseInbound(Node& node, Inbound& in) {
  ::epoll_ctl(node.epoll_fd, EPOLL_CTL_DEL, in.fd, nullptr);
  ::close(in.fd);
  const auto it = std::find_if(
      node.inbound.begin(), node.inbound.end(),
      [&in](const std::unique_ptr<Inbound>& p) { return p.get() == &in; });
  std::iter_swap(it, node.inbound.end() - 1);
  node.inbound.pop_back();
}

bool TcpBus::Connect(Outgoing& conn) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(nodes_[conn.dst]->port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;  // degraded: the caller's op fails/retries cleanly
  }
  SetNoDelay(fd);
  SetNonBlocking(fd);
  conn.fd = fd;
  if (!Watch(conn, EPOLL_CTL_ADD, kOutgoingEvents)) {
    ::close(fd);
    conn.fd = -1;
    return false;
  }
  return true;
}

bool TcpBus::Send(NodeId src, NodeId dst, BytesView frame) {
  if (!running_.load(std::memory_order_acquire)) return false;
  if (src >= nodes_.size() || nodes_[src] == nullptr ||
      dst >= nodes_.size() || nodes_[dst] == nullptr) {
    return false;
  }
  Node& node = *nodes_[src];
  if (node.out.size() <= dst) node.out.resize(nodes_.size());
  if (node.out[dst] == nullptr) {
    node.out[dst] = std::make_unique<Outgoing>();
    node.out[dst]->kind = Socket::Kind::kOutgoing;
    node.out[dst]->node = src;
    node.out[dst]->dst = dst;
  }
  Outgoing& conn = *node.out[dst];
  if (conn.fd < 0 && !Connect(conn)) return false;  // lazy (re)connect

  // Frame [len][src][payload] into a pooled buffer and queue it; the
  // bytes hit the wire on Flush (or via EPOLLOUT when backlogged).
  Bytes buf = FramePool().Acquire();
  buf.resize(kHeader);
  StoreU32(buf.data(), static_cast<std::uint32_t>(frame.size()));
  StoreU32(buf.data() + 4, src);
  buf.insert(buf.end(), frame.begin(), frame.end());
  if (conn.pending_bytes + buf.size() > options_.max_pending_bytes) {
    MarkDead(conn);  // peer stopped reading; degrade, don't buffer
    return false;
  }
  conn.pending_bytes += buf.size();
  conn.pending.push_back(std::move(buf));
  if (!conn.in_dirty) {
    conn.in_dirty = true;
    node.dirty.push_back(&conn);
  }
  return true;
}

void TcpBus::Flush(NodeId src) {
  if (src >= nodes_.size() || nodes_[src] == nullptr) return;
  Node& node = *nodes_[src];
  for (Outgoing* conn : node.dirty) {
    conn->in_dirty = false;
    // A backlogged connection continues on its EPOLLOUT event.
    if (conn->fd < 0 || conn->epollout_armed) continue;
    if (!FlushConnection(*conn)) MarkDead(*conn);
  }
  node.dirty.clear();
}

bool TcpBus::FlushConnection(Outgoing& conn) {
  while (!conn.pending.empty()) {
    iovec iov[kMaxIov];
    int iovcnt = 0;
    for (auto it = conn.pending.begin();
         it != conn.pending.end() && iovcnt < kMaxIov; ++it, ++iovcnt) {
      const std::size_t skip = (iovcnt == 0) ? conn.front_offset : 0;
      iov[iovcnt].iov_base = it->data() + skip;
      iov[iovcnt].iov_len = it->size() - skip;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
    const ssize_t n = ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!conn.epollout_armed) {
          conn.epollout_armed = true;
          Watch(conn, EPOLL_CTL_MOD, kOutgoingEvents | EPOLLOUT);
        }
        return true;
      }
      return false;  // EPIPE/ECONNRESET/...
    }
    std::size_t left = static_cast<std::size_t>(n);
    while (left > 0) {
      Bytes& front = conn.pending.front();
      const std::size_t avail = front.size() - conn.front_offset;
      if (left >= avail) {
        left -= avail;
        conn.pending_bytes -= front.size();
        conn.front_offset = 0;
        FramePool().Release(std::move(front));
        conn.pending.pop_front();
      } else {
        conn.front_offset += left;  // partial write: resume here
        left = 0;
      }
    }
  }
  if (conn.epollout_armed) {
    conn.epollout_armed = false;
    Watch(conn, EPOLL_CTL_MOD, kOutgoingEvents);
  }
  return true;
}

void TcpBus::OutgoingEvent(Outgoing& conn, std::uint32_t events) {
  if (conn.fd < 0) return;
  if (events & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP)) {
    std::uint8_t scratch[256];
    ssize_t n;
    while ((n = ::recv(conn.fd, scratch, sizeof(scratch), 0)) > 0) {
    }
    const bool reset =
        n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR);
    if (reset || (events & (EPOLLERR | EPOLLHUP))) {
      MarkDead(conn);
      return;
    }
  }
  if ((events & EPOLLOUT) && !FlushConnection(conn)) MarkDead(conn);
}

void TcpBus::MarkDead(Outgoing& conn) {
  if (conn.fd < 0) return;
  ::epoll_ctl(nodes_[conn.node]->epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
  ::close(conn.fd);
  conn.fd = -1;
  conn.pending.clear();
  conn.pending_bytes = 0;
  conn.front_offset = 0;
  conn.epollout_armed = false;
  connections_dropped_.fetch_add(1, std::memory_order_relaxed);
}

void TcpBus::DropConnection(NodeId src, NodeId dst) {
  if (src >= nodes_.size() || nodes_[src] == nullptr) return;
  Node& node = *nodes_[src];
  if (dst < node.out.size() && node.out[dst] != nullptr) {
    MarkDead(*node.out[dst]);
  }
}

void TcpBus::Stop() {
  if (stopped_) return;
  stopped_ = true;
  running_.store(false, std::memory_order_release);
  // The owners are done: close every socket inline. The epoll sets
  // belong to the owners, which close them. Accepted sides first, for
  // every node: the side that closes first keeps the connection in
  // TIME_WAIT, and the accepting side holds no ephemeral port — so a
  // torn-down cluster does not starve the next one's connect() calls.
  for (auto& node : nodes_) {
    if (node == nullptr) continue;
    ::close(node->listener.fd);
    for (auto& in : node->inbound) ::close(in->fd);
    node->inbound.clear();
    node->ready.clear();
  }
  for (auto& node : nodes_) {
    if (node == nullptr) continue;
    for (auto& conn : node->out) {
      if (conn != nullptr && conn->fd >= 0) ::close(conn->fd);
    }
    node->out.clear();
    node->dirty.clear();
  }
}

}  // namespace sbft
