#include "net/transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>

#include "obs/trace.h"

namespace apollo::net {

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

Expected<int> TcpListen(const std::string& address, std::uint16_t port,
                        std::uint16_t& bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Error(ErrorCode::kIoError,
                 std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Error(ErrorCode::kInvalidArgument, "bad bind address: " + address);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Error(ErrorCode::kIoError, "bind " + address + ": " + err);
  }
  if (::listen(fd, SOMAXCONN) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Error(ErrorCode::kIoError, "listen: " + err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Error(ErrorCode::kIoError, "getsockname: " + err);
  }
  if (!SetNonBlocking(fd)) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Error(ErrorCode::kIoError, "fcntl: " + err);
  }
  bound_port = ntohs(bound.sin_port);
  return fd;
}

// --- Connection ---

void Connection::Close() {
  if (closing_) return;
  closing_ = true;
  // A close outside a dispatch (e.g. backpressure during the subscription
  // pump) has no OnConnEvent epilogue to reap it — post the teardown.
  Server& server = server_;
  const std::uint64_t id = id_;
  server.loop_.Post([&server, id] { server.DestroyConn(id); });
}

bool Connection::SendFrame(MsgType type, std::uint32_t request_id,
                           const std::vector<std::uint8_t>& payload,
                           std::uint16_t flags, bool droppable) {
  TRACE_SPAN("net.send", MsgTypeName(type));
  if (closing_) return false;
  if (auto action =
          server_.EvaluateFault(FaultSite::kNetSend, MsgTypeName(type))) {
    if (action->fails()) {
      server_.send_failures_.Inc();
      if (droppable) return false;
      Close();  // the peer is waiting for this frame; fail loudly
      return false;
    }
    server_.loop().clock().Charge(action->delay_ns);
  }
  if (out_bytes_ + kHeaderSize + payload.size() >
      server_.config().max_outbound_bytes) {
    if (droppable) {
      server_.backpressure_skips_.Inc();
      return false;
    }
    server_.send_failures_.Inc();
    Close();
    return false;
  }
  std::vector<std::uint8_t> buf;
  buf.reserve(kHeaderSize + payload.size());
  EncodeFrame(buf, type, request_id, payload, flags);
  out_bytes_ += buf.size();
  outbound_.push_back(std::move(buf));
  server_.messages_sent_.Inc();
  if (cork_depth_ == 0) server_.FlushConn(*this);
  return true;
}

void Connection::Uncork() {
  if (cork_depth_ > 0 && --cork_depth_ == 0 && !closing_ &&
      !outbound_.empty()) {
    server_.FlushConn(*this);
  }
}

// --- Server ---

Server::Server(EventLoop& loop, ServerConfig config, FrameHandler& handler)
    : loop_(loop), config_(std::move(config)), handler_(handler) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  bytes_sent_ = reg.GetCounter("apollo_net_bytes_sent_total",
                               "Wire bytes written to sockets");
  bytes_received_ = reg.GetCounter("apollo_net_bytes_received_total",
                                   "Wire bytes read from sockets");
  messages_sent_ =
      reg.GetCounter("apollo_net_messages_sent_total", "Wire frames sent");
  messages_received_ = reg.GetCounter("apollo_net_messages_received_total",
                                      "Wire frames received and dispatched");
  connections_opened_ =
      reg.GetCounter("apollo_net_connections_opened_total",
                     "Connections accepted or established");
  connections_closed_ = reg.GetCounter("apollo_net_connections_closed_total",
                                       "Connections closed (any reason)");
  conn_drops_ =
      reg.GetCounter("apollo_net_conn_drops_total",
                     "Connections dropped by injected kConnDrop faults");
  send_failures_ =
      reg.GetCounter("apollo_net_send_failures_total",
                     "Frame sends failed (injected or socket error)");
  recv_drops_ =
      reg.GetCounter("apollo_net_recv_drops_total",
                     "Received frames dropped by injected kNetRecv faults");
  protocol_errors_ =
      reg.GetCounter("apollo_net_protocol_errors_total",
                     "Connections closed on bad magic/version/CRC");
  backpressure_skips_ =
      reg.GetCounter("apollo_net_backpressure_skips_total",
                     "Subscription deliveries skipped: outbound queue full");
  idle_closes_ = reg.GetCounter("apollo_net_idle_closes_total",
                                "Connections reaped by the idle timeout");
}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (listen_fd_ >= 0) {
    return Status(ErrorCode::kFailedPrecondition, "server already started");
  }
  // The push path writev()s to sockets whose peer may have vanished
  // between poll and write; without this a dead subscriber would kill
  // the whole daemon with SIGPIPE (writev has no MSG_NOSIGNAL
  // equivalent). EPIPE still surfaces as a write error and closes the
  // connection.
  ::signal(SIGPIPE, SIG_IGN);
  std::uint16_t bound = 0;
  auto fd = TcpListen(config_.bind_address, config_.port, bound);
  if (!fd.ok()) return fd.status();
  listen_fd_ = *fd;
  port_.store(bound, std::memory_order_release);
  if (!loop_.AddFd(listen_fd_, kFdReadable, [this](std::uint32_t) {
        OnAcceptable();
      })) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status(ErrorCode::kFailedPrecondition,
                  "loop does not support fd watching");
  }
  if (config_.idle_timeout > 0) {
    const TimeNs sweep = std::max<TimeNs>(config_.idle_timeout / 4, kNsPerMs);
    idle_timer_ = loop_.AddTimer(sweep, [this, sweep](TimeNs now) {
      SweepIdle(now);
      return sweep;
    });
  }
  return Status::Ok();
}

void Server::Stop() {
  if (idle_timer_ != 0) {
    loop_.CancelTimer(idle_timer_);
    idle_timer_ = 0;
  }
  if (listen_fd_ >= 0) {
    loop_.RemoveFd(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  while (!conns_.empty()) DestroyConn(conns_.begin()->first);
}

void Server::OnAcceptable() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept errors (ECONNABORTED etc.): keep serving
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const std::uint64_t id = next_conn_id_++;
    auto conn = std::unique_ptr<Connection>(new Connection(*this, id, fd));
    conn->last_activity_ = loop_.clock().Now();
    if (!loop_.AddFd(fd, kFdReadable, [this, id](std::uint32_t events) {
          OnConnEvent(id, events);
        })) {
      ::close(fd);
      continue;
    }
    conns_.emplace(id, std::move(conn));
    conn_count_.store(conns_.size(), std::memory_order_release);
    connections_opened_.Inc();
  }
}

Connection* Server::FindConnection(std::uint64_t id) {
  auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : it->second.get();
}

void Server::OnConnEvent(std::uint64_t conn_id, std::uint32_t events) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Connection& conn = *it->second;
  if (events & kFdError) {
    DestroyConn(conn_id);
    return;
  }
  if (events & kFdWritable) FlushConn(conn);
  if (!conn.closing_ && (events & kFdReadable)) ReadConn(conn);
  if (conn.closing_) DestroyConn(conn_id);
}

void Server::ReadConn(Connection& conn) {
  TRACE_SPAN("net.recv", "server");
  std::uint8_t buf[64 * 1024];
  while (!conn.closing_) {
    const ssize_t n = ::read(conn.fd_, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      conn.Close();
      return;
    }
    if (n == 0) {  // peer closed
      conn.Close();
      return;
    }
    conn.last_activity_ = loop_.clock().Now();
    bytes_received_.Inc(static_cast<std::uint64_t>(n));
    if (!conn.parser_.Feed(buf, static_cast<std::size_t>(n))) {
      protocol_errors_.Inc();
      conn.Close();
      return;
    }
    Frame frame;
    while (!conn.closing_ && conn.parser_.Next(frame)) {
      const char* label = MsgTypeName(frame.type);
      if (auto action = EvaluateFault(FaultSite::kConnDrop, label)) {
        if (action->fails()) {
          conn_drops_.Inc();
          conn.Close();
          return;
        }
        loop_.clock().Charge(action->delay_ns);
      }
      if (auto action = EvaluateFault(FaultSite::kNetRecv, label)) {
        if (action->fails()) {
          recv_drops_.Inc();
          continue;  // frame lost in flight
        }
        loop_.clock().Charge(action->delay_ns);
      }
      messages_received_.Inc();
      TRACE_SPAN("net.dispatch", label);
      handler_.OnFrame(conn, frame);
    }
  }
}

void Server::FlushConn(Connection& conn) {
  // One gathered writev per pass over the queue: every pending frame (up
  // to kMaxIov) goes out in a single syscall instead of one write each.
  constexpr std::size_t kMaxIov = 64;
  while (!conn.outbound_.empty()) {
    iovec iov[kMaxIov];
    std::size_t iov_count = 0;
    for (const auto& frame : conn.outbound_) {
      if (iov_count == kMaxIov) break;
      const std::size_t skip = iov_count == 0 ? conn.out_pos_ : 0;
      iov[iov_count].iov_base =
          const_cast<std::uint8_t*>(frame.data()) + skip;
      iov[iov_count].iov_len = frame.size() - skip;
      ++iov_count;
    }
    const ssize_t n =
        ::writev(conn.fd_, iov, static_cast<int>(iov_count));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      conn.Close();
      return;
    }
    conn.last_activity_ = loop_.clock().Now();
    bytes_sent_.Inc(static_cast<std::uint64_t>(n));
    conn.out_bytes_ -= static_cast<std::size_t>(n);
    std::size_t sent = static_cast<std::size_t>(n);
    while (sent > 0) {
      const std::size_t remain = conn.outbound_.front().size() - conn.out_pos_;
      if (sent < remain) {
        conn.out_pos_ += sent;
        break;
      }
      sent -= remain;
      conn.out_pos_ = 0;
      conn.outbound_.pop_front();
    }
  }
  if (conn.outbound_.empty()) {
    if (conn.want_write_) {
      conn.want_write_ = false;
      loop_.UpdateFd(conn.fd_, kFdReadable);
    }
  } else if (!conn.want_write_) {
    conn.want_write_ = true;
    loop_.UpdateFd(conn.fd_, kFdReadable | kFdWritable);
  }
}

void Server::DestroyConn(std::uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Connection& conn = *it->second;
  handler_.OnClose(conn);
  loop_.RemoveFd(conn.fd_);
  ::close(conn.fd_);
  conns_.erase(it);
  conn_count_.store(conns_.size(), std::memory_order_release);
  connections_closed_.Inc();
}

void Server::SweepIdle(TimeNs now) {
  std::vector<std::uint64_t> idle;
  for (auto& [id, conn] : conns_) {
    // Connections carrying active server-side sessions (subscriptions,
    // continuous queries) are push-only from the client's perspective;
    // inbound silence is their normal state, not idleness.
    if (conn->idle_exempt_) continue;
    if (now - conn->last_activity_ >= config_.idle_timeout) idle.push_back(id);
  }
  for (std::uint64_t id : idle) {
    idle_closes_.Inc();
    DestroyConn(id);
  }
}

std::optional<FaultAction> Server::EvaluateFault(FaultSite site,
                                                std::string_view label) {
  FaultInjector* injector = fault_.load(std::memory_order_acquire);
  if (injector == nullptr) return std::nullopt;
  return injector->Evaluate(site, label);
}

}  // namespace apollo::net
