#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "net/transport.h"
#include "obs/trace.h"

namespace apollo::net {

namespace {

// poll() timeout for an absolute deadline, clamped to >= 1ms so a nearly
// expired deadline still makes one attempt instead of busy-spinning.
int PollTimeoutMs(Clock& clock, TimeNs deadline) {
  const TimeNs remaining = deadline - clock.Now();
  if (remaining <= 0) return 0;
  return static_cast<int>(std::max<TimeNs>(remaining / kNsPerMs, 1));
}

template <typename Msg>
Payload EncodePayload(const Msg& msg) {
  Payload payload;
  msg.Encode(payload);
  return payload;
}

// The typed reply of a successful round trip, or the error that replaced
// it; `what` names the reply in the parse error.
template <typename Reply>
Expected<Reply> DecodeReply(Expected<Frame> frame, const char* what) {
  if (!frame.ok()) return frame.error();
  Reply reply;
  if (!Reply::Decode(frame->payload, reply)) {
    return Error(ErrorCode::kParseError, std::string("bad ") + what);
  }
  return reply;
}

}  // namespace

ApolloClient::ApolloClient(ClientConfig config)
    : config_(std::move(config)), clock_(RealClock::Instance()) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  rtt_ = reg.GetHistogram("apollo_net_request_rtt_ns",
                          "Client request round-trip time (ns)");
  batch_size_ = reg.GetHistogram("apollo_net_batch_size",
                                 "Samples per flushed publish batch");
  flush_latency_ = reg.GetHistogram(
      "apollo_net_flush_latency_ns",
      "PublishAsync flush latency, send to cumulative ack (ns)");
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
  shm_fallbacks_ = reg.GetCounter(
      "apollo_net_shm_fallbacks_total",
      "Samples rerouted to TCP because the shm lane was full or down");
}

ApolloClient::~ApolloClient() {
  if (connected() && !queue_.empty()) (void)Flush();
  Close();
}

Status ApolloClient::Connect(TimeNs deadline) {
  if (connected()) return Status::Ok();
  const RetryPolicy& policy = config_.connect_retry;
  const TimeNs start = clock_.Now();
  Status last(ErrorCode::kUnavailable, "connect not attempted");
  for (int attempt = 1; attempt <= policy.max_attempts; ++attempt) {
    last = ConnectOnce(deadline);
    if (last.ok()) {
      // Reconnect audit: a fresh connection knows nothing about this
      // client's push subscriptions or continuous queries — replay them
      // before the caller's next request, or pushes silently stop.
      if (!reestablishing_) {
        reestablishing_ = true;
        ReestablishSessions();
        reestablishing_ = false;
      }
      return last;
    }
    if (!RetryableError(last.code())) return last;
    if (attempt == policy.max_attempts) break;
    const TimeNs backoff = JitteredBackoffForAttempt(policy, attempt);
    if ((policy.deadline > 0 &&
         clock_.Now() + backoff - start >= policy.deadline) ||
        (deadline > 0 && clock_.Now() + backoff >= deadline)) {
      break;
    }
    clock_.SleepFor(backoff);
  }
  return last;
}

Status ApolloClient::ConnectOnce(TimeNs deadline) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status(ErrorCode::kIoError,
                  std::string("socket: ") + std::strerror(errno));
  }
  if (!SetNonBlocking(fd)) {
    ::close(fd);
    return Status(ErrorCode::kIoError, "fcntl O_NONBLOCK failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status(ErrorCode::kInvalidArgument,
                  "bad host address: " + config_.host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status(ErrorCode::kUnavailable, "connect: " + err);
  }
  // Wait for the connect to resolve (within the caller's deadline too),
  // then check SO_ERROR.
  TimeNs connect_deadline = clock_.Now() + config_.connect_timeout;
  if (deadline > 0) connect_deadline = std::min(connect_deadline, deadline);
  pollfd pfd{fd, POLLOUT, 0};
  while (true) {
    const int rc =
        ::poll(&pfd, 1, PollTimeoutMs(clock_, connect_deadline));
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) {
      ::close(fd);
      return Status(ErrorCode::kUnavailable, "connect timed out");
    }
    break;
  }
  int so_error = 0;
  socklen_t len = sizeof(so_error);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
      so_error != 0) {
    ::close(fd);
    return Status(ErrorCode::kUnavailable,
                  std::string("connect: ") +
                      std::strerror(so_error != 0 ? so_error : errno));
  }

  fd_ = fd;
  parser_ = FrameParser();
  pending_.clear();
  connections_opened_.Inc();

  HelloMsg hello;
  hello.client_name = config_.client_name;
  hello.tenant = config_.tenant;
  auto ack = DecodeReply<HelloAckMsg>(
      Roundtrip(MsgType::kHello, EncodePayload(hello), MsgType::kHelloAck,
                /*flags=*/0, deadline),
      "hello ack");
  if (!ack.ok()) {
    Close();
    return ack.status();
  }
  if (ack->protocol_version != kProtocolVersion) {
    return FailClose(ErrorCode::kFailedPrecondition,
                     "server speaks protocol version " +
                         std::to_string(ack->protocol_version));
  }
  server_name_ = ack->server_name;
  return Status::Ok();
}

void ApolloClient::Close() {
  if (fd_ < 0) return;
  ::close(fd_);
  fd_ = -1;
  connections_closed_.Inc();
  // The shm lane dies with the connection (the daemon drains what made it
  // into the ring before unmapping, so ring contents are not lost).
  shm_producer_.reset();
  shm_topic_ids_.clear();
  // The reconnect fix: samples still queued are definitively unacked on
  // this connection — surface every one instead of dropping silently.
  if (!queue_.empty()) {
    std::vector<QueuedSample> orphans;
    orphans.swap(queue_);
    SurfaceErrors(orphans, Error(ErrorCode::kUnavailable,
                                 "connection closed with samples queued"));
  }
}

Status ApolloClient::FailClose(ErrorCode code, const std::string& message) {
  Close();
  return Status(code, message);
}

Status ApolloClient::SendRequest(MsgType type, std::uint32_t request_id,
                                 const Payload& payload, std::uint16_t flags) {
  TRACE_SPAN("net.send", MsgTypeName(type));
  if (FaultInjector* injector = fault_.load(std::memory_order_acquire)) {
    if (auto action =
            injector->Evaluate(FaultSite::kNetSend, MsgTypeName(type))) {
      if (action->fails()) {
        send_failures_.Inc();
        return Status(ErrorCode::kUnavailable, "injected send failure");
      }
      clock_.Charge(action->delay_ns);
    }
  }
  std::vector<std::uint8_t> bytes;
  EncodeFrame(bytes, type, request_id, payload, flags);
  const TimeNs deadline = clock_.Now() + config_.request_timeout;
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    // MSG_NOSIGNAL: a daemon-side drop between poll and write must
    // surface as EPIPE (-> FailClose + reconnect), not kill the process.
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd_, POLLOUT, 0};
      const int rc = ::poll(&pfd, 1, PollTimeoutMs(clock_, deadline));
      if (rc < 0 && errno == EINTR) continue;
      if (rc <= 0) {
        send_failures_.Inc();
        return FailClose(ErrorCode::kUnavailable, "send timed out");
      }
      continue;
    }
    send_failures_.Inc();
    return FailClose(ErrorCode::kIoError,
                     std::string("write: ") + std::strerror(errno));
  }
  bytes_sent_.Inc(bytes.size());
  messages_sent_.Inc();
  return Status::Ok();
}

Status ApolloClient::ReadSome(TimeNs deadline) {
  pollfd pfd{fd_, POLLIN, 0};
  while (true) {
    const int rc = ::poll(&pfd, 1, PollTimeoutMs(clock_, deadline));
    if (rc < 0 && errno == EINTR) continue;
    if (rc == 0) return Status(ErrorCode::kUnavailable, "request timed out");
    if (rc < 0) {
      return FailClose(ErrorCode::kIoError,
                       std::string("poll: ") + std::strerror(errno));
    }
    break;
  }
  std::uint8_t buf[64 * 1024];
  while (true) {
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return FailClose(ErrorCode::kIoError,
                       std::string("read: ") + std::strerror(errno));
    }
    if (n == 0) {
      return FailClose(ErrorCode::kUnavailable, "connection closed by peer");
    }
    bytes_received_.Inc(static_cast<std::uint64_t>(n));
    if (!parser_.Feed(buf, static_cast<std::size_t>(n))) {
      protocol_errors_.Inc();
      return FailClose(ErrorCode::kIoError,
                       "protocol error: " + parser_.error());
    }
    if (static_cast<std::size_t>(n) < sizeof(buf)) break;
  }
  FaultInjector* injector = fault_.load(std::memory_order_acquire);
  Frame frame;
  while (parser_.Next(frame)) {
    TRACE_SPAN("net.recv", MsgTypeName(frame.type));
    const char* label = MsgTypeName(frame.type);
    if (injector != nullptr) {
      if (auto action = injector->Evaluate(FaultSite::kConnDrop, label)) {
        if (action->fails()) {
          conn_drops_.Inc();
          return FailClose(ErrorCode::kUnavailable,
                           "injected connection drop");
        }
        clock_.Charge(action->delay_ns);
      }
      if (auto action = injector->Evaluate(FaultSite::kNetRecv, label)) {
        if (action->fails()) {
          recv_drops_.Inc();
          continue;  // frame lost in flight
        }
        clock_.Charge(action->delay_ns);
      }
    }
    messages_received_.Inc();
    if (frame.type == MsgType::kDeliver && frame.request_id == 0) {
      DeliverMsg deliver;
      if (DeliverMsg::Decode(frame.payload, deliver)) {
        // Advance the session cursor past what we buffered, so a
        // post-reconnect re-subscribe resumes exactly there.
        if (!deliver.entries.empty()) {
          for (SubSession& session : sub_sessions_) {
            if (session.sub_id == deliver.subscription_id) {
              session.cursor = deliver.entries.back().id + 1;
              break;
            }
          }
        }
        deliveries_.push_back(std::move(deliver));
      }
      continue;
    }
    if (frame.type == MsgType::kCQUpdate && frame.request_id == 0) {
      CQUpdateMsg update;
      if (CQUpdateMsg::Decode(frame.payload, update)) {
        for (CQSession& session : cq_sessions_) {
          if (session.cq_id == update.cq_id) {
            session.epoch = update.epoch;
            session.seq = update.seq;
            break;
          }
        }
        cq_updates_.push_back(std::move(update));
      }
      continue;
    }
    if (frame.type == MsgType::kClusterMap && frame.request_id == 0) {
      ClusterMapMsg push;
      if (ClusterMapMsg::Decode(frame.payload, push) &&
          (!pushed_map_.has_value() ||
           push.map.version >= pushed_map_->version)) {
        pushed_map_ = std::move(push.map);
      }
      continue;
    }
    pending_.push_back(std::move(frame));
  }
  return Status::Ok();
}

Expected<ApolloClient::PendingReply> ApolloClient::Send(MsgType type,
                                                        const Payload& payload,
                                                        std::uint16_t flags) {
  if (!connected() && type != MsgType::kHello) {
    Status status = Connect();
    if (!status.ok()) return Error(status.code(), status.message());
  }
  PendingReply pending{next_request_id_++, clock_.Now()};
  Status sent = SendRequest(type, pending.request_id, payload, flags);
  if (!sent.ok()) return Error(sent.code(), sent.message());
  return pending;
}

Expected<Frame> ApolloClient::Await(const PendingReply& pending,
                                    MsgType expect, TimeNs deadline) {
  std::optional<Frame> reply;
  for (bool last_look = false; !reply.has_value();) {
    while (!reply.has_value() && !pending_.empty()) {
      // Any other id is a stale reply to a request that timed out: drop it.
      if (pending_.front().request_id == pending.request_id) {
        reply = std::move(pending_.front());
      }
      pending_.pop_front();
    }
    if (reply.has_value()) break;
    if (!connected()) return Error(ErrorCode::kUnavailable, "not connected");
    if (last_look) return Error(ErrorCode::kUnavailable, "request timed out");
    // Past the deadline ReadSome polls without blocking: one last look.
    last_look = clock_.Now() >= deadline;
    Status status = ReadSome(deadline);
    if (!status.ok()) return Error(status.code(), status.message());
  }
  rtt_.Record(clock_.Now() - pending.sent_at);
  if (reply->type == MsgType::kError) {
    ErrorMsg err;
    if (!ErrorMsg::Decode(reply->payload, err)) {
      return Error(ErrorCode::kParseError, "bad error frame");
    }
    return err.ToError();
  }
  if (reply->type != expect) {
    return Error(ErrorCode::kInternal,
                 std::string("unexpected reply type: ") +
                     MsgTypeName(reply->type));
  }
  return std::move(*reply);
}

Expected<Frame> ApolloClient::Roundtrip(MsgType type, const Payload& payload,
                                        MsgType expect, std::uint16_t flags,
                                        TimeNs deadline) {
  auto pending = Send(type, payload, flags);
  if (!pending.ok()) return pending.error();
  TimeNs until = pending->sent_at + config_.request_timeout;
  if (deadline > 0) until = std::min(until, deadline);
  return Await(*pending, expect, until);
}

void ApolloClient::PollInbound() {
  // An expired deadline makes ReadSome poll without blocking; "nothing
  // arrived" is its timeout status and not an error here.
  if (connected()) (void)ReadSome(clock_.Now());
}

Status ApolloClient::Ping() {
  auto reply = Roundtrip(MsgType::kPing, {}, MsgType::kPong);
  return reply.status();
}

Expected<std::uint64_t> ApolloClient::Publish(const std::string& topic,
                                              TimeNs timestamp,
                                              const Sample& sample) {
  PublishMsg msg;
  msg.topic = topic;
  msg.timestamp = timestamp;
  msg.sample = sample;
  auto ack = DecodeReply<PublishAckMsg>(
      Roundtrip(MsgType::kPublish, EncodePayload(msg), MsgType::kPublishAck),
      "publish ack");
  if (!ack.ok()) return ack.error();
  return ack->entry_id;
}

void ApolloClient::SurfaceErrors(const std::vector<QueuedSample>& samples,
                                 const Error& error) {
  if (!publish_error_) return;
  for (const QueuedSample& q : samples) {
    publish_error_(q.topic, q.entry.timestamp, q.entry.value, error);
  }
}

Status ApolloClient::PublishAsync(const std::string& topic, TimeNs timestamp,
                                  const Sample& sample) {
  if (shm_producer_ != nullptr) {
    auto it = shm_topic_ids_.find(topic);
    if (it != shm_topic_ids_.end()) {
      ShmSlot slot;
      slot.entry_ts = timestamp;
      slot.sample_ts = sample.timestamp;
      slot.value = sample.value;
      slot.topic_id = it->second;
      slot.provenance = static_cast<std::uint8_t>(sample.provenance);
      if (shm_producer_->TryPush(slot)) return Status::Ok();
      // Ring full (consumer behind): this sample rides the TCP queue.
      shm_fallbacks_.Inc();
    }
  }
  if (queue_.empty()) oldest_queued_ = clock_.Now();
  QueuedSample q;
  q.topic = topic;
  q.entry.timestamp = timestamp;
  q.entry.value = sample;
  queue_.push_back(std::move(q));
  if (queue_.size() >= config_.batch_max_samples ||
      clock_.Now() - oldest_queued_ >= config_.batch_max_delay) {
    return Flush();
  }
  return Status::Ok();
}

Status ApolloClient::Flush() {
  while (!queue_.empty()) {
    Status status = FlushChunk();
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

Status ApolloClient::FlushChunk() {
  if (queue_.empty()) return Status::Ok();
  const std::size_t n = std::min<std::size_t>(queue_.size(), kMaxBatchSamples);
  // Move the chunk out before the round trip: a failure path that lands in
  // Close() must only see (and surface) samples *not* already in flight.
  std::vector<QueuedSample> inflight(
      std::make_move_iterator(queue_.begin()),
      std::make_move_iterator(queue_.begin() + static_cast<std::ptrdiff_t>(n)));
  queue_.erase(queue_.begin(), queue_.begin() + static_cast<std::ptrdiff_t>(n));

  PublishBatchMsg msg;
  for (QueuedSample& q : inflight) {
    if (msg.runs.empty() || msg.runs.back().topic != q.topic) {
      msg.runs.emplace_back();
      msg.runs.back().topic = q.topic;
    }
    msg.runs.back().entries.push_back(q.entry);
  }
  batch_size_.Record(static_cast<std::int64_t>(n));
  const TimeNs start = clock_.Now();
  auto reply = PublishBatch(msg);
  if (!reply.ok()) {
    SurfaceErrors(inflight, reply.error());
    return reply.status();
  }
  const PublishBatchAckMsg& ack = *reply;
  flush_latency_.Record(clock_.Now() - start);
  if (ack.error_count > 0 && publish_error_) {
    const Error err(ack.first_error_code, ack.first_error.empty()
                                              ? "sample rejected by daemon"
                                              : ack.first_error);
    const std::size_t covered = std::min<std::size_t>(ack.count, n);
    for (std::size_t i = 0; i < covered; ++i) {
      if (ack.Failed(static_cast<std::uint32_t>(i))) {
        publish_error_(inflight[i].topic, inflight[i].entry.timestamp,
                       inflight[i].entry.value, err);
      }
    }
  }
  return Status::Ok();
}

Expected<PublishBatchAckMsg> ApolloClient::PublishBatch(
    const PublishBatchMsg& msg, std::uint16_t flags) {
  return DecodeReply<PublishBatchAckMsg>(
      Roundtrip(MsgType::kPublishBatch, EncodePayload(msg),
                MsgType::kPublishBatchAck, flags),
      "batch ack");
}

Status ApolloClient::EnableShmLane(const std::vector<std::string>& topics) {
  if (topics.empty()) {
    return Status(ErrorCode::kInvalidArgument, "no topics for shm lane");
  }
  if (shm_producer_ != nullptr) {
    return Status(ErrorCode::kFailedPrecondition, "shm lane already active");
  }
  Status status = Connect();
  if (!status.ok()) return status;
  static std::atomic<std::uint64_t> lane_seq{0};
  const std::string name =
      "/apollo-lane-" + std::to_string(::getpid()) + "-" +
      std::to_string(lane_seq.fetch_add(1, std::memory_order_relaxed));
  auto producer = ShmLaneProducer::Create(name, config_.shm_slots);
  if (!producer.ok()) {
    shm_fallbacks_.Inc();
    return producer.status();
  }
  ShmAttachMsg offer;
  offer.segment_name = name;
  offer.slot_count = config_.shm_slots;
  offer.topics = topics;
  auto ack = DecodeReply<ShmAttachAckMsg>(
      Roundtrip(MsgType::kShmAttach, EncodePayload(offer),
                MsgType::kShmAttachAck),
      "shm attach ack");
  if (!ack.ok()) {
    shm_fallbacks_.Inc();
    return ack.status();
  }
  if (!ack->accepted) {
    // The fallback handshake: the producer (and its segment) go away and
    // every PublishAsync rides the TCP batch path.
    shm_fallbacks_.Inc();
    return Status(ErrorCode::kUnavailable,
                  ack->message.empty() ? "shm offer refused" : ack->message);
  }
  shm_producer_ = std::move(*producer);
  for (std::size_t i = 0; i < topics.size(); ++i) {
    shm_topic_ids_[topics[i]] = static_cast<std::uint32_t>(i);
  }
  return Status::Ok();
}

Expected<SubscribeAckMsg> ApolloClient::Subscribe(const std::string& topic,
                                                  std::uint64_t cursor) {
  SubscribeMsg msg;
  msg.topic = topic;
  msg.cursor = cursor;
  auto ack = DecodeReply<SubscribeAckMsg>(
      Roundtrip(MsgType::kSubscribe, EncodePayload(msg),
                MsgType::kSubscribeAck),
      "subscribe ack");
  if (!ack.ok()) return ack;
  // Track the session for reconnect replay. A replayed subscribe (same
  // topic) refreshes its session in place instead of adding another.
  SubSession* session = nullptr;
  for (SubSession& s : sub_sessions_) {
    if (s.topic == topic) {
      session = &s;
      break;
    }
  }
  if (session == nullptr) {
    sub_sessions_.emplace_back();
    session = &sub_sessions_.back();
    session->topic = topic;
  }
  session->sub_id = ack->subscription_id;
  session->cursor = ack->start_cursor;
  return ack;
}

Expected<CQRegisterAckMsg> ApolloClient::CQRegisterInternal(
    const std::string& name, const std::string& sql,
    std::uint64_t resume_epoch, std::uint64_t resume_seq) {
  CQRegisterMsg msg;
  msg.name = name;
  msg.sql = sql;
  msg.resume_epoch = resume_epoch;
  msg.resume_seq = resume_seq;
  auto ack = DecodeReply<CQRegisterAckMsg>(
      Roundtrip(MsgType::kCQRegister, EncodePayload(msg),
                MsgType::kCQRegisterAck),
      "cq register ack");
  if (!ack.ok()) return ack;
  CQSession* session = nullptr;
  for (CQSession& s : cq_sessions_) {
    if (s.name == name) {
      session = &s;
      break;
    }
  }
  if (session == nullptr) {
    cq_sessions_.emplace_back();
    session = &cq_sessions_.back();
    session->name = name;
  }
  session->sql = sql;
  session->cq_id = ack->cq_id;
  session->epoch = ack->epoch;
  session->seq = ack->seq;
  // The daemon pushes the snapshot (or the resumed backlog) right behind
  // the ack, so the read that carried the ack may already have buffered
  // some of it; a later resume must start past those too.
  for (const CQUpdateMsg& update : cq_updates_) {
    if (update.cq_id == ack->cq_id && update.epoch == ack->epoch) {
      session->seq = std::max(session->seq, update.seq);
    }
  }
  return ack;
}

Expected<CQRegisterAckMsg> ApolloClient::CQRegister(const std::string& name,
                                                    const std::string& sql) {
  std::uint64_t resume_epoch = 0;
  std::uint64_t resume_seq = 0;
  for (const CQSession& s : cq_sessions_) {
    if (s.name == name && s.sql == sql) {
      resume_epoch = s.epoch;
      resume_seq = s.seq;
      break;
    }
  }
  return CQRegisterInternal(name, sql, resume_epoch, resume_seq);
}

Status ApolloClient::CQCancel(std::uint64_t cq_id) {
  CQCancelMsg msg;
  msg.cq_id = cq_id;
  auto reply =
      Roundtrip(MsgType::kCQCancel, EncodePayload(msg), MsgType::kCQCancelAck);
  if (!reply.ok()) return reply.status();
  for (auto it = cq_sessions_.begin(); it != cq_sessions_.end(); ++it) {
    if (it->cq_id == cq_id) {
      cq_sessions_.erase(it);
      break;
    }
  }
  return Status::Ok();
}

std::vector<CQUpdateMsg> ApolloClient::TakeCQUpdates() {
  std::vector<CQUpdateMsg> out;
  out.swap(cq_updates_);
  return out;
}

bool ApolloClient::WaitForCQUpdates(TimeNs timeout) {
  const TimeNs deadline = clock_.Now() + timeout;
  while (cq_updates_.empty()) {
    if (!connected() || clock_.Now() >= deadline) return false;
    if (!ReadSome(deadline).ok()) return false;
  }
  return true;
}

void ApolloClient::ReestablishSessions() {
  // Replay push subscriptions from the cursor after the last buffered
  // delivery: nothing re-delivered, nothing skipped (entries evicted from
  // the stream window in between are gone either way).
  std::vector<SubSession> subs;
  subs.swap(sub_sessions_);
  for (SubSession& session : subs) {
    (void)Subscribe(session.topic, session.cursor);
  }
  // Replay CQ registrations with resume (epoch, seq): the daemon either
  // resumes delivery exactly past seq or bumps the epoch and restarts
  // from a fresh snapshot — the client detects which from the ack.
  std::vector<CQSession> cqs;
  cqs.swap(cq_sessions_);
  for (CQSession& session : cqs) {
    (void)CQRegisterInternal(session.name, session.sql, session.epoch,
                             session.seq);
  }
}

Expected<WindowMsg> ApolloClient::FetchWindow(const std::string& topic,
                                              std::uint64_t cursor,
                                              std::uint64_t max_entries) {
  FetchWindowMsg msg;
  msg.topic = topic;
  msg.cursor = cursor;
  msg.max_entries = max_entries;
  return DecodeReply<WindowMsg>(
      Roundtrip(MsgType::kFetchWindow, EncodePayload(msg), MsgType::kWindow),
      "window");
}

Expected<ResultMsg> ApolloClient::Query(const std::string& sql, bool partial) {
  auto pending = SendQuery(sql, partial);
  if (!pending.ok()) return pending.error();
  return AwaitQuery(*pending, pending->sent_at + config_.request_timeout);
}

Expected<ApolloClient::PendingReply> ApolloClient::SendQuery(
    const std::string& sql, bool partial) {
  QueryMsg msg;
  msg.sql = sql;
  return Send(MsgType::kQuery, EncodePayload(msg), partial ? kFlagPartial : 0);
}

Expected<ResultMsg> ApolloClient::AwaitQuery(const PendingReply& pending,
                                             TimeNs deadline) {
  return DecodeReply<ResultMsg>(Await(pending, MsgType::kResult, deadline),
                                "result");
}

Expected<std::vector<TopicInfo>> ApolloClient::ListTopics() {
  auto msg = DecodeReply<TopicListMsg>(
      Roundtrip(MsgType::kListTopics, {}, MsgType::kTopicList), "topic list");
  if (!msg.ok()) return msg.error();
  return std::move(msg->topics);
}

Expected<std::string> ApolloClient::FetchMetricsText() {
  auto msg = DecodeReply<MetricsTextMsg>(
      Roundtrip(MsgType::kMetrics, {}, MsgType::kMetricsText), "metrics text");
  if (!msg.ok()) return msg.error();
  return std::move(msg->text);
}

Expected<HeartbeatAckMsg> ApolloClient::Heartbeat(const HeartbeatMsg& msg) {
  return DecodeReply<HeartbeatAckMsg>(
      Roundtrip(MsgType::kHeartbeat, EncodePayload(msg),
                MsgType::kHeartbeatAck),
      "heartbeat ack");
}

Expected<ReplicateAckMsg> ApolloClient::Replicate(const ReplicateMsg& msg) {
  return DecodeReply<ReplicateAckMsg>(
      Roundtrip(MsgType::kReplicate, EncodePayload(msg),
                MsgType::kReplicateAck),
      "replicate ack");
}

Expected<ResyncChunkMsg> ApolloClient::ResyncPull(const ResyncPullMsg& msg) {
  return DecodeReply<ResyncChunkMsg>(
      Roundtrip(MsgType::kResyncPull, EncodePayload(msg),
                MsgType::kResyncChunk),
      "resync chunk");
}

Expected<cluster::ClusterMap> ApolloClient::FetchClusterMap() {
  auto msg = DecodeReply<ClusterMapMsg>(
      Roundtrip(MsgType::kGetClusterMap, {}, MsgType::kClusterMap),
      "cluster map");
  if (!msg.ok()) return msg.error();
  return std::move(msg->map);
}

std::optional<cluster::ClusterMap> ApolloClient::TakeClusterMapPush() {
  std::optional<cluster::ClusterMap> out;
  out.swap(pushed_map_);
  return out;
}

std::vector<DeliverMsg> ApolloClient::TakeDeliveries() {
  std::vector<DeliverMsg> out;
  out.swap(deliveries_);
  return out;
}

bool ApolloClient::WaitForDeliveries(TimeNs timeout) {
  const TimeNs deadline = clock_.Now() + timeout;
  while (deliveries_.empty()) {
    if (!connected() || clock_.Now() >= deadline) return false;
    if (!ReadSome(deadline).ok()) return false;
  }
  return true;
}

}  // namespace apollo::net
