#include "topology.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "apollo/deployment_plan.h"
#include "cluster/membership.h"
#include "gen.h"

namespace e2e {

using apollo::ApolloOptions;
using apollo::ApolloService;
using apollo::Error;
using apollo::ErrorCode;
using apollo::Expected;
using apollo::Status;

namespace {

double Seconds(Ns from, Ns to) { return static_cast<double>(to - from) / 1e9; }

// Every durable topic is a fact vertex whose hook publishes kVertexValue
// once at Start() and then waits an hour: the deployment path is what
// gives a topic its WAL and cold tier, and the benchmark's producers do
// the real writing over the wire.
Status DeployTopic(ApolloService& svc, const std::string& topic) {
  apollo::MonitorHook hook{topic, [](TimeNs) { return kVertexValue; }, 0};
  apollo::FactDeployment deployment;
  deployment.controller = "fixed";
  deployment.fixed_interval = apollo::Seconds(3600);
  deployment.topic = topic;
  deployment.queue_capacity = kWindow;
  deployment.publish_only_on_change = true;
  auto vertex = svc.DeployFact(std::move(hook), deployment);
  return vertex.ok() ? Status::Ok() : vertex.status();
}

std::vector<std::string> DurableTopics() {
  std::vector<std::string> topics;
  for (std::size_t i = 0; i < kIngTopics; ++i) topics.push_back(IngTopic(i));
  for (std::size_t i = 0; i < kPubTopics; ++i) topics.push_back(PubTopic(i));
  return topics;
}

// Reserves `n` distinct ephemeral loopback ports (all bound before any is
// released, so none repeats); cluster configs need every port up front.
std::vector<std::uint16_t> PickFreePorts(std::size_t n) {
  std::vector<int> fds;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (fd < 0 ||
        ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      if (fd >= 0) ::close(fd);
      break;
    }
    fds.push_back(fd);
    ports.push_back(ntohs(addr.sin_port));
  }
  for (int fd : fds) ::close(fd);
  return ports;
}

}  // namespace

std::string IngTopic(std::size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ing.n%02zu.m%zu", i / 8, i % 8);
  return buf;
}

std::string PubTopic(std::size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "pub.t%02zu", i);
  return buf;
}

std::string ClTopic(std::size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "cl.t%02zu", i);
  return buf;
}

ApolloOptions DurableOptions(const std::string& dir) {
  // apollod --archive-dir DIR --compact-interval 1 --wal-segment-bytes 65536
  ApolloOptions options;
  options.mode = ApolloOptions::Mode::kRealTime;
  options.archive_dir = dir;
  options.coldtier_enabled = true;
  options.coldtier_compact_interval = apollo::Seconds(1);
  options.wal.segment_bytes = 64u << 10;
  return options;
}

Expected<std::unique_ptr<Standalone>> Standalone::Open(
    const std::string& dir, SetupTimes& times,
    const std::function<Status(ApolloService&)>& after_recover) {
  std::unique_ptr<Standalone> node(new Standalone());
  node->dir_ = dir;
  std::filesystem::create_directories(dir);
  const Ns t0 = NowNs();
  node->svc_ = std::make_unique<ApolloService>(DurableOptions(dir));
  apollo::ClusterConfig sim_config;
  sim_config.compute_nodes = 2;
  sim_config.storage_nodes = 2;
  node->sim_ = apollo::Cluster::MakeAresLike(sim_config);
  auto plan = apollo::DeployStandardMonitoring(*node->svc_, *node->sim_);
  if (!plan.ok()) return plan.error();
  for (const std::string& topic : DurableTopics()) {
    Status deployed = DeployTopic(*node->svc_, topic);
    if (!deployed.ok()) return Error(deployed.code(), deployed.message());
  }
  const Ns t1 = NowNs();
  auto recovered = node->svc_->Recover();
  if (!recovered.ok()) return recovered.error();
  times.recovery = *recovered;
  const Ns t2 = NowNs();
  if (after_recover) {
    Status checked = after_recover(*node->svc_);
    if (!checked.ok()) return Error(checked.code(), checked.message());
  }
  const Ns t2b = NowNs();
  Status started = node->svc_->Start();
  if (!started.ok()) return Error(started.code(), started.message());
  const Ns t3 = NowNs();
  auto port = node->svc_->StartDaemon({});
  if (!port.ok()) return port.error();
  node->port_ = *port;
  const Ns t4 = NowNs();
  // The start samples land on the loop thread; wait so every topic's
  // count is exactly one plus what the benchmark acks.
  for (const std::string& topic : DurableTopics()) {
    auto vertex = node->svc_->graph().FindFact(topic);
    if (!vertex.ok()) return vertex.error();
    const Ns deadline = NowNs() + 10'000'000'000;
    while ((*vertex)->stats().published.load() == 0) {
      if (NowNs() > deadline) {
        return Error(ErrorCode::kUnavailable,
                     "start sample never published: " + topic);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  const Ns t5 = NowNs();
  times.deploy_s = Seconds(t0, t1);
  times.recover_s = Seconds(t1, t2);
  times.start_s = Seconds(t2b, t3) + Seconds(t4, t5);
  times.start_daemon_s = Seconds(t3, t4);
  return node;
}

Standalone::~Standalone() {
  if (svc_ != nullptr) svc_->Stop();
  svc_.reset();
}

Expected<std::unique_ptr<ClusterPair>> ClusterPair::Open(SetupTimes& times) {
  const Ns t0 = NowNs();
  std::unique_ptr<ClusterPair> pair(new ClusterPair());
  const auto ports = PickFreePorts(kNodes);
  if (ports.size() != kNodes) {
    return Error(ErrorCode::kUnavailable, "no free loopback ports");
  }
  for (std::size_t i = 0; i < kNodes; ++i) {
    apollo::net::ClusterPeer peer;
    peer.name = "b" + std::to_string(i);
    peer.port = ports[i];
    pair->peers_.push_back(peer);
  }
  for (std::size_t i = 0; i < kNodes; ++i) {
    ApolloOptions options;
    options.mode = ApolloOptions::Mode::kRealTime;
    auto svc = std::make_unique<ApolloService>(options);
    Status started = svc->Start();
    if (!started.ok()) return Error(started.code(), started.message());
    apollo::net::DaemonConfig config;
    config.server.port = ports[i];
    config.server.server_name = pair->peers_[i].name;
    config.cluster.enabled = true;
    config.cluster.self = pair->peers_[i].name;
    config.cluster.members = pair->peers_;
    config.cluster.replication_factor = 2;
    config.cluster.write_quorum = 2;
    auto port = svc->StartDaemon(config);
    if (!port.ok()) return port.error();
    pair->nodes_.push_back(std::move(svc));
  }
  const Ns deadline = NowNs() + 15'000'000'000;
  for (std::size_t i = 0; i < kNodes; ++i) {
    while (true) {
      const auto map = pair->nodes_[i]->daemon()->cluster()->Snapshot();
      std::size_t alive = 0;
      for (const auto& m : map.members) {
        if (m.state == apollo::cluster::MemberState::kAlive) ++alive;
      }
      if (alive == kNodes) break;
      if (NowNs() > deadline) {
        return Error(ErrorCode::kUnavailable, "cluster never converged");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  times.cluster_s = Seconds(t0, NowNs());
  return pair;
}

ClusterPair::~ClusterPair() {
  for (auto& node : nodes_) node->StopDaemon();
  for (auto& node : nodes_) node->Stop();
}

Status SeedHistory(const std::string& dir, std::uint64_t seed,
                   std::size_t cold_rows, std::size_t wal_rows) {
  std::filesystem::create_directories(dir);
  ApolloService svc(DurableOptions(dir));
  std::vector<apollo::TopicHandle> handles;
  for (std::size_t t = 0; t < kIngTopics; ++t) {
    Status deployed = DeployTopic(svc, IngTopic(t));
    if (!deployed.ok()) return deployed;
    auto handle = svc.broker().Resolve(IngTopic(t));
    if (!handle.ok()) return handle.status();
    handles.push_back(*handle);
  }
  // The service is never started, so the vertices stay silent and the
  // history below is all each topic holds.
  auto write = [&](std::size_t from, std::size_t to) -> Status {
    std::vector<apollo::TelemetryStream::Entry> entries;
    for (std::size_t t = 0; t < kIngTopics; ++t) {
      entries.clear();
      for (std::size_t i = from; i < to; ++i) {
        apollo::TelemetryStream::Entry e;
        e.timestamp = HistoryTs(i);
        e.value.timestamp = e.timestamp;
        e.value.value = HistoryValue(seed, i);
        entries.push_back(e);
      }
      auto result = svc.broker().PublishBatch(handles[t], apollo::kLocalNode,
                                              entries.data(), entries.size());
      if (!result.ok()) return result.status();
      if (result->accepted != entries.size()) {
        return Status(ErrorCode::kInternal, "history publish dropped rows");
      }
      Status flushed = handles[t].stream()->FlushEvictions();
      if (!flushed.ok()) return flushed;
    }
    return Status::Ok();
  };
  Status status = write(0, cold_rows);
  if (!status.ok()) return status;
  auto compacted = svc.CompactNow();
  if (!compacted.ok()) return compacted.status();
  return write(cold_rows, cold_rows + wal_rows);
}

std::uint64_t DirBytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) bytes += it->file_size(ec);
  }
  return bytes;
}

}  // namespace e2e
