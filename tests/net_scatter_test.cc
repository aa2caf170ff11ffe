// Scatter-gather on persistent connections: the engine's per-node clients
// are reused across queries (no connect and no map fetch per query), a
// late reply on a reused connection never leaks into a later query, a
// restarted node is reconnected on the next query, and one engine can be
// shared across threads.
//
// Suite names start with "Net" so the tsan name-filtered leg runs them;
// all waits are bounded deadline loops, never sleeps on the assertion
// path.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "aqe/executor.h"
#include "common/clock.h"
#include "common/fault.h"
#include "metric_value.h"
#include "net/client.h"
#include "net/cluster_client.h"
#include "net/daemon.h"
#include "net/remote_query.h"
#include "pubsub/broker.h"

namespace apollo::net {
namespace {

Sample MakeSample(TimeNs timestamp, double value) {
  Sample sample;
  sample.timestamp = timestamp;
  sample.value = value;
  sample.provenance = Provenance::kMeasured;
  return sample;
}

std::uint64_t ConnectionsOpened() {
  return CounterValue("apollo_net_connections_opened_total");
}

// Ports for cluster members, which must be known before any daemon
// starts (each one lists every member).
std::vector<std::uint16_t> PickFreePorts(std::size_t n) {
  std::vector<int> fds;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    fds.push_back(fd);
    ports.push_back(ntohs(addr.sin_port));
  }
  for (int fd : fds) ::close(fd);
  return ports;
}

// One daemon with its own broker and executor. `cluster` turns it into a
// member of a replicated cluster; `port` 0 binds an ephemeral port.
struct ScatterNode {
  ScatterNode(const std::string& name, std::uint16_t port,
              const ClusterNodeConfig& cluster = {})
      : broker(RealClock::Instance()), executor(broker, nullptr) {
    DaemonConfig config;
    config.server.server_name = name;
    config.server.port = port;
    config.cluster = cluster;
    daemon = std::make_unique<ApolloDaemon>(broker, executor, config);
  }
  ~ScatterNode() { daemon->Stop(); }

  void Seed(const std::string& topic, int entries, double base_value) {
    ASSERT_TRUE(broker.CreateTopic(topic).ok());
    RealClock& clock = RealClock::Instance();
    for (int i = 0; i < entries; ++i) {
      ASSERT_TRUE(broker
                      .Publish(topic, kLocalNode, clock.Now(),
                               MakeSample(clock.Now(), base_value + i))
                      .ok());
    }
  }

  Broker broker;
  aqe::Executor executor;
  std::unique_ptr<ApolloDaemon> daemon;
};

// Counts the kGetClusterMap requests a daemon receives: a never-firing
// fault spec on that label counts every matching frame as a hit.
struct MapFetchCounter {
  MapFetchCounter() {
    FaultSpec spec;
    spec.site = FaultSite::kNetRecv;
    spec.topic = "get_cluster_map";
    spec.probability = 0.0;
    injector.Arm(spec);
  }
  std::uint64_t Count() const { return injector.Hits(FaultSite::kNetRecv); }
  FaultInjector injector;
};

// A calm 2-node replicated cluster (RF=2, quorum 2) holding `kTopics`
// topics of `kEntries` samples each; the silence thresholds are generous
// so membership does not move under a slow (sanitized) build.
class NetScatterCluster : public ::testing::Test {
 protected:
  static constexpr std::size_t kNodes = 2;
  static constexpr int kTopics = 4;
  static constexpr int kEntries = 6;

  void SetUp() override {
    const auto ports = PickFreePorts(kNodes);
    for (std::size_t i = 0; i < kNodes; ++i) {
      peers_.push_back(ClusterPeer{"n" + std::to_string(i), "127.0.0.1",
                                   ports[i]});
    }
    for (std::size_t i = 0; i < kNodes; ++i) {
      ClusterNodeConfig cluster;
      cluster.enabled = true;
      cluster.self = peers_[i].name;
      cluster.members = peers_;
      cluster.heartbeat_interval = Millis(50);
      cluster.suspect_after = Millis(3000);
      cluster.dead_after = Millis(6000);
      cluster.peer_timeout = Millis(1000);
      nodes_.push_back(
          std::make_unique<ScatterNode>(peers_[i].name, ports[i], cluster));
      ASSERT_TRUE(nodes_[i]->daemon->Start().ok());
    }
    WaitForAllAlive();
    ClusterClient publisher(peers_);
    const TimeNs base = RealClock::Instance().Now();
    for (int t = 0; t < kTopics; ++t) {
      for (int i = 0; i < kEntries; ++i) {
        ASSERT_TRUE(publisher
                        .Publish(Topic(t), base + i,
                                 MakeSample(base + i, 1.0 + i))
                        .ok());
      }
    }
  }

  void WaitForAllAlive() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      std::size_t alive = 0;
      for (const auto& m : nodes_[0]->daemon->cluster()->Snapshot().members) {
        if (m.state == cluster::MemberState::kAlive) ++alive;
      }
      if (alive == kNodes) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    FAIL() << "cluster never converged to all-alive";
  }

  static std::string Topic(int t) { return "sg.t" + std::to_string(t); }

  static std::string UnionSql() {
    std::string sql;
    for (int t = 0; t < kTopics; ++t) {
      if (t > 0) sql += " UNION ";
      sql += "SELECT COUNT(Metric) FROM " + Topic(t);
    }
    return sql;
  }

  std::vector<RemoteNode> Remote() const {
    std::vector<RemoteNode> remote;
    for (const ClusterPeer& p : peers_) {
      remote.push_back(RemoteNode{p.name, p.host, p.port});
    }
    return remote;
  }

  // Every table answered exactly once, fresh, with the full count.
  static void ExpectFullCounts(const Expected<aqe::ResultSet>& rs) {
    ASSERT_TRUE(rs.ok()) << rs.error().ToString();
    EXPECT_FALSE(rs->degraded);
    ASSERT_EQ(rs->rows.size(), static_cast<std::size_t>(kTopics));
    for (const auto& row : rs->rows) {
      ASSERT_EQ(row.values.size(), 1u);
      EXPECT_DOUBLE_EQ(row.values[0], kEntries) << row.source;
    }
  }

  std::vector<ClusterPeer> peers_;
  std::vector<std::unique_ptr<ScatterNode>> nodes_;
};

TEST_F(NetScatterCluster, ClusterModeReusesConnectionsAndSkipsMapFetch) {
  RemoteQueryOptions options;
  options.cluster_mode = true;
  RemoteQueryEngine engine(Remote(), options);
  const std::string sql = UnionSql();
  for (int i = 0; i < 3; ++i) ExpectFullCounts(engine.Execute(sql));
  ASSERT_TRUE(engine.LastMap().has_value());

  std::vector<std::unique_ptr<MapFetchCounter>> counters;
  for (auto& node : nodes_) {
    counters.push_back(std::make_unique<MapFetchCounter>());
    node->daemon->server().AttachFaultInjector(&counters.back()->injector);
  }
  const std::uint64_t opened_before = ConnectionsOpened();
  for (int i = 0; i < 50; ++i) ExpectFullCounts(engine.Execute(sql));
  EXPECT_EQ(ConnectionsOpened() - opened_before, 0u)
      << "a scatter query opened a connection";
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    EXPECT_EQ(counters[i]->Count(), 0u)
        << peers_[i].name << " served a map fetch while membership was calm";
    nodes_[i]->daemon->server().AttachFaultInjector(nullptr);
  }
}

TEST_F(NetScatterCluster, SharedEngineServesFourThreads) {
  RemoteQueryOptions options;
  options.cluster_mode = true;
  RemoteQueryEngine engine(Remote(), options);
  const std::string sql = UnionSql();
  ExpectFullCounts(engine.Execute(sql));
  constexpr int kThreads = 4;
  constexpr int kQueries = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kQueries; ++i) {
        ExpectFullCounts(engine.Execute(sql));
        (void)engine.LastOutcomes();
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

TEST(NetScatter, BroadcastModeReusesConnections) {
  ScatterNode node_a("bcast-a", 0);
  ScatterNode node_b("bcast-b", 0);
  node_a.Seed("bc.a", 5, 1.0);
  node_b.Seed("bc.b", 7, 1.0);
  ASSERT_TRUE(node_a.daemon->Start().ok());
  ASSERT_TRUE(node_b.daemon->Start().ok());
  RemoteQueryEngine engine({{"a", "127.0.0.1", node_a.daemon->port()},
                            {"b", "127.0.0.1", node_b.daemon->port()}});
  const std::string sql =
      "SELECT COUNT(Metric) FROM bc.a UNION SELECT COUNT(Metric) FROM bc.b";
  auto check = [](const Expected<aqe::ResultSet>& rs) {
    ASSERT_TRUE(rs.ok()) << rs.error().ToString();
    EXPECT_FALSE(rs->degraded);
    ASSERT_EQ(rs->rows.size(), 2u);
    for (const auto& row : rs->rows) {
      EXPECT_DOUBLE_EQ(row.values[0], row.source == "bc.a" ? 5.0 : 7.0);
    }
  };
  check(engine.Execute(sql));

  MapFetchCounter counter_a;
  MapFetchCounter counter_b;
  node_a.daemon->server().AttachFaultInjector(&counter_a.injector);
  node_b.daemon->server().AttachFaultInjector(&counter_b.injector);
  const std::uint64_t opened_before = ConnectionsOpened();
  for (int i = 0; i < 50; ++i) check(engine.Execute(sql));
  EXPECT_EQ(ConnectionsOpened() - opened_before, 0u);
  EXPECT_EQ(counter_a.Count() + counter_b.Count(), 0u);
  EXPECT_FALSE(engine.LastMap().has_value());
  node_a.daemon->server().AttachFaultInjector(nullptr);
  node_b.daemon->server().AttachFaultInjector(nullptr);
}

// Node b is listed first so its stalled leg is gathered before a's: a's
// reply, already in its socket by then, must still count after b's
// deadline has passed.
class NetScatterStall : public ::testing::Test {
 protected:
  static constexpr TimeNs kDeadline = 300 * kNsPerMs;

  void SetUp() override {
    node_a_ = std::make_unique<ScatterNode>("stall-a", 0);
    node_b_ = std::make_unique<ScatterNode>("stall-b", 0);
    node_a_->Seed("siteA.load", 4, 10.0);  // 10..13
    node_b_->Seed("siteB.load", 4, 20.0);  // 20..23
    ASSERT_TRUE(node_a_->daemon->Start().ok());
    ASSERT_TRUE(node_b_->daemon->Start().ok());
    port_b_ = node_b_->daemon->port();
    RemoteQueryOptions options;
    options.node_deadline = kDeadline;
    options.connect_timeout = 200 * kNsPerMs;
    options.connect_retry.max_attempts = 1;
    engine_ = std::make_unique<RemoteQueryEngine>(
        std::vector<RemoteNode>{{"b", "127.0.0.1", port_b_},
                                {"a", "127.0.0.1", node_a_->daemon->port()}},
        options);
  }

  static std::string Sql(const char* fn) {
    return std::string("SELECT ") + fn + "(Metric) FROM siteA.load UNION " +
           "SELECT " + fn + "(Metric) FROM siteB.load";
  }

  // Value of the row from `source`; NaN when absent.
  static double ValueOf(const aqe::ResultSet& rs, const std::string& source) {
    for (const auto& row : rs.rows) {
      if (row.source == source && !row.values.empty()) return row.values[0];
    }
    return std::numeric_limits<double>::quiet_NaN();
  }

  void ExpectAllFresh(const Expected<aqe::ResultSet>& rs) {
    ASSERT_TRUE(rs.ok()) << rs.error().ToString();
    EXPECT_FALSE(rs->degraded);
    for (const NodeOutcome& outcome : engine_->LastOutcomes()) {
      EXPECT_TRUE(outcome.ok) << outcome.node << ": " << outcome.error;
      EXPECT_FALSE(outcome.from_cache) << outcome.node;
    }
  }

  std::unique_ptr<ScatterNode> node_a_;
  std::unique_ptr<ScatterNode> node_b_;
  std::uint16_t port_b_ = 0;
  std::unique_ptr<RemoteQueryEngine> engine_;
};

TEST_F(NetScatterStall, LateReplyNeverLeaksIntoTheNextQuery) {
  const std::string q1 = Sql("MAX");
  const std::string q2 = Sql("MIN");
  ExpectAllFresh(engine_->Execute(q1));  // warms the cache and connections

  // b's loop thread sleeps on the next query frame well past the round
  // deadline, then answers it: a genuinely late reply on the reused
  // connection.
  FaultInjector stall(0x51A11);
  FaultSpec delay;
  delay.site = FaultSite::kNetRecv;
  delay.topic = "query";
  delay.probability = 1.0;
  delay.delay_ns = 3 * kDeadline;
  delay.max_fires = 1;
  stall.Arm(delay);
  node_b_->daemon->server().AttachFaultInjector(&stall);

  const auto start = std::chrono::steady_clock::now();
  auto late = engine_->Execute(q1);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(late.ok()) << late.error().ToString();
  EXPECT_LT(elapsed, std::chrono::nanoseconds(kDeadline) +
                         std::chrono::milliseconds(100));
  EXPECT_TRUE(late->degraded);
  for (const auto& row : late->rows) {
    EXPECT_EQ(row.degraded, row.source == "siteB.load") << row.source;
  }
  EXPECT_EQ(ValueOf(*late, "siteA.load"), 13.0);
  EXPECT_EQ(ValueOf(*late, "siteB.load"), 23.0);  // cached MAX
  for (const NodeOutcome& outcome : engine_->LastOutcomes()) {
    EXPECT_EQ(outcome.ok, outcome.node == "a") << outcome.node;
    EXPECT_EQ(outcome.from_cache, outcome.node == "b") << outcome.node;
  }

  // A ping on a fresh connection is answered only after b's loop thread
  // has woken and written the late MAX reply to the engine's socket.
  node_b_->daemon->server().AttachFaultInjector(nullptr);
  ClientConfig probe_config;
  probe_config.port = port_b_;
  ApolloClient probe(probe_config);
  ASSERT_TRUE(probe.Ping().ok());
  EXPECT_EQ(stall.Fires(FaultSite::kNetRecv), 1u);

  const std::uint64_t opened_before = ConnectionsOpened();
  auto fresh = engine_->Execute(q2);
  EXPECT_EQ(ConnectionsOpened() - opened_before, 0u)
      << "the timed-out leg should have kept its connection";
  ExpectAllFresh(fresh);
  EXPECT_EQ(ValueOf(*fresh, "siteA.load"), 10.0);
  EXPECT_EQ(ValueOf(*fresh, "siteB.load"), 20.0) << "Q1's late reply leaked";
}

TEST_F(NetScatterStall, RestartedNodeIsReconnectedOnTheNextQuery) {
  const std::string sql = Sql("LAST");
  ExpectAllFresh(engine_->Execute(sql));

  node_b_.reset();  // stops b's daemon; its connection dies with it
  auto down = engine_->Execute(sql);
  ASSERT_TRUE(down.ok()) << down.error().ToString();
  EXPECT_TRUE(down->degraded);
  EXPECT_EQ(ValueOf(*down, "siteA.load"), 13.0);

  node_b_ = std::make_unique<ScatterNode>("stall-b", port_b_);
  node_b_->Seed("siteB.load", 5, 30.0);  // 30..34: a new answer
  ASSERT_TRUE(node_b_->daemon->Start().ok());
  const std::uint64_t opened_before = ConnectionsOpened();
  auto back = engine_->Execute(sql);
  ExpectAllFresh(back);
  EXPECT_EQ(ValueOf(*back, "siteA.load"), 13.0);
  EXPECT_EQ(ValueOf(*back, "siteB.load"), 34.0);
  EXPECT_GT(ConnectionsOpened(), opened_before) << "b was not reconnected";
}

}  // namespace
}  // namespace apollo::net
