// The serving stack the benchmark drives, assembled the way apollod
// assembles it, all in this one process:
//  - a standalone durable node ("A"): ApolloService with WAL, cold tier,
//    compaction timer and the standard monitoring plan, plus its
//    ApolloDaemon (which owns the CQ engine and admission control);
//  - a two-node memory-only cluster ("B"): two ApolloServices whose daemons
//    replicate with RF=2 and write quorum 2.
// Topics: 256 node x metric ingest topics and 32 single-publish topics on
// A (durable, deployed as fact vertices so they get WALs and cold tiers),
// 64 replicated topics on B (created on first replicated write).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apollo/apollo_service.h"
#include "cluster/cluster.h"
#include "common/expected.h"
#include "net/cluster_controller.h"

namespace e2e {

using apollo::TimeNs;

constexpr std::size_t kIngTopics = 256;  // 32 nodes x 8 metrics
constexpr std::size_t kPubTopics = 32;
constexpr std::size_t kClTopics = 64;
// Ring window of A's durable topics: small, so ingest evicts to the WAL
// almost at once and range queries over more than a few seconds of live
// data, or any seeded history, reach the WAL and cold tiers.
constexpr std::size_t kWindow = 256;
// Value each durable topic's fact vertex publishes once, at Start().
constexpr double kVertexValue = -1.0;

std::string IngTopic(std::size_t i);
std::string PubTopic(std::size_t i);
std::string ClTopic(std::size_t i);

// A's options, as apollod sets them from --archive-dir DIR
// --compact-interval 1 --wal-segment-bytes 65536: 64 KiB WAL segments and
// compaction every second, so segments seal, rotate (each rotation fsyncs)
// and compact several times per run; appends are not fsynced otherwise
// (apollod's default policy).
apollo::ApolloOptions DurableOptions(const std::string& dir);

// Wall time of each setup phase, seconds.
struct SetupTimes {
  double deploy_s = 0;
  double recover_s = 0;
  double start_s = 0;
  double start_daemon_s = 0;
  double cluster_s = 0;
  apollo::ApolloService::RecoveryReport recovery;
};

class Standalone {
 public:
  // Construct -> deploy plan and topics -> Recover() -> Start() -> daemon
  // accepting -> every topic vertex has published its one start sample.
  // `after_recover`, when set, runs between Recover() and Start().
  static apollo::Expected<std::unique_ptr<Standalone>> Open(
      const std::string& dir, SetupTimes& times,
      const std::function<apollo::Status(apollo::ApolloService&)>&
          after_recover = nullptr);
  ~Standalone();

  apollo::ApolloService& svc() { return *svc_; }
  std::uint16_t port() const { return port_; }
  const std::string& dir() const { return dir_; }

 private:
  Standalone() = default;
  std::string dir_;
  std::uint16_t port_ = 0;
  // The simulated devices the monitoring plan polls; must outlive svc_.
  std::unique_ptr<apollo::Cluster> sim_;
  std::unique_ptr<apollo::ApolloService> svc_;
};

class ClusterPair {
 public:
  static constexpr std::size_t kNodes = 2;
  // Both daemons started and every member alive in node 0's map.
  static apollo::Expected<std::unique_ptr<ClusterPair>> Open(
      SetupTimes& times);
  ~ClusterPair();

  const std::vector<apollo::net::ClusterPeer>& peers() const {
    return peers_;
  }
  apollo::ApolloService& node(std::size_t i) { return *nodes_[i]; }

 private:
  ClusterPair() = default;
  std::vector<apollo::net::ClusterPeer> peers_;
  std::vector<std::unique_ptr<apollo::ApolloService>> nodes_;
};

// Writes query_mix's history into `dir` without timing it: per ingest
// topic, `cold_rows` samples compacted into cold blocks, then `wal_rows`
// more that stay in sealed and active WAL segments. The last kWindow of
// them are in the ring when the seeding service shuts down and are not
// durable, so a later Recover() sees cold_rows + wal_rows - kWindow.
// Sample i of a topic has timestamp HistoryTs(i) and value
// HistoryValue(seed, i).
apollo::Status SeedHistory(const std::string& dir, std::uint64_t seed,
                           std::size_t cold_rows, std::size_t wal_rows);
inline TimeNs HistoryTs(std::size_t i) {
  return 1'000 + static_cast<TimeNs>(i) * 1'000;
}
inline double HistoryValue(std::uint64_t seed, std::size_t i) {
  return static_cast<double>(seed % 1000) + static_cast<double>(i);
}

// Bytes of every regular file under `dir`.
std::uint64_t DirBytes(const std::string& dir);

}  // namespace e2e
