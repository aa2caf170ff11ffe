// RemoteQueryEngine: scatter-gather AQE queries across N apollod daemons.
//
// The engine holds one persistent ApolloClient per node (lazy connect,
// reconnect after a failure, nothing to replay: queries carry no session
// state). Execute() runs each scatter round on the calling thread: every
// leg's kQuery goes on the wire first, connected nodes before any connect
// to a down one, and the replies are then gathered against one absolute
// round deadline (node_deadline from the start of the round). Replies are
// matched by request id, so a late answer to a timed-out leg is dropped,
// never read as a later query's reply. Partial ResultSets merge with
// aqe::MergeResult.
//
// Broadcast mode (default) sends every node the whole query with
// kFlagPartial; each daemon executes only the UNION branches it serves.
// Cluster mode (options.cluster_mode) cannot broadcast, since every replica
// serves a topic and rows would double-count: each table's branches go,
// unflagged, to its current primary per a cached ClusterMap, and a failed
// leg's tables are re-routed once to the next live replica (two bounded
// rounds). The map follows the kClusterMap pushes daemons send on every
// version change; it is fetched over a persistent connection only when
// there is none yet, after a leg failed, or after a node reconnected.
//
// Degraded answers instead of failed queries: a leg that misses its
// deadline contributes its last-known-good rows from a per-(node,
// sub-query) cache, marked degraded=true with staleness = age of the
// cached answer. A leg with no cached answer contributes nothing and the
// merged set is flagged degraded, but the query still returns.
//
// Thread contract: Execute() runs under the engine's mutex (the per-node
// clients are single-threaded), so threads sharing an engine take turns.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "aqe/executor.h"
#include "cluster/membership.h"
#include "common/clock.h"
#include "common/expected.h"
#include "common/fault.h"
#include "net/client.h"
#include "obs/metrics.h"

namespace apollo::net {

struct RemoteNode {
  std::string name;  // label reported in outcomes
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct RemoteQueryOptions {
  // Per-round budget for connect + query; a leg past it falls back to the
  // last-known-good cache.
  TimeNs node_deadline = 2 * kNsPerSec;
  // One TCP connect attempt; also bounds the handshake and a map fetch.
  TimeNs connect_timeout = 500 * kNsPerMs;
  RetryPolicy connect_retry;
  // Replica-aware routing (see the header comment). Node names must
  // match the cluster's configured member names.
  bool cluster_mode = false;
};

// Per-node account of the last Execute() (tests and EXPLAIN-style
// introspection).
struct NodeOutcome {
  std::string node;
  bool ok = false;          // fresh answer merged
  bool from_cache = false;  // degraded last-known-good answer merged
  std::vector<std::string> served_tables;
  std::string error;  // failure detail when !ok
};

class RemoteQueryEngine {
 public:
  explicit RemoteQueryEngine(std::vector<RemoteNode> nodes,
                             RemoteQueryOptions options = {});

  // Scatter-gathers `sql` (plain or EXPLAIN [ANALYZE]) across the nodes.
  // Fails only when the query itself is bad (every node rejects it) —
  // unreachable nodes degrade the answer instead.
  Expected<aqe::ResultSet> Execute(const std::string& sql);

  // Outcomes of the most recent Execute(), one per node in node order.
  std::vector<NodeOutcome> LastOutcomes() const;

  std::size_t NodeCount() const { return nodes_.size(); }

  // Injector attached to every per-node client (kNetSend/kNetRecv/
  // kConnDrop on the client side).
  void AttachFaultInjector(FaultInjector* injector);

  // Cluster map in use (cluster mode; nullopt before the first fetch).
  std::optional<cluster::ClusterMap> LastMap() const;

 private:
  struct Node {
    RemoteNode info;
    std::unique_ptr<ApolloClient> client;
    bool ever_connected = false;
  };
  struct CachedResult {
    aqe::ResultSet result;
    TimeNs fetched_at = 0;
  };
  // Where a query's parts go. A slot is the unit of routing (a table in
  // cluster mode, one node's share in broadcast mode) with its candidate
  // nodes in preference order; the first candidate keys the cache.
  struct Route {
    bool partial = false;
    std::map<std::string, std::vector<std::size_t>> candidates;
    std::function<std::string(const std::set<std::string>&)> sub_query;
  };
  // One scatter leg: a node and the slots it answers in this round.
  struct Leg {
    std::size_t node = 0;
    std::string sql;
    std::set<std::string> slots;
    std::optional<ApolloClient::PendingReply> pending;
    Expected<ResultMsg> reply{Error(ErrorCode::kUnavailable, "not sent")};
  };

  // Reads what the connections already hold (map pushes, peer closes)
  // and, in cluster mode, brings map_ up to date.
  void SyncMap();
  // Connects node `i`'s client within `deadline`, noting reconnects.
  Status ConnectNode(std::size_t i, TimeNs deadline);
  Expected<Route> PlanRoute(const std::string& sql) const;
  // Sends every leg, then gathers them against one round deadline.
  void DispatchAndGather(std::vector<Leg>& legs, bool partial);
  // Runs the rounds for `route` and merges fresh and cached answers.
  Expected<aqe::ResultSet> Gather(const Route& route);

  std::vector<Node> nodes_;
  RemoteQueryOptions options_;
  obs::Counter node_timeouts_;
  obs::Counter degraded_fallbacks_;

  mutable std::mutex mu_;  // serializes Execute; guards everything below
  // Last-known-good answers keyed by (node name, query text).
  std::map<std::pair<std::string, std::string>, CachedResult> cache_;
  std::vector<NodeOutcome> last_outcomes_;
  std::optional<cluster::ClusterMap> map_;  // cluster mode only
  bool map_stale_ = false;  // a leg failed or a node reconnected
};

}  // namespace apollo::net
