#include "net/remote_query.h"

#include <utility>

#include "aqe/parser.h"
#include "aqe/query_builder.h"
#include "aqe/remote.h"
#include "cluster/placement.h"
#include "obs/trace.h"

namespace apollo::net {

RemoteQueryEngine::RemoteQueryEngine(std::vector<RemoteNode> nodes,
                                     RemoteQueryOptions options)
    : options_(options),
      node_timeouts_(obs::MetricsRegistry::Global().GetCounter(
          "apollo_net_node_timeouts_total",
          "Scatter-gather node queries past their deadline")),
      degraded_fallbacks_(obs::MetricsRegistry::Global().GetCounter(
          "apollo_net_degraded_fallbacks_total",
          "Node answers served from last-known-good cache")) {
  nodes_.reserve(nodes.size());
  for (RemoteNode& info : nodes) {
    ClientConfig config;
    config.host = info.host;
    config.port = info.port;
    config.client_name = "remote-query:" + info.name;
    // Query legs wait against their round deadline; the client's own
    // timeout only bounds the handshake and map fetches.
    config.request_timeout = options_.connect_timeout;
    config.connect_timeout = options_.connect_timeout;
    config.connect_retry = options_.connect_retry;
    Node node;
    node.info = std::move(info);
    node.client = std::make_unique<ApolloClient>(std::move(config));
    nodes_.push_back(std::move(node));
  }
}

void RemoteQueryEngine::AttachFaultInjector(FaultInjector* injector) {
  for (Node& node : nodes_) node.client->AttachFaultInjector(injector);
}

Expected<aqe::ResultSet> RemoteQueryEngine::Execute(const std::string& sql) {
  TRACE_SPAN("net.remote_query", sql);
  std::lock_guard<std::mutex> lock(mu_);
  SyncMap();
  auto route = PlanRoute(sql);
  if (!route.ok()) return route.error();
  return Gather(*route);
}

Status RemoteQueryEngine::ConnectNode(std::size_t i, TimeNs deadline) {
  Node& node = nodes_[i];
  if (node.client->connected()) return Status::Ok();
  Status status = node.client->Connect(deadline);
  if (status.ok()) {
    // A reconnect means the node restarted or the path flapped, so
    // membership may have moved without a push reaching us.
    if (node.ever_connected) map_stale_ = true;
    node.ever_connected = true;
  }
  return status;
}

void RemoteQueryEngine::SyncMap() {
  for (Node& node : nodes_) {
    node.client->PollInbound();
    auto pushed = node.client->TakeClusterMapPush();
    if (options_.cluster_mode && pushed.has_value() &&
        (!map_.has_value() || pushed->version >= map_->version)) {
      map_ = std::move(*pushed);
    }
  }
  if (!options_.cluster_mode || (map_.has_value() && !map_stale_)) return;
  // Fetch over a connection that is already up when there is one; a
  // failed fetch keeps the stale map (or none, which broadcasts).
  Clock& clock = RealClock::Instance();
  for (const bool up : {true, false}) {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      ApolloClient& client = *nodes_[i].client;
      if (client.connected() != up) continue;
      if (!ConnectNode(i, clock.Now() + options_.connect_timeout).ok()) {
        continue;
      }
      auto map = client.FetchClusterMap();
      if (!map.ok()) continue;
      map_ = std::move(*map);
      map_stale_ = false;
      return;
    }
  }
}

Expected<RemoteQueryEngine::Route> RemoteQueryEngine::PlanRoute(
    const std::string& sql) const {
  Route route;
  if (!options_.cluster_mode || !map_.has_value()) {
    // Broadcast: each node is its own slot and gets the whole query.
    route.partial = true;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      route.candidates[nodes_[i].info.name] = {i};
    }
    route.sub_query = [sql](const std::set<std::string>&) { return sql; };
    return route;
  }

  std::string_view bare = sql;
  bool analyze = false;
  const bool explain = aqe::Executor::StripExplainPrefix(sql, bare, analyze);
  auto parsed = aqe::Parse(std::string(bare));
  if (!parsed.ok()) return parsed.error();

  // Placement ring over the CONFIGURED member names (the same walk the
  // daemons use), restricted to live members for primary selection.
  std::vector<std::string> member_names;
  for (const cluster::Member& m : map_->members) member_names.push_back(m.name);
  const cluster::PlacementRing ring(member_names);
  // Distinct tables -> ordered candidate replicas we can actually dial.
  for (const aqe::Select& sel : parsed->selects) {
    if (route.candidates.count(sel.table)) continue;
    std::vector<std::size_t>& nodes = route.candidates[sel.table];
    for (const cluster::Member* m :
         cluster::AliveReplicasFor(ring, *map_, sel.table)) {
      for (std::size_t i = 0; i < nodes_.size(); ++i) {
        if (nodes_[i].info.name == m->name) nodes.push_back(i);
      }
    }
    if (nodes.empty()) {
      // No live replica known: try every configured node in order.
      for (std::size_t i = 0; i < nodes_.size(); ++i) nodes.push_back(i);
    }
  }
  const std::string prefix =
      !explain ? "" : analyze ? "EXPLAIN ANALYZE " : "EXPLAIN ";
  route.sub_query = [prefix, query = std::move(*parsed)](
                        const std::set<std::string>& tables) {
    return prefix + aqe::ToString(aqe::FilterQuery(
                        query, [&](const std::string& table) {
                          return tables.count(table) > 0;
                        }));
  };
  return route;
}

void RemoteQueryEngine::DispatchAndGather(std::vector<Leg>& legs,
                                          bool partial) {
  const TimeNs deadline = RealClock::Instance().Now() + options_.node_deadline;
  auto send = [&](Leg& leg) {
    auto pending = nodes_[leg.node].client->SendQuery(leg.sql, partial);
    if (pending.ok()) {
      leg.pending = *pending;
    } else {
      leg.reply = pending.error();
    }
  };
  // Connected nodes first, so a down node's connect attempts (bounded by
  // the same deadline) start only once every live request is on the wire.
  std::vector<Leg*> down;
  for (Leg& leg : legs) {
    if (nodes_[leg.node].client->connected()) {
      send(leg);
    } else {
      down.push_back(&leg);
    }
  }
  for (Leg* leg : down) {
    Status status = ConnectNode(leg->node, deadline);
    if (status.ok()) {
      send(*leg);
    } else {
      leg->reply = Error(status.code(), status.message());
    }
  }
  for (Leg& leg : legs) {
    if (leg.pending.has_value()) {
      leg.reply = nodes_[leg.node].client->AwaitQuery(*leg.pending, deadline);
    }
  }
}

Expected<aqe::ResultSet> RemoteQueryEngine::Gather(const Route& route) {
  Clock& clock = RealClock::Instance();
  aqe::ResultSet merged;
  std::vector<NodeOutcome> outcomes(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    outcomes[i].node = nodes_[i].info.name;
  }
  std::set<std::string> remaining;  // slots still unanswered
  for (const auto& [slot, nodes] : route.candidates) remaining.insert(slot);
  std::set<std::size_t> failed;
  bool any_fresh = false;
  std::optional<Error> first_error;

  // Two bounded rounds: the primary assignment, then one re-route of the
  // failed legs' slots to their next surviving candidate.
  for (int round = 0; round < 2 && !remaining.empty(); ++round) {
    std::map<std::size_t, std::set<std::string>> assignment;  // node->slots
    for (const std::string& slot : remaining) {
      for (const std::size_t node : route.candidates.at(slot)) {
        if (failed.count(node)) continue;
        assignment[node].insert(slot);
        break;
      }
    }
    if (assignment.empty()) break;
    std::vector<Leg> legs;
    for (auto& [node, slots] : assignment) {
      Leg leg;
      leg.node = node;
      leg.sql = route.sub_query(slots);
      leg.slots = std::move(slots);
      legs.push_back(std::move(leg));
    }
    DispatchAndGather(legs, route.partial);
    const TimeNs now = clock.Now();
    for (Leg& leg : legs) {
      NodeOutcome& outcome = outcomes[leg.node];
      if (!leg.reply.ok()) {
        outcome.error = leg.reply.error().ToString();
        if (!first_error.has_value()) first_error = leg.reply.error();
        failed.insert(leg.node);
        map_stale_ = true;
        node_timeouts_.Inc();
        continue;
      }
      Status status = aqe::MergeResult(merged, leg.reply->result);
      if (!status.ok()) return Error(status.code(), status.message());
      outcome.ok = true;
      // A partial leg reports the tables it served; a routed leg served
      // exactly its slots.
      if (route.partial) {
        outcome.served_tables = leg.reply->served_tables;
      } else {
        outcome.served_tables.insert(outcome.served_tables.end(),
                                     leg.slots.begin(), leg.slots.end());
      }
      any_fresh = true;
      for (const std::string& slot : leg.slots) remaining.erase(slot);
      cache_[{nodes_[leg.node].info.name, leg.sql}] =
          CachedResult{leg.reply->result, now};
    }
  }

  // Whatever is still unanswered goes to the last-known-good cache,
  // keyed by each slot's first candidate (the stable key in a calm
  // cluster).
  if (!remaining.empty()) {
    const TimeNs now = clock.Now();
    std::map<std::size_t, std::set<std::string>> primary;
    for (const std::string& slot : remaining) {
      const std::vector<std::size_t>& nodes = route.candidates.at(slot);
      if (!nodes.empty()) primary[nodes.front()].insert(slot);
    }
    bool all_cached = !primary.empty();
    for (const auto& [node, slots] : primary) {
      auto cached =
          cache_.find({nodes_[node].info.name, route.sub_query(slots)});
      if (cached == cache_.end()) {
        all_cached = false;
        continue;
      }
      // Last-known-good fallback: stale rows beat a failed query.
      aqe::ResultSet stale = cached->second.result;
      aqe::MarkDegraded(stale, now - cached->second.fetched_at);
      Status status = aqe::MergeResult(merged, stale);
      if (!status.ok()) return Error(status.code(), status.message());
      outcomes[node].from_cache = true;
      degraded_fallbacks_.Inc();
    }
    if (!all_cached) merged.degraded = true;
  }
  last_outcomes_ = std::move(outcomes);

  // Only when no leg answered and nothing was cached does the query
  // itself fail (e.g. a parse error rejected everywhere).
  if (!any_fresh && merged.rows.empty() && merged.columns.empty() &&
      (first_error.has_value() || route.candidates.empty())) {
    return first_error.value_or(
        Error(ErrorCode::kUnavailable, "no nodes configured"));
  }
  return merged;
}

std::vector<NodeOutcome> RemoteQueryEngine::LastOutcomes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_outcomes_;
}

std::optional<cluster::ClusterMap> RemoteQueryEngine::LastMap() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_;
}

}  // namespace apollo::net
