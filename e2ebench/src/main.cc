// e2ebench: end-to-end benchmark of the Apollo serving stack.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//            --workdir DIR --outdir DIR
//
// Builds the stack of topology.h in this process, drives it through the
// public client APIs (ApolloClient, ClusterClient, RemoteQueryEngine) with
// one seeded generator for S seconds, checks every answer it can against
// the generator's own record of acked samples, and prints one JSON line:
// the end-to-end metrics (--trace 0) or the per-layer metrics of a traced
// run (--trace 1). README.md maps metrics to layers and workloads.
//
// Each workload drives only the paths it names (see Spec). The gated
// metrics are the same in every workload: set-up time, peak RSS and the
// p10 latency of the workload's main and second path; every path it
// drives is also recorded under its own name.
#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench.h"
#include "hostref.h"
#include "cluster/placement.h"
#include "common/proc_stats.h"
#include "net/client.h"
#include "net/cluster_client.h"
#include "net/remote_query.h"
#include "topology.h"

namespace e2e {
namespace {

using apollo::Expected;
using apollo::RealClock;
using apollo::Status;
using apollo::net::ApolloClient;
using apollo::net::ClientConfig;
using apollo::net::PublishBatchMsg;

constexpr int kSetups = 5;              // setup_s is the median of these
constexpr std::size_t kRatioWindows = 10;  // of the gated latency ratios
constexpr std::size_t kClWindow = 4096;  // ring of topics replication creates
constexpr std::size_t kClSeedRows = 64;  // per topic, before timing
constexpr std::size_t kHistoryColdRows = 3000;
constexpr std::size_t kHistoryWalRows = 1500;
constexpr std::size_t kHistoryDurable =
    kHistoryColdRows + kHistoryWalRows - kWindow;

// The served paths a workload can drive.
enum class Path { kBatch, kPublish, kPoint, kRange, kCqLag, kScatter };

// One workload: the rate of each request stream (requests per second,
// open loop, Poisson; 0 = not driven) and which two paths its gated main
// and second latencies report.
struct Spec {
  const char* name;
  Path main_path;
  Path second_path;
  bool batch_to_cluster = false;  // batches go through ClusterClient
  double batch_rate = 0;
  std::size_t batch_samples = 256;
  double publish_rate = 0;
  double point_rate = 0;
  double range_rate = 0;
  double scatter_rate = 0;
  std::size_t cqs_per_topic = 0;
  std::size_t cq_clients = 0;
  bool history = false;  // seeded history + restart with recovery
};

const Spec kSpecs[] = {
    // Write path: 256-sample batches over 256 durable topics plus acked
    // single publishes.
    {.name = "ingest_durable", .main_path = Path::kBatch,
     .second_path = Path::kPublish, .batch_rate = 150, .publish_rate = 300},
    // Read path beside live writes: point and range queries over
    // recovered history, and a low-rate batch producer.
    {.name = "query_mix", .main_path = Path::kPoint,
     .second_path = Path::kRange, .batch_rate = 100, .batch_samples = 64,
     .point_rate = 200, .range_rate = 60, .history = true},
    // Push path: single publishes over 32 topics watched by 512 CQs on two
    // subscriber connections.
    {.name = "cq_push", .main_path = Path::kCqLag,
     .second_path = Path::kPublish, .publish_rate = 300, .cqs_per_topic = 16,
     .cq_clients = 2},
    // Replicated path: single-topic 256-sample batches through
    // ClusterClient, scatter-gather UNION queries.
    {.name = "cluster_rf2", .main_path = Path::kScatter,
     .second_path = Path::kBatch, .batch_to_cluster = true, .batch_rate = 150,
     .scatter_rate = 80},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string workdir;
  std::string outdir;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      args.trace = std::atoi(value.c_str());
    } else if (key == "--workdir") {
      args.workdir = value;
    } else if (key == "--outdir") {
      args.outdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0 &&
         (args.trace == 0 || args.trace == 1) && !args.workdir.empty() &&
         !args.outdir.empty();
}

// Zipf(s) over [0, n): a few hot topics, a long tail.
class Zipf {
 public:
  Zipf(std::size_t n, double s) {
    double sum = 0;
    for (std::size_t i = 1; i <= n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i), s);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t operator()(std::mt19937_64& rng) {
    const double u = std::uniform_real_distribution<double>(0, 1)(rng);
    return static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

// Acked samples per topic: the reference every correctness check compares
// against. Each record is written by one thread only.
struct TopicRecord {
  std::vector<std::uint64_t> acked;
  std::vector<double> last;
  TopicRecord(std::size_t n, double initial) : acked(n, 0), last(n, initial) {}
  std::uint64_t Total() const {
    std::uint64_t sum = 0;
    for (std::uint64_t a : acked) sum += a;
    return sum;
  }
};

// Latency logs of one generator thread; `_t` logs take requests issued
// while tracing is on (traced runs only).
struct ThreadLogs {
  LatencyLog batch, publish, point, range, scatter, cq_lag;
  LatencyLog batch_t, publish_t, point_t, range_t, scatter_t, cq_lag_t;
  LatencyLog late, push_gap;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

struct CheckLog {
  std::vector<std::string> failures;
  std::uint64_t checks = 0;
  std::mutex mu;
  void Expect(bool ok, const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    ++checks;
    if (!ok && failures.size() < 50) failures.push_back(what);
    if (!ok && failures.size() == 50) failures.push_back("...");
  }
};

ClientConfig ClientTo(std::uint16_t port, const std::string& name) {
  ClientConfig config;
  config.port = port;
  config.client_name = name;
  return config;
}

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

struct CQReg {
  std::uint64_t cq_id = 0;
  std::size_t client = 0;
  std::size_t topic = 0;
  std::string sql;  // without SUBSCRIBE
  std::uint64_t epoch = 0, seq = 0, updates = 0, holes = 0;
  Ns last_recv = 0;
  apollo::aqe::ResultSet last;
};

// Everything one setup builds: the stack, the generator's connections and
// its continuous queries. Members are destroyed in reverse: clients first,
// then the cluster, then node A.
struct Harness {
  std::unique_ptr<Standalone> a;
  std::unique_ptr<ClusterPair> b;
  SetupTimes times;
  std::unique_ptr<ApolloClient> batch_client, publish_client, query_client,
      range_client, verify_client, probe_client;
  std::vector<std::unique_ptr<ApolloClient>> cq_clients;
  std::unique_ptr<apollo::net::ClusterClient> cluster_client;
  std::unique_ptr<apollo::net::RemoteQueryEngine> scatter;
  std::vector<CQReg> cqs;
  std::map<std::uint64_t, std::size_t> cq_index;
  std::vector<std::size_t> cl_by_primary[ClusterPair::kNodes];
};

// Checks query_mix's recovered history before Start(): LAST and exact
// range COUNTs over cold, sealed-WAL and ring rows.
Status CheckRecoveredHistory(apollo::ApolloService& svc, std::uint64_t seed,
                             CheckLog& checks) {
  for (std::size_t t = 0; t < kIngTopics; t += 8) {
    const std::string topic = IngTopic(t);
    auto last = svc.Query("SELECT LAST(Metric) FROM " + topic);
    checks.Expect(last.ok() && !last->rows.empty() &&
                      last->rows[0].values[0] ==
                          HistoryValue(seed, kHistoryDurable - 1),
                  "LAST after Recover: " + topic);
    const std::pair<std::size_t, std::size_t> windows[] = {
        {0, kHistoryDurable - 1},
        {kHistoryColdRows - 200, kHistoryColdRows + 200},
        {kHistoryDurable - 300, kHistoryDurable - 1}};
    for (auto [lo, hi] : windows) {
      auto count = svc.Query(
          "SELECT COUNT(*) FROM " + topic + " WHERE Timestamp BETWEEN " +
          std::to_string(HistoryTs(lo)) + " AND " +
          std::to_string(HistoryTs(hi)));
      checks.Expect(count.ok() && !count->rows.empty() &&
                        count->rows[0].values[0] ==
                            static_cast<double>(hi - lo + 1),
                    "range COUNT after Recover: " + topic);
    }
  }
  return Status::Ok();
}


// The generator's shared state for one measured run.
struct RunState {
  RunState(const Spec& s, const Args& a, Harness& harness, CheckLog& c)
      : spec(s), args(a), h(harness), checks(c) {}
  const Spec& spec;
  const Args& args;
  Harness& h;
  CheckLog& checks;
  TopicRecord ing{kIngTopics, kVertexValue};
  TopicRecord pub{kPubTopics, kVertexValue};
  TopicRecord cl{kClTopics, 0.0};
  std::vector<std::string> ing_names, pub_names, cl_names;
  std::vector<double> ing_cdf;  // batch topic weights, cumulative
  std::uint64_t history_rows = 0;  // durable seeded rows per ingest topic
  Ns run_start = 0, run_end = 0;
  std::atomic<bool> stop{false};
  SpanLog spans;
  std::uint32_t sp_batch = 0, sp_publish = 0, sp_point = 0, sp_range = 0,
                sp_scatter = 0, sp_client = 0, sp_cluster_client = 0,
                sp_engine = 0;
};

// Per-thread generator context.
struct Ctx {
  explicit Ctx(std::uint64_t seed) : rng(seed) {}
  std::mt19937_64 rng;
  ThreadLogs logs;
  LayerInputs inputs;
  std::vector<Span>* sink = nullptr;
  std::size_t cursor = 0;
};

constexpr std::size_t kKeepInputs = 2000;

double RoundValue(std::mt19937_64& rng) {
  return std::round(std::uniform_real_distribution<double>(0, 1e5)(rng)) /
         100.0;
}

// 256-sample batches as runs of 8 samples (fewer runs for smaller
// batches). Each run's topic is drawn by a fixed per-topic weight from 1
// to 13, so topics fill their WAL segments at different rates and seal,
// rotate and compact out of step, as real node x metric streams do.
PublishBatchMsg NextIngestBatch(RunState& rs, Ctx& ctx, std::size_t samples,
                                std::vector<std::size_t>& topics) {
  constexpr std::size_t kRun = 8;
  PublishBatchMsg msg;
  topics.clear();
  const TimeNs base = RealClock::Instance().Now();
  for (std::size_t r = 0; r < samples / kRun; ++r) {
    const double u = std::uniform_real_distribution<double>(0, 1)(ctx.rng);
    const std::size_t t = static_cast<std::size_t>(
        std::lower_bound(rs.ing_cdf.begin(), rs.ing_cdf.end(), u) -
        rs.ing_cdf.begin());
    PublishBatchMsg::Run run;
    run.topic = rs.ing_names[t];
    for (std::size_t k = 0; k < kRun; ++k) {
      apollo::TelemetryStream::Entry e;
      // Distinct per run: a topic drawn twice in one batch stays ordered.
      e.timestamp = base + static_cast<TimeNs>(r * kRun + k);
      e.value.timestamp = e.timestamp;
      e.value.value = RoundValue(ctx.rng);
      run.entries.push_back(e);
    }
    topics.push_back(t);
    msg.runs.push_back(std::move(run));
  }
  return msg;
}

// Folds an ack into the record; true when every sample was accepted.
bool RecordAck(const PublishBatchMsg& msg,
               const apollo::net::PublishBatchAckMsg& ack,
               const std::vector<std::size_t>& topics, TopicRecord& rec) {
  std::uint32_t i = 0;
  for (std::size_t r = 0; r < msg.runs.size(); ++r) {
    for (const auto& e : msg.runs[r].entries) {
      if (ack.count == 0 || !ack.Failed(i)) {
        ++rec.acked[topics[r]];
        rec.last[topics[r]] = e.value.value;
      }
      ++i;
    }
  }
  return ack.error_count == 0 && ack.count == i;
}

bool IngestBatchOp(RunState& rs, Ctx& ctx, ApolloClient& client,
                   std::size_t samples) {
  std::vector<std::size_t> topics;
  PublishBatchMsg msg = NextIngestBatch(rs, ctx, samples, topics);
  if (ctx.inputs.batches.size() < 64) ctx.inputs.batches.push_back(msg);
  ScopedSpan root(rs.spans, ctx.sink, rs.sp_batch);
  ScopedSpan call(rs.spans, ctx.sink, rs.sp_client, root.id(),
                  root.request());
  auto ack = client.PublishBatch(msg);
  return ack.ok() && RecordAck(msg, *ack, topics, rs.ing);
}

// One single-topic 256-sample batch through ClusterClient.
bool ClusterBatchOp(RunState& rs, Ctx& ctx) {
  const std::size_t t = ctx.cursor++ % kClTopics;
  PublishBatchMsg msg;
  PublishBatchMsg::Run run;
  run.topic = rs.cl_names[t];
  const TimeNs base = RealClock::Instance().Now();
  for (std::size_t k = 0; k < 256; ++k) {
    apollo::TelemetryStream::Entry e;
    e.timestamp = base + static_cast<TimeNs>(k);
    e.value.timestamp = e.timestamp;
    e.value.value = RoundValue(ctx.rng);
    run.entries.push_back(e);
  }
  msg.runs.push_back(std::move(run));
  if (ctx.inputs.cl_batches.size() < 64) ctx.inputs.cl_batches.push_back(msg);
  ScopedSpan root(rs.spans, ctx.sink, rs.sp_batch);
  ScopedSpan call(rs.spans, ctx.sink, rs.sp_cluster_client, root.id(),
                  root.request());
  auto ack = rs.h.cluster_client->PublishBatch(msg);
  return ack.ok() && RecordAck(msg, *ack, {t}, rs.cl);
}

// Single-sample acked publish; the value is the sample's creation time in
// microseconds since the run started, which the CQ sweeper turns into lag.
bool PublishOp(RunState& rs, Ctx& ctx, ApolloClient& client) {
  const std::size_t t = ctx.cursor++ % kPubTopics;
  apollo::Sample sample;
  sample.timestamp = RealClock::Instance().Now();
  sample.value = static_cast<double>(NowNs() - rs.run_start) / 1e3;
  ScopedSpan root(rs.spans, ctx.sink, rs.sp_publish);
  ScopedSpan call(rs.spans, ctx.sink, rs.sp_client, root.id(),
                  root.request());
  auto id = client.Publish(rs.pub_names[t], sample.timestamp, sample);
  if (!id.ok()) return false;
  ++rs.pub.acked[t];
  rs.pub.last[t] = sample.value;
  return true;
}

bool QueryOk(const Expected<apollo::net::ResultMsg>& reply) {
  return reply.ok() && !reply->result.degraded && !reply->result.rows.empty();
}

// Index-answerable point queries on Zipf-skewed ingest topics; 5% are
// 8-topic UNION insights.
bool PointOp(RunState& rs, Ctx& ctx, ApolloClient& client, Zipf& zipf) {
  const std::size_t t = zipf(ctx.rng);
  std::string sql;
  const auto pick = ctx.rng() % 100;
  if (pick < 5) {
    for (std::size_t k = 0; k < 8; ++k) {
      if (k > 0) sql += " UNION ";
      sql += "SELECT LAST(Metric) FROM " + rs.ing_names[(t + 32 * k) % kIngTopics];
    }
    if (ctx.inputs.union_sql.size() < kKeepInputs) ctx.inputs.union_sql.push_back(sql);
  } else {
    sql = (pick % 2 == 0 ? "SELECT LAST(Metric) FROM "
                         : "SELECT COUNT(Metric), AVG(Metric), MAX(Metric) FROM ") +
          rs.ing_names[t];
    if (ctx.inputs.point_sql.size() < kKeepInputs) ctx.inputs.point_sql.push_back(sql);
  }
  ScopedSpan root(rs.spans, ctx.sink, rs.sp_point);
  ScopedSpan call(rs.spans, ctx.sink, rs.sp_client, root.id(), root.request());
  return QueryOk(client.Query(sql));
}

// Timestamp-range COUNTs. Half cover the last 50 ms (ring); half reach
// past the ring into the seeded history, and their answers are checked
// exactly.
bool RangeOp(RunState& rs, Ctx& ctx, ApolloClient& client) {
  const std::size_t t = ctx.rng() % kIngTopics;
  const TimeNs now = RealClock::Instance().Now();
  TimeNs lo = now - 50'000'000, hi = now;
  std::int64_t expected = -1;
  if (ctx.rng() % 2 == 0 && rs.history_rows > 600) {
    const std::size_t a = ctx.rng() % (rs.history_rows - 600);
    const std::size_t b = a + 100 + ctx.rng() % 400;
    lo = HistoryTs(a);
    hi = HistoryTs(b);
    expected = static_cast<std::int64_t>(b - a + 1);
  }
  const std::string sql = "SELECT COUNT(*), AVG(Metric) FROM " + rs.ing_names[t] +
                          " WHERE Timestamp BETWEEN " + std::to_string(lo) +
                          " AND " + std::to_string(hi);
  if (ctx.inputs.range_sql.size() < kKeepInputs) {
    ctx.inputs.range_sql.push_back(sql);
    ctx.inputs.ranges.push_back({lo, hi});
    ctx.inputs.range_topics.push_back(t);
  }
  ScopedSpan root(rs.spans, ctx.sink, rs.sp_range);
  ScopedSpan call(rs.spans, ctx.sink, rs.sp_client, root.id(), root.request());
  auto reply = client.Query(sql);
  if (!QueryOk(reply)) return false;
  if (expected >= 0) {
    rs.checks.Expect(reply->result.rows[0].values[0] ==
                         static_cast<double>(expected),
                     "history range COUNT on " + rs.ing_names[t]);
  }
  return true;
}

// 8-topic UNION across the replicated topics, 4 per primary, through the
// cluster-mode scatter-gather engine. The cluster writer is live, so the
// answers are checked once it stops (FinalChecks).
bool ScatterOp(RunState& rs, Ctx& ctx) {
  std::vector<std::size_t> topics;
  for (const auto& group : rs.h.cl_by_primary) {
    std::vector<std::size_t> pool = group;
    std::shuffle(pool.begin(), pool.end(), ctx.rng);
    for (std::size_t k = 0; k < 4 && k < pool.size(); ++k) topics.push_back(pool[k]);
  }
  std::string sql;
  for (std::size_t k = 0; k < topics.size(); ++k) {
    if (k > 0) sql += " UNION ";
    sql += "SELECT COUNT(Metric), LAST(Metric) FROM " + rs.cl_names[topics[k]];
  }
  if (ctx.inputs.scatter_sql.size() < 256) ctx.inputs.scatter_sql.push_back(sql);
  ScopedSpan root(rs.spans, ctx.sink, rs.sp_scatter);
  ScopedSpan call(rs.spans, ctx.sink, rs.sp_engine, root.id(), root.request());
  auto rs_or = rs.h.scatter->Execute(sql);
  return rs_or.ok() && !rs_or->degraded && rs_or->rows.size() == topics.size();
}

Status AsStatus(const apollo::Error& e) { return Status(e.code(), e.message()); }

// Drains the CQ pushes waiting on subscriber connection `c` (waiting up
// to 1 ms for one): checks each CQ's (epoch, seq) for holes and, while
// `measure` is on, logs the lag from the newest sample's creation to its
// arrival. Each connection has its own sweeping thread, so the wait never
// delays another connection's pushes. Returns the updates taken.
std::size_t SweepCQs(RunState& rs, Ctx& ctx, std::size_t c, bool measure) {
  ApolloClient& client = *rs.h.cq_clients[c];
  if (!client.WaitForCQUpdates(apollo::Millis(1))) return 0;
  const Ns now = NowNs();
  std::size_t taken = 0;
  for (auto& update : client.TakeCQUpdates()) {
    ++taken;
    auto it = rs.h.cq_index.find(update.cq_id);
    if (it == rs.h.cq_index.end()) continue;
    CQReg& reg = rs.h.cqs[it->second];
    if (reg.updates > 0 &&
        (update.epoch != reg.epoch || update.seq != reg.seq + 1)) {
      ++reg.holes;
    }
    if (reg.updates == 0 && update.seq != 1) ++reg.holes;
    if (measure && reg.last_recv != 0) {
      ctx.logs.push_gap.Ok(static_cast<double>(now - reg.last_recv) / 1e3);
    }
    reg.epoch = update.epoch;
    reg.seq = update.seq;
    reg.last_recv = now;
    ++reg.updates;
    if (measure && !update.result.rows.empty() &&
        !update.result.rows[0].values.empty()) {
      const double created_us = update.result.rows[0].values[0];
      if (created_us > 0) {
        const double lag =
            static_cast<double>(now - rs.run_start) / 1e3 - created_us;
        (rs.spans.enabled.load(std::memory_order_relaxed) ? ctx.logs.cq_lag_t
                                                          : ctx.logs.cq_lag)
            .Ok(lag);
      }
    }
    if (ctx.inputs.cq_updates.size() < 64) ctx.inputs.cq_updates.push_back(update);
    reg.last = std::move(update.result);
  }
  return taken;
}

Expected<std::unique_ptr<Harness>> BuildHarness(const Spec& spec,
                                                const std::string& dir,
                                                bool keep, std::uint64_t seed,
                                                CheckLog& checks,
                                                double& excluded_s) {
  auto h = std::make_unique<Harness>();
  std::function<Status(apollo::ApolloService&)> after_recover;
  if (keep && spec.history) {
    after_recover = [&](apollo::ApolloService& svc) {
      const Ns t0 = NowNs();
      Status s = CheckRecoveredHistory(svc, seed, checks);
      excluded_s += static_cast<double>(NowNs() - t0) / 1e9;
      return s;
    };
  }
  auto a = Standalone::Open(dir, h->times, after_recover);
  if (!a.ok()) return a.error();
  h->a = std::move(*a);
  auto b = ClusterPair::Open(h->times);
  if (!b.ok()) return b.error();
  h->b = std::move(*b);

  const std::uint16_t port = h->a->port();
  auto make = [port](const std::string& name) {
    return std::make_unique<ApolloClient>(ClientTo(port, name));
  };
  h->batch_client = make("batch");
  h->publish_client = make("publish");
  h->query_client = make("query");
  h->range_client = make("range");
  h->verify_client = make("verify");
  h->probe_client = make("probe");
  for (std::size_t i = 0; i < spec.cq_clients; ++i) {
    h->cq_clients.push_back(make("subscriber" + std::to_string(i)));
  }
  std::vector<ApolloClient*> all = {h->batch_client.get(),
                                    h->publish_client.get(),
                                    h->query_client.get(),
                                    h->range_client.get(),
                                    h->verify_client.get(),
                                    h->probe_client.get()};
  for (auto& c : h->cq_clients) all.push_back(c.get());
  for (ApolloClient* c : all) {
    Status s = c->Connect();
    if (!s.ok()) return apollo::Error(s.code(), s.message());
  }

  h->cluster_client =
      std::make_unique<apollo::net::ClusterClient>(h->b->peers());
  Status refreshed = h->cluster_client->RefreshMap();
  if (!refreshed.ok()) return apollo::Error(refreshed.code(), refreshed.message());
  std::vector<apollo::net::RemoteNode> remote;
  std::vector<std::string> names;
  for (const auto& p : h->b->peers()) {
    remote.push_back({p.name, p.host, p.port});
    names.push_back(p.name);
  }
  apollo::net::RemoteQueryOptions ropts;
  ropts.cluster_mode = true;
  h->scatter = std::make_unique<apollo::net::RemoteQueryEngine>(remote, ropts);
  apollo::cluster::PlacementRing ring(names, 64);
  for (std::size_t t = 0; t < kClTopics; ++t) {
    const std::string primary = ring.ReplicasFor(ClTopic(t), 2).front();
    for (std::size_t n = 0; n < names.size(); ++n) {
      if (names[n] == primary) h->cl_by_primary[n].push_back(t);
    }
  }

  // Continuous queries: cqs_per_topic on every single-publish topic,
  // spread over the subscriber connections; wait for every snapshot.
  for (std::size_t k = 0; k < kPubTopics * spec.cqs_per_topic; ++k) {
    CQReg reg;
    reg.topic = k % kPubTopics;
    reg.client = k % spec.cq_clients;
    reg.sql = "SELECT MAX(Metric) FROM " + PubTopic(reg.topic);
    auto ack = h->cq_clients[reg.client]->CQRegister("cq" + std::to_string(k),
                                                     "SUBSCRIBE " + reg.sql);
    if (!ack.ok()) return ack.error();
    reg.cq_id = ack->cq_id;
    h->cq_index[reg.cq_id] = h->cqs.size();
    h->cqs.push_back(std::move(reg));
  }
  return h;
}

// Seeds every replicated topic with kClSeedRows samples before timing.
Status SeedCluster(RunState& rs, Ctx& ctx) {
  for (std::size_t t = 0; t < kClTopics; ++t) {
    PublishBatchMsg msg;
    PublishBatchMsg::Run run;
    run.topic = rs.cl_names[t];
    const TimeNs base = RealClock::Instance().Now();
    for (std::size_t k = 0; k < kClSeedRows; ++k) {
      apollo::TelemetryStream::Entry e;
      e.timestamp = base + static_cast<TimeNs>(k);
      e.value.timestamp = e.timestamp;
      e.value.value = RoundValue(ctx.rng);
      run.entries.push_back(e);
    }
    msg.runs.push_back(std::move(run));
    auto ack = rs.h.cluster_client->PublishBatch(msg);
    if (!ack.ok()) return AsStatus(ack.error());
    if (!RecordAck(msg, *ack, {t}, rs.cl)) {
      return Status(apollo::ErrorCode::kInternal, "cluster seed rejected");
    }
  }
  return Status::Ok();
}

// Waits for every CQ's registration snapshot (seq 1).
Status AwaitSnapshots(RunState& rs, Ctx& ctx) {
  const Ns deadline = NowNs() + 20'000'000'000;
  while (NowNs() < deadline) {
    for (std::size_t c = 0; c < rs.h.cq_clients.size(); ++c) {
      SweepCQs(rs, ctx, c, false);
    }
    bool all = true;
    for (const CQReg& reg : rs.h.cqs) all = all && reg.updates > 0;
    if (all) return Status::Ok();
  }
  return Status(apollo::ErrorCode::kUnavailable, "CQ snapshots missing");
}

std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::size_t samples = 0;
};

// Final correctness checks, with every producer stopped: exact COUNT and
// LAST of every durable topic after a last compaction (counted in `logs`
// as one more operation), CQ sequence
// integrity and push == one-shot answers, replica equality and scatter
// COUNT == acked on the cluster. Returns the archive bytes it measured.
std::uint64_t FinalChecks(RunState& rs, ThreadLogs& logs) {
  apollo::ApolloService& svc = rs.h.a->svc();
  // A compaction that fails is a failed operation, not a wrong answer:
  // the rows stay in the WAL and the COUNT checks below still hold.
  auto compacted = svc.CompactNow();
  ++logs.attempted;
  if (!compacted.ok()) {
    ++logs.failed;
    std::fprintf(stderr, "  final CompactNow failed: %s\n",
                 compacted.error().ToString().c_str());
  }
  auto check_topic = [&](const std::string& topic, std::uint64_t expected,
                         double last) {
    auto count = svc.Query("SELECT COUNT(*) FROM " + topic +
                           " WHERE Timestamp >= 0");
    rs.checks.Expect(count.ok() && !count->rows.empty() &&
                         count->rows[0].values[0] ==
                             static_cast<double>(expected),
                     "COUNT(*) across ring+WAL+cold on " + topic + ": got " +
                         (count.ok() && !count->rows.empty()
                              ? Fmt(count->rows[0].values[0])
                              : std::string("error")) +
                         ", acked " + std::to_string(expected));
    auto latest = svc.Query("SELECT LAST(Metric) FROM " + topic);
    rs.checks.Expect(latest.ok() && !latest->rows.empty() &&
                         latest->rows[0].values[0] == last,
                     "LAST on " + topic);
  };
  for (std::size_t t = 0; t < kIngTopics; ++t) {
    check_topic(rs.ing_names[t], 1 + rs.history_rows + rs.ing.acked[t],
                rs.ing.last[t]);
  }
  for (std::size_t t = 0; t < kPubTopics; ++t) {
    check_topic(rs.pub_names[t], 1 + rs.pub.acked[t], rs.pub.last[t]);
  }
  const std::uint64_t archive_bytes = DirBytes(rs.h.a->dir());

  for (const CQReg& reg : rs.h.cqs) {
    rs.checks.Expect(reg.holes == 0 && reg.updates > 0,
                     "CQ (epoch, seq) without holes: " + reg.sql);
    auto oneshot = rs.h.verify_client->Query(reg.sql);
    const bool same =
        oneshot.ok() && !reg.last.rows.empty() &&
        oneshot->result.rows.size() == reg.last.rows.size() &&
        oneshot->result.rows[0].values == reg.last.rows[0].values;
    rs.checks.Expect(same, "last CQ push equals one-shot query: " + reg.sql);
    if (rs.pub.acked[reg.topic] > 0 && !reg.last.rows.empty()) {
      rs.checks.Expect(reg.last.rows[0].values[0] == rs.pub.last[reg.topic],
                       "CQ MAX equals newest acked sample: " + reg.sql);
    }
  }

  std::vector<std::unique_ptr<ApolloClient>> replicas;
  for (const auto& p : rs.h.b->peers()) {
    replicas.push_back(std::make_unique<ApolloClient>(
        ClientTo(p.port, "verify-" + p.name)));
  }
  for (std::size_t t = 0; t < kClTopics; ++t) {
    auto w0 = replicas[0]->FetchWindow(rs.cl_names[t], 0);
    auto w1 = replicas[1]->FetchWindow(rs.cl_names[t], 0);
    bool same = w0.ok() && w1.ok() &&
                w0->entries.size() == w1->entries.size() &&
                w0->entries.size() ==
                    std::min<std::uint64_t>(rs.cl.acked[t], kClWindow);
    for (std::size_t k = 0; same && k < w0->entries.size(); ++k) {
      const auto& x = w0->entries[k];
      const auto& y = w1->entries[k];
      same = x.id == y.id && x.timestamp == y.timestamp &&
             x.value.value == y.value.value;
    }
    rs.checks.Expect(same, "replica windows identical: " + rs.cl_names[t]);
  }
  for (std::size_t t0 = 0; t0 < kClTopics; t0 += 8) {
    std::string sql;
    for (std::size_t t = t0; t < t0 + 8; ++t) {
      if (t > t0) sql += " UNION ";
      sql += "SELECT COUNT(Metric), LAST(Metric) FROM " + rs.cl_names[t];
    }
    auto merged = rs.h.scatter->Execute(sql);
    rs.checks.Expect(merged.ok() && !merged->degraded &&
                         merged->rows.size() == 8,
                     "final scatter query answered");
    if (!merged.ok()) continue;
    for (const auto& row : merged->rows) {
      for (std::size_t t = t0; t < t0 + 8; ++t) {
        if (rs.cl_names[t] != row.source) continue;
        rs.checks.Expect(
            row.values[0] == static_cast<double>(std::min<std::uint64_t>(
                                 rs.cl.acked[t], kClWindow)) &&
                row.values[1] == rs.cl.last[t],
            "scatter COUNT/LAST equals acked on " + row.source);
      }
    }
  }
  return archive_bytes;
}

std::string HostLine() {
  std::ostringstream os;
  os << "{\"compiler\": \"" << JsonEscape(E2E_COMPILER) << "\", \"flags\": \""
     << JsonEscape(E2E_FLAGS) << "\", \"build_type\": \""
     << JsonEscape(E2E_BUILD_TYPE) << "\"}";
  return os.str();
}

int Run(const Args& args, const Spec& spec) {
  CheckLog checks;
  std::filesystem::create_directories(args.workdir);
  std::filesystem::create_directories(args.outdir);
  const std::string a_dir = args.workdir + "/a";
  if (spec.history) {
    Status seeded =
        SeedHistory(a_dir, args.seed, kHistoryColdRows, kHistoryWalRows);
    if (!seeded.ok()) {
      std::fprintf(stderr, "history seeding failed: %s\n",
                   seeded.ToString().c_str());
      return 1;
    }
  }
  // Live timestamps must follow the seeded history.
  while (RealClock::Instance().Now() <
         HistoryTs(kHistoryColdRows + kHistoryWalRows) + 1'000'000) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Start from a quiet disk: write back what earlier runs left dirty.
  if (const int fd = ::open(args.workdir.c_str(), O_RDONLY | O_DIRECTORY);
      fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }

  // Set up kSetups times (each from scratch, or as a restart with recovery
  // for query_mix) and keep the last; setup_s is the median.
  std::vector<double> setup_s;
  std::vector<SetupTimes> setup_times;
  std::unique_ptr<Harness> h;
  for (int k = 0; k < kSetups; ++k) {
    const bool keep = k == kSetups - 1;
    const std::string dir =
        spec.history ? a_dir : args.workdir + "/a" + std::to_string(k);
    double excluded = 0;
    const Ns t0 = NowNs();
    auto built = BuildHarness(spec, dir, keep, args.seed, checks, excluded);
    if (!built.ok()) {
      std::fprintf(stderr, "setup failed: %s\n",
                   built.error().ToString().c_str());
      return 1;
    }
    {
      RunState warm(spec, args, **built, checks);
      Ctx ctx(args.seed);
      Status snap = AwaitSnapshots(warm, ctx);
      if (!snap.ok()) {
        std::fprintf(stderr, "setup failed: %s\n", snap.ToString().c_str());
        return 1;
      }
      // Warm-up: one request per path, so lazy set-up is paid here.
      Status ping = (*built)->query_client->Ping();
      auto q = (*built)->query_client->Query("SELECT LAST(Metric) FROM " +
                                             IngTopic(0));
      if (!ping.ok() || !q.ok()) {
        std::fprintf(stderr, "setup failed: warm-up request\n");
        return 1;
      }
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9 - excluded);
    setup_times.push_back((*built)->times);
    if (keep) {
      h = std::move(*built);
    } else {
      built->reset();
      if (!spec.history) std::filesystem::remove_all(dir);
    }
  }

  RunState rs(spec, args, *h, checks);
  for (std::size_t t = 0; t < kIngTopics; ++t) rs.ing_names.push_back(IngTopic(t));
  {
    double sum = 0;
    for (std::size_t t = 0; t < kIngTopics; ++t) {
      sum += static_cast<double>(1 + (t * 7919) % 13);
      rs.ing_cdf.push_back(sum);
    }
    for (double& c : rs.ing_cdf) c /= sum;
  }
  for (std::size_t t = 0; t < kPubTopics; ++t) rs.pub_names.push_back(PubTopic(t));
  for (std::size_t t = 0; t < kClTopics; ++t) rs.cl_names.push_back(ClTopic(t));
  rs.history_rows = spec.history ? kHistoryDurable : 0;
  {
    Ctx ctx(MixSeed(args.seed, 99));
    Status seeded = SeedCluster(rs, ctx);
    if (!seeded.ok()) {
      std::fprintf(stderr, "cluster seeding failed: %s\n",
                   seeded.ToString().c_str());
      return 1;
    }
  }
  rs.sp_batch = rs.spans.Intern("e2e.batch");
  rs.sp_publish = rs.spans.Intern("e2e.publish");
  rs.sp_point = rs.spans.Intern("e2e.point_query");
  rs.sp_range = rs.spans.Intern("e2e.range_query");
  rs.sp_scatter = rs.spans.Intern("e2e.scatter_query");
  rs.sp_client = rs.spans.Intern("net.ApolloClient");
  rs.sp_cluster_client = rs.spans.Intern("net.ClusterClient::PublishBatch");
  rs.sp_engine = rs.spans.Intern("net.RemoteQueryEngine::Execute");

  const bool traced = args.trace == 1;
  const RegistrySnapshot reg_before = SnapshotRegistry();
  const apollo::ProcSample proc_before = apollo::SampleSelf();
  const auto stats_before = h->a->svc().Stats();

  rs.run_start = NowNs();
  const Ns end = rs.run_start + static_cast<Ns>(args.seconds) * 1'000'000'000;
  std::vector<std::unique_ptr<Ctx>> ctxs;
  std::vector<std::thread> producers;
  auto new_ctx = [&]() -> Ctx& {
    ctxs.push_back(std::make_unique<Ctx>(MixSeed(args.seed, ctxs.size())));
    ctxs.back()->sink = rs.spans.Sink();
    return *ctxs.back();
  };
  // One thread and one connection per stream, so a stall on one path
  // never delays another path's requests. Each request counts in its
  // thread's attempted/failed.
  auto spawn = [&](double rate, std::function<bool(Ctx&)> op,
                   LatencyLog ThreadLogs::*plain,
                   LatencyLog ThreadLogs::*traced_log) {
    if (rate <= 0) return;
    Ctx* c = &new_ctx();
    producers.emplace_back([&, c, rate, op = std::move(op), plain,
                            traced_log] {
      Ctx& ctx = *c;
      std::vector<OpenStream> s;
      s.push_back(OpenStream{PoissonSchedule(ctx.rng(), rate, rs.run_start),
                             [&](Ns) {
                               const bool ok = op(ctx);
                               ++ctx.logs.attempted;
                               if (!ok) ++ctx.logs.failed;
                               return ok;
                             },
                             &(ctx.logs.*plain), &rs.spans.enabled,
                             &(ctx.logs.*traced_log)});
      RunOpenLoop(s, end, ctx.logs.late);
    });
  };
  spawn(spec.batch_rate,
        [&](Ctx& ctx) {
          return spec.batch_to_cluster
                     ? ClusterBatchOp(rs, ctx)
                     : IngestBatchOp(rs, ctx, *h->batch_client,
                                     spec.batch_samples);
        },
        &ThreadLogs::batch, &ThreadLogs::batch_t);
  spawn(spec.publish_rate,
        [&](Ctx& ctx) { return PublishOp(rs, ctx, *h->publish_client); },
        &ThreadLogs::publish, &ThreadLogs::publish_t);
  auto zipf = std::make_shared<Zipf>(kIngTopics, 1.1);
  spawn(spec.point_rate,
        [&, zipf](Ctx& ctx) {
          return PointOp(rs, ctx, *h->query_client, *zipf);
        },
        &ThreadLogs::point, &ThreadLogs::point_t);
  spawn(spec.range_rate,
        [&](Ctx& ctx) { return RangeOp(rs, ctx, *h->range_client); },
        &ThreadLogs::range, &ThreadLogs::range_t);
  spawn(spec.scatter_rate, [&](Ctx& ctx) { return ScatterOp(rs, ctx); },
        &ThreadLogs::scatter, &ThreadLogs::scatter_t);
  // One sweeping thread per subscriber connection; after the producers
  // stop, each drains until its connection has been quiet for 150 ms.
  std::atomic<bool> producers_done{false};
  std::vector<std::thread> sweepers;
  for (std::size_t c = 0; c < h->cq_clients.size(); ++c) {
    Ctx* sc = &new_ctx();
    sweepers.emplace_back([&, c, sc] {
      Ns idle_since = 0;
      while (true) {
        const std::size_t taken = SweepCQs(rs, *sc, c, NowNs() < end);
        if (!producers_done.load()) continue;
        if (taken > 0) {
          idle_since = 0;
        } else if (idle_since == 0) {
          idle_since = NowNs();
        } else if (NowNs() - idle_since > 150'000'000) {
          break;
        }
      }
    });
  }
  // Traced runs: a no-op posted into A's daemon loop every millisecond
  // (how long work waits for the loop thread) and a ping every 5 ms.
  std::mutex probe_mu;
  LatencyLog post_wait, ping_rtt;
  std::thread probe;
  if (traced) {
    probe = std::thread([&] {
      auto& loop = h->a->svc().daemon()->loop();
      Ns next = NowNs();
      int tick = 0;
      while (NowNs() < end) {
        next += 1'000'000;
        WaitUntil(next);
        const Ns posted = NowNs();
        loop.Post([&probe_mu, &post_wait, posted] {
          const Ns waited = NowNs() - posted;
          std::lock_guard<std::mutex> lock(probe_mu);
          post_wait.Ok(static_cast<double>(waited) / 1e3);
        });
        if (++tick % 5 == 0) {
          const Ns t0 = NowNs();
          if (h->probe_client->Ping().ok()) {
            ping_rtt.Ok(static_cast<double>(NowNs() - t0) / 1e3);
          }
        }
      }
    });
  }
  // Meanwhile the main thread times a host reference trip every 8 ms
  // (hostref.h), and in traced runs turns tracing on and off every 500
  // ms, so the traced and the untraced halves see the same phases of
  // compaction and fsync.
  LatencyLog host_ref;
  {
    ConnectProbe probe_trip;
    for (Ns now = NowNs(); now < end; now = NowNs()) {
      if (traced) {
        rs.spans.enabled.store((now - rs.run_start) / 500'000'000 % 2 == 1);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(8));
      if (const auto us = probe_trip.Trip()) host_ref.Ok(*us);
    }
  }
  for (std::thread& t : producers) t.join();
  const Ns producers_end = NowNs();
  rs.spans.enabled.store(false);
  producers_done.store(true);
  for (std::thread& t : sweepers) t.join();
  if (probe.joinable()) probe.join();
  {
    // Let the loop run any still-queued probe callback before post_wait
    // is read.
    std::atomic<bool> drained{false};
    h->a->svc().daemon()->loop().Post([&drained] { drained.store(true); });
    while (!drained.load()) std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  const double measured_s = static_cast<double>(producers_end - rs.run_start) / 1e9;
  const RegistrySnapshot reg_after = SnapshotRegistry();
  const apollo::ProcSample proc_after = apollo::SampleSelf();
  const auto stats_after = h->a->svc().Stats();

  ThreadLogs all;
  for (const auto& ctx : ctxs) {
    const ThreadLogs& l = ctx->logs;
    for (auto [dst, src] :
         std::vector<std::pair<LatencyLog*, const LatencyLog*>>{
             {&all.batch, &l.batch},     {&all.publish, &l.publish},
             {&all.point, &l.point},     {&all.range, &l.range},
             {&all.scatter, &l.scatter}, {&all.cq_lag, &l.cq_lag},
             {&all.batch_t, &l.batch_t}, {&all.publish_t, &l.publish_t},
             {&all.point_t, &l.point_t}, {&all.range_t, &l.range_t},
             {&all.scatter_t, &l.scatter_t}, {&all.cq_lag_t, &l.cq_lag_t},
             {&all.late, &l.late},       {&all.push_gap, &l.push_gap}}) {
      dst->Append(*src);
    }
    all.attempted += l.attempted;
    all.failed += l.failed;
  }

  const std::uint64_t requests = all.attempted;
  const std::uint64_t a_samples = rs.ing.Total() + rs.pub.Total();
  const std::uint64_t cl_samples = rs.cl.Total() - kClTopics * kClSeedRows;
  // Traced runs end with one second of closed-loop batches on the batch
  // path: the throughput one producer reaches when it never waits.
  double closed_loop_rate = 0;
  if (traced) {
    Ctx& ctx = new_ctx();
    TopicRecord& rec = spec.batch_to_cluster ? rs.cl : rs.ing;
    const std::uint64_t before = rec.Total();
    const Ns t0 = NowNs();
    while (NowNs() - t0 < 1'000'000'000) {
      const bool ok = spec.batch_to_cluster
                          ? ClusterBatchOp(rs, ctx)
                          : IngestBatchOp(rs, ctx, *h->batch_client, 256);
      ++all.attempted;
      if (!ok) ++all.failed;
    }
    closed_loop_rate = static_cast<double>(rec.Total() - before) /
                       (static_cast<double>(NowNs() - t0) / 1e9);
  }
  const std::uint64_t archive_bytes = FinalChecks(rs, all);
  const double compact_failures =
      Delta(reg_before, SnapshotRegistry(), "apollo_coldtier_compact_failures_total");
  const std::uint64_t stored = rs.ing.Total() + rs.pub.Total() +
                               rs.history_rows * kIngTopics + kIngTopics +
                               kPubTopics;

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::vector<Metric> e2e, recorded, layers;
  bool resolvable = true;
  auto finite = [](double v) { return std::isinf(v) ? 1e300 : v; };
  // Every path the workload drives is recorded under its own name: p10,
  // p50, and the p99 as the median of per-window p99s (see
  // WindowedQuantile), which host stalls on a shared machine move too far
  // between runs to gate (README.md).
  const std::tuple<Path, std::string, const LatencyLog*> paths[] = {
      {Path::kBatch, "batch_ack", &all.batch},
      {Path::kPublish, "publish", &all.publish},
      {Path::kPoint, "point_query", &all.point},
      {Path::kRange, "range_query", &all.range},
      {Path::kCqLag, "cq_lag", &all.cq_lag},
      {Path::kScatter, "scatter_query", &all.scatter}};
  for (const auto& [path, name, log] : paths) {
    if (log->count() == 0) continue;
    for (const auto& [q, suffix] :
         {std::pair<double, const char*>{0.1, "_p10_us"}, {0.5, "_p50_us"}}) {
      if (const auto v = Quantile(*log, q)) {
        recorded.push_back({name + suffix, "us", finite(*v), log->count()});
      }
    }
    if (const auto p99 = WindowedQuantile(*log, 0.99)) {
      recorded.push_back({name + "_p99_us", "us", finite(*p99), log->count()});
    }
  }
  if (spec.batch_rate > 0) {
    // Offered load: open-loop producers at a fixed rate, so this drops
    // only when the stack saturates.
    const std::uint64_t acked_samples = a_samples + cl_samples;
    recorded.push_back({"ingest_samples_per_s", "samples/s",
                        static_cast<double>(acked_samples) / measured_s,
                        static_cast<std::size_t>(acked_samples)});
  }
  if (a_samples > 0) {
    recorded.push_back({"storage_bytes_per_sample", "B",
                        static_cast<double>(archive_bytes) /
                            static_cast<double>(stored),
                        static_cast<std::size_t>(stored)});
  }

  // Process CPU (stack, background work and client library) per request.
  // Not gated: host steal counts as CPU time, so it drifts with the host.
  recorded.push_back({"cpu_us_per_request", "us",
                      (proc_after.cpu_seconds - proc_before.cpu_seconds) *
                          1e6 / static_cast<double>(std::max<std::uint64_t>(requests, 1)),
                      static_cast<std::size_t>(requests)});
  recorded.push_back({"host_ref_p50_us", "us",
                      Quantile(host_ref, 0.5).value_or(0), host_ref.count()});

  // Gated: set-up, memory, and the p10 (the cost of a request that met no
  // interference) of the main and second path, in host reference trips
  // timed alongside (hostref.h): the host's drift in the cost of its
  // kernel paths moves both and cancels. The ratio is taken in each of ten windows of the run
  // and the median reported, so it follows drift within the run and a
  // host episode in fewer than half of the windows does not move it.
  std::sort(setup_s.begin(), setup_s.end());
  e2e.push_back({"setup_s", "s", Median(setup_s), setup_s.size()});
  e2e.push_back({"rss_mb", "MB", static_cast<double>(usage.ru_maxrss) / 1024.0, 1});
  auto gated_p10 = [&](const std::string& name, Path path) {
    for (const auto& [p, base, log] : paths) {
      if (p != path) continue;
      const auto ratio = WindowedRatio(*log, 0.1, host_ref, rs.run_start, end,
                                       kRatioWindows);
      if (!ratio.has_value()) {
        std::fprintf(stderr,
                     "%s: no window resolves %s_p10_us (%zu samples) and the "
                     "host reference median (%zu)\n",
                     name.c_str(), base.c_str(), log->count(), host_ref.count());
        resolvable = false;
      }
      e2e.push_back({name, "ref", finite(ratio.value_or(0)), log->count()});
    }
  };
  gated_p10("main_p10_ref", spec.main_path);
  gated_p10("second_p10_ref", spec.second_path);

  if (traced) {
    TracedSummary summary;
    auto p50 = [](const LatencyLog& l) { return Quantile(l, 0.5).value_or(0.0); };
    summary.e2e_p50_us = {{"batch", p50(all.batch_t)},
                          {"publish", p50(all.publish_t)},
                          {"point_query", p50(all.point_t)},
                          {"range_query", p50(all.range_t)},
                          {"scatter_query", p50(all.scatter_t)},
                          {"cq_lag", p50(all.cq_lag_t)}};
    const std::map<std::string, double> untraced = {
        {"batch", p50(all.batch)},         {"publish", p50(all.publish)},
        {"point_query", p50(all.point)},   {"range_query", p50(all.range)},
        {"scatter_query", p50(all.scatter)}, {"cq_lag", p50(all.cq_lag)}};
    std::vector<double> overhead;
    for (const auto& [path, t] : summary.e2e_p50_us) {
      const double u = untraced.at(path);
      if (u > 0 && t > 0) overhead.push_back((t - u) / u * 100.0);
    }
    summary.samples_acked_a = a_samples;
    summary.single_publishes = rs.pub.Total();
    summary.scatter_queries = all.scatter.count() + all.scatter_t.count();
    summary.cluster_batches = spec.batch_to_cluster
                                  ? all.batch.count() + all.batch_t.count()
                                  : 0;
    summary.all_samples_acked = a_samples + cl_samples;
    summary.wall_s = measured_s;
    summary.batch_samples = spec.batch_to_cluster ? 256 : spec.batch_samples;
    summary.closed_loop_samples_per_s = closed_loop_rate;
    summary.compact_failures = compact_failures;
    summary.post_wait = post_wait;
    summary.ping_rtt = ping_rtt;
    summary.push_gap = all.push_gap;
    summary.late = all.late;
    summary.cpu_util = apollo::CpuUtilBetween(proc_before, proc_after);
    summary.trace_overhead_pct = Median(overhead);
    summary.hook_calls = stats_after.hook_calls - stats_before.hook_calls;
    summary.hook_time_ns = stats_after.hook_time_ns - stats_before.hook_time_ns;
    summary.publish_time_ns =
        stats_after.publish_time_ns - stats_before.publish_time_ns;
    summary.recover_s = Median([&] {
      std::vector<double> v;
      for (const auto& t : setup_times) v.push_back(t.recover_s);
      return v;
    }());
    summary.recovered_records = setup_times.back().recovery.records_recovered;
    summary.deploy_s = Median([&] {
      std::vector<double> v;
      for (const auto& t : setup_times) v.push_back(t.deploy_s);
      return v;
    }());
    summary.start_daemon_s = Median([&] {
      std::vector<double> v;
      for (const auto& t : setup_times) v.push_back(t.start_daemon_s);
      return v;
    }());
    LayerInputs inputs;
    for (const auto& ctx : ctxs) {
      const LayerInputs& in = ctx->inputs;
      inputs.batches.insert(inputs.batches.end(), in.batches.begin(), in.batches.end());
      inputs.cl_batches.insert(inputs.cl_batches.end(), in.cl_batches.begin(), in.cl_batches.end());
      inputs.point_sql.insert(inputs.point_sql.end(), in.point_sql.begin(), in.point_sql.end());
      inputs.union_sql.insert(inputs.union_sql.end(), in.union_sql.begin(), in.union_sql.end());
      inputs.range_sql.insert(inputs.range_sql.end(), in.range_sql.begin(), in.range_sql.end());
      inputs.ranges.insert(inputs.ranges.end(), in.ranges.begin(), in.ranges.end());
      inputs.range_topics.insert(inputs.range_topics.end(), in.range_topics.begin(), in.range_topics.end());
      inputs.scatter_sql.insert(inputs.scatter_sql.end(), in.scatter_sql.begin(), in.scatter_sql.end());
      inputs.cq_updates.insert(inputs.cq_updates.end(), in.cq_updates.begin(), in.cq_updates.end());
    }
    for (const CQReg& reg : h->cqs) {
      inputs.cq_sql.push_back("SUBSCRIBE " + reg.sql);
      inputs.cq_topics.push_back(reg.topic);
    }
    for (const LayerMetric& m :
         MeasureLayers(*h->a, *h->b, inputs, summary, reg_before, reg_after,
                       args.workdir + "/layers", rs.spans)) {
      layers.push_back({m.name, m.unit, m.value, 0});
    }
    // Tails over traced and untraced requests together; every name is
    // reported (0 when the run was too short to resolve it).
    for (const auto& [name, plain, on] :
         std::vector<std::tuple<std::string, const LatencyLog*,
                                const LatencyLog*>>{
             {"batch_ack", &all.batch, &all.batch_t},
             {"publish", &all.publish, &all.publish_t},
             {"point_query", &all.point, &all.point_t},
             {"range_query", &all.range, &all.range_t},
             {"cq_lag", &all.cq_lag, &all.cq_lag_t},
             {"scatter_query", &all.scatter, &all.scatter_t}}) {
      LatencyLog both = *plain;
      both.Append(*on);
      const auto p99 = WindowedQuantile(both, 0.99);
      layers.push_back({"tail." + name + "_p99_us", "us",
                        std::isinf(p99.value_or(0)) ? 1e300 : p99.value_or(0),
                        both.count()});
    }
  }

  // --- report ---
  const bool correct = checks.failures.empty() && resolvable;
  const std::string tag = args.workload + "-seed" + std::to_string(args.seed) +
                          "-trace" + std::to_string(args.trace);
  {
    std::ofstream detail(args.outdir + "/" + tag + ".json");
    detail << "{\n  \"workload\": \"" << args.workload << "\",\n  \"seed\": "
           << args.seed << ",\n  \"seconds\": " << args.seconds
           << ",\n  \"trace\": " << args.trace << ",\n  \"build\": "
           << HostLine() << ",\n  \"setup_s_each\": [";
    for (std::size_t i = 0; i < setup_s.size(); ++i) {
      detail << (i ? ", " : "") << Fmt(setup_s[i]);
    }
    detail << "],\n  \"checks\": " << checks.checks
           << ",\n  \"check_failures\": [";
    for (std::size_t i = 0; i < checks.failures.size(); ++i) {
      detail << (i ? ", " : "") << "\"" << JsonEscape(checks.failures[i]) << "\"";
    }
    detail << "],\n  \"attempted\": " << all.attempted << ",\n  \"failed\": "
           << all.failed << ",\n  \"gen_late_p99_us\": "
           << Fmt(Quantile(all.late, 0.99).value_or(0.0))
           << ",\n  \"end_to_end\": {";
    for (std::size_t i = 0; i < e2e.size(); ++i) {
      detail << (i ? "," : "") << "\n    \"" << e2e[i].name << "\": {\"value\": "
             << Fmt(e2e[i].value) << ", \"unit\": \"" << e2e[i].unit
             << "\", \"samples\": " << e2e[i].samples << "}";
    }
    detail << "\n  },\n  \"recorded\": {";
    for (std::size_t i = 0; i < recorded.size(); ++i) {
      detail << (i ? "," : "") << "\n    \"" << recorded[i].name
             << "\": {\"value\": " << Fmt(recorded[i].value) << ", \"unit\": \""
             << recorded[i].unit << "\", \"samples\": " << recorded[i].samples << "}";
    }
    detail << "\n  },\n  \"per_layer\": {";
    for (std::size_t i = 0; i < layers.size(); ++i) {
      detail << (i ? "," : "") << "\n    \"" << layers[i].name
             << "\": " << Fmt(layers[i].value);
    }
    detail << "\n  }\n}\n";
  }
  if (traced) {
    // Spans, written once at exit (Chrome trace_event format).
    std::ofstream trace(args.outdir + "/" + tag + "-spans.json");
    const auto names = rs.spans.names();
    const auto spans = rs.spans.All();
    const auto self = SelfTimes(spans);
    trace << "{\"traceEvents\": [";
    bool first = true;
    for (const Span& s : spans) {
      trace << (first ? "\n" : ",\n") << "{\"name\": \"" << names[s.name]
            << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << (s.request % 64)
            << ", \"ts\": " << Fmt(static_cast<double>(s.start - rs.run_start) / 1e3)
            << ", \"dur\": " << Fmt(static_cast<double>(s.end - s.start) / 1e3)
            << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
            << ", \"request\": " << s.request << ", \"self_us\": "
            << Fmt(static_cast<double>(self.at(s.id)) / 1e3) << "}}";
      first = false;
    }
    trace << "\n]}\n";
  }

  for (const auto* list : {&e2e, &recorded}) {
    for (const Metric& m : *list) {
      std::fprintf(stderr, "  %-26s %16.4f %-10s n=%zu\n", m.name.c_str(),
                   m.value, m.unit.c_str(), m.samples);
    }
  }
  for (const Metric& m : layers) {
    std::fprintf(stderr, "  %-40s %16.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::fprintf(stderr, "  checks: %" PRIu64 " run, %zu failed\n", checks.checks,
               checks.failures.size());
  for (const std::string& f : checks.failures) {
    std::fprintf(stderr, "  CHECK FAILED: %s\n", f.c_str());
  }

  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << all.attempted << ", \"failed\": " << all.failed
      << ", \"metrics\": {";
  const std::vector<Metric>& shown = traced ? layers : e2e;
  for (std::size_t i = 0; i < shown.size(); ++i) {
    out << (i ? ", " : "") << "\"" << shown[i].name << "\": {\"value\": "
        << Fmt(shown[i].value) << ", \"unit\": \"" << shown[i].unit << "\"}";
  }
  out << "}}";

  h.reset();
  std::error_code ec;
  std::filesystem::remove_all(args.workdir, ec);
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Args args;
  if (!e2e::ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "--workdir DIR --outdir DIR\n",
                 argv[0]);
    return 2;
  }
  const e2e::Spec* spec = nullptr;
  for (const e2e::Spec& s : e2e::kSpecs) {
    if (args.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  // Fine-grained sleeps for the open-loop generator, and room for the
  // many WAL segment and block files a run keeps open.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  rlimit limit{};
  if (getrlimit(RLIMIT_NOFILE, &limit) == 0) {
    limit.rlim_cur = limit.rlim_max;
    setrlimit(RLIMIT_NOFILE, &limit);
  }
  return e2e::Run(args, *spec);
}
