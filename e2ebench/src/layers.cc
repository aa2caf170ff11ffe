// Traced per-layer measurements: each module's public entry points timed
// on the workload's own generated inputs, and registry deltas over the
// generator phase. Names follow README.md's metric -> layer -> workload
// map; every name is reported in every traced run (0 where the workload
// gave the layer nothing to do).
#include <algorithm>
#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <sstream>

#include "aqe/parser.h"
#include "aqe/query_builder.h"
#include "aqe/remote.h"
#include "bench.h"
#include "cluster/placement.h"
#include "cq/cq_engine.h"
#include "net/client.h"
#include "net/frame.h"
#include "obs/metrics.h"
#include "pubsub/archiver.h"
#include "pubsub/broker.h"

namespace e2e {

using apollo::RealClock;
using apollo::net::ApolloClient;
using apollo::net::PublishBatchMsg;

RegistrySnapshot SnapshotRegistry() {
  RegistrySnapshot snap;
  std::istringstream in(
      apollo::obs::MetricsRegistry::Global().RenderPrometheus());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    snap[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return snap;
}

namespace {

// Series of `name` (exactly that name, any labels) in a snapshot.
double SumOf(const RegistrySnapshot& snap, const std::string& name) {
  double sum = 0;
  for (auto it = snap.lower_bound(name);
       it != snap.end() && it->first.compare(0, name.size(), name) == 0;
       ++it) {
    const std::string& key = it->first;
    if (key.size() == name.size() || key[name.size()] == '{') sum += it->second;
  }
  return sum;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Median of `reps` timed calls of `fn` (each timed alone), in ns.
double MedianNs(std::size_t reps, const std::function<void(std::size_t)>& fn) {
  std::vector<double> ns;
  ns.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) {
    const Ns t0 = NowNs();
    fn(i);
    ns.push_back(static_cast<double>(NowNs() - t0));
  }
  return Median(ns);
}

// Median over rounds of (time of `per_round` calls) / per_round, in ns:
// for calls too short to time one at a time.
double MedianPerCallNs(std::size_t rounds, std::size_t per_round,
                       const std::function<void(std::size_t)>& fn) {
  std::vector<double> ns;
  std::size_t i = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    const Ns t0 = NowNs();
    for (std::size_t k = 0; k < per_round; ++k) fn(i++);
    ns.push_back(static_cast<double>(NowNs() - t0) /
                 static_cast<double>(per_round));
  }
  return Median(ns);
}

// Re-stamps a batch with fresh, increasing timestamps so it can be
// appended again to streams that already hold its originals.
PublishBatchMsg Restamp(PublishBatchMsg msg) {
  const TimeNs base = RealClock::Instance().Now();
  for (auto& run : msg.runs) {
    TimeNs ts = base;
    for (auto& e : run.entries) {
      e.timestamp = ts++;
      e.value.timestamp = e.timestamp;
    }
  }
  return msg;
}

PublishBatchMsg SyntheticClusterBatch(std::size_t topic) {
  PublishBatchMsg msg;
  PublishBatchMsg::Run run;
  run.topic = ClTopic(topic);
  for (std::size_t k = 0; k < 256; ++k) {
    apollo::TelemetryStream::Entry e;
    e.value.value = static_cast<double>(k);
    run.entries.push_back(e);
  }
  msg.runs.push_back(std::move(run));
  return Restamp(std::move(msg));
}

}  // namespace

double Delta(const RegistrySnapshot& before, const RegistrySnapshot& after,
             const std::string& name) {
  return SumOf(after, name) - SumOf(before, name);
}

double HistogramDeltaQuantileNs(const RegistrySnapshot& before,
                                const RegistrySnapshot& after,
                                const std::string& name, double q) {
  // Cumulative bucket counts keyed by upper bound.
  std::map<double, double> delta;
  const std::string prefix = name + "_bucket{le=\"";
  for (auto it = after.lower_bound(prefix);
       it != after.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    const std::string le = it->first.substr(prefix.size());
    if (le.compare(0, 4, "+Inf") == 0) continue;
    const double bound = std::strtod(le.c_str(), nullptr);
    auto b = before.find(it->first);
    delta[bound] = it->second - (b == before.end() ? 0.0 : b->second);
  }
  const double total = Delta(before, after, name + "_count");
  if (total <= 0) return 0;
  for (const auto& [bound, cumulative] : delta) {
    if (cumulative >= q * total) return bound;
  }
  return delta.empty() ? 0 : delta.rbegin()->first;
}

std::vector<LayerMetric> MeasureLayers(
    Standalone& a, ClusterPair& b, const LayerInputs& inputs,
    const TracedSummary& summary, const RegistrySnapshot& before,
    const RegistrySnapshot& after, const std::string& scratch_dir,
    SpanLog& spans) {
  std::vector<LayerMetric> out;
  auto put = [&out](const std::string& name, const std::string& unit,
                    double value) { out.push_back({name, unit, value}); };
  auto d = [&](const std::string& name) { return Delta(before, after, name); };
  std::filesystem::create_directories(scratch_dir);
  spans.enabled.store(true);
  std::vector<Span>* sink = spans.Sink();
  auto span = [&](const std::string& name) {
    return std::make_unique<ScopedSpan>(spans, sink, spans.Intern(name));
  };
  apollo::ApolloService& svc = a.svc();
  const bool cluster_batches = !inputs.cl_batches.empty();
  const std::vector<PublishBatchMsg>& wire_batches =
      cluster_batches ? inputs.cl_batches : inputs.batches;
  std::map<std::string, double> layer_us;  // for the breakdown below

  // --- net -------------------------------------------------------------
  const double ping_us = Quantile(summary.ping_rtt, 0.5).value_or(0.0);
  put("net.ping_rtt_us", "us", ping_us);
  double codec_ns = 0, wire_bytes = 0;
  if (!wire_batches.empty()) {
    auto s = span("layer.net.codec");
    std::size_t samples = 0;
    for (const auto& m : wire_batches) samples += m.SampleCount();
    std::vector<std::uint8_t> payload, frame_bytes;
    apollo::net::FrameParser parser;
    apollo::net::Frame frame;
    apollo::net::PublishBatchMsg decoded;
    const double per_batch_set = MedianNs(20, [&](std::size_t) {
      for (const auto& m : wire_batches) {
        payload.clear();
        frame_bytes.clear();
        m.Encode(payload);
        apollo::net::EncodeFrame(frame_bytes,
                                 apollo::net::MsgType::kPublishBatch, 1,
                                 payload);
        parser.Feed(frame_bytes.data(), frame_bytes.size());
        parser.Next(frame);
        apollo::net::PublishBatchMsg::Decode(frame.payload, decoded);
      }
    });
    codec_ns = per_batch_set / static_cast<double>(samples);
    wire_bytes = static_cast<double>(frame_bytes.size()) /
                 static_cast<double>(wire_batches.back().SampleCount());
  }
  put("net.codec_ns_per_sample", "ns", codec_ns);
  put("net.frames_per_sample", "frames",
      Ratio(d("apollo_net_messages_received_total"),
            static_cast<double>(summary.all_samples_acked)));
  put("net.wire_bytes_per_sample", "B", wire_bytes);
  // Both ends of a connection count it (connect and accept).
  put("net.conns_per_scatter_query", "count",
      Ratio(d("apollo_net_connections_opened_total") / 2.0,
            static_cast<double>(summary.scatter_queries)));
  put("net.backpressure_skips", "count", d("apollo_net_backpressure_skips_total"));
  double push_bytes = 0;
  for (const auto& u : inputs.cq_updates) {
    std::vector<std::uint8_t> payload, frame_bytes;
    u.Encode(payload);
    apollo::net::EncodeFrame(frame_bytes, apollo::net::MsgType::kCQUpdate, 0,
                             payload);
    push_bytes += static_cast<double>(frame_bytes.size());
  }
  put("net.push_bytes_per_update", "B",
      Ratio(push_bytes, static_cast<double>(inputs.cq_updates.size())));

  // --- eventloop -------------------------------------------------------
  put("eventloop.post_wait_p50_us", "us",
      Quantile(summary.post_wait, 0.5).value_or(0.0));
  put("eventloop.post_wait_p99_us", "us",
      Quantile(summary.post_wait, 0.99).value_or(0.0));

  // --- pubsub: a scratch broker whose topics are configured like A's ----
  const apollo::ApolloOptions durable = DurableOptions(scratch_dir);
  apollo::Broker broker(RealClock::Instance());
  std::vector<std::unique_ptr<apollo::Archiver<apollo::Sample>>> archivers;
  std::vector<apollo::TopicHandle> ing_handles;
  for (std::size_t t = 0; t < 32; ++t) {
    archivers.push_back(std::make_unique<apollo::Archiver<apollo::Sample>>(
        scratch_dir + "/h" + std::to_string(t) + ".log", durable.wal));
    const std::string name = "h.t" + std::to_string(t);
    (void)broker.CreateTopic(name, apollo::kLocalNode, kWindow,
                             archivers.back().get());
    ing_handles.push_back(*broker.Resolve(name));
  }
  double publish_ns = 0;
  {
    auto s = span("layer.pubsub.Broker::Publish");
    apollo::Sample sample;
    publish_ns = MedianPerCallNs(20, 1000, [&](std::size_t i) {
      sample.timestamp = RealClock::Instance().Now();
      sample.value = static_cast<double>(i);
      (void)broker.Publish(ing_handles[i % 32], apollo::kLocalNode,
                           sample.timestamp, sample);
    });
  }
  put("pubsub.publish_ns", "ns", publish_ns);
  double batch_ns = 0;
  if (!inputs.batches.empty() || !inputs.cl_batches.empty()) {
    auto s = span("layer.pubsub.Broker::PublishBatch");
    std::vector<double> per_sample;
    for (std::size_t rep = 0; rep < 5; ++rep) {
      for (const auto& original : wire_batches) {
        const PublishBatchMsg m = Restamp(original);
        const Ns t0 = NowNs();
        std::size_t i = 0;
        for (const auto& run : m.runs) {
          (void)broker.PublishBatch(ing_handles[i++ % 32], apollo::kLocalNode,
                                    run.entries.data(), run.entries.size());
        }
        per_sample.push_back(static_cast<double>(NowNs() - t0) /
                             static_cast<double>(m.SampleCount()));
      }
    }
    batch_ns = Median(per_sample);
  }
  put("pubsub.publish_batch_ns_per_sample", "ns", batch_ns);
  double wal_ns = 0;
  {
    auto s = span("layer.pubsub.Archiver::Append");
    apollo::Archiver<apollo::Sample> wal(scratch_dir + "/wal.log", durable.wal);
    apollo::Sample sample;
    wal_ns = MedianPerCallNs(20, 1000, [&](std::size_t i) {
      sample.timestamp = static_cast<TimeNs>(i);
      (void)wal.Append(i, sample.timestamp, sample);
    });
  }
  put("pubsub.wal_append_ns", "ns", wal_ns);
  const double samples_a = static_cast<double>(summary.samples_acked_a);
  const double evictions = Ratio(d("apollo_stream_evictions_total"), samples_a);
  put("pubsub.evictions_per_sample", "count", evictions);
  put("pubsub.wal_bytes_per_sample", "B",
      Ratio(d("apollo_coldtier_raw_bytes_total"),
            d("apollo_coldtier_rows_compacted_total")));
  put("pubsub.wal_fsyncs", "count", d("apollo_archive_fsyncs_total"));
  put("pubsub.wal_fsync_p99_us", "us",
      HistogramDeltaQuantileNs(before, after, "apollo_archive_fsync_duration_ns",
                               0.99) /
          1e3);
  put("pubsub.recover_s", "s", summary.recover_s);
  put("pubsub.recovered_records_per_s", "1/s",
      Ratio(static_cast<double>(summary.recovered_records), summary.recover_s));

  // --- coldtier --------------------------------------------------------
  const double busy_s = d("apollo_coldtier_compact_duration_ns_sum") / 1e9;
  put("coldtier.compactions", "count", d("apollo_coldtier_compactions_total"));
  put("coldtier.compact_failures", "count", summary.compact_failures);
  put("coldtier.compact_busy_s", "s", busy_s);
  put("coldtier.rows_compacted_per_busy_s", "1/s",
      Ratio(d("apollo_coldtier_rows_compacted_total"), busy_s));
  put("coldtier.compression_ratio", "x",
      Ratio(d("apollo_coldtier_raw_bytes_total"),
            d("apollo_coldtier_block_bytes_total")));
  put("coldtier.bytes_rewritten_per_sample", "B",
      Ratio(d("apollo_coldtier_block_bytes_total"), samples_a));
  double open_s = 0;
  {
    // Manifest load of every durable topic's tier, as setup pays it.
    auto s = span("layer.coldtier.ColdTier::Open");
    const Ns t0 = NowNs();
    for (std::size_t t = 0; t < kIngTopics + kPubTopics; ++t) {
      const std::string topic = t < kIngTopics ? IngTopic(t)
                                               : PubTopic(t - kIngTopics);
      if (apollo::coldtier::ColdTier* live = svc.cold_tier(topic)) {
        apollo::coldtier::ColdTier fresh(live->base_path());
        (void)fresh.Open();
      }
    }
    open_s = static_cast<double>(NowNs() - t0) / 1e9;
  }
  put("coldtier.open_s", "s", open_s);
  double scan_ns = 0, scan_rows = 0;
  {
    auto s = span("layer.coldtier.ColdTier::ScanRange");
    for (std::size_t i = 0; i < inputs.ranges.size() && i < 400; ++i) {
      apollo::coldtier::ColdTier* tier =
          svc.cold_tier(IngTopic(inputs.range_topics[i]));
      if (tier == nullptr) continue;
      std::uint64_t rows = 0;
      apollo::ColdScanStats stats;
      const Ns t0 = NowNs();
      (void)tier->ScanRange(
          inputs.ranges[i].first, inputs.ranges[i].second,
          [&rows](std::uint64_t, TimeNs, const apollo::Sample&) { ++rows; },
          &stats);
      scan_ns += static_cast<double>(NowNs() - t0);
      scan_rows += static_cast<double>(rows);
    }
  }
  put("coldtier.scan_ns_per_row", "ns", Ratio(scan_ns, scan_rows));
  const double pruned = d("apollo_coldtier_blocks_pruned_total");
  put("coldtier.blocks_pruned_ratio", "ratio",
      Ratio(pruned, pruned + d("apollo_coldtier_blocks_scanned_total")));

  // --- aqe (in-process Executor on A: no wire) --------------------------
  auto exec_median = [&](const std::vector<std::string>& sqls,
                         const std::string& name) {
    if (sqls.empty()) return 0.0;
    auto s = span(name);
    const std::size_t n = std::min<std::size_t>(sqls.size(), 2000);
    return MedianNs(n, [&](std::size_t i) { (void)svc.Query(sqls[i]); });
  };
  const double point_ns =
      exec_median(inputs.point_sql, "layer.aqe.Executor::Execute(point)");
  const double union_us =
      exec_median(inputs.union_sql, "layer.aqe.Executor::Execute(union)") / 1e3;
  const double range_us =
      exec_median(inputs.range_sql, "layer.aqe.Executor::Execute(range)") / 1e3;
  put("aqe.point_execute_ns", "ns", point_ns);
  put("aqe.union_execute_us", "us", union_us);
  put("aqe.range_execute_us", "us", range_us);
  {
    std::vector<std::string> all = inputs.point_sql;
    all.insert(all.end(), inputs.union_sql.begin(), inputs.union_sql.end());
    all.insert(all.end(), inputs.range_sql.begin(), inputs.range_sql.end());
    auto s = span("layer.aqe.Parse");
    put("aqe.parse_ns", "ns",
        all.empty() ? 0.0
                    : MedianNs(std::min<std::size_t>(all.size(), 4000),
                               [&](std::size_t i) {
                                 (void)apollo::aqe::Parse(all[i]);
                               }));
  }
  const double hits = d("apollo_aqe_plan_cache_hits_total");
  put("aqe.plan_cache_hit_ratio", "ratio",
      Ratio(hits, hits + d("apollo_aqe_plan_cache_misses_total")));
  double scanned = 0, returned = 0, wal_rows = 0, cold_rows = 0;
  {
    auto s = span("layer.aqe.Explain(analyze)");
    for (std::size_t i = 0; i < inputs.range_sql.size() && i < 100; ++i) {
      auto profile = svc.Explain(inputs.range_sql[i], /*analyze=*/true);
      if (!profile.ok()) continue;
      for (const auto& v : profile->vertices) {
        scanned += static_cast<double>(v.rows_scanned);
        returned += static_cast<double>(v.rows_returned);
        wal_rows += static_cast<double>(v.archive_rows);
        cold_rows += static_cast<double>(v.cold_rows);
      }
    }
  }
  put("aqe.rows_scanned_per_row_returned", "ratio", Ratio(scanned, returned));
  put("aqe.ring_row_share", "ratio",
      Ratio(std::max(0.0, scanned - wal_rows - cold_rows), scanned));
  put("aqe.wal_row_share", "ratio", Ratio(wal_rows, scanned));
  put("aqe.cold_row_share", "ratio", Ratio(cold_rows, scanned));

  // --- cluster: one scatter leg on a persistent connection, the merge, and
  // the same batch to a non-clustered daemon ------------------------------
  std::vector<std::string> names;
  for (const auto& p : b.peers()) names.push_back(p.name);
  apollo::cluster::PlacementRing ring(names, 64);
  std::vector<std::unique_ptr<ApolloClient>> legs;
  for (const auto& p : b.peers()) {
    apollo::net::ClientConfig config;
    config.port = p.port;
    config.client_name = "leg-" + p.name;
    legs.push_back(std::make_unique<ApolloClient>(config));
  }
  std::vector<double> leg_ns, merge_ns;
  {
    auto s = span("layer.cluster.leg+merge");
    for (std::size_t i = 0; i < inputs.scatter_sql.size() && i < 200; ++i) {
      auto parsed = apollo::aqe::Parse(inputs.scatter_sql[i]);
      if (!parsed.ok()) continue;
      std::vector<apollo::aqe::ResultSet> parts;
      for (std::size_t n = 0; n < names.size(); ++n) {
        const std::string sub = apollo::aqe::ToString(apollo::aqe::FilterQuery(
            *parsed, [&](const std::string& t) {
              return ring.ReplicasFor(t, 2).front() == names[n];
            }));
        const Ns t0 = NowNs();
        auto reply = legs[n]->Query(sub, /*partial=*/true);
        leg_ns.push_back(static_cast<double>(NowNs() - t0));
        if (reply.ok()) parts.push_back(reply->result);
      }
      const Ns t0 = NowNs();
      apollo::aqe::ResultSet merged;
      for (const auto& part : parts) (void)apollo::aqe::MergeResult(merged, part);
      merge_ns.push_back(static_cast<double>(NowNs() - t0));
    }
  }
  const double leg_us = Median(leg_ns) / 1e3;
  const double merge_us = Median(merge_ns) / 1e3;
  put("aqe.scatter_merge_us", "us", merge_us);

  // --- cq: a standalone engine with the workload's registrations --------
  double pump_ns = 0, observer_ns = 0;
  {
    apollo::Broker cq_broker(RealClock::Instance());
    std::set<std::size_t> topics(inputs.cq_topics.begin(),
                                 inputs.cq_topics.end());
    std::vector<apollo::TopicHandle> handles;
    for (std::size_t t : topics) {
      (void)cq_broker.CreateTopic(PubTopic(t), apollo::kLocalNode, kWindow);
      handles.push_back(*cq_broker.Resolve(PubTopic(t)));
    }
    apollo::cq::CQEngine engine(cq_broker);
    cq_broker.AttachPublishObserver(&engine);
    for (std::size_t k = 0; k < inputs.cq_sql.size(); ++k) {
      (void)engine.Register(1, "default", "cq" + std::to_string(k),
                            inputs.cq_sql[k], 0, 0,
                            RealClock::Instance().Now());
    }
    auto emit = [](const apollo::cq::CQInfo&, const apollo::cq::CQUpdate&) {
      return true;
    };
    (void)engine.Pump(RealClock::Instance().Now(), nullptr, emit);  // snapshots
    {
      auto s = span("layer.cq.CQEngine::Pump");
      std::vector<double> per_eval;
      apollo::Sample sample;
      for (std::size_t round = 0; round < 200 && !handles.empty(); ++round) {
        for (auto& handle : handles) {
          sample.timestamp = RealClock::Instance().Now();
          sample.value = static_cast<double>(round);
          (void)cq_broker.Publish(handle, apollo::kLocalNode, sample.timestamp,
                                  sample);
        }
        const Ns t0 = NowNs();
        const std::size_t emitted =
            engine.Pump(RealClock::Instance().Now(), nullptr, emit);
        if (emitted > 0) {
          per_eval.push_back(static_cast<double>(NowNs() - t0) /
                             static_cast<double>(emitted));
        }
      }
      pump_ns = Median(per_eval);
    }
    {
      auto s = span("layer.cq.CQEngine::OnPublish");
      std::vector<std::string> topic_names;
      for (std::size_t t : topics) topic_names.push_back(PubTopic(t));
      if (!topic_names.empty()) {
        observer_ns = MedianPerCallNs(20, 1000, [&](std::size_t i) {
          engine.OnPublish(topic_names[i % topic_names.size()], 1);
        });
      }
    }
    cq_broker.AttachPublishObserver(nullptr);
  }
  const double evals = d("apollo_cq_evals_total");
  const double updates = d("apollo_cq_updates_total");
  put("cq.evals_per_publish", "count",
      Ratio(evals, static_cast<double>(summary.single_publishes)));
  put("cq.updates_per_eval", "count", Ratio(updates, evals));
  put("cq.coalesced_per_update", "count",
      Ratio(d("apollo_cq_coalesced_total"), updates));
  put("cq.push_gap_p50_us", "us", Quantile(summary.push_gap, 0.5).value_or(0.0));
  put("cq.pump_ns_per_eval", "ns", pump_ns);
  put("cq.observer_ns", "ns", observer_ns);
  put("cq.throttled", "count", d("apollo_cq_throttled_total"));
  put("admission.shed", "count", d("apollo_admission_shed_total"));

  double standalone_us = 0;
  {
    apollo::ApolloOptions options;
    options.mode = apollo::ApolloOptions::Mode::kRealTime;
    apollo::ApolloService plain(options);
    for (std::size_t t = 0; t < kClTopics; ++t) {
      (void)plain.broker().CreateTopic(ClTopic(t), apollo::kLocalNode, 4096);
    }
    auto port = plain.StartDaemon({});
    if (port.ok()) {
      apollo::net::ClientConfig config;
      config.port = *port;
      config.client_name = "standalone";
      ApolloClient client(config);
      auto s = span("layer.cluster.standalone_batch");
      std::vector<double> us;
      for (std::size_t i = 0; i < 400; ++i) {
        const PublishBatchMsg m =
            cluster_batches ? Restamp(inputs.cl_batches[i % inputs.cl_batches.size()])
                            : SyntheticClusterBatch(i % kClTopics);
        const Ns t0 = NowNs();
        (void)client.PublishBatch(m);
        us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      }
      standalone_us = Median(us);
      client.Close();
    }
    plain.StopDaemon();
  }
  put("cluster.standalone_batch_ack_us", "us", standalone_us);
  put("cluster.forwarded_share", "ratio",
      Ratio(d("apollo_cluster_forwarded_publishes_total"),
            static_cast<double>(summary.cluster_batches)));
  put("cluster.quorum_failures", "count", d("apollo_cluster_quorum_failures_total"));
  put("cluster.scatter_leg_us", "us", leg_us);

  // --- score / apollo / process / generator -----------------------------
  put("score.hook_calls_per_s", "1/s",
      Ratio(static_cast<double>(summary.hook_calls), summary.wall_s));
  put("score.publish_time_share", "ratio",
      Ratio(static_cast<double>(summary.publish_time_ns),
            static_cast<double>(summary.publish_time_ns + summary.hook_time_ns)));
  put("apollo.deploy_s", "s", summary.deploy_s);
  put("apollo.start_daemon_s", "s", summary.start_daemon_s);
  put("process.cpu_util", "ratio", summary.cpu_util);
  put("gen.late_p99_us", "us", Quantile(summary.late, 0.99).value_or(0.0));
  put("gen.closed_loop_samples_per_s", "samples/s",
      summary.closed_loop_samples_per_s);
  put("obs.trace_overhead_pct", "%", summary.trace_overhead_pct);

  // --- breakdown: each path's traced end-to-end median, the layers on its
  // blocking path, and the remainder no layer accounts for ---------------
  const double n_batch = static_cast<double>(summary.batch_samples);
  const double wal_share_ns = evictions * wal_ns;
  layer_us["batch"] =
      cluster_batches
          ? standalone_us
          : ping_us + n_batch * (codec_ns + batch_ns + wal_share_ns) / 1e3;
  layer_us["publish"] = ping_us + (publish_ns + observer_ns + wal_share_ns) / 1e3;
  layer_us["point_query"] = ping_us + 0.95 * point_ns / 1e3 + 0.05 * union_us;
  layer_us["range_query"] = ping_us + range_us;
  layer_us["scatter_query"] = leg_us + merge_us;
  layer_us["cq_lag"] =
      pump_ns * Ratio(static_cast<double>(inputs.cq_sql.size()),
                      static_cast<double>(kPubTopics)) /
          1e3 +
      ping_us / 2;
  for (const char* path : {"batch", "publish", "point_query", "range_query",
                           "scatter_query", "cq_lag"}) {
    const double e2e = summary.e2e_p50_us.at(path);
    put(std::string("breakdown.") + path + ".e2e_p50_us", "us", e2e);
    put(std::string("breakdown.") + path + ".layers_us", "us", layer_us[path]);
    put(std::string("breakdown.") + path + ".remainder_us", "us",
        e2e - layer_us[path]);
  }
  spans.enabled.store(false);
  std::error_code ec;
  std::filesystem::remove_all(scratch_dir, ec);
  return out;
}

}  // namespace e2e
