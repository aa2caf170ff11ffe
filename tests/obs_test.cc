// Observability layer tests: metrics registry semantics, exposition
// grouping, a golden test of the components' health counters (names and
// HELP text), LatencyHistogram percentile/merge edge cases, and span
// tracing (Chrome trace JSON export verified through a real JSON parser,
// deterministic under SimClock, and a multithreaded recording stress leg
// named ObsStress* so the tsan preset picks it up).
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apollo/apollo_service.h"
#include "common/clock.h"
#include "common/histogram.h"
#include "net/client.h"
#include "net/remote_query.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace apollo {
namespace {

// --- minimal JSON parser (only what the trace golden test needs) ---

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool b = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue& at(const std::string& key) const {
    static const JsonValue kNullValue;
    auto it = object.find(key);
    return it == object.end() ? kNullValue : it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool Parse(JsonValue& out) {
    SkipWs();
    if (!ParseValue(out)) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool Eat(char c) {
    SkipWs();
    if (pos_ >= s_.size() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  bool ParseValue(JsonValue& out) {
    SkipWs();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out.type = JsonValue::Type::kString;
      return ParseString(out.str);
    }
    if (s_.compare(pos_, 4, "true") == 0) {
      out.type = JsonValue::Type::kBool;
      out.b = true;
      pos_ += 4;
      return true;
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      out.type = JsonValue::Type::kBool;
      pos_ += 5;
      return true;
    }
    if (s_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return true;
    }
    return ParseNumber(out);
  }
  bool ParseObject(JsonValue& out) {
    out.type = JsonValue::Type::kObject;
    if (!Eat('{')) return false;
    SkipWs();
    if (Eat('}')) return true;
    while (true) {
      std::string key;
      SkipWs();
      if (!ParseString(key)) return false;
      if (!Eat(':')) return false;
      JsonValue value;
      if (!ParseValue(value)) return false;
      out.object.emplace(std::move(key), std::move(value));
      if (Eat(',')) continue;
      return Eat('}');
    }
  }
  bool ParseArray(JsonValue& out) {
    out.type = JsonValue::Type::kArray;
    if (!Eat('[')) return false;
    SkipWs();
    if (Eat(']')) return true;
    while (true) {
      JsonValue value;
      if (!ParseValue(value)) return false;
      out.array.push_back(std::move(value));
      if (Eat(',')) continue;
      return Eat(']');
    }
  }
  bool ParseString(std::string& out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    out.clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        const char esc = s_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return false;
            const unsigned code =
                std::stoul(s_.substr(pos_, 4), nullptr, 16);
            pos_ += 4;
            c = static_cast<char>(code);  // tests only emit ASCII escapes
            break;
          }
          default: c = esc; break;
        }
      }
      out.push_back(c);
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool ParseNumber(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '-' || s_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out.type = JsonValue::Type::kNumber;
    out.number = std::stod(s_.substr(start, pos_ - start));
    return true;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// --- metrics registry ---

TEST(MetricsRegistry, CounterSameNameSharesCell) {
  obs::MetricsRegistry registry;
  obs::Counter a = registry.GetCounter("requests_total", "help");
  obs::Counter b = registry.GetCounter("requests_total");
  a.Inc();
  b.Inc(4);
  EXPECT_EQ(a.Value(), 5u);
  EXPECT_EQ(b.Value(), 5u);
  EXPECT_EQ(registry.MetricCount(), 1u);
}

TEST(MetricsRegistry, LabelsDistinguishInstances) {
  obs::MetricsRegistry registry;
  obs::Counter a =
      registry.GetCounter("rpc_total", "", {{"method", "publish"}});
  obs::Counter b = registry.GetCounter("rpc_total", "", {{"method", "fetch"}});
  a.Inc(2);
  b.Inc(3);
  EXPECT_EQ(a.Value(), 2u);
  EXPECT_EQ(b.Value(), 3u);
  EXPECT_EQ(registry.MetricCount(), 2u);
}

TEST(MetricsRegistry, KindMismatchReturnsUnboundHandle) {
  obs::MetricsRegistry registry;
  obs::Counter counter = registry.GetCounter("dual_use");
  EXPECT_TRUE(counter.bound());
  obs::Gauge gauge = registry.GetGauge("dual_use");
  EXPECT_FALSE(gauge.bound());
  gauge.Set(7.0);  // dropped, not crashed
  EXPECT_EQ(gauge.Value(), 0.0);
}

TEST(MetricsRegistry, UnboundHandlesNoOp) {
  obs::Counter counter;
  obs::Gauge gauge;
  obs::Histogram histogram;
  counter.Inc();
  gauge.Set(1.0);
  histogram.Record(10);
  EXPECT_EQ(counter.Value(), 0u);
  EXPECT_EQ(histogram.Count(), 0u);
}

TEST(MetricsRegistry, GaugeStoresDoubles) {
  obs::MetricsRegistry registry;
  obs::Gauge gauge = registry.GetGauge("temperature", "degrees");
  gauge.Set(36.5);
  EXPECT_DOUBLE_EQ(gauge.Value(), 36.5);
  gauge.Add(-0.5);
  EXPECT_DOUBLE_EQ(gauge.Value(), 36.0);
  gauge.Set(-273.15);
  EXPECT_DOUBLE_EQ(gauge.Value(), -273.15);
}

TEST(MetricsRegistry, HistogramSnapshotMatchesLatencyHistogram) {
  obs::MetricsRegistry registry;
  obs::Histogram histogram = registry.GetHistogram("lat_ns");
  LatencyHistogram reference;
  for (std::int64_t v : {1, 3, 17, 1000, 250000, 7}) {
    histogram.Record(v);
    reference.Record(v);
  }
  LatencyHistogram snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.Count(), reference.Count());
  EXPECT_EQ(snapshot.MinNs(), reference.MinNs());
  EXPECT_EQ(snapshot.MaxNs(), reference.MaxNs());
  EXPECT_DOUBLE_EQ(snapshot.MeanNs(), reference.MeanNs());
  for (double p : {0.0, 50.0, 90.0, 99.0, 100.0}) {
    EXPECT_EQ(snapshot.PercentileNs(p), reference.PercentileNs(p)) << p;
  }
}

TEST(MetricsRegistry, PrometheusExposition) {
  obs::MetricsRegistry registry;
  registry.GetCounter("events_total", "Things that happened").Inc(3);
  registry.GetGauge("level", "Current level").Set(1.5);
  registry.GetCounter("tagged_total", "", {{"kind", "a\"b"}}).Inc();
  obs::Histogram histogram = registry.GetHistogram("dur_ns", "Durations");
  histogram.Record(1);
  histogram.Record(3);  // bucket le="3"
  const std::string text = registry.RenderPrometheus();

  EXPECT_NE(text.find("# HELP events_total Things that happened"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE events_total counter"), std::string::npos);
  EXPECT_NE(text.find("events_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE level gauge"), std::string::npos);
  EXPECT_NE(text.find("level 1.5"), std::string::npos);
  EXPECT_NE(text.find("tagged_total{kind=\"a\\\"b\"} 1"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dur_ns histogram"), std::string::npos);
  // Cumulative buckets: the value 1 lands in le="1"; both samples are
  // <= 3, and +Inf always carries the full count.
  EXPECT_NE(text.find("dur_ns_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("dur_ns_bucket{le=\"3\"} 2"), std::string::npos);
  EXPECT_NE(text.find("dur_ns_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("dur_ns_sum 4"), std::string::npos);
  EXPECT_NE(text.find("dur_ns_count 2"), std::string::npos);
}

TEST(MetricsRegistry, ResetAllZeroes) {
  obs::MetricsRegistry registry;
  obs::Counter counter = registry.GetCounter("c");
  obs::Histogram histogram = registry.GetHistogram("h");
  counter.Inc(9);
  histogram.Record(500);
  registry.ResetAllForTest();
  EXPECT_EQ(counter.Value(), 0u);
  EXPECT_EQ(histogram.Count(), 0u);
  // Min/max state must also reset: a fresh sample re-seeds the minimum.
  histogram.Record(123);
  EXPECT_EQ(histogram.Snapshot().MinNs(), 123);
}

// --- Prometheus exposition: one header per family ---

// Per-tenant counters register {a} instances, then {b} instances later,
// interleaved with another family. Each family must still get exactly one
// # TYPE line, with all of its samples directly below it.
TEST(MetricsRegistry, ExpositionGroupsInterleavedFamilies) {
  obs::MetricsRegistry registry;
  registry.GetCounter("admitted_total", "Admitted", {{"tenant", "a"}}).Inc(1);
  registry.GetCounter("shed_total", "Shed", {{"tenant", "a"}}).Inc(2);
  registry.GetHistogram("latency_ns", "Latency").Record(100);
  registry.GetCounter("admitted_total", "Admitted", {{"tenant", "b"}}).Inc(3);
  registry.GetCounter("shed_total", "Shed", {{"tenant", "b"}}).Inc(4);

  std::vector<std::string> types;
  std::map<std::string, std::vector<std::size_t>> sample_lines;
  std::map<std::string, std::size_t> header_line;
  std::istringstream in(registry.RenderPrometheus());
  std::string line;
  std::string family;
  for (std::size_t n = 0; std::getline(in, line); ++n) {
    if (line.rfind("# TYPE ", 0) == 0) {
      family = line.substr(7, line.find(' ', 7) - 7);
      types.push_back(family);
      header_line[family] = n;
    } else if (line[0] != '#') {
      // A sample belongs to the family whose name prefixes it.
      ASSERT_EQ(line.rfind(family, 0), 0u) << line << " after " << family;
      sample_lines[family].push_back(n);
    }
  }
  EXPECT_EQ(types, (std::vector<std::string>{"admitted_total", "shed_total",
                                              "latency_ns"}));
  for (const std::string& name : types) {
    const std::vector<std::size_t>& lines = sample_lines[name];
    ASSERT_FALSE(lines.empty()) << name;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      EXPECT_EQ(lines[i], header_line[name] + 1 + i) << name;
    }
  }
  EXPECT_EQ(sample_lines["admitted_total"].size(), 2u);
  EXPECT_EQ(sample_lines["shed_total"].size(), 2u);
}

// --- golden exposition of the components' own health counters ---

// Reserves `n` distinct loopback ports: all are bound before any closes,
// so the kernel cannot hand one out twice.
std::vector<std::uint16_t> PickFreePorts(std::size_t n) {
  std::vector<int> fds;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
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

// Name and HELP text of every broker, archive, vertex, stream, network and
// cluster health counter. Dashboards and the end-to-end benchmark read
// these by name, so neither may change.
const std::vector<std::pair<std::string, std::string>> kHealthCounters = {
    {"apollo_publishes_total", "Broker publishes attempted"},
    {"apollo_publish_drops_total", "Publishes dropped by injected faults"},
    {"apollo_publish_retries_total", "Publish backoff retries"},
    {"apollo_publish_failures_total", "Publishes failed after retries"},
    {"apollo_fetch_timeouts_total", "Fetches timed out by injected faults"},
    {"apollo_fetch_retries_total", "Fetch backoff retries"},
    {"apollo_fetch_failures_total", "Fetches failed after retries"},
    {"apollo_archive_writes_total", "Archive records appended"},
    {"apollo_archive_retries_total", "Archive append backoff retries"},
    {"apollo_archive_write_failures_total",
     "Archive appends failed after retries"},
    {"apollo_archive_write_errors_total",
     "Archive write/flush/fsync errors before retry"},
    {"apollo_archive_fsyncs_total", "Archive segment fsyncs issued"},
    {"apollo_archive_fsync_failures_total", "Archive segment fsync failures"},
    {"apollo_archive_rotations_total", "Archive segment rotations"},
    {"apollo_archive_read_errors_total",
     "Archive scans that failed on the query path"},
    {"apollo_archive_recovered_records_total",
     "Valid records recovered by startup WAL scans"},
    {"apollo_archive_truncated_bytes_total",
     "Torn/corrupt tail bytes truncated at startup"},
    {"apollo_archive_corrupt_segments_total",
     "Segments with any truncation or quarantine"},
    {"apollo_archive_quarantined_segments_total",
     "Segments renamed *.corrupt on open"},
    {"apollo_vertex_crashes_total", "SCoRe vertex crashes observed"},
    {"apollo_vertex_stalls_total", "Silent vertex stalls converted to crashes"},
    {"apollo_vertex_restarts_total", "Supervisor restarts issued"},
    {"apollo_vertex_give_ups_total", "Vertices given up on after max restarts"},
    {"apollo_degraded_marked_total", "Streams marked degraded"},
    {"apollo_degraded_cleared_total", "Streams cleared from degraded"},
    {"apollo_stream_evictions_total", "Window entries evicted to an archiver"},
    {"apollo_net_bytes_sent_total", "Wire bytes written to sockets"},
    {"apollo_net_bytes_received_total", "Wire bytes read from sockets"},
    {"apollo_net_messages_sent_total", "Wire frames sent"},
    {"apollo_net_messages_received_total",
     "Wire frames received and dispatched"},
    {"apollo_net_connections_opened_total",
     "Connections accepted or established"},
    {"apollo_net_connections_closed_total", "Connections closed (any reason)"},
    {"apollo_net_conn_drops_total",
     "Connections dropped by injected kConnDrop faults"},
    {"apollo_net_send_failures_total",
     "Frame sends failed (injected or socket error)"},
    {"apollo_net_recv_drops_total",
     "Received frames dropped by injected kNetRecv faults"},
    {"apollo_net_protocol_errors_total",
     "Connections closed on bad magic/version/CRC"},
    {"apollo_net_backpressure_skips_total",
     "Subscription deliveries skipped: outbound queue full"},
    {"apollo_net_idle_closes_total", "Connections reaped by the idle timeout"},
    {"apollo_net_node_timeouts_total",
     "Scatter-gather node queries past their deadline"},
    {"apollo_net_degraded_fallbacks_total",
     "Node answers served from last-known-good cache"},
    {"apollo_net_batch_publishes_total",
     "Batch publish frames handled by daemons"},
    {"apollo_net_batch_samples_total",
     "Samples carried in batch publish frames"},
    {"apollo_net_batch_decode_errors_total",
     "Batch publish frames rejected before handoff"},
    {"apollo_net_batch_sample_errors_total",
     "Per-sample batch failures reported in ack bitmaps"},
    {"apollo_net_shm_attaches_total",
     "Shared-memory ingest lanes accepted by daemons"},
    {"apollo_net_shm_attach_failures_total",
     "Shared-memory lane handshakes refused or failed"},
    {"apollo_net_shm_samples_total",
     "Samples drained from shared-memory ingest rings"},
    {"apollo_net_shm_fallbacks_total",
     "Samples rerouted to TCP because the shm lane was full or down"},
    {"apollo_net_shm_orphans_reaped_total",
     "Orphaned shm lane segments unlinked after their producer died"},
    {"apollo_cluster_heartbeats_sent_total", "Membership probes sent to peers"},
    {"apollo_cluster_heartbeat_failures_total",
     "Membership probe round-trips that failed or were dropped"},
    {"apollo_cluster_peer_suspects_total",
     "Peer transitions from alive to suspect"},
    {"apollo_cluster_peer_deaths_total",
     "Peer transitions to dead (failed over)"},
    {"apollo_cluster_peer_recoveries_total",
     "Dead peers observed again (restart or partition heal)"},
    {"apollo_cluster_map_pushes_total",
     "Cluster map pushes to connected clients on membership change"},
    {"apollo_cluster_forwarded_publishes_total",
     "Publish runs proxied to the topic's primary"},
    {"apollo_cluster_replication_batches_total",
     "Replicate round-trips sent to secondaries"},
    {"apollo_cluster_replication_failures_total",
     "Replicate round-trips that failed or were refused"},
    {"apollo_cluster_quorum_failures_total",
     "Publish runs NACKed because the write quorum was not met"},
    {"apollo_cluster_resync_topics_total",
     "Topics caught up from a peer during resync"},
    {"apollo_cluster_resync_entries_total",
     "Entries copied from peers during resync"},
};

// The stack `apollod --cluster --archive-dir` builds, two nodes, plus one
// fact vertex (cluster mode deploys none; vertices own the crash and
// degraded counters). After one publish, one query and one scatter, each
// component has registered its counters: all of them are exported once,
// as counters, with their HELP text.
TEST(MetricsGolden, ClusterStackExportsEveryHealthCounter) {
  const std::string dir = testing::TempDir() + "/obs_golden_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  const auto ports = PickFreePorts(2);
  std::vector<net::ClusterPeer> peers(2);
  for (std::size_t i = 0; i < 2; ++i) {
    peers[i].name = "node" + std::to_string(i);
    peers[i].port = ports[i];
  }
  std::vector<std::unique_ptr<ApolloService>> nodes;
  for (std::size_t i = 0; i < 2; ++i) {
    ApolloOptions options;
    options.mode = ApolloOptions::Mode::kRealTime;
    options.archive_dir = dir + "/" + peers[i].name;
    options.coldtier_enabled = true;
    auto node = std::make_unique<ApolloService>(options);
    if (i == 0) {
      MonitorHook hook{"golden.metric", [](TimeNs) { return 1.0; }, 0};
      ASSERT_TRUE(node->DeployFact(hook).ok());
    }
    ASSERT_TRUE(node->Start().ok());
    net::DaemonConfig config;
    config.server.port = ports[i];
    config.server.server_name = peers[i].name;
    config.cluster.enabled = true;
    config.cluster.self = peers[i].name;
    config.cluster.members = peers;
    config.cluster.heartbeat_interval = Millis(50);
    ASSERT_TRUE(node->StartDaemon(config).ok());
    nodes.push_back(std::move(node));
  }

  net::ClientConfig client_config;
  client_config.port = ports[0];
  client_config.client_name = "golden";
  net::ApolloClient client(client_config);
  (void)client.Publish("golden.topic", 1, Sample{1, 2.0});
  (void)client.Query("SELECT COUNT(*) FROM golden.topic");
  net::RemoteQueryOptions scatter_options;
  scatter_options.cluster_mode = true;
  net::RemoteQueryEngine scatter(
      {{peers[0].name, "127.0.0.1", ports[0]},
       {peers[1].name, "127.0.0.1", ports[1]}},
      scatter_options);
  (void)scatter.Execute("SELECT COUNT(*) FROM golden.topic");

  const std::string text = obs::MetricsRegistry::Global().RenderPrometheus();
  for (const auto& [name, help] : kHealthCounters) {
    const std::string header =
        "# HELP " + name + " " + help + "\n# TYPE " + name + " counter\n";
    const std::size_t at = text.find(header);
    if (at == std::string::npos) {
      ADD_FAILURE() << name << " is missing or its HELP text changed";
      continue;
    }
    EXPECT_EQ(text.find("# TYPE " + name + " ", at + header.size()),
              std::string::npos)
        << name << " has a second header";
  }
  client.Close();
  for (auto& node : nodes) {
    node->StopDaemon();
    node->Stop();
  }
  std::filesystem::remove_all(dir);
}

// --- LatencyHistogram edge cases ---

TEST(LatencyHistogramEdge, EmptyHistogram) {
  LatencyHistogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.MinNs(), 0);
  EXPECT_EQ(h.MaxNs(), 0);
  EXPECT_EQ(h.PercentileNs(0), 0);
  EXPECT_EQ(h.PercentileNs(50), 0);
  EXPECT_EQ(h.PercentileNs(100), 0);
}

TEST(LatencyHistogramEdge, SingleSample) {
  LatencyHistogram h;
  h.Record(1000);
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_EQ(h.MinNs(), 1000);
  EXPECT_EQ(h.MaxNs(), 1000);
  EXPECT_EQ(h.PercentileNs(0), 1000);  // p=0 is the exact minimum
  // Other ranks resolve to the lower bound of the sample's bucket
  // (512 <= 1000 < 1024).
  EXPECT_EQ(h.PercentileNs(50), 512);
  EXPECT_EQ(h.PercentileNs(100), 512);
}

TEST(LatencyHistogramEdge, PercentileZeroReturnsExactMin) {
  LatencyHistogram h;
  h.Record(5);
  h.Record(1000000);
  // Bucket lower bound would be 4; p=0 must report the true minimum.
  EXPECT_EQ(h.PercentileNs(0), 5);
  EXPECT_EQ(h.PercentileNs(-10), 5);  // clamped
}

TEST(LatencyHistogramEdge, PercentileHundredCoversMax) {
  LatencyHistogram h;
  for (int i = 1; i <= 100; ++i) h.Record(i);
  // p=100's bucket holds the max sample; above 100 clamps.
  EXPECT_EQ(h.PercentileNs(100), 64);  // 64 <= 100 < 128
  EXPECT_EQ(h.PercentileNs(1000), h.PercentileNs(100));
  EXPECT_LE(h.PercentileNs(100), h.MaxNs());
}

TEST(LatencyHistogramEdge, MergeDisjointRanges) {
  LatencyHistogram low;
  for (std::int64_t v : {2, 3, 5, 7}) low.Record(v);
  LatencyHistogram high;
  for (std::int64_t v : {1 << 20, 1 << 21}) high.Record(v);

  LatencyHistogram merged = low;
  merged.Merge(high);
  EXPECT_EQ(merged.Count(), 6u);
  EXPECT_EQ(merged.MinNs(), 2);
  EXPECT_EQ(merged.MaxNs(), 1 << 21);
  EXPECT_EQ(merged.PercentileNs(0), 2);
  // The two high samples sit above the 4 low ones: p=99 lands in the top
  // bucket range.
  EXPECT_GE(merged.PercentileNs(99), 1 << 20);

  // Merge order must not matter for the stats.
  LatencyHistogram reversed = high;
  reversed.Merge(low);
  EXPECT_EQ(reversed.Count(), merged.Count());
  EXPECT_EQ(reversed.MinNs(), merged.MinNs());
  EXPECT_EQ(reversed.MaxNs(), merged.MaxNs());
}

TEST(LatencyHistogramEdge, MergeWithEmpty) {
  LatencyHistogram h;
  h.Record(10);
  LatencyHistogram empty;
  h.Merge(empty);  // no-op
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_EQ(h.MinNs(), 10);
  empty.Merge(h);  // empty adopts h's stats
  EXPECT_EQ(empty.Count(), 1u);
  EXPECT_EQ(empty.MinNs(), 10);
  EXPECT_EQ(empty.MaxNs(), 10);
}

TEST(LatencyHistogramEdge, FromBucketsRoundTrip) {
  std::uint64_t buckets[64] = {0};
  buckets[0] = 2;   // two samples <= 1
  buckets[10] = 1;  // one sample in [1024, 2048)
  LatencyHistogram h = LatencyHistogram::FromBuckets(
      buckets, 64, /*sum_ns=*/1502, /*min_ns=*/1, /*max_ns=*/1500);
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_EQ(h.MinNs(), 1);
  EXPECT_EQ(h.MaxNs(), 1500);
  EXPECT_EQ(h.PercentileNs(100), 1024);

  LatencyHistogram empty = LatencyHistogram::FromBuckets(
      buckets, 0, /*sum_ns=*/99, /*min_ns=*/INT64_MAX, /*max_ns=*/0);
  EXPECT_EQ(empty.Count(), 0u);
  EXPECT_EQ(empty.MinNs(), 0);
}

// --- span tracing ---

class TraceTest : public testing::Test {
 protected:
  void SetUp() override {
    obs::TraceRecorder::Global().Disable();
    obs::TraceRecorder::Global().Clear();
  }
  void TearDown() override {
    obs::TraceRecorder::Global().Disable();
    obs::TraceRecorder::Global().SetClock(nullptr);
    obs::TraceRecorder::Global().Clear();
  }
};

TEST_F(TraceTest, DisabledTracingRecordsNothing) {
  const std::uint64_t before = obs::TraceRecorder::Global().TotalRecorded();
  {
    TRACE_SPAN("noop");
  }
  EXPECT_EQ(obs::TraceRecorder::Global().TotalRecorded(), before);
}

TEST_F(TraceTest, SimClockSpansAreDeterministic) {
  auto& recorder = obs::TraceRecorder::Global();
  SimClock clock(Seconds(100));
  recorder.SetClock(&clock);
  recorder.Enable();
  {
    obs::TraceSpan outer("outer", "topic-a");
    clock.AdvanceBy(Millis(10));
    {
      obs::TraceSpan inner("inner");
      clock.AdvanceBy(Millis(5));
    }
    clock.AdvanceBy(Millis(1));
  }
  recorder.Disable();
  ASSERT_EQ(recorder.SpanCount(), 2u);

  JsonValue root;
  const std::string json = recorder.ExportChromeTrace();
  ASSERT_TRUE(JsonParser(json).Parse(root)) << json;
  const JsonValue& events = root.at("traceEvents");
  ASSERT_EQ(events.type, JsonValue::Type::kArray);
  ASSERT_EQ(events.array.size(), 2u);

  // Events are sorted by start time: outer first.
  const JsonValue& outer = events.array[0];
  const JsonValue& inner = events.array[1];
  EXPECT_EQ(outer.at("name").str, "outer");
  EXPECT_EQ(outer.at("ph").str, "X");
  EXPECT_EQ(outer.at("cat").str, "apollo");
  EXPECT_EQ(inner.at("name").str, "inner");

  // Virtual-clock determinism: exact microsecond values, not wall time.
  EXPECT_DOUBLE_EQ(outer.at("ts").number, 100e6);         // t=100s in us
  EXPECT_DOUBLE_EQ(outer.at("dur").number, 16e3);         // 16ms
  EXPECT_DOUBLE_EQ(inner.at("ts").number, 100e6 + 10e3);  // +10ms
  EXPECT_DOUBLE_EQ(inner.at("dur").number, 5e3);          // 5ms

  // Nesting: inner is contained in outer on the same tid, one level down.
  EXPECT_EQ(outer.at("tid").number, inner.at("tid").number);
  EXPECT_LE(outer.at("ts").number, inner.at("ts").number);
  EXPECT_GE(outer.at("ts").number + outer.at("dur").number,
            inner.at("ts").number + inner.at("dur").number);
  EXPECT_DOUBLE_EQ(outer.at("args").at("depth").number, 0.0);
  EXPECT_DOUBLE_EQ(inner.at("args").at("depth").number, 1.0);
  EXPECT_EQ(outer.at("args").at("detail").str, "topic-a");
}

TEST_F(TraceTest, ExportEscapesAndTruncatesDetail) {
  auto& recorder = obs::TraceRecorder::Global();
  SimClock clock;
  recorder.SetClock(&clock);
  recorder.Enable();
  const std::string long_detail(100, 'x');
  {
    obs::TraceSpan span("quoted", "say \"hi\"\n");
  }
  {
    obs::TraceSpan span("long", long_detail);
  }
  recorder.Disable();
  JsonValue root;
  ASSERT_TRUE(JsonParser(recorder.ExportChromeTrace()).Parse(root));
  const auto& events = root.at("traceEvents").array;
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at("args").at("detail").str, "say \"hi\"\n");
  // Details are truncated into the fixed span slot, never dropped.
  const std::string& truncated = events[1].at("args").at("detail").str;
  EXPECT_EQ(truncated.size(), obs::SpanRecord::kDetailCapacity - 1);
  EXPECT_EQ(truncated, long_detail.substr(0, truncated.size()));
}

TEST_F(TraceTest, RingOverwritesOldestSpans) {
  auto& recorder = obs::TraceRecorder::Global();
  SimClock clock;
  recorder.SetClock(&clock);
  recorder.Enable();
  const std::size_t n = obs::TraceRecorder::kRingCapacity + 100;
  for (std::size_t i = 0; i < n; ++i) {
    obs::TraceSpan span("spin");
    clock.AdvanceBy(1);
  }
  recorder.Disable();
  EXPECT_EQ(recorder.SpanCount(), obs::TraceRecorder::kRingCapacity);
  EXPECT_GE(recorder.TotalRecorded(), n);
  // The retained window is the newest spans; the oldest 100 are gone.
  JsonValue root;
  ASSERT_TRUE(JsonParser(recorder.ExportChromeTrace()).Parse(root));
  const auto& events = root.at("traceEvents").array;
  ASSERT_EQ(events.size(), obs::TraceRecorder::kRingCapacity);
  double prev_ts = -1;
  for (const JsonValue& event : events) {
    EXPECT_GE(event.at("ts").number, prev_ts);  // sorted by start
    prev_ts = event.at("ts").number;
  }
}

// Multithreaded span recording under the tsan preset (name matches the
// Stress filter): concurrent recorders on distinct rings while an exporter
// repeatedly snapshots them.
TEST(ObsStressTest, ConcurrentSpanRecordingAndExport) {
  auto& recorder = obs::TraceRecorder::Global();
  recorder.Clear();
  recorder.Enable();
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 20000;
  std::atomic<bool> stop{false};

  std::thread exporter([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::string json = recorder.ExportChromeTrace();
      ASSERT_FALSE(json.empty());
      (void)recorder.SpanCount();
    }
  });

  std::vector<std::thread> workers;
  const std::uint64_t before = recorder.TotalRecorded();
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        TRACE_SPAN("stress.outer", "w");
        TRACE_SPAN("stress.inner");
      }
    });
  }
  for (auto& w : workers) w.join();
  stop.store(true, std::memory_order_release);
  exporter.join();
  recorder.Disable();

  EXPECT_EQ(recorder.TotalRecorded() - before,
            static_cast<std::uint64_t>(kThreads) * kSpansPerThread * 2);
  JsonValue root;
  ASSERT_TRUE(JsonParser(recorder.ExportChromeTrace()).Parse(root));
  EXPECT_GT(root.at("traceEvents").array.size(), 0u);
  recorder.Clear();
}

// Concurrent counter bumps land exactly (relaxed atomics, one cell).
TEST(ObsStressTest, ConcurrentCounterIncrements) {
  obs::MetricsRegistry registry;
  obs::Counter counter = registry.GetCounter("stress_total");
  obs::Histogram histogram = registry.GetHistogram("stress_ns");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 50000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry, &counter, &histogram] {
      // Half the threads re-resolve their handle mid-flight, racing
      // registration against updates.
      obs::Counter local = registry.GetCounter("stress_total");
      for (int i = 0; i < kIncrements; ++i) {
        local.Inc();
        histogram.Record(i % 1024);
      }
      (void)counter;
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(counter.Value(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
  EXPECT_EQ(histogram.Count(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
}

}  // namespace
}  // namespace apollo
