// Declarations shared by the benchmark program (main.cc) and the traced
// per-layer measurements (layers.cc).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gen.h"
#include "net/messages.h"
#include "topology.h"

namespace e2e {

// Process-global registry as name{labels} -> value, parsed from its
// Prometheus text exposition.
using RegistrySnapshot = std::map<std::string, double>;
RegistrySnapshot SnapshotRegistry();
// Sum over every label set of `name` in after - before.
double Delta(const RegistrySnapshot& before, const RegistrySnapshot& after,
             const std::string& name);
// Upper bound (ns) of the log2 bucket holding quantile q of the histogram
// observations added between the snapshots; 0 when there were none.
double HistogramDeltaQuantileNs(const RegistrySnapshot& before,
                                const RegistrySnapshot& after,
                                const std::string& name, double q);

// Inputs the generator produced, replayed against single layers.
struct LayerInputs {
  std::vector<apollo::net::PublishBatchMsg> batches;  // to A (ingest)
  std::vector<apollo::net::PublishBatchMsg> cl_batches;  // to the cluster
  std::vector<std::string> point_sql;
  std::vector<std::string> union_sql;
  std::vector<std::string> range_sql;
  std::vector<std::pair<TimeNs, TimeNs>> ranges;  // of range_sql, in order
  std::vector<std::size_t> range_topics;
  std::vector<std::string> scatter_sql;
  std::vector<std::string> cq_sql;  // one per registered CQ
  std::vector<std::size_t> cq_topics;
  std::vector<apollo::net::CQUpdateMsg> cq_updates;  // a sample as received
};

// What the traced run measured end to end plus the counts the per-layer
// ratios divide by.
struct TracedSummary {
  std::map<std::string, double> e2e_p50_us;  // traced p50 by path name
  std::uint64_t samples_acked_a = 0;    // batch + single samples on node A
  std::uint64_t single_publishes = 0;
  std::uint64_t scatter_queries = 0;
  std::uint64_t cluster_batches = 0;
  std::uint64_t all_samples_acked = 0;
  std::size_t batch_samples = 0;  // samples per batch on the batch path
  double closed_loop_samples_per_s = 0;
  double compact_failures = 0;  // over the whole run, final compaction too
  double wall_s = 0;
  LatencyLog post_wait, ping_rtt, push_gap, late;
  double cpu_util = 0;
  double trace_overhead_pct = 0;
  std::uint64_t hook_calls = 0;
  std::int64_t hook_time_ns = 0, publish_time_ns = 0;
  double recover_s = 0, deploy_s = 0, start_daemon_s = 0;
  std::uint64_t recovered_records = 0;
};

struct LayerMetric {
  std::string name;
  std::string unit;
  double value = 0;
};

// Times each module's public entry points on `inputs` (in-process, and on
// the wire only where the metric is about the wire), turns registry deltas
// over the generator phase into per-layer ratios, and puts each path's
// traced end-to-end median beside the layers on its blocking path and the
// remainder they leave. Layer calls are recorded as spans in `spans`.
std::vector<LayerMetric> MeasureLayers(
    Standalone& a, ClusterPair& b, const LayerInputs& inputs,
    const TracedSummary& summary, const RegistrySnapshot& before,
    const RegistrySnapshot& after, const std::string& scratch_dir,
    SpanLog& spans);

}  // namespace e2e
