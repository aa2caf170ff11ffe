// Insight Vertex — SCoRe's inner/sink vertices (§3.1, §3.2).
//
// Subscribes (pull-based, per the paper's "pull mechanism" design note) to
// one or more upstream streams — Facts or other Insights — and combines
// their latest values into a new Insight via an InsightFn, publishing into
// its own dedicated queue. Like Fact Vertices, an optional Delphi predictor
// can fill in predicted Insights between pulls.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/expected.h"
#include "common/fault.h"
#include "delphi/predictor.h"
#include "eventloop/event_loop.h"
#include "obs/metrics.h"
#include "pubsub/broker.h"
#include "score/vertex_stats.h"

namespace apollo {

// Combines the most recent value of each upstream topic (ordered as in
// `upstream`) into the insight value. Entries without data yet are NaN.
using InsightFn =
    std::function<double(const std::vector<double>& latest, TimeNs now)>;

// Common aggregations.
InsightFn SumInsight();
InsightFn MeanInsight();
InsightFn MinInsight();
InsightFn MaxInsight();

struct InsightVertexConfig {
  std::string topic;
  NodeId node = kLocalNode;
  std::vector<std::string> upstream;
  TimeNs pull_interval = Seconds(1);
  std::size_t queue_capacity = 4096;
  bool publish_only_on_change = true;
  TimeNs prediction_granularity = 0;
  // Publish retry policy; upstream fetches retry with the same policy.
  RetryPolicy publish_retry;
};

class InsightVertex {
 public:
  InsightVertex(Broker& broker, InsightFn fn, InsightVertexConfig config,
                const delphi::DelphiModel* delphi = nullptr,
                Archiver<Sample>* archiver = nullptr);

  ~InsightVertex();

  InsightVertex(const InsightVertex&) = delete;
  InsightVertex& operator=(const InsightVertex&) = delete;

  Status Deploy(EventLoop& loop);
  void Undeploy();

  // --- supervision surface (see FactVertex for semantics) ---
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }
  TimeNs last_fire() const {
    return last_fire_.load(std::memory_order_acquire);
  }
  TimeNs ExpectedFireInterval() const;
  void ForceCrash();
  Status Restart();

  const std::string& topic() const { return config_.topic; }
  NodeId node() const { return config_.node; }
  const std::vector<std::string>& upstream() const {
    return config_.upstream;
  }
  const VertexStats& stats() const { return stats_; }

  // Latest computed insight value (NaN until all upstreams have produced
  // at least one value — or a partial value if the InsightFn tolerates
  // NaNs).
  std::optional<double> LatestValue() const { return last_published_; }

 private:
  TimeNs OnTimer(TimeNs now);
  void DoPull(TimeNs now);
  void DoPrediction(TimeNs now);
  void PublishSample(TimeNs now, double value, Provenance provenance);
  void MarkCrashed();

  Broker& broker_;
  InsightFn fn_;
  InsightVertexConfig config_;
  std::unique_ptr<delphi::StreamingPredictor> predictor_;
  Archiver<Sample>* archiver_;

  EventLoop* loop_ = nullptr;
  TimerId timer_ = 0;
  bool deployed_ = false;
  std::atomic<bool> crashed_{false};
  std::atomic<TimeNs> last_fire_{0};

  TimeNs next_pull_time_ = 0;
  // Own topic + upstream handles resolved at deploy time (an upstream that
  // does not exist yet resolves lazily on first successful pull); cursors
  // are parallel to config_.upstream.
  TopicHandle handle_;
  std::vector<TopicHandle> upstream_handles_;
  std::vector<std::uint64_t> cursors_;
  std::vector<StreamEntry<Sample>> fetch_scratch_;
  std::vector<double> latest_;
  std::optional<double> last_published_;
  VertexStats stats_;
  // Process-wide crash/degraded counters (shared by name with the other
  // vertex kind), resolved at construction.
  obs::Counter crashes_total_;
  obs::Counter degraded_marked_;
  obs::Counter degraded_cleared_;
};

}  // namespace apollo
