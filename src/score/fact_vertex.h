// Fact Vertex — a SCoRe source (§3.1, §3.2).
//
// Owns a Monitor Hook, an adaptive IntervalController, a dedicated stream
// (queue + optional Archiver) and, optionally, a Delphi predictor that
// publishes predicted Facts between polls.
//
// The vertex is driven by an EventLoop timer, so the same code runs in
// real time (latency benches) and virtual time (workload replays). One
// timer implements both polling and prediction: when the adaptive interval
// stretches beyond the prediction granularity, intermediate firings emit
// predicted samples until the next real poll is due.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>

#include "adaptive/interval_controller.h"
#include "common/clock.h"
#include "common/expected.h"
#include "common/fault.h"
#include "delphi/predictor.h"
#include "eventloop/event_loop.h"
#include "obs/metrics.h"
#include "pubsub/broker.h"
#include "score/monitor_hook.h"
#include "score/vertex_stats.h"

namespace apollo {

struct FactVertexConfig {
  std::string topic;  // stream name; defaults to the hook's metric name
  NodeId node = kLocalNode;
  std::size_t queue_capacity = 4096;
  // "Facts are added only if there is a change from their previous value."
  bool publish_only_on_change = true;
  // Delphi fill-in period between polls; 0 disables prediction even when a
  // model is supplied.
  TimeNs prediction_granularity = 0;
  // Publish retry policy (broker-level exponential backoff). An exhausted
  // retry budget is surfaced in stats().publish_failures and telemetry.
  RetryPolicy publish_retry;
};

class FactVertex {
 public:
  // `delphi` may be null (no prediction). The vertex clones the model so
  // inference state is private.
  FactVertex(Broker& broker, MonitorHook hook,
             std::unique_ptr<IntervalController> controller,
             FactVertexConfig config,
             const delphi::DelphiModel* delphi = nullptr,
             Archiver<Sample>* archiver = nullptr);

  ~FactVertex();

  FactVertex(const FactVertex&) = delete;
  FactVertex& operator=(const FactVertex&) = delete;

  // Creates the topic and registers the polling timer on `loop`.
  Status Deploy(EventLoop& loop);

  // Cancels the timer. The topic (and its data) remain in the broker until
  // RemoveTopic is called explicitly.
  void Undeploy();

  // --- supervision surface ---
  // A vertex "crashes" when the kVertexPoll fault site fires in its timer
  // (the timer dies and the stream is marked degraded) or when ForceCrash
  // is called. The VertexSupervisor detects crashed/stalled vertices and
  // restarts them with bounded backoff.
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

  // Clock time of the vertex's most recent timer firing (deploy time until
  // the first poll). Supervisors treat a silent gap much larger than
  // ExpectedFireInterval() as a stall.
  TimeNs last_fire() const {
    return last_fire_.load(std::memory_order_acquire);
  }
  TimeNs ExpectedFireInterval() const;

  // Kills the vertex from outside its timer: cancels the timer, flags the
  // crash, and marks the stream degraded. No-op unless deployed and alive.
  void ForceCrash();

  // Restarts a crashed vertex: re-registers the timer (immediate poll) and
  // clears the crash flag. The stream stays degraded until the first
  // successful measured publish. Fails unless deployed and crashed.
  Status Restart();

  const std::string& topic() const { return config_.topic; }
  NodeId node() const { return config_.node; }
  const VertexStats& stats() const { return stats_; }
  VertexStats& mutable_stats() { return stats_; }
  TimeNs CurrentInterval() const { return controller_->CurrentInterval(); }
  const char* ControllerName() const { return controller_->Name(); }
  bool HasPredictor() const { return predictor_ != nullptr; }

 private:
  TimeNs OnTimer(TimeNs now);
  TimeNs DoRealPoll(TimeNs now);
  void DoPrediction(TimeNs now);
  void PublishSample(TimeNs now, double value, Provenance provenance);
  // Flags the crash and degrades the stream (shared by the injected-crash
  // path inside OnTimer and ForceCrash).
  void MarkCrashed();

  Broker& broker_;
  // Resolved once at deploy time; publishes skip the topic registry.
  TopicHandle handle_;
  MonitorHook hook_;
  std::unique_ptr<IntervalController> controller_;
  FactVertexConfig config_;
  std::unique_ptr<delphi::StreamingPredictor> predictor_;
  Archiver<Sample>* archiver_;

  EventLoop* loop_ = nullptr;
  TimerId timer_ = 0;
  bool deployed_ = false;
  std::atomic<bool> crashed_{false};
  std::atomic<TimeNs> last_fire_{0};

  TimeNs next_poll_time_ = 0;
  std::optional<double> last_published_;
  VertexStats stats_;
  // Process-wide crash/degraded counters (shared by name with the other
  // vertex kind), resolved at construction.
  obs::Counter crashes_total_;
  obs::Counter degraded_marked_;
  obs::Counter degraded_cleared_;
};

}  // namespace apollo
