// Batched-ingest tests: PublishBatch/ack codec damage sweep (mirrors
// net_frame_test.cc — every mutation of a valid payload must be rejected),
// loopback batch publish with per-sample error-bitmap accounting, the
// shared-memory lane handshake (accept, fault-refusal fallback, ring
// drain), client-side PublishAsync flush policy with the queued-sample
// error callback, and a 4-client batching stress leg for the tsan matrix.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "aqe/executor.h"
#include "common/clock.h"
#include "common/fault.h"
#include "metric_value.h"
#include "net/client.h"
#include "net/daemon.h"
#include "net/messages.h"
#include "net/shm_lane.h"
#include "pubsub/broker.h"

namespace apollo::net {
namespace {

Sample MakeSample(TimeNs timestamp, double value,
                  Provenance provenance = Provenance::kMeasured) {
  Sample sample;
  sample.timestamp = timestamp;
  sample.value = value;
  sample.provenance = provenance;
  return sample;
}

PublishBatchMsg MakeBatch(std::initializer_list<std::pair<const char*, int>>
                              runs) {
  PublishBatchMsg msg;
  TimeNs ts = 0;
  for (const auto& [topic, count] : runs) {
    PublishBatchMsg::Run run;
    run.topic = topic;
    for (int i = 0; i < count; ++i) {
      TelemetryStream::Entry entry;
      entry.timestamp = ts;
      entry.value = MakeSample(ts, static_cast<double>(ts));
      run.entries.push_back(entry);
      ++ts;
    }
    msg.runs.push_back(std::move(run));
  }
  return msg;
}

// ---- codec -----------------------------------------------------------------

TEST(NetBatch, BatchRoundtripPreservesRunsAndOrder) {
  PublishBatchMsg msg = MakeBatch({{"a.cpu", 3}, {"a.mem", 2}, {"a.cpu", 1}});
  Payload payload;
  msg.Encode(payload);
  PublishBatchMsg decoded;
  ASSERT_TRUE(PublishBatchMsg::Decode(payload, decoded));
  ASSERT_EQ(decoded.runs.size(), 3u);
  EXPECT_EQ(decoded.runs[0].topic, "a.cpu");
  EXPECT_EQ(decoded.runs[1].topic, "a.mem");
  ASSERT_EQ(decoded.runs[0].entries.size(), 3u);
  ASSERT_EQ(decoded.runs[2].entries.size(), 1u);
  EXPECT_EQ(decoded.SampleCount(), 6u);
  EXPECT_EQ(decoded.runs[1].entries[1].timestamp, 4);
  EXPECT_EQ(decoded.runs[1].entries[1].value.value, 4.0);
}

// Every mutation of a valid batch payload must be rejected outright — a
// decoder that "mostly" parses a damaged batch would publish garbage
// samples under a valid frame CRC.
TEST(NetBatch, DamageSweepRejectsMutations) {
  PublishBatchMsg msg = MakeBatch({{"t0", 2}, {"t1", 1}});
  Payload good;
  msg.Encode(good);
  PublishBatchMsg decoded;
  ASSERT_TRUE(PublishBatchMsg::Decode(good, decoded));

  struct DamageCase {
    const char* name;
    std::function<void(Payload&)> mutate;
  };
  const DamageCase kCases[] = {
      {"zero run count",
       [](Payload& p) { p[0] = p[1] = p[2] = p[3] = 0; }},
      {"oversized run count",
       [](Payload& p) { p[0] = p[1] = p[2] = p[3] = 0xFF; }},
      {"run count inflated past payload",
       [](Payload& p) { p[0] = 0x07; }},
      // Offset 4 starts run 0: u32 topic length, "t0", u32 sample count.
      {"zero-sample run", [](Payload& p) { p[10] = 0; }},
      {"per-sample count inflated past payload",
       [](Payload& p) { p[10] = 0xFF; }},
      {"per-sample count past batch cap",
       [](Payload& p) { p[10] = p[11] = p[12] = p[13] = 0xFF; }},
      {"truncated batch", [](Payload& p) { p.pop_back(); }},
      {"truncated mid-sample", [](Payload& p) { p.resize(p.size() - 13); }},
      {"trailing garbage", [](Payload& p) { p.push_back(0xEE); }},
      {"topic length inflated", [](Payload& p) { p[4] = 0xFF; }},
  };
  for (const DamageCase& damage : kCases) {
    SCOPED_TRACE(damage.name);
    Payload bad = good;
    damage.mutate(bad);
    PublishBatchMsg out;
    EXPECT_FALSE(PublishBatchMsg::Decode(bad, out));
  }
}

TEST(NetBatch, EmptyBatchRejected) {
  PublishBatchMsg empty;
  Payload payload;
  empty.Encode(payload);  // run_count = 0
  PublishBatchMsg out;
  EXPECT_FALSE(PublishBatchMsg::Decode(payload, out));
}

TEST(NetBatch, AckRoundtripCarriesBitmap) {
  PublishBatchAckMsg ack;
  ack.Resize(19);
  ack.last_entry_id = 77;
  ack.MarkFailed(0);
  ack.MarkFailed(8);
  ack.MarkFailed(18);
  ack.first_error_code = ErrorCode::kNotFound;
  ack.first_error = "no such topic";
  Payload payload;
  ack.Encode(payload);
  PublishBatchAckMsg decoded;
  ASSERT_TRUE(PublishBatchAckMsg::Decode(payload, decoded));
  EXPECT_EQ(decoded.count, 19u);
  EXPECT_EQ(decoded.error_count, 3u);
  EXPECT_EQ(decoded.last_entry_id, 77u);
  EXPECT_TRUE(decoded.Failed(0));
  EXPECT_TRUE(decoded.Failed(8));
  EXPECT_TRUE(decoded.Failed(18));
  EXPECT_FALSE(decoded.Failed(1));
  EXPECT_FALSE(decoded.Failed(17));
  EXPECT_EQ(decoded.first_error_code, ErrorCode::kNotFound);
  EXPECT_EQ(decoded.first_error, "no such topic");
}

TEST(NetBatch, AckRejectsBitmapGeometryMismatch) {
  PublishBatchAckMsg ack;
  ack.Resize(9);  // 2 bitmap bytes
  Payload payload;
  ack.Encode(payload);
  // count=9 claims 2 bitmap bytes; shrink the declared bitmap to 1.
  payload[16] = 1;
  PublishBatchAckMsg out;
  EXPECT_FALSE(PublishBatchAckMsg::Decode(payload, out));
}

TEST(NetBatch, AckRejectsErrorCountAboveCount) {
  PublishBatchAckMsg ack;
  ack.Resize(4);
  Payload payload;
  ack.Encode(payload);
  payload[12] = 5;  // error_count > count
  PublishBatchAckMsg out;
  EXPECT_FALSE(PublishBatchAckMsg::Decode(payload, out));
}

TEST(NetBatch, ShmAttachRoundtrip) {
  ShmAttachMsg msg;
  msg.segment_name = "/apollo-lane-1";
  msg.slot_count = 4096;
  msg.topics = {"a.cpu", "a.mem"};
  Payload payload;
  msg.Encode(payload);
  ShmAttachMsg decoded;
  ASSERT_TRUE(ShmAttachMsg::Decode(payload, decoded));
  EXPECT_EQ(decoded.segment_name, msg.segment_name);
  EXPECT_EQ(decoded.slot_count, 4096u);
  EXPECT_EQ(decoded.topics, msg.topics);

  ShmAttachAckMsg ack;
  ack.accepted = false;
  ack.message = "refused";
  Payload ack_payload;
  ack.Encode(ack_payload);
  ShmAttachAckMsg ack_decoded;
  ASSERT_TRUE(ShmAttachAckMsg::Decode(ack_payload, ack_decoded));
  EXPECT_FALSE(ack_decoded.accepted);
  EXPECT_EQ(ack_decoded.message, "refused");
}

// ---- shm ring unit ---------------------------------------------------------

TEST(NetBatch, ShmRingSpscRoundtrip) {
  auto producer = ShmLaneProducer::Create("/apollo-test-ring-a", 8);
  ASSERT_TRUE(producer.ok()) << producer.status().message();
  auto consumer = ShmLaneConsumer::Attach("/apollo-test-ring-a", 8);
  ASSERT_TRUE(consumer.ok()) << consumer.status().message();

  ShmSlot slot;
  for (int i = 0; i < 8; ++i) {
    slot.entry_ts = i;
    slot.value = i * 2.0;
    slot.topic_id = static_cast<std::uint32_t>(i % 2);
    ASSERT_TRUE((*producer)->TryPush(slot));
  }
  slot.entry_ts = 99;
  EXPECT_FALSE((*producer)->TryPush(slot));  // full

  std::vector<ShmSlot> drained;
  EXPECT_EQ((*consumer)->Drain(drained, 5), 5u);
  EXPECT_EQ((*consumer)->Drain(drained, 100), 3u);
  ASSERT_EQ(drained.size(), 8u);
  EXPECT_EQ(drained[0].entry_ts, 0);
  EXPECT_EQ(drained[7].entry_ts, 7);
  EXPECT_EQ(drained[7].value, 14.0);
  // Space reclaimed: pushes succeed again.
  EXPECT_TRUE((*producer)->TryPush(slot));
}

TEST(NetBatch, ShmAttachValidatesGeometryAndMagic) {
  auto producer = ShmLaneProducer::Create("/apollo-test-ring-b", 16);
  ASSERT_TRUE(producer.ok());
  // Wrong slot count refused (header mismatch).
  EXPECT_FALSE(ShmLaneConsumer::Attach("/apollo-test-ring-b", 32).ok());
  // Missing segment refused.
  EXPECT_FALSE(ShmLaneConsumer::Attach("/apollo-test-ring-nope", 16).ok());
  // Bad slot counts refused before touching the fs.
  EXPECT_FALSE(ShmLaneProducer::Create("/apollo-test-ring-c", 3).ok());
  EXPECT_FALSE(ShmLaneProducer::Create("no-leading-slash", 8).ok());
}

// ---- loopback daemon -------------------------------------------------------

class NetBatchLoopbackTest : public ::testing::Test {
 protected:
  NetBatchLoopbackTest()
      : clock_(RealClock::Instance()),
        broker_(clock_),
        executor_(broker_, /*pool=*/nullptr) {}

  void SetUp() override {
    ASSERT_TRUE(broker_.CreateTopic("b.cpu").ok());
    ASSERT_TRUE(broker_.CreateTopic("b.mem").ok());
    StartDaemon({});
  }

  void StartDaemon(DaemonConfig config) {
    daemon_ = std::make_unique<ApolloDaemon>(broker_, executor_, config);
    ASSERT_TRUE(daemon_->Start().ok());
    ASSERT_NE(daemon_->port(), 0);
  }

  void TearDown() override {
    broker_.AttachFaultInjector(nullptr);
    if (daemon_ != nullptr) daemon_->Stop();
  }

  ClientConfig ClientFor(const char* name) {
    ClientConfig config;
    config.host = "127.0.0.1";
    config.port = daemon_->port();
    config.client_name = name;
    return config;
  }

  RealClock& clock_;
  Broker broker_;
  aqe::Executor executor_;
  std::unique_ptr<ApolloDaemon> daemon_;
};

TEST_F(NetBatchLoopbackTest, BatchPublishLandsEveryRunInOrder) {
  ApolloClient client(ClientFor("batcher"));
  PublishBatchMsg msg = MakeBatch({{"b.cpu", 5}, {"b.mem", 3}, {"b.cpu", 2}});
  auto ack = client.PublishBatch(msg);
  ASSERT_TRUE(ack.ok()) << ack.status().message();
  EXPECT_EQ(ack->count, 10u);
  EXPECT_EQ(ack->error_count, 0u);

  TelemetryStream* cpu = *broker_.GetTopic("b.cpu");
  TelemetryStream* mem = *broker_.GetTopic("b.mem");
  EXPECT_EQ(cpu->NextId(), 7u);
  EXPECT_EQ(mem->NextId(), 3u);
  std::uint64_t cursor = 0;
  auto entries = cpu->Read(cursor);
  ASSERT_EQ(entries.size(), 7u);
  // Runs 0 and 2 arrived in batch order: timestamps 0..4 then 8..9.
  EXPECT_EQ(entries[4].timestamp, 4);
  EXPECT_EQ(entries[5].timestamp, 8);
  EXPECT_EQ(entries[6].timestamp, 9);
}

TEST_F(NetBatchLoopbackTest, UnknownTopicRunFailsOnlyItsSamples) {
  ApolloClient client(ClientFor("batcher"));
  PublishBatchMsg msg = MakeBatch({{"b.cpu", 2}, {"b.ghost", 3}, {"b.mem", 1}});
  auto ack = client.PublishBatch(msg);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->count, 6u);
  EXPECT_EQ(ack->error_count, 3u);
  EXPECT_FALSE(ack->Failed(0));
  EXPECT_FALSE(ack->Failed(1));
  EXPECT_TRUE(ack->Failed(2));
  EXPECT_TRUE(ack->Failed(3));
  EXPECT_TRUE(ack->Failed(4));
  EXPECT_FALSE(ack->Failed(5));
  EXPECT_EQ(ack->first_error_code, ErrorCode::kNotFound);
  EXPECT_EQ((*broker_.GetTopic("b.cpu"))->NextId(), 2u);
  EXPECT_EQ((*broker_.GetTopic("b.mem"))->NextId(), 1u);
}

TEST_F(NetBatchLoopbackTest, PublishWithUnknownProvenanceIsRejected) {
  // The client encodes whatever byte the enum holds; the daemon's strict
  // decode must refuse provenance 2 before anything is appended.
  ApolloClient client(ClientFor("strict"));
  auto id = client.Publish("b.cpu", 1,
                           MakeSample(1, 1.0, static_cast<Provenance>(2)));
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.error().code(), ErrorCode::kParseError);
  EXPECT_EQ((*broker_.GetTopic("b.cpu"))->NextId(), 0u);

  // The connection stays usable for well-formed publishes.
  auto ok = client.Publish("b.cpu", 2, MakeSample(2, 2.0));
  ASSERT_TRUE(ok.ok()) << ok.status().message();
  EXPECT_EQ((*broker_.GetTopic("b.cpu"))->NextId(), 1u);
}

TEST_F(NetBatchLoopbackTest, BatchDecodeFaultRejectsWholeBatch) {
  FaultInjector injector;
  injector.Arm({.site = FaultSite::kBatchDecode,
                .topic = "b.cpu",
                .fire_on_hits = {0}});
  broker_.AttachFaultInjector(&injector);
  const std::uint64_t errors_before =
      CounterValue("apollo_net_batch_decode_errors_total");

  ApolloClient client(ClientFor("batcher"));
  PublishBatchMsg msg = MakeBatch({{"b.cpu", 4}});
  auto ack = client.PublishBatch(msg);
  ASSERT_FALSE(ack.ok());
  EXPECT_EQ(ack.error().code(), ErrorCode::kUnavailable);
  EXPECT_EQ((*broker_.GetTopic("b.cpu"))->NextId(), 0u);
  EXPECT_EQ(CounterValue("apollo_net_batch_decode_errors_total"),
            errors_before + 1);

  // The fault fired once; the retry goes through.
  auto retry = client.PublishBatch(msg);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry->error_count, 0u);
  EXPECT_EQ((*broker_.GetTopic("b.cpu"))->NextId(), 4u);
}

TEST_F(NetBatchLoopbackTest, ScriptedPublishDropsSetExactBitmapBits) {
  FaultInjector injector;
  // Entries 1 and 3 of the b.cpu run drop; everything else lands.
  injector.Arm({.site = FaultSite::kPublish,
                .topic = "b.cpu",
                .fire_on_hits = {1, 3}});
  broker_.AttachFaultInjector(&injector);

  ApolloClient client(ClientFor("batcher"));
  PublishBatchMsg msg = MakeBatch({{"b.cpu", 5}, {"b.mem", 2}});
  auto ack = client.PublishBatch(msg);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->error_count, 2u);
  EXPECT_FALSE(ack->Failed(0));
  EXPECT_TRUE(ack->Failed(1));
  EXPECT_FALSE(ack->Failed(2));
  EXPECT_TRUE(ack->Failed(3));
  EXPECT_FALSE(ack->Failed(4));
  EXPECT_FALSE(ack->Failed(5));
  EXPECT_FALSE(ack->Failed(6));
  EXPECT_EQ(ack->first_error_code, ErrorCode::kUnavailable);

  // The survivors landed in order: timestamps 0, 2, 4.
  TelemetryStream* cpu = *broker_.GetTopic("b.cpu");
  ASSERT_EQ(cpu->NextId(), 3u);
  std::uint64_t cursor = 0;
  auto entries = cpu->Read(cursor);
  EXPECT_EQ(entries[0].timestamp, 0);
  EXPECT_EQ(entries[1].timestamp, 2);
  EXPECT_EQ(entries[2].timestamp, 4);
  EXPECT_EQ((*broker_.GetTopic("b.mem"))->NextId(), 2u);
}

TEST_F(NetBatchLoopbackTest, PublishAsyncFlushesAtBatchSize) {
  ClientConfig config = ClientFor("async");
  config.batch_max_samples = 8;
  config.batch_max_delay = kNsPerSec;  // size-triggered only
  ApolloClient client(config);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client
                    .PublishAsync("b.cpu", i, MakeSample(i, 1.0 * i))
                    .ok());
  }
  // Two full batches flushed; 4 samples still queued.
  EXPECT_EQ(client.PendingSamples(), 4u);
  EXPECT_EQ((*broker_.GetTopic("b.cpu"))->NextId(), 16u);
  ASSERT_TRUE(client.Flush().ok());
  EXPECT_EQ(client.PendingSamples(), 0u);
  EXPECT_EQ((*broker_.GetTopic("b.cpu"))->NextId(), 20u);
}

TEST_F(NetBatchLoopbackTest, PerSampleRejectionsSurfaceThroughCallback) {
  FaultInjector injector;
  injector.Arm({.site = FaultSite::kPublish,
                .topic = "b.cpu",
                .fire_on_hits = {2}});
  broker_.AttachFaultInjector(&injector);

  ClientConfig config = ClientFor("async");
  config.batch_max_samples = 4;
  ApolloClient client(config);
  std::vector<std::pair<std::string, TimeNs>> failed;
  client.SetPublishErrorCallback(
      [&](const std::string& topic, TimeNs ts, const Sample&,
          const Error& error) {
        failed.emplace_back(topic, ts);
        EXPECT_EQ(error.code(), ErrorCode::kUnavailable);
      });
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client
                    .PublishAsync("b.cpu", i, MakeSample(i, 1.0))
                    .ok());
  }
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0].first, "b.cpu");
  EXPECT_EQ(failed[0].second, 2);
}

// The reconnect-drop fix: samples sitting in the client queue when the
// connection dies must surface through the error callback, not vanish.
TEST_F(NetBatchLoopbackTest, QueuedSamplesSurfaceOnConnectionLoss) {
  ClientConfig config = ClientFor("async");
  config.batch_max_samples = 1000;  // keep everything queued
  config.batch_max_delay = kNsPerSec;
  ApolloClient client(config);
  ASSERT_TRUE(client.Ping().ok());

  std::vector<TimeNs> orphaned;
  client.SetPublishErrorCallback(
      [&](const std::string& topic, TimeNs ts, const Sample&,
          const Error& error) {
        EXPECT_EQ(topic, "b.cpu");
        EXPECT_EQ(error.code(), ErrorCode::kUnavailable);
        orphaned.push_back(ts);
      });
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(client
                    .PublishAsync("b.cpu", i, MakeSample(i, 1.0))
                    .ok());
  }
  EXPECT_EQ(client.PendingSamples(), 7u);
  client.Close();
  ASSERT_EQ(orphaned.size(), 7u);
  EXPECT_EQ(orphaned[0], 0);
  EXPECT_EQ(orphaned[6], 6);
  EXPECT_EQ(client.PendingSamples(), 0u);
}

TEST_F(NetBatchLoopbackTest, ShmLaneDrainsIntoStream) {
  const std::uint64_t attaches_before =
      CounterValue("apollo_net_shm_attaches_total");
  ClientConfig config = ClientFor("shm");
  config.shm_slots = 64;
  ApolloClient client(config);
  ASSERT_TRUE(client.EnableShmLane({"b.cpu", "b.mem"}).ok());
  EXPECT_TRUE(client.shm_active());
  EXPECT_EQ(CounterValue("apollo_net_shm_attaches_total"), attaches_before + 1);

  TelemetryStream* cpu = *broker_.GetTopic("b.cpu");
  const std::uint64_t total = 500;
  for (std::uint64_t i = 0; i < total; ++i) {
    ASSERT_TRUE(client
                    .PublishAsync("b.cpu", static_cast<TimeNs>(i),
                                  MakeSample(static_cast<TimeNs>(i), 1.0))
                    .ok());
  }
  ASSERT_TRUE(client.Flush().ok());  // anything that fell back to TCP
  const TimeNs deadline = clock_.Now() + 10 * kNsPerSec;
  while (cpu->NextId() < total && clock_.Now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(cpu->NextId(), total);
}

TEST_F(NetBatchLoopbackTest, ShmAttachFaultFallsBackToTcp) {
  FaultInjector injector;
  injector.Arm(
      {.site = FaultSite::kShmAttach, .topic = "", .fire_on_hits = {0}});
  broker_.AttachFaultInjector(&injector);
  const std::uint64_t failures_before =
      CounterValue("apollo_net_shm_attach_failures_total");
  const std::uint64_t fallbacks_before =
      CounterValue("apollo_net_shm_fallbacks_total");

  ClientConfig config = ClientFor("shm");
  config.batch_max_samples = 4;
  ApolloClient client(config);
  Status attached = client.EnableShmLane({"b.cpu"});
  EXPECT_FALSE(attached.ok());
  EXPECT_FALSE(client.shm_active());
  EXPECT_EQ(CounterValue("apollo_net_shm_attach_failures_total"),
            failures_before + 1);
  EXPECT_EQ(CounterValue("apollo_net_shm_fallbacks_total"),
            fallbacks_before + 1);

  // TCP batching still works after the refusal.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client
                    .PublishAsync("b.cpu", i, MakeSample(i, 1.0))
                    .ok());
  }
  EXPECT_EQ((*broker_.GetTopic("b.cpu"))->NextId(), 4u);
}

TEST_F(NetBatchLoopbackTest, DaemonRefusesShmWhenDisabled) {
  daemon_->Stop();
  DaemonConfig config;
  config.accept_shm = false;
  StartDaemon(config);
  ApolloClient client(ClientFor("shm"));
  Status attached = client.EnableShmLane({"b.cpu"});
  EXPECT_FALSE(attached.ok());
  EXPECT_FALSE(client.shm_active());
}

// ---- tsan stress leg -------------------------------------------------------

// Four concurrent batching clients, each its own topic: exercises the
// writev outbound queue, the batch handler, and Stream::AppendBatch under
// real thread interleaving. Name matches the tsan filter ("Stress"/"Net").
TEST(NetBatchStress, FourBatchingClientsConcurrent) {
  RealClock& clock = RealClock::Instance();
  Broker broker(clock);
  constexpr int kClients = 4;
  constexpr std::uint64_t kPerClient = 2000;
  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(
        broker.CreateTopic("stress.c" + std::to_string(c), kLocalNode, 4096)
            .ok());
  }
  aqe::Executor executor(broker, /*pool=*/nullptr);
  ApolloDaemon daemon(broker, executor);
  ASSERT_TRUE(daemon.Start().ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int c = 0; c < kClients; ++c) {
    workers.emplace_back([&, c] {
      ClientConfig config;
      config.port = daemon.port();
      config.client_name = "stress-" + std::to_string(c);
      config.batch_max_samples = 128;
      ApolloClient client(config);
      const std::string topic = "stress.c" + std::to_string(c);
      for (std::uint64_t i = 0; i < kPerClient; ++i) {
        const TimeNs ts = static_cast<TimeNs>(i);
        if (!client.PublishAsync(topic, ts, MakeSample(ts, 1.0)).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
      if (!client.Flush().ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(failures.load(), 0);
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ((*broker.GetTopic("stress.c" + std::to_string(c)))->NextId(),
              kPerClient)
        << "client " << c;
  }
  daemon.Stop();
}

}  // namespace
}  // namespace apollo::net
