// One fixed-value instance of every wire payload type, with the exact bytes
// its encoder must emit. The table pins the wire format: a codec change
// that moves a single byte fails NetMessages.GoldenWireBytes. The same
// payloads, wrapped in frames (EncodeFrame, request id 1, no flags), seed
// the frame-decoder fuzzer's corpus in fuzz/corpus_frame/.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/frame.h"
#include "net/messages.h"

namespace apollo::net::golden {

struct GoldenMessage {
  const char* name;
  MsgType type;
  Payload payload;  // what today's encoder emits for the fixed value
  const char* hex;  // the pinned bytes
  // Decodes `in` and re-encodes the result into `out`; false when the
  // decoder rejects `in`.
  bool (*reencode)(const Payload& in, Payload& out);
};

template <typename Msg>
GoldenMessage Golden(const char* name, MsgType type, const Msg& msg,
                     const char* hex) {
  GoldenMessage g{name, type, {}, hex, [](const Payload& in, Payload& out) {
                    Msg decoded;
                    if (!Msg::Decode(in, decoded)) return false;
                    out.clear();
                    decoded.Encode(out);
                    return true;
                  }};
  msg.Encode(g.payload);
  return g;
}

inline TelemetryStream::Entry GoldenEntry(std::uint64_t id, TimeNs ts,
                                          double value,
                                          Provenance provenance) {
  TelemetryStream::Entry entry;
  entry.id = id;
  entry.timestamp = ts;
  entry.value.timestamp = ts - 5;
  entry.value.value = value;
  entry.value.provenance = provenance;
  return entry;
}

inline aqe::ResultSet GoldenResultSet(bool degraded) {
  aqe::ResultSet result;
  result.columns = {"LAST(metric)", "COUNT(*)"};
  aqe::ResultRow row;
  row.source = "compute0.cpu_load";
  row.values = {1.5, -2.0};
  row.degraded = degraded;
  row.staleness_ns = 777;
  result.rows.push_back(row);
  row.source = "compute1.cpu_load";
  row.values = {};
  row.degraded = false;
  row.staleness_ns = 0;
  result.rows.push_back(row);
  result.degraded = degraded;
  result.max_staleness_ns = 777;
  return result;
}

inline std::vector<GoldenMessage> GoldenMessages() {
  const TelemetryStream::Entry e1 =
      GoldenEntry(41, 1700000000000000123, 0.75, Provenance::kMeasured);
  const TelemetryStream::Entry e2 =
      GoldenEntry(42, -7, -1.5, Provenance::kPredicted);
  std::vector<GoldenMessage> out;
  {
    HelloMsg m;
    m.client_name = "golden-client";
    m.tenant = "tenant-a";
    out.push_back(Golden("hello", MsgType::kHello, m,
                         "010000000d000000676f6c64656e2d636c69656e74080000"
                         "0074656e616e742d61"));
  }
  {
    HelloAckMsg m;
    m.server_name = "apollod-0";
    m.topic_count = 288;
    out.push_back(Golden("hello_ack", MsgType::kHelloAck, m,
                         "010000000900000061706f6c6c6f642d3020010000000000"
                         "00"));
  }
  {
    PublishMsg m;
    m.topic = "compute0.cpu_load";
    m.timestamp = 1700000000123456789;
    m.sample.timestamp = 1700000000123456000;
    m.sample.value = 0.75;
    m.sample.provenance = Provenance::kPredicted;
    out.push_back(Golden("publish", MsgType::kPublish, m,
                         "11000000636f6d70757465302e6370755f6c6f616415cd85"
                         "3dfe9c971700ca853dfe9c9717000000000000e83f01"));
  }
  {
    PublishAckMsg m;
    m.entry_id = 0x0102030405060708ULL;
    out.push_back(Golden("publish_ack", MsgType::kPublishAck, m,
                         "0807060504030201"));
  }
  {
    PublishBatchMsg m;
    m.runs.push_back({"a.b", {e1, e2}});
    m.runs.push_back({"c.d", {e2}});
    out.push_back(Golden("publish_batch", MsgType::kPublishBatch, m,
                         "0200000003000000612e62020000007b002a36fe9c971776"
                         "002a36fe9c9717000000000000e83f00f9ffffffffffffff"
                         "f4ffffffffffffff000000000000f8bf0103000000632e64"
                         "01000000f9fffffffffffffff4ffffffffffffff00000000"
                         "0000f8bf01"));
  }
  {
    PublishBatchAckMsg m;
    m.Resize(10);
    m.MarkFailed(0);
    m.MarkFailed(9);
    m.last_entry_id = 99;
    m.first_error_code = ErrorCode::kNotFound;
    m.first_error = "no such topic";
    out.push_back(Golden("publish_batch_ack", MsgType::kPublishBatchAck, m,
                         "0a0000006300000000000000020000000200000001020200"
                         "0d0000006e6f207375636820746f706963"));
  }
  {
    ShmAttachMsg m;
    m.segment_name = "/apollo-shm-1";
    m.slot_count = 1024;
    m.topics = {"t0", "t1"};
    out.push_back(Golden("shm_attach", MsgType::kShmAttach, m,
                         "0d0000002f61706f6c6c6f2d73686d2d3100040000020000"
                         "00020000007430020000007431"));
  }
  {
    ShmAttachAckMsg m;
    m.accepted = true;
    m.message = "ok";
    out.push_back(Golden("shm_attach_ack", MsgType::kShmAttachAck, m,
                         "01020000006f6b"));
  }
  {
    SubscribeMsg m;
    m.topic = "t0";
    m.cursor = 17;
    out.push_back(Golden("subscribe", MsgType::kSubscribe, m,
                         "0200000074301100000000000000"));
  }
  {
    SubscribeAckMsg m;
    m.subscription_id = 3;
    m.start_cursor = 18;
    out.push_back(Golden("subscribe_ack", MsgType::kSubscribeAck, m,
                         "03000000000000001200000000000000"));
  }
  {
    DeliverMsg m;
    m.subscription_id = 3;
    m.topic = "t0";
    m.entries = {e1, e2};
    out.push_back(Golden("deliver", MsgType::kDeliver, m,
                         "030000000000000002000000743002000000290000000000"
                         "00007b002a36fe9c971776002a36fe9c9717000000000000"
                         "e83f002a00000000000000f9fffffffffffffff4ffffffff"
                         "ffffff000000000000f8bf01"));
  }
  {
    FetchWindowMsg m;
    m.topic = "t0";
    m.cursor = 5;
    m.max_entries = 100;
    out.push_back(Golden("fetch_window", MsgType::kFetchWindow, m,
                         "02000000743005000000000000006400000000000000"));
  }
  {
    WindowMsg m;
    m.next_cursor = 7;
    m.entries = {e2};
    out.push_back(Golden("window", MsgType::kWindow, m,
                         "0700000000000000010000002a00000000000000f9ffffff"
                         "fffffffff4ffffffffffffff000000000000f8bf01"));
  }
  {
    QueryMsg m;
    m.sql = "SELECT LAST(metric) FROM t0";
    out.push_back(Golden("query", MsgType::kQuery, m,
                         "1b00000053454c454354204c415354286d65747269632920"
                         "46524f4d207430"));
  }
  {
    ResultMsg m;
    m.result = GoldenResultSet(true);
    m.served_tables = {"compute0.cpu_load", "compute1.cpu_load"};
    out.push_back(Golden("result", MsgType::kResult, m,
                         "010903000000000000020000000c0000004c415354286d65"
                         "747269632908000000434f554e54282a2902000000110000"
                         "00636f6d70757465302e6370755f6c6f6164010903000000"
                         "00000002000000000000000000f83f00000000000000c011"
                         "000000636f6d70757465312e6370755f6c6f616400000000"
                         "0000000000000000000200000011000000636f6d70757465"
                         "302e6370755f6c6f616411000000636f6d70757465312e63"
                         "70755f6c6f6164"));
  }
  {
    TopicListMsg m;
    m.topics.push_back({"t0", 2});
    m.topics.push_back({"t1", kLocalNode});
    out.push_back(Golden("topic_list", MsgType::kTopicList, m,
                         "020000000200000074300200000000000000020000007431"
                         "ffffffffffffffff"));
  }
  {
    MetricsTextMsg m;
    m.text = "apollo_up 1\n";
    out.push_back(Golden("metrics_text", MsgType::kMetricsText, m,
                         "0c00000061706f6c6c6f5f757020310a"));
  }
  {
    HeartbeatMsg m;
    m.sender = "node-a";
    m.generation = 123;
    m.state = 1;
    m.map_version = 9;
    out.push_back(Golden("heartbeat", MsgType::kHeartbeat, m,
                         "060000006e6f64652d617b00000000000000010900000000"
                         "000000"));
  }
  {
    HeartbeatAckMsg m;
    m.sender = "node-b";
    m.generation = 456;
    m.state = 2;
    m.map_version = 10;
    out.push_back(Golden("heartbeat_ack", MsgType::kHeartbeatAck, m,
                         "060000006e6f64652d62c801000000000000020a00000000"
                         "000000"));
  }
  {
    ClusterMapMsg m;
    m.map.version = 4;
    m.map.replication_factor = 2;
    m.map.write_quorum = 1;
    m.map.members.push_back(
        {"node-a", "127.0.0.1", 7411, 123, cluster::MemberState::kAlive});
    m.map.members.push_back(
        {"node-b", "127.0.0.2", 7412, 456, cluster::MemberState::kSuspect});
    out.push_back(Golden("cluster_map", MsgType::kClusterMap, m,
                         "040000000000000002000000010000000200000006000000"
                         "6e6f64652d61090000003132372e302e302e31f31c7b0000"
                         "000000000001060000006e6f64652d62090000003132372e"
                         "302e302e32f41cc80100000000000002"));
  }
  {
    ReplicateMsg m;
    m.origin = "node-a";
    m.topic = "t0";
    m.expected_base = 40;
    m.entries = {e1, e2};
    out.push_back(Golden("replicate", MsgType::kReplicate, m,
                         "060000006e6f64652d610200000074302800000000000000"
                         "0200000029000000000000007b002a36fe9c971776002a36"
                         "fe9c9717000000000000e83f002a00000000000000f9ffff"
                         "fffffffffff4ffffffffffffff000000000000f8bf01"));
  }
  {
    ReplicateAckMsg m;
    m.verdict = ReplicateAckMsg::Verdict::kBehind;
    m.next_id = 38;
    out.push_back(Golden("replicate_ack", MsgType::kReplicateAck, m,
                         "012600000000000000"));
  }
  {
    ResyncPullMsg m;
    m.topic = "t0";
    m.from_id = 10;
    m.max_entries = 4096;
    out.push_back(Golden("resync_pull", MsgType::kResyncPull, m,
                         "0200000074300a0000000000000000100000"));
  }
  {
    ResyncChunkMsg m;
    m.high_water = 50;
    m.first_id = 41;
    m.entries = {e1};
    out.push_back(Golden("resync_chunk", MsgType::kResyncChunk, m,
                         "320000000000000029000000000000000100000029000000"
                         "000000007b002a36fe9c971776002a36fe9c971700000000"
                         "0000e83f00"));
  }
  {
    CQRegisterMsg m;
    m.name = "cq1";
    m.sql = "SUBSCRIBE SELECT LAST(metric) FROM t0 EVERY 1 s";
    m.resume_epoch = 2;
    m.resume_seq = 5;
    out.push_back(Golden("cq_register", MsgType::kCQRegister, m,
                         "030000006371312f0000005355425343524942452053454c"
                         "454354204c415354286d6574726963292046524f4d207430"
                         "204556455259203120730200000000000000050000000000"
                         "0000"));
  }
  {
    CQRegisterAckMsg m;
    m.cq_id = 11;
    m.epoch = 2;
    m.seq = 5;
    out.push_back(Golden("cq_register_ack", MsgType::kCQRegisterAck, m,
                         "0b0000000000000002000000000000000500000000000000"));
  }
  {
    CQCancelMsg m;
    m.cq_id = 11;
    out.push_back(Golden("cq_cancel", MsgType::kCQCancel, m,
                         "0b00000000000000"));
  }
  {
    CQCancelAckMsg m;
    m.cq_id = 11;
    out.push_back(Golden("cq_cancel_ack", MsgType::kCQCancelAck, m,
                         "0b00000000000000"));
  }
  {
    CQUpdateMsg m;
    m.cq_id = 11;
    m.epoch = 2;
    m.seq = 6;
    m.result = GoldenResultSet(false);
    out.push_back(Golden("cq_update", MsgType::kCQUpdate, m,
                         "0b0000000000000002000000000000000600000000000000"
                         "000903000000000000020000000c0000004c415354286d65"
                         "747269632908000000434f554e54282a2902000000110000"
                         "00636f6d70757465302e6370755f6c6f6164000903000000"
                         "00000002000000000000000000f83f00000000000000c011"
                         "000000636f6d70757465312e6370755f6c6f616400000000"
                         "000000000000000000"));
  }
  {
    ErrorMsg m;
    m.code = ErrorCode::kParseError;
    m.message = "bad publish";
    out.push_back(Golden("error", MsgType::kError, m,
                         "09000b000000626164207075626c697368"));
  }
  return out;
}

}  // namespace apollo::net::golden
