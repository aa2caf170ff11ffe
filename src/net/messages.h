// Typed messages carried in wire frames (see net/frame.h for the framing).
//
// Each message states its byte layout once: `Fields(io)` names its fields
// in wire order, and both Encode and Decode walk that one list
// (messages.cc). Integers are fixed-width little-endian; strings and lists
// carry a u32 count; bools are one byte, 0 or 1; enums travel as the
// integer width named in the list and are range-checked. Types owned by
// other modules (Sample, entries, result sets, topic infos, cluster maps)
// get free `Fields(io, value)` lists below, shared by every message that
// carries them.
//
// Decode is strict: it rejects a short payload, trailing bytes, a list
// over 256 Ki entries, an out-of-range enum or bool, and a message whose
// Valid() check fails, so every accepted payload re-encodes byte for byte.
// A layout change is one line in a Fields list and bumps kProtocolVersion;
// there are no tolerant trailing fields.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "aqe/executor.h"
#include "cluster/membership.h"
#include "net/frame.h"
#include "pubsub/broker.h"
#include "pubsub/stream.h"

namespace apollo::net {

using Payload = std::vector<std::uint8_t>;

// Encode and Decode of message type Msg, both driven by Msg::Fields.
template <typename Msg>
struct WireMessage {
  // Appends the encoded payload to `out`.
  void Encode(Payload& out) const;
  // Returns false on malformed input (see the file comment).
  static bool Decode(const Payload& in, Msg& msg);
};

// --- field-list building blocks ---

// `field` travels as integer type W. Decode rejects an enum value above
// `max`, or an integer outside the field's own type.
template <typename W, typename T>
struct WireAs {
  using Wire = W;
  T& field;
  T max;
};
template <typename W, typename T>
WireAs<W, T> As(T& field, T max = T{}) {
  return {field, max};
}

// A list whose elements use the layout `each(io, element)` instead of the
// element type's own Fields.
template <typename T, typename Each>
struct WireList {
  std::vector<T>& items;
  Each each;
};
template <typename T, typename Each>
WireList<T, Each> ListOf(std::vector<T>& items, Each each) {
  return {items, each};
}

// --- shared shapes ---

template <typename Io>
void Fields(Io& io, Sample& s) {
  io(s.timestamp, s.value,
     As<std::uint8_t>(s.provenance, Provenance::kPredicted));
}

// An entry with its id (deliveries, windows, replication, resync).
template <typename Io>
void Fields(Io& io, TelemetryStream::Entry& e) {
  io(e.id, e.timestamp, e.value);
}

// A batch entry: no id, the broker assigns ids on append.
struct BatchEntryFields {
  template <typename Io>
  void operator()(Io& io, TelemetryStream::Entry& e) const {
    io(e.timestamp, e.value);
  }
};

template <typename Io>
void Fields(Io& io, aqe::ResultRow& row) {
  io(row.source, row.degraded, row.staleness_ns, row.values);
}

template <typename Io>
void Fields(Io& io, aqe::ResultSet& result) {
  io(result.degraded, result.max_staleness_ns, result.columns, result.rows);
}

template <typename Io>
void Fields(Io& io, TopicInfo& info) {
  io(info.name, As<std::int64_t>(info.home_node));
}

template <typename Io>
void Fields(Io& io, cluster::Member& m) {
  io(m.name, m.host, m.port, m.generation,
     As<std::uint8_t>(m.state, cluster::MemberState::kDead));
}

template <typename Io>
void Fields(Io& io, cluster::ClusterMap& map) {
  io(map.version, map.replication_factor, map.write_quorum, map.members);
}

// --- messages ---

struct HelloMsg : WireMessage<HelloMsg> {
  std::uint32_t protocol_version = kProtocolVersion;
  std::string client_name;
  // Admission-control identity; empty selects the daemon's default tenant.
  std::string tenant;
  template <typename Io>
  void Fields(Io& io) { io(protocol_version, client_name, tenant); }
};

struct HelloAckMsg : WireMessage<HelloAckMsg> {
  std::uint32_t protocol_version = kProtocolVersion;
  std::string server_name;
  std::uint64_t topic_count = 0;
  template <typename Io>
  void Fields(Io& io) { io(protocol_version, server_name, topic_count); }
};

struct PublishMsg : WireMessage<PublishMsg> {
  std::string topic;
  TimeNs timestamp = 0;
  Sample sample;
  template <typename Io>
  void Fields(Io& io) { io(topic, timestamp, sample); }
};

struct PublishAckMsg : WireMessage<PublishAckMsg> {
  std::uint64_t entry_id = 0;
  template <typename Io>
  void Fields(Io& io) { io(entry_id); }
};

// Upper bound on samples in one kPublishBatch frame. 25 wire bytes per
// sample keeps a full batch far below kMaxFrameLen while still amortizing
// the per-frame syscall + ack round trip ~10^4 times.
inline constexpr std::uint32_t kMaxBatchSamples = 64 * 1024;

// Batched publish: samples grouped into runs of consecutive same-topic
// samples (order-preserving), so the daemon resolves each topic — and takes
// its stream lock — once per run instead of once per sample. The frame
// header's CRC32C covers the whole batch; there is no per-sample checksum.
// Entry ids are not carried (the broker assigns them on append).
struct PublishBatchMsg : WireMessage<PublishBatchMsg> {
  struct Run {
    std::string topic;
    std::vector<TelemetryStream::Entry> entries;  // id fields ignored
    template <typename Io>
    void Fields(Io& io) { io(topic, ListOf(entries, BatchEntryFields{})); }
  };
  std::vector<Run> runs;
  template <typename Io>
  void Fields(Io& io) { io(runs); }

  std::size_t SampleCount() const;
  // At least one run, no empty run, at most kMaxBatchSamples in total. The
  // client never sends anything else, so it can only come from corruption.
  bool Valid() const;
};

// Cumulative ack: one reply for the whole batch. Bit i of `error_bits`
// (LSB-first within each byte, indexing samples in batch order across runs)
// set means sample i failed; `first_error` describes the first failure so
// the client can surface a meaningful Error per rejected sample.
struct PublishBatchAckMsg : WireMessage<PublishBatchAckMsg> {
  std::uint32_t count = 0;          // samples covered by this ack
  std::uint64_t last_entry_id = 0;  // id of the last accepted sample
  std::uint32_t error_count = 0;
  std::vector<std::uint8_t> error_bits;  // ceil(count / 8) bytes
  ErrorCode first_error_code = ErrorCode::kInternal;
  std::string first_error;
  template <typename Io>
  void Fields(Io& io) {
    io(count, last_entry_id, error_count, error_bits,
       As<std::uint16_t>(first_error_code, ErrorCode::kIoError), first_error);
  }

  void Resize(std::uint32_t n) {
    count = n;
    error_bits.assign((n + 7) / 8, 0);
  }
  void MarkFailed(std::uint32_t i) {
    error_bits[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
    ++error_count;
  }
  bool Failed(std::uint32_t i) const {
    return (error_bits[i / 8] >> (i % 8)) & 1u;
  }
  // error_count <= count <= kMaxBatchSamples, and a ceil(count / 8)-byte
  // bitmap.
  bool Valid() const;
};

// Shared-memory ingest lane offer: the client has created and initialized a
// POSIX shm segment holding one SPSC ring (see net/shm_lane.h) and asks the
// daemon to attach as its consumer. Slot topic ids are indices into
// `topics`. A refusal (or any decode/attach failure) is the fallback
// handshake: the client keeps publishing over TCP batches.
struct ShmAttachMsg : WireMessage<ShmAttachMsg> {
  std::string segment_name;      // POSIX shm name ("/apollo-shm-…")
  std::uint32_t slot_count = 0;  // ring capacity; must be a power of two
  std::vector<std::string> topics;
  template <typename Io>
  void Fields(Io& io) { io(segment_name, slot_count, topics); }
};

struct ShmAttachAckMsg : WireMessage<ShmAttachAckMsg> {
  bool accepted = false;
  std::string message;  // refusal reason
  template <typename Io>
  void Fields(Io& io) { io(accepted, message); }
};

// cursor == kCursorTail starts the subscription at the stream's next id
// (only future entries are delivered).
inline constexpr std::uint64_t kCursorTail = UINT64_MAX;

struct SubscribeMsg : WireMessage<SubscribeMsg> {
  std::string topic;
  std::uint64_t cursor = kCursorTail;
  template <typename Io>
  void Fields(Io& io) { io(topic, cursor); }
};

struct SubscribeAckMsg : WireMessage<SubscribeAckMsg> {
  std::uint64_t subscription_id = 0;
  std::uint64_t start_cursor = 0;
  template <typename Io>
  void Fields(Io& io) { io(subscription_id, start_cursor); }
};

struct DeliverMsg : WireMessage<DeliverMsg> {
  std::uint64_t subscription_id = 0;
  std::string topic;
  std::vector<TelemetryStream::Entry> entries;
  template <typename Io>
  void Fields(Io& io) { io(subscription_id, topic, entries); }
};

struct FetchWindowMsg : WireMessage<FetchWindowMsg> {
  std::string topic;
  std::uint64_t cursor = 0;
  std::uint64_t max_entries = UINT64_MAX;
  template <typename Io>
  void Fields(Io& io) { io(topic, cursor, max_entries); }
};

struct WindowMsg : WireMessage<WindowMsg> {
  std::uint64_t next_cursor = 0;
  std::vector<TelemetryStream::Entry> entries;
  template <typename Io>
  void Fields(Io& io) { io(next_cursor, entries); }
};

struct QueryMsg : WireMessage<QueryMsg> {
  std::string sql;
  template <typename Io>
  void Fields(Io& io) { io(sql); }
};

struct ResultMsg : WireMessage<ResultMsg> {
  aqe::ResultSet result;
  // Tables this daemon actually executed (partial queries skip branches
  // whose topics live elsewhere; the scatter-gather merge checks coverage).
  std::vector<std::string> served_tables;
  template <typename Io>
  void Fields(Io& io) { io(result, served_tables); }
};

struct TopicListMsg : WireMessage<TopicListMsg> {
  std::vector<TopicInfo> topics;
  template <typename Io>
  void Fields(Io& io) { io(topics); }
};

struct MetricsTextMsg : WireMessage<MetricsTextMsg> {
  std::string text;
  template <typename Io>
  void Fields(Io& io) { io(text); }
};

// --- cluster fabric messages (heartbeat, map, replicate, resync) ---

// Membership probe: carries the sender's identity so the receiving side
// learns about the prober passively (an inbound heartbeat is as good an
// aliveness proof as an ack), which is what lets a rejoining node
// reappear in its peers' maps within one probe interval.
struct HeartbeatMsg : WireMessage<HeartbeatMsg> {
  std::string sender;
  std::uint64_t generation = 0;  // sender's process-start stamp
  std::uint8_t state = 0;        // cluster::MemberState of the sender
  std::uint64_t map_version = 0;
  template <typename Io>
  void Fields(Io& io) { io(sender, generation, state, map_version); }
};

struct HeartbeatAckMsg : WireMessage<HeartbeatAckMsg> {
  std::string sender;
  std::uint64_t generation = 0;
  std::uint8_t state = 0;
  std::uint64_t map_version = 0;
  template <typename Io>
  void Fields(Io& io) { io(sender, generation, state, map_version); }
};

// Reply to kGetClusterMap and the push on membership change
// (request_id 0). Clients keep the highest version seen per source node.
struct ClusterMapMsg : WireMessage<ClusterMapMsg> {
  cluster::ClusterMap map;
  template <typename Io>
  void Fields(Io& io) { io(map); }
};

// Primary -> secondary mirror of one publish run. `expected_base` is the
// primary's stream NextId before it appends: the secondary applies the
// entries only when its own NextId matches, so both streams assign the
// same ids and a divergent replica is detected on the spot instead of
// silently drifting.
struct ReplicateMsg : WireMessage<ReplicateMsg> {
  std::string origin;  // primary's node name
  std::string topic;
  std::uint64_t expected_base = 0;
  std::vector<TelemetryStream::Entry> entries;  // id fields ignored
  template <typename Io>
  void Fields(Io& io) { io(origin, topic, expected_base, entries); }
};

struct ReplicateAckMsg : WireMessage<ReplicateAckMsg> {
  enum class Verdict : std::uint8_t {
    kApplied = 0,  // entries appended at expected_base
    kBehind = 1,   // replica's NextId < expected_base: it missed data and
                   // will resync; the primary still counts the write as
                   // unreplicated here
    kAhead = 2,    // replica's NextId > expected_base: the PRIMARY is the
                   // stale one (it just rejoined); it must abort the
                   // append and resync before serving writes
    kRefused = 3,  // not clustered / decode failure
  };
  Verdict verdict = Verdict::kRefused;
  std::uint64_t next_id = 0;  // replica's NextId after handling
  template <typename Io>
  void Fields(Io& io) {
    io(As<std::uint8_t>(verdict, Verdict::kRefused), next_id);
  }
};

// WAL-tail catch-up: the joining node asks a peer replica for a topic's
// entries from its own NextId forward, looping until it reaches the
// peer's high water mark.
struct ResyncPullMsg : WireMessage<ResyncPullMsg> {
  std::string topic;
  std::uint64_t from_id = 0;
  std::uint32_t max_entries = 4096;
  template <typename Io>
  void Fields(Io& io) { io(topic, from_id, max_entries); }
};

struct ResyncChunkMsg : WireMessage<ResyncChunkMsg> {
  std::uint64_t high_water = 0;  // peer's NextId at reply time
  std::uint64_t first_id = 0;    // id of entries[0] (eviction may have
                                 // advanced past the requested from_id)
  std::vector<TelemetryStream::Entry> entries;  // ids preserved
  template <typename Io>
  void Fields(Io& io) { io(high_water, first_id, entries); }
};

// --- continuous-query messages (see src/cq) ---

// Registers a SUBSCRIBE query. `name` is the client's stable handle for
// this CQ within its tenant — the resume key after a reconnect. A fresh
// registration sends resume_epoch 0; a resuming client echoes the epoch
// and sequence number of the last kCQUpdate it received, and the daemon
// either replays the missed updates from its ring (same epoch, no
// duplicates) or bumps the epoch and restarts from a full snapshot.
struct CQRegisterMsg : WireMessage<CQRegisterMsg> {
  std::string name;
  std::string sql;  // SUBSCRIBE SELECT ... [EVERY n unit]
  std::uint64_t resume_epoch = 0;
  std::uint64_t resume_seq = 0;
  template <typename Io>
  void Fields(Io& io) { io(name, sql, resume_epoch, resume_seq); }
};

struct CQRegisterAckMsg : WireMessage<CQRegisterAckMsg> {
  std::uint64_t cq_id = 0;
  std::uint64_t epoch = 0;
  // Last sequence number already delivered (resume) or 0 (snapshot
  // follows as seq 1).
  std::uint64_t seq = 0;
  template <typename Io>
  void Fields(Io& io) { io(cq_id, epoch, seq); }
};

struct CQCancelMsg : WireMessage<CQCancelMsg> {
  std::uint64_t cq_id = 0;
  template <typename Io>
  void Fields(Io& io) { io(cq_id); }
};

struct CQCancelAckMsg : WireMessage<CQCancelAckMsg> {
  std::uint64_t cq_id = 0;
  template <typename Io>
  void Fields(Io& io) { io(cq_id); }
};

// Incremental result push (request_id 0). Carries the full materialized
// row set of the CQ at (epoch, seq) — rows are per UNION branch, so the
// set is small and self-describing; clients replace, not merge.
struct CQUpdateMsg : WireMessage<CQUpdateMsg> {
  std::uint64_t cq_id = 0;
  std::uint64_t epoch = 0;
  std::uint64_t seq = 0;
  aqe::ResultSet result;
  template <typename Io>
  void Fields(Io& io) { io(cq_id, epoch, seq, result); }
};

struct ErrorMsg : WireMessage<ErrorMsg> {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
  template <typename Io>
  void Fields(Io& io) {
    io(As<std::uint16_t>(code, ErrorCode::kIoError), message);
  }

  Error ToError() const { return Error(code, message); }
};

}  // namespace apollo::net
