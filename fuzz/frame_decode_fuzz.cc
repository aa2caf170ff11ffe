// Fuzz target for the wire decoders: net::FrameParser over a raw byte
// stream, then the typed Decode for each complete frame's MsgType — the
// code that parses untrusted bytes from every fabric connection. It must
// never read out of bounds, and anything it accepts must be canonical:
// re-encoding a decoded payload must reproduce it byte for byte (the same
// rule the cold-block fuzzer applies). Reassembly must also not depend on
// how the stream is split across reads.
//
// Build with -DAPOLLO_FUZZ=ON. When the toolchain supports
// -fsanitize=fuzzer this links against libFuzzer; otherwise a standalone
// driver main() replays corpus files passed on the command line, so the
// target still builds (and CI exercises the build) on plain GCC.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "net/frame.h"
#include "net/messages.h"

namespace {

using namespace apollo::net;

template <typename Msg>
void CheckCanonical(const Payload& payload) {
  Msg msg;
  if (!Msg::Decode(payload, msg)) return;
  Payload reencoded;
  msg.Encode(reencoded);
  if (reencoded != payload) __builtin_trap();
}

void CheckPayload(const Frame& frame) {
  const Payload& p = frame.payload;
  switch (frame.type) {
    case MsgType::kHello: return CheckCanonical<HelloMsg>(p);
    case MsgType::kHelloAck: return CheckCanonical<HelloAckMsg>(p);
    case MsgType::kPublish: return CheckCanonical<PublishMsg>(p);
    case MsgType::kPublishAck: return CheckCanonical<PublishAckMsg>(p);
    case MsgType::kSubscribe: return CheckCanonical<SubscribeMsg>(p);
    case MsgType::kSubscribeAck: return CheckCanonical<SubscribeAckMsg>(p);
    case MsgType::kDeliver: return CheckCanonical<DeliverMsg>(p);
    case MsgType::kFetchWindow: return CheckCanonical<FetchWindowMsg>(p);
    case MsgType::kWindow: return CheckCanonical<WindowMsg>(p);
    case MsgType::kQuery: return CheckCanonical<QueryMsg>(p);
    case MsgType::kResult: return CheckCanonical<ResultMsg>(p);
    case MsgType::kTopicList: return CheckCanonical<TopicListMsg>(p);
    case MsgType::kMetricsText: return CheckCanonical<MetricsTextMsg>(p);
    case MsgType::kError: return CheckCanonical<ErrorMsg>(p);
    case MsgType::kPublishBatch: return CheckCanonical<PublishBatchMsg>(p);
    case MsgType::kPublishBatchAck:
      return CheckCanonical<PublishBatchAckMsg>(p);
    case MsgType::kShmAttach: return CheckCanonical<ShmAttachMsg>(p);
    case MsgType::kShmAttachAck: return CheckCanonical<ShmAttachAckMsg>(p);
    case MsgType::kHeartbeat: return CheckCanonical<HeartbeatMsg>(p);
    case MsgType::kHeartbeatAck: return CheckCanonical<HeartbeatAckMsg>(p);
    case MsgType::kClusterMap: return CheckCanonical<ClusterMapMsg>(p);
    case MsgType::kReplicate: return CheckCanonical<ReplicateMsg>(p);
    case MsgType::kReplicateAck: return CheckCanonical<ReplicateAckMsg>(p);
    case MsgType::kResyncPull: return CheckCanonical<ResyncPullMsg>(p);
    case MsgType::kResyncChunk: return CheckCanonical<ResyncChunkMsg>(p);
    case MsgType::kCQRegister: return CheckCanonical<CQRegisterMsg>(p);
    case MsgType::kCQRegisterAck: return CheckCanonical<CQRegisterAckMsg>(p);
    case MsgType::kCQCancel: return CheckCanonical<CQCancelMsg>(p);
    case MsgType::kCQCancelAck: return CheckCanonical<CQCancelAckMsg>(p);
    case MsgType::kCQUpdate: return CheckCanonical<CQUpdateMsg>(p);
    // Requests whose payload the daemon ignores.
    case MsgType::kPing:
    case MsgType::kPong:
    case MsgType::kListTopics:
    case MsgType::kMetrics:
    case MsgType::kGetClusterMap:
      return;
  }
  // Unknown type byte: the daemon answers with an error, nothing decodes.
}

std::vector<Frame> Parse(const std::uint8_t* data, std::size_t size,
                         std::size_t split, bool* ok) {
  FrameParser parser;
  parser.Feed(data, split);
  parser.Feed(data + split, size - split);
  std::vector<Frame> frames;
  Frame frame;
  while (parser.Next(frame)) frames.push_back(frame);
  *ok = parser.ok();
  return frames;
}

bool SameFrame(const Frame& a, const Frame& b) {
  return a.type == b.type && a.flags == b.flags &&
         a.request_id == b.request_id && a.payload == b.payload;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  bool whole_ok = false;
  const std::vector<Frame> frames = Parse(data, size, size, &whole_ok);
  for (const Frame& frame : frames) CheckPayload(frame);

  // The same stream delivered in two reads yields the same frames.
  bool split_ok = false;
  const std::vector<Frame> split = Parse(data, size, size / 2, &split_ok);
  if (split_ok != whole_ok || split.size() != frames.size()) __builtin_trap();
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (!SameFrame(frames[i], split[i])) __builtin_trap();
  }
  return 0;
}

#if !defined(APOLLO_FUZZ_LIBFUZZER)
// Standalone corpus driver: replays each file argument through the target
// once. Keeps the target buildable/testable without libFuzzer.
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::FILE* f = std::fopen(argv[i], "rb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", argv[i]);
      return 1;
    }
    std::vector<std::uint8_t> buf;
    std::uint8_t chunk[4096];
    std::size_t n = 0;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
      buf.insert(buf.end(), chunk, chunk + n);
    }
    std::fclose(f);
    LLVMFuzzerTestOneInput(buf.data(), buf.size());
    std::printf("ok %s (%zu bytes)\n", argv[i], buf.size());
  }
  return 0;
}
#endif
