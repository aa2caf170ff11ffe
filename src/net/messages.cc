#include "net/messages.h"

#include <type_traits>
#include <utility>

namespace apollo::net {

namespace {

// Entry lists are capped well under kMaxFrameLen: 28 bytes each + frame
// overhead keeps a full 4096-entry window comfortably inside one frame.
constexpr std::uint64_t kMaxWireEntries = 256 * 1024;

template <typename T>
struct IsVector : std::false_type {};
template <typename T>
struct IsVector<std::vector<T>> : std::true_type {};

template <typename T>
struct IsWireAs : std::false_type {};
template <typename W, typename T>
struct IsWireAs<WireAs<W, T>> : std::true_type {};

template <typename T>
struct IsWireList : std::false_type {};
template <typename T, typename Each>
struct IsWireList<WireList<T, Each>> : std::true_type {};

// Runs a nested value's field list: the member Fields of this module's
// structs, or the free Fields of a shape owned by another module.
template <typename Io, typename T>
void NestedFields(Io& io, T& value) {
  if constexpr (requires { value.Fields(io); }) {
    value.Fields(io);
  } else {
    Fields(io, value);
  }
}

// The two adapters below are mirror images: one case per field kind, each
// writing or reading the same bytes. Everything inlines into the
// per-message Encode/Decode; no allocation or indirect call per field.

// Writer adapter: turns a Fields list into bytes.
class WireOut {
 public:
  explicit WireOut(Payload& out) : w_(out) {}

  template <typename... T>
  void operator()(T&&... fields) {
    (Put(fields), ...);
  }

 private:
  template <typename T>
  void Put(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      w_.U8(v ? 1 : 0);
    } else if constexpr (std::is_same_v<T, std::uint8_t>) {
      w_.U8(v);
    } else if constexpr (std::is_same_v<T, std::uint16_t>) {
      w_.U16(v);
    } else if constexpr (std::is_same_v<T, std::uint32_t>) {
      w_.U32(v);
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
      w_.U64(v);
    } else if constexpr (std::is_same_v<T, std::int64_t>) {
      w_.I64(v);
    } else if constexpr (std::is_same_v<T, double>) {
      w_.F64(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      w_.Str(v);
    } else if constexpr (IsWireAs<T>::value) {
      auto raw = static_cast<typename T::Wire>(v.field);
      Put(raw);
    } else if constexpr (IsWireList<T>::value) {
      List(v.items, v.each);
    } else if constexpr (IsVector<T>::value) {
      List(v, [](WireOut& io, auto& item) { io.Put(item); });
    } else {
      NestedFields(*this, v);
    }
  }

  template <typename T, typename Each>
  void List(std::vector<T>& items, Each each) {
    w_.U32(static_cast<std::uint32_t>(items.size()));
    for (T& item : items) each(*this, item);
  }

  WireWriter w_;
};

// Reader adapter: fills a Fields list from bytes. A short read, or a value
// the list does not accept, latches the reader's error; the remaining
// fields then read as zero and the message is rejected.
class WireIn {
 public:
  explicit WireIn(const Payload& in) : r_(in) {}

  template <typename... T>
  void operator()(T&&... fields) {
    (Get(fields), ...);
  }

  // True when every field parsed and the payload was consumed exactly.
  bool Done() const { return r_.ok() && r_.AtEnd(); }

 private:
  void Check(bool valid) {
    if (!valid) r_.Fail();
  }

  template <typename T>
  void Get(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      const std::uint8_t byte = r_.U8();
      Check(byte <= 1);
      v = byte == 1;
    } else if constexpr (std::is_same_v<T, std::uint8_t>) {
      v = r_.U8();
    } else if constexpr (std::is_same_v<T, std::uint16_t>) {
      v = r_.U16();
    } else if constexpr (std::is_same_v<T, std::uint32_t>) {
      v = r_.U32();
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
      v = r_.U64();
    } else if constexpr (std::is_same_v<T, std::int64_t>) {
      v = r_.I64();
    } else if constexpr (std::is_same_v<T, double>) {
      v = r_.F64();
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = r_.Str();
    } else if constexpr (IsWireAs<T>::value) {
      using Field = std::remove_reference_t<decltype(v.field)>;
      typename T::Wire raw{};
      Get(raw);
      if constexpr (std::is_enum_v<Field>) {
        Check(raw <= static_cast<typename T::Wire>(v.max));
      } else {
        Check(std::in_range<Field>(raw));
      }
      v.field = static_cast<Field>(raw);
    } else if constexpr (IsWireList<T>::value) {
      List(v.items, v.each);
    } else if constexpr (IsVector<T>::value) {
      List(v, [](WireIn& io, auto& item) { io.Get(item); });
    } else {
      NestedFields(*this, v);
    }
  }

  // Every element takes at least one byte, so a count beyond the bytes
  // left is rejected before it can drive a large reserve().
  template <typename T, typename Each>
  void List(std::vector<T>& items, Each each) {
    const std::uint32_t count = r_.U32();
    Check(count <= kMaxWireEntries && count <= r_.Remaining());
    items.clear();
    if (!r_.ok()) return;
    items.reserve(count);
    for (std::uint32_t i = 0; i < count && r_.ok(); ++i) {
      each(*this, items.emplace_back());
    }
  }

  WireReader r_;
};

}  // namespace

template <typename Msg>
void WireMessage<Msg>::Encode(Payload& out) const {
  WireOut io(out);
  // Fields is shared with Decode, so it takes a mutable message; the
  // writer only reads through it.
  const_cast<Msg&>(static_cast<const Msg&>(*this)).Fields(io);
}

template <typename Msg>
bool WireMessage<Msg>::Decode(const Payload& in, Msg& msg) {
  WireIn io(in);
  msg.Fields(io);
  if (!io.Done()) return false;
  if constexpr (requires { msg.Valid(); }) return msg.Valid();
  return true;
}

std::size_t PublishBatchMsg::SampleCount() const {
  std::size_t n = 0;
  for (const Run& run : runs) n += run.entries.size();
  return n;
}

bool PublishBatchMsg::Valid() const {
  std::size_t total = 0;
  for (const Run& run : runs) {
    if (run.entries.empty()) return false;
    total += run.entries.size();
  }
  return total > 0 && total <= kMaxBatchSamples;
}

bool PublishBatchAckMsg::Valid() const {
  return count <= kMaxBatchSamples && error_count <= count &&
         error_bits.size() == (count + 7) / 8;
}

template struct WireMessage<HelloMsg>;
template struct WireMessage<HelloAckMsg>;
template struct WireMessage<PublishMsg>;
template struct WireMessage<PublishAckMsg>;
template struct WireMessage<PublishBatchMsg>;
template struct WireMessage<PublishBatchAckMsg>;
template struct WireMessage<ShmAttachMsg>;
template struct WireMessage<ShmAttachAckMsg>;
template struct WireMessage<SubscribeMsg>;
template struct WireMessage<SubscribeAckMsg>;
template struct WireMessage<DeliverMsg>;
template struct WireMessage<FetchWindowMsg>;
template struct WireMessage<WindowMsg>;
template struct WireMessage<QueryMsg>;
template struct WireMessage<ResultMsg>;
template struct WireMessage<TopicListMsg>;
template struct WireMessage<MetricsTextMsg>;
template struct WireMessage<HeartbeatMsg>;
template struct WireMessage<HeartbeatAckMsg>;
template struct WireMessage<ClusterMapMsg>;
template struct WireMessage<ReplicateMsg>;
template struct WireMessage<ReplicateAckMsg>;
template struct WireMessage<ResyncPullMsg>;
template struct WireMessage<ResyncChunkMsg>;
template struct WireMessage<CQRegisterMsg>;
template struct WireMessage<CQRegisterAckMsg>;
template struct WireMessage<CQCancelMsg>;
template struct WireMessage<CQCancelAckMsg>;
template struct WireMessage<CQUpdateMsg>;
template struct WireMessage<ErrorMsg>;

}  // namespace apollo::net
