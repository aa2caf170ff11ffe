#include "pubsub/wal_format.h"

#include <cstring>

namespace apollo::wal {

void EncodeHeader(std::uint8_t* out, std::uint32_t payload_size) {
  PutU32(out, kMagic);
  PutU32(out + 4, kVersion);
  PutU32(out + 8, payload_size);
  PutU32(out + 12, Crc32c(out, 12));
}

bool DecodeHeader(const std::uint8_t* data, std::size_t size,
                  std::uint32_t* payload_size) {
  if (size < kHeaderSize) return false;
  if (GetU32(data) != kMagic) return false;
  if (GetU32(data + 4) != kVersion) return false;
  if (GetU32(data + 12) != Crc32c(data, 12)) return false;
  const std::uint32_t hint = GetU32(data + 8);
  if (hint > kMaxRecordLen) return false;
  if (payload_size != nullptr) *payload_size = hint;
  return true;
}

std::size_t EncodeRecord(std::uint8_t* out, const void* payload,
                         std::uint32_t len) {
  PutU32(out, len);
  PutU32(out + 4, Crc32c(payload, len));
  std::memcpy(out + kFrameOverhead, payload, len);
  return kFrameOverhead + len;
}

ScanResult ScanBuffer(
    const std::uint8_t* data, std::size_t size,
    const std::function<void(const std::uint8_t* payload,
                             std::uint32_t len)>& visit) {
  ScanResult result;
  std::uint32_t payload_size = 0;
  if (!DecodeHeader(data, size, &payload_size)) {
    result.dropped_bytes = size;
    return result;
  }
  result.header_ok = true;
  std::size_t pos = kHeaderSize;
  while (size - pos >= kFrameOverhead) {
    const std::uint32_t len = GetU32(data + pos);
    if (len > kMaxRecordLen) break;
    if (payload_size != 0 && len != payload_size) break;
    if (size - pos - kFrameOverhead < len) break;  // torn tail
    const std::uint8_t* payload = data + pos + kFrameOverhead;
    if (GetU32(data + pos + 4) != Crc32c(payload, len)) break;
    if (visit) visit(payload, len);
    ++result.records;
    pos += kFrameOverhead + len;
  }
  result.valid_bytes = pos;
  result.dropped_bytes = size - pos;
  result.clean = result.dropped_bytes == 0;
  return result;
}

}  // namespace apollo::wal
