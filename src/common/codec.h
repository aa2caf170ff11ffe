// Byte-level codecs shared by every on-disk and on-wire format: CRC32C
// (WAL records, cold blocks, the manifest, wire frames) and fixed-width
// little-endian integers. Varint/zigzag stay in coldtier/block_format, their
// only user.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace apollo {

// CRC32C (Castagnoli). `seed` chains partial computations.
std::uint32_t Crc32c(const void* data, std::size_t len,
                     std::uint32_t seed = 0);

// Stores `v` little-endian at `out`.
inline void PutU16(std::uint8_t* out, std::uint16_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
}

inline void PutU32(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

inline void PutU64(std::uint8_t* out, std::uint64_t v) {
  PutU32(out, static_cast<std::uint32_t>(v));
  PutU32(out + 4, static_cast<std::uint32_t>(v >> 32));
}

// Appends `v` little-endian to `out`.
inline void PutU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.resize(out.size() + 4);
  PutU32(out.data() + out.size() - 4, v);
}

inline void PutU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  out.resize(out.size() + 8);
  PutU64(out.data() + out.size() - 8, v);
}

// Loads a little-endian value from `in`.
inline std::uint16_t GetU16(const std::uint8_t* in) {
  return static_cast<std::uint16_t>(in[0] | in[1] << 8);
}

inline std::uint32_t GetU32(const std::uint8_t* in) {
  return static_cast<std::uint32_t>(in[0]) |
         static_cast<std::uint32_t>(in[1]) << 8 |
         static_cast<std::uint32_t>(in[2]) << 16 |
         static_cast<std::uint32_t>(in[3]) << 24;
}

inline std::uint64_t GetU64(const std::uint8_t* in) {
  return static_cast<std::uint64_t>(GetU32(in)) |
         static_cast<std::uint64_t>(GetU32(in + 4)) << 32;
}

}  // namespace apollo
