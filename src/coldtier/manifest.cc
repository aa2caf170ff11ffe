#include "coldtier/manifest.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/codec.h"

namespace apollo::coldtier {

namespace {

Status IoError(const std::string& what, const std::string& path) {
  return Status(ErrorCode::kIoError,
                what + ": " + path + " (" + std::strerror(errno) + ")");
}

std::string DirectoryOf(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status FsyncPath(const std::string& path, int open_flags) {
  const int fd = ::open(path.c_str(), open_flags);
  if (fd < 0) return IoError("manifest fsync open failed", path);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return IoError("manifest fsync failed", path);
  return Status::Ok();
}

}  // namespace

void EncodeManifest(const Manifest& manifest,
                    std::vector<std::uint8_t>& out) {
  out.clear();
  PutU32(out, kManifestMagic);
  PutU32(out, kManifestVersion);
  PutU32(out, static_cast<std::uint32_t>(manifest.entries.size()));
  PutU32(out, Crc32c(out.data(), 12));
  const std::size_t body_start = out.size();
  for (const ManifestEntry& entry : manifest.entries) {
    PutU64(out, entry.first_wal_seq);
    PutU64(out, entry.last_wal_seq);
    PutU64(out, entry.row_count);
    PutZone(out, entry.zone);
    const std::uint16_t name_len =
        static_cast<std::uint16_t>(entry.block_file.size());
    out.push_back(static_cast<std::uint8_t>(name_len));
    out.push_back(static_cast<std::uint8_t>(name_len >> 8));
    out.insert(out.end(), entry.block_file.begin(), entry.block_file.end());
  }
  PutU32(out, Crc32c(out.data() + body_start, out.size() - body_start));
}

bool DecodeManifest(const std::uint8_t* data, std::size_t size,
                    Manifest* out) {
  if (data == nullptr || size < 20) return false;
  if (GetU32(data) != kManifestMagic) return false;
  if (GetU32(data + 4) != kManifestVersion) return false;
  const std::uint32_t count = GetU32(data + 8);
  if (GetU32(data + 12) != Crc32c(data, 12)) return false;
  if (count > kMaxManifestEntries) return false;
  if (GetU32(data + size - 4) != Crc32c(data + 16, size - 20)) return false;

  out->entries.clear();
  out->entries.reserve(count);
  std::size_t pos = 16;
  const std::size_t body_end = size - 4;
  std::uint64_t prev_last_seq = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    // Fixed part: 3 u64 + 56-byte zone + u16 name length.
    if (body_end - pos < 24 + 56 + 2) return false;
    ManifestEntry entry;
    entry.first_wal_seq = GetU64(data + pos);
    entry.last_wal_seq = GetU64(data + pos + 8);
    entry.row_count = GetU64(data + pos + 16);
    entry.zone = GetZone(data + pos + 24);
    pos += 24 + 56;
    const std::uint16_t name_len =
        static_cast<std::uint16_t>(data[pos]) |
        static_cast<std::uint16_t>(data[pos + 1]) << 8;
    pos += 2;
    if (name_len == 0 || name_len > kMaxBlockFileName) return false;
    if (body_end - pos < name_len) return false;
    entry.block_file.assign(reinterpret_cast<const char*>(data + pos),
                            name_len);
    pos += name_len;
    // Block file names must be plain file names: a corrupt or hostile
    // manifest must not be able to point reads outside its directory.
    if (entry.block_file.find('/') != std::string::npos) return false;
    if (entry.block_file.find('\0') != std::string::npos) return false;
    if (entry.first_wal_seq == 0 ||
        entry.last_wal_seq < entry.first_wal_seq ||
        entry.first_wal_seq <= prev_last_seq || entry.row_count == 0) {
      return false;
    }
    prev_last_seq = entry.last_wal_seq;
    out->entries.push_back(std::move(entry));
  }
  return pos == body_end;
}

Status WriteManifestAtomic(const std::string& path,
                           const Manifest& manifest) {
  std::vector<std::uint8_t> image;
  EncodeManifest(manifest, image);

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return IoError("manifest temp open failed", tmp);
  if (!image.empty() &&
      std::fwrite(image.data(), 1, image.size(), f) != image.size()) {
    std::fclose(f);
    std::remove(tmp.c_str());
    return IoError("manifest temp write failed", tmp);
  }
  if (std::fflush(f) != 0 || ::fsync(fileno(f)) != 0) {
    std::fclose(f);
    std::remove(tmp.c_str());
    return IoError("manifest temp fsync failed", tmp);
  }
  std::fclose(f);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return IoError("manifest rename failed", path);
  }
  // The rename must survive a crash of the whole machine, not just the
  // process: sync the directory entry too.
  return FsyncPath(DirectoryOf(path), O_RDONLY | O_DIRECTORY);
}

Expected<Manifest> ReadManifest(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (errno == ENOENT) return Manifest{};
    return Error(ErrorCode::kIoError, "manifest open failed: " + path);
  }
  std::fseek(f, 0, SEEK_END);
  const long end = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (end < 0) {
    std::fclose(f);
    return Error(ErrorCode::kIoError, "manifest size failed: " + path);
  }
  std::vector<std::uint8_t> image(static_cast<std::size_t>(end));
  if (!image.empty() &&
      std::fread(image.data(), 1, image.size(), f) != image.size()) {
    std::fclose(f);
    return Error(ErrorCode::kIoError, "manifest read failed: " + path);
  }
  std::fclose(f);
  Manifest manifest;
  if (!DecodeManifest(image.data(), image.size(), &manifest)) {
    return Error(ErrorCode::kParseError, "manifest corrupt: " + path);
  }
  return manifest;
}

}  // namespace apollo::coldtier
