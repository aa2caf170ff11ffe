#include "net/shm_lane.h"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <new>
#include <string_view>

#include "obs/metrics.h"

namespace apollo::net {

namespace {

bool PowerOfTwo(std::uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }

Error Errno(const std::string& what) {
  return Error(ErrorCode::kIoError, what + ": " + std::strerror(errno));
}

}  // namespace

Expected<std::unique_ptr<ShmLaneProducer>> ShmLaneProducer::Create(
    const std::string& name, std::uint32_t slot_count) {
  if (name.empty() || name[0] != '/') {
    return Error(ErrorCode::kInvalidArgument,
                 "shm name must start with '/': " + name);
  }
  if (!PowerOfTwo(slot_count) || slot_count < 2 ||
      slot_count > kShmLaneMaxSlots) {
    return Error(ErrorCode::kInvalidArgument,
                 "slot_count must be a power of two in [2, 2^20], got " +
                     std::to_string(slot_count));
  }
  const int fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  if (fd < 0) return Errno("shm_open " + name);
  const std::size_t bytes = ShmLaneBytes(slot_count);
  if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
    Error err = Errno("ftruncate " + name);
    ::close(fd);
    ::shm_unlink(name.c_str());
    return err;
  }
  void* map =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  if (map == MAP_FAILED) {
    Error err = Errno("mmap " + name);
    ::close(fd);
    ::shm_unlink(name.c_str());
    return err;
  }
  auto* header = new (map) ShmLaneHeader;
  header->slot_count = slot_count;
  header->head.store(0, std::memory_order_relaxed);
  header->tail.store(0, std::memory_order_relaxed);
  header->version = kShmLaneVersion;
  // Magic last: an attacher that races segment setup sees magic==0 and
  // refuses rather than reading a half-initialised header.
  header->magic = kShmLaneMagic;
  return std::unique_ptr<ShmLaneProducer>(
      new ShmLaneProducer(name, fd, map, slot_count));
}

ShmLaneProducer::~ShmLaneProducer() {
  if (map_ != nullptr) ::munmap(map_, ShmLaneBytes(slots_));
  if (fd_ >= 0) ::close(fd_);
  ::shm_unlink(name_.c_str());
}

bool ShmLaneProducer::TryPush(const ShmSlot& slot) {
  ShmLaneHeader* h = header();
  const std::uint64_t head = h->head.load(std::memory_order_relaxed);
  const std::uint64_t tail = h->tail.load(std::memory_order_acquire);
  if (head - tail >= slots_) return false;  // full
  slot_array()[head & (slots_ - 1)] = slot;
  h->head.store(head + 1, std::memory_order_release);
  return true;
}

Expected<std::unique_ptr<ShmLaneConsumer>> ShmLaneConsumer::Attach(
    const std::string& name, std::uint32_t expected_slots) {
  if (name.empty() || name[0] != '/') {
    return Error(ErrorCode::kInvalidArgument,
                 "shm name must start with '/': " + name);
  }
  if (!PowerOfTwo(expected_slots) || expected_slots > kShmLaneMaxSlots) {
    return Error(ErrorCode::kInvalidArgument, "bad slot_count in offer");
  }
  const int fd = ::shm_open(name.c_str(), O_RDWR, 0600);
  if (fd < 0) return Errno("shm_open " + name);
  const std::size_t bytes = ShmLaneBytes(expected_slots);
  struct stat st {};
  if (::fstat(fd, &st) != 0 || static_cast<std::size_t>(st.st_size) < bytes) {
    ::close(fd);
    return Error(ErrorCode::kFailedPrecondition,
                 "shm segment smaller than offered geometry: " + name);
  }
  void* map =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  if (map == MAP_FAILED) {
    Error err = Errno("mmap " + name);
    ::close(fd);
    return err;
  }
  auto* header = static_cast<ShmLaneHeader*>(map);
  if (header->magic != kShmLaneMagic || header->version != kShmLaneVersion ||
      header->slot_count != expected_slots) {
    ::munmap(map, bytes);
    ::close(fd);
    return Error(ErrorCode::kFailedPrecondition,
                 "shm header mismatch (magic/version/slot_count): " + name);
  }
  return std::unique_ptr<ShmLaneConsumer>(
      new ShmLaneConsumer(fd, map, expected_slots));
}

ShmLaneConsumer::~ShmLaneConsumer() {
  if (map_ != nullptr) ::munmap(map_, ShmLaneBytes(slots_));
  if (fd_ >= 0) ::close(fd_);
}

std::size_t ShmLaneConsumer::Drain(std::vector<ShmSlot>& out,
                                   std::size_t max) {
  ShmLaneHeader* h = header();
  const std::uint64_t head = h->head.load(std::memory_order_acquire);
  std::uint64_t tail = h->tail.load(std::memory_order_relaxed);
  std::size_t drained = 0;
  const ShmSlot* slots = slot_array();
  while (tail != head && drained < max) {
    out.push_back(slots[tail & (slots_ - 1)]);
    ++tail;
    ++drained;
  }
  if (drained > 0) h->tail.store(tail, std::memory_order_release);
  return drained;
}

int ShmLaneOwnerPid(const std::string& name) {
  constexpr std::string_view kPrefix = "apollo-lane-";
  std::string_view rest = name;
  if (!rest.empty() && rest[0] == '/') rest.remove_prefix(1);
  if (rest.substr(0, kPrefix.size()) != kPrefix) return -1;
  rest.remove_prefix(kPrefix.size());
  // "<pid>-<seq>": both parts must be non-empty and all digits.
  const std::size_t dash = rest.find('-');
  if (dash == 0 || dash == std::string_view::npos ||
      dash + 1 >= rest.size()) {
    return -1;
  }
  long pid = 0;
  for (std::size_t i = 0; i < dash; ++i) {
    if (rest[i] < '0' || rest[i] > '9') return -1;
    pid = pid * 10 + (rest[i] - '0');
    if (pid > INT32_MAX) return -1;
  }
  for (std::size_t i = dash + 1; i < rest.size(); ++i) {
    if (rest[i] < '0' || rest[i] > '9') return -1;
  }
  return static_cast<int>(pid);
}

std::size_t ReapOrphanShmLanes() {
  static obs::Counter reaped_total = obs::MetricsRegistry::Global().GetCounter(
      "apollo_net_shm_orphans_reaped_total",
      "Orphaned shm lane segments unlinked after their producer died");
  // POSIX shm names surface as files in /dev/shm on Linux; scanning the
  // directory is the only portable-enough way to enumerate them.
  DIR* dir = ::opendir("/dev/shm");
  if (dir == nullptr) return 0;
  std::size_t reaped = 0;
  while (const struct dirent* ent = ::readdir(dir)) {
    const int pid = ShmLaneOwnerPid(ent->d_name);
    if (pid <= 0) continue;
    if (::kill(static_cast<pid_t>(pid), 0) == 0 || errno != ESRCH) {
      continue;  // producer still alive (or not ours to probe): keep it
    }
    const std::string shm_name = std::string("/") + ent->d_name;
    if (::shm_unlink(shm_name.c_str()) == 0) ++reaped;
  }
  ::closedir(dir);
  reaped_total.Inc(reaped);
  return reaped;
}

}  // namespace apollo::net
