// Archiver: crash-safe append-only log for entries evicted from an
// in-memory stream.
//
// Each SCoRe vertex holds a dedicated in-memory queue plus an Archiver that
// persists evicted entries; the Query Executor falls back to the archive for
// historical reads (timestamp ranges older than the in-memory window), and
// ApolloService::Recover() replays the archive tail to rebuild stream
// windows after a restart.
//
// File mode is a WAL (see pubsub/wal_format.h): records are length-prefixed
// and CRC32C-checksummed inside size-rotated segment files
// `<base>.<seq>.wal`, with an optional retention cap and a configurable
// fsync policy. Opening an existing archive is append-safe: segments are
// scanned, a torn/corrupt tail is truncated to the last valid record, and
// unreadable segments are quarantined (renamed `.corrupt`) — every
// recovered and dropped byte is counted. Appends are atomic: a failed
// write, flush, or fsync rolls the segment back to the pre-record offset,
// so retries can never duplicate or interleave a record. Each segment
// keeps in-memory timestamp bounds, so a range read opens only the
// segments that can hold a matching record.
//
// Failed writes are never silent: Append surfaces a Status, AppendWithRetry
// adds bounded exponential backoff, and every outcome is counted both here
// and in the apollo_archive_* registry counters. An attached FaultInjector
// can force write failures (site kArchiveWrite) and fsync failures
// (kArchiveFsync) for chaos and kill-and-restart tests.
//
// Record payload layout (binary, little-endian, fixed size):
//   u64 id | i64 timestamp | T payload (trivially copyable)
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/clock.h"
#include "common/expected.h"
#include "common/fault.h"
#include "obs/metrics.h"
#include "pubsub/cold_reader.h"
#include "pubsub/telemetry.h"
#include "pubsub/wal_format.h"

namespace apollo {

// When the archiver calls fsync on its active segment.
enum class FsyncPolicy : std::uint8_t {
  kNever,     // leave durability to the OS (process death still safe)
  kInterval,  // at most once per fsync_interval of real time
  kEveryN,    // after every fsync_every_n appended records
};

struct WalConfig {
  // Rotate the active segment once it would exceed this many bytes.
  std::size_t segment_bytes = 4u << 20;
  // Retention cap: delete the oldest segment when the live count exceeds
  // this. 0 = unlimited (keep the full history).
  std::size_t max_segments = 0;
  FsyncPolicy fsync_policy = FsyncPolicy::kNever;
  std::uint64_t fsync_every_n = 64;       // kEveryN
  TimeNs fsync_interval = Seconds(1);     // kInterval (real clock)
};

// What an append-safe open found: how much of the existing archive
// survived, and how much had to be cut or quarantined.
struct ArchiveRecoveryStats {
  std::uint64_t segments_scanned = 0;
  std::uint64_t records_recovered = 0;
  std::uint64_t bytes_truncated = 0;      // torn/corrupt bytes cut from tails
  std::uint64_t corrupt_segments = 0;     // had any truncation or quarantine
  std::uint64_t quarantined_segments = 0; // renamed *.corrupt (bad header)
};

// Per-read accounting, surfaced through EXPLAIN ANALYZE next to the cold
// tier's ColdScanStats.
struct WalScanStats {
  std::uint64_t segments_scanned = 0;  // read back and CRC-checked
  std::uint64_t segments_pruned = 0;   // skipped on their timestamp bounds
};

// Non-template WAL engine behind Archiver<T>: segment files, rotation,
// retention, fsync policy, and startup recovery over fixed-size payloads.
// Every payload starts `u64 id | i64 timestamp`; the engine reads the
// timestamp to keep each segment's [min_ts, max_ts] bounds.
// Not internally synchronized — Archiver<T> serializes all calls.
class ArchiveLog {
 public:
  // Byte offset of the i64 record timestamp inside a payload.
  static constexpr std::size_t kTimestampOffset = 8;

  // `base_path` is the logical archive name; segments live at
  // `<base_path>.<seq>.wal`. Call Open() before anything else.
  ArchiveLog(std::string base_path, std::uint32_t payload_size,
             WalConfig config);
  ~ArchiveLog();

  ArchiveLog(const ArchiveLog&) = delete;
  ArchiveLog& operator=(const ArchiveLog&) = delete;

  // Scans existing segments (recovering valid prefixes, truncating torn
  // tails, quarantining unreadable segments) and opens the newest for
  // append. Creates the first segment when none exist.
  Status Open();

  // Appends one payload_size-byte record. Atomic: on any write/flush/fsync
  // failure the segment is rolled back to its pre-record length and an
  // error is returned, so a retry cannot duplicate the record.
  Status Append(const void* payload);

  // Flushes and fsyncs the active segment regardless of policy.
  Status Sync();

  // Visits every record of each live segment whose timestamp bounds
  // overlap [from_ts, to_ts], in append order; the caller filters rows.
  // Other segments are not opened and count as pruned in `stats` (may be
  // null). Stops early (and reports kIoError) if a segment cannot be read
  // back.
  Status ForEachInRange(TimeNs from_ts, TimeNs to_ts,
                        const std::function<void(const void* payload)>& fn,
                        WalScanStats* stats);

  // Visits the last `n` records in append order (rounded out to whole
  // segments: the caller trims the overshoot at the front), skipping
  // every segment that lies entirely before the tail.
  Status ForEachTail(std::uint64_t n,
                     const std::function<void(const void* payload)>& fn);

  std::uint64_t record_count() const { return record_count_; }
  const ArchiveRecoveryStats& recovery() const { return recovery_; }
  const std::string& base_path() const { return base_path_; }
  std::vector<std::string> SegmentPaths() const;
  std::string ActiveSegmentPath() const;
  std::uint64_t rotations() const { return rotations_; }
  std::uint64_t fsyncs() const { return fsyncs_; }

  // Sealed (non-active) segments as (seq, path, records), seq-ascending.
  // Sealed files are immutable: the compactor reads them without any lock.
  struct SealedSegment {
    std::uint64_t seq;
    std::string path;
    std::uint64_t records;
  };
  std::vector<SealedSegment> SealedSegments() const;

  // Deletes every sealed segment with seq <= `through_seq` (the active
  // segment is never dropped). Used after those segments' rows are
  // manifest-committed to the cold tier; idempotent across crashes.
  // Returns how many segment files were removed.
  std::uint64_t DropSegmentsThrough(std::uint64_t through_seq);

  // Retention gate: when set, ApplyRetention only deletes a sealed
  // segment the gate approves (the cold tier approves manifest-committed
  // sequences). Without a gate, max_segments deletes blindly — the PR 3
  // behavior — which can drop a sealed segment that was never compacted.
  void set_retention_gate(std::function<bool(std::uint64_t)> gate) {
    retention_gate_ = std::move(gate);
  }

  // kArchiveFsync faults are evaluated against `label` before each real
  // fsync. Not owned; may be null.
  void AttachFaultInjector(FaultInjector* injector) { fault_ = injector; }
  void set_fault_label(std::string label) { label_ = std::move(label); }

 private:
  struct Segment {
    std::uint64_t seq = 0;
    std::string path;
    std::uint64_t records = 0;
    std::uint64_t bytes = 0;
    // Conservative bounds of the records' timestamps (empty: min > max).
    // A rolled-back append may leave them wider than the records.
    TimeNs min_ts = std::numeric_limits<TimeNs>::max();
    TimeNs max_ts = std::numeric_limits<TimeNs>::min();

    void Widen(const void* payload) {
      TimeNs ts;
      std::memcpy(&ts, static_cast<const std::uint8_t*>(payload) +
                           kTimestampOffset,
                  sizeof(ts));
      min_ts = std::min(min_ts, ts);
      max_ts = std::max(max_ts, ts);
    }
  };

  std::string SegmentPathFor(std::uint64_t seq) const;
  Status OpenActive(bool fresh);
  Status RotateLocked();
  Status ApplyRetentionLocked();
  Status SyncLocked();
  // Truncates the active segment back to `offset` after a failed append.
  void RollbackActive(std::uint64_t offset);
  Status ScanSegmentFile(const std::string& path,
                         std::vector<std::uint8_t>& buf,
                         wal::ScanResult& result,
                         const std::function<void(const void*)>& fn) const;
  // The one read loop behind ForEachTail and ForEachInRange: reads and
  // CRC-checks every live segment `want` selects, flushing the active
  // segment first only when it is selected.
  Status ScanSegments(const std::function<bool(std::size_t index)>& want,
                      const std::function<void(const void*)>& fn,
                      WalScanStats* stats);

  std::string base_path_;
  std::uint32_t payload_size_;
  WalConfig config_;
  std::string label_;
  FaultInjector* fault_ = nullptr;
  std::function<bool(std::uint64_t)> retention_gate_;

  std::vector<Segment> segments_;  // seq-ascending; back() is active
  std::FILE* active_ = nullptr;
  std::uint64_t record_count_ = 0;       // live records across segments
  std::uint64_t appends_since_sync_ = 0;
  TimeNs last_sync_ = 0;
  std::uint64_t rotations_ = 0;
  std::uint64_t fsyncs_ = 0;
  ArchiveRecoveryStats recovery_;
  std::vector<std::uint8_t> frame_;  // scratch encode buffer

  // Process-wide apollo_archive_* counters, resolved at construction.
  obs::Counter write_errors_;
  obs::Counter fsyncs_total_;
  obs::Counter fsync_failures_;
  obs::Counter rotations_total_;
  obs::Counter recovered_records_;
  obs::Counter truncated_bytes_;
  obs::Counter corrupt_segments_;
  obs::Counter quarantined_segments_;
  obs::Histogram fsync_ns_;
};

template <typename T>
class Archiver {
  static_assert(std::is_trivially_copyable_v<T>,
                "Archiver requires a trivially copyable payload");

 public:
  struct Record {
    std::uint64_t id;
    TimeNs timestamp;
    T payload;
  };
  static_assert(offsetof(Record, timestamp) == ArchiveLog::kTimestampOffset,
                "ArchiveLog reads the record timestamp at a fixed offset");

  // Opens the archive append-safe, recovering any records a previous
  // process left in the segment files (see ArchiveLog). An empty path
  // keeps the archive purely in memory — convenient for tests and sim
  // runs. A path that cannot be opened degrades to in-memory (check
  // OpenStatus()).
  explicit Archiver(std::string path = "", WalConfig config = {})
      : path_(std::move(path)) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    writes_ = reg.GetCounter("apollo_archive_writes_total",
                             "Archive records appended");
    retries_ = reg.GetCounter("apollo_archive_retries_total",
                              "Archive append backoff retries");
    write_failures_ = reg.GetCounter("apollo_archive_write_failures_total",
                                     "Archive appends failed after retries");
    write_errors_ = reg.GetCounter(
        "apollo_archive_write_errors_total",
        "Archive write/flush/fsync errors before retry");
    if (!path_.empty()) {
      auto log = std::make_unique<ArchiveLog>(
          path_, static_cast<std::uint32_t>(sizeof(Record)), config);
      open_status_ = log->Open();
      if (open_status_.ok()) log_ = std::move(log);
    }
  }

  ~Archiver() = default;

  Archiver(const Archiver&) = delete;
  Archiver& operator=(const Archiver&) = delete;

  // Chaos-test hooks: injected faults fire at kArchiveWrite (pre-append)
  // and kArchiveFsync (pre-fsync), filtered by `label` (defaults to the
  // file path). Not owned; may be null.
  void AttachFaultInjector(FaultInjector* injector) {
    fault_.store(injector, std::memory_order_release);
    std::lock_guard<std::mutex> lock(mu_);
    if (log_ != nullptr) log_->AttachFaultInjector(injector);
  }
  void set_fault_label(std::string label) {
    std::lock_guard<std::mutex> lock(mu_);
    label_ = label;
    if (log_ != nullptr) log_->set_fault_label(std::move(label));
  }
  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }

  Status Append(std::uint64_t id, TimeNs timestamp, const T& payload) {
    std::lock_guard<std::mutex> lock(mu_);
    return AppendLocked(id, timestamp, payload);
  }

  // Append with the archiver's retry policy: transient failures back off
  // exponentially (real sleep — archiver flushes run off the stream lock),
  // and the final outcome is recorded in failures()/last_error(). Safe to
  // retry: a failed file append leaves no partial record behind.
  Status AppendWithRetry(std::uint64_t id, TimeNs timestamp,
                         const T& payload) {
    std::lock_guard<std::mutex> lock(mu_);
    Status status = AppendLocked(id, timestamp, payload);
    int attempt = 0;
    while (!status.ok() && RetryableError(status.code()) &&
           ++attempt < retry_.max_attempts) {
      retries_.Inc();
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          JitteredBackoffForAttempt(retry_, attempt)));
      status = AppendLocked(id, timestamp, payload);
    }
    if (!status.ok()) RecordFailure(status);
    return status;
  }

  // Reads every archived record with timestamp in [from_ts, to_ts], in
  // append order. Only segments whose timestamp bounds overlap the range
  // are read (`stats`, may be null, counts scanned and pruned segments);
  // every record of a read segment re-validates its checksum on the way
  // back in.
  Expected<std::vector<Record>> ReadRange(TimeNs from_ts, TimeNs to_ts,
                                          WalScanStats* stats = nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Record> out;
    if (log_ != nullptr) {
      Status status = log_->ForEachInRange(
          from_ts, to_ts,
          [&](const void* payload) {
            Record rec;
            std::memcpy(&rec, payload, sizeof(rec));
            if (rec.timestamp >= from_ts && rec.timestamp <= to_ts) {
              out.push_back(rec);
            }
          },
          stats);
      if (!status.ok()) return Error(status.code(), status.message());
      return out;
    }
    for (const Record& rec : memory_) {
      if (rec.timestamp >= from_ts && rec.timestamp <= to_ts) {
        out.push_back(rec);
      }
    }
    return out;
  }

  // The newest `n` archived records in append order — the recovery path
  // uses this to rebuild a stream's in-memory window.
  Expected<std::vector<Record>> TailRecords(std::uint64_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Record> out;
    if (log_ != nullptr) {
      Status status = log_->ForEachTail(n, [&](const void* payload) {
        Record rec;
        std::memcpy(&rec, payload, sizeof(rec));
        out.push_back(rec);
      });
      if (!status.ok()) return Error(status.code(), status.message());
      // ForEachTail skips whole leading segments; trim the in-segment
      // overshoot.
      if (out.size() > n) out.erase(out.begin(), out.end() - n);
      return out;
    }
    const std::size_t take =
        std::min<std::size_t>(memory_.size(), static_cast<std::size_t>(n));
    out.assign(memory_.end() - take, memory_.end());
    return out;
  }

  // Forces the active segment to disk regardless of fsync policy.
  Status Sync() {
    std::lock_guard<std::mutex> lock(mu_);
    if (log_ == nullptr) return Status::Ok();
    return log_->Sync();
  }

  // Records reachable in the archive: recovered history plus this
  // lifetime's appends, minus anything retention has expired.
  std::uint64_t Count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return log_ != nullptr ? log_->record_count() : count_;
  }

  // Writes that stayed failed after retries, and the most recent error.
  std::uint64_t Failures() const {
    return failures_.load(std::memory_order_acquire);
  }
  Status LastError() const {
    std::lock_guard<std::mutex> lock(mu_);
    return last_error_;
  }

  // Fsyncs actually issued on the active segment (policy + explicit).
  std::uint64_t Fsyncs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return log_ != nullptr ? log_->fsyncs() : 0;
  }

  // What the append-safe open found (file mode; zeroes in memory mode).
  ArchiveRecoveryStats RecoveryStats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return log_ != nullptr ? log_->recovery() : ArchiveRecoveryStats{};
  }

  std::vector<std::string> SegmentPaths() const {
    std::lock_guard<std::mutex> lock(mu_);
    return log_ != nullptr ? log_->SegmentPaths()
                           : std::vector<std::string>{};
  }
  std::string ActiveSegmentPath() const {
    std::lock_guard<std::mutex> lock(mu_);
    return log_ != nullptr ? log_->ActiveSegmentPath() : std::string();
  }

  const std::string& path() const { return path_; }
  bool InMemory() const { return log_ == nullptr; }
  // Why a file-backed open fell back to memory mode (Ok when healthy).
  Status OpenStatus() const { return open_status_; }

  // ---- cold tier hooks (file mode only; no-ops in memory mode) ----

  // Borrowed pointer to the cold tier that drains this archive. The
  // executor reads it lock-free on every scan; attach happens at deploy
  // time before queries run.
  void AttachColdReader(ColdReaderBase* cold) {
    cold_.store(cold, std::memory_order_release);
    std::lock_guard<std::mutex> lock(mu_);
    if (log_ != nullptr && cold != nullptr) {
      log_->set_retention_gate(
          [cold](std::uint64_t seq) { return cold->IsCompacted(seq); });
    }
  }
  ColdReaderBase* cold_reader() const {
    return cold_.load(std::memory_order_acquire);
  }

  std::vector<ArchiveLog::SealedSegment> SealedSegments() const {
    std::lock_guard<std::mutex> lock(mu_);
    return log_ != nullptr ? log_->SealedSegments()
                           : std::vector<ArchiveLog::SealedSegment>{};
  }

  // Drops manifest-committed sealed segments; see ArchiveLog.
  std::uint64_t DropSegmentsThrough(std::uint64_t through_seq) {
    std::lock_guard<std::mutex> lock(mu_);
    return log_ != nullptr ? log_->DropSegmentsThrough(through_seq) : 0;
  }

 private:
  Status AppendLocked(std::uint64_t id, TimeNs timestamp, const T& payload) {
    if (FaultInjector* injector = fault_.load(std::memory_order_acquire)) {
      const std::string_view label = label_.empty() ? path_ : label_;
      if (auto action = injector->Evaluate(FaultSite::kArchiveWrite, label);
          action.has_value() && action->fails()) {
        write_errors_.Inc();
        return Status(ErrorCode::kIoError,
                      "injected archive write failure: " + path_);
      }
    }
    if (log_ != nullptr) {
      Record rec;
      // Zero padding bytes so the on-disk CRC is deterministic (Record is
      // trivially copyable; the cast silences -Wclass-memaccess).
      std::memset(static_cast<void*>(&rec), 0, sizeof(rec));
      rec.id = id;
      rec.timestamp = timestamp;
      rec.payload = payload;
      Status status = log_->Append(&rec);
      if (!status.ok()) return status;
      writes_.Inc();
      return Status::Ok();
    }
    memory_.push_back(Record{id, timestamp, payload});
    ++count_;
    writes_.Inc();
    return Status::Ok();
  }

  // Caller holds mu_.
  void RecordFailure(const Status& status) {
    failures_.fetch_add(1, std::memory_order_acq_rel);
    last_error_ = status;
    write_failures_.Inc();
  }

  std::string path_;
  std::string label_;
  std::unique_ptr<ArchiveLog> log_;
  Status open_status_;
  std::vector<Record> memory_;
  std::uint64_t count_ = 0;
  std::atomic<FaultInjector*> fault_{nullptr};
  std::atomic<ColdReaderBase*> cold_{nullptr};
  RetryPolicy retry_;
  std::atomic<std::uint64_t> failures_{0};
  Status last_error_;
  mutable std::mutex mu_;
  // Process-wide apollo_archive_* counters, resolved at construction
  // (write errors are shared with ArchiveLog by name).
  obs::Counter writes_;
  obs::Counter retries_;
  obs::Counter write_failures_;
  obs::Counter write_errors_;
};

}  // namespace apollo
