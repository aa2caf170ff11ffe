// WAL segment pruning properties: every archive segment carries in-memory
// [min_ts, max_ts] bounds of its records, and ReadRange opens only the
// segments whose bounds overlap the query. Pruning must never change an
// answer, so for random ranges over a multi-segment archive — with
// timestamps out of order inside each segment — ReadRange must equal a
// brute-force filter of every live record (TailRecords(Count()), which
// reads every segment without consulting the bounds). The equality must
// survive the bounds being rebuilt by a reopen, segments leaving through
// DropSegmentsThrough and max_segments retention, and an append rolled
// back by an injected fsync failure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "pubsub/archiver.h"

namespace apollo {
namespace {

namespace fs = std::filesystem;
using Record = Archiver<Sample>::Record;

constexpr std::size_t kPerSegment = 10;
constexpr TimeNs kStep = 10;
constexpr TimeNs kJitter = 25;  // > kStep: out of order within segments

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

WalConfig Segments(std::size_t max_segments = 0) {
  WalConfig config;
  config.segment_bytes =
      wal::kHeaderSize + kPerSegment * (wal::kFrameOverhead + sizeof(Record));
  config.max_segments = max_segments;
  return config;
}

// Record `i` lands near i * kStep, jittered by up to ±kJitter.
TimeNs JitteredTs(Rng& rng, std::uint64_t i) {
  return static_cast<TimeNs>(i) * kStep - kJitter +
         static_cast<TimeNs>(rng.NextBounded(2 * kJitter + 1));
}

void AppendJittered(Archiver<Sample>& archiver, Rng& rng, std::uint64_t from,
                    std::uint64_t count) {
  for (std::uint64_t i = from; i < from + count; ++i) {
    const TimeNs ts = JitteredTs(rng, i);
    ASSERT_TRUE(archiver
                    .Append(i, ts,
                            Sample{ts, static_cast<double>(i),
                                   Provenance::kMeasured})
                    .ok());
  }
}

std::vector<Record> BruteForce(Archiver<Sample>& archiver, TimeNs from_ts,
                               TimeNs to_ts) {
  auto all = archiver.TailRecords(archiver.Count());
  EXPECT_TRUE(all.ok());
  std::vector<Record> out;
  if (!all.ok()) return out;
  for (const Record& rec : *all) {
    if (rec.timestamp >= from_ts && rec.timestamp <= to_ts) {
      out.push_back(rec);
    }
  }
  return out;
}

std::vector<std::tuple<std::uint64_t, TimeNs, double>> Rows(
    const std::vector<Record>& records) {
  std::vector<std::tuple<std::uint64_t, TimeNs, double>> rows;
  for (const Record& rec : records) {
    rows.emplace_back(rec.id, rec.timestamp, rec.payload.value);
  }
  return rows;
}

// Compares ReadRange with the brute-force filter over `trials` random
// ranges (wide, narrow, single-point and empty) spanning the archive's
// timestamps. Returns how many ranges pruned at least one segment.
int ExpectRangesMatch(Archiver<Sample>& archiver, Rng& rng, int trials) {
  auto all = archiver.TailRecords(archiver.Count());
  EXPECT_TRUE(all.ok());
  if (!all.ok() || all->empty()) return 0;
  TimeNs lo = all->front().timestamp, hi = lo;
  for (const Record& rec : *all) {
    lo = std::min(lo, rec.timestamp);
    hi = std::max(hi, rec.timestamp);
  }
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 80;
  const std::size_t segments = archiver.SegmentPaths().size();
  int pruning_ranges = 0;
  for (int t = 0; t < trials; ++t) {
    const TimeNs from_ts =
        lo - 40 + static_cast<TimeNs>(rng.NextBounded(span));
    TimeNs to_ts = from_ts;
    switch (t % 4) {
      case 0: to_ts += static_cast<TimeNs>(rng.NextBounded(span)); break;
      case 1: to_ts += static_cast<TimeNs>(rng.NextBounded(4 * kStep)); break;
      case 2: break;  // single point
      case 3: to_ts -= 1 + static_cast<TimeNs>(rng.NextBounded(kStep)); break;
    }
    WalScanStats stats;
    auto got = archiver.ReadRange(from_ts, to_ts, &stats);
    EXPECT_TRUE(got.ok());
    if (!got.ok()) continue;
    EXPECT_EQ(Rows(*got), Rows(BruteForce(archiver, from_ts, to_ts)))
        << "range [" << from_ts << ", " << to_ts << "]";
    EXPECT_EQ(stats.segments_scanned + stats.segments_pruned, segments);
    if (stats.segments_pruned > 0) ++pruning_ranges;
  }
  return pruning_ranges;
}

TEST(WalPrune, RandomRangesMatchBruteForce) {
  const std::string dir = FreshDir("wal_prune_random");
  Archiver<Sample> archiver(dir + "/metric.log", Segments());
  Rng rng(11);
  AppendJittered(archiver, rng, 0, 20 * kPerSegment + 3);
  ASSERT_EQ(archiver.SegmentPaths().size(), 21u);
  // Pruning is live, not just harmless: most narrow ranges skip segments.
  EXPECT_GT(ExpectRangesMatch(archiver, rng, 400), 200);

  // A range below every record opens no segment at all.
  WalScanStats none;
  auto empty = archiver.ReadRange(-1000, -500, &none);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  EXPECT_EQ(none.segments_scanned, 0u);
  EXPECT_EQ(none.segments_pruned, 21u);
}

TEST(WalPrune, BoundsRebuiltByReopen) {
  const std::string dir = FreshDir("wal_prune_reopen");
  Rng rng(12);
  {
    Archiver<Sample> archiver(dir + "/metric.log", Segments());
    AppendJittered(archiver, rng, 0, 12 * kPerSegment + 5);
  }
  Archiver<Sample> reopened(dir + "/metric.log", Segments());
  ASSERT_TRUE(reopened.OpenStatus().ok());
  ASSERT_EQ(reopened.Count(), 12 * kPerSegment + 5);
  EXPECT_GT(ExpectRangesMatch(reopened, rng, 300), 100);
  // Appends after the reopen continue the recovered active segment.
  AppendJittered(reopened, rng, 12 * kPerSegment + 5, 3 * kPerSegment);
  EXPECT_GT(ExpectRangesMatch(reopened, rng, 300), 100);
}

TEST(WalPrune, BoundsLeaveWithDroppedSegments) {
  const std::string dir = FreshDir("wal_prune_drop");
  Archiver<Sample> archiver(dir + "/metric.log", Segments());
  Rng rng(13);
  AppendJittered(archiver, rng, 0, 10 * kPerSegment + 4);
  const auto sealed = archiver.SealedSegments();
  ASSERT_GE(sealed.size(), 4u);
  ASSERT_EQ(archiver.DropSegmentsThrough(sealed[3].seq), 4u);
  EXPECT_EQ(archiver.Count(), 6 * kPerSegment + 4);
  EXPECT_GT(ExpectRangesMatch(archiver, rng, 300), 100);
  // Nothing from the dropped segments comes back, whatever the range.
  auto all = archiver.ReadRange(-1'000'000, 1'000'000);
  ASSERT_TRUE(all.ok());
  ASSERT_FALSE(all->empty());
  EXPECT_EQ(all->front().id, 4 * kPerSegment);
}

TEST(WalPrune, BoundsLeaveWithRetention) {
  const std::string dir = FreshDir("wal_prune_retention");
  Rng rng(14);
  {
    Archiver<Sample> archiver(dir + "/metric.log", Segments(/*max=*/5));
    AppendJittered(archiver, rng, 0, 15 * kPerSegment + 2);
    EXPECT_EQ(archiver.SegmentPaths().size(), 5u);
    EXPECT_EQ(archiver.Count(), 4 * kPerSegment + 2);
    EXPECT_GT(ExpectRangesMatch(archiver, rng, 300), 100);
  }
  // The reopen rebuilds bounds only for the segments retention kept.
  Archiver<Sample> reopened(dir + "/metric.log", Segments(/*max=*/5));
  EXPECT_EQ(reopened.Count(), 4 * kPerSegment + 2);
  EXPECT_GT(ExpectRangesMatch(reopened, rng, 300), 100);
}

TEST(WalPrune, RolledBackAppendKeepsRangesExact) {
  const std::string dir = FreshDir("wal_prune_rollback");
  WalConfig config = Segments();
  config.fsync_policy = FsyncPolicy::kEveryN;
  config.fsync_every_n = 1;
  Archiver<Sample> archiver(dir + "/metric.log", config);
  Rng rng(15);
  AppendJittered(archiver, rng, 0, 4 * kPerSegment + 3);

  // The fsync fails after the frame was written: the record is rolled
  // back, but the active segment's bounds may stay widened to it.
  FaultInjector injector;
  FaultSpec fsync_fault;
  fsync_fault.site = FaultSite::kArchiveFsync;
  fsync_fault.fire_on_hits = {0};
  injector.Arm(fsync_fault);
  archiver.AttachFaultInjector(&injector);
  const TimeNs far = 1'000'000;
  EXPECT_FALSE(
      archiver.Append(999, far, Sample{far, 9.0, Provenance::kMeasured})
          .ok());
  EXPECT_EQ(archiver.Count(), 4 * kPerSegment + 3);
  auto ghost = archiver.ReadRange(far - 1, far + 1);
  ASSERT_TRUE(ghost.ok());
  EXPECT_TRUE(ghost->empty());

  AppendJittered(archiver, rng, 4 * kPerSegment + 3, 2 * kPerSegment);
  EXPECT_GT(ExpectRangesMatch(archiver, rng, 300), 100);
}

}  // namespace
}  // namespace apollo
