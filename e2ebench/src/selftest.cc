// Tests of the benchmark's own logic: percentile rules, seeded open-loop
// scheduling (a stall must surface in the tail), windowed ratios to the
// host reference, span self time, and the host reference probe.
// Exit code 0 when every check passes.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "gen.h"
#include "hostref.h"

namespace {

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

void PercentileRefusesSmallSamples() {
  e2e::LatencyLog log;
  for (int i = 0; i < 999; ++i) log.Ok(1.0);
  Check(!e2e::Quantile(log, 0.99).has_value(), "p99 refused at 999 samples");
  Check(e2e::Quantile(log, 0.5).has_value(), "p50 allowed at 999 samples");
  log.Ok(1.0);
  Check(e2e::Quantile(log, 0.99).has_value(), "p99 allowed at 1000 samples");
  Check(e2e::MinSamplesFor(0.99) == 1000, "p99 needs 1000 samples");
  Check(e2e::MinSamplesFor(0.5) == 20, "p50 needs 20 samples");
}

void FailuresCountAsMisses() {
  // 990 fast requests and 10 failures: the failures are the slowest 1%,
  // so p99 sits on the last fast one and p99.5 is a miss (+inf).
  e2e::LatencyLog log;
  for (int i = 1; i <= 990; ++i) log.Ok(static_cast<double>(i));
  for (int i = 0; i < 10; ++i) log.Miss();
  Check(*e2e::Quantile(log, 0.99) == 990.0, "p99 with 1% misses");
  log.Miss();
  Check(std::isinf(*e2e::Quantile(log, 0.99)), "p99 is a miss at >1% misses");
  // Failing fast cannot improve a percentile: replacing slow successes
  // by failures never lowers it.
  e2e::LatencyLog slow;
  for (int i = 0; i < 2000; ++i) slow.Ok(i < 1970 ? 10.0 : 5000.0);
  e2e::LatencyLog failed;
  for (int i = 0; i < 2000; ++i) {
    if (i < 1970) failed.Ok(10.0); else failed.Miss();
  }
  Check(*e2e::Quantile(failed, 0.99) >= *e2e::Quantile(slow, 0.99),
        "failures never beat slow successes");
}

void ScheduleIsSeeded() {
  e2e::PoissonSchedule a(42, 1000.0, 0), b(42, 1000.0, 0), c(43, 1000.0, 0);
  bool same = true, differs = false;
  e2e::Ns last = 0;
  for (int i = 0; i < 10000; ++i) {
    const e2e::Ns x = a.Next(), y = b.Next(), z = c.Next();
    same = same && x == y;
    differs = differs || x != z;
    last = x;
  }
  Check(same, "same seed, same send times");
  Check(differs, "different seed, different send times");
  const double rate = 10000.0 / (static_cast<double>(last) / 1e9);
  Check(rate > 950.0 && rate < 1050.0, "mean rate within 5% of 1000/s");
}

// Runs an open-loop stream at 2000/s for `seconds` against a handler that
// sleeps `stall` on every `every`-th call; returns (timed from schedule,
// timed from send).
std::pair<e2e::LatencyLog, e2e::LatencyLog> StalledRun(double seconds,
                                                      int every,
                                                      e2e::Ns stall) {
  e2e::LatencyLog from_schedule, from_send, late;
  int calls = 0;
  std::vector<e2e::OpenStream> streams;
  const e2e::Ns start = e2e::NowNs();
  streams.push_back(e2e::OpenStream{
      e2e::PoissonSchedule(7, 2000.0, start),
      [&](e2e::Ns) {
        const e2e::Ns sent = e2e::NowNs();
        if (++calls % every == 0) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(stall));
        }
        from_send.Ok(static_cast<double>(e2e::NowNs() - sent) / 1e3);
        return true;
      },
      &from_schedule});
  e2e::RunOpenLoop(streams, start + static_cast<e2e::Ns>(seconds * 1e9), late);
  return {from_schedule, from_send};
}

// One 50 ms stall while requests arrive at 2000/s: about a hundred
// requests are due during it, and each must carry the wait in its
// latency. Timing from the actual send would hide it.
void StallShowsInTail() {
  constexpr e2e::Ns kStall = 50'000'000;
  auto [from_schedule, from_send] = StalledRun(1.5, 400, kStall);
  const double p99 = *e2e::Quantile(from_schedule, 0.99);
  const double naive_p99 = *e2e::Quantile(from_send, 0.99);
  Check(from_schedule.count() > 2000, "stall run collected >2000 samples");
  Check(p99 >= 0.5 * kStall / 1e3,
        "stall visible in p99 timed from schedule (" + std::to_string(p99) +
            " us)");
  Check(naive_p99 < 0.1 * kStall / 1e3,
        "stall hidden when timed from send (" + std::to_string(naive_p99) +
            " us)");
}

// The reported p99 is the median of per-window p99s. A stall that recurs
// through the run (every 200 ms here) must show in it; one window of
// 1000 samples is the least it resolves.
void WindowedP99ShowsRecurringStalls() {
  constexpr e2e::Ns kStall = 20'000'000;
  auto [from_schedule, from_send] = StalledRun(3.0, 400, kStall);
  const auto windowed = e2e::WindowedQuantile(from_schedule, 0.99);
  Check(windowed.has_value() && *windowed >= 0.5 * kStall / 1e3,
        "recurring stall visible in windowed p99 (" +
            std::to_string(windowed.value_or(0)) + " us)");
  Check(*e2e::WindowedQuantile(from_send, 0.99) < 0.1 * kStall / 1e3,
        "recurring stall hidden when timed from send");
  e2e::LatencyLog small;
  for (int i = 0; i < 999; ++i) small.Ok(1.0, i);
  Check(!e2e::WindowedQuantile(small, 0.99).has_value(),
        "windowed p99 refused below 1000 samples");
  // Ten windows; one holds a burst of misses. The median of the windows
  // ignores the one episode, but misses spread over every window count.
  e2e::LatencyLog burst, spread;
  for (int i = 0; i < 10000; ++i) {
    if (i >= 3000 && i < 3500) burst.Miss(i); else burst.Ok(1.0, i);
    if (i % 50 == 0) spread.Miss(i); else spread.Ok(1.0, i);
  }
  Check(*e2e::WindowedQuantile(burst, 0.99) == 1.0,
        "one-window episode does not move the windowed p99");
  Check(std::isinf(*e2e::WindowedQuantile(spread, 0.99)),
        "2% misses in every window make the windowed p99 a miss");
}

void SelfTimeSubtractsChildren() {
  std::vector<e2e::Span> spans = {
      {0, 0, 100, 1, 0, 1},   // root 0..100
      {1, 10, 40, 2, 1, 1},   // child 10..40
      {1, 30, 60, 3, 1, 1},   // overlapping child 30..60
      {2, 90, 130, 4, 1, 1},  // child spilling past the parent: clipped
      {3, 35, 38, 5, 2, 1},   // grandchild inside child 2
  };
  auto self = e2e::SelfTimes(spans);
  Check(self[1] == 100 - 50 - 10, "root self time = 100 - (10..60) - (90..100)");
  Check(self[2] == 30 - 3, "child self time excludes grandchild");
  Check(self[4] == 40, "leaf self time is its duration");
}

// The gated latencies are WindowedRatio values. Ten 1-s windows: the
// reference doubles halfway through the run and the latencies with it,
// so the ratio stays put; an episode in three windows does not move it;
// misses in most windows do.
void WindowedRatioFollowsReference() {
  constexpr e2e::Ns kSecond = 1'000'000'000;
  e2e::LatencyLog ref, path, episode, failing;
  for (int i = 0; i < 10000; ++i) {
    const e2e::Ns at = i * kSecond / 1000;
    const double slow = at >= 5 * kSecond ? 2.0 : 1.0;
    ref.Ok(100.0 * slow, at);
    path.Ok(50.0 * slow + (i % 10), at);
    episode.Ok((at >= 2 * kSecond && at < 5 * kSecond ? 40.0 : 1.0) *
                   (50.0 * slow + (i % 10)),
               at);
    if (at >= 4 * kSecond && i % 10 < 2) {
      failing.Miss(at);
    } else {
      failing.Ok(50.0 * slow, at);
    }
  }
  const auto ratio = e2e::WindowedRatio(path, 0.1, ref, 0, 10 * kSecond, 10);
  Check(ratio.has_value() && std::abs(*ratio - 0.5) < 0.02,
        "ratio to the reference ignores a halfway slowdown of both (" +
            std::to_string(ratio.value_or(0)) + ")");
  const auto shifted =
      e2e::WindowedRatio(episode, 0.1, ref, 0, 10 * kSecond, 10);
  Check(shifted.has_value() && std::abs(*shifted - *ratio) < 1e-9,
        "an episode in 3 of 10 windows does not move the ratio");
  const auto misses =
      e2e::WindowedRatio(failing, 0.9, ref, 0, 10 * kSecond, 10);
  Check(misses.has_value() && std::isinf(*misses),
        "20% misses in 6 of 10 windows make the p90 ratio a miss");
  e2e::LatencyLog few;
  for (int i = 0; i < 11; ++i) few.Ok(1.0, i * kSecond);
  Check(!e2e::WindowedRatio(few, 0.1, ref, 0, 10 * kSecond, 10).has_value(),
        "ratio refused when no window holds 12 samples for a p10");
}

void HostProbeTimesTrips() {
  e2e::ConnectProbe probe;
  Check(probe.ok(), "host reference probe listens");
  bool all = true;
  for (int i = 0; i < 100; ++i) {
    const auto us = probe.Trip();
    all = all && us.has_value() && *us > 0;
  }
  Check(all, "100 host reference trips, each timed above 0");
}

}  // namespace

int main() {
  PercentileRefusesSmallSamples();
  FailuresCountAsMisses();
  ScheduleIsSeeded();
  StallShowsInTail();
  WindowedP99ShowsRecurringStalls();
  SelfTimeSubtractsChildren();
  WindowedRatioFollowsReference();
  HostProbeTimesTrips();
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
