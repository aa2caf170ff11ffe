// Load generation and latency statistics for the end-to-end benchmark.
//
// Everything here is header-only and free of Apollo dependencies so the
// self-test binary can check it in isolation:
//  - LatencyLog / Quantile: percentiles where a failed request counts as a
//    miss (infinitely slow) and a tail percentile needs enough samples to
//    put at least ten beyond it (1000 for a p99); WindowedQuantile and
//    WindowedRatio: medians over windows of a run;
//  - PoissonSchedule / RunOpenLoop: seeded Poisson send times, each request
//    timed from when it was due, so a stall that delays later sends shows
//    up in their latency instead of hiding behind a late generator;
//  - SpanLog / SelfTimes: in-memory spans recorded around public calls and
//    the self time of each (duration minus the part its children cover).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace e2e {

using Ns = std::int64_t;

inline Ns NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Fewest samples for which quantile q has at least ten samples beyond it.
inline std::size_t MinSamplesFor(double q) {
  return static_cast<std::size_t>(std::ceil(10.0 / (1.0 - q) - 1e-9));
}

// Latencies in microseconds, each with the time it completed. A miss (a
// failed, refused, timed-out or degraded request) is stored as +infinity,
// so it sorts above every real latency.
struct LatencyLog {
  std::vector<double> us;
  std::vector<Ns> at;

  void Ok(double latency_us, Ns when = NowNs()) {
    us.push_back(latency_us);
    at.push_back(when);
  }
  void Miss(Ns when = NowNs()) {
    us.push_back(std::numeric_limits<double>::infinity());
    at.push_back(when);
  }
  std::size_t count() const { return us.size(); }
  void Append(const LatencyLog& other) {
    us.insert(us.end(), other.us.begin(), other.us.end());
    at.insert(at.end(), other.at.begin(), other.at.end());
  }
};

namespace detail {
inline double NearestRank(std::vector<double> values, double q) {
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * values.size()));
  if (rank == 0) rank = 1;
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}
}  // namespace detail

// Nearest-rank quantile of the whole log, misses counted as +infinity.
// Returns nullopt when the log is too small to resolve q (MinSamplesFor).
inline std::optional<double> Quantile(const LatencyLog& log, double q) {
  const std::size_t n = log.count();
  if (n == 0 || n < MinSamplesFor(q)) return std::nullopt;
  return detail::NearestRank(log.us, q);
}

// Quantile q of each of up to `max_windows` consecutive windows (by
// completion time) of at least MinSamplesFor(q) requests, and the median
// of those per-window values: a run-level figure that one rare episode
// cannot swing, while a stall that recurs in most windows still shows.
// Returns nullopt when not even one window can resolve q.
inline std::optional<double> WindowedQuantile(const LatencyLog& log, double q,
                                              std::size_t max_windows = 10) {
  const std::size_t need = MinSamplesFor(q);
  const std::size_t n = log.count();
  const std::size_t windows = std::min(max_windows, n / need);
  if (windows == 0) return std::nullopt;
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&log](std::size_t a, std::size_t b) {
    return log.at[a] < log.at[b];
  });
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t lo = n * w / windows, hi = n * (w + 1) / windows;
    std::vector<double> values;
    for (std::size_t i = lo; i < hi; ++i) values.push_back(log.us[order[i]]);
    per_window.push_back(detail::NearestRank(std::move(values), q));
  }
  std::sort(per_window.begin(), per_window.end());
  const std::size_t k = per_window.size();
  if (k % 2 == 1) return per_window[k / 2];
  const double a = per_window[k / 2 - 1], b = per_window[k / 2];
  return std::isinf(b) ? b : 0.5 * (a + b);
}

// Median of plain values (no miss semantics); 0 for an empty input.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Splits [start, end) into `windows` equal spans by completion time (later
// completions fall in the last span). In each span that resolves both,
// takes quantile q of `log` over the median of `ref`; returns the median
// of these ratios. The ratio follows drift in `ref` within the run, and an
// episode covering fewer than half of the spans cannot swing it. Returns
// nullopt when no span resolves.
inline std::optional<double> WindowedRatio(const LatencyLog& log, double q,
                                           const LatencyLog& ref, Ns start,
                                           Ns end, std::size_t windows) {
  if (end <= start || windows == 0) return std::nullopt;
  auto split = [&](const LatencyLog& l) {
    std::vector<std::vector<double>> spans(windows);
    for (std::size_t i = 0; i < l.count(); ++i) {
      const Ns t = std::max<Ns>(l.at[i] - start, 0);
      const std::size_t w = std::min<std::size_t>(
          windows - 1, static_cast<std::size_t>(
                           static_cast<double>(t) * static_cast<double>(windows) /
                           static_cast<double>(end - start)));
      spans[w].push_back(l.us[i]);
    }
    return spans;
  };
  const auto num = split(log);
  const auto den = split(ref);
  std::vector<double> ratios;
  for (std::size_t w = 0; w < windows; ++w) {
    if (num[w].empty() || num[w].size() < MinSamplesFor(q) ||
        den[w].size() < MinSamplesFor(0.5)) {
      continue;
    }
    const double d = detail::NearestRank(den[w], 0.5);
    if (!(d > 0) || std::isinf(d)) continue;
    ratios.push_back(detail::NearestRank(num[w], q) / d);
  }
  if (ratios.empty()) return std::nullopt;
  return Median(std::move(ratios));
}

// Poisson arrivals at `rate_per_s`, starting at `start_ns`, from a seed.
class PoissonSchedule {
 public:
  PoissonSchedule(std::uint64_t seed, double rate_per_s, Ns start_ns)
      : rng_(seed), gap_(rate_per_s / 1e9), next_(start_ns) {}

  Ns Next() {
    next_ += static_cast<Ns>(gap_(rng_));
    return next_;
  }

 private:
  std::mt19937_64 rng_;
  std::exponential_distribution<double> gap_;
  Ns next_;
};

// Waits until `deadline`: sleeps to within `spin_ns` of it, then spins, so
// the wake-up error stays in the microseconds without a busy thread.
inline void WaitUntil(Ns deadline, Ns spin_ns = 20'000) {
  Ns now = NowNs();
  if (deadline - now > spin_ns) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline - now -
                                                         spin_ns));
  }
  while (NowNs() < deadline) {
  }
}

// One open-loop request stream. `op(scheduled_ns)` issues one request and
// returns true on success; its latency is measured from `scheduled_ns`.
// When `traced` is set and reads true as a request starts, its latency
// goes to `latency_traced` instead (the traced run's overhead split).
struct OpenStream {
  PoissonSchedule schedule;
  std::function<bool(Ns scheduled)> op;
  LatencyLog* latency = nullptr;
  const std::atomic<bool>* traced = nullptr;
  LatencyLog* latency_traced = nullptr;
  Ns next = 0;
};

// Runs open-loop streams on the calling thread until `end_ns`, always
// serving the stream whose next request is due first. A request that
// starts late (the previous one stalled) is still timed from its due time;
// how late each send started goes to `late`.
inline void RunOpenLoop(std::vector<OpenStream>& streams, Ns end_ns,
                        LatencyLog& late) {
  for (OpenStream& s : streams) s.next = s.schedule.Next();
  while (true) {
    OpenStream* due = nullptr;
    for (OpenStream& s : streams) {
      if (due == nullptr || s.next < due->next) due = &s;
    }
    if (due == nullptr || due->next >= end_ns) break;
    const Ns scheduled = due->next;
    WaitUntil(scheduled);
    late.Ok(static_cast<double>(NowNs() - scheduled) / 1e3);
    LatencyLog* log = due->traced != nullptr &&
                              due->traced->load(std::memory_order_relaxed)
                          ? due->latency_traced
                          : due->latency;
    const bool ok = due->op(scheduled);
    const Ns done = NowNs();
    if (ok) {
      log->Ok(static_cast<double>(done - scheduled) / 1e3);
    } else {
      log->Miss();
    }
    due->next = due->schedule.Next();
  }
}

// --- spans ----------------------------------------------------------------

struct Span {
  std::uint32_t name = 0;  // index into SpanLog::names()
  Ns start = 0;
  Ns end = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;      // 0 = root
  std::uint64_t request = 0;     // spans of one request share this
};

// Spans kept in memory (one vector per recording thread, merged on
// demand) and written once at exit. Recording is off until enabled.
class SpanLog {
 public:
  std::atomic<bool> enabled{false};

  std::uint32_t Intern(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = ids_.emplace(name, names_.size());
    if (inserted) names_.push_back(name);
    return static_cast<std::uint32_t>(it->second);
  }
  std::uint64_t NextId() { return next_id_.fetch_add(1) + 1; }

  // Per-thread sink; register once per recording thread.
  std::vector<Span>* Sink() {
    std::lock_guard<std::mutex> lock(mu_);
    sinks_.emplace_back();
    sinks_.back().reserve(1 << 16);
    return &sinks_.back();
  }

  // Call only after every recording thread has stopped.
  std::vector<Span> All() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> out;
    for (const auto& sink : sinks_) out.insert(out.end(), sink.begin(), sink.end());
    return out;
  }
  std::vector<std::string> names() const {
    std::lock_guard<std::mutex> lock(mu_);
    return names_;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::size_t> ids_;
  std::vector<std::string> names_;
  std::deque<std::vector<Span>> sinks_;  // stable addresses for Sink()
  std::atomic<std::uint64_t> next_id_{0};
};

// Records one span on scope exit when the log is enabled at entry.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::vector<Span>* sink, std::uint32_t name,
             std::uint64_t parent = 0, std::uint64_t request = 0)
      : sink_(log.enabled.load(std::memory_order_relaxed) ? sink : nullptr) {
    if (sink_ == nullptr) return;
    span_.name = name;
    span_.id = log.NextId();
    span_.parent = parent;
    span_.request = request != 0 ? request : span_.id;
    span_.start = NowNs();
  }
  ~ScopedSpan() {
    if (sink_ == nullptr) return;
    span_.end = NowNs();
    sink_->push_back(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }
  std::uint64_t request() const { return span_.request; }

 private:
  std::vector<Span>* sink_;
  Span span_;
};

// Self time of every span: its duration minus the union of its children's
// intervals (clipped to the parent). Keyed by span id.
inline std::map<std::uint64_t, Ns> SelfTimes(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<Ns, Ns>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start, s.end});
  }
  std::map<std::uint64_t, Ns> self;
  for (const Span& s : spans) {
    Ns covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      Ns cur_start = 0, cur_end = 0;
      bool open = false;
      for (auto [a, b] : iv) {
        a = std::max(a, s.start);
        b = std::min(b, s.end);
        if (b <= a) continue;
        if (open && a <= cur_end) {
          cur_end = std::max(cur_end, b);
        } else {
          if (open) covered += cur_end - cur_start;
          cur_start = a;
          cur_end = b;
          open = true;
        }
      }
      if (open) covered += cur_end - cur_start;
    }
    self[s.id] = (s.end - s.start) - covered;
  }
  return self;
}

}  // namespace e2e
