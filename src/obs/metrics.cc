#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <string_view>
#include <unordered_map>

namespace apollo::obs {

namespace {

// Same bucketing as LatencyHistogram::Record: bucket 0 holds v <= 1,
// otherwise floor(log2(v)).
std::size_t BucketFor(std::int64_t value_ns) {
  if (value_ns < 1) value_ns = 1;
  std::size_t bucket = 0;
  std::uint64_t v = static_cast<std::uint64_t>(value_ns);
  while (v > 1) {
    v >>= 1;
    ++bucket;
  }
  return std::min(bucket, internal::MetricCell::kBuckets - 1);
}

std::uint64_t DoubleBits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsDouble(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// Relaxed CAS min/max update for histogram cells.
template <typename Cmp>
void AtomicExtremum(std::atomic<std::int64_t>& cell, std::int64_t v,
                    Cmp better) {
  std::int64_t cur = cell.load(std::memory_order_relaxed);
  while (better(v, cur) &&
         !cell.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void AppendEscaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
}

// Renders {k="v",...} including an optional extra label (histogram `le`).
void AppendLabels(std::string& out, const Labels& labels,
                  const char* extra_key = nullptr,
                  const std::string& extra_value = "") {
  if (labels.empty() && extra_key == nullptr) return;
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    AppendEscaped(out, v);
    out += '"';
  }
  if (extra_key != nullptr) {
    if (!first) out += ',';
    out += extra_key;
    out += "=\"";
    AppendEscaped(out, extra_value);
    out += '"';
  }
  out += '}';
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Sample lines of one cell (no # HELP / # TYPE header).
void AppendSamples(std::string& out, const internal::MetricCell& cell) {
  switch (cell.kind) {
    case MetricKind::kCounter: {
      out += cell.name;
      AppendLabels(out, cell.labels);
      out += ' ';
      out += std::to_string(cell.value.load(std::memory_order_relaxed));
      out += '\n';
      break;
    }
    case MetricKind::kGauge: {
      out += cell.name;
      AppendLabels(out, cell.labels);
      out += ' ';
      out += FormatDouble(
          BitsDouble(cell.value.load(std::memory_order_relaxed)));
      out += '\n';
      break;
    }
    case MetricKind::kHistogram: {
      std::uint64_t cumulative = 0;
      std::size_t top = internal::MetricCell::kBuckets;
      while (top > 0 && (*cell.buckets)[top - 1].load(
                            std::memory_order_relaxed) == 0) {
        --top;
      }
      for (std::size_t b = 0; b < top; ++b) {
        cumulative += (*cell.buckets)[b].load(std::memory_order_relaxed);
        out += cell.name;
        out += "_bucket";
        // Bucket b holds values in [2^b, 2^(b+1)); its inclusive upper
        // bound is (2 << b) - 1 (bucket 0 holds v <= 1).
        AppendLabels(out, cell.labels, "le",
                     std::to_string((2ULL << b) - 1));
        out += ' ';
        out += std::to_string(cumulative);
        out += '\n';
      }
      out += cell.name;
      out += "_bucket";
      AppendLabels(out, cell.labels, "le", "+Inf");
      out += ' ';
      out += std::to_string(cell.count.load(std::memory_order_relaxed));
      out += '\n';
      out += cell.name;
      out += "_sum";
      AppendLabels(out, cell.labels);
      out += ' ';
      out += std::to_string(cell.sum.load(std::memory_order_relaxed));
      out += '\n';
      out += cell.name;
      out += "_count";
      AppendLabels(out, cell.labels);
      out += ' ';
      out += std::to_string(cell.count.load(std::memory_order_relaxed));
      out += '\n';
      break;
    }
  }
}

}  // namespace

const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

void Gauge::Set(double v) {
  if (cell_ != nullptr) {
    cell_->value.store(DoubleBits(v), std::memory_order_relaxed);
  }
}

void Gauge::Add(double delta) {
  if (cell_ == nullptr) return;
  std::uint64_t cur = cell_->value.load(std::memory_order_relaxed);
  while (!cell_->value.compare_exchange_weak(
      cur, DoubleBits(BitsDouble(cur) + delta), std::memory_order_relaxed)) {
  }
}

double Gauge::Value() const {
  return cell_ == nullptr
             ? 0.0
             : BitsDouble(cell_->value.load(std::memory_order_relaxed));
}

void Histogram::Record(std::int64_t value_ns) {
  if (cell_ == nullptr) return;
  if (value_ns < 1) value_ns = 1;
  (*cell_->buckets)[BucketFor(value_ns)].fetch_add(1,
                                                   std::memory_order_relaxed);
  cell_->count.fetch_add(1, std::memory_order_relaxed);
  cell_->sum.fetch_add(value_ns, std::memory_order_relaxed);
  AtomicExtremum(cell_->max, value_ns, std::greater<std::int64_t>());
  AtomicExtremum(cell_->min, value_ns, std::less<std::int64_t>());
}

std::uint64_t Histogram::Count() const {
  return cell_ == nullptr ? 0 : cell_->count.load(std::memory_order_relaxed);
}

LatencyHistogram Histogram::Snapshot() const {
  if (cell_ == nullptr) return LatencyHistogram();
  std::array<std::uint64_t, internal::MetricCell::kBuckets> buckets;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    buckets[b] = (*cell_->buckets)[b].load(std::memory_order_relaxed);
  }
  // Concurrent Record()s make the scalar reads racy-by-design snapshots;
  // count is recomputed from the bucket reads so the histogram stays
  // internally consistent.
  return LatencyHistogram::FromBuckets(
      buckets.data(), buckets.size(),
      cell_->sum.load(std::memory_order_relaxed),
      cell_->min.load(std::memory_order_relaxed),
      cell_->max.load(std::memory_order_relaxed));
}

internal::MetricCell* MetricsRegistry::FindOrCreate(const std::string& name,
                                                    const std::string& help,
                                                    const Labels& labels,
                                                    MetricKind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  for (internal::MetricCell& cell : cells_) {
    if (cell.name == name && cell.labels == labels) {
      if (cell.kind != kind) return nullptr;  // kind mismatch: unbound
      if (cell.help.empty() && !help.empty()) cell.help = help;
      return &cell;
    }
  }
  internal::MetricCell& cell = cells_.emplace_back();
  cell.name = name;
  cell.help = help;
  cell.labels = labels;
  cell.kind = kind;
  if (kind == MetricKind::kHistogram) {
    cell.buckets = std::make_unique<
        std::array<std::atomic<std::uint64_t>, internal::MetricCell::kBuckets>>();
    for (auto& bucket : *cell.buckets) {
      bucket.store(0, std::memory_order_relaxed);
    }
    cell.min.store(std::numeric_limits<std::int64_t>::max(),
                   std::memory_order_relaxed);
  }
  return &cell;
}

Counter MetricsRegistry::GetCounter(const std::string& name,
                                    const std::string& help,
                                    const Labels& labels) {
  return Counter(FindOrCreate(name, help, labels, MetricKind::kCounter));
}

Gauge MetricsRegistry::GetGauge(const std::string& name,
                                const std::string& help,
                                const Labels& labels) {
  return Gauge(FindOrCreate(name, help, labels, MetricKind::kGauge));
}

Histogram MetricsRegistry::GetHistogram(const std::string& name,
                                        const std::string& help,
                                        const Labels& labels) {
  return Histogram(FindOrCreate(name, help, labels, MetricKind::kHistogram));
}

std::size_t MetricsRegistry::MetricCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cells_.size();
}

void MetricsRegistry::ResetAllForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  for (internal::MetricCell& cell : cells_) {
    cell.value.store(0, std::memory_order_relaxed);
    cell.count.store(0, std::memory_order_relaxed);
    cell.sum.store(0, std::memory_order_relaxed);
    cell.max.store(0, std::memory_order_relaxed);
    if (cell.kind == MetricKind::kHistogram) {
      cell.min.store(std::numeric_limits<std::int64_t>::max(),
                     std::memory_order_relaxed);
      for (auto& bucket : *cell.buckets) {
        bucket.store(0, std::memory_order_relaxed);
      }
    } else {
      cell.min.store(0, std::memory_order_relaxed);
    }
  }
}

std::string MetricsRegistry::RenderPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Group cells by family, families in first-registration order. Label
  // sets of one family are registered at different times (per-tenant
  // counters, say), and the text format allows one # TYPE per family, so
  // the exposition cannot follow raw registration order.
  std::vector<std::vector<const internal::MetricCell*>> families;
  std::unordered_map<std::string_view, std::size_t> family_index;
  for (const internal::MetricCell& cell : cells_) {
    auto [it, fresh] = family_index.try_emplace(cell.name, families.size());
    if (fresh) families.emplace_back();
    families[it->second].push_back(&cell);
  }
  std::string out;
  out.reserve(cells_.size() * 96);
  for (const auto& family : families) {
    const internal::MetricCell& head = *family.front();
    if (!head.help.empty()) {
      out += "# HELP " + head.name + " " + head.help + "\n";
    }
    out += "# TYPE " + head.name + " ";
    out += MetricKindName(head.kind);
    out += '\n';
    for (const internal::MetricCell* instance : family) {
      AppendSamples(out, *instance);
    }
  }
  return out;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace apollo::obs
