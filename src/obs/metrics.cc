#include "obs/metrics.h"

#include <algorithm>

namespace ufilter::obs {
namespace {

// Bucket upper bounds: 100 * 1.3^i, rounded, strictly increasing (the
// rounding never collapses adjacent bounds because the step exceeds 1
// everywhere past 100). Computed once; lookups binary-search this table.
const std::array<uint64_t, kHistogramBuckets - 1>& BucketBounds() {
  static const std::array<uint64_t, kHistogramBuckets - 1> bounds = [] {
    std::array<uint64_t, kHistogramBuckets - 1> b{};
    double bound = 100.0;
    for (size_t i = 0; i < b.size(); ++i) {
      b[i] = static_cast<uint64_t>(bound + 0.5);
      bound *= 1.3;
    }
    return b;
  }();
  return bounds;
}

}  // namespace

uint64_t HistogramBucketBound(size_t i) { return BucketBounds()[i]; }

size_t HistogramBucketFor(uint64_t value) {
  const auto& bounds = BucketBounds();
  // Bucket i holds values in [bounds[i-1], bounds[i]): the first bound
  // strictly greater than the value.
  return static_cast<size_t>(
      std::upper_bound(bounds.begin(), bounds.end(), value) - bounds.begin());
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    buckets[i] += other.buckets[i];
  }
  count += other.count;
  sum += other.sum;
  max = std::max(max, other.max);
}

uint64_t HistogramSnapshot::ValueAtQuantile(double q) const {
  if (count == 0) return 0;
  if (q >= 1.0) return max;
  if (q < 0.0) q = 0.0;
  // Rank of the requested sample, 1-based; walk buckets until the
  // cumulative count covers it.
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count)) + 1;
  if (rank > count) rank = count;
  uint64_t seen = 0;
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    if (buckets[i] == 0) continue;
    if (seen + buckets[i] >= rank) {
      if (i == kHistogramBuckets - 1) return max;  // overflow bucket
      uint64_t lo = i == 0 ? 0 : HistogramBucketBound(i - 1);
      uint64_t hi = HistogramBucketBound(i);
      // Interpolate by the rank's position within the bucket population.
      double frac = static_cast<double>(rank - seen) /
                    static_cast<double>(buckets[i]);
      uint64_t est =
          lo + static_cast<uint64_t>(frac * static_cast<double>(hi - lo));
      return std::min(est, max);
    }
    seen += buckets[i];
  }
  return max;
}

const char* MetricKindName(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

const MetricSample* FindSample(const RegistrySnapshot& snapshot,
                               const std::string& name) {
  for (const MetricSample& s : snapshot) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

uint64_t SampleValue(const RegistrySnapshot& snapshot,
                     const std::string& name) {
  const MetricSample* s = FindSample(snapshot, name);
  return s != nullptr ? s->value : 0;
}

Counter* Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.find(name);
  if (it != metrics_.end()) {
    return it->second.kind == MetricKind::kCounter ? it->second.counter.get()
                                                   : nullptr;
  }
  Entry e;
  e.kind = MetricKind::kCounter;
  e.counter = std::make_unique<Counter>();
  Counter* out = e.counter.get();
  metrics_.emplace(name, std::move(e));
  return out;
}

Gauge* Registry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.find(name);
  if (it != metrics_.end()) {
    return it->second.kind == MetricKind::kGauge ? it->second.gauge.get()
                                                 : nullptr;
  }
  Entry e;
  e.kind = MetricKind::kGauge;
  e.gauge = std::make_unique<Gauge>();
  Gauge* out = e.gauge.get();
  metrics_.emplace(name, std::move(e));
  return out;
}

Histogram* Registry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.find(name);
  if (it != metrics_.end()) {
    return it->second.kind == MetricKind::kHistogram
               ? it->second.histogram.get()
               : nullptr;
  }
  Entry e;
  e.kind = MetricKind::kHistogram;
  e.histogram = std::make_unique<Histogram>();
  Histogram* out = e.histogram.get();
  metrics_.emplace(name, std::move(e));
  return out;
}

void Registry::AddCollector(std::function<void(RegistrySnapshot*)> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  collectors_.push_back(std::move(fn));
}

RegistrySnapshot Registry::Collect() const {
  RegistrySnapshot out;
  std::vector<std::function<void(RegistrySnapshot*)>> collectors;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(metrics_.size());
    for (const auto& [name, entry] : metrics_) {
      MetricSample s;
      s.name = name;
      s.kind = entry.kind;
      switch (entry.kind) {
        case MetricKind::kCounter:
          s.value = entry.counter->Value();
          break;
        case MetricKind::kGauge:
          s.value = entry.gauge->Value();
          break;
        case MetricKind::kHistogram:
          s.hist = entry.histogram->Snapshot();
          break;
      }
      out.push_back(std::move(s));
    }
    collectors = collectors_;
  }
  // Collectors run outside the registry lock: they read other subsystems
  // (MVCC epochs, another registry) whose own locks must not nest under
  // ours.
  for (const auto& fn : collectors) {
    fn(&out);
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return out;
}

}  // namespace ufilter::obs
