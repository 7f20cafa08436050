#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>

namespace lazyckpt::obs {

Histogram::Histogram(std::span<const double> upper_bounds)
    : bounds_(upper_bounds.begin(), upper_bounds.end()),
      counts_(new std::atomic<std::uint64_t>[upper_bounds.size() + 1]) {
  std::sort(bounds_.begin(), bounds_.end());
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i] = 0;
}

void Histogram::observe(double v) noexcept {
  std::size_t bucket = bounds_.size();  // overflow by default
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (v <= bounds_[i]) {
      bucket = i;
      break;
    }
  }
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

std::uint64_t Histogram::total() const noexcept {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    sum += counts_[i].load(std::memory_order_relaxed);
  }
  return sum;
}

void Histogram::reset() noexcept {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
}

const MetricValue* MetricsSnapshot::find(std::string_view name) const {
  for (const MetricValue& entry : entries) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

namespace {

void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace

std::string MetricsSnapshot::to_json(const std::string& indent) const {
  std::string out = "{";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const MetricValue& entry = entries[i];
    out += i == 0 ? "\n" : ",\n";
    out += indent;
    out += "  \"";
    out += entry.name;  // instrument names are plain identifiers
    out += "\": ";
    switch (entry.kind) {
      case MetricValue::Kind::kCounter:
        out += std::to_string(entry.count);
        break;
      case MetricValue::Kind::kGauge:
        append_double(out, entry.value);
        break;
      case MetricValue::Kind::kHistogram: {
        out += "{\"buckets\": [";
        for (std::size_t b = 0; b < entry.bucket_bounds.size(); ++b) {
          if (b > 0) out += ", ";
          append_double(out, entry.bucket_bounds[b]);
        }
        out += "], \"counts\": [";
        for (std::size_t b = 0; b < entry.bucket_counts.size(); ++b) {
          if (b > 0) out += ", ";
          out += std::to_string(entry.bucket_counts[b]);
        }
        out += "]}";
        break;
      }
    }
  }
  out += entries.empty() ? "}" : "\n" + indent + "}";
  return out;
}

Counter& Registry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name,
                               std::span<const double> upper_bounds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(upper_bounds))
             .first;
  }
  return *it->second;
}

MetricsSnapshot Registry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  snap.entries.reserve(counters_.size() + gauges_.size() +
                       histograms_.size());
  // The three maps are each name-ordered; a final stable sort by name
  // merges them into one deterministic listing.
  for (const auto& [name, counter] : counters_) {
    MetricValue entry;
    entry.name = name;
    entry.kind = MetricValue::Kind::kCounter;
    entry.count = counter->value();
    snap.entries.push_back(std::move(entry));
  }
  for (const auto& [name, gauge] : gauges_) {
    MetricValue entry;
    entry.name = name;
    entry.kind = MetricValue::Kind::kGauge;
    entry.value = gauge->value();
    snap.entries.push_back(std::move(entry));
  }
  for (const auto& [name, histogram] : histograms_) {
    MetricValue entry;
    entry.name = name;
    entry.kind = MetricValue::Kind::kHistogram;
    entry.count = histogram->total();
    entry.bucket_bounds = histogram->bounds();
    entry.bucket_counts = histogram->counts();
    snap.entries.push_back(std::move(entry));
  }
  std::stable_sort(snap.entries.begin(), snap.entries.end(),
                   [](const MetricValue& a, const MetricValue& b) {
                     return a.name < b.name;
                   });
  return snap;
}

void Registry::reset_values() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, counter] : counters_) counter->reset();
  for (const auto& [name, gauge] : gauges_) gauge->reset();
  for (const auto& [name, histogram] : histograms_) histogram->reset();
}

Registry& metrics() {
  static Registry instance;
  return instance;
}

}  // namespace lazyckpt::obs
