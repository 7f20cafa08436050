#pragma once

/// \file metrics.hpp
/// \brief Named counters, gauges, and fixed-bucket histograms with a
/// deterministic snapshot API (DESIGN.md §5f).
///
/// Instruments are created on demand by name through the process registry
/// and live for the process lifetime, so hot paths cache a reference once
/// (function-local static) and then pay only a relaxed atomic op per
/// update — and even that only behind `if (obs::enabled())`, keeping the
/// disabled cost to one branch on a cold bool.
///
/// Snapshots iterate a std::map, so the emitted order is the lexicographic
/// name order — never hash order — and the JSON block embedded in BENCH_*
/// files is stable across platforms.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <atomic>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace lazyckpt::obs {

/// Monotonic event count.  add() is safe from any thread.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written value with a high-water helper.  Thread-safe.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }

  /// Raise the gauge to `v` if it is larger (queue-depth high-water).
  void record_max(double v) noexcept {
    double current = value_.load(std::memory_order_relaxed);
    while (v > current && !value_.compare_exchange_weak(
                              current, v, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: counts of observations <= each upper bound,
/// plus an overflow bucket.  Bounds are fixed at creation (no resizing on
/// the hot path); observe() is one linear scan over a handful of doubles
/// and one relaxed increment.
class Histogram {
 public:
  explicit Histogram(std::span<const double> upper_bounds);

  void observe(double v) noexcept;

  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  /// Per-bucket counts; counts.size() == bounds().size() + 1 (overflow).
  [[nodiscard]] std::vector<std::uint64_t> counts() const;
  [[nodiscard]] std::uint64_t total() const noexcept;
  void reset() noexcept;

 private:
  std::vector<double> bounds_;  ///< ascending upper bounds
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
};

/// One instrument's value at snapshot time.
struct MetricValue {
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
  std::string name;
  Kind kind = Kind::kCounter;
  std::uint64_t count = 0;                   ///< counter / histogram total
  double value = 0.0;                        ///< gauge
  std::vector<double> bucket_bounds;         ///< histogram
  std::vector<std::uint64_t> bucket_counts;  ///< histogram (+overflow slot)
};

/// A point-in-time copy of every registered instrument, in name order.
struct MetricsSnapshot {
  std::vector<MetricValue> entries;

  /// The entry named `name`, or nullptr.
  [[nodiscard]] const MetricValue* find(std::string_view name) const;

  /// Render as a deterministic JSON object: {"name": value, ...} with
  /// histograms as {"buckets": [...], "counts": [...]}.  `indent` prefixes
  /// every emitted line (matches bench JSON nesting).
  [[nodiscard]] std::string to_json(const std::string& indent) const;
};

/// The process instrument registry.  Lookup takes a mutex; hot paths do it
/// once and cache the returned reference.
class Registry {
 public:
  /// Find-or-create.  Names are namespaced per instrument kind, so asking
  /// for counter("x") and gauge("x") yields two independent instruments —
  /// by convention instrumentation sites never reuse a name across kinds.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name,
                       std::span<const double> upper_bounds);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Zero every instrument (bench arms, tests).  Instruments stay
  /// registered so cached references remain valid.
  void reset_values();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// The process-wide registry all instrumentation records into.
[[nodiscard]] Registry& metrics();

}  // namespace lazyckpt::obs
