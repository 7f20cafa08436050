#include "io/bandwidth_trace.hpp"

#include <algorithm>
#include <cmath>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/random.hpp"
#include "common/units.hpp"

namespace lazyckpt::io {

BandwidthTrace::BandwidthTrace(double step_hours,
                               std::vector<double> samples_gbps)
    : step_(step_hours), samples_(std::move(samples_gbps)) {
  require_positive(step_hours, "BandwidthTrace step_hours");
  require(!samples_.empty(), "BandwidthTrace needs at least one sample");
  prefix_.reserve(samples_.size() + 1);
  inverse_prefix_.reserve(samples_.size() + 1);
  prefix_.push_back(0.0);
  inverse_prefix_.push_back(0.0);
  for (const double s : samples_) {
    require(std::isfinite(s) && s > 0.0,
            "BandwidthTrace samples must be finite and positive");
    prefix_.push_back(prefix_.back() + s);
    inverse_prefix_.push_back(inverse_prefix_.back() + 1.0 / s);
  }
}

BandwidthTrace BandwidthTrace::load_csv(const std::string& path) {
  const CsvDocument doc = CsvDocument::load(path);
  const auto times = doc.numeric_column("time_hours");
  auto values = doc.numeric_column("bandwidth_gbps");
  require(times.size() >= 2, "bandwidth CSV needs at least two rows");
  const double step = times[1] - times[0];
  return BandwidthTrace(step, std::move(values));
}

void BandwidthTrace::save_csv(const std::string& path) const {
  CsvDocument doc({"time_hours", "bandwidth_gbps"});
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    doc.add_row({std::to_string(static_cast<double>(i) * step_),
                 std::to_string(samples_[i])});
  }
  doc.save(path);
}

BandwidthTrace BandwidthTrace::synthetic_spider(double span_hours,
                                                double mean_gbps,
                                                double floor_gbps,
                                                double ceil_gbps,
                                                std::uint64_t seed) {
  require_positive(span_hours, "span_hours");
  require_positive(mean_gbps, "mean_gbps");
  require(floor_gbps > 0.0 && ceil_gbps > floor_gbps,
          "need 0 < floor_gbps < ceil_gbps");

  const double step = 0.25;  // 15-minute controller samples
  const auto count = static_cast<std::size_t>(std::ceil(span_hours / step));
  Rng rng(seed);

  std::vector<double> samples;
  samples.reserve(count);
  double log_dev = 0.0;  // AR(1) deviation in log space
  const double phi = 0.97;
  const double sigma = 0.18;
  // Lognormal bias correction: the stationary AR(1) deviation has
  // variance sigma^2/(1-phi^2), so exp(log_dev) has mean
  // exp(var/2); divide it out so the trace mean tracks mean_gbps.
  const double bias =
      std::exp(0.5 * sigma * sigma / (1.0 - phi * phi));
  for (std::size_t i = 0; i < count; ++i) {
    const double t = static_cast<double>(i) * step;
    // Box–Muller from two deterministic uniforms.
    const double u1 = rng.uniform_positive();
    const double u2 = rng.uniform();
    const double gauss =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
    log_dev = phi * log_dev + sigma * gauss;
    // Diurnal contention: bandwidth dips mid-day when interactive and
    // analysis I/O compete with checkpoints.
    const double diurnal =
        1.0 - 0.25 * std::sin(2.0 * M_PI * t / kHoursPerDay);
    double bw = mean_gbps * diurnal * std::exp(log_dev) / bias;
    bw = std::clamp(bw, floor_gbps, ceil_gbps);
    samples.push_back(bw);
  }
  return BandwidthTrace(step, std::move(samples));
}

double BandwidthTrace::at(double t_hours) const noexcept {
  if (t_hours <= 0.0) return samples_.front();
  auto index = static_cast<std::size_t>(t_hours / step_);
  index = std::min(index, samples_.size() - 1);
  return samples_[index];
}

double BandwidthTrace::average(double from_hours, double to_hours) const {
  require(to_hours > from_hours, "average needs from < to");
  // Riemann sum on the grid; a bin counts when the range overlaps it.
  const auto first =
      static_cast<std::size_t>(std::max(from_hours, 0.0) / step_);
  const auto last = std::min(
      static_cast<std::size_t>(std::ceil(to_hours / step_)), samples_.size());
  if (first >= last) return samples_.back();
  return (prefix_[last] - prefix_[first]) / static_cast<double>(last - first);
}

double BandwidthTrace::harmonic_average(double from_hours,
                                        double to_hours) const {
  require(to_hours > from_hours, "harmonic_average needs from < to");
  const auto first =
      static_cast<std::size_t>(std::max(from_hours, 0.0) / step_);
  const auto last = std::min(
      static_cast<std::size_t>(std::ceil(to_hours / step_)), samples_.size());
  if (first >= last) return samples_.back();
  return static_cast<double>(last - first) /
         (inverse_prefix_[last] - inverse_prefix_[first]);
}

double BandwidthTrace::span_hours() const noexcept {
  return static_cast<double>(samples_.size()) * step_;
}

}  // namespace lazyckpt::io
