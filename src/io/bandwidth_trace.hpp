#pragma once

/// \file bandwidth_trace.hpp
/// \brief Time-varying storage bandwidth (Spider-like I/O log).
///
/// SUBSTITUTION NOTE (DESIGN.md §3): the paper replays six months of Spider
/// controller throughput logs.  We generate a synthetic trace with the same
/// marginal behaviour the paper describes: an observed average around
/// 10 GB/s (well below the 240 GB/s peak due to striping/contention),
/// heavy contention dips, and diurnal load variation.

#include <cstdint>
#include <string>
#include <vector>

namespace lazyckpt::io {

/// Piecewise-constant bandwidth samples on a regular time grid.
class BandwidthTrace {
 public:
  /// `step_hours` grid spacing; `samples_gbps` one value per step.
  BandwidthTrace(double step_hours, std::vector<double> samples_gbps);

  /// CSV round-trip.  Columns: time_hours,bandwidth_gbps.
  static BandwidthTrace load_csv(const std::string& path);
  void save_csv(const std::string& path) const;

  /// Synthetic Spider-like trace: log-space mean-reverting fluctuation
  /// around `mean_gbps` with a diurnal contention cycle, clamped to
  /// [floor_gbps, ceil_gbps].  Deterministic in `seed`.
  static BandwidthTrace synthetic_spider(double span_hours,
                                         double mean_gbps = 10.0,
                                         double floor_gbps = 1.0,
                                         double ceil_gbps = 110.0,
                                         std::uint64_t seed = 7);

  /// Bandwidth at time `t` (clamped to the trace edges).
  [[nodiscard]] double at(double t_hours) const noexcept;

  /// Mean bandwidth over [from_hours, to_hours].  Requires from < to.
  [[nodiscard]] double average(double from_hours, double to_hours) const;

  /// Harmonic-mean bandwidth over [from_hours, to_hours]: the rate that
  /// governs expected transfer time, since E[size/bw] = size · E[1/bw].
  /// Always <= average().  Requires from < to.
  [[nodiscard]] double harmonic_average(double from_hours,
                                        double to_hours) const;

  [[nodiscard]] double span_hours() const noexcept;
  [[nodiscard]] double step_hours() const noexcept { return step_; }
  [[nodiscard]] std::size_t size() const noexcept { return samples_.size(); }
  [[nodiscard]] const std::vector<double>& samples() const noexcept {
    return samples_;
  }

 private:
  double step_;
  std::vector<double> samples_;
  /// prefix_[i] = samples_[0] + … + samples_[i-1], summed left to right;
  /// inverse_prefix_ likewise over 1/samples_.  average() and
  /// harmonic_average() take the difference of two entries, in O(1).  From
  /// t = 0 (every IoLogAgent history query) that is bit-for-bit the
  /// left-to-right sum over the range; a query starting later may differ
  /// from such a loop in the last bits.
  std::vector<double> prefix_;
  std::vector<double> inverse_prefix_;
};

}  // namespace lazyckpt::io
