#include "core/model/bounds.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace lazyckpt::core {
namespace {

void require_valid(double time_since_failure_hours,
                   const IntervalBoundParams& params) {
  require_positive(params.alpha_oci_hours, "IntervalBoundParams.alpha_oci");
  require_positive(params.checkpoint_time_hours,
                   "IntervalBoundParams.checkpoint_time");
  require(params.max_stretch >= 1.0, "IntervalBoundParams.max_stretch >= 1");
  require_non_negative(time_since_failure_hours, "time_since_failure_hours");
}

/// The Observation-9 test in floating point: extra expected lost work does
/// not exceed the I/O saved.  F(t) and S(t) = 1 − F(t) do not depend on
/// α, so they are computed once per decision.
template <class Dist>
class FloatAdmissible {
 public:
  FloatAdmissible(const Dist& inter_arrival, double t,
                  const IntervalBoundParams& params)
      : inter_arrival_(inter_arrival),
        t_(t),
        oci_(params.alpha_oci_hours),
        beta_(params.checkpoint_time_hours),
        cdf_t_(inter_arrival.cdf(t)),
        survival_(1.0 - cdf_t_) {}

  [[nodiscard]] double survival() const { return survival_; }

  bool operator()(double alpha) const {
    const double extra_loss =
        conditional_failure_probability(alpha) * (alpha - oci_);
    const double io_saved = beta_ * (alpha / oci_ - 1.0);
    return extra_loss <= io_saved;
  }

 private:
  /// P[fail in (t, t+α) | alive at t].
  [[nodiscard]] double conditional_failure_probability(double alpha) const {
    if (survival_ <= 1e-300) return 1.0;
    return std::clamp((inter_arrival_.cdf(t_ + alpha) - cdf_t_) / survival_,
                      0.0, 1.0);
  }

  const Dist& inter_arrival_;
  double t_;
  double oci_;
  double beta_;
  double cdf_t_;
  double survival_;
};

/// The cap, else the bisection on the admissibility frontier in
/// (oci, cap).  alpha = oci is trivially admissible (both sides are
/// zero).  `admissible` decides the cap and every midpoint.
template <class Decide>
double bisect_frontier(const IntervalBoundParams& params,
                       const Decide& admissible) {
  const double oci = params.alpha_oci_hours;
  const double cap = params.max_stretch * oci;
  if (admissible(cap)) return cap;

  double lo = oci;
  double hi = cap;
  for (int iteration = 0; iteration < 100 && (hi - lo) > 1e-9 * oci;
       ++iteration) {
    const double mid = 0.5 * (lo + hi);
    if (admissible(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

double max_lazy_interval(const stats::Distribution& inter_arrival,
                         double time_since_failure_hours,
                         const IntervalBoundParams& params) {
  require_valid(time_since_failure_hours, params);
  return bisect_frontier(
      params, FloatAdmissible<stats::Distribution>(
                  inter_arrival, time_since_failure_hours, params));
}

double max_lazy_interval(const stats::Weibull& inter_arrival,
                         double time_since_failure_hours,
                         const IntervalBoundParams& params) {
  require_valid(time_since_failure_hours, params);
  const double t = time_since_failure_hours;
  const double oci = params.alpha_oci_hours;
  const FloatAdmissible<stats::Weibull> admissible(inter_arrival, t, params);

  // Closed-form frontier α* = λ·((t/λ)^k + c)^{1/k} − t.
  const double p0 = params.checkpoint_time_hours / oci;
  const double survival = admissible.survival();
  if (!(p0 <= 0.5) || !(survival > 1e-200)) {
    return bisect_frontier(params, admissible);
  }
  const double k = inter_arrival.shape();
  const double lambda = inter_arrival.scale();
  const double c = -std::log1p(-p0);
  const double cumulative_hazard_end = std::pow(t / lambda, k) + c;
  const double frontier =
      lambda * std::pow(cumulative_hazard_end, 1.0 / k) - t;
  // h(t+α*) = k·H(t+α*)/(t+α*) for the Weibull.
  const double hazard_at_frontier = k * cumulative_hazard_end / (t + frontier);
  const double slope_band = 1e3 * std::numeric_limits<double>::epsilon() *
                            p0 / (hazard_at_frontier * (1.0 - p0));
  if (!std::isfinite(frontier) || !std::isfinite(slope_band) ||
      !(slope_band > 0.0)) {
    return bisect_frontier(params, admissible);
  }
  const double survival_term = 1.0 / (survival * p0);
  const double closed_form_band = 1e-9 * std::max(frontier, oci);

  // Inside the guard band (bounds.hpp) the float test decides.
  return bisect_frontier(params, [&](double alpha) {
    const double band =
        slope_band * (alpha / (alpha - oci) + survival_term) +
        closed_form_band;
    if (std::abs(alpha - frontier) <= band) return admissible(alpha);
    return alpha < frontier;
  });
}

}  // namespace lazyckpt::core
