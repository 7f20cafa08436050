#include "core/policy/bounded_ilazy.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "core/policy/ilazy.hpp"
#include "stats/weibull.hpp"

namespace lazyckpt::core {

BoundedILazyPolicy::BoundedILazyPolicy(double shape, double max_stretch)
    : shape_(shape), max_stretch_(max_stretch) {
  require(shape > 0.0 && shape <= 1.0,
          "BoundedILazyPolicy shape must lie in (0, 1]");
  require(max_stretch >= 1.0, "BoundedILazyPolicy max_stretch must be >= 1");
  mean_factor_ = std::tgamma(1.0 + 1.0 / shape);
}

double BoundedILazyPolicy::next_interval(const PolicyContext& ctx) {
  const double proposed = ILazyPolicy::lazy_interval(
      ctx.alpha_oci_hours, ctx.time_since_failure_hours, shape_);

  require_positive(ctx.mtbf_estimate_hours,
                   "PolicyContext.mtbf_estimate_hours");
  // Weibull::from_mtbf_and_shape, with Γ(1 + 1/k) taken once.
  const stats::Weibull weibull(shape_,
                               ctx.mtbf_estimate_hours / mean_factor_);

  IntervalBoundParams params;
  params.alpha_oci_hours = ctx.alpha_oci_hours;
  params.checkpoint_time_hours = ctx.checkpoint_time_hours;
  params.max_stretch = max_stretch_;
  const double cap =
      max_lazy_interval(weibull, ctx.time_since_failure_hours, params);
  return std::min(proposed, cap);
}

PolicyPtr BoundedILazyPolicy::clone() const {
  return std::make_unique<BoundedILazyPolicy>(*this);
}

}  // namespace lazyckpt::core
