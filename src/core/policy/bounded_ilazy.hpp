#pragma once

/// \file bounded_ilazy.hpp
/// \brief iLazy with the Observation-9 no-performance-loss cap.
///
/// Identical to iLazy except every proposed interval is clamped by
/// core::max_lazy_interval, computed against the Weibull inter-arrival
/// model implied by the context's MTBF and shape estimates.  This trades a
/// portion of the I/O savings for a guarantee that the expected extra lost
/// work never exceeds the expected checkpoint cost saved.

#include <string>

#include "core/model/bounds.hpp"
#include "core/policy/policy.hpp"

namespace lazyckpt::core {

/// Capped iLazy (paper Fig. 21).
class BoundedILazyPolicy final : public CheckpointPolicy {
 public:
  /// `shape` fixes the Weibull shape; `max_stretch` bounds the cap search.
  explicit BoundedILazyPolicy(double shape, double max_stretch = 64.0);

  [[nodiscard]] double next_interval(const PolicyContext& ctx) override;
  [[nodiscard]] std::string name() const override { return "bounded-ilazy"; }
  [[nodiscard]] bool is_stateless() const override { return true; }
  [[nodiscard]] PolicyPtr clone() const override;

 private:
  double shape_;
  double max_stretch_;
  double mean_factor_ = 1.0;  ///< Γ(1 + 1/shape): Weibull mean / scale
};

}  // namespace lazyckpt::core
