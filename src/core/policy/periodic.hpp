#pragma once

/// \file periodic.hpp
/// \brief Fixed-interval policies: the naive hourly baseline and static OCI.
///
/// next_interval is defined inline: these are the innermost per-event
/// calls of the simulator, and the engine's devirtualized fast path
/// (sim/event_loop.hpp) instantiates its loop directly against these final
/// classes so the decisions compile down to loads.

#include <string>

#include "common/error.hpp"
#include "core/policy/policy.hpp"

namespace lazyckpt::core {

/// Checkpoints every `interval_hours` regardless of failures — the paper's
/// "traditional hourly checkpointing" when constructed with 1.0, or any
/// other fixed operating interval for the Fig. 15 sweeps.
class PeriodicPolicy final : public CheckpointPolicy {
 public:
  explicit PeriodicPolicy(double interval_hours);

  [[nodiscard]] double next_interval(const PolicyContext&) override {
    return interval_;
  }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] bool is_stateless() const override { return true; }
  [[nodiscard]] PolicyPtr clone() const override;

  [[nodiscard]] double interval_hours() const noexcept { return interval_; }

 private:
  double interval_;
};

/// Checkpoints at the context's reference OCI (ctx.alpha_oci_hours).  With a
/// fixed context estimate this is the paper's "static OCI" strategy; the
/// engine computes the estimate once from historical MTBF and bandwidth.
class StaticOciPolicy final : public CheckpointPolicy {
 public:
  [[nodiscard]] double next_interval(const PolicyContext& ctx) override {
    require_positive(ctx.alpha_oci_hours, "PolicyContext.alpha_oci_hours");
    return ctx.alpha_oci_hours;
  }
  [[nodiscard]] std::string name() const override { return "static-oci"; }
  [[nodiscard]] bool is_stateless() const override { return true; }
  [[nodiscard]] PolicyPtr clone() const override;
};

}  // namespace lazyckpt::core
