#include "sim/engine.hpp"

#include "common/error.hpp"
#include "sim/event_loop.hpp"

namespace lazyckpt::sim {

void SimulationConfig::validate() const {
  require_positive(compute_hours, "SimulationConfig.compute_hours");
  require_positive(alpha_oci_hours, "SimulationConfig.alpha_oci_hours");
  require_positive(mtbf_hint_hours, "SimulationConfig.mtbf_hint_hours");
  require(shape_hint > 0.0 && shape_hint <= 1.0,
          "SimulationConfig.shape_hint must lie in (0, 1]");
  require(mtbf_window >= 1, "SimulationConfig.mtbf_window must be >= 1");
  require(checkpoint_blocking_fraction > 0.0 &&
              checkpoint_blocking_fraction <= 1.0,
          "SimulationConfig.checkpoint_blocking_fraction must lie in (0, 1]");
  require_non_negative(time_budget_hours,
                       "SimulationConfig.time_budget_hours");
  require(max_events >= 1, "SimulationConfig.max_events must be >= 1");
}

RunMetrics simulate(const SimulationConfig& config,
                    core::CheckpointPolicy& policy, FailureSource& failures,
                    const io::StorageModel& storage,
                    const ContextHook& hook) {
  detail::NoTiers flat;
  return detail::dispatch(config, policy, failures, storage, hook, flat);
}

RunMetrics simulate_generic(const SimulationConfig& config,
                            core::CheckpointPolicy& policy,
                            FailureSource& failures,
                            const io::StorageModel& storage,
                            const ContextHook& hook) {
  config.validate();
  detail::NoTiers flat;
  return detail::run_loop(config, policy, failures, storage, hook, flat);
}

}  // namespace lazyckpt::sim
