#pragma once

// Test-side builder for the two-level checkpoint scheme (SCR/VeloC style)
// on top of the N-tier simulator: every checkpoint lands on a burst buffer
// (L1, tier 0), every `l2_every`-th is also flushed to the parallel
// filesystem (L2, tier 1), and L1 copies survive a fraction of failures.
// Tiers are built from exact doubles, so runs are bit-reproducible against
// the goldens recorded from the historical two-level simulator.

#include <memory>
#include <utility>
#include <vector>

#include "common/random.hpp"
#include "core/policy/policy.hpp"
#include "io/hierarchy.hpp"
#include "io/storage_model.hpp"
#include "sim/failure_source.hpp"
#include "sim/hierarchy.hpp"

namespace lazyckpt::sim {

/// A two-level run.  Times in hours.
struct TwoLevelConfig {
  double compute_hours = 0.0;
  double alpha_oci_hours = 0.0;
  double mtbf_hint_hours = 0.0;
  double shape_hint = 1.0;

  double beta_l1_hours = 0.0;   ///< write one checkpoint to L1
  double beta_l2_hours = 0.0;   ///< additionally flush it to L2
  double gamma_l1_hours = 0.0;  ///< restart from L1 (may be 0)
  double gamma_l2_hours = 0.0;  ///< restart from L2
  int l2_every = 1;             ///< every Nth written checkpoint hits L2

  /// Fraction of failures recoverable from the node-local L1 tier.
  double l1_survivable_fraction = 0.8;

  /// The "bb|pfs" hierarchy.  Throws InvalidArgument on invalid costs,
  /// cadence or survivability, as any StorageHierarchy does.
  [[nodiscard]] io::StorageHierarchy hierarchy() const {
    std::vector<io::StorageTier> tiers(2);
    tiers[0].kind = "bb";
    tiers[0].model =
        std::make_unique<io::ConstantStorage>(beta_l1_hours, gamma_l1_hours);
    tiers[0].survivable_fraction = l1_survivable_fraction;
    tiers[1].kind = "pfs";
    tiers[1].model =
        std::make_unique<io::ConstantStorage>(beta_l2_hours, gamma_l2_hours);
    tiers[1].every = l2_every;
    return io::StorageHierarchy(std::move(tiers));
  }

  [[nodiscard]] HierarchyConfig run_config() const {
    HierarchyConfig config;
    config.compute_hours = compute_hours;
    config.alpha_oci_hours = alpha_oci_hours;
    config.mtbf_hint_hours = mtbf_hint_hours;
    config.shape_hint = shape_hint;
    return config;
  }
};

/// Run one two-level simulation; tiers[0] is L1 and tiers[1] is L2.
inline HierarchyRunMetrics simulate_two_level(const TwoLevelConfig& config,
                                              core::CheckpointPolicy& policy,
                                              FailureSource& failures,
                                              Rng severity_rng) {
  return simulate_hierarchy(config.run_config(), config.hierarchy(), policy,
                            failures, severity_rng);
}

}  // namespace lazyckpt::sim
