#pragma once

/// \file hierarchy.hpp
/// \brief N-tier hierarchy-aware checkpoint simulation (DESIGN.md §5k).
///
/// Every checkpoint lands on tier 0; tier k is written every `every_k`-th
/// write of tier k−1 (cadences cascade).  A failure draws one severity
/// uniform and restores from the fastest tier whose failure domain it did
/// not breach (u < survivable_k): the work beyond that tier's last flush
/// is lost, exactly the ReStore node-loss semantics.  Torn writes lose the
/// segment being committed; a torn deeper flush leaves the shallower
/// copies valid.
///
/// There is no separate hierarchy loop: simulate_hierarchy runs the flat
/// engine's event loop (sim/event_loop.hpp) over tier 0, with a tier
/// cascade that adds the deeper flushes and the restore-level draw.  A one-tier
/// hierarchy therefore is simulate() bit for bit, and a two-tier one
/// reproduces the historical two-level simulator (both pinned by
/// tests/test_sim_hierarchy.cpp).

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/random.hpp"
#include "core/policy/policy.hpp"
#include "io/hierarchy.hpp"
#include "sim/failure_source.hpp"
#include "sim/metrics.hpp"
#include "stats/distribution.hpp"

namespace lazyckpt::sim {

/// Configuration of one hierarchy run.  Times in hours; the per-tier β/γ,
/// cadence, and survivability live in the io::StorageHierarchy itself.
struct HierarchyConfig {
  double compute_hours = 0.0;    ///< useful work to finish
  double alpha_oci_hours = 0.0;  ///< reference OCI handed to the policy
  double mtbf_hint_hours = 0.0;  ///< MTBF estimate for the policy context
  double shape_hint = 1.0;       ///< Weibull shape estimate

  std::uint64_t max_events = 50'000'000;  ///< livelock guard

  /// Throws InvalidArgument on invalid values.
  void validate() const;
};

/// Per-tier accounting of one run.
struct TierRunMetrics {
  double io_hours = 0.0;           ///< completed writes/flushes to this tier
  std::uint64_t checkpoints = 0;   ///< completed writes to this tier
  std::uint64_t restarts = 0;      ///< recoveries restored from this tier
};

/// Accounting for one hierarchy run.  Conservation holds:
/// makespan == compute + Σ tier io + wasted + restart.
struct HierarchyRunMetrics {
  double makespan_hours = 0.0;
  double compute_hours = 0.0;
  double wasted_hours = 0.0;
  double restart_hours = 0.0;

  std::uint64_t failures = 0;
  std::uint64_t checkpoints_skipped = 0;

  std::vector<TierRunMetrics> tiers;  ///< one entry per hierarchy tier

  /// Total checkpoint I/O across every tier.
  [[nodiscard]] double io_hours() const noexcept {
    double total = 0.0;
    for (const TierRunMetrics& tier : tiers) total += tier.io_hours;
    return total;
  }

  /// Data written across every tier (GB), given the per-tier sizes.
  [[nodiscard]] double data_written_gb(
      const io::StorageHierarchy& hierarchy) const;
};

/// Run one hierarchy simulation.  `severity_rng` draws one uniform per
/// failure to pick the restore tier.  Throws Error when max_events is
/// exceeded.  Runs through simulate()'s dispatch, so renewal failures over
/// a constant tier 0 take the devirtualized fast path, and telemetry
/// counts each run in the `sim.*` engine counters.
HierarchyRunMetrics simulate_hierarchy(const HierarchyConfig& config,
                                       const io::StorageHierarchy& hierarchy,
                                       core::CheckpointPolicy& policy,
                                       FailureSource& failures,
                                       Rng severity_rng);

/// Run `replicas` independent hierarchy simulations under renewal failures
/// drawn from `inter_arrival`.  RNG streams (one failure stream and one
/// severity stream per replica) are pre-split from `seed` in index order
/// before dispatch onto the shared parallel engine, so the output is
/// bit-identical for any LAZYCKPT_THREADS — and identical to a serial loop
/// doing `master.split()` for the source then `master.split()` for the
/// severity rng per replica, the historical ablation_tiered order.  Like
/// the flat sweep, it feeds the `sim.replicas_done` progress heartbeat.
std::vector<HierarchyRunMetrics> run_hierarchy_replicas_raw(
    const HierarchyConfig& config, const io::StorageHierarchy& hierarchy,
    const core::CheckpointPolicy& policy,
    const stats::Distribution& inter_arrival, std::size_t replicas,
    std::uint64_t seed);

/// Cross-replica means of one tier.
struct TierAggregate {
  std::string kind;  ///< tier kind label ("mem", "bb", "pfs", …)
  double mean_io_hours = 0.0;
  double mean_checkpoints = 0.0;
  double mean_restarts = 0.0;
};

/// Summary statistics over replicas of the same hierarchy experiment.
/// Sums are accumulated in replica index order, so the means are
/// bit-identical to the historical serial accumulation.
struct HierarchyAggregate {
  std::size_t replicas = 0;
  double mean_makespan_hours = 0.0;
  double mean_compute_hours = 0.0;
  double mean_wasted_hours = 0.0;
  double mean_restart_hours = 0.0;
  double mean_failures = 0.0;
  double mean_checkpoints_skipped = 0.0;
  std::vector<TierAggregate> tiers;  ///< one entry per hierarchy tier

  /// Total mean checkpoint I/O across every tier.
  [[nodiscard]] double mean_io_hours() const noexcept {
    double total = 0.0;
    for (const TierAggregate& tier : tiers) total += tier.mean_io_hours;
    return total;
  }
};

// Field tables (metrics.hpp).  A tier's `kind` label leads its line, and
// the tier list follows the hierarchy means.

using HierarchyField = StatField<HierarchyAggregate, HierarchyRunMetrics>;
inline constexpr auto kHierarchyFields = std::to_array<HierarchyField>({
    {"mean_makespan_hours", &HierarchyAggregate::mean_makespan_hours,
     Stat::kMean, &HierarchyRunMetrics::makespan_hours},
    {"mean_compute_hours", &HierarchyAggregate::mean_compute_hours,
     Stat::kMean, &HierarchyRunMetrics::compute_hours},
    {"mean_wasted_hours", &HierarchyAggregate::mean_wasted_hours,
     Stat::kMean, &HierarchyRunMetrics::wasted_hours},
    {"mean_restart_hours", &HierarchyAggregate::mean_restart_hours,
     Stat::kMean, &HierarchyRunMetrics::restart_hours},
    {"mean_failures", &HierarchyAggregate::mean_failures, Stat::kMean,
     &HierarchyRunMetrics::failures},
    {"mean_checkpoints_skipped",
     &HierarchyAggregate::mean_checkpoints_skipped, Stat::kMean,
     &HierarchyRunMetrics::checkpoints_skipped},
});

using TierField = StatField<TierAggregate, TierRunMetrics>;
inline constexpr auto kTierFields = std::to_array<TierField>({
    {"mean_io_hours", &TierAggregate::mean_io_hours, Stat::kMean,
     &TierRunMetrics::io_hours},
    {"mean_checkpoints", &TierAggregate::mean_checkpoints, Stat::kMean,
     &TierRunMetrics::checkpoints},
    {"mean_restarts", &TierAggregate::mean_restarts, Stat::kMean,
     &TierRunMetrics::restarts},
});

/// Aggregate a non-empty set of hierarchy runs (tier kinds are labelled
/// from `hierarchy`).
HierarchyAggregate aggregate_hierarchy(
    const io::StorageHierarchy& hierarchy,
    std::span<const HierarchyRunMetrics> runs);

}  // namespace lazyckpt::sim
