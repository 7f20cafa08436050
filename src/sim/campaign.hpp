#pragma once

/// \file campaign.hpp
/// \brief Multi-allocation campaigns: how real leadership jobs actually
/// finish.  A 360-hour CHIMERA run does not get one contiguous allocation;
/// it runs as a chain of fixed-size allocations, each resuming from the
/// last committed checkpoint of the previous one, with queue-wait gaps in
/// between during which the machine keeps failing.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/policy/policy.hpp"
#include "io/storage_model.hpp"
#include "sim/engine.hpp"
#include "sim/failure_source.hpp"
#include "sim/metrics.hpp"
#include "stats/distribution.hpp"

namespace lazyckpt::sim {

/// Configuration of a campaign.
struct CampaignConfig {
  SimulationConfig base;          ///< per-allocation engine settings; its
                                  ///< time_budget_hours is overridden
  double allocation_hours = 0.0;  ///< size of each allocation
  double gap_hours = 0.0;         ///< queue wait between allocations
  std::size_t max_allocations = 100;  ///< give up after this many

  /// Throws InvalidArgument on invalid values.
  void validate() const;
};

/// Outcome of a campaign.
struct CampaignResult {
  bool completed = false;            ///< all work committed
  std::size_t allocations_used = 0;  ///< including the final partial one
  double committed_hours = 0.0;      ///< total committed work
  double machine_hours = 0.0;        ///< allocation time consumed (the bill)
  std::vector<RunMetrics> runs;      ///< per-allocation metrics
};

/// Run a campaign: repeat fixed-budget allocations, carrying committed
/// work forward, until the workload completes or max_allocations is hit.
/// The failure stream is continuous across allocations and gaps (the
/// machine does not stop failing while the job queues).
CampaignResult run_campaign(const CampaignConfig& config,
                            core::CheckpointPolicy& policy,
                            FailureSource& failures,
                            const io::StorageModel& storage);

/// Run `replicas` independent Monte Carlo campaigns of `policy` under
/// renewal failures drawn from `inter_arrival`, through the same replica
/// driver as sim::run_replicas_raw: each replica gets an independent RNG
/// stream derived from `seed` in index order, and a clone of a stateful
/// policy (a stateless one is shared).  The result is bit-identical for
/// any LAZYCKPT_THREADS value, and two policies evaluated with the same
/// seed face the same failure arrival times.
std::vector<CampaignResult> run_campaign_replicas(
    const CampaignConfig& config, const core::CheckpointPolicy& policy,
    const stats::Distribution& inter_arrival, const io::StorageModel& storage,
    std::size_t replicas, std::uint64_t seed);

/// Cross-replica summary of a campaign experiment.
struct CampaignAggregate {
  std::size_t replicas = 0;
  double mean_allocations = 0.0;      ///< allocations used per campaign
  double mean_machine_hours = 0.0;    ///< billed hours per campaign
  double mean_committed_hours = 0.0;  ///< committed science per campaign
  double mean_checkpoint_hours = 0.0;  ///< checkpoint I/O per campaign
  double completion_rate = 0.0;        ///< fraction of campaigns completed
};

/// Field table (metrics.hpp): the members after `replicas`, in serialized
/// order.  aggregate_campaigns fills them itself: they are not per-field
/// means of one run member.
using CampaignField = Field<CampaignAggregate>;
inline constexpr auto kCampaignFields = std::to_array<CampaignField>({
    {"mean_allocations", &CampaignAggregate::mean_allocations},
    {"mean_machine_hours", &CampaignAggregate::mean_machine_hours},
    {"mean_committed_hours", &CampaignAggregate::mean_committed_hours},
    {"mean_checkpoint_hours", &CampaignAggregate::mean_checkpoint_hours},
    {"completion_rate", &CampaignAggregate::completion_rate},
});

/// Aggregate a non-empty set of campaign results.
CampaignAggregate aggregate_campaigns(std::span<const CampaignResult> results);

}  // namespace lazyckpt::sim
