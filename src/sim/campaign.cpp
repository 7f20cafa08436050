#include "sim/campaign.hpp"

#include <limits>
#include <span>

#include "common/error.hpp"
#include "common/fp.hpp"
#include "common/random.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/replicas.hpp"

namespace lazyckpt::sim {
namespace {

/// View of the campaign's continuous failure stream re-based so that the
/// current allocation starts at time 0.  Events that fell into the queue
/// gap (before the allocation began) are drained on construction.
class ShiftedFailureSource final : public FailureSource {
 public:
  ShiftedFailureSource(FailureSource& inner, double shift)
      : inner_(&inner), shift_(shift) {
    while (inner_->peek_next() <= shift_) inner_->pop();
  }

  [[nodiscard]] double peek_next() const override {
    const double next = inner_->peek_next();
    if (fp::exact_eq(next, std::numeric_limits<double>::infinity())) {
      return next;
    }
    return next - shift_;
  }

  void pop() override { inner_->pop(); }

 private:
  FailureSource* inner_;
  double shift_;
};

}  // namespace

void CampaignConfig::validate() const {
  base.validate();
  require_positive(allocation_hours, "CampaignConfig.allocation_hours");
  require_non_negative(gap_hours, "CampaignConfig.gap_hours");
  require(max_allocations >= 1,
          "CampaignConfig.max_allocations must be >= 1");
}

CampaignResult run_campaign(const CampaignConfig& config,
                            core::CheckpointPolicy& policy,
                            FailureSource& failures,
                            const io::StorageModel& storage) {
  config.validate();
  const obs::TraceSpan campaign_span("sim.campaign");

  CampaignResult result;
  double remaining = config.base.compute_hours;
  double machine_clock = 0.0;  // continuous time across the campaign

  while (result.allocations_used < config.max_allocations &&
         remaining > 0.0) {
    SimulationConfig allocation = config.base;
    allocation.compute_hours = remaining;
    allocation.time_budget_hours = config.allocation_hours;

    const obs::TraceSpan allocation_span(
        "sim.campaign.allocation",
        obs::enabled()
            ? std::vector<obs::TraceArg>{
                  obs::TraceArg::num(
                      "index", static_cast<double>(result.allocations_used)),
                  obs::TraceArg::num("remaining_hours", remaining)}
            : std::vector<obs::TraceArg>{});
    if (obs::enabled()) {
      obs::metrics().counter("campaign.allocations").add();
    }
    ShiftedFailureSource shifted(failures, machine_clock);
    const RunMetrics run = simulate(allocation, policy, shifted, storage);

    ++result.allocations_used;
    result.committed_hours += run.compute_hours;
    result.machine_hours += run.makespan_hours;
    remaining -= run.compute_hours;
    machine_clock += run.makespan_hours + config.gap_hours;
    result.runs.push_back(run);

    if (remaining <= 1e-9) {
      result.completed = true;
      remaining = 0.0;
      break;
    }
    // An allocation that commits nothing forever would spin; the
    // max_allocations bound still terminates the loop.
  }
  return result;
}

std::vector<CampaignResult> run_campaign_replicas(
    const CampaignConfig& config, const core::CheckpointPolicy& policy,
    const stats::Distribution& inter_arrival, const io::StorageModel& storage,
    std::size_t replicas, std::uint64_t seed) {
  config.validate();
  const obs::TraceSpan span("sim.run_campaign_replicas");
  return detail::run_replicas(
      "run_campaign_replicas", policy, replicas, seed, 1,
      detail::Progress::kCampaignReplicas,
      [&](core::CheckpointPolicy& replica_policy, std::span<Rng> streams) {
        RenewalFailureSource source(inter_arrival, streams[0]);
        return run_campaign(config, replica_policy, source, storage);
      });
}

CampaignAggregate aggregate_campaigns(
    std::span<const CampaignResult> results) {
  require(!results.empty(), "aggregate_campaigns needs results");
  CampaignAggregate agg;
  agg.replicas = results.size();
  std::size_t completed = 0;
  for (const auto& result : results) {
    agg.mean_allocations += static_cast<double>(result.allocations_used);
    agg.mean_machine_hours += result.machine_hours;
    agg.mean_committed_hours += result.committed_hours;
    for (const auto& run : result.runs) {
      agg.mean_checkpoint_hours += run.checkpoint_hours;
    }
    completed += result.completed ? 1 : 0;
  }
  const auto n = static_cast<double>(agg.replicas);
  agg.mean_allocations /= n;
  agg.mean_machine_hours /= n;
  agg.mean_committed_hours /= n;
  agg.mean_checkpoint_hours /= n;
  agg.completion_rate = static_cast<double>(completed) / n;
  return agg;
}

}  // namespace lazyckpt::sim
