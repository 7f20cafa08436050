#include "replay.hpp"

#include <algorithm>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "cache/serialize.hpp"
#include "core/model/oci.hpp"
#include "core/policy/factory.hpp"
#include "io/factory.hpp"
#include "io/hierarchy.hpp"
#include "obs/clock.hpp"
#include "spec/scenario.hpp"
#include "stats/factory.hpp"

namespace perfbench {
namespace {

namespace spec = lazyckpt::spec;
namespace sim = lazyckpt::sim;

/// Adds the wall time of its scope to `sink`.
class ScopedBusy {
 public:
  explicit ScopedBusy(std::uint64_t& sink)
      : sink_(sink), start_(lazyckpt::obs::process_clock().now_ns()) {}
  ~ScopedBusy() { sink_ += lazyckpt::obs::process_clock().now_ns() - start_; }
  ScopedBusy(const ScopedBusy&) = delete;
  ScopedBusy& operator=(const ScopedBusy&) = delete;

 private:
  std::uint64_t& sink_;
  lazyckpt::obs::TimeNs start_;
};

template <typename Fn>
auto timed(std::uint64_t& sink, Fn&& fn) {
  const ScopedBusy busy(sink);
  return fn();
}

/// Index into kPolicyFamilies of a core::make_policy spec, or npos.
std::size_t policy_family(std::string_view spec_text) {
  std::string_view head = spec_text.substr(0, spec_text.find(':'));
  if (head.starts_with("skip")) head = "skip";
  if (head == "hourly") head = "periodic";
  const auto* it =
      std::find(kPolicyFamilies.begin(), kPolicyFamilies.end(), head);
  return it == kPolicyFamilies.end()
             ? std::string_view::npos
             : static_cast<std::size_t>(it - kPolicyFamilies.begin());
}

void count_runs(std::span<const sim::RunMetrics> runs, LayerTrace& trace) {
  for (const sim::RunMetrics& run : runs) {
    trace.failures += run.failures;
    trace.checkpoints_written += run.checkpoints_written;
    trace.checkpoints_skipped += run.checkpoints_skipped;
  }
}

double mtbf_hint(const spec::Scenario& scenario,
                 const lazyckpt::stats::Distribution& inter_arrival) {
  return scenario.mtbf_hint_hours > 0.0 ? scenario.mtbf_hint_hours
                                        : inter_arrival.mean();
}

/// ScenarioRunner::run past a cache miss: factories, config, simulation,
/// aggregation and the cache store, in the runner's order.
void compute(spec::ScenarioResult& result, spec::ResultCache* cache,
             LayerTrace& trace) {
  const spec::Scenario& run_as = result.scenario;
  const auto inter_arrival =
      timed(trace.busy(Layer::kStatsMakeDistribution), [&] {
        return lazyckpt::stats::make_distribution(run_as.distribution);
      });
  const auto policy = timed(trace.busy(Layer::kCoreMakePolicy),
                            [&] { return lazyckpt::core::make_policy(run_as.policy); });
  const std::uint64_t sim_before = trace.sim_ns();

  if (run_as.is_tiered()) {
    const auto hierarchy = timed(trace.busy(Layer::kIoMakeStorage), [&] {
      return lazyckpt::io::make_hierarchy(run_as.tier_spec());
    });
    const auto config = timed(trace.busy(Layer::kSpecConfig), [&] {
      const double mtbf = mtbf_hint(run_as, *inter_arrival);
      sim::HierarchyConfig c;
      c.compute_hours = run_as.compute_hours;
      c.alpha_oci_hours = run_as.oci_hours > 0.0
                              ? run_as.oci_hours
                              : lazyckpt::core::tiered_daly_oci(
                                    hierarchy.betas_at(0.0),
                                    hierarchy.cumulative_periods(), mtbf);
      c.mtbf_hint_hours = mtbf;
      c.shape_hint = run_as.shape_hint;
      return c;
    });
    const auto raw_runs = timed(trace.busy(Layer::kSimHierarchy), [&] {
      return sim::run_hierarchy_replicas_raw(config, hierarchy, *policy,
                                             *inter_arrival, run_as.replicas,
                                             run_as.seed);
    });
    timed(trace.busy(Layer::kSimAggregate), [&] {
      result.hierarchy = sim::aggregate_hierarchy(hierarchy, raw_runs);
      result.runs.reserve(raw_runs.size());
      for (const sim::HierarchyRunMetrics& run : raw_runs) {
        sim::RunMetrics flat;
        flat.makespan_hours = run.makespan_hours;
        flat.compute_hours = run.compute_hours;
        flat.checkpoint_hours = run.io_hours();
        flat.wasted_hours = run.wasted_hours;
        flat.restart_hours = run.restart_hours;
        flat.failures = run.failures;
        flat.checkpoints_written =
            run.tiers.empty() ? 0 : run.tiers[0].checkpoints;
        flat.checkpoints_skipped = run.checkpoints_skipped;
        flat.data_written_gb = run.data_written_gb(hierarchy);
        result.runs.push_back(flat);
      }
      result.aggregate = sim::aggregate(result.runs);
    });
    count_runs(result.runs, trace);
  } else {
    const auto storage = timed(trace.busy(Layer::kIoMakeStorage), [&] {
      return lazyckpt::io::make_storage(run_as.storage);
    });
    if (run_as.is_campaign()) {
      const auto config = timed(trace.busy(Layer::kSpecConfig),
                                [&] { return spec::campaign_config(run_as); });
      const auto campaigns = timed(trace.busy(Layer::kSimCampaign), [&] {
        return sim::run_campaign_replicas(config, *policy, *inter_arrival,
                                          *storage, run_as.replicas,
                                          run_as.seed);
      });
      std::vector<sim::RunMetrics> all_runs;
      timed(trace.busy(Layer::kSimAggregate), [&] {
        result.campaign = sim::aggregate_campaigns(campaigns);
        for (const auto& campaign : campaigns) {
          all_runs.insert(all_runs.end(), campaign.runs.begin(),
                          campaign.runs.end());
        }
        result.aggregate = sim::aggregate(all_runs);
      });
      count_runs(all_runs, trace);
    } else {
      const auto config = timed(trace.busy(Layer::kSpecConfig), [&] {
        const double mtbf = mtbf_hint(run_as, *inter_arrival);
        sim::SimulationConfig c;
        c.compute_hours = run_as.compute_hours;
        c.alpha_oci_hours =
            run_as.oci_hours > 0.0
                ? run_as.oci_hours
                : lazyckpt::core::daly_oci(storage->checkpoint_time(0.0),
                                           mtbf);
        c.mtbf_hint_hours = mtbf;
        c.shape_hint = run_as.shape_hint;
        c.record_timeline = run_as.record_timeline;
        c.checkpoint_blocking_fraction = run_as.blocking_fraction;
        c.time_budget_hours = run_as.time_budget_hours;
        return c;
      });
      result.runs = timed(trace.busy(Layer::kSimFlat), [&] {
        return sim::run_replicas_raw(config, *policy, *inter_arrival,
                                     *storage, run_as.replicas, run_as.seed);
      });
      timed(trace.busy(Layer::kSimAggregate),
            [&] { result.aggregate = sim::aggregate(result.runs); });
      count_runs(result.runs, trace);
    }
  }

  trace.replicas += run_as.replicas;
  if (const std::size_t family = policy_family(run_as.policy);
      family != std::string_view::npos) {
    trace.policy_ns[family] += trace.sim_ns() - sim_before;
  }
  if (cache != nullptr) {
    timed(trace.busy(Layer::kCacheStore), [&] { cache->store(result); });
  }
}

}  // namespace

std::uint64_t LayerTrace::sim_ns() const {
  return busy(Layer::kSimFlat) + busy(Layer::kSimHierarchy) +
         busy(Layer::kSimCampaign);
}

std::uint64_t LayerTrace::attributed_ns() const {
  std::uint64_t total = 0;
  for (const std::uint64_t ns : busy_ns) total += ns;
  return total;
}

std::string replay_request(std::string_view text, std::size_t max_replicas,
                           spec::ResultCache* cache, LayerTrace& trace) {
  const ScopedBusy whole(trace.request_ns);
  spec::ScenarioResult result;
  result.scenario = timed(trace.busy(Layer::kSpecParse),
                          [&] { return spec::parse_scenario(text); });
  timed(trace.busy(Layer::kSpecValidate),
        [&] { result.scenario.validate(); });
  if (max_replicas > 0) {
    result.scenario.replicas =
        std::min(result.scenario.replicas, max_replicas);
  }

  std::optional<spec::ScenarioResult> hit;
  if (cache != nullptr) {
    hit = timed(trace.busy(Layer::kCacheFetch),
                [&] { return cache->fetch(result.scenario); });
  }
  if (hit) {
    result = *std::move(hit);
  } else {
    compute(result, cache, trace);
  }
  return timed(trace.busy(Layer::kCacheSerialize),
               [&] { return lazyckpt::cache::serialize_result(result); });
}

}  // namespace perfbench
