#include "sim/sweep.hpp"

#include <cmath>
#include <cstddef>

#include "common/error.hpp"
#include "common/fp.hpp"
#include "common/parallel.hpp"
#include "core/policy/periodic.hpp"
#include "obs/trace.hpp"
#include "sim/batch.hpp"
#include "sim/replicas.hpp"

namespace lazyckpt::sim {

std::vector<RunMetrics> run_replicas_raw(const SimulationConfig& config,
                                         const core::CheckpointPolicy& policy,
                                         const stats::Distribution& inter_arrival,
                                         const io::StorageModel& storage,
                                         std::size_t replicas,
                                         std::uint64_t seed) {
  const obs::TraceSpan span(
      "sim.run_replicas",
      obs::enabled()
          ? std::vector<obs::TraceArg>{
                obs::TraceArg::num("replicas", static_cast<double>(replicas)),
                obs::TraceArg::num("batch", static_cast<double>(
                                                batch_size_from_env()))}
          : std::vector<obs::TraceArg>{});

  // Batched fast path: lockstep SoA kernel over blocks of replicas
  // (sim/batch.hpp), bit-identical to the per-replica loop below for the
  // hookless fast-policy configurations.  LAZYCKPT_BATCH=0 forces the
  // scalar path; ineligible (policy, storage) combinations take it
  // automatically.
  if (const std::size_t batch = batch_size_from_env();
      batch > 0 && batch_eligible(policy, storage)) {
    return run_replicas_batched(config, policy, inter_arrival, storage,
                                replicas, seed, batch);
  }
  return detail::run_replicas(
      "run_replicas", policy, replicas, seed, 1, detail::Progress::kReplicas,
      [&](core::CheckpointPolicy& replica_policy, std::span<Rng> streams) {
        RenewalFailureSource source(inter_arrival, streams[0]);
        return simulate(config, replica_policy, source, storage);
      });
}

AggregateMetrics run_replicas(const SimulationConfig& config,
                              const core::CheckpointPolicy& policy,
                              const stats::Distribution& inter_arrival,
                              const io::StorageModel& storage,
                              std::size_t replicas, std::uint64_t seed) {
  const auto runs = run_replicas_raw(config, policy, inter_arrival, storage,
                                     replicas, seed);
  return aggregate(runs);
}

std::vector<IntervalPoint> runtime_vs_interval(
    const SimulationConfig& base_config,
    const stats::Distribution& inter_arrival,
    const io::StorageModel& storage, std::span<const double> intervals,
    std::size_t replicas, std::uint64_t seed) {
  require(!intervals.empty(), "runtime_vs_interval needs intervals");
  const obs::TraceSpan span("sim.runtime_vs_interval");
  // Parallel over intervals; the per-interval replica loop inside
  // run_replicas detects the nesting and runs serially, so the region
  // stays bounded by one thread pool.  Each interval restarts from the
  // same seed (the paper's paired-failure-stream fairness), so the points
  // are independent and index-addressed — deterministic for any thread
  // count.
  return parallel_map(intervals.size(), [&](std::size_t i) {
    const double interval = intervals[i];
    SimulationConfig config = base_config;
    config.alpha_oci_hours = interval;
    const core::PeriodicPolicy policy(interval);
    return IntervalPoint{interval, run_replicas(config, policy, inter_arrival,
                                                storage, replicas, seed)};
  });
}

double simulated_oci(std::span<const IntervalPoint> curve) {
  require(!curve.empty(), "simulated_oci needs a non-empty curve");
  // Tie-break: on equal mean makespan the *smallest* interval wins.  A
  // smaller interval commits work more often for the same cost, and an
  // explicit rule keeps the result independent of curve ordering (the
  // historical first-seen-wins behavior was an artifact of float `<` over
  // whatever order the sweep produced).
  const IntervalPoint* best = &curve.front();
  for (const auto& point : curve) {
    const double makespan = point.metrics.mean_makespan_hours;
    const double best_makespan = best->metrics.mean_makespan_hours;
    if (makespan < best_makespan ||
        (fp::exact_eq(makespan, best_makespan) &&
         point.interval_hours < best->interval_hours)) {
      best = &point;
    }
  }
  return best->interval_hours;
}

std::vector<double> log_spaced(double lo, double hi, std::size_t count) {
  require(lo > 0.0 && hi > lo, "log_spaced needs 0 < lo < hi");
  require(count >= 2, "log_spaced needs count >= 2");
  std::vector<double> grid;
  grid.reserve(count);
  const double ratio = std::log(hi / lo) / static_cast<double>(count - 1);
  for (std::size_t i = 0; i < count; ++i) {
    grid.push_back(lo * std::exp(ratio * static_cast<double>(i)));
  }
  return grid;
}

}  // namespace lazyckpt::sim
