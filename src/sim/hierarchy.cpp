#include "sim/hierarchy.hpp"

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/event_loop.hpp"
#include "sim/metrics.hpp"
#include "sim/replicas.hpp"

namespace lazyckpt::sim {
namespace {

/// Restore-depth telemetry (obs::enabled() gated): which tier each failure
/// recovered from.  Bucket k counts restores from tier index <= k, so the
/// exported histogram reads as a survival curve of the failure domains.
struct HierarchySimMetrics {
  obs::Histogram& restore_level;

  static HierarchySimMetrics& get() {
    static constexpr double kLevelBounds[] = {0.0, 1.0, 2.0, 3.0};
    static HierarchySimMetrics instance{
        obs::metrics().histogram("sim.tier.restore_level", kLevelBounds)};
    return instance;
  }
};

/// Tier state of a hierarchy run (DESIGN.md §5k).  Tier 0 is the flat
/// loop's own checkpoint — RunState.committed, RunMetrics.checkpoint_hours
/// and checkpoints_written — and this adds what lies below it: the
/// cascading flushes after each tier-0 commit and, per failure, the
/// restore-level draw that rolls tier 0 back to the surviving copy.
class TierCascade {
 public:
  TierCascade(const io::StorageHierarchy& hierarchy, Rng severity)
      : hierarchy_(hierarchy),
        severity_(severity),
        obs_on_(obs::enabled()),
        committed_(hierarchy.size(), 0.0),
        writes_since_(hierarchy.size(), 0),
        tiers_(hierarchy.size()) {}

  /// A write reached tier `level`: it counts toward the next tier's cadence.
  void wrote(std::size_t level) {
    if (level + 1 < hierarchy_.size()) ++writes_since_[level + 1];
  }

  /// Tier `level` (>= 1) has absorbed `every` writes of the tier above.
  [[nodiscard]] bool due(std::size_t level) const {
    return level < hierarchy_.size() &&
           writes_since_[level] >=
               static_cast<std::uint64_t>(hierarchy_.tier(level).every);
  }

  [[nodiscard]] double flush_time(std::size_t level, double now) const {
    return hierarchy_.tier(level).model->checkpoint_time(now);
  }

  /// Tier `level` (>= 1) completed a `beta`-hour flush of the copy above
  /// it; `committed0` is the work tier 0 protects.
  void flushed(std::size_t level, double beta, double committed0) {
    committed_[level] = level == 1 ? committed0 : committed_[level - 1];
    tiers_[level].io_hours += beta;
    ++tiers_[level].checkpoints;
    writes_since_[level] = 0;
    wrote(level);
  }

  /// One severity uniform picks the fastest tier whose failure domain the
  /// failure did not breach.  Copies on every faster tier died with
  /// theirs, so tier 0's progress `committed0` rolls back to that tier's
  /// last flush; returns the work lost that way (0 when tier 0 survived).
  double restore(double& committed0) {
    const double u = severity_.uniform();
    level_ = 0;
    while (u >= hierarchy_.tier(level_).survivable_fraction) ++level_;
    if (obs_on_) {
      HierarchySimMetrics::get().restore_level.observe(
          static_cast<double>(level_));
    }
    ++tiers_[level_].restarts;
    if (level_ == 0) return 0.0;
    const double lost = committed0 - committed_[level_];
    committed0 = committed_[level_];
    for (std::size_t j = 1; j < level_; ++j) {
      committed_[j] = committed_[level_];
    }
    return lost;
  }

  /// γ of the tier the last failure restores from (`tier0` is tier 0's
  /// model, statically typed on the fast path).
  template <class Storage>
  [[nodiscard]] double restart_time(const Storage& tier0, double now) const {
    return level_ == 0 ? tier0.restart_time(now)
                       : hierarchy_.tier(level_).model->restart_time(now);
  }

  /// Checkpoint I/O of the flushes below tier 0.
  [[nodiscard]] double flush_hours() const {
    double total = 0.0;
    for (std::size_t level = 1; level < tiers_.size(); ++level) {
      total += tiers_[level].io_hours;
    }
    return total;
  }

  /// Per-tier accounting of the finished run, tier 0 taken from `run`.
  [[nodiscard]] std::vector<TierRunMetrics> tiers(const RunMetrics& run) && {
    tiers_[0].io_hours = run.checkpoint_hours;
    tiers_[0].checkpoints = run.checkpoints_written;
    return std::move(tiers_);
  }

 private:
  const io::StorageHierarchy& hierarchy_;
  Rng severity_;
  bool obs_on_;
  std::size_t level_ = 0;  ///< restore tier of the latest failure
  /// committed_[k] (k >= 1): work restorable from tier k.
  std::vector<double> committed_;
  /// writes_since_[k] (k >= 1): writes to tier k-1 since tier k's flush.
  std::vector<std::uint64_t> writes_since_;
  std::vector<TierRunMetrics> tiers_;
};

}  // namespace

void HierarchyConfig::validate() const {
  require_positive(compute_hours, "HierarchyConfig.compute_hours");
  require_positive(alpha_oci_hours, "HierarchyConfig.alpha_oci_hours");
  require_positive(mtbf_hint_hours, "HierarchyConfig.mtbf_hint_hours");
  require(shape_hint > 0.0 && shape_hint <= 1.0,
          "HierarchyConfig.shape_hint must lie in (0, 1]");
  require(max_events >= 1, "HierarchyConfig.max_events must be >= 1");
}

double HierarchyRunMetrics::data_written_gb(
    const io::StorageHierarchy& hierarchy) const {
  double total = 0.0;
  for (std::size_t level = 0; level < tiers.size(); ++level) {
    total += static_cast<double>(tiers[level].checkpoints) *
             hierarchy.tier(level).model->checkpoint_size_gb();
  }
  return total;
}

HierarchyRunMetrics simulate_hierarchy(const HierarchyConfig& config,
                                       const io::StorageHierarchy& hierarchy,
                                       core::CheckpointPolicy& policy,
                                       FailureSource& failures,
                                       Rng severity_rng) {
  config.validate();
  // A hierarchy run is the flat loop over tier 0 — synchronous writes, no
  // budget, no timeline, the default MTBF window — plus the tier cascade.
  SimulationConfig flat;
  flat.compute_hours = config.compute_hours;
  flat.alpha_oci_hours = config.alpha_oci_hours;
  flat.mtbf_hint_hours = config.mtbf_hint_hours;
  flat.shape_hint = config.shape_hint;
  flat.max_events = config.max_events;
  TierCascade cascade(hierarchy, severity_rng);
  const RunMetrics run = detail::dispatch(flat, policy, failures,
                                          *hierarchy.tier(0).model, {},
                                          cascade);

  HierarchyRunMetrics metrics;
  metrics.makespan_hours = run.makespan_hours;
  metrics.compute_hours = run.compute_hours;
  metrics.wasted_hours = run.wasted_hours;
  metrics.restart_hours = run.restart_hours;
  metrics.failures = run.failures;
  metrics.checkpoints_skipped = run.checkpoints_skipped;
  metrics.tiers = std::move(cascade).tiers(run);
  return metrics;
}

std::vector<HierarchyRunMetrics> run_hierarchy_replicas_raw(
    const HierarchyConfig& config, const io::StorageHierarchy& hierarchy,
    const core::CheckpointPolicy& policy,
    const stats::Distribution& inter_arrival, std::size_t replicas,
    std::uint64_t seed) {
  const obs::TraceSpan span(
      "sim.run_hierarchy_replicas",
      obs::enabled()
          ? std::vector<obs::TraceArg>{
                obs::TraceArg::num("replicas", static_cast<double>(replicas)),
                obs::TraceArg::num("tiers",
                                   static_cast<double>(hierarchy.size()))}
          : std::vector<obs::TraceArg>{});
  // Two streams per replica, failure source first and then severity —
  // the historical serial ablation_tiered order.
  return detail::run_replicas(
      "run_hierarchy_replicas", policy, replicas, seed, 2,
      detail::Progress::kReplicas,
      [&](core::CheckpointPolicy& replica_policy, std::span<Rng> streams) {
        RenewalFailureSource source(inter_arrival, streams[0]);
        return simulate_hierarchy(config, hierarchy, replica_policy, source,
                                  streams[1]);
      });
}

HierarchyAggregate aggregate_hierarchy(
    const io::StorageHierarchy& hierarchy,
    std::span<const HierarchyRunMetrics> runs) {
  require(!runs.empty(), "aggregate_hierarchy needs at least one run");
  HierarchyAggregate out;
  out.replicas = runs.size();
  fill_stats(kHierarchyFields, runs, out);
  out.tiers.resize(hierarchy.size());
  for (std::size_t level = 0; level < hierarchy.size(); ++level) {
    out.tiers[level].kind = hierarchy.tier(level).kind;
    const auto tier = [level](const HierarchyRunMetrics& run)
        -> const TierRunMetrics& { return run.tiers.at(level); };
    fill_stats(kTierFields, runs, out.tiers[level], tier);
  }
  return out;
}

}  // namespace lazyckpt::sim
