#pragma once

/// \file sweep.hpp
/// \brief Replica averaging and parameter sweeps over the simulator —
/// the workhorse behind most of the paper's figures.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/policy/policy.hpp"
#include "io/storage_model.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"

namespace lazyckpt::sim {

/// Run `replicas` independent simulations of `policy` under renewal
/// failures drawn from `inter_arrival` and aggregate the results.  Each
/// replica gets an independent RNG stream derived from `seed`, so two
/// different policies evaluated with the same seed see the same failure
/// arrival times — the paper's "for a fair comparison, both the iLazy and
/// OCI schemes use the same failure arrival times".  Stateful policies are
/// cloned per replica; stateless ones (CheckpointPolicy::is_stateless) are
/// shared across replicas with no per-trial heap allocation.
///
/// Replicas execute on the shared parallel engine (common/parallel.hpp;
/// thread count from LAZYCKPT_THREADS, default hardware_concurrency).
/// RNG streams are pre-split in index order before dispatch, so the output
/// is bit-identical for any thread count, including 1.
AggregateMetrics run_replicas(const SimulationConfig& config,
                              const core::CheckpointPolicy& policy,
                              const stats::Distribution& inter_arrival,
                              const io::StorageModel& storage,
                              std::size_t replicas, std::uint64_t seed);

/// Same, returning the raw per-replica metrics.
std::vector<RunMetrics> run_replicas_raw(const SimulationConfig& config,
                                         const core::CheckpointPolicy& policy,
                                         const stats::Distribution& inter_arrival,
                                         const io::StorageModel& storage,
                                         std::size_t replicas,
                                         std::uint64_t seed);

/// One point of a runtime-vs-checkpoint-interval curve (Figs. 4, 9, 15).
struct IntervalPoint {
  double interval_hours = 0.0;
  AggregateMetrics metrics;
};

/// Sweep fixed checkpoint intervals: for each value, run a PeriodicPolicy
/// at that interval (which also becomes the context's reference OCI).
std::vector<IntervalPoint> runtime_vs_interval(
    const SimulationConfig& base_config,
    const stats::Distribution& inter_arrival,
    const io::StorageModel& storage, std::span<const double> intervals,
    std::size_t replicas, std::uint64_t seed);

/// Interval with the minimum mean makespan on a swept curve.  Ties on the
/// mean are broken toward the smallest interval, so the answer does not
/// depend on the order the curve was produced in.  Requires a non-empty
/// curve.
double simulated_oci(std::span<const IntervalPoint> curve);

/// Log-spaced interval grid in [lo, hi], `count` points — convenient for
/// OCI-bracketing sweeps.  Requires 0 < lo < hi and count >= 2.
std::vector<double> log_spaced(double lo, double hi, std::size_t count);

}  // namespace lazyckpt::sim
