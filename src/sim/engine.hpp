#pragma once

/// \file engine.hpp
/// \brief The event-driven checkpoint/failure simulator (paper Sec. 3.2).
///
/// The engine "does not rely on any mathematical equation, instead it
/// mimics an application execution on a leadership machine": computation
/// chunks race against probabilistically (or trace-) generated failures;
/// completed checkpoints commit work; failures roll the application back
/// to its last committed state and cost a restart.

#include <cstddef>
#include <cstdint>
#include <functional>

#include "core/policy/policy.hpp"
#include "io/storage_model.hpp"
#include "sim/failure_source.hpp"
#include "sim/metrics.hpp"

namespace lazyckpt::sim {

/// Static configuration of a simulated run.
struct SimulationConfig {
  double compute_hours = 0.0;      ///< useful work to complete (W)
  double alpha_oci_hours = 0.0;    ///< reference OCI handed to policies
  double mtbf_hint_hours = 0.0;    ///< MTBF estimate before any failure is
                                   ///< observed (historical value)
  double shape_hint = 1.0;         ///< Weibull shape estimate for policies
  std::size_t mtbf_window = 16;    ///< moving-average window (events) for
                                   ///< the engine's online MTBF estimate
  bool record_timeline = false;    ///< collect TimelinePoints (Fig. 13)

  /// Fraction of each checkpoint write that blocks the application
  /// (in (0, 1]).  1.0 = classic synchronous checkpointing.  Below 1.0
  /// the remaining (1-σ)·β drains asynchronously while computation
  /// proceeds; the checkpoint only *commits* when the write completes, a
  /// failure before that loses the covered work, and a new write cannot
  /// start until the previous one drains (the app stalls if it reaches the
  /// next boundary first).
  double checkpoint_blocking_fraction = 1.0;

  /// Fixed allocation: stop the run at this wall-clock time even if the
  /// work is unfinished (0 = unlimited, run to completion).  On
  /// truncation, RunMetrics.compute_hours reports the *committed* work
  /// only — exactly what a restart after the allocation could resume from
  /// — and everything in flight counts as waste.
  double time_budget_hours = 0.0;

  std::uint64_t max_events = 50'000'000;  ///< livelock guard

  /// Throws InvalidArgument on invalid values.
  void validate() const;
};

/// Optional per-decision hook: after the engine fills a PolicyContext it
/// calls the hook, letting a harness override estimates (e.g. with
/// failure-log-agent / I/O-log-agent values in the prototype).
using ContextHook = std::function<void(core::PolicyContext&)>;

/// Run one simulation.  The policy and failure source are consumed
/// statefully (clone per replica); the storage model is read-only.
/// Throws Error if max_events is exceeded (the machine cannot progress).
///
/// When `failures` is a RenewalFailureSource and `storage` a
/// ConstantStorage (the Monte-Carlo sweep configuration behind most
/// figures), the engine dispatches — once, at entry — to a hot-path
/// instantiation of the event loop where every source and storage call is
/// devirtualized.  All other combinations run the same loop through the
/// virtual interfaces.  Both paths execute identical arithmetic and
/// return bit-identical RunMetrics (tests/test_engine_golden.cpp).
RunMetrics simulate(const SimulationConfig& config,
                    core::CheckpointPolicy& policy, FailureSource& failures,
                    const io::StorageModel& storage,
                    const ContextHook& hook = {});

/// Run one simulation on the type-erased loop, never taking the
/// devirtualized fast path regardless of the concrete argument types.
/// Exists so benchmarks can measure the fast path against the fallback in
/// one invocation and so the golden-master tests can prove the two paths
/// bit-identical; results are always equal to simulate() on the same
/// inputs.
RunMetrics simulate_generic(const SimulationConfig& config,
                            core::CheckpointPolicy& policy,
                            FailureSource& failures,
                            const io::StorageModel& storage,
                            const ContextHook& hook = {});

}  // namespace lazyckpt::sim
