#pragma once

/// \file event_loop.hpp
/// \brief The simulator's per-trial event loop (paper Sec. 3.2) and its
/// fast-path dispatch — internal to sim/, shared by flat runs
/// (engine.cpp) and hierarchy runs (hierarchy.cpp).
///
/// Each of those translation units instantiates only its own tier state,
/// with internal linkage (the unnamed namespace below).  GCC budgets
/// inlining per translation unit, so keeping the hierarchy instantiations
/// out of engine.cpp gives the flat ones the same inlining and hot/cold
/// layout as a loop that knows nothing of tiers.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "common/error.hpp"
#include "common/fp.hpp"
#include "core/policy/ilazy.hpp"
#include "core/policy/periodic.hpp"
#include "core/policy/policy.hpp"
#include "io/storage_model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/failure_source.hpp"
#include "sim/metrics.hpp"
#include "stats/descriptive.hpp"

namespace lazyckpt::sim::detail {
namespace {

/// Engine telemetry (obs::enabled() gated).  The event loop never touches
/// these: every count it needs already lives in RunMetrics or a loop
/// local, so the whole trial is flushed with a handful of relaxed adds
/// after the loop exits — the hot path itself is byte-for-byte the code
/// that ran before instrumentation existed.
struct EngineMetrics {
  obs::Counter& trials = obs::metrics().counter("sim.trials");
  obs::Counter& events = obs::metrics().counter("sim.events");
  obs::Counter& failures = obs::metrics().counter("sim.failures");
  obs::Counter& ckpt_written =
      obs::metrics().counter("sim.checkpoints_written");
  obs::Counter& ckpt_skipped =
      obs::metrics().counter("sim.checkpoints_skipped");
  obs::Counter& dispatch_fast = obs::metrics().counter("sim.dispatch.fast");
  obs::Counter& dispatch_generic =
      obs::metrics().counter("sim.dispatch.generic");

  static EngineMetrics& get() {
    static EngineMetrics instance;
    return instance;
  }
};

/// Tier state of a flat run: empty, so run_loop compiles every tier hook
/// out and the flat instantiations are the plain single-level loop.
/// Hierarchy runs pass a TierCascade (hierarchy.cpp).
struct NoTiers {};

/// Mutable state of one run, grouped so the failure-handling helper can
/// operate on it without a long parameter list.
struct RunState {
  double now = 0.0;
  double committed = 0.0;    ///< work protected by the last checkpoint
  double uncommitted = 0.0;  ///< work at risk since the last checkpoint
  double last_failure = 0.0; ///< time of the most recent failure (0 = none)
  bool any_failure = false;
  int boundaries_since_failure = 0;

  // In-flight asynchronous checkpoint write (blocking fraction < 1).
  bool has_pending = false;
  double pending_commit_time = 0.0;  ///< when the async write drains
  double pending_work = 0.0;         ///< work the write will protect

  RunMetrics metrics;
  stats::MovingAverage mtbf_ma;

  // The one PolicyContext instance of the run.  Every time-varying field
  // is (re)assigned before each policy call, so patching it in place is
  // observationally identical to building a fresh snapshot — including
  // under a mutating ContextHook, whose edits never survive a refresh.
  core::PolicyContext ctx;

  explicit RunState(std::size_t window) : mtbf_ma(window) {}
};

/// The event loop of every flat and hierarchy trial, templated on the
/// concrete policy, failure-source, and storage types and on the tier
/// state.  Instantiated once with the abstract interfaces (the
/// type-erased path every caller can reach) and once per fast-path
/// combination of final classes — RenewalFailureSource + ConstantStorage,
/// optionally with one of the hot policies — where the compiler resolves
/// peek_next/pop/checkpoint_time/restart_time/next_interval/should_skip
/// statically and inlines the header-defined decision bodies.  Every
/// instantiation executes the identical statement sequence, so their
/// results are bit-identical (pinned by tests/test_engine_golden.cpp).
///
/// `Tiers` is NoTiers for flat runs, whose tier hooks vanish at compile
/// time, or TierCascade for hierarchies: `storage` is then tier 0 and the
/// cascade adds the deeper flushes and the restore-level draw.
template <class Policy, class FSource, class Storage, class Tiers>
RunMetrics run_loop(const SimulationConfig& config, Policy& policy,
                    FSource& failures, const Storage& storage,
                    const ContextHook& hook, Tiers& tiers) {
  constexpr bool kTiered = !std::is_same_v<Tiers, NoTiers>;
  const obs::TraceSpan trial_span("sim.trial");
  RunState st(config.mtbf_window);
  const double work_target = config.compute_hours;
  const double budget = config.time_budget_hours > 0.0
                            ? config.time_budget_hours
                            : std::numeric_limits<double>::infinity();
  bool truncated = false;

  // Cache of the pending failure time: peek_next() is const and its value
  // changes only on pop(), so the loop queries the source once per pop
  // instead of up to four times per iteration.
  double next_failure = failures.peek_next();
  const auto pop_failure = [&]() {
    failures.pop();
    next_failure = failures.peek_next();
  };

  // Cache of β(t) keyed on the exact query time: checkpoint_time is a pure
  // function of `now` (the StorageModel contract), and the engine asks for
  // the same instant from the context builder and the checkpoint-boundary
  // code, so each distinct time is computed once.  When the storage type
  // is statically ConstantStorage the call is an inline member load, which
  // is cheaper than the cache bookkeeping — bypass it.
  double beta_cache_time = std::numeric_limits<double>::quiet_NaN();
  double beta_cache_value = 0.0;
  const auto checkpoint_time_at = [&](double now) {
    if constexpr (std::is_same_v<Storage, io::ConstantStorage>) {
      return storage.checkpoint_time(now);
    } else {
      if (fp::exact_ne(now, beta_cache_time)) {
        beta_cache_value = storage.checkpoint_time(now);
        beta_cache_time = now;
      }
      return beta_cache_value;
    }
  };

  // Context refresh, two schemes with identical observable values:
  //
  // - No hook installed (every Monte-Carlo sweep): only the fields that
  //   are a function of `now` are reassigned per refresh.  The slow-moving
  //   fields — MTBF estimate, failure/boundary counters, the config
  //   constants — are maintained at their mutation sites below, which run
  //   once per failure or boundary instead of up to three times per loop
  //   iteration.  Nothing else can touch the context, so the values handed
  //   to the policy are the same ones a full rebuild would produce.
  //
  // - Hook installed: every field is reassigned and the hook runs, so a
  //   mutating hook sees a freshly built snapshot each time and its edits
  //   never leak into later decisions — the original contract.
  const bool has_hook = static_cast<bool>(hook);
  const auto update_mtbf_field = [&]() {
    st.ctx.mtbf_estimate_hours = st.mtbf_ma.value_or(config.mtbf_hint_hours);
  };
  st.ctx.alpha_oci_hours = config.alpha_oci_hours;
  st.ctx.weibull_shape_estimate = config.shape_hint;
  update_mtbf_field();
  st.ctx.checkpoints_since_failure = 0;
  st.ctx.failures_so_far = 0;

  const auto refresh_context = [&]() -> const core::PolicyContext& {
    st.ctx.now_hours = st.now;
    st.ctx.time_since_failure_hours =
        st.any_failure ? st.now - st.last_failure : st.now;
    st.ctx.checkpoint_time_hours = checkpoint_time_at(st.now);
    if (has_hook) {
      st.ctx.alpha_oci_hours = config.alpha_oci_hours;
      update_mtbf_field();
      st.ctx.weibull_shape_estimate = config.shape_hint;
      st.ctx.checkpoints_since_failure = st.boundaries_since_failure;
      st.ctx.failures_so_far = static_cast<int>(st.metrics.failures);
      hook(st.ctx);
    }
    return st.ctx;
  };

  // The allocation expires mid-phase: time since the phase began (and any
  // uncommitted work) is lost, exactly as when the scheduler kills a job.
  const auto truncate_at_budget = [&]() {
    st.metrics.wasted_hours += budget - st.now + st.uncommitted;
    st.uncommitted = 0.0;
    st.now = budget;
    st.has_pending = false;
    truncated = true;
  };

  const auto snapshot = [&]() {
    if (!config.record_timeline) return;
    st.metrics.timeline.push_back({st.now, st.committed,
                                   st.metrics.checkpoint_hours,
                                   st.metrics.wasted_hours,
                                   st.metrics.restart_hours});
  };

  if (config.record_timeline) {
    // Rough event count: one point per checkpoint boundary plus one per
    // expected failure.  Only capacity — never affects recorded values.
    const double boundaries = work_target / config.alpha_oci_hours;
    const double expected_failures = work_target / config.mtbf_hint_hours;
    st.metrics.timeline.reserve(
        static_cast<std::size_t>(
            std::min(boundaries + expected_failures, 1e6)) +
        16);
  }

  // Commit the in-flight asynchronous write: the covered work becomes
  // safe.  Costs no time by itself.
  const auto commit_pending = [&]() {
    st.committed += st.pending_work;
    st.uncommitted -= st.pending_work;
    st.has_pending = false;
    ++st.metrics.checkpoints_written;
    st.metrics.data_written_gb += storage.checkpoint_size_gb();
    policy.on_checkpoint_complete(refresh_context());
    snapshot();
  };

  // Process a commit that drains before `limit` and before the next
  // failure (commit events consume no simulated time).
  const auto process_commit_before = [&](double limit) {
    if (st.has_pending && st.pending_commit_time <= limit &&
        st.pending_commit_time <= next_failure) {
      commit_pending();
    }
  };

  // γ of a restore: the flat storage's, or that of the tier a hierarchy
  // failure left readable.
  const auto restart_time_at = [&](double now) {
    if constexpr (kTiered) {
      return tiers.restart_time(storage, now);
    } else {
      return storage.restart_time(now);
    }
  };

  // Register a failure at the stream head: roll back, account the MTBF
  // observation, notify the policy, then pay (possibly repeated) restarts.
  const auto handle_failure = [&]() {
    const double failure_time = next_failure;
    // An async write that drained before the failure still counts.
    process_commit_before(failure_time);
    st.has_pending = false;  // anything still in flight is torn
    // Work (and time) since the last commit point is lost.
    st.metrics.wasted_hours += failure_time - st.now + st.uncommitted;
    st.uncommitted = 0.0;
    st.now = failure_time;

    const auto register_failure = [&]() {
      if (st.any_failure) {
        st.mtbf_ma.add(st.now - st.last_failure);
      } else {
        st.mtbf_ma.add(st.now);  // first gap measured from run start
      }
      st.any_failure = true;
      st.last_failure = st.now;
      st.boundaries_since_failure = 0;
      ++st.metrics.failures;
      // Maintain the slow-moving context fields for the hookless refresh.
      update_mtbf_field();
      st.ctx.checkpoints_since_failure = 0;
      st.ctx.failures_so_far = static_cast<int>(st.metrics.failures);
      pop_failure();
      policy.on_failure(refresh_context());
      if constexpr (kTiered) {
        st.metrics.wasted_hours += tiers.restore(st.committed);
      }
    };
    register_failure();

    // Restart; another failure may interrupt the restart itself, and the
    // allocation may expire during it.
    while (true) {
      const double gamma = restart_time_at(st.now);
      if (gamma <= 0.0) break;
      const double next = next_failure;
      if (next < st.now + gamma && next < budget) {
        st.metrics.wasted_hours += next - st.now;
        st.now = next;
        register_failure();
        continue;
      }
      if (st.now + gamma > budget) {
        truncate_at_budget();
        break;
      }
      st.now += gamma;
      st.metrics.restart_hours += gamma;
      break;
    }
    snapshot();
  };

  std::uint64_t events = 0;
  while (st.committed + st.uncommitted < work_target) {
    require(++events <= config.max_events,
            "simulation exceeded max_events: the machine cannot make "
            "progress under this configuration");

    double alpha = policy.next_interval(refresh_context());
    require(std::isfinite(alpha) && alpha > 0.0,
            "policy returned a non-positive checkpoint interval");

    // --- compute phase -------------------------------------------------
    const double remaining = work_target - st.committed - st.uncommitted;
    const double chunk = std::min(alpha, remaining);
    process_commit_before(std::min(st.now + chunk, budget));
    if (next_failure < std::min(st.now + chunk, budget)) {
      handle_failure();
      if (truncated) break;
      continue;
    }
    if (st.now + chunk > budget) {
      truncate_at_budget();
      break;
    }
    st.now += chunk;
    st.uncommitted += chunk;

    if (st.committed + st.uncommitted >= work_target) {
      break;  // final segment needs no checkpoint
    }

    // --- checkpoint boundary -------------------------------------------
    ++st.boundaries_since_failure;
    st.ctx.checkpoints_since_failure = st.boundaries_since_failure;
    if (policy.should_skip(refresh_context())) {
      ++st.metrics.checkpoints_skipped;
      continue;  // work stays at risk; computing resumes immediately
    }

    // Serialize writes: if an async write is still draining, the app
    // stalls until it commits (stall time is checkpoint I/O wait).
    if (st.has_pending) {
      if (next_failure < std::min(st.pending_commit_time, budget)) {
        handle_failure();
        if (truncated) break;
        continue;
      }
      if (st.pending_commit_time > budget) {
        truncate_at_budget();
        break;
      }
      st.metrics.checkpoint_hours += st.pending_commit_time - st.now;
      st.now = st.pending_commit_time;
      commit_pending();
    }

    const double beta = checkpoint_time_at(st.now);
    require(std::isfinite(beta) && beta > 0.0,
            "storage model returned a non-positive checkpoint time");
    const double blocking = beta * config.checkpoint_blocking_fraction;
    if (next_failure < std::min(st.now + blocking, budget)) {
      handle_failure();  // partial checkpoint discarded with the work
      if (truncated) break;
      continue;
    }
    if (st.now + blocking > budget) {
      truncate_at_budget();
      break;
    }
    const double covered = st.uncommitted;  // work this write protects
    st.now += blocking;
    st.metrics.checkpoint_hours += blocking;
    st.has_pending = true;
    st.pending_work = covered;
    st.pending_commit_time = st.now + (beta - blocking);
    if (config.checkpoint_blocking_fraction >= 1.0) {
      commit_pending();  // synchronous: commits immediately
      if constexpr (kTiered) {
        // Cascading flushes (hierarchy runs are synchronous and have no
        // budget): tier k absorbs every every_k-th write of tier k-1.  A
        // torn flush leaves every shallower copy valid.
        tiers.wrote(0);
        for (std::size_t level = 1; tiers.due(level); ++level) {
          const double flush = tiers.flush_time(level, st.now);
          if (next_failure < st.now + flush) {
            handle_failure();
            break;
          }
          st.now += flush;
          tiers.flushed(level, flush, st.committed);
        }
      }
    }
  }

  // The last in-flight segment completes the job without a checkpoint —
  // unless the allocation expired, in which case only committed work
  // survives (it is what a follow-up job could restart from).
  if (!truncated) {
    st.committed += st.uncommitted;
    st.uncommitted = 0.0;
  }

  st.metrics.makespan_hours = st.now;
  st.metrics.compute_hours = st.committed;
  snapshot();

  // Conservation check: every simulated hour is attributed exactly once.
  double attributed = st.metrics.compute_hours + st.metrics.checkpoint_hours +
                      st.metrics.wasted_hours + st.metrics.restart_hours;
  if constexpr (kTiered) attributed += tiers.flush_hours();
  require(std::abs(attributed - st.metrics.makespan_hours) <=
              1e-6 * std::max(1.0, st.metrics.makespan_hours),
          "internal error: time attribution does not balance");

  if (obs::enabled()) {
    EngineMetrics& em = EngineMetrics::get();
    em.trials.add();
    em.events.add(events);
    em.failures.add(st.metrics.failures);
    em.ckpt_written.add(st.metrics.checkpoints_written);
    em.ckpt_skipped.add(st.metrics.checkpoints_skipped);
  }
  return st.metrics;
}

/// The fast-path dispatch ladder shared by flat and hierarchy runs, type-
/// dispatched once per trial.  Renewal failures against constant storage
/// (the dominant Monte-Carlo configuration) take an instantiation where
/// every source/storage call resolves statically; the hottest policies —
/// static OCI / periodic (the baselines behind every figure) and iLazy
/// (the paper's contribution) — additionally bind statically, so their
/// header-inline decisions fold into the loop.  Any other combination —
/// trace replay, bandwidth-trace storage, campaign wrappers, remaining
/// policies — runs the identical loop through the virtual interfaces.
template <class Tiers>
RunMetrics dispatch(const SimulationConfig& config,
                    core::CheckpointPolicy& policy, FailureSource& failures,
                    const io::StorageModel& storage, const ContextHook& hook,
                    Tiers& tiers) {
  config.validate();
  if (auto* renewal = dynamic_cast<RenewalFailureSource*>(&failures)) {
    if (const auto* constant =
            dynamic_cast<const io::ConstantStorage*>(&storage)) {
      if (obs::enabled()) EngineMetrics::get().dispatch_fast.add();
      if (auto* static_oci = dynamic_cast<core::StaticOciPolicy*>(&policy)) {
        return run_loop(config, *static_oci, *renewal, *constant, hook,
                        tiers);
      }
      if (auto* ilazy = dynamic_cast<core::ILazyPolicy*>(&policy)) {
        return run_loop(config, *ilazy, *renewal, *constant, hook, tiers);
      }
      if (auto* periodic = dynamic_cast<core::PeriodicPolicy*>(&policy)) {
        return run_loop(config, *periodic, *renewal, *constant, hook, tiers);
      }
      return run_loop(config, policy, *renewal, *constant, hook, tiers);
    }
  }
  if (obs::enabled()) EngineMetrics::get().dispatch_generic.add();
  return run_loop(config, policy, failures, storage, hook, tiers);
}

}  // namespace
}  // namespace lazyckpt::sim::detail
