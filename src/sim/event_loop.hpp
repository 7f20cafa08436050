#pragma once

/// \file event_loop.hpp
/// \brief The simulator's per-trial event loop (paper Sec. 3.2) and its
/// fast-path dispatch — internal to sim/.  One iteration, step(), is
/// written once over a run-state accessor and shared by flat runs
/// (engine.cpp), hierarchy runs (hierarchy.cpp) and the batch kernel's
/// SoA rounds (batch.cpp).
///
/// Each of those translation units instantiates only its own accessor,
/// with internal linkage (the unnamed namespace below).  GCC budgets
/// inlining per translation unit, so keeping the hierarchy and batch
/// instantiations out of engine.cpp gives the flat ones the same inlining
/// and hot/cold layout as a loop that knows nothing of tiers or slots.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>

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

/// Trial telemetry (obs::enabled() gated), flushed by every path — the
/// scalar loop once per trial, the batch kernel once per batch — so all
/// runs aggregate into the same totals.  The step never touches these:
/// every count it needs already lives in the run state, so a trial is
/// flushed with a handful of relaxed adds after it ends and the hot path
/// is byte-for-byte the code that ran before instrumentation existed.
struct TrialMetrics {
  obs::Counter& trials = obs::metrics().counter("sim.trials");
  obs::Counter& events = obs::metrics().counter("sim.events");
  obs::Counter& failures = obs::metrics().counter("sim.failures");
  obs::Counter& ckpt_written =
      obs::metrics().counter("sim.checkpoints_written");
  obs::Counter& ckpt_skipped =
      obs::metrics().counter("sim.checkpoints_skipped");

  static TrialMetrics& get() {
    static TrialMetrics instance;
    return instance;
  }
};

/// The scalar loop's telemetry: the trial counters plus which rung of the
/// dispatch ladder a trial took.
struct EngineMetrics : TrialMetrics {
  obs::Counter& dispatch_fast = obs::metrics().counter("sim.dispatch.fast");
  obs::Counter& dispatch_generic =
      obs::metrics().counter("sim.dispatch.generic");

  static EngineMetrics& get() {
    static EngineMetrics instance;
    return instance;
  }
};

/// Tier state of a flat run: empty, so the step compiles every tier hook
/// out and the flat instantiations are the plain single-level loop.
/// Hierarchy runs pass a TierCascade (hierarchy.cpp).
struct NoTiers {};

/// Timeline capacity of one run: one point per checkpoint boundary plus
/// one per expected failure.  Only capacity — never affects recorded
/// values.
std::size_t timeline_capacity(const SimulationConfig& config) {
  const double boundaries = config.compute_hours / config.alpha_oci_hours;
  const double expected_failures =
      config.compute_hours / config.mtbf_hint_hours;
  return static_cast<std::size_t>(
             std::min(boundaries + expected_failures, 1e6)) +
         16;
}

// ---------------------------------------------------------------------
// One event-loop iteration, written once over a run-state accessor.
//
// `Run` is RunState below for the scalar loop (flat and tiered runs) or
// the batch kernel's (kernel, slot) view (batch.cpp).  It exposes the run
// constants (work_target, budget, max_events, sync, checkpoint_size_gb),
// the cost model at `now` (checkpoint_time, blocking, restart_time), the
// mutable state by reference (now, committed, uncommitted, has_pending,
// pending_commit_time, pending_work, last_failure, next_failure, events,
// truncated and the RunMetrics accumulators), and the hooks: next_interval
// and skip_boundary (the policy's decisions), observe_failure (the MTBF
// moving average), on_failure and on_checkpoint_complete (policy
// notifications), pop_failure and snapshot.  kTiered adds tiers().
//
// kSync promises a blocking fraction of 1.0: no write is ever in flight
// across events, so the drain bookkeeping compiles away.  A synchronous
// write commits the work it covers directly, which is bitwise the
// set-pending-then-commit of an asynchronous one (pending_work ==
// uncommitted, and x - x is +0).
//
// The loop's speed depends on the whole iteration sitting inside the
// loop that runs it, so step and its helpers are always_inline; only
// the rare failure path, handle_failure, is left to the inliner (GCC
// keeps it out of line).  tests/hot_loop_shape.cmake checks the shape.
// ---------------------------------------------------------------------

/// Commit `work` hours of covered work: it becomes safe.  Costs no time.
template <class Run>
[[gnu::always_inline]] inline void commit(Run& run, double work) {
  run.committed() += work;
  run.uncommitted() -= work;
  ++run.checkpoints_written();
  run.data_written_gb() += run.checkpoint_size_gb();
  run.on_checkpoint_complete();
  run.snapshot();
}

/// Commit the in-flight asynchronous write.
template <class Run>
[[gnu::always_inline]] inline void commit_pending(Run& run) {
  run.has_pending() = false;
  commit(run, run.pending_work());
}

/// Process a commit that drains before `limit` and before the next
/// failure (commit events consume no simulated time).
template <bool kSync, class Run>
[[gnu::always_inline]] inline void process_commit_before(Run& run,
                                                         double limit) {
  if constexpr (!kSync) {
    if (run.has_pending() && run.pending_commit_time() <= limit &&
        run.pending_commit_time() <= run.next_failure()) {
      commit_pending(run);
    }
  }
}

/// The allocation expires mid-phase: time since the phase began (and any
/// uncommitted work) is lost, exactly as when the scheduler kills a job.
template <bool kSync, class Run>
[[gnu::always_inline]] inline void truncate_at_budget(Run& run) {
  run.wasted_hours() += run.budget() - run.now() + run.uncommitted();
  run.uncommitted() = 0.0;
  run.now() = run.budget();
  if constexpr (!kSync) run.has_pending() = false;
  run.truncated() = true;
}

/// Register the failure at the stream head: account the MTBF
/// observation, notify the policy (and, tiered, draw the restore level).
template <class Run>
[[gnu::always_inline]] inline void register_failure(Run& run) {
  run.observe_failure();
  run.last_failure() = run.now();
  ++run.failures();
  run.pop_failure();
  run.on_failure();
}

/// Whether the run goes on: the loop condition, re-tested after any
/// event that may move committed + uncommitted.
template <class Run>
[[gnu::always_inline]] inline bool live(Run& run) {
  return !run.truncated() &&
         run.committed() + run.uncommitted() < run.work_target();
}

/// A failure strikes at the stream head: roll back, register it, then pay
/// (possibly repeated) restarts.  Returns whether the run goes on.
template <bool kSync, class Run>
bool handle_failure(Run& run) {
  const double failure_time = run.next_failure();
  // An async write that drained before the failure still counts.
  process_commit_before<kSync>(run, failure_time);
  if constexpr (!kSync) run.has_pending() = false;  // in flight: torn
  // Work (and time) since the last commit point is lost.
  run.wasted_hours() += failure_time - run.now() + run.uncommitted();
  run.uncommitted() = 0.0;
  run.now() = failure_time;
  register_failure(run);

  // Restart; another failure may interrupt the restart itself, and the
  // allocation may expire during it.
  while (true) {
    const double gamma = run.restart_time();
    if (gamma <= 0.0) break;
    const double next = run.next_failure();
    if (next < run.now() + gamma && next < run.budget()) {
      run.wasted_hours() += next - run.now();
      run.now() = next;
      register_failure(run);
      continue;
    }
    if (run.now() + gamma > run.budget()) {
      truncate_at_budget<kSync>(run);
      break;
    }
    run.now() += gamma;
    run.restart_hours() += gamma;
    break;
  }
  run.snapshot();
  return live(run);
}

/// One iteration of the event loop: ask for the interval, compute, and
/// at the boundary skip or write a checkpoint.  Returns whether the run
/// goes on — false once the work target is met or the budget expires.
template <bool kSync, class Run>
[[gnu::always_inline]] inline bool step(Run& run) {
  require(++run.events() <= run.max_events(),
          "simulation exceeded max_events: the machine cannot make "
          "progress under this configuration");
  const double alpha = run.next_interval();
  require(std::isfinite(alpha) && alpha > 0.0,
          "policy returned a non-positive checkpoint interval");

  // --- compute phase -------------------------------------------------
  const double remaining =
      run.work_target() - run.committed() - run.uncommitted();
  const double chunk = std::min(alpha, remaining);
  const double limit = std::min(run.now() + chunk, run.budget());
  process_commit_before<kSync>(run, limit);
  if (run.next_failure() < limit) return handle_failure<kSync>(run);
  if (run.now() + chunk > run.budget()) {
    truncate_at_budget<kSync>(run);
    return false;
  }
  run.now() += chunk;
  run.uncommitted() += chunk;
  if (run.committed() + run.uncommitted() >= run.work_target()) {
    return false;  // final segment needs no checkpoint
  }

  // --- checkpoint boundary -------------------------------------------
  // Neither a skip nor a synchronous write moves committed + uncommitted
  // off the sum just tested, so those paths return true untested.
  if (run.skip_boundary()) return true;  // work stays at risk

  // Serialize writes: if an async write is still draining, the app
  // stalls until it commits (stall time is checkpoint I/O wait).
  if constexpr (!kSync) {
    if (run.has_pending()) {
      if (run.next_failure() <
          std::min(run.pending_commit_time(), run.budget())) {
        return handle_failure<kSync>(run);
      }
      if (run.pending_commit_time() > run.budget()) {
        truncate_at_budget<kSync>(run);
        return false;
      }
      run.checkpoint_hours() += run.pending_commit_time() - run.now();
      run.now() = run.pending_commit_time();
      commit_pending(run);
    }
  }

  const double beta = run.checkpoint_time();
  require(std::isfinite(beta) && beta > 0.0,
          "storage model returned a non-positive checkpoint time");
  const double blocking = run.blocking(beta);
  if (run.next_failure() < std::min(run.now() + blocking, run.budget())) {
    return handle_failure<kSync>(run);  // partial checkpoint discarded
  }
  if (run.now() + blocking > run.budget()) {
    truncate_at_budget<kSync>(run);
    return false;
  }
  const double covered = run.uncommitted();  // work this write protects
  run.now() += blocking;
  run.checkpoint_hours() += blocking;
  if (kSync || run.sync()) {
    commit(run, covered);  // synchronous: commits immediately
    if constexpr (Run::kTiered) {
      // Cascading flushes (hierarchy runs are synchronous and have no
      // budget): tier k absorbs every every_k-th write of tier k-1.  A
      // torn flush leaves every shallower copy valid.
      auto& tiers = run.tiers();
      tiers.wrote(0);
      for (std::size_t level = 1; tiers.due(level); ++level) {
        const double flush = tiers.flush_time(level, run.now());
        if (run.next_failure() < run.now() + flush) {
          return handle_failure<kSync>(run);
        }
        run.now() += flush;
        tiers.flushed(level, flush, run.committed());
      }
    }
    return true;
  }
  run.has_pending() = true;
  run.pending_work() = covered;
  run.pending_commit_time() = run.now() + (beta - blocking);
  return live(run);
}

/// End of a run: the last in-flight segment completes the job without a
/// checkpoint — unless the allocation expired, in which case only
/// committed work survives (it is what a follow-up job could restart
/// from) — then every simulated hour must be attributed exactly once.
template <class Run>
void finish(Run& run) {
  if (!run.truncated()) {
    run.committed() += run.uncommitted();
    run.uncommitted() = 0.0;
  }
  run.snapshot();
  double attributed = run.committed() + run.checkpoint_hours() +
                      run.wasted_hours() + run.restart_hours();
  if constexpr (Run::kTiered) attributed += run.tiers().flush_hours();
  require(std::abs(attributed - run.now()) <=
              1e-6 * std::max(1.0, run.now()),
          "internal error: time attribution does not balance");
}

/// The scalar accessor: one trial's state plus everything run_loop's
/// statically typed policy, failure source, storage and tiers supply.
template <class Policy, class FSource, class Storage, class Tiers>
class RunState {
 public:
  static constexpr bool kTiered = !std::is_same_v<Tiers, NoTiers>;

  RunState(const SimulationConfig& config, Policy& policy,
           FSource& failures, const Storage& storage, const ContextHook& hook,
           Tiers& tiers)
      : config_(config),
        policy_(policy),
        failures_(failures),
        storage_(storage),
        hook_(hook),
        tiers_(tiers),
        has_hook_(static_cast<bool>(hook)),
        work_target_(config.compute_hours),
        budget_(config.time_budget_hours > 0.0
                    ? config.time_budget_hours
                    : std::numeric_limits<double>::infinity()),
        next_failure_(failures.peek_next()),
        mtbf_ma_(config.mtbf_window) {
    ctx_.alpha_oci_hours = config.alpha_oci_hours;
    ctx_.weibull_shape_estimate = config.shape_hint;
    update_mtbf_field();
    ctx_.checkpoints_since_failure = 0;
    ctx_.failures_so_far = 0;
    if (config.record_timeline) {
      metrics_.timeline.reserve(timeline_capacity(config));
    }
  }

  double work_target() const { return work_target_; }
  double budget() const { return budget_; }
  std::uint64_t max_events() const { return config_.max_events; }
  bool sync() const { return config_.checkpoint_blocking_fraction >= 1.0; }
  double checkpoint_size_gb() const { return storage_.checkpoint_size_gb(); }

  // β at `now`, cached on the exact query time: checkpoint_time is a pure
  // function of `now` (the StorageModel contract), and the loop asks for
  // the same instant from the context refresh and the checkpoint boundary,
  // so each distinct time is computed once.  When the storage type is
  // statically ConstantStorage the call is an inline member load, which
  // is cheaper than the cache bookkeeping — bypass it.
  double checkpoint_time() {
    if constexpr (std::is_same_v<Storage, io::ConstantStorage>) {
      return storage_.checkpoint_time(now_);
    } else {
      if (fp::exact_ne(now_, beta_cache_time_)) {
        beta_cache_value_ = storage_.checkpoint_time(now_);
        beta_cache_time_ = now_;
      }
      return beta_cache_value_;
    }
  }
  double blocking(double beta) const {
    return beta * config_.checkpoint_blocking_fraction;
  }
  /// γ of a restore: the flat storage's, or that of the tier a hierarchy
  /// failure left readable.
  double restart_time() const {
    if constexpr (kTiered) {
      return tiers_.restart_time(storage_, now_);
    } else {
      return storage_.restart_time(now_);
    }
  }

  double& now() { return now_; }
  double& committed() { return committed_; }
  double& uncommitted() { return uncommitted_; }
  bool& has_pending() { return has_pending_; }
  double& pending_commit_time() { return pending_commit_time_; }
  double& pending_work() { return pending_work_; }
  double& last_failure() { return last_failure_; }
  double next_failure() const { return next_failure_; }
  std::uint64_t& events() { return events_; }
  bool& truncated() { return truncated_; }
  double& checkpoint_hours() { return metrics_.checkpoint_hours; }
  double& wasted_hours() { return metrics_.wasted_hours; }
  double& restart_hours() { return metrics_.restart_hours; }
  std::uint64_t& failures() { return metrics_.failures; }
  std::uint64_t& checkpoints_written() {
    return metrics_.checkpoints_written;
  }
  double& data_written_gb() { return metrics_.data_written_gb; }
  Tiers& tiers() { return tiers_; }

  double next_interval() {
    return policy_.next_interval(refresh_context());
  }

  bool skip_boundary() {
    ++boundaries_since_failure_;
    ctx_.checkpoints_since_failure = boundaries_since_failure_;
    if (!policy_.should_skip(refresh_context())) return false;
    ++metrics_.checkpoints_skipped;
    return true;
  }

  void observe_failure() {
    if (any_failure_) {
      mtbf_ma_.add(now_ - last_failure_);
    } else {
      mtbf_ma_.add(now_);  // first gap measured from run start
    }
    any_failure_ = true;
    boundaries_since_failure_ = 0;
  }

  void pop_failure() {
    failures_.pop();
    next_failure_ = failures_.peek_next();
  }

  void on_failure() {
    // Maintain the slow-moving context fields for the hookless refresh.
    update_mtbf_field();
    ctx_.checkpoints_since_failure = 0;
    ctx_.failures_so_far = static_cast<int>(metrics_.failures);
    policy_.on_failure(refresh_context());
    if constexpr (kTiered) metrics_.wasted_hours += tiers_.restore(committed_);
  }

  void on_checkpoint_complete() {
    policy_.on_checkpoint_complete(refresh_context());
  }

  void snapshot() {
    if (!config_.record_timeline) return;
    metrics_.timeline.push_back({now_, committed_, metrics_.checkpoint_hours,
                                 metrics_.wasted_hours,
                                 metrics_.restart_hours});
  }

  /// The finished run's metrics (call after finish()).
  RunMetrics take_metrics() {
    metrics_.makespan_hours = now_;
    metrics_.compute_hours = committed_;
    return std::move(metrics_);
  }

 private:
  void update_mtbf_field() {
    ctx_.mtbf_estimate_hours = mtbf_ma_.value_or(config_.mtbf_hint_hours);
  }

  // Context refresh, two schemes with identical observable values:
  //
  // - No hook installed (every Monte-Carlo sweep): only the fields that
  //   are a function of `now` are reassigned per refresh.  The slow-moving
  //   fields — MTBF estimate, failure/boundary counters, the config
  //   constants — are maintained at their mutation sites, which run once
  //   per failure or boundary instead of up to three times per iteration.
  //   Nothing else can touch the context, so the values handed to the
  //   policy are the same ones a full rebuild would produce.
  //
  // - Hook installed: every field is reassigned and the hook runs, so a
  //   mutating hook sees a freshly built snapshot each time and its edits
  //   never leak into later decisions — the original contract.
  const core::PolicyContext& refresh_context() {
    ctx_.now_hours = now_;
    ctx_.time_since_failure_hours =
        any_failure_ ? now_ - last_failure_ : now_;
    ctx_.checkpoint_time_hours = checkpoint_time();
    if (has_hook_) {
      ctx_.alpha_oci_hours = config_.alpha_oci_hours;
      update_mtbf_field();
      ctx_.weibull_shape_estimate = config_.shape_hint;
      ctx_.checkpoints_since_failure = boundaries_since_failure_;
      ctx_.failures_so_far = static_cast<int>(metrics_.failures);
      hook_(ctx_);
    }
    return ctx_;
  }

  const SimulationConfig& config_;
  Policy& policy_;
  FSource& failures_;
  const Storage& storage_;
  const ContextHook& hook_;
  Tiers& tiers_;
  const bool has_hook_;
  const double work_target_;
  const double budget_;

  double now_ = 0.0;
  double committed_ = 0.0;    ///< work protected by the last checkpoint
  double uncommitted_ = 0.0;  ///< work at risk since the last checkpoint
  double last_failure_ = 0.0; ///< time of the most recent failure (0 = none)
  bool any_failure_ = false;
  bool truncated_ = false;
  int boundaries_since_failure_ = 0;
  std::uint64_t events_ = 0;

  // In-flight asynchronous checkpoint write (blocking fraction < 1).
  bool has_pending_ = false;
  double pending_commit_time_ = 0.0;  ///< when the async write drains
  double pending_work_ = 0.0;         ///< work the write will protect

  // Cache of the pending failure time: peek_next() is const and its value
  // changes only on pop(), so the loop queries the source once per pop.
  double next_failure_;
  double beta_cache_time_ = std::numeric_limits<double>::quiet_NaN();
  double beta_cache_value_ = 0.0;

  RunMetrics metrics_;
  stats::MovingAverage mtbf_ma_;

  // The one PolicyContext instance of the run.  Every time-varying field
  // is (re)assigned before each policy call, so patching it in place is
  // observationally identical to building a fresh snapshot — including
  // under a mutating ContextHook, whose edits never survive a refresh.
  core::PolicyContext ctx_;
};

/// The event loop of every flat and hierarchy trial, templated on the
/// concrete policy, failure-source, and storage types and on the tier
/// state: ask the policy for α, take one step, until the run ends.
/// Instantiated once with the abstract interfaces (the type-erased path
/// every caller can reach) and once per fast-path combination of final
/// classes — RenewalFailureSource + ConstantStorage, optionally with one
/// of the hot policies — where the compiler resolves peek_next/pop/
/// checkpoint_time/restart_time/next_interval/should_skip statically and
/// inlines the header-defined decision bodies.  Every instantiation
/// executes the identical statement sequence, so their results are
/// bit-identical (pinned by tests/test_engine_golden.cpp).
///
/// `Tiers` is NoTiers for flat runs, whose tier hooks vanish at compile
/// time, or TierCascade for hierarchies: `storage` is then tier 0 and the
/// cascade adds the deeper flushes and the restore-level draw.
template <class Policy, class FSource, class Storage, class Tiers>
RunMetrics run_loop(const SimulationConfig& config, Policy& policy,
                    FSource& failures, const Storage& storage,
                    const ContextHook& hook, Tiers& tiers) {
  const obs::TraceSpan trial_span("sim.trial");
  RunState<Policy, FSource, Storage, Tiers> run(config, policy, failures,
                                                storage, hook, tiers);
  while (step<false>(run)) {
  }
  finish(run);
  RunMetrics metrics = run.take_metrics();
  if (obs::enabled()) {
    EngineMetrics& em = EngineMetrics::get();
    em.trials.add();
    em.events.add(run.events());
    em.failures.add(metrics.failures);
    em.ckpt_written.add(metrics.checkpoints_written);
    em.ckpt_skipped.add(metrics.checkpoints_skipped);
  }
  return metrics;
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
