#include "sim/batch.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/policy/ilazy.hpp"
#include "core/policy/periodic.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/batch_simd.hpp"
#include "sim/failure_source.hpp"
#include "sim/replicas.hpp"
#include "stats/exact_pow.hpp"
#include "stats/sampler.hpp"

namespace lazyckpt::sim {

namespace {

/// Failure arrivals prefetched per replica through Sampler::sample_n.
/// Two full AVX-512 pow batches per refill on the Weibull path; the
/// queue lives in the replica's cold state so a refill is one batched
/// transform plus a running-sum accumulation in draw order.
constexpr std::size_t kFailurePrefetch = 16;

/// Same counter names as the scalar engine (sim/event_loop.hpp) so batched
/// and scalar sweeps aggregate into the same totals, plus the batch
/// dispatch counter.  Flushed once per batch after the rounds complete —
/// the rounds themselves never touch observability state.
struct BatchMetrics {
  obs::Counter& trials = obs::metrics().counter("sim.trials");
  obs::Counter& events = obs::metrics().counter("sim.events");
  obs::Counter& failures = obs::metrics().counter("sim.failures");
  obs::Counter& ckpt_written =
      obs::metrics().counter("sim.checkpoints_written");
  obs::Counter& ckpt_skipped =
      obs::metrics().counter("sim.checkpoints_skipped");
  obs::Counter& dispatch_batch = obs::metrics().counter("sim.dispatch.batch");

  static BatchMetrics& get() {
    static BatchMetrics instance;
    return instance;
  }
};

/// How phase 1 produces the next checkpoint interval for every live
/// replica.  The three eligible policies need exactly two shapes:
/// a run-constant interval (periodic, static OCI) or the iLazy stretch,
/// whose pow runs batched.
enum class AlphaMode { kConstant, kILazy };

struct TimelineArenaPoint {
  std::uint32_t replica;
  TimelinePoint point;
};

/// One batch of replicas in lockstep.  Phase 2's step() is a statement-
/// for-statement transcription of one run_loop iteration
/// — same comparisons, same order, same error messages.  What it omits is
/// exactly the work run_loop does whose results the eligible
/// configuration can never observe: PolicyContext refreshes (the three
/// policies read only alpha/time-since-failure/shape, all available in
/// SoA form), the MTBF moving average (feeds only the context field), the
/// boundary counter (same), and the no-op policy hooks.  Omitting
/// unobservable work cannot change a byte of RunMetrics; the golden tests
/// hold the proof.
///
/// Replica state is dense: slot s of every array belongs to replica
/// slot_replica_[s], and slots of finished replicas are compacted out so
/// the phase-1 scan and the round loop always touch contiguous memory.
/// Only the failure path's cold state (RNG, arrival queue, failure-side
/// accumulators) stays indexed by replica.
class BatchKernel {
 public:
  BatchKernel(const SimulationConfig& config, AlphaMode mode,
              double constant_alpha, double ilazy_shape,
              const stats::Sampler& sampler, const io::ConstantStorage& storage,
              std::span<Rng> streams, std::span<RunMetrics> out)
      : config_(config),
        mode_(mode),
        constant_alpha_(constant_alpha),
        pow_exponent_(1.0 - ilazy_shape),
        sampler_(sampler),
        work_target_(config.compute_hours),
        budget_(config.time_budget_hours > 0.0
                    ? config.time_budget_hours
                    : std::numeric_limits<double>::infinity()),
        beta_(storage.checkpoint_time(0.0)),
        gamma_(storage.restart_time(0.0)),
        size_gb_(storage.checkpoint_size_gb()),
        blocking_(beta_ * config.checkpoint_blocking_fraction),
        sync_(config.checkpoint_blocking_fraction >= 1.0),
        out_(out) {
    const std::size_t n = streams.size();
    count_ = n;
    now_.assign(n, 0.0);
    committed_.assign(n, 0.0);
    uncommitted_.assign(n, 0.0);
    last_failure_.assign(n, 0.0);
    next_failure_.assign(n, 0.0);
    pending_commit_time_.assign(n, 0.0);
    pending_work_.assign(n, 0.0);
    ratio_.assign(n, 0.0);
    ckpt_hours_.assign(n, 0.0);
    data_gb_.assign(n, 0.0);
    events_.assign(n, 0);
    written_.assign(n, 0);
    has_pending_.assign(n, 0);
    slot_replica_.resize(n);
    cold_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      cold_.push_back(ReplicaCold{streams[i]});
      refill_arrivals(cold_.back());
      next_failure_[i] = cold_.back().arrivals[0];
      slot_replica_[i] = static_cast<std::uint32_t>(i);
    }
    if (config_.record_timeline) {
      const double boundaries = work_target_ / config_.alpha_oci_hours;
      const double expected_failures = work_target_ / config_.mtbf_hint_hours;
      arena_.reserve(
          (static_cast<std::size_t>(
               std::min(boundaries + expected_failures, 1e6)) +
           16) *
          n);
    }
    if (mode_ == AlphaMode::kConstant) {
      // Run-constant interval: the scalar loop re-checks it every event;
      // one check up front decides identically (it either always passes
      // or throws on every replica's first event).
      require(std::isfinite(constant_alpha_) && constant_alpha_ > 0.0,
              "policy returned a non-positive checkpoint interval");
    }
  }

  void run() {
    // Monomorphize the rounds on (alpha mode, synchronous checkpoints):
    // the synchronous case — blocking fraction 1.0, every write commits
    // at the boundary — drops the whole in-flight-pending bookkeeping
    // from the per-event path, and the mode split removes the per-event
    // policy-kind branch.  The synchronous timeline-off case further
    // upgrades to the AVX-512 round pass where the CPU supports it: pure
    // boundary events advance eight lanes at a time, with the scalar
    // step as the per-lane fallback (batch_simd.hpp has the exactness
    // argument).  The finite-beta gate keeps the scalar path's throw
    // timing for degenerate storage.
    const bool vector_ok = sync_ && !config_.record_timeline &&
                           std::isfinite(beta_) && beta_ > 0.0 &&
                           detail::batch_round_avx512_supported();
    if (mode_ == AlphaMode::kILazy) {
      if (vector_ok) {
        run_rounds_vector<AlphaMode::kILazy>();
      } else if (sync_) {
        run_rounds<AlphaMode::kILazy, true>();
      } else {
        run_rounds<AlphaMode::kILazy, false>();
      }
    } else {
      if (vector_ok) {
        run_rounds_vector<AlphaMode::kConstant>();
      } else if (sync_) {
        run_rounds<AlphaMode::kConstant, true>();
      } else {
        run_rounds<AlphaMode::kConstant, false>();
      }
    }
    scatter_timelines();
    flush_observability();
  }

 private:
  template <AlphaMode kMode, bool kSync>
  void run_rounds() {
    while (count_ > 0) {
      if constexpr (kMode == AlphaMode::kILazy) compute_ilazy_alphas();
      std::size_t write = 0;
      const std::size_t count = count_;
      for (std::size_t s = 0; s < count; ++s) {
        // iLazy finishes Eq. 11 right here — α·(ratio^(1−k)) with the
        // batched pow already applied to ratio_ — instead of a separate
        // scatter pass over an alpha array.
        const double alpha = kMode == AlphaMode::kILazy
                                 ? config_.alpha_oci_hours * ratio_[s]
                                 : constant_alpha_;
        if (step<kMode, kSync>(s, alpha)) {
          if (write != s) move_slot(s, write);
          ++write;
        } else {
          finalize(s);
        }
      }
      count_ = write;
    }
  }

  /// Vectorized rounds for the synchronous timeline-off case: phase 1 as
  /// usual, then one AVX-512 pass per round with the scalar step bound
  /// in as the impure-lane fallback; dead slots are finalized and
  /// compacted between rounds so the arrays stay dense.
  template <AlphaMode kMode>
  void run_rounds_vector() {
    while (count_ > 0) {
      if constexpr (kMode == AlphaMode::kILazy) compute_ilazy_alphas();
      dead_.clear();
      detail::batch_round_avx512(lanes(), count_, this, &step_thunk<kMode>,
                                 dead_);
      if (!dead_.empty()) {
        for (const std::uint32_t s : dead_) finalize(s);
        compact_dead();
      }
    }
  }

  template <AlphaMode kMode>
  static bool step_thunk(void* kernel, std::size_t slot) {
    auto* self = static_cast<BatchKernel*>(kernel);
    // Recomputes the lane's alpha with the identical multiply the vector
    // pass performed — IEEE multiplication is deterministic, so the
    // scalar step sees the same value bit for bit.
    const double alpha = kMode == AlphaMode::kILazy
                             ? self->config_.alpha_oci_hours *
                                   self->ratio_[slot]
                             : self->constant_alpha_;
    return self->step<kMode, true>(slot, alpha);
  }

  [[nodiscard]] detail::BatchLanes lanes() {
    return detail::BatchLanes{now_.data(),
                              committed_.data(),
                              uncommitted_.data(),
                              next_failure_.data(),
                              ratio_.data(),
                              ckpt_hours_.data(),
                              data_gb_.data(),
                              events_.data(),
                              written_.data(),
                              config_.alpha_oci_hours,
                              constant_alpha_,
                              mode_ == AlphaMode::kILazy,
                              work_target_,
                              budget_,
                              blocking_,
                              size_gb_,
                              config_.max_events};
  }

  /// Copy every per-slot array entry from slot `from` to slot `to`
  /// (to < from).  ratio_ is excluded: it is recomputed from the dense
  /// arrays at the top of every round.
  void move_slot(std::size_t from, std::size_t to) {
    now_[to] = now_[from];
    committed_[to] = committed_[from];
    uncommitted_[to] = uncommitted_[from];
    last_failure_[to] = last_failure_[from];
    next_failure_[to] = next_failure_[from];
    pending_commit_time_[to] = pending_commit_time_[from];
    pending_work_[to] = pending_work_[from];
    ckpt_hours_[to] = ckpt_hours_[from];
    data_gb_[to] = data_gb_[from];
    events_[to] = events_[from];
    written_[to] = written_[from];
    has_pending_[to] = has_pending_[from];
    slot_replica_[to] = slot_replica_[from];
  }

  /// Stable removal of this round's dead slots (ascending in dead_).
  void compact_dead() {
    std::size_t write = dead_.front();
    std::size_t next_dead = 0;
    for (std::size_t s = dead_.front(); s < count_; ++s) {
      if (next_dead < dead_.size() && dead_[next_dead] == s) {
        ++next_dead;
        continue;
      }
      move_slot(s, write++);
    }
    count_ = write;
  }

  struct ReplicaCold {
    explicit ReplicaCold(const Rng& stream) : rng(stream) {}

    Rng rng;
    std::array<double, kFailurePrefetch> arrivals{};
    std::size_t arrival_pos = 0;
    double last_arrival = 0.0;  ///< running sum of inter-arrival draws
    double wasted_hours = 0.0;
    double restart_hours = 0.0;
    std::uint64_t failures = 0;
    bool truncated = false;
  };

  /// Prefetch the next kFailurePrefetch absolute failure times.  The
  /// draws come out of sample_n in the exact order repeated pop() calls
  /// would draw them, and the running sum accumulates them in that same
  /// order — so every arrival is bitwise the value the scalar
  /// RenewalFailureSource would have produced.
  void refill_arrivals(ReplicaCold& r) {
    sampler_.sample_n(r.rng, draws_);
    double base = r.last_arrival;
    for (std::size_t k = 0; k < kFailurePrefetch; ++k) {
      base += draws_[k];
      r.arrivals[k] = base;
    }
    r.last_arrival = base;
    r.arrival_pos = 0;
  }

  void pop_failure(std::size_t s) {
    ReplicaCold& r = cold_[slot_replica_[s]];
    if (++r.arrival_pos == kFailurePrefetch) refill_arrivals(r);
    next_failure_[s] = r.arrivals[r.arrival_pos];
  }

  /// Phase 1: α_lazy(t) = α·(max(t, α)/α)^(1−k) for every live replica,
  /// the pow batched through the bit-exact pow_n.  Division, max, and
  /// the final multiply use the same operands as ILazyPolicy's
  /// lazy_interval, and pow_n is bitwise std::pow — so the result is the
  /// value the scalar policy call would have returned.  The scalar
  /// engine's tsf branch (`any_failure ? now - last_failure : now`) is
  /// elided: last_failure stays 0.0 until the first failure, and
  /// `now - 0.0` is bitwise `now`, so the subtraction alone is exact —
  /// and with dense slots the fill is a branchless contiguous
  /// sub/max/div sweep.
  void compute_ilazy_alphas() {
    const double alpha_oci = config_.alpha_oci_hours;
    const std::size_t count = count_;
    if (wide_fill_) {
      detail::batch_ratio_fill_avx512(now_.data(), last_failure_.data(),
                                      ratio_.data(), count, alpha_oci);
    } else {
      for (std::size_t s = 0; s < count; ++s) {
        const double tsf = now_[s] - last_failure_[s];
        ratio_[s] = std::max(tsf, alpha_oci) / alpha_oci;
      }
    }
    stats::pow_n(ratio_.data(), ratio_.data(), count, pow_exponent_);
  }

  void snapshot(std::size_t s) {
    if (!config_.record_timeline) return;
    const ReplicaCold& r = cold_[slot_replica_[s]];
    arena_.push_back({slot_replica_[s],
                      {now_[s], committed_[s], ckpt_hours_[s], r.wasted_hours,
                       r.restart_hours}});
  }

  void truncate_at_budget(std::size_t s) {
    ReplicaCold& r = cold_[slot_replica_[s]];
    r.wasted_hours += budget_ - now_[s] + uncommitted_[s];
    uncommitted_[s] = 0.0;
    now_[s] = budget_;
    has_pending_[s] = 0;
    r.truncated = true;
  }

  void commit_pending(std::size_t s) {
    committed_[s] += pending_work_[s];
    uncommitted_[s] -= pending_work_[s];
    has_pending_[s] = 0;
    ++written_[s];
    data_gb_[s] += size_gb_;
    snapshot(s);
  }

  /// Synchronous runs never carry a pending write across events, so the
  /// drain check compiles away entirely.
  template <bool kSync>
  void process_commit_before(std::size_t s, double limit) {
    if constexpr (kSync) return;
    if (has_pending_[s] != 0 && pending_commit_time_[s] <= limit &&
        pending_commit_time_[s] <= next_failure_[s]) {
      commit_pending(s);
    }
  }

  void register_failure(std::size_t s) {
    last_failure_[s] = now_[s];
    ++cold_[slot_replica_[s]].failures;
    pop_failure(s);
  }

  template <bool kSync>
  void handle_failure(std::size_t s) {
    ReplicaCold& r = cold_[slot_replica_[s]];
    const double failure_time = next_failure_[s];
    process_commit_before<kSync>(s, failure_time);
    if constexpr (!kSync) has_pending_[s] = 0;
    r.wasted_hours += failure_time - now_[s] + uncommitted_[s];
    uncommitted_[s] = 0.0;
    now_[s] = failure_time;
    register_failure(s);

    while (true) {
      if (gamma_ <= 0.0) break;
      const double next = next_failure_[s];
      if (next < now_[s] + gamma_ && next < budget_) {
        r.wasted_hours += next - now_[s];
        now_[s] = next;
        register_failure(s);
        continue;
      }
      if (now_[s] + gamma_ > budget_) {
        truncate_at_budget(s);
        break;
      }
      now_[s] += gamma_;
      r.restart_hours += gamma_;
      break;
    }
    snapshot(s);
  }

  /// One run_loop iteration for the replica in slot s.  Returns whether
  /// the run is still live — false on truncation or once the work target
  /// is met, folding the scalar while-condition's re-check into the step
  /// itself (after a boundary the committed+uncommitted sum is unchanged
  /// from the mid-step completion check, so the tail needs no re-test).
  template <AlphaMode kMode, bool kSync>
  bool step(std::size_t s, double alpha) {
    require(++events_[s] <= config_.max_events,
            "simulation exceeded max_events: the machine cannot make "
            "progress under this configuration");
    if constexpr (kMode == AlphaMode::kILazy) {
      require(std::isfinite(alpha) && alpha > 0.0,
              "policy returned a non-positive checkpoint interval");
    }

    // --- compute phase -------------------------------------------------
    const double remaining = work_target_ - committed_[s] - uncommitted_[s];
    const double chunk = std::min(alpha, remaining);
    const double limit = std::min(now_[s] + chunk, budget_);
    process_commit_before<kSync>(s, limit);
    if (next_failure_[s] < limit) {
      handle_failure<kSync>(s);
      return !cold_[slot_replica_[s]].truncated &&
             committed_[s] + uncommitted_[s] < work_target_;
    }
    if (now_[s] + chunk > budget_) {
      truncate_at_budget(s);
      return false;
    }
    now_[s] += chunk;
    uncommitted_[s] += chunk;

    if (committed_[s] + uncommitted_[s] >= work_target_) {
      return false;  // final segment needs no checkpoint
    }

    // --- checkpoint boundary -------------------------------------------
    // (The eligible policies never skip, so there is no skip branch.)
    if constexpr (!kSync) {
      if (has_pending_[s] != 0) {
        if (next_failure_[s] < std::min(pending_commit_time_[s], budget_)) {
          handle_failure<kSync>(s);
          return !cold_[slot_replica_[s]].truncated &&
                 committed_[s] + uncommitted_[s] < work_target_;
        }
        if (pending_commit_time_[s] > budget_) {
          truncate_at_budget(s);
          return false;
        }
        ckpt_hours_[s] += pending_commit_time_[s] - now_[s];
        now_[s] = pending_commit_time_[s];
        commit_pending(s);
      }
    }

    require(std::isfinite(beta_) && beta_ > 0.0,
            "storage model returned a non-positive checkpoint time");
    if (next_failure_[s] < std::min(now_[s] + blocking_, budget_)) {
      handle_failure<kSync>(s);  // partial checkpoint discarded with the work
      return !cold_[slot_replica_[s]].truncated &&
             committed_[s] + uncommitted_[s] < work_target_;
    }
    if (now_[s] + blocking_ > budget_) {
      truncate_at_budget(s);
      return false;
    }
    const double covered = uncommitted_[s];  // work this write protects
    now_[s] += blocking_;
    ckpt_hours_[s] += blocking_;
    if constexpr (kSync) {
      // Inline commit: pending_work == covered == uncommitted, so the
      // scalar's set-pending-then-commit collapses to these exact stores
      // (x - x is bitwise +0, matching the scalar's drain to zero).
      committed_[s] += covered;
      uncommitted_[s] -= covered;
      ++written_[s];
      data_gb_[s] += size_gb_;
      snapshot(s);
    } else {
      has_pending_[s] = 1;
      pending_work_[s] = covered;
      pending_commit_time_[s] = now_[s] + (beta_ - blocking_);
    }
    return true;
  }

  void finalize(std::size_t s) {
    const std::uint32_t replica = slot_replica_[s];
    ReplicaCold& r = cold_[replica];
    if (!r.truncated) {
      committed_[s] += uncommitted_[s];
      uncommitted_[s] = 0.0;
    }
    RunMetrics m;
    m.makespan_hours = now_[s];
    m.compute_hours = committed_[s];
    m.checkpoint_hours = ckpt_hours_[s];
    m.wasted_hours = r.wasted_hours;
    m.restart_hours = r.restart_hours;
    m.failures = r.failures;
    m.checkpoints_written = written_[s];
    m.data_written_gb = data_gb_[s];
    snapshot(s);

    const double attributed = m.compute_hours + m.checkpoint_hours +
                              m.wasted_hours + m.restart_hours;
    require(std::abs(attributed - m.makespan_hours) <=
                1e-6 * std::max(1.0, m.makespan_hours),
            "internal error: time attribution does not balance");
    total_events_ += events_[s];
    total_failures_ += r.failures;
    total_written_ += written_[s];
    out_[replica] = std::move(m);
  }

  /// The arena holds (replica, point) in emission order; per replica that
  /// order is exactly the scalar snapshot order, so a stable scatter
  /// reproduces each timeline element-for-element.
  void scatter_timelines() {
    if (!config_.record_timeline) return;
    std::vector<std::size_t> counts(out_.size(), 0);
    for (const TimelineArenaPoint& p : arena_) ++counts[p.replica];
    for (std::size_t i = 0; i < out_.size(); ++i) {
      out_[i].timeline.reserve(counts[i]);
    }
    for (const TimelineArenaPoint& p : arena_) {
      out_[p.replica].timeline.push_back(p.point);
    }
  }

  void flush_observability() {
    if (!obs::enabled()) return;
    BatchMetrics& bm = BatchMetrics::get();
    bm.trials.add(out_.size());
    bm.events.add(total_events_);
    bm.failures.add(total_failures_);
    bm.ckpt_written.add(total_written_);
    bm.dispatch_batch.add(out_.size());
  }

  const SimulationConfig& config_;
  AlphaMode mode_;
  double constant_alpha_;
  double pow_exponent_;  ///< 1 - k, the iLazy stretch exponent
  stats::Sampler sampler_;

  const double work_target_;
  const double budget_;
  const double beta_;
  const double gamma_;
  const double size_gb_;
  const double blocking_;
  const bool sync_;
  /// Eight-wide phase-1 fill (bitwise the scalar loop) where supported.
  const bool wide_fill_ = detail::batch_round_avx512_supported();

  // Dense structure-of-arrays replica state, indexed by slot; slots at or
  // past count_ are retired.  Everything phase 1 scans and the fields
  // phase 2 touches on every step.
  std::size_t count_ = 0;
  std::vector<double> now_;
  std::vector<double> committed_;
  std::vector<double> uncommitted_;
  std::vector<double> last_failure_;
  std::vector<double> next_failure_;
  std::vector<double> pending_commit_time_;
  std::vector<double> pending_work_;
  std::vector<double> ratio_;  ///< phase-1 pow operand/result scratch
  std::vector<double> ckpt_hours_;
  std::vector<double> data_gb_;
  std::vector<std::uint64_t> events_;
  std::vector<std::uint64_t> written_;
  std::vector<std::uint8_t> has_pending_;
  std::vector<std::uint32_t> slot_replica_;

  std::vector<ReplicaCold> cold_;    ///< indexed by replica, not slot
  std::vector<std::uint32_t> dead_;  ///< per-round scratch (vector path)
  std::vector<TimelineArenaPoint> arena_;
  std::array<double, kFailurePrefetch> draws_{};  ///< refill scratch

  std::uint64_t total_events_ = 0;
  std::uint64_t total_failures_ = 0;
  std::uint64_t total_written_ = 0;

  std::span<RunMetrics> out_;
};

/// Classify an eligible policy into its phase-1 alpha mode.  Returns
/// false for everything else (stateful policies, skip/hook wrappers,
/// policies that read the MTBF estimate).
bool classify_policy(const core::CheckpointPolicy& policy,
                     const SimulationConfig& config, AlphaMode* mode,
                     double* constant_alpha, double* shape) {
  if (const auto* static_oci =
          dynamic_cast<const core::StaticOciPolicy*>(&policy)) {
    (void)static_oci;
    *mode = AlphaMode::kConstant;
    *constant_alpha = config.alpha_oci_hours;
    return true;
  }
  if (const auto* periodic =
          dynamic_cast<const core::PeriodicPolicy*>(&policy)) {
    *mode = AlphaMode::kConstant;
    *constant_alpha = periodic->interval_hours();
    return true;
  }
  if (const auto* ilazy = dynamic_cast<const core::ILazyPolicy*>(&policy)) {
    *mode = AlphaMode::kILazy;
    // Hookless runs hand the policy a context whose shape estimate is
    // pinned to config.shape_hint, so the effective shape is
    // run-constant.  Reproduce ILazyPolicy's own validation (same
    // requires, same messages) before trusting it for the whole batch.
    *shape = ilazy->shape().value_or(config.shape_hint);
    require(*shape > 0.0 && *shape <= 1.0,
            "iLazy requires a Weibull shape estimate in (0, 1]");
    (void)core::ILazyPolicy::lazy_interval(config.alpha_oci_hours, 0.0,
                                           *shape);
    return true;
  }
  return false;
}

}  // namespace

bool batch_eligible(const core::CheckpointPolicy& policy,
                    const io::StorageModel& storage) {
  if (dynamic_cast<const io::ConstantStorage*>(&storage) == nullptr) {
    return false;
  }
  return dynamic_cast<const core::StaticOciPolicy*>(&policy) != nullptr ||
         dynamic_cast<const core::PeriodicPolicy*>(&policy) != nullptr ||
         dynamic_cast<const core::ILazyPolicy*>(&policy) != nullptr;
}

void simulate_batch(const SimulationConfig& config,
                    const core::CheckpointPolicy& policy,
                    const stats::Distribution& inter_arrival,
                    const io::StorageModel& storage, std::span<Rng> streams,
                    std::span<RunMetrics> out) {
  require(streams.size() == out.size(),
          "simulate_batch needs one output slot per stream");
  if (streams.empty()) return;
  config.validate();

  AlphaMode mode = AlphaMode::kConstant;
  double constant_alpha = 0.0;
  double shape = 1.0;
  const auto* constant = dynamic_cast<const io::ConstantStorage*>(&storage);
  if (constant == nullptr ||
      !classify_policy(policy, config, &mode, &constant_alpha, &shape)) {
    // Not lockstep-eligible: the scalar sweep's per-replica body, with
    // identical results.
    for (std::size_t i = 0; i < streams.size(); ++i) {
      out[i] = detail::with_replica_policy(
          policy, [&](core::CheckpointPolicy& replica_policy) {
            RenewalFailureSource source(inter_arrival, streams[i]);
            return simulate(config, replica_policy, source, storage);
          });
    }
    return;
  }

  const obs::TraceSpan span("sim.batch");
  BatchKernel kernel(config, mode, constant_alpha, shape,
                     inter_arrival.sampler(), *constant, streams, out);
  kernel.run();
}

std::size_t batch_size_from_env() {
  const char* env = std::getenv("LAZYCKPT_BATCH");
  if (env == nullptr || *env == '\0') return 64;
  const long parsed = std::strtol(env, nullptr, 10);
  if (parsed <= 0) return 0;  // 0 (or junk) disables batching
  return std::min<std::size_t>(static_cast<std::size_t>(parsed), 4096);
}

std::vector<RunMetrics> run_replicas_batched(
    const SimulationConfig& config, const core::CheckpointPolicy& policy,
    const stats::Distribution& inter_arrival, const io::StorageModel& storage,
    std::size_t replicas, std::uint64_t seed, std::size_t batch_size) {
  std::vector<Rng> streams =
      detail::split_streams("run_replicas_batched", replicas, seed);
  require(batch_size >= 1, "run_replicas_batched needs batch_size >= 1");
  // One heartbeat per finished block (every = 1).
  const bool obs_on = obs::enabled();
  detail::Heartbeat heartbeat(detail::Progress::kReplicas, replicas, 1);

  std::vector<RunMetrics> results(replicas);
  const std::size_t blocks = (replicas + batch_size - 1) / batch_size;
  parallel_for(blocks, [&](std::size_t block) {
    const std::size_t begin = block * batch_size;
    const std::size_t count = std::min(batch_size, replicas - begin);
    const obs::TraceSpan block_span(
        "sim.block",
        obs_on ? std::vector<obs::TraceArg>{
                     obs::TraceArg::num("first", static_cast<double>(begin)),
                     obs::TraceArg::num("count", static_cast<double>(count)),
                     obs::TraceArg::num("batch",
                                        static_cast<double>(batch_size))}
               : std::vector<obs::TraceArg>{});
    simulate_batch(config, policy, inter_arrival, storage,
                   std::span<Rng>(streams).subspan(begin, count),
                   std::span<RunMetrics>(results).subspan(begin, count));
    heartbeat.finished(count);
  });
  return results;
}

}  // namespace lazyckpt::sim
