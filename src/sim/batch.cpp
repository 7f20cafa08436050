#include "sim/batch.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <limits>
#include <optional>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/policy/ilazy.hpp"
#include "core/policy/periodic.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/batch_simd.hpp"
#include "sim/event_loop.hpp"
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

/// How phase 1 produces the next checkpoint interval for every live
/// replica.  The three eligible policies need exactly two shapes:
/// a run-constant interval (periodic, static OCI) or the iLazy stretch,
/// whose pow runs batched.
enum class AlphaMode { kConstant, kILazy };

/// An eligible policy's phase-1 interval: run-constant, or the iLazy
/// stretch of α_OCI with a run-constant shape.
struct AlphaSource {
  AlphaMode mode = AlphaMode::kConstant;
  double constant_alpha = 0.0;
  double shape = 1.0;  ///< iLazy's Weibull shape (kILazy only)
};

struct TimelineArenaPoint {
  std::uint32_t replica;
  TimelinePoint point;
};

/// One batch of replicas in lockstep.  Phase 2 runs the scalar loop's
/// own iteration — the detail::step template (sim/event_loop.hpp) on a
/// (kernel, slot) accessor — so every comparison, its order and every
/// error message are run_loop's.  What the accessor drops is exactly the
/// work run_loop does whose results the eligible configuration can never
/// observe: PolicyContext refreshes (the three policies read only
/// alpha/time-since-failure/shape, all available in SoA form), the MTBF
/// moving average (feeds only the context field), the boundary counter
/// (same), and the no-op policy hooks.  Omitting unobservable work cannot
/// change a byte of RunMetrics; the golden tests hold the proof.
///
/// Replica state is dense: slot s of every array belongs to replica
/// slot_replica_[s], and slots of finished replicas are compacted out so
/// the phase-1 scan and the round loop always touch contiguous memory.
/// Only the failure path's cold state (RNG, arrival queue, failure-side
/// accumulators) stays indexed by replica.
class BatchKernel {
 public:
  BatchKernel(const SimulationConfig& config, const AlphaSource& alpha,
              const stats::Sampler& sampler, const io::ConstantStorage& storage,
              std::span<Rng> streams, std::span<RunMetrics> out)
      : config_(config),
        mode_(alpha.mode),
        constant_alpha_(alpha.constant_alpha),
        pow_exponent_(1.0 - alpha.shape),
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
      arena_.reserve(detail::timeline_capacity(config_) * n);
    }
  }

  void run() {
    // Monomorphize the rounds on (alpha mode, synchronous checkpoints):
    // the synchronous case — blocking fraction 1.0, every write commits
    // at the boundary — drops the whole in-flight-pending bookkeeping
    // from the per-event path, and the mode split removes the per-event
    // policy-kind branch.  The synchronous timeline-off case further
    // upgrades to the AVX-512 round pass where the CPU supports it: pure
    // boundary events advance eight lanes at a time, with the shared
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

  /// The shared step's accessor for one slot: SoA state by reference,
  /// run constants from the kernel, phase 1's interval, and compile-time
  /// no-ops for the policy and MTBF hooks.
  class Slot {
   public:
    static constexpr bool kTiered = false;

    Slot(BatchKernel& kernel, std::size_t slot, double alpha = 0.0)
        : k_(kernel),
          s_(slot),
          alpha_(alpha),
          cold_(kernel.cold_[kernel.slot_replica_[slot]]) {}

    double work_target() const { return k_.work_target_; }
    double budget() const { return k_.budget_; }
    std::uint64_t max_events() const { return k_.config_.max_events; }
    bool sync() const { return k_.sync_; }
    double checkpoint_size_gb() const { return k_.size_gb_; }
    double checkpoint_time() const { return k_.beta_; }
    double blocking(double) const { return k_.blocking_; }
    double restart_time() const { return k_.gamma_; }

    double& now() const { return k_.now_[s_]; }
    double& committed() const { return k_.committed_[s_]; }
    double& uncommitted() const { return k_.uncommitted_[s_]; }
    std::uint8_t& has_pending() const { return k_.has_pending_[s_]; }
    double& pending_commit_time() const {
      return k_.pending_commit_time_[s_];
    }
    double& pending_work() const { return k_.pending_work_[s_]; }
    double& last_failure() const { return k_.last_failure_[s_]; }
    double next_failure() const { return k_.next_failure_[s_]; }
    std::uint64_t& events() const { return k_.events_[s_]; }
    bool& truncated() const { return cold().truncated; }
    double& checkpoint_hours() const { return k_.ckpt_hours_[s_]; }
    double& wasted_hours() const { return cold().wasted_hours; }
    double& restart_hours() const { return cold().restart_hours; }
    std::uint64_t& failures() const { return cold().failures; }
    std::uint64_t& checkpoints_written() const { return k_.written_[s_]; }
    double& data_written_gb() const { return k_.data_gb_[s_]; }

    double next_interval() const { return alpha_; }
    static bool skip_boundary() { return false; }  // none of them skips
    static void observe_failure() {}
    static void on_failure() {}
    static void on_checkpoint_complete() {}

    void pop_failure() const {
      ReplicaCold& r = cold();
      if (++r.arrival_pos == kFailurePrefetch) k_.refill_arrivals(r);
      k_.next_failure_[s_] = r.arrivals[r.arrival_pos];
    }

    void snapshot() const {
      if (!k_.config_.record_timeline) return;
      const ReplicaCold& r = cold();
      k_.arena_.push_back({replica(),
                           {now(), committed(), checkpoint_hours(),
                            r.wasted_hours, r.restart_hours}});
    }

    std::uint32_t replica() const { return k_.slot_replica_[s_]; }

    /// The slot's finished run (after detail::finish).
    RunMetrics metrics() const {
      RunMetrics m;
      m.makespan_hours = now();
      m.compute_hours = committed();
      m.checkpoint_hours = checkpoint_hours();
      m.wasted_hours = wasted_hours();
      m.restart_hours = restart_hours();
      m.failures = failures();
      m.checkpoints_written = checkpoints_written();
      m.data_written_gb = data_written_gb();
      return m;
    }

   private:
    ReplicaCold& cold() const { return cold_; }

    BatchKernel& k_;
    std::size_t s_;
    double alpha_;
    ReplicaCold& cold_;
  };

  /// Phase 2's interval for slot s.  iLazy finishes Eq. 11 here —
  /// α·(ratio^(1−k)) with the batched pow already applied to ratio_ —
  /// with the identical multiply the vector pass performs.
  template <AlphaMode kMode>
  double alpha(std::size_t s) const {
    return kMode == AlphaMode::kILazy ? config_.alpha_oci_hours * ratio_[s]
                                      : constant_alpha_;
  }

  template <AlphaMode kMode, bool kSync>
  void run_rounds() {
    while (count_ > 0) {
      if constexpr (kMode == AlphaMode::kILazy) compute_ilazy_alphas();
      std::size_t write = 0;
      const std::size_t count = count_;
      for (std::size_t s = 0; s < count; ++s) {
        Slot slot(*this, s, alpha<kMode>(s));
        if (detail::step<kSync>(slot)) {
          if (write != s) move_slot(s, write);
          ++write;
        } else {
          retire(slot);
        }
      }
      count_ = write;
    }
  }

  /// Vectorized rounds for the synchronous timeline-off case: phase 1 as
  /// usual, then one AVX-512 pass per round with the shared step bound
  /// in as the impure-lane fallback; dead slots are retired and
  /// compacted between rounds so the arrays stay dense.
  template <AlphaMode kMode>
  void run_rounds_vector() {
    while (count_ > 0) {
      if constexpr (kMode == AlphaMode::kILazy) compute_ilazy_alphas();
      dead_.clear();
      detail::batch_round_avx512(lanes(), count_, this, &step_thunk<kMode>,
                                 dead_);
      if (!dead_.empty()) {
        for (const std::uint32_t s : dead_) {
          Slot slot(*this, s);
          retire(slot);
        }
        compact_dead();
      }
    }
  }

  template <AlphaMode kMode>
  static bool step_thunk(void* kernel, std::size_t s) {
    auto* self = static_cast<BatchKernel*>(kernel);
    Slot slot(*self, s, self->alpha<kMode>(s));
    return detail::step<true>(slot);
  }

  /// Close a slot's run and store its metrics.
  void retire(Slot& slot) {
    detail::finish(slot);
    total_events_ += slot.events();
    out_[slot.replica()] = slot.metrics();
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

  /// The scalar loop's trial counters, once per batch, plus the batch
  /// dispatch count.
  void flush_observability() {
    if (!obs::enabled()) return;
    static obs::Counter& dispatch_batch =
        obs::metrics().counter("sim.dispatch.batch");
    std::uint64_t failures = 0;
    std::uint64_t written = 0;
    for (const RunMetrics& m : out_) {
      failures += m.failures;
      written += m.checkpoints_written;
    }
    detail::TrialMetrics& tm = detail::TrialMetrics::get();
    tm.trials.add(out_.size());
    tm.events.add(total_events_);
    tm.failures.add(failures);
    tm.ckpt_written.add(written);
    dispatch_batch.add(out_.size());
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

  std::span<RunMetrics> out_;
};

/// The lockstep-eligible policies — stateless, hookless, never skipping,
/// blind to the MTBF estimate — and the phase-1 interval each reduces to
/// under `config`; nullopt for every other policy.  batch_eligible asks
/// this too, so admitting a fourth policy is one branch here.
std::optional<AlphaSource> classify_policy(
    const core::CheckpointPolicy& policy, const SimulationConfig& config) {
  if (dynamic_cast<const core::StaticOciPolicy*>(&policy) != nullptr) {
    return AlphaSource{AlphaMode::kConstant, config.alpha_oci_hours};
  }
  if (const auto* periodic =
          dynamic_cast<const core::PeriodicPolicy*>(&policy)) {
    return AlphaSource{AlphaMode::kConstant, periodic->interval_hours()};
  }
  if (const auto* ilazy = dynamic_cast<const core::ILazyPolicy*>(&policy)) {
    // Hookless runs hand the policy a context whose shape estimate is
    // pinned to config.shape_hint, so the effective shape is
    // run-constant.
    return AlphaSource{AlphaMode::kILazy, 0.0,
                       ilazy->shape().value_or(config.shape_hint)};
  }
  return std::nullopt;
}

}  // namespace

bool batch_eligible(const core::CheckpointPolicy& policy,
                    const io::StorageModel& storage) {
  return dynamic_cast<const io::ConstantStorage*>(&storage) != nullptr &&
         classify_policy(policy, SimulationConfig{}).has_value();
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

  const auto* constant = dynamic_cast<const io::ConstantStorage*>(&storage);
  const std::optional<AlphaSource> alpha =
      constant != nullptr ? classify_policy(policy, config) : std::nullopt;
  if (!alpha.has_value()) {
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
  if (alpha->mode == AlphaMode::kILazy) {
    // Reproduce ILazyPolicy's own validation (same requires, same
    // messages) before trusting the shape for the whole batch.
    require(alpha->shape > 0.0 && alpha->shape <= 1.0,
            "iLazy requires a Weibull shape estimate in (0, 1]");
    (void)core::ILazyPolicy::lazy_interval(config.alpha_oci_hours, 0.0,
                                           alpha->shape);
  }

  const obs::TraceSpan span("sim.batch");
  BatchKernel kernel(config, *alpha, inter_arrival.sampler(), *constant,
                     streams, out);
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
