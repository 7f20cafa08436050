// The analytical core: lost-work fraction, runtime model, OCI estimators,
// and the Observation-9 interval bound.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/random.hpp"
#include "core/model/bounds.hpp"
#include "core/model/lost_work.hpp"
#include "core/model/machine.hpp"
#include "core/model/oci.hpp"
#include "core/model/runtime_model.hpp"
#include "stats/exponential.hpp"
#include "stats/weibull.hpp"

namespace lazyckpt::core {
namespace {

// ---------------------------------------------------------------- lost work
TEST(LostWork, ApproachesHalfForShortSegments) {
  // Classic assumption: failures land uniformly in a short segment.
  EXPECT_NEAR(lost_work_fraction_exponential(0.1, 10.0), 0.5, 2e-3);
}

TEST(LostWork, FallsBelowHalfAsSegmentsGrow) {
  // Paper Fig. 3's deviation from the classic 0.5: failures land *early*
  // within long segments (the inter-arrival density decays), so the lost
  // fraction of a segment shrinks as the segment stretches past the MTBF.
  const double mtbf = 10.0;
  double previous = 0.51;
  for (const double c : {1.0, 5.0, 10.0, 20.0, 40.0}) {
    const double eps = lost_work_fraction_exponential(c, mtbf);
    EXPECT_LT(eps, previous) << "segment=" << c;
    previous = eps;
  }
  EXPECT_LT(previous, 0.3);  // far past the MTBF, well below one half
}

TEST(LostWork, MonteCarloMatchesClosedFormForExponential) {
  const double mtbf = 10.0;
  const auto exp_dist = stats::Exponential::from_mean(mtbf);
  Rng rng(7);
  for (const double c : {0.5, 2.0, 8.0, 15.0}) {
    const double closed = lost_work_fraction_exponential(c, mtbf);
    const double mc =
        lost_work_fraction_monte_carlo(exp_dist, c, 200000, rng);
    EXPECT_NEAR(mc, closed, 0.01) << "segment=" << c;
  }
}

TEST(LostWork, WeibullBelowExponential) {
  // Paper Fig. 10: with k < 1 failures cluster early, so the average work
  // lost per failure is lower than the exponential case.
  const double mtbf = 10.0;
  const auto weibull = stats::Weibull::from_mtbf_and_shape(mtbf, 0.6);
  Rng rng(8);
  for (const double c : {1.0, 3.0, 6.0, 10.0}) {
    const double eps_w =
        lost_work_fraction_monte_carlo(weibull, c, 200000, rng);
    const double eps_e = lost_work_fraction_exponential(c, mtbf);
    EXPECT_LT(eps_w, eps_e) << "segment=" << c;
  }
}

TEST(LostWork, RejectsBadArguments) {
  EXPECT_THROW(lost_work_fraction_exponential(0.0, 10.0), InvalidArgument);
  EXPECT_THROW(lost_work_fraction_exponential(1.0, -1.0), InvalidArgument);
  const auto d = stats::Exponential::from_mean(1.0);
  Rng rng(1);
  EXPECT_THROW(lost_work_fraction_monte_carlo(d, 1.0, 0, rng),
               InvalidArgument);
}

// ---------------------------------------------------------------- model
MachineParams machine_20k() {
  return {11.0, 0.5, 0.5};  // MTBF, beta, gamma — the Fig. 13 design point
}

TEST(RuntimeModel, FailureFreeLimit) {
  // With an enormous MTBF the model degenerates to W(1 + beta/alpha).
  const RuntimeModel model({1e12, 0.5, 0.5}, {500.0});
  EXPECT_NEAR(model.expected_runtime(2.0), 500.0 * 1.25, 1e-3);
}

TEST(RuntimeModel, RuntimeExceedsFailureFreeBound) {
  const RuntimeModel model(machine_20k(), {500.0});
  const double alpha = 3.0;
  EXPECT_GT(model.expected_runtime(alpha),
            500.0 * (1.0 + 0.5 / alpha));
}

TEST(RuntimeModel, BreakdownSumsToTotal) {
  const RuntimeModel model(machine_20k(), {500.0});
  const auto b = model.breakdown(3.0);
  EXPECT_NEAR(b.total_hours,
              b.compute_hours + b.checkpoint_hours + b.wasted_hours +
                  b.restart_hours,
              1e-6 * b.total_hours);
  EXPECT_NEAR(b.expected_failures, b.total_hours / 11.0, 1e-9);
}

TEST(RuntimeModel, InfeasibleWhenIntervalTooLong) {
  // Tiny MTBF: long intervals mean expected per-failure loss > MTBF.
  const RuntimeModel model({1.0, 0.5, 0.2}, {100.0});
  EXPECT_FALSE(model.feasible(10.0));
  EXPECT_THROW((void)model.expected_runtime(10.0), InvalidArgument);
}

TEST(RuntimeModel, CustomLostWorkFunction) {
  const auto eps = [](double segment) {
    return lost_work_fraction_exponential(segment, 11.0);
  };
  const RuntimeModel model(machine_20k(), {500.0}, eps);
  EXPECT_TRUE(model.feasible(3.0));
  EXPECT_GT(model.expected_runtime(3.0), 500.0);
}

TEST(RuntimeModel, RejectsBadLostWorkConstant) {
  EXPECT_THROW(RuntimeModel(machine_20k(), {500.0}, 0.0), InvalidArgument);
  EXPECT_THROW(RuntimeModel(machine_20k(), {500.0}, 1.0), InvalidArgument);
}

// ---------------------------------------------------------------- oci
TEST(Oci, YoungFormula) {
  EXPECT_NEAR(young_oci(0.5, 11.0), std::sqrt(11.0), 1e-12);
}

TEST(Oci, DalyMatchesPaperAnchor) {
  // Paper Fig. 13: "model-estimated OCI of 2.98 hours" at 20K nodes with a
  // 30-minute checkpoint.
  EXPECT_NEAR(daly_oci(0.5, 11.0), 2.98, 0.03);
}

TEST(Oci, DalyBelowYoungForSmallBeta) {
  // Daly subtracts beta; for beta << M it is slightly below Young.
  EXPECT_LT(daly_oci(0.5, 11.0), young_oci(0.5, 11.0));
}

TEST(Oci, DalyDegradesToMtbfForHugeBeta) {
  EXPECT_DOUBLE_EQ(daly_oci(25.0, 10.0), 10.0);
}

TEST(Oci, DecreasesWithSystemSize) {
  // Observation 1: more nodes => smaller MTBF => smaller OCI.
  const double oci_10k = daly_oci(0.5, 22.0);
  const double oci_20k = daly_oci(0.5, 11.0);
  const double oci_100k = daly_oci(0.5, 2.2);
  EXPECT_GT(oci_10k, oci_20k);
  EXPECT_GT(oci_20k, oci_100k);
}

TEST(Oci, ShrinksWithFasterStorage) {
  // Observation 2: faster I/O (smaller beta) => checkpoint more often.
  EXPECT_LT(daly_oci(0.1, 11.0), daly_oci(0.5, 11.0));
}

TEST(Oci, NumericAgreesWithDaly) {
  const RuntimeModel model(machine_20k(), {500.0});
  const double numeric = numeric_oci(model);
  const double daly = daly_oci(0.5, 11.0);
  EXPECT_NEAR(numeric, daly, 0.35);  // same first-order optimum
  // And the numeric optimum is at least as good under the model itself.
  EXPECT_LE(model.expected_runtime(numeric),
            model.expected_runtime(daly) + 1e-9);
}

TEST(Oci, NumericThrowsWhenNothingFeasible) {
  // beta > MTBF with eps 0.5: no interval makes progress.
  const RuntimeModel model({0.4, 1.0, 0.5}, {10.0});
  EXPECT_THROW(numeric_oci(model), Error);
}

// ---------------------------------------------------------------- bounds
TEST(Bounds, CapAtLeastOci) {
  const auto weibull = stats::Weibull::from_mtbf_and_shape(11.0, 0.6);
  IntervalBoundParams params{2.98, 0.5, 64.0};
  for (const double t : {0.0, 1.0, 5.0, 20.0, 100.0}) {
    EXPECT_GE(max_lazy_interval(weibull, t, params), params.alpha_oci_hours);
  }
}

TEST(Bounds, CapGrowsWithTimeSinceFailure) {
  // Decreasing hazard: the longer since the last failure, the safer a long
  // interval is, so the admissible cap widens.
  const auto weibull = stats::Weibull::from_mtbf_and_shape(11.0, 0.6);
  IntervalBoundParams params{2.98, 0.5, 64.0};
  const double cap_early = max_lazy_interval(weibull, 1.0, params);
  const double cap_late = max_lazy_interval(weibull, 50.0, params);
  EXPECT_GT(cap_late, cap_early);
}

TEST(Bounds, ExponentialCapIsTighterThanWeibull) {
  // Memoryless failures offer no locality to exploit; the admissible
  // stretch is smaller than under a decreasing-hazard Weibull at large t.
  const auto weibull = stats::Weibull::from_mtbf_and_shape(11.0, 0.6);
  const auto exponential = stats::Exponential::from_mean(11.0);
  IntervalBoundParams params{2.98, 0.5, 64.0};
  EXPECT_GT(max_lazy_interval(weibull, 40.0, params),
            max_lazy_interval(exponential, 40.0, params));
}

TEST(Bounds, RespectsMaxStretch) {
  const auto weibull = stats::Weibull::from_mtbf_and_shape(11.0, 0.3);
  IntervalBoundParams params{2.98, 0.5, 4.0};
  EXPECT_LE(max_lazy_interval(weibull, 500.0, params),
            4.0 * 2.98 + 1e-9);
}

TEST(Bounds, RejectsBadParams) {
  // Both overloads check the same parameters with the same messages.
  const auto weibull = stats::Weibull::from_mtbf_and_shape(11.0, 0.6);
  const stats::Distribution& generic = weibull;
  const auto message = [](auto&& call) {
    try {
      call();
    } catch (const InvalidArgument& e) {
      return std::string(e.what());
    }
    ADD_FAILURE() << "no InvalidArgument thrown";
    return std::string();
  };
  const std::pair<double, IntervalBoundParams> bad[] = {
      {-1.0, {2.98, 0.5, 64.0}},
      {1.0, {0.0, 0.5, 64.0}},
      {1.0, {2.98, 0.0, 64.0}},
      {1.0, {2.98, 0.5, 0.5}},
  };
  for (const auto& [t, params] : bad) {
    const std::string from_weibull =
        message([&] { (void)max_lazy_interval(weibull, t, params); });
    const std::string from_generic =
        message([&] { (void)max_lazy_interval(generic, t, params); });
    EXPECT_FALSE(from_weibull.empty());
    EXPECT_EQ(from_weibull, from_generic);
  }
  EXPECT_NE(message([&] {
              (void)max_lazy_interval(weibull, 1.0, {2.98, 0.5, 0.5});
            }).find("IntervalBoundParams.max_stretch >= 1"),
            std::string::npos);
}

/// The Weibull overload and the generic one through a `Distribution&`,
/// compared bit for bit.
bool same_bits(const stats::Weibull& weibull, double t,
               const IntervalBoundParams& params) {
  const stats::Distribution& generic = weibull;
  const double fast = max_lazy_interval(weibull, t, params);
  const double oracle = max_lazy_interval(generic, t, params);
  return std::memcmp(&fast, &oracle, sizeof(double)) == 0;
}

double log_uniform(Rng& rng, double lo, double hi) {
  return std::exp(rng.uniform_in(std::log(lo), std::log(hi)));
}

/// t whose cumulative hazard (t/λ)^k is log-uniform over [1e-8, 800], or
/// t = 0 one time in 16.
double random_time_since_failure(Rng& rng, const stats::Weibull& weibull) {
  if (rng.uniform_index(16) == 0) return 0.0;
  const double cumulative_hazard = log_uniform(rng, 1e-8, 800.0);
  return weibull.scale() * std::pow(cumulative_hazard, 1.0 / weibull.shape());
}

stats::Weibull random_weibull(Rng& rng) {
  const double shape =
      rng.uniform_index(8) == 0 ? 1.0 : rng.uniform_in(0.2, 1.0);
  return stats::Weibull::from_mtbf_and_shape(log_uniform(rng, 0.5, 200.0),
                                             shape);
}

double random_max_stretch(Rng& rng) {
  return rng.uniform_index(2) == 0 ? 64.0 : rng.uniform_in(1.0, 4.0);
}

TEST(Bounds, WeibullOverloadMatchesGenericBitwiseOnRandomInputs) {
  Rng rng(0x0b59ca9ULL);
  constexpr int kCases = 200000;
  int mismatches = 0;
  for (int i = 0; i < kCases; ++i) {
    const auto weibull = random_weibull(rng);
    const double t = random_time_since_failure(rng, weibull);
    const double oci = log_uniform(rng, 0.1, 20.0);
    double ratio = 0.0;  // β/α_oci
    switch (rng.uniform_index(3)) {
      case 0: ratio = rng.uniform_positive(); break;
      case 1: ratio = log_uniform(rng, 1e-6, 1.0); break;
      default: ratio = rng.uniform_in(1.0, 4.0); break;
    }
    const IntervalBoundParams params{oci, ratio * oci, random_max_stretch(rng)};
    if (!same_bits(weibull, t, params) && ++mismatches <= 5) {
      ADD_FAILURE() << "k=" << weibull.shape() << " scale=" << weibull.scale()
                    << " t=" << t << " oci=" << oci
                    << " beta=" << params.checkpoint_time_hours
                    << " max_stretch=" << params.max_stretch;
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << kCases;
}

TEST(Bounds, WeibullOverloadMatchesGenericBitwiseNearTheFrontier) {
  // Choose the frontier α* first, then place α_oci so that α* lands within
  // a relative 1e-16..1e-4 of α_oci, of max_stretch·α_oci, or of a
  // bisection midpoint between them: the decisions the guard band exists
  // for.
  Rng rng(0xf21f21ULL);
  constexpr int kCases = 200000;
  int mismatches = 0;
  for (int i = 0; i < kCases; ++i) {
    const auto weibull = random_weibull(rng);
    const double k = weibull.shape();
    const double t = random_time_since_failure(rng, weibull);
    const double p0 = rng.uniform_index(16) == 0
                          ? rng.uniform_in(0.5, 1.0)
                          : log_uniform(rng, 1e-6, 0.5);
    const double h_t = std::pow(t / weibull.scale(), k);
    const double frontier =
        weibull.scale() * std::pow(h_t - std::log1p(-p0), 1.0 / k) - t;
    const double max_stretch = random_max_stretch(rng);
    double multiple = 1.0;  // α* / α_oci before the nudge
    switch (rng.uniform_index(3)) {
      case 0: break;
      case 1: multiple = max_stretch; break;
      default: {
        const int depth = 1 + static_cast<int>(rng.uniform_index(30));
        const double odd = static_cast<double>(
            2 * rng.uniform_index(std::uint64_t{1} << (depth - 1)) + 1);
        multiple = 1.0 + (max_stretch - 1.0) * std::ldexp(odd, -depth);
        break;
      }
    }
    const double nudge = (rng.uniform_index(2) == 0 ? 1.0 : -1.0) *
                         log_uniform(rng, 1e-16, 1e-4);
    const double oci = frontier / (multiple * (1.0 + nudge));
    if (!(oci > 0.0) || !std::isfinite(oci)) continue;
    const IntervalBoundParams params{oci, p0 * oci, max_stretch};
    if (!(params.checkpoint_time_hours > 0.0)) continue;
    if (!same_bits(weibull, t, params) && ++mismatches <= 5) {
      ADD_FAILURE() << "k=" << k << " scale=" << weibull.scale()
                    << " t=" << t << " oci=" << oci
                    << " beta=" << params.checkpoint_time_hours
                    << " max_stretch=" << max_stretch;
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << kCases;
}

TEST(Bounds, WeibullOverloadEdgeCasesMatchGenericBitwise) {
  const auto weibull = stats::Weibull::from_mtbf_and_shape(11.0, 0.6);
  // p0 = β/α_oci just above 1/2: the overload falls back to bisection.
  EXPECT_TRUE(same_bits(weibull, 5.0,
                        {2.0, std::nextafter(1.0, 2.0), 64.0}));
  EXPECT_TRUE(same_bits(weibull, 5.0, {2.0, 1.0, 64.0}));
  // t = 0: H(t) = 0 and S(t) = 1.
  EXPECT_TRUE(same_bits(weibull, 0.0, {2.98, 0.5, 64.0}));
  // Deep tail: 1 − F(t) is one ulp of 1 or rounds to 0 (H(t) near 37),
  // and S(t) lies below the 1e-200 cutoff (H(t) = 500, 800).
  for (const double cumulative_hazard : {36.0, 37.5, 500.0, 800.0}) {
    const double t =
        weibull.scale() * std::pow(cumulative_hazard, 1.0 / weibull.shape());
    EXPECT_TRUE(same_bits(weibull, t, {2.98, 0.5, 64.0}));
  }
  // k = 1: the exponential case of the closed form.
  const auto memoryless = stats::Weibull::from_mtbf_and_shape(11.0, 1.0);
  for (const double t : {0.0, 3.0, 40.0}) {
    EXPECT_TRUE(same_bits(memoryless, t, {2.98, 0.5, 64.0}));
  }
  // max_stretch = 1: the cap is α_oci itself, always admissible.
  for (const double t : {0.0, 1.0, 50.0}) {
    const IntervalBoundParams params{2.98, 0.5, 1.0};
    EXPECT_TRUE(same_bits(weibull, t, params));
    EXPECT_EQ(max_lazy_interval(weibull, t, params), 2.98);
  }
}

// ---------------------------------------------------------------- machine
TEST(MachineParams, Validation) {
  EXPECT_NO_THROW(machine_20k().validate());
  MachineParams bad = machine_20k();
  bad.mtbf_hours = 0.0;
  EXPECT_THROW(bad.validate(), InvalidArgument);
  MachineParams zero_restart = machine_20k();
  zero_restart.restart_time_hours = 0.0;
  EXPECT_NO_THROW(zero_restart.validate());
  EXPECT_THROW(WorkloadParams{0.0}.validate(), InvalidArgument);
}

}  // namespace
}  // namespace lazyckpt::core
