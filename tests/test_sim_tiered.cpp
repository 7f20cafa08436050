// Two-level checkpointing (burst buffer over PFS) as a two-tier hierarchy:
// exact failure-free arithmetic, severity semantics, conservation, and the
// qualitative trade-offs of the L2 period.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "core/policy/factory.hpp"
#include "core/policy/periodic.hpp"
#include "failures/trace.hpp"
#include "stats/weibull.hpp"
#include "two_level.hpp"

namespace lazyckpt::sim {
namespace {

TwoLevelConfig basic_config(double work) {
  TwoLevelConfig config;
  config.compute_hours = work;
  config.alpha_oci_hours = 2.0;
  config.mtbf_hint_hours = 11.0;
  config.shape_hint = 0.6;
  config.beta_l1_hours = 0.1;
  config.beta_l2_hours = 0.5;
  config.gamma_l1_hours = 0.05;
  config.gamma_l2_hours = 0.5;
  config.l2_every = 3;
  config.l1_survivable_fraction = 0.8;
  return config;
}

failures::FailureTrace trace_at(std::vector<double> times) {
  std::vector<failures::FailureEvent> events;
  for (const double t : times) events.push_back({t, 0, {}});
  return failures::FailureTrace(std::move(events));
}

TEST(Tiered, FailureFreeExactArithmetic) {
  // W=10, alpha=2: boundaries after chunks 1..4 (the 5th finishes the
  // job).  Four L1 writes (0.1 h each); the 3rd also flushes to L2.
  const auto trace = trace_at({});
  TraceFailureSource source(trace);
  core::PeriodicPolicy policy(2.0);
  const auto m =
      simulate_two_level(basic_config(10.0), policy, source, Rng(1));

  EXPECT_DOUBLE_EQ(m.compute_hours, 10.0);
  EXPECT_EQ(m.tiers[0].checkpoints, 4u);
  EXPECT_EQ(m.tiers[1].checkpoints, 1u);
  EXPECT_DOUBLE_EQ(m.tiers[0].io_hours, 0.4);
  EXPECT_DOUBLE_EQ(m.tiers[1].io_hours, 0.5);
  EXPECT_DOUBLE_EQ(m.wasted_hours, 0.0);
  EXPECT_DOUBLE_EQ(m.makespan_hours, 10.9);
  EXPECT_EQ(m.failures, 0u);
}

TEST(Tiered, AllFailuresSurvivableNeverUsesL2Restart) {
  auto config = basic_config(50.0);
  config.l1_survivable_fraction = 1.0;
  const auto trace = trace_at({3.0, 11.0, 27.0});
  TraceFailureSource source(trace);
  core::PeriodicPolicy policy(2.0);
  const auto m = simulate_two_level(config, policy, source, Rng(2));
  EXPECT_EQ(m.failures, 3u);
  EXPECT_EQ(m.tiers[0].restarts, 3u);
  EXPECT_EQ(m.tiers[1].restarts, 0u);
}

TEST(Tiered, NoSurvivableFailuresAlwaysFallBackToL2) {
  auto config = basic_config(50.0);
  config.l1_survivable_fraction = 0.0;
  const auto trace = trace_at({3.0, 11.0, 27.0});
  TraceFailureSource source(trace);
  core::PeriodicPolicy policy(2.0);
  const auto m = simulate_two_level(config, policy, source, Rng(3));
  EXPECT_EQ(m.tiers[0].restarts, 0u);
  EXPECT_EQ(m.tiers[1].restarts, 3u);
}

TEST(Tiered, L2FailureLosesWorkBackToLastFlush) {
  // One L2-severity failure at t=9.5: by then boundaries at 2, 4.1, 6.2
  // have produced three L1 checkpoints (committed 6 h) and one L2 flush
  // after the third (committed_l2 = 6 at t=6.8)...  We assert the
  // qualitative invariant instead of the full chronology: with severity
  // L2 the waste exceeds the same scenario with severity L1.
  const auto trace = trace_at({9.5});
  core::PeriodicPolicy policy(2.0);

  auto config = basic_config(30.0);
  config.l1_survivable_fraction = 0.0;
  TraceFailureSource source_a(trace);
  const auto l2_case = simulate_two_level(config, policy, source_a, Rng(4));

  config.l1_survivable_fraction = 1.0;
  TraceFailureSource source_b(trace);
  const auto l1_case = simulate_two_level(config, policy, source_b, Rng(4));

  EXPECT_GT(l2_case.wasted_hours, l1_case.wasted_hours);
  EXPECT_GT(l2_case.makespan_hours, l1_case.makespan_hours);
}

TEST(Tiered, ConservationUnderRandomFailures) {
  const auto weibull = stats::Weibull::from_mtbf_and_shape(11.0, 0.6);
  for (const double fraction : {0.0, 0.5, 1.0}) {
    auto config = basic_config(200.0);
    config.l1_survivable_fraction = fraction;
    Rng stream(77);
    RenewalFailureSource source(weibull.clone(), stream);
    const auto policy = core::make_policy("ilazy:0.6");
    const auto m = simulate_two_level(config, *policy, source, Rng(78));
    EXPECT_NEAR(m.makespan_hours,
                m.compute_hours + m.tiers[0].io_hours + m.tiers[1].io_hours +
                    m.wasted_hours + m.restart_hours,
                1e-6 * m.makespan_hours)
        << "fraction=" << fraction;
    EXPECT_DOUBLE_EQ(m.compute_hours, 200.0);
    EXPECT_EQ(m.tiers[0].restarts + m.tiers[1].restarts, m.failures);
  }
}

TEST(Tiered, RarerL2FlushesTradeIoForRisk) {
  // Larger l2_every: less L2 I/O, but more waste when L2 restarts happen.
  const auto weibull = stats::Weibull::from_mtbf_and_shape(8.0, 0.6);
  auto run_with = [&](int every) {
    auto config = basic_config(300.0);
    config.l2_every = every;
    config.l1_survivable_fraction = 0.5;
    Rng stream(91);
    RenewalFailureSource source(weibull.clone(), stream);
    core::PeriodicPolicy policy(2.0);
    return simulate_two_level(config, policy, source, Rng(92));
  };
  const auto frequent = run_with(1);
  const auto rare = run_with(10);
  EXPECT_GT(frequent.tiers[1].io_hours, rare.tiers[1].io_hours);
  EXPECT_LT(frequent.wasted_hours, rare.wasted_hours);
}

TEST(Tiered, SkipPolicyComposes) {
  const auto trace = trace_at({});
  TraceFailureSource source(trace);
  const auto policy = core::make_policy("skip1:periodic:2");
  const auto m =
      simulate_two_level(basic_config(10.0), *policy, source, Rng(5));
  EXPECT_EQ(m.checkpoints_skipped, 1u);
  EXPECT_EQ(m.tiers[0].checkpoints, 3u);  // 4 boundaries, first skipped
}

TEST(Tiered, ConfigValidation) {
  // Invalid two-level parameters cannot form a hierarchy.
  auto config = basic_config(10.0);
  config.l2_every = 0;
  EXPECT_THROW((void)config.hierarchy(), InvalidArgument);
  config = basic_config(10.0);
  config.l1_survivable_fraction = 1.5;
  EXPECT_THROW((void)config.hierarchy(), InvalidArgument);
  config = basic_config(10.0);
  config.beta_l2_hours = 0.0;
  EXPECT_THROW((void)config.hierarchy(), InvalidArgument);
  EXPECT_NO_THROW((void)basic_config(10.0).hierarchy());
}

// Parameterized conservation sweep over (policy × l2_every × survivable
// fraction).
class TieredSweep
    : public ::testing::TestWithParam<std::tuple<std::string, int, double>> {
};

TEST_P(TieredSweep, ConservationAndCompletion) {
  const std::string& spec = std::get<0>(GetParam());
  const int l2_every = std::get<1>(GetParam());
  const double fraction = std::get<2>(GetParam());

  auto config = basic_config(150.0);
  config.l2_every = l2_every;
  config.l1_survivable_fraction = fraction;
  const auto weibull = stats::Weibull::from_mtbf_and_shape(9.0, 0.6);
  Rng stream(101);
  RenewalFailureSource source(weibull.clone(), stream);
  const auto policy = core::make_policy(spec);
  const auto m = simulate_two_level(config, *policy, source, Rng(102));

  EXPECT_DOUBLE_EQ(m.compute_hours, 150.0);
  EXPECT_NEAR(m.makespan_hours,
              m.compute_hours + m.tiers[0].io_hours + m.tiers[1].io_hours +
                  m.wasted_hours + m.restart_hours,
              1e-6 * m.makespan_hours);
  EXPECT_EQ(m.tiers[0].restarts + m.tiers[1].restarts, m.failures);
  EXPECT_LE(m.tiers[1].checkpoints, m.tiers[0].checkpoints);
}

INSTANTIATE_TEST_SUITE_P(
    TieredMatrix, TieredSweep,
    ::testing::Combine(::testing::Values("static-oci", "ilazy:0.6",
                                         "skip2:static-oci"),
                       ::testing::Values(1, 4, 16),
                       ::testing::Values(0.0, 0.8, 1.0)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int, double>>&
           param_info) {
      std::string name = std::get<0>(param_info.param);
      name += "_n" + std::to_string(std::get<1>(param_info.param));
      name += "_f" + std::to_string(static_cast<int>(
                         std::get<2>(param_info.param) * 100));
      for (auto& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(Tiered, DeterministicInSeeds) {
  const auto weibull = stats::Weibull::from_mtbf_and_shape(11.0, 0.6);
  auto run_once = [&]() {
    Rng stream(55);
    RenewalFailureSource source(weibull.clone(), stream);
    core::PeriodicPolicy policy(2.0);
    return simulate_two_level(basic_config(100.0), policy, source, Rng(56));
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_DOUBLE_EQ(a.makespan_hours, b.makespan_hours);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.tiers[1].restarts, b.tiers[1].restarts);
}

}  // namespace
}  // namespace lazyckpt::sim
