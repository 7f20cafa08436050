// Cross-cutting invariants checked over a parameterized sweep of
// (policy × failure distribution × seed): conservation of simulated time,
// completion of the requested work, and policy-specific guarantees.

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <string>
#include <tuple>

#include "core/policy/factory.hpp"
#include "io/storage_model.hpp"
#include "sim/sweep.hpp"
#include "stats/exponential.hpp"
#include "stats/weibull.hpp"

namespace lazyckpt::sim {
namespace {

using Param = std::tuple<std::string /*policy*/, double /*shape; 0=exp*/,
                         std::uint64_t /*seed*/>;

class SimulationInvariants : public ::testing::TestWithParam<Param> {
 protected:
  static SimulationConfig config() {
    SimulationConfig cfg;
    cfg.compute_hours = 150.0;
    cfg.alpha_oci_hours = 2.98;
    cfg.mtbf_hint_hours = 11.0;
    cfg.shape_hint = 0.6;
    return cfg;
  }

  static stats::DistributionPtr distribution(double shape) {
    if (shape <= 0.0) {
      return std::make_unique<stats::Exponential>(
          stats::Exponential::from_mean(11.0));
    }
    return std::make_unique<stats::Weibull>(
        stats::Weibull::from_mtbf_and_shape(11.0, shape));
  }
};

TEST_P(SimulationInvariants, TimeConservationAndCompletion) {
  const std::string& spec = std::get<0>(GetParam());
  const double shape = std::get<1>(GetParam());
  const std::uint64_t seed = std::get<2>(GetParam());
  const auto policy = core::make_policy(spec);
  const auto dist = distribution(shape);
  const io::ConstantStorage storage(0.5, 0.5, 50.0);

  const auto runs =
      run_replicas_raw(config(), *policy, *dist, storage, 8, seed);
  for (const auto& run : runs) {
    // Every hour is attributed exactly once.
    EXPECT_NEAR(run.makespan_hours,
                run.compute_hours + run.checkpoint_hours + run.wasted_hours +
                    run.restart_hours,
                1e-6 * run.makespan_hours);
    // The job finishes exactly the requested work.
    EXPECT_DOUBLE_EQ(run.compute_hours, 150.0);
    // Sanity: no negative buckets.
    EXPECT_GE(run.checkpoint_hours, 0.0);
    EXPECT_GE(run.wasted_hours, 0.0);
    EXPECT_GE(run.restart_hours, 0.0);
    // Checkpoint I/O is consistent with the count and beta.
    EXPECT_NEAR(run.checkpoint_hours,
                0.5 * static_cast<double>(run.checkpoints_written), 1e-9);
    EXPECT_DOUBLE_EQ(run.data_written_gb,
                     50.0 * static_cast<double>(run.checkpoints_written));
    // Restart time is consistent with gamma and the failure count
    // (each failure triggers at most one completed restart).
    EXPECT_LE(run.restart_hours,
              0.5 * static_cast<double>(run.failures) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PolicyDistributionSeedSweep, SimulationInvariants,
    ::testing::Combine(
        ::testing::Values("hourly", "static-oci", "dynamic-oci", "ilazy:0.6",
                          "bounded-ilazy:0.6", "linear:0.1",
                          "skip1:static-oci", "skip3:ilazy:0.6"),
        ::testing::Values(0.0, 0.5, 0.7),  // exponential, two Weibulls
        ::testing::Values(1u, 2u)),
    [](const ::testing::TestParamInfo<Param>& param_info) {
      std::string name = std::get<0>(param_info.param);
      name += "_k" + std::to_string(static_cast<int>(
                         std::get<1>(param_info.param) * 10));
      name += "_s" + std::to_string(std::get<2>(param_info.param));
      for (auto& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// Async-checkpointing invariants: same sweep shape, with a partially
// blocking write.  Conservation and completion must survive overlap.
class AsyncInvariants
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(AsyncInvariants, ConservationAndNoSlowdownVsSync) {
  const std::string& spec = std::get<0>(GetParam());
  const double sigma = std::get<1>(GetParam());
  const auto policy = core::make_policy(spec);
  const auto weibull = stats::Weibull::from_mtbf_and_shape(11.0, 0.6);
  const io::ConstantStorage storage(0.5, 0.5);

  SimulationConfig config;
  config.compute_hours = 150.0;
  config.alpha_oci_hours = 2.98;
  config.mtbf_hint_hours = 11.0;
  config.shape_hint = 0.6;
  config.checkpoint_blocking_fraction = sigma;

  const auto runs =
      run_replicas_raw(config, *policy, weibull, storage, 6, 4);
  for (const auto& run : runs) {
    EXPECT_NEAR(run.makespan_hours,
                run.compute_hours + run.checkpoint_hours + run.wasted_hours +
                    run.restart_hours,
                1e-6 * run.makespan_hours);
    EXPECT_DOUBLE_EQ(run.compute_hours, 150.0);
  }

  config.checkpoint_blocking_fraction = 1.0;
  const auto sync = run_replicas(config, *policy, weibull, storage, 6, 4);
  config.checkpoint_blocking_fraction = sigma;
  const auto async = run_replicas(config, *policy, weibull, storage, 6, 4);
  // Overlap never hurts on average (paired failure streams).
  EXPECT_LE(async.mean_makespan_hours, sync.mean_makespan_hours * 1.001);
}

INSTANTIATE_TEST_SUITE_P(
    AsyncSweep, AsyncInvariants,
    ::testing::Combine(::testing::Values("static-oci", "ilazy:0.6",
                                         "skip2:static-oci"),
                       ::testing::Values(0.7, 0.3, 0.05)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, double>>&
           param_info) {
      std::string name = std::get<0>(param_info.param);
      name += "_s" + std::to_string(static_cast<int>(
                         std::get<1>(param_info.param) * 100));
      for (auto& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// iLazy-specific invariants over the same machine.
class ILazyInvariants : public ::testing::TestWithParam<double> {};

TEST_P(ILazyInvariants, SavesCheckpointsVsOciWithBoundedSlowdown) {
  const double shape = GetParam();
  SimulationConfig config;
  config.compute_hours = 300.0;
  config.alpha_oci_hours = 2.98;
  config.mtbf_hint_hours = 11.0;
  config.shape_hint = shape;
  const auto weibull = stats::Weibull::from_mtbf_and_shape(11.0, shape);
  const io::ConstantStorage storage(0.5, 0.5);

  const auto oci = run_replicas(config, *core::make_policy("static-oci"),
                                weibull, storage, 60, 33);
  const auto lazy = run_replicas(config, *core::make_policy("ilazy"),
                                 weibull, storage, 60, 33);

  // Fewer checkpoints, less checkpoint I/O (paper Obs. 5/7).
  EXPECT_LT(lazy.mean_checkpoints_written, oci.mean_checkpoints_written);
  EXPECT_LT(lazy.mean_checkpoint_hours, oci.mean_checkpoint_hours);
  // More wasted work, but only a small overall slowdown (< 3%).
  EXPECT_GE(lazy.mean_wasted_hours, oci.mean_wasted_hours);
  EXPECT_LT(lazy.mean_makespan_hours, oci.mean_makespan_hours * 1.03);
}

INSTANTIATE_TEST_SUITE_P(Shapes, ILazyInvariants,
                         ::testing::Values(0.5, 0.6, 0.7, 0.8));

}  // namespace
}  // namespace lazyckpt::sim
