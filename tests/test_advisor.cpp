// Policy advisor: fitting, recommendation logic, and projections.

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/random.hpp"
#include "core/policy/factory.hpp"
#include "sim/advisor.hpp"
#include "stats/exponential.hpp"
#include "stats/weibull.hpp"

namespace lazyckpt::sim {
namespace {

std::vector<double> draw(const stats::Distribution& d, std::size_t n,
                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> samples;
  for (std::size_t i = 0; i < n; ++i) samples.push_back(d.sample(rng));
  return samples;
}

AdvisorInput input_for(std::span<const double> gaps) {
  AdvisorInput input;
  input.inter_arrival_hours = gaps;
  input.checkpoint_size_gb = 18000.0;  // beta = 0.5 h at 10 GB/s
  input.bandwidth_gbps = 10.0;
  input.compute_hours = 300.0;
  return input;
}

TEST(Advisor, RecommendsILazyOnBurstyFailures) {
  const auto gaps =
      draw(stats::Weibull::from_mtbf_and_shape(11.0, 0.6), 4000, 1);
  const auto rec = advise(input_for(gaps));

  EXPECT_NEAR(rec.weibull_shape, 0.6, 0.05);
  EXPECT_NEAR(rec.mtbf_hours, 11.0, 0.8);
  EXPECT_NEAR(rec.beta_hours, 0.5, 1e-9);
  EXPECT_TRUE(rec.temporal_locality);
  EXPECT_EQ(rec.policy_spec.substr(0, 6), "ilazy:");
  EXPECT_GT(rec.projected_io_saving, 0.2);
  EXPECT_LT(rec.projected_runtime_change, 0.02);
}

TEST(Advisor, RecommendsStaticOciOnMemorylessFailures) {
  const auto gaps = draw(stats::Exponential::from_mean(11.0), 4000, 2);
  const auto rec = advise(input_for(gaps));

  EXPECT_FALSE(rec.temporal_locality);
  EXPECT_EQ(rec.policy_spec, "static-oci");
  EXPECT_NEAR(rec.weibull_shape, 1.0, 0.05);
  // Recommending the baseline projects zero change.
  EXPECT_DOUBLE_EQ(rec.projected_io_saving, 0.0);
  EXPECT_DOUBLE_EQ(rec.projected_runtime_change, 0.0);
}

TEST(Advisor, OciScalesWithCheckpointSize) {
  const auto gaps =
      draw(stats::Weibull::from_mtbf_and_shape(11.0, 0.6), 2000, 3);
  auto small = input_for(gaps);
  small.checkpoint_size_gb = 100.0;
  auto large = input_for(gaps);
  large.checkpoint_size_gb = 100000.0;
  EXPECT_LT(advise(small).oci_hours, advise(large).oci_hours);
}

TEST(Advisor, DeterministicInSeed) {
  const auto gaps =
      draw(stats::Weibull::from_mtbf_and_shape(11.0, 0.6), 1000, 4);
  const auto a = advise(input_for(gaps), 7);
  const auto b = advise(input_for(gaps), 7);
  EXPECT_DOUBLE_EQ(a.projected_io_saving, b.projected_io_saving);
  EXPECT_EQ(a.policy_spec, b.policy_spec);
}

TEST(Advisor, ProjectionIsReadOffBothSweeps) {
  const auto gaps =
      draw(stats::Weibull::from_mtbf_and_shape(11.0, 0.6), 1000, 4);
  const auto rec = advise(input_for(gaps), 7, 20);
  EXPECT_EQ(rec.base.replicas, 20u);
  EXPECT_EQ(rec.chosen.replicas, 20u);
  EXPECT_DOUBLE_EQ(rec.projected_io_saving,
                   1.0 - rec.chosen.mean_checkpoint_hours /
                             rec.base.mean_checkpoint_hours);
  EXPECT_DOUBLE_EQ(
      rec.projected_runtime_change,
      rec.chosen.mean_makespan_hours / rec.base.mean_makespan_hours - 1.0);
}

TEST(Advisor, PolicySpecIsFactoryParsable) {
  const auto gaps =
      draw(stats::Weibull::from_mtbf_and_shape(7.5, 0.55), 1000, 5);
  const auto rec = advise(input_for(gaps));
  EXPECT_NO_THROW((void)core::make_policy(rec.policy_spec));
}

TEST(Advisor, Validation) {
  const std::vector<double> few = {1.0, 2.0, 3.0};
  AdvisorInput input = input_for(few);
  EXPECT_THROW(advise(input), InvalidArgument);

  const auto gaps = draw(stats::Exponential::from_mean(5.0), 100, 6);
  input = input_for(gaps);
  input.checkpoint_size_gb = 0.0;
  EXPECT_THROW(advise(input), InvalidArgument);
  input = input_for(gaps);
  input.bandwidth_gbps = -1.0;
  EXPECT_THROW(advise(input), InvalidArgument);
}

}  // namespace
}  // namespace lazyckpt::sim
