// Failure traces, synthetic generators, MTBF scaling, and the no-look-ahead
// failure-log agent.

#include <gtest/gtest.h>

#include <filesystem>

#include "common/error.hpp"
#include "failures/agent.hpp"
#include "failures/generator.hpp"
#include "failures/scaling.hpp"
#include "failures/trace.hpp"
#include "stats/exponential.hpp"
#include "stats/fitting.hpp"
#include "stats/weibull.hpp"

namespace lazyckpt::failures {
namespace {

FailureTrace simple_trace() {
  return FailureTrace({{1.0, 3, FailureCategory::kHardware},
                       {4.0, 1, FailureCategory::kSoftware},
                       {5.0, 2, FailureCategory::kNetwork},
                       {11.0, 0, FailureCategory::kUnknown}});
}

// ---------------------------------------------------------------- events
TEST(FailureEvent, CategoryRoundTrip) {
  for (const auto cat :
       {FailureCategory::kHardware, FailureCategory::kSoftware,
        FailureCategory::kNetwork, FailureCategory::kEnvironment,
        FailureCategory::kUnknown}) {
    EXPECT_EQ(category_from_string(to_string(cat)), cat);
  }
  EXPECT_EQ(category_from_string("gibberish"), FailureCategory::kUnknown);
}

// ---------------------------------------------------------------- trace
TEST(Trace, SortsOnConstruction) {
  const FailureTrace trace({{5.0, 0, {}}, {1.0, 0, {}}, {3.0, 0, {}}});
  EXPECT_DOUBLE_EQ(trace.at(0).time_hours, 1.0);
  EXPECT_DOUBLE_EQ(trace.at(2).time_hours, 5.0);
}

TEST(Trace, RejectsNegativeTimestamps) {
  EXPECT_THROW(FailureTrace({{-1.0, 0, {}}}), InvalidArgument);
}

TEST(Trace, InterArrivalAndMtbf) {
  const auto trace = simple_trace();
  const auto gaps = trace.inter_arrival_times();
  ASSERT_EQ(gaps.size(), 3u);
  EXPECT_DOUBLE_EQ(gaps[0], 3.0);
  EXPECT_DOUBLE_EQ(gaps[1], 1.0);
  EXPECT_DOUBLE_EQ(gaps[2], 6.0);
  EXPECT_NEAR(trace.observed_mtbf(), 10.0 / 3.0, 1e-12);
}

TEST(Trace, FractionWithin) {
  const auto trace = simple_trace();
  EXPECT_NEAR(trace.fraction_within(2.0), 1.0 / 3.0, 1e-12);  // only gap 1.0
  EXPECT_NEAR(trace.fraction_within(100.0), 1.0, 1e-12);
}

TEST(Trace, WindowRebasesTimes) {
  const auto sub = simple_trace().window(3.0, 6.0);
  ASSERT_EQ(sub.size(), 2u);
  EXPECT_DOUBLE_EQ(sub.at(0).time_hours, 1.0);  // 4.0 - 3.0
  EXPECT_DOUBLE_EQ(sub.at(1).time_hours, 2.0);  // 5.0 - 3.0
}

TEST(Trace, CountUntil) {
  const auto trace = simple_trace();
  EXPECT_EQ(trace.count_until(0.5), 0u);
  EXPECT_EQ(trace.count_until(1.0), 1u);  // inclusive
  EXPECT_EQ(trace.count_until(4.5), 2u);
  EXPECT_EQ(trace.count_until(100.0), 4u);
}

TEST(Trace, CsvRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "lazyckpt_trace_test.csv")
          .string();
  const auto trace = simple_trace();
  trace.save_csv(path);
  const auto loaded = FailureTrace::load_csv(path);
  ASSERT_EQ(loaded.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_NEAR(loaded.at(i).time_hours, trace.at(i).time_hours, 1e-9);
    EXPECT_EQ(loaded.at(i).node_id, trace.at(i).node_id);
    EXPECT_EQ(loaded.at(i).category, trace.at(i).category);
  }
  std::filesystem::remove(path);
}

TEST(Trace, MtbfRequiresTwoEvents) {
  const FailureTrace one({{1.0, 0, {}}});
  EXPECT_THROW(static_cast<void>(one.observed_mtbf()), InvalidArgument);
}

// ---------------------------------------------------------------- generator
TEST(Generator, RenewalTraceMatchesDistributionStatistics) {
  const auto weibull = stats::Weibull::from_mtbf_and_shape(7.5, 0.6);
  Rng rng(17);
  const auto trace = generate_renewal_trace(weibull, 60000.0, 100, rng);
  ASSERT_GT(trace.size(), 5000u);
  EXPECT_NEAR(trace.observed_mtbf(), 7.5, 0.4);
  // Shape recoverable from the generated log.
  const auto fitted = stats::fit_weibull(trace.inter_arrival_times());
  EXPECT_NEAR(fitted.shape(), 0.6, 0.03);
}

TEST(Generator, DeterministicInSpecSeed) {
  const SyntheticLogSpec spec{"X", 10.0, 0.6, 5000.0, 8, 77};
  const auto a = generate_trace(spec);
  const auto b = generate_trace(spec);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.at(i).time_hours, b.at(i).time_hours);
  }
}

TEST(Generator, PaperSpecsCoverAllSystems) {
  const auto& specs = paper_system_specs();
  ASSERT_EQ(specs.size(), 6u);
  EXPECT_EQ(specs.front().system_name, "OLCF");
  EXPECT_NEAR(specs.front().mtbf_hours, 7.5, 1e-12);
  for (const auto& spec : specs) {
    EXPECT_LT(spec.weibull_shape, 1.0);  // temporal locality everywhere
    EXPECT_GT(spec.span_hours, 10000.0);
  }
}

TEST(Generator, NodeIdsWithinRange) {
  const SyntheticLogSpec spec{"X", 5.0, 0.7, 2000.0, 4, 3};
  const auto trace = generate_trace(spec);
  for (const auto& event : trace.events()) {
    EXPECT_GE(event.node_id, 0);
    EXPECT_LT(event.node_id, 4);
  }
}

TEST(Generator, BurstTraceHasStrongerLocalityThanBase) {
  Rng rng_a(5);
  BurstSpec spec;
  spec.base_mtbf_hours = 10.0;
  spec.span_hours = 40000.0;
  spec.burst_probability = 0.5;
  spec.burst_size = 2;
  spec.burst_gap_hours = 0.2;
  const auto bursty = generate_burst_trace(spec, rng_a);

  Rng rng_b(5);
  const auto plain = generate_renewal_trace(
      stats::Exponential::from_mean(10.0), 40000.0, 1, rng_b);

  // Bursts pull a much larger fraction of gaps under one hour.
  EXPECT_GT(bursty.fraction_within(1.0), plain.fraction_within(1.0) + 0.1);
  EXPECT_LT(bursty.observed_mtbf(), plain.observed_mtbf());
}

// ---------------------------------------------------------------- scaling
TEST(Scaling, InverseNodeCount) {
  EXPECT_DOUBLE_EQ(system_mtbf(220000.0, 20000), 11.0);
  EXPECT_DOUBLE_EQ(system_mtbf(220000.0, 100000), 2.2);
  EXPECT_DOUBLE_EQ(node_mtbf(11.0, 20000), 220000.0);
  EXPECT_THROW(system_mtbf(0.0, 10), InvalidArgument);
  EXPECT_THROW(system_mtbf(10.0, 0), InvalidArgument);
}

// ---------------------------------------------------------------- agent
TEST(Agent, NoLookAheadQueries) {
  const auto trace = simple_trace();
  const FailureLogAgent agent(trace);
  EXPECT_FALSE(agent.last_failure_before(0.5).has_value());
  EXPECT_DOUBLE_EQ(agent.last_failure_before(4.5).value(), 4.0);
  EXPECT_EQ(agent.failures_before(4.5), 2u);
  EXPECT_EQ(agent.failures_before(100.0), 4u);
}

TEST(Agent, TimeSinceFailure) {
  const auto trace = simple_trace();
  const FailureLogAgent agent(trace);
  EXPECT_DOUBLE_EQ(agent.time_since_failure(0.5), 0.5);  // none yet
  EXPECT_DOUBLE_EQ(agent.time_since_failure(4.5), 0.5);
  EXPECT_DOUBLE_EQ(agent.time_since_failure(20.0), 9.0);
}

TEST(Agent, MovingAverageMtbf) {
  const auto trace = simple_trace();  // gaps 3, 1, 6
  const FailureLogAgent all(trace, 16);
  EXPECT_DOUBLE_EQ(all.mtbf_estimate(0.5, 7.5), 7.5);   // fallback
  EXPECT_DOUBLE_EQ(all.mtbf_estimate(4.5, 7.5), 3.0);   // one gap
  EXPECT_DOUBLE_EQ(all.mtbf_estimate(100.0, 7.5), 10.0 / 3.0);

  const FailureLogAgent windowed(trace, 2);  // only the last two gaps
  EXPECT_DOUBLE_EQ(windowed.mtbf_estimate(100.0, 7.5), 3.5);
}

TEST(Agent, RejectsZeroWindow) {
  const auto trace = simple_trace();
  EXPECT_THROW(FailureLogAgent(trace, 0), InvalidArgument);
}

}  // namespace
}  // namespace lazyckpt::failures
