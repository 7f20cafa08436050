// Bandwidth traces, storage models, and the I/O-log agent.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"
#include "io/bandwidth_trace.hpp"
#include "io/factory.hpp"
#include "io/hierarchy.hpp"
#include "io/io_agent.hpp"
#include "io/storage_model.hpp"

namespace lazyckpt::io {
namespace {

// ---------------------------------------------------------------- trace
TEST(BandwidthTrace, PiecewiseLookup) {
  const BandwidthTrace trace(1.0, {10.0, 20.0, 30.0});
  EXPECT_DOUBLE_EQ(trace.at(-1.0), 10.0);
  EXPECT_DOUBLE_EQ(trace.at(0.5), 10.0);
  EXPECT_DOUBLE_EQ(trace.at(1.0), 20.0);
  EXPECT_DOUBLE_EQ(trace.at(2.5), 30.0);
  EXPECT_DOUBLE_EQ(trace.at(99.0), 30.0);  // clamped to the end
  EXPECT_DOUBLE_EQ(trace.span_hours(), 3.0);
}

TEST(BandwidthTrace, AverageOverRange) {
  const BandwidthTrace trace(1.0, {10.0, 20.0, 30.0});
  EXPECT_DOUBLE_EQ(trace.average(0.0, 2.9), 20.0);
  EXPECT_DOUBLE_EQ(trace.average(0.0, 0.5), 10.0);
}

TEST(BandwidthTrace, HarmonicAverageBelowArithmetic) {
  const BandwidthTrace trace(1.0, {5.0, 20.0});
  // Harmonic mean of {5, 20} = 2 / (1/5 + 1/20) = 8.
  EXPECT_DOUBLE_EQ(trace.harmonic_average(0.0, 2.0), 8.0);
  EXPECT_LT(trace.harmonic_average(0.0, 2.0), trace.average(0.0, 2.0));
  // Constant bandwidth: both means agree.
  const BandwidthTrace flat(1.0, {10.0, 10.0});
  EXPECT_DOUBLE_EQ(flat.harmonic_average(0.0, 2.0), 10.0);
}

// A query from t = 0 reads one prefix sum; it must return the bits of the
// left-to-right loop over the range.
TEST(BandwidthTrace, QueriesFromZeroMatchTheLoopBitwise) {
  const auto trace = BandwidthTrace::synthetic_spider(200.0);
  const auto& samples = trace.samples();
  for (const double to : {0.1, 0.25, 0.3, 7.0, 99.9, 200.0, 250.0}) {
    const auto last = static_cast<std::size_t>(std::ceil(to / 0.25));
    double sum = 0.0;
    double inverse_sum = 0.0;
    std::size_t n = 0;
    for (; n < last && n < samples.size(); ++n) {
      sum += samples[n];
      inverse_sum += 1.0 / samples[n];
    }
    const double mean = sum / static_cast<double>(n);
    const double harmonic = static_cast<double>(n) / inverse_sum;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(trace.average(0.0, to)),
              std::bit_cast<std::uint64_t>(mean)) << to;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(trace.harmonic_average(0.0, to)),
              std::bit_cast<std::uint64_t>(harmonic)) << to;
  }
}

// A query starting after t = 0 takes a difference of two prefix sums; it
// matches the loop over its bins to rounding.
TEST(BandwidthTrace, QueriesFromLaterBinsMatchTheLoop) {
  const auto trace = BandwidthTrace::synthetic_spider(200.0);
  const auto& samples = trace.samples();
  for (const auto& [from, to] :
       {std::pair{0.3, 7.0}, std::pair{50.0, 50.1}, std::pair{99.9, 200.0},
        std::pair{150.0, 250.0}}) {
    const auto first = static_cast<std::size_t>(from / 0.25);
    const auto last = std::min(static_cast<std::size_t>(std::ceil(to / 0.25)),
                               samples.size());
    double sum = 0.0;
    double inverse_sum = 0.0;
    for (std::size_t i = first; i < last; ++i) {
      sum += samples[i];
      inverse_sum += 1.0 / samples[i];
    }
    const auto n = static_cast<double>(last - first);
    EXPECT_NEAR(trace.average(from, to), sum / n, 1e-12 * sum / n) << from;
    EXPECT_NEAR(trace.harmonic_average(from, to), n / inverse_sum,
                1e-12 * n / inverse_sum) << from;
  }
  // A range past the last bin falls back to the last sample.
  EXPECT_EQ(trace.average(300.0, 400.0), samples.back());
  EXPECT_EQ(trace.harmonic_average(300.0, 400.0), samples.back());
}

TEST(BandwidthTrace, RejectsBadConstruction) {
  EXPECT_THROW(BandwidthTrace(0.0, {1.0}), InvalidArgument);
  EXPECT_THROW(BandwidthTrace(1.0, {}), InvalidArgument);
  EXPECT_THROW(BandwidthTrace(1.0, {1.0, -2.0}), InvalidArgument);
}

TEST(BandwidthTrace, SyntheticSpiderStatistics) {
  const auto trace = BandwidthTrace::synthetic_spider(4320.0);
  EXPECT_GT(trace.size(), 1000u);
  double lo = 1e9;
  double hi = 0.0;
  for (const double s : trace.samples()) {
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  EXPECT_GE(lo, 1.0);
  EXPECT_LE(hi, 110.0);
  // Mean near the observed ~10 GB/s the paper reports for Spider.
  const double mean = trace.average(0.0, trace.span_hours() - 0.5);
  EXPECT_GT(mean, 6.0);
  EXPECT_LT(mean, 16.0);
}

TEST(BandwidthTrace, SyntheticIsDeterministicInSeed) {
  const auto a = BandwidthTrace::synthetic_spider(100.0, 10.0, 1.0, 110.0, 3);
  const auto b = BandwidthTrace::synthetic_spider(100.0, 10.0, 1.0, 110.0, 3);
  const auto c = BandwidthTrace::synthetic_spider(100.0, 10.0, 1.0, 110.0, 4);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.samples(), b.samples());
  EXPECT_NE(a.samples(), c.samples());
}

TEST(BandwidthTrace, CsvRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "lazyckpt_bw_test.csv")
          .string();
  const BandwidthTrace trace(0.5, {5.0, 6.0, 7.0});
  trace.save_csv(path);
  const auto loaded = BandwidthTrace::load_csv(path);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_DOUBLE_EQ(loaded.step_hours(), 0.5);
  EXPECT_NEAR(loaded.at(1.2), 7.0, 1e-9);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------- storage
TEST(ConstantStorage, FixedCosts) {
  const ConstantStorage storage(0.5, 0.25, 100.0);
  EXPECT_DOUBLE_EQ(storage.checkpoint_time(0.0), 0.5);
  EXPECT_DOUBLE_EQ(storage.checkpoint_time(999.0), 0.5);
  EXPECT_DOUBLE_EQ(storage.restart_time(1.0), 0.25);
  EXPECT_DOUBLE_EQ(storage.checkpoint_size_gb(), 100.0);
}

TEST(ConstantStorage, ZeroRestartAllowed) {
  EXPECT_NO_THROW(ConstantStorage(0.5, 0.0));
  EXPECT_THROW(ConstantStorage(0.0, 0.0), InvalidArgument);
}

TEST(TraceStorage, TimeVaryingBeta) {
  const BandwidthTrace trace(1.0, {10.0, 20.0});
  const TraceStorage storage(tb_to_gb(20.0), trace);
  // 20 TB at 10 GB/s = 2000 s; at 20 GB/s = 1000 s.
  EXPECT_NEAR(storage.checkpoint_time(0.5), 2000.0 / 3600.0, 1e-9);
  EXPECT_NEAR(storage.checkpoint_time(1.5), 1000.0 / 3600.0, 1e-9);
  EXPECT_NEAR(storage.restart_time(1.5), 1000.0 / 3600.0, 1e-9);
}

TEST(TraceStorage, OffsetRebasesTime) {
  const BandwidthTrace trace(1.0, {10.0, 20.0});
  const TraceStorage storage(36000.0, trace, /*offset=*/1.0);
  EXPECT_NEAR(storage.checkpoint_time(0.0), 36000.0 / 20.0 / 3600.0, 1e-9);
}

TEST(TraceStorage, ReadSpeedupAcceleratesRestartOnly) {
  const BandwidthTrace trace(1.0, {10.0});
  const TraceStorage storage(36000.0, trace, 0.0, /*read_speedup=*/4.0);
  EXPECT_DOUBLE_EQ(storage.checkpoint_time(0.0), 1.0);
  EXPECT_DOUBLE_EQ(storage.restart_time(0.0), 0.25);
  EXPECT_THROW(TraceStorage(36000.0, trace, 0.0, 0.5), InvalidArgument);
}

TEST(TraceStorage, CloneIsIndependentHandle) {
  const BandwidthTrace trace(1.0, {10.0});
  const TraceStorage storage(100.0, trace);
  const auto copy = storage.clone();
  EXPECT_DOUBLE_EQ(copy->checkpoint_time(0.0), storage.checkpoint_time(0.0));
}

// ---------------------------------------------------------------- agent
// --------------------------------------------------------- shared trace
// Every spider model and trace tier built from one (span, mean, seed)
// holds one synthesized trace, so validating a scenario again (a cache
// hit validates it three times) costs no re-synthesis.  Each test uses
// its own parameter set: the memo is process-wide.

TEST(SharedSpiderTrace, EqualArgumentsReturnTheSameTrace) {
  const auto trace = shared_spider_trace(300.0, 10.0, 7);
  EXPECT_EQ(shared_spider_trace(300.0, 10.0, 7).get(), trace.get());
  // The spider kind and a trace tier both hold that trace.
  const long before = trace.use_count();
  const auto storage = make_storage("spider:size_gb=150,span=300");
  const auto hierarchy = make_hierarchy("pfs:size_gb=150,span=300");
  EXPECT_EQ(trace.use_count(), before + 2);
  // Any other argument is another trace.
  EXPECT_NE(shared_spider_trace(300.0, 10.0, 8).get(), trace.get());
  EXPECT_NE(shared_spider_trace(300.0, 10.5, 7).get(), trace.get());
  EXPECT_NE(shared_spider_trace(301.0, 10.0, 7).get(), trace.get());
}

TEST(SharedSpiderTrace, SamplesAreBitwiseSyntheticSpiders) {
  const auto shared = shared_spider_trace(250.0, 12.0, 11);
  const auto fresh =
      BandwidthTrace::synthetic_spider(250.0, 12.0, 1.0, 110.0, 11);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(shared->step_hours()),
            std::bit_cast<std::uint64_t>(fresh.step_hours()));
  ASSERT_EQ(shared->size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(shared->samples()[i]),
              std::bit_cast<std::uint64_t>(fresh.samples()[i]))
        << "sample " << i;
  }
}

TEST(SharedSpiderTrace, FailedBuildsAreNotKept) {
  const auto kept = shared_spider_trace(320.0, 10.0, 7);
  std::array<std::string, 2> messages;
  for (std::string& message : messages) {
    try {
      (void)make_storage("spider:size_gb=150,span=320,mean=-1");
      ADD_FAILURE() << "a negative mean built";
    } catch (const InvalidArgument& error) {
      message = error.what();
    }
  }
  EXPECT_FALSE(messages[0].empty());
  EXPECT_EQ(messages[0], messages[1]);
  // The failure left the last good trace in place.
  EXPECT_EQ(shared_spider_trace(320.0, 10.0, 7).get(), kept.get());
}

TEST(SharedSpiderTraceParallel, FourThreadsBuildingGetOneTrace) {
  std::array<StorageModelPtr, 4> models;
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (StorageModelPtr& model : models) {
    threads.emplace_back([&model, &ready] {
      ready.fetch_add(1);
      while (ready.load() < 4) std::this_thread::yield();
      model = make_storage("spider:size_gb=150,span=400,mean=9,seed=1234");
    });
  }
  for (std::thread& thread : threads) thread.join();
  // The memo, the four models and `trace` own it: no thread's model holds
  // a trace of its own.
  const auto trace = shared_spider_trace(400.0, 9.0, 1234);
  EXPECT_EQ(trace.use_count(), 6);
  for (const StorageModelPtr& model : models) {
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(model->checkpoint_time(5.0)),
              std::bit_cast<std::uint64_t>(
                  models[0]->checkpoint_time(5.0)));
  }
}

TEST(IoAgent, CurrentAndHistoricalBandwidth) {
  const BandwidthTrace trace(1.0, {10.0, 20.0, 30.0});
  const IoLogAgent agent(trace);
  EXPECT_DOUBLE_EQ(agent.current_bandwidth(2.5), 30.0);
  EXPECT_DOUBLE_EQ(agent.historical_average(2.9), 20.0);
  // Only the past influences the estimate: at t=0.9 it is the first sample.
  EXPECT_DOUBLE_EQ(agent.historical_average(0.9), 10.0);
}

TEST(IoAgent, EstimatedCheckpointTime) {
  const BandwidthTrace trace(1.0, {10.0, 10.0});
  const IoLogAgent agent(trace);
  EXPECT_NEAR(agent.estimated_checkpoint_time(1.5, tb_to_gb(20.0)),
              2000.0 / 3600.0, 1e-9);
  EXPECT_THROW(static_cast<void>(agent.estimated_checkpoint_time(1.0, 0.0)),
               InvalidArgument);
}

}  // namespace
}  // namespace lazyckpt::io
