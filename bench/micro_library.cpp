/// Library micro-benchmarks (google-benchmark): per-decision policy cost,
/// simulator event throughput, statistical fitting, and checkpoint-file
/// serialization — the costs a host application pays to adopt lazyckpt.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <vector>

#include "bench_common.hpp"
#include "common/crc32.hpp"
#include "common/random.hpp"
#include "common/rle.hpp"
#include "core/policy/equal_risk.hpp"
#include "core/policy/factory.hpp"
#include "cr/checkpoint_file.hpp"
#include "cr/region.hpp"
#include "io/storage_model.hpp"
#include "sim/sweep.hpp"
#include "stats/anderson_darling.hpp"
#include "stats/fitting.hpp"
#include "stats/ks_test.hpp"
#include "stats/weibull.hpp"

namespace {

using namespace lazyckpt;

core::PolicyContext probe_context() {
  core::PolicyContext ctx;
  ctx.now_hours = 37.0;
  ctx.time_since_failure_hours = 12.0;
  ctx.alpha_oci_hours = 2.98;
  ctx.checkpoint_time_hours = 0.5;
  ctx.mtbf_estimate_hours = 11.0;
  ctx.weibull_shape_estimate = 0.6;
  ctx.checkpoints_since_failure = 3;
  return ctx;
}

void BM_PolicyDecision(benchmark::State& state,
                       const std::string& spec) {
  const auto policy = core::make_policy(spec);
  const auto ctx = probe_context();
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy->next_interval(ctx));
  }
}
BENCHMARK_CAPTURE(BM_PolicyDecision, static_oci, std::string("static-oci"));
BENCHMARK_CAPTURE(BM_PolicyDecision, dynamic_oci, std::string("dynamic-oci"));
BENCHMARK_CAPTURE(BM_PolicyDecision, ilazy, std::string("ilazy:0.6"));
BENCHMARK_CAPTURE(BM_PolicyDecision, bounded_ilazy,
                  std::string("bounded-ilazy:0.6"));

void BM_SimulateHeroRun(benchmark::State& state) {
  sim::SimulationConfig config;
  config.compute_hours = 500.0;
  config.alpha_oci_hours = 2.98;
  config.mtbf_hint_hours = 11.0;
  config.shape_hint = 0.6;
  const auto weibull = stats::Weibull::from_mtbf_and_shape(11.0, 0.6);
  const io::ConstantStorage storage(0.5, 0.5);
  const auto policy = core::make_policy("ilazy:0.6");
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Rng rng(seed++);
    sim::RenewalFailureSource source(weibull.clone(), rng);
    const auto replica = policy->clone();
    benchmark::DoNotOptimize(
        sim::simulate(config, *replica, source, storage));
  }
}
BENCHMARK(BM_SimulateHeroRun);

void BM_FitWeibull(benchmark::State& state) {
  const auto truth = stats::Weibull::from_mtbf_and_shape(7.5, 0.6);
  Rng rng(5);
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(state.range(0)));
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    samples.push_back(truth.sample(rng));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::fit_weibull(samples));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FitWeibull)->Arg(1000)->Arg(10000);

void BM_KsStatistic(benchmark::State& state) {
  const auto truth = stats::Weibull::from_mtbf_and_shape(7.5, 0.6);
  Rng rng(6);
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) samples.push_back(truth.sample(rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::ks_statistic(samples, truth));
  }
}
BENCHMARK(BM_KsStatistic);

void BM_Crc32(benchmark::State& state) {
  std::vector<std::byte> data(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i * 31);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(1 << 16)->Arg(1 << 20);

void BM_CheckpointWriteRead(benchmark::State& state) {
  const auto dir = bench::scratch_dir("lazyckpt_bench_ckpt");
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "bench.ckpt").string();
  std::vector<double> field(static_cast<std::size_t>(state.range(0)), 1.5);
  cr::RegionRegistry registry;
  registry.register_array("field", field.data(), field.size());
  for (auto _ : state) {
    cr::write_checkpoint(path, registry, {1.0});
    benchmark::DoNotOptimize(cr::read_checkpoint(path, registry));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 8 * 2);
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_CheckpointWriteRead)->Arg(1 << 14)->Arg(1 << 17);

void BM_EqualRiskDecision(benchmark::State& state) {
  const core::EqualRiskPolicy policy(std::make_unique<stats::Weibull>(
      stats::Weibull::from_mtbf_and_shape(11.0, 0.6)));
  const auto ctx = probe_context();
  // The bisection makes this the most expensive per-decision policy;
  // compare against BM_PolicyDecision/ilazy.
  core::EqualRiskPolicy mutable_policy = policy;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mutable_policy.next_interval(ctx));
  }
}
BENCHMARK(BM_EqualRiskDecision);

void BM_AdStatistic(benchmark::State& state) {
  const auto truth = stats::Weibull::from_mtbf_and_shape(7.5, 0.6);
  Rng rng(7);
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) samples.push_back(truth.sample(rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::ad_statistic(samples, truth));
  }
}
BENCHMARK(BM_AdStatistic);

void BM_FitGamma(benchmark::State& state) {
  const auto truth = stats::Weibull::from_mtbf_and_shape(7.5, 0.6);
  Rng rng(8);
  std::vector<double> samples;
  for (int i = 0; i < 10000; ++i) samples.push_back(truth.sample(rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::fit_gamma(samples));
  }
}
BENCHMARK(BM_FitGamma);

void BM_RleRoundTrip(benchmark::State& state) {
  // A delta-like stream: mostly zeros with scattered literals.
  std::vector<std::byte> data(static_cast<std::size_t>(state.range(0)));
  Rng rng(9);
  for (auto& b : data) {
    b = rng.uniform() < 0.95 ? std::byte{0}
                             : static_cast<std::byte>(rng.uniform_index(256));
  }
  for (auto _ : state) {
    const auto encoded = rle_encode(data);
    benchmark::DoNotOptimize(rle_decode(encoded, data.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RleRoundTrip)->Arg(1 << 16)->Arg(1 << 20);

}  // namespace

BENCHMARK_MAIN();
