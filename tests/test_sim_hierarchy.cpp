// N-tier hierarchy simulation (DESIGN.md §5k): the 36-row legacy golden —
// a two-tier bb|pfs hierarchy must reproduce the historical two-level
// event loop bit-for-bit — the depth-one differential against the flat
// engine, exact failure-free arithmetic for three tiers, restore-level
// semantics, conservation, the per-tier OCI math, spec error paths, and a
// pinned 3-tier aggregate that must be bit-identical across
// LAZYCKPT_THREADS x LAZYCKPT_BATCH.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/model/oci.hpp"
#include "core/policy/factory.hpp"
#include "core/policy/periodic.hpp"
#include "failures/trace.hpp"
#include "io/hierarchy.hpp"
#include "io/storage_model.hpp"
#include "sim/engine.hpp"
#include "sim/hierarchy.hpp"
#include "stats/exponential.hpp"
#include "stats/weibull.hpp"
#include "two_level.hpp"

namespace lazyckpt::sim {
namespace {

/// Run `fn` with environment variable `name` forced to `value`, restoring
/// the previous state afterwards (the test_parallel_determinism idiom,
/// generalized to any variable so the batch size can be forced too).
template <typename Fn>
auto with_env(const char* name, const std::string& value, Fn&& fn) {
  const char* old = std::getenv(name);
  const std::string saved = old != nullptr ? old : "";
  const bool had_old = old != nullptr;
  setenv(name, value.c_str(), 1);
  auto restore = [&]() {
    if (had_old) {
      setenv(name, saved.c_str(), 1);
    } else {
      unsetenv(name);
    }
  };
  try {
    auto result = fn();
    restore();
    return result;
  } catch (...) {
    restore();
    throw;
  }
}

// ---------------------------------------------------------------------------
// Legacy two-level golden: the exact metrics the pre-hierarchy two-level
// simulator produced for a (policy x l2_every x survivable fraction x
// seed) grid, captured in hexfloat before it was generalized.  The same
// scheme as a two-tier bb|pfs hierarchy must still match every row
// bit-for-bit.

struct LegacyGoldenRow {
  const char* policy;
  int l2_every;
  double fraction;
  std::uint64_t seed;
  double makespan;
  double compute;
  double l1_io;
  double l2_io;
  double wasted;
  double restart;
  std::uint64_t failures;
  std::uint64_t l1_checkpoints;
  std::uint64_t l2_checkpoints;
  std::uint64_t checkpoints_skipped;
  std::uint64_t l1_restarts;
  std::uint64_t l2_restarts;
};

constexpr LegacyGoldenRow kLegacyGolden[] = {
    {"static-oci", 1, 0x1.999999999999ap-1, 7, 0x1.40eb233fdd0cap+9, 0x1.9p+8, 0x1.3d999999999c3p+4, 0x1.7dp+7, 0x1.9bcace6207c74p+4, 0x1.6fffffffffffbp+2, 56, 397, 381, 0, 46, 10},
    {"static-oci", 1, 0x1.999999999999ap-1, 99, 0x1.476a53970dd98p+9, 0x1.9p+8, 0x1.3d999999999c3p+4, 0x1.7dp+7, 0x1.2b0b9fd743ec4p+5, 0x1.c66666666665fp+2, 79, 397, 381, 0, 66, 13},
    {"static-oci", 1, 0x1p+0, 7, 0x1.3d01105914d2ep+9, 0x1.9p+8, 0x1.3a6666666668fp+4, 0x1.7ap+7, 0x1.69bba4bc33c08p+4, 0x1.5fffffffffffcp+1, 56, 393, 378, 0, 56, 0},
    {"static-oci", 1, 0x1p+0, 99, 0x1.42ae4490987b6p+9, 0x1.9p+8, 0x1.3a6666666668fp+4, 0x1.79p+7, 0x1.0d4aaf6fee0a4p+5, 0x1.c66666666665cp+1, 77, 393, 377, 0, 77, 0},
    {"static-oci", 4, 0x1.999999999999ap-1, 7, 0x1.ffadaa631e128p+8, 0x1.9p+8, 0x1.45999999999c5p+4, 0x1.8cp+5, 0x1.256d5318f0774p+5, 0x1.4999999999995p+2, 52, 407, 99, 0, 43, 9},
    {"static-oci", 4, 0x1.999999999999ap-1, 99, 0x1.fca2f329e74p+8, 0x1.9p+8, 0x1.440000000002bp+4, 0x1.8cp+5, 0x1.0b7dffb5a04ap+5, 0x1.5cccccccccccap+2, 49, 405, 99, 0, 41, 8},
    {"static-oci", 4, 0x1p+0, 7, 0x1.e7b379d794d71p+8, 0x1.9p+8, 0x1.3a6666666668fp+4, 0x1.8p+5, 0x1.1d9e03dfb3a14p+4, 0x1.199999999999ap+1, 44, 393, 96, 0, 44, 0},
    {"static-oci", 4, 0x1p+0, 99, 0x1.eb2681c135e52p+8, 0x1.9p+8, 0x1.3a6666666668fp+4, 0x1.84p+5, 0x1.4a681c135e19fp+4, 0x1.2ccccccccccccp+1, 49, 393, 97, 0, 49, 0},
    {"static-oci", 10, 0x1.999999999999ap-1, 7, 0x1.05f3652d47886p+9, 0x1.9p+8, 0x1.6266666666699p+4, 0x1.6p+4, 0x1.2a67f6370900dp+6, 0x1.4999999999995p+2, 52, 443, 44, 0, 43, 9},
    {"static-oci", 10, 0x1.999999999999ap-1, 99, 0x1.01a086dbe92b4p+9, 0x1.9p+8, 0x1.58cccccccccfdp+4, 0x1.58p+4, 0x1.0a6a9d45afb17p+6, 0x1.6666666666663p+2, 52, 431, 43, 0, 44, 8},
    {"static-oci", 10, 0x1p+0, 7, 0x1.cd4139e8b2da5p+8, 0x1.9p+8, 0x1.3a6666666668fp+4, 0x1.38p+4, 0x1.3e7a04f193d5p+4, 0x1.199999999999ap+1, 44, 393, 39, 0, 44, 0},
    {"static-oci", 10, 0x1p+0, 99, 0x1.d066bee7442dcp+8, 0x1.9p+8, 0x1.3a6666666668fp+4, 0x1.38p+4, 0x1.6e6bee7442a3fp+4, 0x1.2ccccccccccccp+1, 49, 393, 39, 0, 49, 0},
    {"ilazy:0.6", 1, 0x1.999999999999ap-1, 7, 0x1.14268948b8e5ap+9, 0x1.9p+8, 0x1.2b33333333332p+3, 0x1.5ap+6, 0x1.959bc7bec184ap+5, 0x1.6fffffffffffbp+2, 56, 187, 173, 0, 46, 10},
    {"ilazy:0.6", 1, 0x1.999999999999ap-1, 99, 0x1.0f233e7f77409p+9, 0x1.9p+8, 0x1.2199999999996p+3, 0x1.4ep+6, 0x1.6033e7f773fbep+5, 0x1.6ccccccccccc9p+2, 54, 181, 167, 0, 46, 8},
    {"ilazy:0.6", 1, 0x1p+0, 7, 0x1.0e9815435f854p+9, 0x1.9p+8, 0x1.2666666666664p+3, 0x1.54p+6, 0x1.61e7ba9c5eb02p+5, 0x1.5fffffffffffcp+1, 56, 184, 170, 0, 56, 0},
    {"ilazy:0.6", 1, 0x1p+0, 99, 0x1.0bc8f50bfc1ddp+9, 0x1.9p+8, 0x1.1fffffffffffcp+3, 0x1.5p+6, 0x1.3fc283f2f5025p+5, 0x1.4cccccccccccap+1, 54, 180, 168, 0, 54, 0},
    {"ilazy:0.6", 4, 0x1.999999999999ap-1, 7, 0x1.0a5bad562a099p+9, 0x1.9p+8, 0x1.4b3333333333ap+3, 0x1.9p+4, 0x1.70dd6ab150454p+6, 0x1.4999999999995p+2, 52, 207, 50, 0, 43, 9},
    {"ilazy:0.6", 4, 0x1.999999999999ap-1, 99, 0x1.f4143372b8f94p+8, 0x1.9p+8, 0x1.3333333333334p+3, 0x1.78p+4, 0x1.ec3b352f61533p+5, 0x1.5cccccccccccap+2, 49, 192, 47, 0, 41, 8},
    {"ilazy:0.6", 4, 0x1p+0, 7, 0x1.d22a0a972752p+8, 0x1.9p+8, 0x1.24ccccccccccap+3, 0x1.6p+4, 0x1.068387ec6db5bp+5, 0x1.199999999999ap+1, 44, 183, 44, 0, 44, 0},
    {"ilazy:0.6", 4, 0x1p+0, 99, 0x1.db6d58c7dc748p+8, 0x1.9p+8, 0x1.3p+3, 0x1.7p+4, 0x1.449df97216c5fp+5, 0x1.2ccccccccccccp+1, 49, 190, 46, 0, 49, 0},
    {"ilazy:0.6", 10, 0x1.999999999999ap-1, 7, 0x1.400c4a911585p+9, 0x1.9p+8, 0x1.81999999999aep+3, 0x1.7p+3, 0x1.a59790aabc798p+7, 0x1.6fffffffffffbp+2, 56, 241, 23, 0, 46, 10},
    {"ilazy:0.6", 10, 0x1.999999999999ap-1, 99, 0x1.044a24d81db8p+9, 0x1.9p+8, 0x1.4800000000006p+3, 0x1.4p+3, 0x1.7a8459f420ea9p+6, 0x1.6ccccccccccc9p+2, 54, 205, 20, 0, 46, 8},
    {"ilazy:0.6", 10, 0x1p+0, 7, 0x1.d21e2364e68c5p+8, 0x1.9p+8, 0x1.2b33333333332p+3, 0x1.2p+3, 0x1.6c8ab4c0cdec1p+5, 0x1.199999999999ap+1, 44, 187, 18, 0, 44, 0},
    {"ilazy:0.6", 10, 0x1p+0, 99, 0x1.d84517806ff7p+8, 0x1.9p+8, 0x1.3666666666668p+3, 0x1.3p+3, 0x1.95c2559d193f4p+5, 0x1.2ccccccccccccp+1, 49, 194, 19, 0, 49, 0},
    {"periodic:1", 1, 0x1.999999999999ap-1, 7, 0x1.414661965f0d3p+9, 0x1.9p+8, 0x1.4266666666691p+4, 0x1.82p+7, 0x1.7a65cc657b528p+4, 0x1.6fffffffffffbp+2, 56, 403, 386, 0, 46, 10},
    {"periodic:1", 1, 0x1.999999999999ap-1, 99, 0x1.46b3abb9e769cp+9, 0x1.9p+8, 0x1.4266666666691p+4, 0x1.82p+7, 0x1.093abb9e76accp+5, 0x1.c66666666665fp+2, 79, 403, 386, 0, 66, 13},
    {"periodic:1", 1, 0x1p+0, 7, 0x1.3c9ffb2ff8a6fp+9, 0x1.9p+8, 0x1.3f3333333335dp+4, 0x1.7dp+7, 0x1.40cc32cbe1b7cp+4, 0x1.5fffffffffffcp+1, 56, 399, 381, 0, 56, 0},
    {"periodic:1", 1, 0x1p+0, 99, 0x1.42c20aa95bbc6p+9, 0x1.9p+8, 0x1.3f3333333335dp+4, 0x1.7fp+7, 0x1.e841552b77a98p+4, 0x1.c66666666665cp+1, 77, 399, 383, 0, 77, 0},
    {"periodic:1", 4, 0x1.999999999999ap-1, 7, 0x1.01b7c326408ep+9, 0x1.9p+8, 0x1.4ccccccccccfap+4, 0x1.98p+5, 0x1.33e298ca6f268p+5, 0x1.4999999999995p+2, 52, 416, 102, 0, 43, 9},
    {"periodic:1", 4, 0x1.999999999999ap-1, 99, 0x1.003116e86137cp+9, 0x1.9p+8, 0x1.49999999999c6p+4, 0x1.94p+5, 0x1.1e44a1b9468ffp+5, 0x1.5fffffffffffdp+2, 50, 412, 101, 0, 42, 8},
    {"periodic:1", 4, 0x1p+0, 7, 0x1.ebd90f55d8aaep+8, 0x1.9p+8, 0x1.3f3333333335dp+4, 0x1.88p+5, 0x1.48c42890bda33p+4, 0x1.2ccccccccccccp+1, 47, 399, 98, 0, 47, 0},
    {"periodic:1", 4, 0x1p+0, 99, 0x1.ed565b8bb9317p+8, 0x1.9p+8, 0x1.3f3333333335dp+4, 0x1.84p+5, 0x1.6898ebeec60bep+4, 0x1.2ccccccccccccp+1, 49, 399, 97, 0, 49, 0},
    {"periodic:1", 10, 0x1.999999999999ap-1, 7, 0x1.01fe298ca6f46p+9, 0x1.9p+8, 0x1.6333333333366p+4, 0x1.6p+4, 0x1.0a8ae5fed12bep+6, 0x1.4999999999995p+2, 52, 444, 44, 0, 43, 9},
    {"periodic:1", 10, 0x1.999999999999ap-1, 99, 0x1.f3e3285885fe6p+8, 0x1.9p+8, 0x1.54cccccccccfcp+4, 0x1.5p+4, 0x1.a11942c42fd2dp+5, 0x1.5cccccccccccap+2, 49, 426, 42, 0, 41, 8},
    {"periodic:1", 10, 0x1p+0, 7, 0x1.cde574a8f8fffp+8, 0x1.9p+8, 0x1.3f3333333335dp+4, 0x1.38p+4, 0x1.43f0e429295cfp+4, 0x1.199999999999ap+1, 44, 399, 39, 0, 44, 0},
    {"periodic:1", 10, 0x1p+0, 99, 0x1.d263285885fep+8, 0x1.9p+8, 0x1.3f3333333335dp+4, 0x1.38p+4, 0x1.8965b8bb92d6ap+4, 0x1.2ccccccccccccp+1, 49, 399, 39, 0, 49, 0},
};

TEST(HierarchyLegacyGolden, ShimReproducesTwoLevelSimBitIdentically) {
  for (const LegacyGoldenRow& row : kLegacyGolden) {
    TwoLevelConfig config;
    config.compute_hours = 400.0;
    config.alpha_oci_hours = core::daly_oci(0.05, 11.0);
    config.mtbf_hint_hours = 11.0;
    config.shape_hint = 0.6;
    config.beta_l1_hours = 0.05;
    config.beta_l2_hours = 0.5;
    config.gamma_l1_hours = 0.05;
    config.gamma_l2_hours = 0.5;
    config.l2_every = row.l2_every;
    config.l1_survivable_fraction = row.fraction;

    const auto weibull = stats::Weibull::from_mtbf_and_shape(11.0, 0.6);
    Rng master(row.seed);
    RenewalFailureSource source(weibull, master.split());
    const auto policy = core::make_policy(row.policy);
    const auto m =
        simulate_two_level(config, *policy, source, master.split());

    const auto msg = [&](const char* field) {
      return std::string(field) + " for " + row.policy + " every=" +
             std::to_string(row.l2_every) + " seed=" +
             std::to_string(row.seed);
    };
    EXPECT_EQ(m.makespan_hours, row.makespan) << msg("makespan");
    EXPECT_EQ(m.compute_hours, row.compute) << msg("compute");
    EXPECT_EQ(m.tiers[0].io_hours, row.l1_io) << msg("l1_io");
    EXPECT_EQ(m.tiers[1].io_hours, row.l2_io) << msg("l2_io");
    EXPECT_EQ(m.wasted_hours, row.wasted) << msg("wasted");
    EXPECT_EQ(m.restart_hours, row.restart) << msg("restart");
    EXPECT_EQ(m.failures, row.failures) << msg("failures");
    EXPECT_EQ(m.tiers[0].checkpoints, row.l1_checkpoints)
        << msg("l1_ckpts");
    EXPECT_EQ(m.tiers[1].checkpoints, row.l2_checkpoints)
        << msg("l2_ckpts");
    EXPECT_EQ(m.checkpoints_skipped, row.checkpoints_skipped)
        << msg("skipped");
    EXPECT_EQ(m.tiers[0].restarts, row.l1_restarts) << msg("l1_restarts");
    EXPECT_EQ(m.tiers[1].restarts, row.l2_restarts) << msg("l2_restarts");
  }
}

// ---------------------------------------------------------------------------
// Differential: a one-tier hierarchy is the flat engine.  Over a seeded
// grid of failure laws, storage costs (γ = 0 included), work sizes and
// policies, a single `pfs` tier fed the same failure stream as simulate()
// must agree bit for bit on every shared metric.

TEST(HierarchyDifferential, DepthOneMatchesFlatEngineBitwise) {
  const char* const policies[] = {"hourly",
                                  "static-oci",
                                  "dynamic-oci",
                                  "ilazy:0.6",
                                  "bounded-ilazy:0.6",
                                  "linear:0.1",
                                  "skip1:static-oci",
                                  "skip3:ilazy:0.6"};
  Rng grid(20240611);
  for (int trial = 0; trial < 120; ++trial) {
    const double mtbf = grid.uniform_in(4.0, 30.0);
    const bool exponential = trial % 5 == 0;
    const double shape = exponential ? 1.0 : grid.uniform_in(0.4, 1.0);
    stats::DistributionPtr law;
    if (exponential) {
      law = std::make_unique<stats::Exponential>(
          stats::Exponential::from_mean(mtbf));
    } else {
      law = std::make_unique<stats::Weibull>(
          stats::Weibull::from_mtbf_and_shape(mtbf, shape));
    }
    const double beta = grid.uniform_in(0.01, 1.0);
    const double gamma = trial % 4 == 0 ? 0.0 : grid.uniform_in(0.0, 1.0);

    SimulationConfig flat;
    flat.compute_hours = grid.uniform_in(20.0, 300.0);
    flat.alpha_oci_hours = grid.uniform_in(0.3, 6.0);
    flat.mtbf_hint_hours = mtbf;
    flat.shape_hint = shape;
    HierarchyConfig tiered;
    tiered.compute_hours = flat.compute_hours;
    tiered.alpha_oci_hours = flat.alpha_oci_hours;
    tiered.mtbf_hint_hours = flat.mtbf_hint_hours;
    tiered.shape_hint = flat.shape_hint;

    const io::ConstantStorage storage(beta, gamma);
    std::vector<io::StorageTier> tiers(1);
    tiers[0].kind = "pfs";
    tiers[0].model = std::make_unique<io::ConstantStorage>(beta, gamma);
    const io::StorageHierarchy hierarchy(std::move(tiers));

    const Rng stream = grid.split();
    for (const char* spec : policies) {
      const auto flat_policy = core::make_policy(spec);
      RenewalFailureSource flat_source(*law, stream);
      const RunMetrics expected =
          simulate(flat, *flat_policy, flat_source, storage);

      const auto tiered_policy = core::make_policy(spec);
      RenewalFailureSource tiered_source(*law, stream);
      const HierarchyRunMetrics got = simulate_hierarchy(
          tiered, hierarchy, *tiered_policy, tiered_source, grid.split());

      const std::string where =
          std::string(spec) + " trial=" + std::to_string(trial);
      ASSERT_EQ(got.tiers.size(), 1u);
      EXPECT_EQ(got.makespan_hours, expected.makespan_hours) << where;
      EXPECT_EQ(got.compute_hours, expected.compute_hours) << where;
      EXPECT_EQ(got.wasted_hours, expected.wasted_hours) << where;
      EXPECT_EQ(got.restart_hours, expected.restart_hours) << where;
      EXPECT_EQ(got.tiers[0].io_hours, expected.checkpoint_hours) << where;
      EXPECT_EQ(got.failures, expected.failures) << where;
      EXPECT_EQ(got.tiers[0].checkpoints, expected.checkpoints_written)
          << where;
      EXPECT_EQ(got.checkpoints_skipped, expected.checkpoints_skipped)
          << where;
    }
  }
}

// ---------------------------------------------------------------------------
// Three-tier event-loop semantics on traces (exact arithmetic).

constexpr const char* kThreeTierSpec =
    "mem:beta=0.005,survivable=0.5|bb:beta=0.05,survivable=0.8,every=4|"
    "pfs:beta=0.5,every=2";

HierarchyConfig three_tier_config(double work) {
  HierarchyConfig config;
  config.compute_hours = work;
  config.alpha_oci_hours = 2.0;
  config.mtbf_hint_hours = 11.0;
  config.shape_hint = 0.6;
  return config;
}

failures::FailureTrace trace_at(std::vector<double> times) {
  std::vector<failures::FailureEvent> events;
  for (const double t : times) events.push_back({t, 0, {}});
  return failures::FailureTrace(std::move(events));
}

TEST(Hierarchy, FailureFreeCascadingCadence) {
  // W=40, alpha=2: boundaries after chunks 1..19 (the 20th finishes the
  // job) — 19 mem writes; every 4th also hits bb (4 writes: #4 #8 #12
  // #16); every 2nd bb write also hits pfs (2 writes: #8 #16).
  const auto hierarchy = io::make_hierarchy(kThreeTierSpec);
  const auto trace = trace_at({});
  TraceFailureSource source(trace);
  core::PeriodicPolicy policy(2.0);
  const auto m = simulate_hierarchy(three_tier_config(40.0), hierarchy,
                                    policy, source, Rng(1));

  ASSERT_EQ(m.tiers.size(), 3u);
  EXPECT_EQ(m.compute_hours, 40.0);
  EXPECT_EQ(m.tiers[0].checkpoints, 19u);
  EXPECT_EQ(m.tiers[1].checkpoints, 4u);
  EXPECT_EQ(m.tiers[2].checkpoints, 2u);
  EXPECT_DOUBLE_EQ(m.tiers[0].io_hours, 19 * 0.005);
  EXPECT_DOUBLE_EQ(m.tiers[1].io_hours, 4 * 0.05);
  EXPECT_DOUBLE_EQ(m.tiers[2].io_hours, 2 * 0.5);
  EXPECT_EQ(m.wasted_hours, 0.0);
  EXPECT_EQ(m.failures, 0u);
  EXPECT_DOUBLE_EQ(m.makespan_hours,
                   40.0 + m.tiers[0].io_hours + m.tiers[1].io_hours +
                       m.tiers[2].io_hours);
}

TEST(Hierarchy, RestoreLevelIsFastestSurvivingTier) {
  // Force the severity draw through degenerate survivable fractions: with
  // survivable = (0, 0, 1) every failure breaches mem and bb and restores
  // from pfs; with (1, 1, 1) every failure restores from mem.
  const auto trace = trace_at({3.0, 11.0, 27.0});
  core::PeriodicPolicy policy(2.0);

  const auto deep = io::make_hierarchy(
      "mem:beta=0.005,survivable=0|bb:beta=0.05,survivable=0,every=4|"
      "pfs:beta=0.5,every=2");
  TraceFailureSource source_a(trace);
  const auto worst = simulate_hierarchy(three_tier_config(60.0), deep,
                                        policy, source_a, Rng(2));
  EXPECT_EQ(worst.tiers[0].restarts, 0u);
  EXPECT_EQ(worst.tiers[1].restarts, 0u);
  EXPECT_EQ(worst.tiers[2].restarts, 3u);

  const auto shallow = io::make_hierarchy(
      "mem:beta=0.005,survivable=1|bb:beta=0.05,survivable=1,every=4|"
      "pfs:beta=0.5,every=2");
  TraceFailureSource source_b(trace);
  const auto best = simulate_hierarchy(three_tier_config(60.0), shallow,
                                       policy, source_b, Rng(2));
  EXPECT_EQ(best.tiers[0].restarts, 3u);
  EXPECT_EQ(best.tiers[1].restarts, 0u);
  EXPECT_EQ(best.tiers[2].restarts, 0u);
}

TEST(Hierarchy, DeeperRestoresWasteMoreWork) {
  // Same trace, same costs: restoring from pfs loses work back to an older
  // flush than restoring from mem, so waste and makespan rank accordingly.
  const auto trace = trace_at({9.5});
  core::PeriodicPolicy policy(2.0);
  const auto run_with = [&](const char* spec) {
    const auto hierarchy = io::make_hierarchy(spec);
    TraceFailureSource source(trace);
    return simulate_hierarchy(three_tier_config(30.0), hierarchy, policy,
                              source, Rng(3));
  };
  const auto from_mem = run_with(
      "mem:beta=0.005,survivable=1|bb:beta=0.05,survivable=1,every=4|"
      "pfs:beta=0.5,every=2");
  const auto from_pfs = run_with(
      "mem:beta=0.005,survivable=0|bb:beta=0.05,survivable=0,every=4|"
      "pfs:beta=0.5,every=2");
  EXPECT_GT(from_pfs.wasted_hours, from_mem.wasted_hours);
  EXPECT_GT(from_pfs.makespan_hours, from_mem.makespan_hours);
}

TEST(Hierarchy, ConservationUnderRandomFailures) {
  const auto hierarchy = io::make_hierarchy(kThreeTierSpec);
  const auto weibull = stats::Weibull::from_mtbf_and_shape(11.0, 0.6);
  const auto policy = core::make_policy("ilazy:0.6");
  Rng master(77);
  RenewalFailureSource source(weibull, master.split());
  const auto m = simulate_hierarchy(three_tier_config(200.0), hierarchy,
                                    *policy, source, master.split());
  EXPECT_NEAR(m.makespan_hours,
              m.compute_hours + m.io_hours() + m.wasted_hours +
                  m.restart_hours,
              1e-6 * m.makespan_hours);
  EXPECT_EQ(m.compute_hours, 200.0);
  std::uint64_t restarts = 0;
  for (const auto& tier : m.tiers) restarts += tier.restarts;
  EXPECT_EQ(restarts, m.failures);
}

// ---------------------------------------------------------------------------
// Hierarchy composition accessors and the per-tier OCI math.

TEST(Hierarchy, CumulativePeriodsAndBetas) {
  const auto hierarchy = io::make_hierarchy(kThreeTierSpec);
  const auto periods = hierarchy.cumulative_periods();
  ASSERT_EQ(periods.size(), 3u);
  EXPECT_EQ(periods[0], 1u);
  EXPECT_EQ(periods[1], 4u);
  EXPECT_EQ(periods[2], 8u);  // every 2nd bb write = every 8th checkpoint

  const auto betas = hierarchy.betas_at(0.0);
  ASSERT_EQ(betas.size(), 3u);
  EXPECT_DOUBLE_EQ(betas[0], 0.005);
  EXPECT_DOUBLE_EQ(betas[1], 0.05);
  EXPECT_DOUBLE_EQ(betas[2], 0.5);
}

TEST(Hierarchy, TierWeightedBetaAmortizesCadences) {
  const std::vector<double> betas = {0.005, 0.05, 0.5};
  const std::vector<std::uint64_t> periods = {1, 4, 8};
  // beta_eff = 0.005/1 + 0.05/4 + 0.5/8
  EXPECT_DOUBLE_EQ(core::tier_weighted_beta(betas, periods),
                   0.005 + 0.05 / 4.0 + 0.5 / 8.0);

  // A single tier degenerates to the plain beta and the plain Daly OCI.
  const std::vector<double> solo_beta = {0.5};
  const std::vector<std::uint64_t> solo_period = {1};
  EXPECT_DOUBLE_EQ(core::tier_weighted_beta(solo_beta, solo_period), 0.5);
  EXPECT_EQ(core::tiered_daly_oci(solo_beta, solo_period, 11.0),
            core::daly_oci(0.5, 11.0));

  // The hierarchy-derived OCI is the classic Daly formula applied to the
  // amortized beta.
  EXPECT_EQ(core::tiered_daly_oci(betas, periods, 11.0),
            core::daly_oci(core::tier_weighted_beta(betas, periods), 11.0));
}

TEST(Hierarchy, TierWeightedBetaRejectsInvalidSpans) {
  const std::vector<double> betas = {0.05, 0.5};
  const std::vector<std::uint64_t> periods = {1, 4};
  EXPECT_THROW(core::tier_weighted_beta({}, {}), InvalidArgument);
  EXPECT_THROW(core::tier_weighted_beta(betas, std::vector<std::uint64_t>{1}),
               InvalidArgument);
  EXPECT_THROW(
      core::tier_weighted_beta(std::vector<double>{0.0, 0.5}, periods),
      InvalidArgument);
  EXPECT_THROW(
      core::tier_weighted_beta(betas, std::vector<std::uint64_t>{1, 0}),
      InvalidArgument);
  EXPECT_THROW(core::tiered_daly_oci(betas, periods, 0.0), InvalidArgument);
}

TEST(Hierarchy, MakeHierarchyRejectsInvalidSpecs) {
  const auto expect_invalid = [](const char* spec) {
    EXPECT_THROW((void)io::make_hierarchy(spec), InvalidArgument)
        << "spec: " << spec;
  };
  expect_invalid("");                                   // no tiers
  expect_invalid("ssd:beta=0.1");                       // unknown kind
  expect_invalid("bb:beta=0.1||pfs:beta=0.5");          // empty segment
  expect_invalid("bb:beta=0.1,every=2|pfs:beta=0.5");   // tier 0 cadence
  expect_invalid("bb:beta=0.1|pfs:beta=0.5,every=0");   // cadence < 1
  expect_invalid("bb:beta=0|pfs:beta=0.5");             // beta <= 0
  expect_invalid("bb:beta=0.1,survivable=1.5|pfs:beta=0.5");  // > 1
  expect_invalid("bb:beta=0.1|pfs:beta=0.5,survivable=0.9");  // last < 1
  expect_invalid(
      "mem:beta=0.01,survivable=0.9|bb:beta=0.1,survivable=0.5|"
      "pfs:beta=0.5");  // survivability decreasing with depth
  EXPECT_NO_THROW((void)io::make_hierarchy(kThreeTierSpec));
}

TEST(Hierarchy, BuiltinKindsDifferInDefaultSurvivability) {
  const auto hierarchy =
      io::make_hierarchy("mem:beta=0.005|bb:beta=0.05|pfs:beta=0.5");
  EXPECT_DOUBLE_EQ(hierarchy.tier(0).survivable_fraction, 0.5);
  EXPECT_DOUBLE_EQ(hierarchy.tier(1).survivable_fraction, 0.8);
  EXPECT_DOUBLE_EQ(hierarchy.tier(2).survivable_fraction, 1.0);
}

// ---------------------------------------------------------------------------
// Replica-sweep determinism: a pinned 3-tier aggregate golden that must be
// bit-identical across the LAZYCKPT_THREADS x LAZYCKPT_BATCH grid (the
// streams are pre-split in index order before parallel dispatch).

struct HierarchyGoldenField {
  const char* name;
  double expected;
};

TEST(HierarchyDeterminism, AggregateBitIdenticalAcrossThreadsAndBatch) {
  const auto hierarchy = io::make_hierarchy(kThreeTierSpec);
  const auto weibull = stats::Weibull::from_mtbf_and_shape(11.0, 0.6);
  const auto policy = core::make_policy("ilazy:0.6");

  HierarchyConfig config;
  config.compute_hours = 300.0;
  config.alpha_oci_hours = core::tiered_daly_oci(
      hierarchy.betas_at(0.0), hierarchy.cumulative_periods(), 11.0);
  config.mtbf_hint_hours = 11.0;
  config.shape_hint = 0.6;
  EXPECT_EQ(config.alpha_oci_hours, 0x1.461b3445b5e5bp+0);

  const auto run = [&]() {
    const auto runs = run_hierarchy_replicas_raw(config, hierarchy, *policy,
                                                 weibull, 40, 97);
    return aggregate_hierarchy(hierarchy, runs);
  };

  constexpr std::size_t kThreadCounts[] = {1, 2, 8};
  constexpr std::size_t kBatchSizes[] = {1, 64};
  for (const std::size_t threads : kThreadCounts) {
    for (const std::size_t batch : kBatchSizes) {
      const auto agg = with_env("LAZYCKPT_THREADS", std::to_string(threads),
                                [&]() {
                                  return with_env("LAZYCKPT_BATCH",
                                                  std::to_string(batch), run);
                                });
      const auto msg = [&](const char* field) {
        return std::string(field) + " threads=" + std::to_string(threads) +
               " batch=" + std::to_string(batch);
      };
      ASSERT_EQ(agg.replicas, 40u);
      ASSERT_EQ(agg.tiers.size(), 3u);
      EXPECT_EQ(agg.mean_makespan_hours, 0x1.ba9e132c4b7d2p+8)
          << msg("makespan");
      EXPECT_EQ(agg.mean_compute_hours, 0x1.2cp+8) << msg("compute");
      EXPECT_EQ(agg.mean_wasted_hours, 0x1.fa828a21d1cd2p+6)
          << msg("wasted");
      EXPECT_EQ(agg.mean_restart_hours, 0x1.02a5e353f7cecp+2)
          << msg("restart");
      EXPECT_EQ(agg.mean_failures, 0x1.49ccccccccccdp+5) << msg("failures");
      EXPECT_EQ(agg.mean_checkpoints_skipped, 0.0) << msg("skipped");

      const HierarchyGoldenField io[] = {
          {"mem", 0x1.8e04189374bcbp-1},
          {"bb", 0x1.ebd70a3d70a3ep+0},
          {"pfs", 0x1.28p+3},
      };
      const HierarchyGoldenField checkpoints[] = {
          {"mem", 0x1.36f3333333333p+7},
          {"bb", 0x1.3366666666666p+5},
          {"pfs", 0x1.28p+4},
      };
      const HierarchyGoldenField restarts[] = {
          {"mem", 0x1.4466666666666p+4},
          {"bb", 0x1.9f33333333333p+3},
          {"pfs", 0x1.fe66666666666p+2},
      };
      for (std::size_t k = 0; k < 3; ++k) {
        EXPECT_EQ(agg.tiers[k].kind, io[k].name) << msg("kind");
        EXPECT_EQ(agg.tiers[k].mean_io_hours, io[k].expected)
            << msg(io[k].name);
        EXPECT_EQ(agg.tiers[k].mean_checkpoints, checkpoints[k].expected)
            << msg(checkpoints[k].name);
        EXPECT_EQ(agg.tiers[k].mean_restarts, restarts[k].expected)
            << msg(restarts[k].name);
      }
    }
  }
}

TEST(HierarchyDeterminism, RawRunsMatchSerialSplitOrder) {
  // The pre-split contract: replica i's streams are master.split() number
  // 2i (failure source) and 2i+1 (severity), the historical serial order.
  const auto hierarchy = io::make_hierarchy(kThreeTierSpec);
  const auto weibull = stats::Weibull::from_mtbf_and_shape(11.0, 0.6);
  const auto policy = core::make_policy("static-oci");
  const auto config = three_tier_config(120.0);

  const auto runs = with_env("LAZYCKPT_THREADS", "8", [&]() {
    return run_hierarchy_replicas_raw(config, hierarchy, *policy, weibull,
                                      10, 31);
  });
  ASSERT_EQ(runs.size(), 10u);

  Rng master(31);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    RenewalFailureSource source(weibull, master.split());
    auto replica_policy = core::make_policy("static-oci");
    const auto serial = simulate_hierarchy(config, hierarchy,
                                           *replica_policy, source,
                                           master.split());
    EXPECT_EQ(runs[i].makespan_hours, serial.makespan_hours)
        << "replica " << i;
    EXPECT_EQ(runs[i].wasted_hours, serial.wasted_hours) << "replica " << i;
    EXPECT_EQ(runs[i].failures, serial.failures) << "replica " << i;
    for (std::size_t k = 0; k < 3; ++k) {
      EXPECT_EQ(runs[i].tiers[k].io_hours, serial.tiers[k].io_hours)
          << "replica " << i << " tier " << k;
      EXPECT_EQ(runs[i].tiers[k].restarts, serial.tiers[k].restarts)
          << "replica " << i << " tier " << k;
    }
  }
}

TEST(HierarchyDeterminism, DataWrittenUsesPerTierSizes) {
  const auto hierarchy = io::make_hierarchy(
      "bb:beta=0.05,size_gb=2,survivable=0.8|pfs:beta=0.5,size_gb=2,every=4");
  const auto trace = trace_at({});
  TraceFailureSource source(trace);
  core::PeriodicPolicy policy(2.0);
  const auto m = simulate_hierarchy(three_tier_config(20.0), hierarchy,
                                    policy, source, Rng(9));
  // 9 boundaries: 9 bb writes, 2 pfs flushes (#4, #8), 2 GB each.
  EXPECT_EQ(m.tiers[0].checkpoints, 9u);
  EXPECT_EQ(m.tiers[1].checkpoints, 2u);
  EXPECT_DOUBLE_EQ(m.data_written_gb(hierarchy), (9.0 + 2.0) * 2.0);
}

TEST(Hierarchy, ConfigValidation) {
  auto config = three_tier_config(10.0);
  config.compute_hours = 0.0;
  EXPECT_THROW(config.validate(), InvalidArgument);
  config = three_tier_config(10.0);
  config.alpha_oci_hours = 0.0;
  EXPECT_THROW(config.validate(), InvalidArgument);
  config = three_tier_config(10.0);
  config.max_events = 0;
  EXPECT_THROW(config.validate(), InvalidArgument);
  EXPECT_NO_THROW(three_tier_config(10.0).validate());
}

}  // namespace
}  // namespace lazyckpt::sim
