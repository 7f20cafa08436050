/// Golden-master determinism guard for the simulation engine.
///
/// The rows below were recorded from the seed engine (commit 8b5c917,
/// before the hot-path work) by running `sim::simulate` over the covered
/// grid and printing every RunMetrics field in C hexfloat (`%a`) — an
/// exact, round-trippable rendering of the doubles.  The tests replay the
/// same grid through today's engine and demand the formatted output match
/// character-for-character:
///
///   * the devirtualized fast path (`simulate`) must reproduce the seed,
///   * the type-erased fallback (`simulate_generic`) must reproduce it too,
///   * both paths must agree bitwise on the full RunMetrics *including the
///     recorded timeline*, and
///   * the ContextHook path — which disables the engine's incremental
///     context refresh in favour of the full per-decision rebuild — must
///     land on the same bits.
///
/// Any arithmetic reassociation, precompute-by-reciprocal shortcut, or
/// reordered RNG draw in a future optimization shows up here as a one-ULP
/// (or worse) diff.  If a row legitimately must change (an intentional
/// semantic fix), re-record with the recorder documented in DESIGN.md and
/// explain the diff in the commit message.
///
/// Grid: 3 distributions x 6 policies x blocking {1.0, 0.6} x budget
/// {unlimited, 120 h} = 72 configurations, each with its own seed so a
/// regression in one cell cannot hide behind another.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "core/model/oci.hpp"
#include "core/policy/factory.hpp"
#include "io/storage_model.hpp"
#include "sim/batch.hpp"
#include "sim/engine.hpp"
#include "sim/failure_source.hpp"
#include "sim/sweep.hpp"
#include "stats/exponential.hpp"
#include "stats/lognormal.hpp"
#include "stats/weibull.hpp"

namespace {

using namespace lazyckpt;

struct GoldenRow {
  const char* policy;    ///< core::make_policy spec
  const char* dist;      ///< "exponential" | "weibull" | "lognormal"
  double blocking;       ///< checkpoint_blocking_fraction
  double budget;         ///< time_budget_hours (0 = unlimited)
  std::uint64_t seed;    ///< RNG seed for the failure stream
  const char* expected;  ///< hexfloat rendering recorded from the seed engine
};

// clang-format off
constexpr GoldenRow kGolden[] = {
    {"static-oci", "exponential", 1.0, 0.0, 9001,
     "0x1.1e03425af7c2ep+8 0x1.9p+7 0x1.08p+5 0x1.401a12d7be178p+5 0x1.ap+3 26 66 0 0x1.08p+7"},
    {"static-oci", "exponential", 1.0, 120.0, 9002,
     "0x1.ep+6 0x1.2b2aab5ba315p+6 0x1.9p+3 0x1.8355529173ab9p+4 0x1.1p+3 18 25 0 0x1.9p+5"},
    {"static-oci", "exponential", 0.6, 0.0, 9003,
     "0x1.0aa18d7471eap+8 0x1.9p+7 0x1.466666666666ep+4 0x1.21d938705c1bp+5 0x1.4p+3 21 66 0 0x1.08p+7"},
    {"static-oci", "exponential", 0.6, 120.0, 9004,
     "0x1.ep+6 0x1.670000d45d4c7p+6 0x1.2p+3 0x1.13fffcae8acf5p+4 0x1p+2 8 30 0 0x1.ep+5"},
    {"ilazy:0.6", "exponential", 1.0, 0.0, 9005,
     "0x1.362d0489fe265p+8 0x1.9p+7 0x1.cp+4 0x1.0eb41227f8993p+6 0x1.dp+3 30 56 0 0x1.cp+6"},
    {"ilazy:0.6", "exponential", 1.0, 120.0, 9006,
     "0x1.ep+6 0x1.4c111b989fe1p+6 0x1.5p+3 0x1.57bb919d807cap+4 0x1.4p+2 10 21 0 0x1.5p+5"},
    {"ilazy:0.6", "exponential", 0.6, 0.0, 9007,
     "0x1.207b7dba2f9a3p+8 0x1.9p+7 0x1.f33333333333cp+3 0x1.eb0f2104b002dp+5 0x1.7p+3 26 50 0 0x1.9p+6"},
    {"ilazy:0.6", "exponential", 0.6, 120.0, 9008,
     "0x1.ep+6 0x1.544dda63c3caep+6 0x1.b999999999997p+2 0x1.7862300a8a6edp+4 0x1.2p+2 9 23 0 0x1.7p+5"},
    {"dynamic-oci", "exponential", 1.0, 0.0, 9009,
     "0x1.203b87d2df1a6p+8 0x1.9p+7 0x1.08p+5 0x1.51dc3e96f8d34p+5 0x1.ap+3 27 66 0 0x1.08p+7"},
    {"dynamic-oci", "exponential", 1.0, 120.0, 9010,
     "0x1.ep+6 0x1.579ffdb6a2982p+6 0x1.9p+3 0x1.21800925759fbp+4 0x1.cp+1 7 25 0 0x1.9p+5"},
    {"dynamic-oci", "exponential", 0.6, 0.0, 9011,
     "0x1.09a693b4b72dcp+8 0x1.9p+7 0x1.71999999999a3p+4 0x1.0467d0d8ec9edp+5 0x1.4p+3 21 74 0 0x1.28p+7"},
    {"dynamic-oci", "exponential", 0.6, 120.0, 9012,
     "0x1.ep+6 0x1.64cc2ec934d22p+6 0x1.f33333333333p+2 0x1.2002780e5feb7p+4 0x1.4p+2 10 26 0 0x1.ap+5"},
    {"linear:0.1", "exponential", 1.0, 0.0, 9013,
     "0x1.314bd33ac5c76p+8 0x1.9p+7 0x1.f8p+4 0x1.d25e99d62e3acp+5 0x1.fp+3 33 63 0 0x1.f8p+6"},
    {"linear:0.1", "exponential", 1.0, 120.0, 9014,
     "0x1.ep+6 0x1.618000bf20c49p+6 0x1.bp+3 0x1.e3fffa06f9dbap+3 0x1.8p+1 9 27 0 0x1.bp+5"},
    {"linear:0.1", "exponential", 0.6, 0.0, 9015,
     "0x1.0d58eeb17d5afp+8 0x1.9p+7 0x1.2e6666666666dp+4 0x1.3f944258b7a13p+5 0x1.5p+3 23 62 0 0x1.fp+6"},
    {"linear:0.1", "exponential", 0.6, 120.0, 9016,
     "0x1.ep+6 0x1.598000bf20c4ap+6 0x1.0333333333332p+3 0x1.48666369e354fp+4 0x1.4p+2 10 27 0 0x1.bp+5"},
    {"skip2:ilazy:0.6", "exponential", 1.0, 0.0, 9017,
     "0x1.535f89a45fbdfp+8 0x1.9p+7 0x1.58p+4 0x1.917e26917ef79p+6 0x1.18p+4 36 43 17 0x1.58p+6"},
    {"skip2:ilazy:0.6", "exponential", 1.0, 120.0, 9018,
     "0x1.ep+6 0x1.1b0b5dcae604bp+6 0x1.ep+2 0x1.19e9446a33f6cp+5 0x1.ap+2 14 15 6 0x1.ep+4"},
    {"skip2:ilazy:0.6", "exponential", 0.6, 0.0, 9019,
     "0x1.069518043ba22p+8 0x1.9p+7 0x1.599999999999cp+3 0x1.6a4259bb76a84p+5 0x1.ap+2 15 36 13 0x1.2p+6"},
    {"skip2:ilazy:0.6", "exponential", 0.6, 120.0, 9020,
     "0x1.ep+6 0x1.3a3adf3cbff36p+6 0x1.5999999999998p+2 0x1.f8ae1ca699ccbp+4 0x1.2p+2 9 17 6 0x1.1p+5"},
    {"bounded-ilazy:0.6", "exponential", 1.0, 0.0, 9021,
     "0x1.3610796636f6p+8 0x1.9p+7 0x1.08p+5 0x1.e083cb31b7afp+5 0x1.1p+4 38 66 0 0x1.08p+7"},
    {"bounded-ilazy:0.6", "exponential", 1.0, 120.0, 9022,
     "0x1.ep+6 0x1.50bb1c098a3f6p+6 0x1.bp+3 0x1.1d138fd9d7025p+4 0x1.2p+2 9 27 0 0x1.bp+5"},
    {"bounded-ilazy:0.6", "exponential", 0.6, 0.0, 9023,
     "0x1.1912c4f975fe6p+8 0x1.9p+7 0x1.466666666666ep+4 0x1.7162f4987cbc7p+5 0x1.dp+3 30 66 0 0x1.08p+7"},
    {"bounded-ilazy:0.6", "exponential", 0.6, 120.0, 9024,
     "0x1.ep+6 0x1.60e620e9a2751p+6 0x1.2p+3 0x1.24677c59762c7p+4 0x1.2p+2 9 29 0 0x1.dp+5"},
    {"static-oci", "weibull", 1.0, 0.0, 9025,
     "0x1.07d142deb81bdp+8 0x1.9p+7 0x1.08p+5 0x1.85142deb81befp+4 0x1.ap+2 13 66 0 0x1.08p+7"},
    {"static-oci", "weibull", 1.0, 120.0, 9026,
     "0x1.ep+6 0x1.7eeeefd17495dp+6 0x1p+4 0x1.b11102e8b6a38p+2 0x1.8p+0 4 32 0 0x1p+6"},
    {"static-oci", "weibull", 0.6, 0.0, 9027,
     "0x1.12deeb5a4fe0cp+8 0x1.9p+7 0x1.3ccccccccccd4p+4 0x1.5c90f46c189d6p+5 0x1.7p+3 25 66 0 0x1.08p+7"},
    {"static-oci", "weibull", 0.6, 120.0, 9028,
     "0x1.ep+6 0x1.4f1111d746031p+6 0x1.2p+3 0x1.3bbbb8a2e7f4bp+4 0x1.ep+2 18 28 0 0x1.cp+5"},
    {"ilazy:0.6", "weibull", 1.0, 0.0, 9029,
     "0x1.17720e5fb45acp+8 0x1.9p+7 0x1.28p+4 0x1.8b9072fda2d6cp+5 0x1.7p+3 30 37 0 0x1.28p+6"},
    {"ilazy:0.6", "weibull", 1.0, 120.0, 9030,
     "0x1.ep+6 0x1.6546f4fb88099p+6 0x1.1p+3 0x1.32e42c11dfdap+4 0x1.8p+1 7 17 0 0x1.1p+5"},
    {"ilazy:0.6", "weibull", 0.6, 0.0, 9031,
     "0x1.05cc9040d23c5p+8 0x1.9p+7 0x1.9ccccccccccd2p+3 0x1.3f314ed35eaep+5 0x1.2p+3 24 42 0 0x1.5p+6"},
    {"ilazy:0.6", "weibull", 0.6, 120.0, 9032,
     "0x1.ep+6 0x1.3cbdf4f0c9b1bp+6 0x1.6cccccccccccbp+2 0x1.f1d4f909a606ap+4 0x1p+2 9 18 0 0x1.2p+5"},
    {"dynamic-oci", "weibull", 1.0, 0.0, 9033,
     "0x1.20e7907236d83p+8 0x1.9p+7 0x1.34p+5 0x1.333c8391b6c4p+5 0x1.8p+3 31 77 0 0x1.34p+7"},
    {"dynamic-oci", "weibull", 1.0, 120.0, 9034,
     "0x1.ep+6 0x1.585f9adf12ab9p+6 0x1p+4 0x1.bd0329076aa3p+3 0x1p+2 9 32 0 0x1p+6"},
    {"dynamic-oci", "weibull", 0.6, 0.0, 9035,
     "0x1.0f466444e1b69p+8 0x1.9p+7 0x1.b9999999999a6p+4 0x1.0566555a40e3p+5 0x1.6p+3 31 90 0 0x1.68p+7"},
    {"dynamic-oci", "weibull", 0.6, 120.0, 9036,
     "0x1.ep+6 0x1.60820863d2bc7p+6 0x1.1666666666666p+3 0x1.32c4ab3d81dbbp+4 0x1p+2 9 28 0 0x1.cp+5"},
    {"linear:0.1", "weibull", 1.0, 0.0, 9037,
     "0x1.071523b5ff775p+8 0x1.9p+7 0x1.c8p+4 0x1.a9523b5ff775p+4 0x1p+3 22 57 0 0x1.c8p+6"},
    {"linear:0.1", "weibull", 1.0, 120.0, 9038,
     "0x1.ep+6 0x1.5a4ccd8bed917p+6 0x1.bp+3 0x1.cd9993a09374ep+3 0x1.6p+2 14 27 0 0x1.bp+5"},
    {"linear:0.1", "weibull", 0.6, 0.0, 9039,
     "0x1.f713380f4d14p+7 0x1.9p+7 0x1.0ccccccccccd2p+4 0x1.a3ccf3ad9bcf8p+4 0x1.1p+3 23 55 0 0x1.b8p+6"},
    {"linear:0.1", "weibull", 0.6, 120.0, 9040,
     "0x1.ep+6 0x1.8f1111d74602dp+6 0x1.0ccccccccccccp+3 0x1.3aaaa479031e2p+3 0x1p+1 5 28 0 0x1.cp+5"},
    {"skip2:ilazy:0.6", "weibull", 1.0, 0.0, 9041,
     "0x1.636e575ee00c7p+8 0x1.9p+7 0x1.5p+4 0x1.c9b95d7b80317p+6 0x1.4p+4 46 42 13 0x1.5p+6"},
    {"skip2:ilazy:0.6", "weibull", 1.0, 120.0, 9042,
     "0x1.ep+6 0x1.5dac8c91fef43p+6 0x1p+3 0x1.594dcdb8042f4p+4 0x1.8p+1 6 16 3 0x1p+5"},
    {"skip2:ilazy:0.6", "weibull", 0.6, 0.0, 9043,
     "0x1.344032cec0105p+8 0x1.9p+7 0x1.766666666666ap+3 0x1.4233fe6e3373cp+6 0x1p+4 40 39 14 0x1.38p+6"},
    {"skip2:ilazy:0.6", "weibull", 0.6, 120.0, 9044,
     "0x1.ep+6 0x1.4092167875d18p+6 0x1.3333333333332p+2 0x1.e0ead9515bee2p+4 0x1.4p+2 15 16 4 0x1p+5"},
    {"bounded-ilazy:0.6", "weibull", 1.0, 0.0, 9045,
     "0x1.1dab8292b5888p+8 0x1.9p+7 0x1.08p+5 0x1.295c1495ac42bp+5 0x1.fp+3 40 66 0 0x1.08p+7"},
    {"bounded-ilazy:0.6", "weibull", 1.0, 120.0, 9046,
     "0x1.ep+6 0x1.5c00942d8c06ep+6 0x1.dp+3 0x1.cffb5e939fc8fp+3 0x1p+2 11 29 0 0x1.dp+5"},
    {"bounded-ilazy:0.6", "weibull", 0.6, 0.0, 9047,
     "0x1.f87bbec429ccbp+7 0x1.9p+7 0x1.3800000000007p+4 0x1.83ddf6214e61ep+4 0x1.1p+3 25 64 0 0x1p+7"},
    {"bounded-ilazy:0.6", "weibull", 0.6, 120.0, 9048,
     "0x1.ep+6 0x1.4f1111d746031p+6 0x1.1666666666666p+3 0x1.4888856fb4c16p+4 0x1.cp+2 16 28 0 0x1.cp+5"},
    {"static-oci", "lognormal", 1.0, 0.0, 9049,
     "0x1.22481254ed189p+8 0x1.9p+7 0x1.08p+5 0x1.5a4092a768c3dp+5 0x1.cp+3 28 66 0 0x1.08p+7"},
    {"static-oci", "lognormal", 1.0, 120.0, 9050,
     "0x1.ep+6 0x1.133bbc5e8bcbap+6 0x1.7p+3 0x1.05888742e8688p+5 0x1.cp+2 14 23 0 0x1.7p+5"},
    {"static-oci", "lognormal", 0.6, 0.0, 9051,
     "0x1.0b1337ba45a65p+8 0x1.9p+7 0x1.41999999999a1p+4 0x1.1fccf1056063ap+5 0x1.6p+3 22 66 0 0x1.08p+7"},
    {"static-oci", "lognormal", 0.6, 120.0, 9052,
     "0x1.ep+6 0x1.8ae66750003a8p+6 0x1.3cccccccccccep+3 0x1.1bfff8b33161ap+3 0x1.4p+1 5 33 0 0x1.08p+6"},
    {"ilazy:0.6", "lognormal", 1.0, 0.0, 9053,
     "0x1.fb6d39f2680fdp+7 0x1.9p+7 0x1.78p+4 0x1.6b69cf93407f2p+4 0x1.ep+2 15 47 0 0x1.78p+6"},
    {"ilazy:0.6", "lognormal", 1.0, 120.0, 9054,
     "0x1.ep+6 0x1.328c9fb4ae32ep+6 0x1.7p+3 0x1.95cd812d4734dp+4 0x1.ap+2 13 23 0 0x1.7p+5"},
    {"ilazy:0.6", "lognormal", 0.6, 0.0, 9055,
     "0x1.581df40003846p+8 0x1.9p+7 0x1.166666666666cp+4 0x1.94de36667475bp+6 0x1.98p+4 51 57 0 0x1.c8p+6"},
    {"ilazy:0.6", "lognormal", 0.6, 120.0, 9056,
     "0x1.ep+6 0x1.3e77cdf618864p+6 0x1.b999999999997p+2 0x1.b7ba61c137812p+4 0x1.8p+2 12 23 0 0x1.7p+5"},
    {"dynamic-oci", "lognormal", 1.0, 0.0, 9057,
     "0x1.363de6f19e89ep+8 0x1.9p+7 0x1.4cp+5 0x1.95ef378cf44f1p+5 0x1.2p+4 36 83 0 0x1.4cp+7"},
    {"dynamic-oci", "lognormal", 1.0, 120.0, 9058,
     "0x1.ep+6 0x1.52f3dbb5d6ad5p+6 0x1.1p+4 0x1.986122514a93ap+3 0x1.6p+2 12 34 0 0x1.1p+6"},
    {"dynamic-oci", "lognormal", 0.6, 0.0, 9059,
     "0x1.1d3f4de6ab159p+8 0x1.9p+7 0x1.54cccccccccd5p+4 0x1.8b9408cef2425p+5 0x1.dp+3 29 68 0 0x1.1p+7"},
    {"dynamic-oci", "lognormal", 0.6, 120.0, 9060,
     "0x1.ep+6 0x1.78e2f173c09dap+6 0x1.cccccccccccd4p+3 0x1.1c1ba7952e47ep+3 0x1.4p+1 5 46 0 0x1.7p+6"},
    {"linear:0.1", "lognormal", 1.0, 0.0, 9061,
     "0x1.2186a3f8081bep+8 0x1.9p+7 0x1.e8p+4 0x1.78351fc040dfep+5 0x1.8p+3 24 61 0 0x1.e8p+6"},
    {"linear:0.1", "lognormal", 1.0, 120.0, 9062,
     "0x1.ep+6 0x1.0ee666fb0e1bdp+6 0x1.5p+3 0x1.16333209e3c88p+5 0x1.cp+2 14 21 0 0x1.5p+5"},
    {"linear:0.1", "lognormal", 0.6, 0.0, 9063,
     "0x1.f1f57a28883d1p+7 0x1.9p+7 0x1.0800000000005p+4 0x1.a7abd14441e46p+4 0x1.8p+2 12 53 0 0x1.a8p+6"},
    {"linear:0.1", "lognormal", 0.6, 120.0, 9064,
     "0x1.ep+6 0x1.41eeefa6fb865p+6 0x1.f33333333333p+2 0x1.8b777497451aep+4 0x1.cp+2 14 26 0 0x1.ap+5"},
    {"skip2:ilazy:0.6", "lognormal", 1.0, 0.0, 9065,
     "0x1.53a103e94b4e6p+8 0x1.9p+7 0x1.58p+4 0x1.96840fa52d38dp+6 0x1.08p+4 33 43 16 0x1.58p+6"},
    {"skip2:ilazy:0.6", "lognormal", 1.0, 120.0, 9066,
     "0x1.ep+6 0x1.2eb4b2f7b18d2p+6 0x1p+3 0x1.e52d342139cbfp+4 0x1.8p+2 12 16 4 0x1p+5"},
    {"skip2:ilazy:0.6", "lognormal", 0.6, 0.0, 9067,
     "0x1.391b8ab97102dp+8 0x1.9p+7 0x1.9ccccccccccd2p+3 0x1.4ad4914c2a7p+6 0x1.18p+4 35 42 14 0x1.5p+6"},
    {"skip2:ilazy:0.6", "lognormal", 0.6, 120.0, 9068,
     "0x1.ep+6 0x1.0a498944bb9cep+6 0x1.5999999999998p+2 0x1.4439ba4355935p+5 0x1.ep+2 15 17 6 0x1.1p+5"},
    {"bounded-ilazy:0.6", "lognormal", 1.0, 0.0, 9069,
     "0x1.305510f3fa89p+8 0x1.9p+7 0x1.04p+5 0x1.c2a8879fd4466p+5 0x1.fp+3 31 65 0 0x1.04p+7"},
    {"bounded-ilazy:0.6", "lognormal", 1.0, 120.0, 9070,
     "0x1.ep+6 0x1.34510ddb68c4fp+6 0x1.9p+3 0x1.86bbc8925cec3p+4 0x1.8p+2 12 25 0 0x1.9p+5"},
    {"bounded-ilazy:0.6", "lognormal", 0.6, 0.0, 9071,
     "0x1.1f459a9a55ce6p+8 0x1.9p+7 0x1.3800000000007p+4 0x1.b62cd4d2ae7p+5 0x1.ap+3 26 65 0 0x1.04p+7"},
    {"bounded-ilazy:0.6", "lognormal", 0.6, 120.0, 9072,
     "0x1.ep+6 0x1.5e92725baa6a8p+6 0x1.1666666666666p+3 0x1.2283035e23238p+4 0x1.6p+2 11 29 0 0x1.dp+5"},
};
// clang-format on

stats::DistributionPtr make_dist(const std::string& name) {
  if (name == "exponential") {
    return std::make_unique<stats::Exponential>(
        stats::Exponential::from_mean(11.0));
  }
  if (name == "weibull") {
    return std::make_unique<stats::Weibull>(
        stats::Weibull::from_mtbf_and_shape(11.0, 0.6));
  }
  return std::make_unique<stats::LogNormal>(std::log(11.0) - 0.5, 1.0);
}

sim::SimulationConfig make_config(const GoldenRow& row) {
  sim::SimulationConfig config;
  config.compute_hours = 200.0;
  config.alpha_oci_hours = core::daly_oci(0.5, 11.0);
  config.mtbf_hint_hours = 11.0;
  config.shape_hint = 0.6;
  config.checkpoint_blocking_fraction = row.blocking;
  config.time_budget_hours = row.budget;
  return config;
}

/// The exact format string the recorder used — `%a` round-trips doubles,
/// so string equality here is bit equality on every field.
std::string format_metrics(const sim::RunMetrics& run) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), "%a %a %a %a %a %llu %llu %llu %a",
                run.makespan_hours, run.compute_hours, run.checkpoint_hours,
                run.wasted_hours, run.restart_hours,
                static_cast<unsigned long long>(run.failures),
                static_cast<unsigned long long>(run.checkpoints_written),
                static_cast<unsigned long long>(run.checkpoints_skipped),
                run.data_written_gb);
  return buf;
}

std::string row_label(const GoldenRow& row) {
  return std::string(row.dist) + " / " + row.policy +
         " / blocking=" + std::to_string(row.blocking) +
         " / budget=" + std::to_string(row.budget);
}

enum class Path { kFast, kGeneric };

sim::RunMetrics run_row(const GoldenRow& row, Path path,
                        bool record_timeline = false,
                        const sim::ContextHook& hook = {}) {
  auto config = make_config(row);
  config.record_timeline = record_timeline;
  const io::ConstantStorage storage(0.5, 0.5, 2.0);
  const auto policy = core::make_policy(row.policy);
  sim::RenewalFailureSource source(make_dist(row.dist), Rng(row.seed));
  return path == Path::kFast
             ? sim::simulate(config, *policy, source, storage, hook)
             : sim::simulate_generic(config, *policy, source, storage, hook);
}

void expect_bits(double lhs, double rhs, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(lhs),
            std::bit_cast<std::uint64_t>(rhs))
      << what << ": " << lhs << " vs " << rhs;
}

/// Full bit-identity on a RunMetrics pair, recorded timeline included.
void expect_run_bits(const sim::RunMetrics& got, const sim::RunMetrics& want,
                     const std::string& label) {
  expect_bits(got.makespan_hours, want.makespan_hours, label + " makespan");
  expect_bits(got.compute_hours, want.compute_hours, label + " compute");
  expect_bits(got.checkpoint_hours, want.checkpoint_hours,
              label + " checkpoint");
  expect_bits(got.wasted_hours, want.wasted_hours, label + " wasted");
  expect_bits(got.restart_hours, want.restart_hours, label + " restart");
  expect_bits(got.data_written_gb, want.data_written_gb,
              label + " data_written");
  EXPECT_EQ(got.failures, want.failures) << label;
  EXPECT_EQ(got.checkpoints_written, want.checkpoints_written) << label;
  EXPECT_EQ(got.checkpoints_skipped, want.checkpoints_skipped) << label;

  ASSERT_EQ(got.timeline.size(), want.timeline.size()) << label;
  for (std::size_t i = 0; i < got.timeline.size(); ++i) {
    const auto& a = got.timeline[i];
    const auto& b = want.timeline[i];
    const std::string point = label + " timeline[" + std::to_string(i) + "]";
    expect_bits(a.time_hours, b.time_hours, point + " time");
    expect_bits(a.compute_hours, b.compute_hours, point + " compute");
    expect_bits(a.checkpoint_hours, b.checkpoint_hours, point + " checkpoint");
    expect_bits(a.wasted_hours, b.wasted_hours, point + " wasted");
    expect_bits(a.restart_hours, b.restart_hours, point + " restart");
  }
}

/// Set-and-restore for the env knobs the batched sweep reads.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (old_.has_value()) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

TEST(EngineGolden, FastPathMatchesRecordedSeedOutputs) {
  for (const auto& row : kGolden) {
    EXPECT_EQ(format_metrics(run_row(row, Path::kFast)), row.expected)
        << row_label(row);
  }
}

TEST(EngineGolden, GenericPathMatchesRecordedSeedOutputs) {
  for (const auto& row : kGolden) {
    EXPECT_EQ(format_metrics(run_row(row, Path::kGeneric)), row.expected)
        << row_label(row);
  }
}

// The full-rebuild context scheme (taken whenever a ContextHook is
// installed) must be observationally identical to the incremental refresh
// the hookless fast path uses.  An identity hook flips the scheme without
// perturbing any value.
TEST(EngineGolden, HookPathMatchesRecordedSeedOutputs) {
  const sim::ContextHook identity = [](core::PolicyContext&) {};
  for (const auto& row : kGolden) {
    EXPECT_EQ(format_metrics(
                  run_row(row, Path::kFast, /*record_timeline=*/false,
                          identity)),
              row.expected)
        << row_label(row) << " [fast+hook]";
    EXPECT_EQ(format_metrics(
                  run_row(row, Path::kGeneric, /*record_timeline=*/false,
                          identity)),
              row.expected)
        << row_label(row) << " [generic+hook]";
  }
}

// Beyond the scalar metrics: with timeline recording on, the fast and
// generic paths must emit bit-identical TimelinePoint sequences — same
// event count, same timestamps, same cumulative buckets.
TEST(EngineGolden, FastAndGenericBitIdenticalIncludingTimeline) {
  for (const auto& row : kGolden) {
    const auto fast = run_row(row, Path::kFast, /*record_timeline=*/true);
    const auto generic =
        run_row(row, Path::kGeneric, /*record_timeline=*/true);
    expect_run_bits(fast, generic, row_label(row));
  }
}

// The batched SoA kernel (sim/batch.hpp) against the recorded seed
// strings: a batch of one replica whose stream is exactly the golden
// Rng(seed) must reproduce every row character-for-character.  The
// eligible rows (static-oci, ilazy over ConstantStorage) take the
// lockstep fast path; every other policy takes the kernel's transparent
// per-replica fallback — both must land on the recorded bytes.
TEST(EngineGolden, BatchKernelMatchesRecordedSeedOutputs) {
  for (const auto& row : kGolden) {
    const auto config = make_config(row);
    const io::ConstantStorage storage(0.5, 0.5, 2.0);
    const auto policy = core::make_policy(row.policy);
    const auto dist = make_dist(row.dist);
    std::vector<Rng> streams{Rng(row.seed)};
    std::vector<sim::RunMetrics> out(1);
    sim::simulate_batch(config, *policy, *dist, storage, streams, out);
    EXPECT_EQ(format_metrics(out[0]), row.expected)
        << row_label(row) << " [batch]";
  }
}

// The batched sweep against the scalar per-replica loop it replaces:
// identical streams, identical results — timelines included — for every
// batch size (full batches, partial tails, batch-of-one) and every
// worker-pool width.  This is the tentpole's bit-identity contract at
// the sweep level: batching may change only *when* values are computed,
// never which values.
TEST(EngineGolden, BatchedSweepBitIdenticalToScalarAcrossShapes) {
  constexpr std::size_t kReplicas = 13;  // 13 = 8 + 5: forces a tail batch
  constexpr std::size_t kBatchSizes[] = {1, 8, 64};
  constexpr const char* kThreadCounts[] = {"1", "2", "8"};
  for (const auto& row : kGolden) {
    auto config = make_config(row);
    config.record_timeline = true;
    const io::ConstantStorage storage(0.5, 0.5, 2.0);
    const auto policy = core::make_policy(row.policy);
    const auto dist = make_dist(row.dist);

    // Scalar reference over the exact streams the sweeps derive: split
    // from the master in index order, one fresh policy clone per replica.
    Rng master(row.seed);
    std::vector<Rng> streams;
    streams.reserve(kReplicas);
    for (std::size_t i = 0; i < kReplicas; ++i) {
      streams.push_back(master.split());
    }
    std::vector<sim::RunMetrics> reference;
    reference.reserve(kReplicas);
    for (std::size_t i = 0; i < kReplicas; ++i) {
      sim::RenewalFailureSource source(*dist, streams[i]);
      const auto replica_policy = policy->clone();
      reference.push_back(
          sim::simulate(config, *replica_policy, source, storage));
    }

    for (const std::size_t batch : kBatchSizes) {
      for (const char* threads : kThreadCounts) {
        const ScopedEnv env("LAZYCKPT_THREADS", threads);
        const auto got = sim::run_replicas_batched(
            config, *policy, *dist, storage, kReplicas, row.seed, batch);
        ASSERT_EQ(got.size(), kReplicas);
        for (std::size_t i = 0; i < kReplicas; ++i) {
          expect_run_bits(got[i], reference[i],
                          row_label(row) + " batch=" + std::to_string(batch) +
                              " threads=" + threads + " replica " +
                              std::to_string(i));
        }
      }
    }
  }
}

// Timeline recording forces the kernel onto its scalar rounds, so the
// sweep test above never reaches the AVX-512 round pass with more than
// the 72-row single-replica batches.  This variant drops the timeline —
// the configuration the vector pass actually serves — and runs enough
// replicas for full eight-lane chunks plus a masked tail, against the
// same scalar per-replica reference.
TEST(EngineGolden, BatchedSweepBitIdenticalWithoutTimeline) {
  constexpr std::size_t kReplicas = 21;  // 21 = 2*8 + 5: full + tail lanes
  constexpr std::size_t kBatchSizes[] = {8, 21, 64};
  for (const auto& row : kGolden) {
    const auto config = make_config(row);
    const io::ConstantStorage storage(0.5, 0.5, 2.0);
    const auto policy = core::make_policy(row.policy);
    const auto dist = make_dist(row.dist);

    Rng master(row.seed);
    std::vector<Rng> streams;
    streams.reserve(kReplicas);
    for (std::size_t i = 0; i < kReplicas; ++i) {
      streams.push_back(master.split());
    }
    std::vector<sim::RunMetrics> reference;
    reference.reserve(kReplicas);
    for (std::size_t i = 0; i < kReplicas; ++i) {
      sim::RenewalFailureSource source(*dist, streams[i]);
      const auto replica_policy = policy->clone();
      reference.push_back(
          sim::simulate(config, *replica_policy, source, storage));
    }

    for (const std::size_t batch : kBatchSizes) {
      const auto got = sim::run_replicas_batched(config, *policy, *dist,
                                                 storage, kReplicas, row.seed,
                                                 batch);
      ASSERT_EQ(got.size(), kReplicas);
      for (std::size_t i = 0; i < kReplicas; ++i) {
        expect_run_bits(got[i], reference[i],
                        row_label(row) + " no-timeline batch=" +
                            std::to_string(batch) + " replica " +
                            std::to_string(i));
      }
    }
  }
}

// The 72 golden rows share β = γ = 0.5 and W = 200 h.  This differential
// draws configurations outside them from a fixed seed — shapes, costs,
// intervals, async fractions, budgets, timelines and all three eligible
// policies — and demands the batched sweep match per-replica simulate()
// bitwise at batch sizes {1, 8, 64}: 21 replicas fill two AVX-512 chunks
// plus a masked tail.
TEST(EngineGolden, BatchMatchesScalarOnRandomConfigs) {
  constexpr std::size_t kConfigs = 160;
  constexpr std::size_t kReplicas = 21;
  constexpr std::size_t kBatchSizes[] = {1, 8, 64};
  Rng grid(0x5eedba7c4ULL);
  // What the draws reached, so a reseed cannot silently drop a branch.
  std::size_t async_configs = 0, timeline_configs = 0, no_gamma_configs = 0;
  std::size_t truncated_runs = 0, finished_runs = 0;
  std::size_t policy_kinds[3] = {0, 0, 0};
  for (std::size_t c = 0; c < kConfigs; ++c) {
    const double mtbf = grid.uniform_in(5.0, 40.0);
    stats::DistributionPtr dist;
    std::string dist_label;
    switch (grid.uniform_index(3)) {
      case 0: {
        const double k = grid.uniform_in(0.4, 1.0);
        dist = std::make_unique<stats::Weibull>(
            stats::Weibull::from_mtbf_and_shape(mtbf, k));
        dist_label = "weibull k=" + std::to_string(k);
        break;
      }
      case 1:
        dist = std::make_unique<stats::Exponential>(
            stats::Exponential::from_mean(mtbf));
        dist_label = "exponential";
        break;
      default:
        dist = std::make_unique<stats::LogNormal>(std::log(mtbf) - 0.5, 1.0);
        dist_label = "lognormal";
        break;
    }
    const double beta = grid.uniform_in(0.05, 2.0);
    const double gamma =
        grid.uniform() < 0.25 ? 0.0 : grid.uniform_in(0.05, 2.0);
    const io::ConstantStorage storage(beta, gamma, 2.0);

    sim::SimulationConfig config;
    config.compute_hours = grid.uniform_in(20.0, 400.0);
    config.alpha_oci_hours =
        core::daly_oci(beta, mtbf) * grid.uniform_in(0.3, 3.0);
    config.mtbf_hint_hours = mtbf;
    config.shape_hint = grid.uniform_in(0.4, 1.0);
    config.checkpoint_blocking_fraction =
        grid.uniform() < 0.5 ? 1.0 : grid.uniform_in(0.2, 1.0);
    if (grid.uniform() < 0.5) {
      // Near the expected makespan, so both truncated and finished
      // replicas occur.
      config.time_budget_hours =
          config.compute_hours * grid.uniform_in(1.0, 1.8);
    }
    config.record_timeline = grid.uniform() < 0.5;

    char spec[64];
    const std::uint64_t kind = grid.uniform_index(3);
    ++policy_kinds[kind];
    switch (kind) {
      case 0:
        std::snprintf(spec, sizeof(spec), "static-oci");
        break;
      case 1:
        std::snprintf(spec, sizeof(spec), "periodic:%.4f",
                      config.alpha_oci_hours * grid.uniform_in(0.3, 3.0));
        break;
      default:
        std::snprintf(spec, sizeof(spec), "ilazy:%.4f",
                      grid.uniform_in(0.4, 1.0));
        break;
    }
    const auto policy = core::make_policy(spec);
    ASSERT_TRUE(sim::batch_eligible(*policy, storage)) << spec;
    const std::uint64_t seed = 70000 + c;
    const std::string label =
        "config " + std::to_string(c) + " (" + dist_label + " / " + spec +
        " / beta=" + std::to_string(beta) + " gamma=" +
        std::to_string(gamma) + " W=" + std::to_string(config.compute_hours) +
        " blocking=" + std::to_string(config.checkpoint_blocking_fraction) +
        " budget=" + std::to_string(config.time_budget_hours) +
        (config.record_timeline ? " timeline)" : ")");

    Rng master(seed);
    std::vector<sim::RunMetrics> reference;
    reference.reserve(kReplicas);
    for (std::size_t i = 0; i < kReplicas; ++i) {
      sim::RenewalFailureSource source(*dist, master.split());
      const auto replica_policy = policy->clone();
      reference.push_back(
          sim::simulate(config, *replica_policy, source, storage));
      const bool truncated =
          reference.back().compute_hours < config.compute_hours;
      ++(truncated ? truncated_runs : finished_runs);
    }
    async_configs += config.checkpoint_blocking_fraction < 1.0 ? 1 : 0;
    timeline_configs += config.record_timeline ? 1 : 0;
    no_gamma_configs += gamma == 0.0 ? 1 : 0;
    for (const std::size_t batch : kBatchSizes) {
      const auto got = sim::run_replicas_batched(
          config, *policy, *dist, storage, kReplicas, seed, batch);
      ASSERT_EQ(got.size(), kReplicas);
      for (std::size_t i = 0; i < kReplicas; ++i) {
        expect_run_bits(got[i], reference[i],
                        label + " batch=" + std::to_string(batch) +
                            " replica " + std::to_string(i));
      }
    }
  }

  EXPECT_GT(async_configs, 0u);
  EXPECT_GT(timeline_configs, 0u);
  EXPECT_GT(no_gamma_configs, 0u);
  EXPECT_GT(truncated_runs, 0u);
  EXPECT_GT(finished_runs, 0u);
  for (const std::size_t n : policy_kinds) EXPECT_GT(n, 0u);

  // An event cap both paths hit: the same message from either.
  sim::SimulationConfig capped;
  capped.compute_hours = 400.0;
  capped.alpha_oci_hours = 2.0;
  capped.mtbf_hint_hours = 11.0;
  capped.max_events = 5;
  const io::ConstantStorage storage(0.5, 0.5, 2.0);
  const auto dist = make_dist("weibull");
  for (const char* spec : {"static-oci", "periodic:1.5", "ilazy:0.6"}) {
    const auto policy = core::make_policy(spec);
    std::string scalar_error;
    try {
      Rng master(1);
      sim::RenewalFailureSource source(*dist, master.split());
      (void)sim::simulate(capped, *policy, source, storage);
    } catch (const std::exception& e) {
      scalar_error = e.what();
    }
    ASSERT_FALSE(scalar_error.empty()) << spec;
    for (const std::size_t batch : kBatchSizes) {
      try {
        (void)sim::run_replicas_batched(capped, *policy, *dist, storage,
                                        kReplicas, 1, batch);
        ADD_FAILURE() << spec << " batch=" << batch << ": no throw";
      } catch (const std::exception& e) {
        EXPECT_EQ(std::string(e.what()), scalar_error)
            << spec << " batch=" << batch;
      }
    }
  }
}

// The sweep entry point must dispatch to the batched kernel (and honor
// LAZYCKPT_BATCH=0 as the scalar escape hatch) without changing a byte.
TEST(EngineGolden, SweepDispatchBatchedEqualsScalar) {
  const GoldenRow& row = kGolden[30];  // ilazy:0.6 / weibull — eligible
  const auto config = make_config(row);
  const io::ConstantStorage storage(0.5, 0.5, 2.0);
  const auto policy = core::make_policy(row.policy);
  const auto dist = make_dist(row.dist);
  ASSERT_TRUE(sim::batch_eligible(*policy, storage));

  std::vector<sim::RunMetrics> scalar;
  {
    const ScopedEnv env("LAZYCKPT_BATCH", "0");
    scalar = sim::run_replicas_raw(config, *policy, *dist, storage, 30,
                                   row.seed);
  }
  std::vector<sim::RunMetrics> batched;
  {
    const ScopedEnv env("LAZYCKPT_BATCH", "8");
    batched = sim::run_replicas_raw(config, *policy, *dist, storage, 30,
                                    row.seed);
  }
  ASSERT_EQ(scalar.size(), batched.size());
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    EXPECT_EQ(format_metrics(batched[i]), format_metrics(scalar[i]))
        << "replica " << i;
  }
}

// Sanity on the harness itself: the grid covers every dimension it claims
// to, with one distinct seed per cell.
TEST(EngineGolden, GridCoversClaimedDimensions) {
  constexpr std::size_t kRows = std::size(kGolden);
  EXPECT_EQ(kRows, 72u);
  std::uint64_t expected_seed = 9000;
  for (const auto& row : kGolden) {
    EXPECT_EQ(row.seed, ++expected_seed);
  }
}

}  // namespace
