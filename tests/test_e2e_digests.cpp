// End-to-end goldens: every built-in scenario, run at its full replica
// count through spec::ScenarioRunner, must serialize to the committed
// content digest.  One ctest case per scenario, so a failure names the
// scenario whose output moved.  A digest changes only when a scenario's
// results change in any bit (a 13th-digit shift in one mean is enough);
// re-record one only for a change that is meant to move that scenario's
// numbers, and say so.

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "cache/serialize.hpp"
#include "common/digest.hpp"
#include "spec/catalog.hpp"
#include "spec/runner.hpp"

namespace lazyckpt::spec {
namespace {

struct ScenarioDigest {
  const char* name;
  const char* digest;
};

constexpr ScenarioDigest kDigests[] = {
    {"campaign-week", "f9deaafe701aa04cb43578b1cc4c34fc"},
    {"fig01-exascale-100K", "97d36b765b70b97b2dc98acbb1752a0b"},
    {"fig01-petascale-10K", "4058464224d14c2f973bba924d769f1f"},
    {"fig01-petascale-20K", "a336458d6c461cd50d1cb561c8aa6c85"},
    {"fig04-exascale-100K", "f0a10e7460409159f5cf6d0942e0a769"},
    {"fig04-petascale-20K", "cc2c79380fd04f3f2539a07df3754b4f"},
    {"fig13", "0e6981fe207e51b435f99f62bd105024"},
    {"fig14-exascale-100K", "1856a7dc2f4fefe0e51964af5cd63ab0"},
    {"fig14-petascale-20K", "14c2226e99747e36bf97639bc4450da6"},
    {"fig15-petascale-20K", "494d11185f07ae5c8db940330d5a4d4c"},
    {"fig16", "95ecfb51b2217101a7e9b19160df8731"},
    {"fig19", "341ebcb0f7bd9ef0675b44537aa81ec0"},
    {"fig20", "5807f6a2eb324c700fa8dc4f0dc55680"},
    {"fig21", "6f5fd7dd4743ff32d6a867d4a11b0342"},
    {"hero", "aa8586ec8d2df1aba623fadd52023cbb"},
    {"quickstart", "7f4115d49324fc8c82234a87527fcbdc"},
    {"spider-trace", "8a58bccb3a236b8ca0be736742713afc"},
    {"tier-pfs-petascale-20K", "e9f980f00ad3dbd15574411744429d61"},
    {"tier-bb-petascale-20K", "21a3225d7dcc2a2abf6705164a077c7a"},
    {"tier-mem3-petascale-20K", "985db18516bccbd7296f1d4671ea5d67"},
    {"tier-pfs-exascale-100K", "d0c821e613f9f209936586b23faece59"},
    {"tier-bb-exascale-100K", "019f8b13c63983cde8907e0f71af627d"},
    {"tier-mem3-exascale-100K", "1d1b6999f206d7117fcf3af7daad0621"},
};

std::vector<std::string> catalog_names() {
  std::vector<std::string> names;
  for (const Scenario& scenario : builtin_scenarios()) {
    names.push_back(scenario.name);
  }
  return names;
}

class BuiltinScenarioDigest : public ::testing::TestWithParam<std::string> {
};

TEST_P(BuiltinScenarioDigest, MatchesCommittedDigest) {
  const Scenario* scenario = nullptr;
  for (const Scenario& candidate : builtin_scenarios()) {
    if (candidate.name == GetParam()) scenario = &candidate;
  }
  ASSERT_NE(scenario, nullptr);
  const char* expected = nullptr;
  for (const ScenarioDigest& entry : kDigests) {
    if (GetParam() == entry.name) expected = entry.digest;
  }
  ASSERT_NE(expected, nullptr) << "no committed digest for " << GetParam();

  const ScenarioResult result = ScenarioRunner{}.run(*scenario);
  EXPECT_EQ(content_digest_hex(cache::serialize_result(result)), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, BuiltinScenarioDigest, ::testing::ValuesIn(catalog_names()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      std::string name = param_info.param;
      for (auto& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace lazyckpt::spec
