/// Ablation: single-level vs two-level (burst buffer + PFS) checkpointing,
/// and iLazy layered on both — extending the paper's Obs. 7 into the
/// storage architecture where fast checkpoints actually live.
///
/// Scenario-driven since the N-tier hierarchy landed (DESIGN.md §5k): each
/// row is a hierarchy Scenario run through spec::ScenarioRunner, which
/// pre-splits the per-replica RNG streams in the same order as the
/// historical serial loop — the table is byte-identical to the pre-
/// migration hand-wired version.

#include "core/model/oci.hpp"

#include "bench_common.hpp"

using namespace lazyckpt;
using namespace lazyckpt::bench;

namespace {

spec::Scenario two_level_scenario(int l2_every, double alpha_ref) {
  spec::Scenario s;
  s.name = "ablation-tiered";
  s.distribution = "weibull:mtbf=11,k=0.6";
  s.tiers = {"bb:beta=0.05,survivable=0.8",
             "pfs:beta=0.5,every=" + std::to_string(l2_every)};
  s.compute_hours = 400.0;
  s.oci_hours = alpha_ref;
  s.mtbf_hint_hours = 11.0;
  s.shape_hint = 0.6;
  s.replicas = 100;
  s.seed = 43;
  return s;
}

spec::Scenario single_level_scenario(double alpha_ref) {
  // Model the classic PFS-only scheme inside the same engine: both tiers
  // cost the same and every failure can restart from the last checkpoint.
  auto s = two_level_scenario(1000000, alpha_ref);
  s.tiers[0] = "bb:beta=0.5,survivable=1";
  return s;
}

sim::HierarchyAggregate run_mean(spec::Scenario scenario,
                                 const std::string& policy_spec) {
  scenario.policy = policy_spec;
  const auto result = spec::ScenarioRunner().run(scenario);
  return *result.hierarchy;
}

}  // namespace

int main() {
  print_banner("Ablation — two-level (burst-buffer) checkpointing + iLazy");
  print_params(
      "W=400 h, L1 beta=0.05 h, L2 beta=0.5 h, 80% of failures "
      "L1-survivable, MTBF 11 h, k=0.6, 100 replicas, seed 43");

  const double alpha_l1 = core::daly_oci(0.05, 11.0);
  const double alpha_pfs = core::daly_oci(0.5, 11.0);

  TextTable table({"scheme", "makespan (h)", "ckpt I/O total (h)",
                   "L2 I/O (h)", "wasted (h)"});
  const auto row = [&](const char* label, const sim::HierarchyAggregate& m) {
    table.add_row({label, TextTable::num(m.mean_makespan_hours),
                   TextTable::num(m.mean_io_hours()),
                   TextTable::num(m.tiers[1].mean_io_hours),
                   TextTable::num(m.mean_wasted_hours)});
  };

  row("single-level PFS, OCI",
      run_mean(single_level_scenario(alpha_pfs), "static-oci"));
  row("single-level PFS, iLazy",
      run_mean(single_level_scenario(alpha_pfs), "ilazy:0.6"));
  row("two-level, L2 every ckpt, OCI(L1)",
      run_mean(two_level_scenario(1, alpha_l1), "static-oci"));
  row("two-level, L2 every 4th, OCI(L1)",
      run_mean(two_level_scenario(4, alpha_l1), "static-oci"));
  row("two-level, L2 every 10th, OCI(L1)",
      run_mean(two_level_scenario(10, alpha_l1), "static-oci"));
  row("two-level, L2 every 4th, iLazy",
      run_mean(two_level_scenario(4, alpha_l1), "ilazy:0.6"));
  row("two-level, L2 every 10th, iLazy",
      run_mean(two_level_scenario(10, alpha_l1), "ilazy:0.6"));
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Reading: tiering with a moderate L2 period beats single-level PFS\n"
      "on both makespan and I/O; iLazy on top halves the remaining I/O at\n"
      "similar makespan (Obs. 7's compounding).  Pushing both levers to\n"
      "the extreme (rare L2 flushes + aggressive laziness) tips into\n"
      "waste — the two risk budgets add up and need joint tuning.\n");
  return 0;
}
