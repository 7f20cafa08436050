/// Reproduces paper Fig. 19: the Skip checkpointing strategy — skipping
/// the 1st, 2nd, or 3rd checkpoint after each failure.  Skipping the first
/// saves the most I/O (first boundaries are the most numerous, because
/// failures cluster) but costs the most performance; skipping later
/// checkpoints is a gentler static alternative (Obs. 8).

#include "bench_common.hpp"

using namespace lazyckpt;
using namespace lazyckpt::bench;

int main() {
  print_banner("Fig. 19 — Skip checkpointing variants");
  print_params("W=500 h, beta=0.5 h, k=0.6, MTBF 11 h, 150 replicas, "
               "seed 19");

  const auto& scenario = spec::builtin_scenario("fig19");
  const auto baseline =
      run_scenario_policy(scenario, scenario.policy).aggregate;

  TextTable table({"scheme", "ckpt saving", "runtime change", "skipped",
                   "wasted (h)"});
  table.add_row({"OCI (baseline)", "0.0%", "0.0%", "0.0",
                 TextTable::num(baseline.mean_wasted_hours)});
  for (int n = 1; n <= 3; ++n) {
    const std::string spec =
        "skip" + std::to_string(n) + ":" + scenario.policy;
    const auto m = run_scenario_policy(scenario, spec).aggregate;
    table.add_row({"skip-" + std::to_string(n),
                   TextTable::percent(saving(baseline.mean_checkpoint_hours,
                                             m.mean_checkpoint_hours)),
                   TextTable::percent(m.mean_makespan_hours /
                                          baseline.mean_makespan_hours -
                                      1.0),
                   TextTable::num(m.mean_checkpoints_skipped, 1),
                   TextTable::num(m.mean_wasted_hours)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Reading: skip-1 skips the most checkpoints (every failure has a\n"
      "first boundary) and degrades performance most; skip-2/skip-3 retain\n"
      "solid savings at little cost — a useful static technique.\n");
  return 0;
}
