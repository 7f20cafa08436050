/// Reproduces paper Fig. 20 / Observation 8's composition claim: Skip
/// checkpointing coupled with iLazy mitigates checkpoint overhead beyond
/// what iLazy alone achieves.

#include "bench_common.hpp"

using namespace lazyckpt;
using namespace lazyckpt::bench;

int main() {
  print_banner("Fig. 20 — composing Skip with iLazy");
  print_params("W=500 h, beta=0.5 h, k=0.6, MTBF 11 h, 150 replicas, "
               "seed 20");

  const auto& scenario = spec::builtin_scenario("fig20");
  const auto baseline = run_scenario_policy(scenario, "static-oci").aggregate;

  TextTable table({"scheme", "ckpt saving vs OCI", "runtime change",
                   "checkpoints", "skipped"});
  const auto row = [&](const char* label, const std::string& spec) {
    const auto m = run_scenario_policy(scenario, spec).aggregate;
    table.add_row({label,
                   TextTable::percent(saving(baseline.mean_checkpoint_hours,
                                             m.mean_checkpoint_hours)),
                   TextTable::percent(m.mean_makespan_hours /
                                          baseline.mean_makespan_hours -
                                      1.0),
                   TextTable::num(m.mean_checkpoints_written, 1),
                   TextTable::num(m.mean_checkpoints_skipped, 1)});
  };
  row("iLazy", scenario.policy);
  row("skip-2 + iLazy", "skip2:" + scenario.policy);
  row("skip-3 + iLazy", "skip3:" + scenario.policy);
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Reading (Obs. 8): the composed schemes write fewer checkpoints than\n"
      "iLazy alone, trading a little more waste for extra I/O savings.\n");
  return 0;
}
