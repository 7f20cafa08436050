/// Reproduces paper Fig. 14: is iLazy more beneficial than simply
/// increasing the OCI?  Compares checkpoint-time and total-runtime savings
/// of (a) iLazy on the OCI, (b) a 50%-increased OCI, and (c) iLazy applied
/// on top of the increased OCI, at petascale and exascale.  Paper numbers
/// (petascale): 34% / 25% / 51% checkpoint-time savings.

#include "bench_common.hpp"

using namespace lazyckpt;
using namespace lazyckpt::bench;

namespace {

void run_for(const std::string& scenario_name) {
  const auto& scenario = spec::builtin_scenario(scenario_name);
  std::printf("--- %s (MTBF %.1f h) ---\n",
              scenario_name.substr(std::string("fig14-").size()).c_str(),
              scenario.mtbf_hint_hours);
  const double oci = spec::simulation_config(scenario).alpha_oci_hours;

  const auto baseline = run_scenario_policy(scenario, "static-oci").aggregate;
  const auto ilazy = run_scenario_policy(scenario, scenario.policy).aggregate;
  const auto increased =
      run_scenario_policy(scenario, "static-oci", 1.5 * oci).aggregate;
  const auto combined =
      run_scenario_policy(scenario, scenario.policy, 1.5 * oci).aggregate;

  TextTable table({"scheme", "ckpt-time saving", "runtime change",
                   "ckpt I/O (h)"});
  const auto row = [&](const char* label, const sim::AggregateMetrics& m) {
    table.add_row({label,
                   TextTable::percent(saving(baseline.mean_checkpoint_hours,
                                             m.mean_checkpoint_hours)),
                   TextTable::percent(m.mean_makespan_hours /
                                          baseline.mean_makespan_hours -
                                      1.0),
                   TextTable::num(m.mean_checkpoint_hours)});
  };
  row("OCI (baseline)", baseline);
  row("iLazy", ilazy);
  row("increased OCI (1.5x)", increased);
  row("iLazy on increased OCI", combined);
  std::printf("%s\n", table.to_string().c_str());
}

}  // namespace

int main() {
  print_banner("Fig. 14 — iLazy vs (and on top of) an increased OCI");
  print_params(
      "W=500 h, beta=0.5 h, k=0.6, 150 replicas, seed 14; increased OCI = "
      "1.5x Daly");
  run_for("fig14-petascale-20K");
  run_for("fig14-exascale-100K");
  std::printf(
      "Reading (Obs. 5): stretching the OCI statically saves I/O too, but\n"
      "iLazy layered on top saves the most — the techniques compose.\n");
  return 0;
}
