/// Reproduces paper Fig. 15: applying iLazy on top of different *operating*
/// checkpoint intervals (the interval a site actually uses, which may be
/// far from the true OCI).  Left panel: checkpoint savings; right panel:
/// runtime relative to the base case at the same interval.
///
/// Runs entirely on the catalog scenario fig15-petascale-20K: machine,
/// workload, replicas, and seed all come from the spec layer, with only
/// the policy and the operating interval varied per row.

#include "bench_common.hpp"

using namespace lazyckpt;
using namespace lazyckpt::bench;

int main() {
  print_banner("Fig. 15 — iLazy across operating checkpoint intervals");
  const auto& scenario = spec::builtin_scenario("fig15-petascale-20K");
  const double true_oci = spec::simulation_config(scenario).alpha_oci_hours;
  print_params("W=500 h, beta=0.5 h, k=0.6, MTBF 11 h, Daly OCI " +
               TextTable::num(true_oci) + " h, 120 replicas, seed 15");

  TextTable table({"operating interval (h)", "base ckpt (h)",
                   "ilazy ckpt saving", "base T (h)", "ilazy T change",
                   "vs OCI runtime"});
  const auto oci_baseline =
      run_scenario_policy(scenario, scenario.policy).aggregate;
  for (const double interval : {1.0, 2.0, 2.98, 4.0, 6.0, 9.0, 12.0}) {
    const auto base =
        run_scenario_policy(scenario, scenario.policy, interval).aggregate;
    const auto lazy =
        run_scenario_policy(scenario, "ilazy:0.6", interval).aggregate;
    table.add_row(
        {TextTable::num(interval), TextTable::num(base.mean_checkpoint_hours),
         TextTable::percent(saving(base.mean_checkpoint_hours,
                                   lazy.mean_checkpoint_hours)),
         TextTable::num(base.mean_makespan_hours),
         TextTable::percent(lazy.mean_makespan_hours /
                                base.mean_makespan_hours -
                            1.0),
         TextTable::percent(lazy.mean_makespan_hours /
                                oci_baseline.mean_makespan_hours -
                            1.0)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Reading (Obs. 6): iLazy saves checkpoint I/O at every operating\n"
      "interval; at or below the OCI the runtime cost is negligible, while\n"
      "far above the OCI savings shrink and the degradation grows.\n");
  return 0;
}
