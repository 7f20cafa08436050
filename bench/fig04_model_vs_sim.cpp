/// Reproduces paper Fig. 4: total runtime vs checkpoint interval from the
/// analytical model and from event-driven simulation, for a petascale
/// (20K-node) and an exascale (100K-node) hero run.  The OCI is the
/// interval minimizing each curve.
///
/// Driven by the fig04-* catalog scenarios: machine, distribution,
/// storage, replicas, and seed all come from the entry; the bench only
/// adds the analytical model and the interval grid around the derived
/// Daly OCI.

#include "core/model/lost_work.hpp"
#include "core/model/runtime_model.hpp"

#include "bench_common.hpp"

using namespace lazyckpt;
using namespace lazyckpt::bench;

namespace {

void run_for(const char* name) {
  const spec::Scenario scenario = spec::builtin_scenario(name);
  const double mtbf = scenario.mtbf_hint_hours;
  const std::string label = scenario.name.substr(6);  // drop "fig04-"
  std::printf("--- %s (MTBF %.1f h) ---\n", label.c_str(), mtbf);
  const double beta = 0.5;
  const core::MachineParams machine{mtbf, beta, beta};
  const core::WorkloadParams workload{scenario.compute_hours};
  const auto eps = [&](double segment) {
    return core::lost_work_fraction_exponential(segment, mtbf);
  };
  const core::RuntimeModel model(machine, workload, eps);

  const double oci = spec::simulation_config(scenario).alpha_oci_hours;
  const auto grid = sim::log_spaced(0.3 * oci, 4.0 * oci, 12);
  const auto curve = interval_curve(scenario, grid);

  TextTable table({"interval (h)", "model T (h)", "simulated T (h)",
                   "delta %"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const double model_t =
        model.feasible(grid[i]) ? model.expected_runtime(grid[i]) : -1.0;
    const double sim_t = curve[i].metrics.mean_makespan_hours;
    table.add_row(
        {TextTable::num(grid[i]), TextTable::num(model_t),
         TextTable::num(sim_t),
         model_t > 0.0 ? TextTable::percent(sim_t / model_t - 1.0)
                       : "n/a"});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("model OCI (Daly): %.2f h | simulated OCI: %.2f h\n\n",
              oci, sim::simulated_oci(curve));
}

}  // namespace

int main() {
  print_banner("Fig. 4 — model vs simulation runtime curves and OCI");
  print_params(
      "W=500 h, beta=gamma=0.5 h, exponential failures, 120 replicas, "
      "seed 4; model eps uses the exponential closed form");
  run_for("fig04-petascale-20K");
  run_for("fig04-exascale-100K");
  std::printf(
      "Reading (Obs. 1): modeling and simulation track each other, and the\n"
      "OCI shrinks as the system grows.\n");
  return 0;
}
