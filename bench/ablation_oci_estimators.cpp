/// Ablation: how much does OCI-estimator fidelity matter?  Young's
/// first-order formula vs Daly's higher-order formula vs numeric
/// minimization of the model with the exact exponential lost-work
/// fraction, all scored by *simulated* makespan at the interval each
/// estimator recommends, against the best interval a fine sweep finds.

#include <algorithm>
#include <vector>

#include "core/model/lost_work.hpp"
#include "core/model/oci.hpp"
#include "core/model/runtime_model.hpp"

#include "bench_common.hpp"

using namespace lazyckpt;
using namespace lazyckpt::bench;

namespace {

void run_for(const HeroRun& hero, double beta) {
  std::printf("--- %s, beta=%.2f h ---\n", hero.label, beta);
  const core::MachineParams machine{hero.mtbf_hours, beta, beta};
  const core::WorkloadParams workload{400.0};
  const core::RuntimeModel model_eps_half(machine, workload, 0.5);
  const auto eps_exact = [&](double segment) {
    return core::lost_work_fraction_exponential(segment, hero.mtbf_hours);
  };
  const core::RuntimeModel model_eps_exact(machine, workload, eps_exact);

  auto scenario = hero_scenario(hero, Law::kExponential, beta, 0.6, 150, 31);
  scenario.compute_hours = 400.0;

  // Fine sweep for the empirical optimum (the first of equal minima).
  const double daly = core::daly_oci(beta, hero.mtbf_hours);
  const auto sweep =
      interval_curve(scenario, sim::log_spaced(0.3 * daly, 3.0 * daly, 15));
  const auto best = *std::min_element(
      sweep.begin(), sweep.end(), [](const auto& a, const auto& b) {
        return a.metrics.mean_makespan_hours < b.metrics.mean_makespan_hours;
      });
  const double best_makespan = best.metrics.mean_makespan_hours;

  // Each estimator is scored by the simulated makespan at its interval.
  const char* const labels[] = {"Young sqrt(2*beta*M)", "Daly higher-order",
                                "numeric, eps=0.5", "numeric, eps exact"};
  const std::vector<double> estimates = {
      core::young_oci(beta, hero.mtbf_hours), daly,
      core::numeric_oci(model_eps_half), core::numeric_oci(model_eps_exact)};
  const auto scored = interval_curve(scenario, estimates);

  TextTable table({"estimator", "OCI (h)", "simulated T (h)",
                   "vs best sweep"});
  for (std::size_t i = 0; i < scored.size(); ++i) {
    const double t = scored[i].metrics.mean_makespan_hours;
    table.add_row({labels[i], TextTable::num(estimates[i]), TextTable::num(t),
                   TextTable::percent(t / best_makespan - 1.0, 2)});
  }
  table.add_row({"best of fine sweep", TextTable::num(best.interval_hours),
                 TextTable::num(best_makespan), "0.00%"});
  std::printf("%s\n", table.to_string().c_str());
}

}  // namespace

int main() {
  print_banner("Ablation — OCI estimator fidelity");
  print_params("W=400 h, exponential failures, 150 replicas, seed 31");
  run_for(kPetascale20K, 0.5);
  run_for(kExascale100K, 0.5);
  run_for(kPetascale20K, 0.1);
  std::printf(
      "Reading: all estimators land within a fraction of a percent of the\n"
      "fine-sweep optimum — the runtime curve is flat near its minimum,\n"
      "which is exactly why iLazy can stretch intervals so cheaply.\n");
  return 0;
}
