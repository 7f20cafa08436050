/// Reproduces paper Fig. 9: total execution time vs checkpoint interval
/// when failures are drawn from a Weibull (k = 0.6) instead of an
/// exponential distribution with the same MTBF, at 10K / 20K / 100K nodes.
/// Key findings: the Weibull curve sits below the exponential curve, and
/// both reach their minimum at nearly the same interval (Obs. 4).

#include "bench_common.hpp"

using namespace lazyckpt;
using namespace lazyckpt::bench;

namespace {

void run_for(const HeroRun& hero) {
  std::printf("--- %s (MTBF %.1f h) ---\n", hero.label, hero.mtbf_hours);
  const auto weibull = hero_scenario(hero, Law::kWeibull, 0.5, 0.6, 100, 9);
  const double oci = spec::simulation_config(weibull).alpha_oci_hours;
  const auto grid = sim::log_spaced(0.4 * oci, 3.0 * oci, 10);
  const auto curve_e = interval_curve(
      hero_scenario(hero, Law::kExponential, 0.5, 0.6, 100, 9), grid);
  const auto curve_w = interval_curve(weibull, grid);

  TextTable table({"interval (h)", "T exponential (h)", "T weibull (h)",
                   "weibull below by"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    table.add_row({TextTable::num(grid[i]),
                   TextTable::num(curve_e[i].metrics.mean_makespan_hours),
                   TextTable::num(curve_w[i].metrics.mean_makespan_hours),
                   TextTable::percent(
                       saving(curve_e[i].metrics.mean_makespan_hours,
                              curve_w[i].metrics.mean_makespan_hours))});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("simulated OCI: exponential %.2f h | weibull %.2f h | "
              "Daly model %.2f h\n\n",
              sim::simulated_oci(curve_e), sim::simulated_oci(curve_w), oci);
}

}  // namespace

int main() {
  print_banner("Fig. 9 — runtime vs interval: Weibull vs exponential");
  print_params(
      "W=500 h, beta=gamma=0.5 h, k=0.6, 100 replicas per point, seed 9");
  run_for(kPetascale10K);
  run_for(kPetascale20K);
  run_for(kExascale100K);
  std::printf(
      "Reading (Obs. 4): Weibull failures yield lower total runtime (less\n"
      "work lost per failure on average), yet the optimal interval barely\n"
      "moves — the exponential-based OCI estimate remains usable.\n");
  return 0;
}
