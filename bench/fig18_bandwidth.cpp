/// Reproduces paper Fig. 18: iLazy's benefit as a function of I/O
/// bandwidth (time-to-checkpoint), at petascale and exascale.  Faster
/// storage (e.g. SSD burst buffers) shrinks the OCI, multiplies the
/// checkpoints, and gives iLazy more to save (Obs. 7).

#include "bench_common.hpp"

using namespace lazyckpt;
using namespace lazyckpt::bench;

namespace {

void run_for(const HeroRun& hero) {
  std::printf("--- %s (MTBF %.1f h) ---\n", hero.label, hero.mtbf_hours);
  TextTable table({"beta (h)", "OCI (h)", "ckpt saving", "runtime change",
                   "checkpoints base"});
  for (const double beta : {1.0, 0.5, 0.25, 0.1}) {
    const auto scenario =
        hero_scenario(hero, Law::kWeibull, beta, 0.6, 120, 18);
    const auto baseline = run_scenario_policy(scenario, "static-oci").aggregate;
    const auto lazy = run_scenario_policy(scenario, "ilazy:0.6").aggregate;
    table.add_row({TextTable::num(beta),
                   TextTable::num(
                       spec::simulation_config(scenario).alpha_oci_hours),
                   TextTable::percent(saving(baseline.mean_checkpoint_hours,
                                             lazy.mean_checkpoint_hours)),
                   TextTable::percent(lazy.mean_makespan_hours /
                                          baseline.mean_makespan_hours -
                                      1.0),
                   TextTable::num(baseline.mean_checkpoints_written, 1)});
  }
  std::printf("%s\n", table.to_string().c_str());
}

}  // namespace

int main() {
  print_banner("Fig. 18 — iLazy benefit vs I/O bandwidth");
  print_params("W=500 h, k=0.6, 120 replicas, seed 18");
  run_for(kPetascale20K);
  run_for(kExascale100K);
  std::printf(
      "Reading (Obs. 7): unlike most checkpoint optimizations, iLazy gets\n"
      "*more* attractive on faster (SSD-class) storage — smaller beta means\n"
      "a shorter OCI, more checkpoints, and more for laziness to harvest.\n");
  return 0;
}
