/// Reproduces paper Fig. 17: iLazy's checkpoint savings and performance
/// degradation across Weibull shape parameters (more/less temporal
/// locality) and system scales (petascale and exascale).

#include "bench_common.hpp"

using namespace lazyckpt;
using namespace lazyckpt::bench;

namespace {

void run_for(const HeroRun& hero) {
  std::printf("--- %s (MTBF %.1f h) ---\n", hero.label, hero.mtbf_hours);
  TextTable table({"shape k", "ckpt saving", "runtime change",
                   "ckpt baseline (h)", "ckpt ilazy (h)"});
  for (const double k : {0.5, 0.6, 0.7}) {
    const auto scenario = hero_scenario(hero, Law::kWeibull, 0.5, k, 150, 17);
    const auto baseline = run_scenario_policy(scenario, "static-oci").aggregate;
    const auto lazy = run_scenario_policy(scenario, "ilazy").aggregate;
    table.add_row({TextTable::num(k, 1),
                   TextTable::percent(saving(baseline.mean_checkpoint_hours,
                                             lazy.mean_checkpoint_hours)),
                   TextTable::percent(lazy.mean_makespan_hours /
                                          baseline.mean_makespan_hours -
                                      1.0),
                   TextTable::num(baseline.mean_checkpoint_hours),
                   TextTable::num(lazy.mean_checkpoint_hours)});
  }
  std::printf("%s\n", table.to_string().c_str());
}

}  // namespace

int main() {
  print_banner("Fig. 17 — iLazy benefits vs shape parameter and scale");
  print_params("W=500 h, beta=0.5 h, 150 replicas, seed 17");
  run_for(kPetascale20K);
  run_for(kExascale100K);
  std::printf(
      "Reading: savings shrink as k rises toward 1 (temporal locality\n"
      "weakens) yet stay significant with sub-1%% degradation; exascale\n"
      "keeps double-digit savings for low k.\n");
  return 0;
}
