/// Ablation: allocation efficiency.  Centers grant fixed node-hour
/// allocations; the metric that matters to them is committed science per
/// allocation hour.  We run a one-week allocation (more work queued than
/// fits) under each policy and report the committed-work fraction —
/// the budget-view of the paper's runtime results.

#include "bench_common.hpp"

using namespace lazyckpt;
using namespace lazyckpt::bench;

namespace {

void run_for(const HeroRun& hero) {
  std::printf("--- %s (MTBF %.1f h) ---\n", hero.label, hero.mtbf_hours);
  const double budget = 168.0;  // one week
  auto scenario = hero_scenario(hero, Law::kWeibull, 0.5, 0.6, 150, 67);
  scenario.compute_hours = 1e6;
  scenario.time_budget_hours = budget;

  TextTable table({"policy", "committed work (h)", "efficiency",
                   "ckpt I/O (h)", "wasted (h)"});
  for (const char* spec :
       {"hourly", "static-oci", "ilazy:0.6", "skip2:ilazy:0.6",
        "bounded-ilazy:0.6"}) {
    const auto m = run_scenario_policy(scenario, spec).aggregate;
    table.add_row({spec, TextTable::num(m.mean_compute_hours),
                   TextTable::percent(m.mean_compute_hours / budget),
                   TextTable::num(m.mean_checkpoint_hours),
                   TextTable::num(m.mean_wasted_hours)});
  }
  std::printf("%s\n", table.to_string().c_str());
}

}  // namespace

int main() {
  print_banner("Ablation — committed science per one-week allocation");
  print_params("168 h budget, beta=gamma=0.5 h, k=0.6, 150 replicas, "
               "seed 67; 'committed' = checkpoint-protected work only");
  run_for(kPetascale20K);
  run_for(kExascale100K);
  std::printf(
      "Reading: OCI-family policies beat hourly by a wide margin, but the\n"
      "strict commit-only metric exposes a nuance the makespan view hides:\n"
      "iLazy's I/O savings are roughly cancelled by its longer uncommitted\n"
      "tail forfeited at the cut.  Its real allocation-mode win is the\n"
      "storage load (ckpt I/O column) — and bounded iLazy keeps committed\n"
      "work at OCI level while still trimming I/O.\n");
  return 0;
}
