/// Reproduces paper Fig. 21 / Observation 9: the analytically bounded
/// iLazy.  The cap admits an extended interval only while the
/// probability-weighted extra lost work stays under the checkpoint cost
/// saved, trading some I/O savings for a no-performance-loss guarantee.

#include <algorithm>
#include <cmath>

#include "core/model/bounds.hpp"
#include "stats/factory.hpp"

#include "bench_common.hpp"

using namespace lazyckpt;
using namespace lazyckpt::bench;

int main() {
  print_banner("Fig. 21 — bounded iLazy (no-performance-loss cap)");
  print_params("W=500 h, beta=0.5 h, k=0.6, MTBF 11 h, 200 replicas, "
               "seed 21");

  const auto& scenario = spec::builtin_scenario("fig21");
  const double oci = spec::simulation_config(scenario).alpha_oci_hours;

  // First, show the cap itself as a function of time since failure.
  const auto weibull = stats::make_distribution(scenario.distribution);
  core::IntervalBoundParams params{oci, 0.5, 64.0};
  TextTable cap_table({"t since failure (h)", "iLazy interval (h)",
                       "capped interval (h)"});
  for (const double t : {0.0, 3.0, 6.0, 12.0, 24.0, 48.0, 96.0}) {
    const double lazy_interval =
        oci * std::pow(std::max(t, oci) / oci, 0.4);
    const double cap = core::max_lazy_interval(*weibull, t, params);
    cap_table.add_row({TextTable::num(t), TextTable::num(lazy_interval),
                       TextTable::num(std::min(lazy_interval, cap))});
  }
  std::printf("%s\n", cap_table.to_string().c_str());

  const auto baseline = run_scenario_policy(scenario, "static-oci").aggregate;
  TextTable table({"scheme", "ckpt saving", "runtime change", "wasted (h)"});
  const auto row = [&](const char* label, const std::string& spec) {
    const auto m = run_scenario_policy(scenario, spec).aggregate;
    table.add_row({label,
                   TextTable::percent(saving(baseline.mean_checkpoint_hours,
                                             m.mean_checkpoint_hours)),
                   TextTable::percent(m.mean_makespan_hours /
                                          baseline.mean_makespan_hours -
                                      1.0),
                   TextTable::num(m.mean_wasted_hours)});
  };
  row("iLazy (unbounded)", "ilazy:0.6");
  row("bounded iLazy", scenario.policy);
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Reading (Obs. 9): the cap keeps a significant share of the original\n"
      "checkpointing savings while curbing iLazy's worst-case extra lost\n"
      "work.\n");
  return 0;
}
