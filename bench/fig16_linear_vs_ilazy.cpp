/// Reproduces paper Fig. 16: iLazy (whose stretch follows the Weibull
/// hazard slope) against a simpler linearly increasing interval
/// alpha_oci + j*x with the paper's tuned x = 0.10 h for k = 0.6.

#include "bench_common.hpp"

using namespace lazyckpt;
using namespace lazyckpt::bench;

int main() {
  print_banner("Fig. 16 — iLazy vs linearly increasing intervals");
  print_params("W=500 h, beta=0.5 h, k=0.6, MTBF 11 h, x=0.10 h, "
               "150 replicas, seed 16");

  const auto& scenario = spec::builtin_scenario("fig16");
  const auto baseline = run_scenario_policy(scenario, "static-oci").aggregate;

  TextTable table({"scheme", "ckpt saving", "wasted (h)", "runtime change",
                   "checkpoints"});
  const auto row = [&](const char* label, const std::string& spec) {
    const auto m = run_scenario_policy(scenario, spec).aggregate;
    table.add_row({label,
                   TextTable::percent(saving(baseline.mean_checkpoint_hours,
                                             m.mean_checkpoint_hours)),
                   TextTable::num(m.mean_wasted_hours),
                   TextTable::percent(m.mean_makespan_hours /
                                          baseline.mean_makespan_hours -
                                      1.0),
                   TextTable::num(m.mean_checkpoints_written, 1)});
  };
  table.add_row({"OCI (baseline)", "0.0%",
                 TextTable::num(baseline.mean_wasted_hours), "0.0%",
                 TextTable::num(baseline.mean_checkpoints_written, 1)});
  row("linear x=0.05", "linear:0.05");
  row("linear x=0.10", "linear:0.1");
  row("linear x=0.25", "linear:0.25");
  row("iLazy", scenario.policy);
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Reading: the linear ramp loses less work than iLazy but also saves\n"
      "less checkpoint I/O — a usable approximation that requires per-shape\n"
      "tuning of x, whereas iLazy tracks the hazard slope directly.\n");
  return 0;
}
