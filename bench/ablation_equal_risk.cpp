/// Ablation: the equal-risk generalization of iLazy.  iLazy's Eq. 11 is
/// Weibull-specific; the equal-risk scheduler takes any fitted
/// distribution.  We draw failures from Weibull, gamma, and lognormal
/// processes (all with decreasing hazards and the same MTBF) and compare:
/// static OCI, iLazy with the Weibull shape an operator would fit, and
/// equal-risk with the *true* model.

#include <cmath>

#include "core/model/oci.hpp"
#include "core/policy/equal_risk.hpp"
#include "core/policy/factory.hpp"
#include "stats/fitting.hpp"
#include "stats/gamma.hpp"
#include "stats/lognormal.hpp"

#include "bench_common.hpp"

using namespace lazyckpt;
using namespace lazyckpt::bench;

namespace {

void run_for(const char* label, const stats::Distribution& truth) {
  // Fit a Weibull to samples of the true process, as an operator would.
  Rng fit_rng(57);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) samples.push_back(truth.sample(fit_rng));
  const auto fitted = stats::fit_weibull(samples);
  const double k = std::min(fitted.shape(), 1.0);

  std::printf("--- %s (fitted Weibull k=%.2f) ---\n", label, k);

  sim::SimulationConfig config;
  config.compute_hours = 400.0;
  config.alpha_oci_hours = core::daly_oci(0.5, truth.mean());
  config.mtbf_hint_hours = truth.mean();
  config.shape_hint = k;
  const io::ConstantStorage storage(0.5, 0.5);

  const auto base = sim::run_replicas(
      config, *core::make_policy("static-oci"), truth, storage, 120, 57);

  TextTable table({"policy", "ckpt saving", "runtime change", "wasted (h)"});
  const auto row = [&](const char* name, const core::CheckpointPolicy& p) {
    const auto m = sim::run_replicas(config, p, truth, storage, 120, 57);
    table.add_row({name,
                   TextTable::percent(saving(base.mean_checkpoint_hours,
                                             m.mean_checkpoint_hours)),
                   TextTable::percent(m.mean_makespan_hours /
                                          base.mean_makespan_hours -
                                      1.0),
                   TextTable::num(m.mean_wasted_hours)});
  };
  const auto ilazy = core::make_policy("ilazy:" + TextTable::num(k));
  row("iLazy (fitted k)", *ilazy);
  const core::EqualRiskPolicy equal_risk(truth.clone());
  row("equal-risk (true model)", equal_risk);
  std::printf("%s\n", table.to_string().c_str());
}

}  // namespace

int main() {
  print_banner("Ablation — equal-risk scheduling beyond Weibull");
  print_params("W=400 h, beta=0.5 h, MTBF 11 h for every process, "
               "120 replicas, seed 57");

  run_for("Weibull k=0.6",
          stats::Weibull::from_mtbf_and_shape(11.0, 0.6));
  run_for("Gamma shape=0.5",
          stats::Gamma::from_mtbf_and_shape(11.0, 0.5));
  {
    // Lognormal with mean 11: mu = ln(11) - sigma^2/2.
    const double sigma = 1.2;
    const double mu = std::log(11.0) - 0.5 * sigma * sigma;
    run_for("LogNormal sigma=1.2", stats::LogNormal(mu, sigma));
  }
  std::printf(
      "Reading: equal-risk is the conservative cousin of iLazy — across\n"
      "every process it holds runtime at or below the OCI baseline while\n"
      "keeping the bulk of the I/O savings, because its risk budget caps\n"
      "the stretch.  Weibull-fitted iLazy saves more I/O, but its runtime\n"
      "cost depends on how well the fitted shape matches the true hazard\n"
      "(compare the gamma row).\n");
  return 0;
}
