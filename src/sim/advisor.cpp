#include "sim/advisor.hpp"

#include <algorithm>
#include <cstddef>

#include "common/error.hpp"
#include "common/units.hpp"
#include "core/model/oci.hpp"
#include "core/policy/factory.hpp"
#include "io/storage_model.hpp"
#include "sim/engine.hpp"
#include "sim/sweep.hpp"
#include "stats/descriptive.hpp"
#include "stats/fitting.hpp"
#include "stats/ks_test.hpp"

namespace lazyckpt::sim {
namespace {

std::string format_shape(double k) {
  // Two decimals, matching the factory's number grammar.
  char buffer[16];
  std::snprintf(buffer, sizeof(buffer), "%.2f", k);
  return buffer;
}

}  // namespace

Recommendation advise(const AdvisorInput& input, std::uint64_t seed,
                      std::size_t replicas) {
  require(input.inter_arrival_hours.size() >= 30,
          "advise needs at least 30 failure gaps");
  require_positive(input.checkpoint_size_gb, "AdvisorInput.checkpoint_size_gb");
  require_positive(input.bandwidth_gbps, "AdvisorInput.bandwidth_gbps");
  require_positive(input.compute_hours, "AdvisorInput.compute_hours");
  require(replicas >= 1, "advise needs replicas >= 1");

  const auto gaps = input.inter_arrival_hours;
  Recommendation rec;
  rec.mtbf_hours = stats::mean(gaps);

  // Fit the candidate set; pick the lowest K-S distance.
  const auto weibull = stats::fit_weibull(gaps);
  rec.weibull_shape = weibull.shape();
  rec.weibull_scale = weibull.scale();
  {
    const auto exponential = stats::fit_exponential(gaps);
    const auto lognormal = stats::fit_lognormal(gaps);
    const auto gamma = stats::fit_gamma(gaps);
    double best_d = stats::ks_statistic(gaps, weibull);
    rec.best_fit_name = "weibull";
    const auto consider = [&](const stats::Distribution& d) {
      const double distance = stats::ks_statistic(gaps, d);
      if (distance < best_d) {
        best_d = distance;
        rec.best_fit_name = d.name();
      }
    };
    consider(exponential);
    consider(lognormal);
    consider(gamma);
  }

  rec.beta_hours =
      transfer_time_hours(input.checkpoint_size_gb, input.bandwidth_gbps);
  rec.oci_hours = core::daly_oci(rec.beta_hours, rec.mtbf_hours);
  rec.temporal_locality = rec.weibull_shape < 0.95;
  rec.policy_spec =
      rec.temporal_locality
          ? "ilazy:" + format_shape(std::min(rec.weibull_shape, 1.0))
          : "static-oci";

  // Project against static OCI on the fitted Weibull model.
  SimulationConfig config;
  config.compute_hours = input.compute_hours;
  config.alpha_oci_hours = rec.oci_hours;
  config.mtbf_hint_hours = rec.mtbf_hours;
  config.shape_hint = std::min(rec.weibull_shape, 1.0);
  const io::ConstantStorage storage(rec.beta_hours, rec.beta_hours,
                                    input.checkpoint_size_gb);
  rec.base = run_replicas(config, *core::make_policy("static-oci"), weibull,
                          storage, replicas, seed);
  rec.chosen = run_replicas(config, *core::make_policy(rec.policy_spec),
                            weibull, storage, replicas, seed);
  rec.projected_io_saving =
      1.0 - rec.chosen.mean_checkpoint_hours / rec.base.mean_checkpoint_hours;
  rec.projected_runtime_change =
      rec.chosen.mean_makespan_hours / rec.base.mean_makespan_hours - 1.0;
  return rec;
}

}  // namespace lazyckpt::sim
