/// Reproduces paper Fig. 13: execution progress of iLazy vs OCI
/// checkpointing on the anchor configuration — 20K nodes, 500 h of
/// computation, 30-minute checkpoints, Weibull k = 0.6, model-estimated
/// OCI 2.98 h.  Paper result: iLazy cuts cumulative checkpoint overhead by
/// 34% while losing only 0.45% in total runtime.

#include "core/policy/factory.hpp"
#include "io/factory.hpp"
#include "stats/factory.hpp"

#include "bench_common.hpp"

using namespace lazyckpt;
using namespace lazyckpt::bench;

namespace {

void print_timeline(const char* label, const sim::RunMetrics& metrics) {
  std::printf("%s cumulative progress (every ~8th event):\n", label);
  TextTable table({"time (h)", "compute (h)", "ckpt I/O (h)", "wasted (h)"});
  const auto& timeline = metrics.timeline;
  const std::size_t stride = std::max<std::size_t>(timeline.size() / 12, 1);
  for (std::size_t i = 0; i < timeline.size(); i += stride) {
    const auto& p = timeline[i];
    table.add_row({TextTable::num(p.time_hours, 1),
                   TextTable::num(p.compute_hours, 1),
                   TextTable::num(p.checkpoint_hours, 1),
                   TextTable::num(p.wasted_hours, 1)});
  }
  const auto& last = timeline.back();
  table.add_row({TextTable::num(last.time_hours, 1),
                 TextTable::num(last.compute_hours, 1),
                 TextTable::num(last.checkpoint_hours, 1),
                 TextTable::num(last.wasted_hours, 1)});
  std::printf("%s\n", table.to_string().c_str());
}

}  // namespace

int main() {
  print_banner("Fig. 13 — iLazy vs OCI execution progress (anchor run)");
  const auto& scenario = spec::builtin_scenario("fig13");
  auto config = spec::simulation_config(scenario);
  config.record_timeline = true;
  print_params("W=500 h, beta=0.5 h, k=0.6, MTBF 11 h, OCI " +
               TextTable::num(config.alpha_oci_hours) +
               " h, shared failure stream, seed 13");

  const auto weibull = stats::make_distribution(scenario.distribution);
  const auto storage = io::make_storage(scenario.storage);

  // One representative single run with a *shared* failure stream
  // ("for a fair comparison, both schemes use the same failure arrival
  // times"), then replica-averaged statistics.
  {
    Rng rng(scenario.seed);
    sim::RenewalFailureSource source_a(weibull->clone(), rng);
    const auto oci_policy = core::make_policy("static-oci");
    const auto oci_run = simulate(config, *oci_policy, source_a, *storage);

    Rng rng_b(scenario.seed);
    sim::RenewalFailureSource source_b(weibull->clone(), rng_b);
    const auto lazy_policy = core::make_policy(scenario.policy);
    const auto lazy_run = simulate(config, *lazy_policy, source_b, *storage);

    print_timeline("OCI", oci_run);
    print_timeline("iLazy", lazy_run);
  }

  const auto oci = run_scenario_policy(scenario, "static-oci").aggregate;
  const auto lazy = run_scenario_policy(scenario, scenario.policy).aggregate;

  TextTable summary({"policy", "makespan (h)", "ckpt I/O (h)", "wasted (h)",
                     "checkpoints", "failures"});
  summary.add_row({"OCI", TextTable::num(oci.mean_makespan_hours),
                   TextTable::num(oci.mean_checkpoint_hours),
                   TextTable::num(oci.mean_wasted_hours),
                   TextTable::num(oci.mean_checkpoints_written, 1),
                   TextTable::num(oci.mean_failures, 1)});
  summary.add_row({"iLazy", TextTable::num(lazy.mean_makespan_hours),
                   TextTable::num(lazy.mean_checkpoint_hours),
                   TextTable::num(lazy.mean_wasted_hours),
                   TextTable::num(lazy.mean_checkpoints_written, 1),
                   TextTable::num(lazy.mean_failures, 1)});
  std::printf("%s\n", summary.to_string().c_str());

  std::printf("checkpoint-overhead reduction: %s (paper: 34%%)\n",
              TextTable::percent(saving(oci.mean_checkpoint_hours,
                                        lazy.mean_checkpoint_hours))
                  .c_str());
  std::printf("performance hit: %s (paper: 0.45%%)\n",
              TextTable::percent(lazy.mean_makespan_hours /
                                     oci.mean_makespan_hours -
                                 1.0)
                  .c_str());
  return 0;
}
