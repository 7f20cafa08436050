/// Ablation: the dynamic-OCI strategy's moving-average window (Sec. 6.1
/// leaves it a free design choice).  A short window chases noise; a long
/// window lags regime changes.  We replay logs whose failure rate shifts
/// (calm -> storm -> calm) and sweep the window size.

#include <vector>

#include "core/model/oci.hpp"
#include "core/policy/factory.hpp"
#include "failures/trace.hpp"
#include "sim/failure_source.hpp"
#include "stats/exponential.hpp"

#include "bench_common.hpp"

using namespace lazyckpt;
using namespace lazyckpt::bench;

namespace {

/// calm (MTBF 20 h) -> storm (MTBF 2 h) -> calm, repeated to fill span.
failures::FailureTrace regime_trace(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<failures::FailureEvent> events;
  double t = 0.0;
  bool storm = false;
  while (t < 2000.0) {
    const double regime_end = t + (storm ? 100.0 : 300.0);
    const auto exp_dist =
        stats::Exponential::from_mean(storm ? 2.0 : 20.0);
    while (true) {
      const double gap = exp_dist.sample(rng);
      if (t + gap >= regime_end) break;
      t += gap;
      events.push_back({t, 0, {}});
    }
    t = regime_end;
    storm = !storm;
  }
  return failures::FailureTrace(std::move(events));
}

}  // namespace

int main() {
  print_banner("Ablation — dynamic-OCI moving-average window");
  print_params(
      "regime-switching logs (MTBF 20 h / 2 h), W=400 h, beta=gamma=0.5 h, "
      "8 log seeds, static reference = Daly OCI at the calm MTBF");

  const double beta = 0.5;
  const io::ConstantStorage storage(beta, beta);

  TextTable table({"window (events)", "makespan (h)", "ckpt I/O (h)",
                   "wasted (h)", "vs static"});
  std::vector<std::vector<sim::RunMetrics>> per_window;
  const std::vector<std::size_t> windows = {2, 4, 8, 16, 64};

  // Static baseline first.
  double static_makespan = 0.0;
  {
    std::vector<sim::RunMetrics> runs;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const auto trace = regime_trace(seed);
      sim::TraceFailureSource source(trace);
      sim::SimulationConfig config;
      config.compute_hours = 400.0;
      config.alpha_oci_hours = core::daly_oci(beta, 20.0);
      config.mtbf_hint_hours = 20.0;
      config.shape_hint = 1.0;
      const auto policy = core::make_policy("static-oci");
      runs.push_back(sim::simulate(config, *policy, source, storage));
    }
    static_makespan = sim::aggregate(runs).mean_makespan_hours;
  }

  for (const std::size_t window : windows) {
    std::vector<sim::RunMetrics> runs;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const auto trace = regime_trace(seed);
      sim::TraceFailureSource source(trace);
      sim::SimulationConfig config;
      config.compute_hours = 400.0;
      config.alpha_oci_hours = core::daly_oci(beta, 20.0);
      config.mtbf_hint_hours = 20.0;
      config.shape_hint = 1.0;
      config.mtbf_window = window;
      const auto policy = core::make_policy("dynamic-oci");
      runs.push_back(sim::simulate(config, *policy, source, storage));
    }
    const auto agg = sim::aggregate(runs);
    table.add_row({std::to_string(window),
                   TextTable::num(agg.mean_makespan_hours),
                   TextTable::num(agg.mean_checkpoint_hours),
                   TextTable::num(agg.mean_wasted_hours),
                   TextTable::percent(
                       agg.mean_makespan_hours / static_makespan - 1.0)});
  }
  std::printf("static-oci reference makespan: %.2f h\n\n%s\n",
              static_makespan, table.to_string().c_str());
  std::printf(
      "Reading: mid-size windows (4-8 events) track regime shifts best;\n"
      "short windows chase noise, long windows drift.  Against a static\n"
      "scheme whose historical MTBF happens to be right, adaptivity only\n"
      "breaks even — its real payoff is when the historical estimate is\n"
      "badly wrong (compare CHIMERA in the Fig. 23 replay).\n");
  return 0;
}
