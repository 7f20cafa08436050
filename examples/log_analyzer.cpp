/// \file log_analyzer.cpp
/// \brief Operator tool: analyze a failure log and recommend a checkpoint
/// strategy — the workflow a site would run before adopting lazyckpt.
///
/// Usage:
///   log_analyzer <failure_log.csv> [checkpoint_size_gb] [bandwidth_gbps]
///   log_analyzer --demo            (analyze a generated OLCF-like log)
///
/// The CSV needs columns time_hours,node_id,category (see
/// failures::FailureTrace).  The report covers: basic statistics, temporal
/// locality, serial dependence, distribution fits with K-S and
/// Anderson–Darling verdicts, and sim::advise's recommended policy spec
/// with its simulated projection.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/error.hpp"
#include "common/random.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "failures/analysis.hpp"
#include "failures/generator.hpp"
#include "failures/trace.hpp"
#include "sim/advisor.hpp"
#include "stats/anderson_darling.hpp"
#include "stats/autocorrelation.hpp"
#include "stats/bootstrap.hpp"
#include "stats/fitting.hpp"
#include "stats/ks_test.hpp"

using namespace lazyckpt;

int main(int argc, char** argv) try {
  // argv[i] as a whole finite number > 0, `fallback` when absent, and 0
  // (which gets the usage) when malformed: "abc", "5x", "inf".
  const auto positive_arg = [&](int i, double fallback) {
    char* end = nullptr;
    const double value = i < argc ? std::strtod(argv[i], &end) : fallback;
    const bool whole = i >= argc || (end != argv[i] && *end == '\0');
    return whole && std::isfinite(value) && value > 0.0 ? value : 0.0;
  };
  const double size_gb = positive_arg(2, tb_to_gb(5.0));
  const double bandwidth = positive_arg(3, 10.0);
  if (argc > 4 || size_gb <= 0.0 || bandwidth <= 0.0) {
    std::fputs("usage: log_analyzer <failure_log.csv | --demo> "
               "[checkpoint_size_gb] [bandwidth_gbps]\n", stderr);
    return 2;
  }

  // ---- load or generate the log --------------------------------------
  const bool demo = argc < 2 || std::string(argv[1]) == "--demo";
  const failures::FailureTrace trace =
      demo ? failures::generate_trace(failures::paper_system_specs().front())
           : failures::FailureTrace::load_csv(argv[1]);
  const std::string source = demo ? "generated OLCF-like demo log" : argv[1];

  print_banner("failure-log analysis: " + source);
  const auto gaps = trace.inter_arrival_times();
  if (gaps.size() < 30) {
    std::fprintf(stderr, "need at least 30 failure gaps for a meaningful "
                         "fit (got %zu)\n", gaps.size());
    return 1;
  }

  // ---- basic statistics ----------------------------------------------
  const double mtbf = trace.observed_mtbf();
  TextTable basics({"statistic", "value"});
  basics.add_row({"failures", std::to_string(trace.size())});
  basics.add_row({"log span (h)", TextTable::num(trace.span_hours(), 1)});
  basics.add_row({"observed MTBF (h)", TextTable::num(mtbf)});
  basics.add_row({"gaps < 1 h", TextTable::percent(trace.fraction_within(1.0))});
  basics.add_row({"gaps < 3 h", TextTable::percent(trace.fraction_within(3.0))});
  basics.add_row({"gaps < MTBF", TextTable::percent(trace.fraction_within(mtbf))});
  basics.add_row({"gap CV (1 = Poisson)",
                  TextTable::num(stats::coefficient_of_variation(gaps))});
  basics.add_row({"lag-1 autocorrelation",
                  TextTable::num(stats::autocorrelation(gaps, 1), 3)});
  basics.add_row({"dispersion (24 h windows)",
                  TextTable::num(stats::index_of_dispersion(gaps, 24.0))});
  std::printf("%s\n", basics.to_string().c_str());

  // ---- error bars on the key estimates ---------------------------------
  {
    Rng boot_rng(99);
    const auto mtbf_ci = stats::bootstrap_mean_ci(gaps, 300, 0.95, boot_rng);
    const auto shape_ci = stats::bootstrap_ci(
        gaps,
        [](std::span<const double> s) {
          return stats::fit_weibull(s).shape();
        },
        200, 0.95, boot_rng);
    std::printf("95%% bootstrap CIs: MTBF %.2f [%.2f, %.2f] h, "
                "Weibull k %.2f [%.2f, %.2f]\n\n",
                mtbf_ci.estimate, mtbf_ci.lower, mtbf_ci.upper,
                shape_ci.estimate, shape_ci.lower, shape_ci.upper);
  }

  // ---- root causes and hot spots ---------------------------------------
  TextTable causes({"category", "events", "share", "category MTBF (h)"});
  for (const auto& entry : failures::category_breakdown(trace)) {
    causes.add_row({failures::to_string(entry.category),
                    std::to_string(entry.count),
                    TextTable::percent(entry.fraction),
                    entry.mtbf_hours > 0.0
                        ? TextTable::num(entry.mtbf_hours, 1)
                        : "n/a"});
  }
  std::printf("%s\n", causes.to_string().c_str());

  TextTable offenders({"node", "failures", "share"});
  for (const auto& node : failures::top_offender_nodes(trace, 5)) {
    offenders.add_row(
        {std::to_string(node.node_id), std::to_string(node.count),
         TextTable::percent(static_cast<double>(node.count) /
                            static_cast<double>(trace.size()))});
  }
  std::printf("top offender nodes:\n%s\n", offenders.to_string().c_str());

  // ---- distribution fits ----------------------------------------------
  const auto weibull = stats::fit_weibull(gaps);
  const auto exponential = stats::fit_exponential(gaps);
  const auto lognormal = stats::fit_lognormal(gaps);
  const auto normal = stats::fit_normal(gaps);
  const auto gamma = stats::fit_gamma(gaps);

  TextTable fits({"candidate", "parameters", "K-S D", "K-S verdict",
                  "AD A^2", "AD verdict"});
  const auto add_fit = [&](const stats::Distribution& d,
                           const std::string& params) {
    const auto ks = stats::ks_test(gaps, d);
    const auto ad = stats::ad_test(gaps, d);
    fits.add_row({d.name(), params, TextTable::num(ks.d_statistic, 3),
                  ks.rejected ? "reject" : "accept",
                  TextTable::num(ad.a_squared, 1),
                  ad.rejected ? "reject" : "accept"});
  };
  add_fit(weibull, "k=" + TextTable::num(weibull.shape()) +
                       " lambda=" + TextTable::num(weibull.scale()));
  add_fit(gamma, "a=" + TextTable::num(gamma.shape()) +
                     " theta=" + TextTable::num(gamma.scale()));
  add_fit(lognormal, "mu=" + TextTable::num(lognormal.mu()) +
                         " sigma=" + TextTable::num(lognormal.sigma()));
  add_fit(exponential, "rate=" + TextTable::num(exponential.rate(), 4));
  add_fit(normal, "mu=" + TextTable::num(normal.mu()) +
                      " sigma=" + TextTable::num(normal.sigma()));
  std::printf("%s\n", fits.to_string().c_str());

  // ---- recommendation -------------------------------------------------
  const sim::Recommendation rec = sim::advise(
      {.inter_arrival_hours = gaps, .checkpoint_size_gb = size_gb,
       .bandwidth_gbps = bandwidth, .compute_hours = 500.0},
      /*seed=*/7, /*replicas=*/100);
  std::printf("checkpoint size %.4g GB at %.1f GB/s => beta = %.3f h, "
              "Daly OCI = %.2f h\n",
              size_gb, bandwidth, rec.beta_hours, rec.oci_hours);
  std::printf("fitted Weibull shape k = %.2f => %s\n\n", rec.weibull_shape,
              rec.temporal_locality
                  ? "strong temporal locality: recommend iLazy"
                  : "no exploitable locality: recommend static OCI");

  TextTable projection({"policy", "makespan (h)", "ckpt I/O (h)",
                        "data written (TB)"});
  const auto add_projection = [&](const std::string& policy,
                                  const sim::AggregateMetrics& m) {
    projection.add_row({policy, TextTable::num(m.mean_makespan_hours),
                        TextTable::num(m.mean_checkpoint_hours),
                        TextTable::num(gb_to_tb(m.mean_data_written_gb), 1)});
  };
  add_projection("static-oci", rec.base);
  add_projection(rec.policy_spec, rec.chosen);
  std::printf("%s", projection.to_string().c_str());
  std::printf(
      "projected for a 500 h job: %.1f%% checkpoint I/O saved, %+.2f%% "
      "runtime.\n",
      rec.projected_io_saving * 100.0, rec.projected_runtime_change * 100.0);
  return 0;
} catch (const Error& error) {
  std::fprintf(stderr, "log_analyzer: %s\n", error.what());
  return 1;
}
