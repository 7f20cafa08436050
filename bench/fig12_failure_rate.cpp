/// Reproduces paper Fig. 12: failure-rate (hazard) curves for an
/// exponential distribution and a Weibull (k = 0.6) with the same
/// 10-hour MTBF, as a function of time since the last failure — the curve
/// whose slope iLazy's interval formula inverts.

#include "stats/exponential.hpp"
#include "stats/weibull.hpp"

#include "bench_common.hpp"

using namespace lazyckpt;
using namespace lazyckpt::bench;

int main() {
  print_banner("Fig. 12 — failure rate vs time since last failure");
  print_params("MTBF 10 h; Weibull scale set via Gamma function for k=0.6");

  const double mtbf = 10.0;
  const auto exponential = stats::Exponential::from_mean(mtbf);
  const auto weibull = stats::Weibull::from_mtbf_and_shape(mtbf, 0.6);
  std::printf("weibull scale lambda = %.3f h\n\n", weibull.scale());

  TextTable table({"t (h)", "h(t) exponential (1/h)", "h(t) weibull (1/h)",
                   "ratio"});
  for (const double t : {0.25, 0.5, 1.0, 2.0, 4.0, 6.0, 10.0, 15.0, 20.0,
                         30.0}) {
    const double h_e = exponential.hazard(t);
    const double h_w = weibull.hazard(t);
    table.add_row({TextTable::num(t), TextTable::num(h_e, 4),
                   TextTable::num(h_w, 4), TextTable::num(h_w / h_e, 2)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Reading: the exponential hazard is flat at 1/MTBF = 0.1; the Weibull\n"
      "hazard starts far above it and decays below it — one may get \"lazy\"\n"
      "about checkpointing as failure-free time accumulates.\n");
  return 0;
}
