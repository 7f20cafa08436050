/// Reproduces paper Table 2: the model-computed optimal checkpoint interval
/// for each leadership application on Titan at the observed 10 GB/s Spider
/// bandwidth, next to the traditional hourly practice.

#include "apps/catalog.hpp"
#include "common/units.hpp"
#include "core/model/oci.hpp"

#include "bench_common.hpp"

using namespace lazyckpt;
using namespace lazyckpt::bench;

int main() {
  print_banner("Table 2 — per-application OCI on Titan");
  print_params("Titan MTBF 7.5 h, observed bandwidth 10 GB/s, Daly OCI");

  TextTable table({"application", "domain", "ckpt size", "beta (h)",
                   "OCI Young (h)", "OCI Daly (h)", "vs hourly"});
  for (const auto& app : apps::leadership_applications()) {
    const double beta = transfer_time_hours(
        app.checkpoint_size_gb, apps::kTitanObservedBandwidthGbps);
    const double young = core::young_oci(beta, apps::kTitanObservedMtbfHours);
    const double daly = core::daly_oci(beta, apps::kTitanObservedMtbfHours);
    const std::string size =
        app.checkpoint_size_gb >= 1000.0
            ? TextTable::num(gb_to_tb(app.checkpoint_size_gb), 1) + " TB"
            : TextTable::num(app.checkpoint_size_gb, 2) + " GB";
    table.add_row({app.name, app.domain, size, TextTable::num(beta, 3),
                   TextTable::num(young), TextTable::num(daly),
                   daly < 1.0 ? "checkpoint MORE often"
                              : "checkpoint LESS often"});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Reading: one-size-fits-all hourly checkpointing is not optimal —\n"
      "small-checkpoint applications (VULCUN, POP, GYRO) should checkpoint\n"
      "more often than hourly, large-checkpoint ones less often.\n");
  return 0;
}
