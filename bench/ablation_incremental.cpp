/// Ablation: incremental (delta) checkpointing — on-disk bytes per save as
/// a function of the application's state change rate and the full-
/// checkpoint period.  Data reduction composes with iLazy's interval
/// scheduling (the paper's related-work section makes exactly this point).

#include <filesystem>
#include <vector>

#include "common/random.hpp"
#include "cr/incremental.hpp"

#include "bench_common.hpp"

using namespace lazyckpt;
using namespace lazyckpt::bench;

namespace {

/// Average on-disk bytes per save over `saves` saves for a given change
/// rate / full period.
double bytes_per_save(double change_fraction, int full_every, int saves) {
  const auto dir = scratch_dir("lazyckpt_ablation_inc");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  std::vector<double> state(256 * 1024, 1.0);  // 2 MiB of state
  cr::RegionRegistry registry;
  registry.register_array("state", state.data(), state.size());
  cr::IncrementalCheckpointer inc(registry, dir.string(), full_every);

  Rng rng(61);
  for (int s = 0; s < saves; ++s) {
    const auto touches =
        static_cast<std::size_t>(change_fraction * state.size());
    for (std::size_t i = 0; i < touches; ++i) {
      state[rng.uniform_index(state.size())] += 0.5;
    }
    inc.save({static_cast<double>(s)});
  }
  const double result =
      static_cast<double>(inc.stats().bytes_written) / saves;
  std::filesystem::remove_all(dir);
  return result;
}

}  // namespace

int main() {
  // Smoke mode keeps every change rate and full period but runs 4 saves,
  // so full_every 4 and 16 still write one full checkpoint and 3 deltas.
  const int saves = smoke_mode() ? 4 : 24;
  print_banner("Ablation — incremental checkpoint write volume");
  print_params("2 MiB registered state, " + std::to_string(saves) +
               " saves, seed 61; cells = mean on-disk bytes per save");

  const double full_size = 256.0 * 1024.0 * 8.0;
  std::printf("full checkpoint size: %.0f bytes\n\n", full_size);

  TextTable table({"state changed per save", "full_every=1 (always full)",
                   "full_every=4", "full_every=16"});
  for (const double change : {0.001, 0.01, 0.1, 1.0}) {
    std::vector<std::string> row = {TextTable::percent(change, 1)};
    for (const int every : {1, 4, 16}) {
      row.push_back(TextTable::num(bytes_per_save(change, every, saves), 0));
    }
    table.add_row(row);
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Reading: for slowly mutating state, deltas cut the written volume\n"
      "by an order of magnitude or more; at 100%% churn the XOR stream has\n"
      "no zeros and the delta falls back to ~full size, so full_every only\n"
      "matters when state actually exhibits locality.\n");
  return 0;
}
