#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/random.hpp"
#include "obs/clock.hpp"
#include "spec/catalog.hpp"
#include "spec/scenario.hpp"
#include "spec/sweep.hpp"

namespace perfbench {
namespace {

using lazyckpt::spec::Scenario;

/// Distance between the seeds of two scenario copies.  A prime far above
/// every built-in seed, so shifted copies never collide with each other or
/// with the catalog.
constexpr std::uint64_t kSeedStride = 1'000'003;

/// Seed-shift slots per variant: cache-replay uses slots [0, 8) for its
/// working set and [8, 8 + writes) for its fresh-seed writes.
constexpr std::uint64_t kSlotsPerVariant = 1024;

std::string shifted_text(Scenario scenario, std::uint64_t variant,
                         std::uint64_t slot) {
  scenario.seed += kSeedStride * (variant * kSlotsPerVariant + slot);
  return lazyckpt::spec::to_string(scenario);
}

Workload catalog(std::uint64_t variant) {
  Workload w;
  for (const Scenario& scenario : lazyckpt::spec::builtin_scenarios()) {
    w.requests.push_back(shifted_text(scenario, variant, 0));
  }
  return w;
}

constexpr const char* kDistributions =
    "[ weibull:mtbf=11,k=0.6 | weibull:mtbf=11,k=0.8 | exponential:mtbf=11 "
    "| weibull:mtbf=2.2,k=0.6 | weibull:mtbf=2.2,k=0.8 "
    "| exponential:mtbf=2.2 ]";

Workload sweep(std::uint64_t variant, std::uint64_t* expand_ns) {
  const std::string common = "distribution = " + std::string(kDistributions) +
                             "\ncompute = 500\nreplicas = 64\nseed = " +
                             std::to_string(1000 + variant) + "\n";
  const std::string grids[] = {
      common +
          "storage = [ constant:beta=0.5 | constant:beta=0.25 ]\n"
          "policy = [ static-oci | ilazy:0.6 | periodic:1 "
          "| skip2:static-oci | linear:0.5 ]\n",
      common +
          "tier.1 = [ bb:beta=0.05,survivable=0.8 "
          "| mem:beta=0.005,survivable=0.5 ]\n"
          "tier.2 = [ pfs:beta=0.5,every=4 | pfs:beta=0.25,every=2 ]\n"
          "policy = [ static-oci | ilazy:0.6 | skip2:static-oci ]\n",
  };

  Workload w;
  for (const std::string& grid : grids) {
    const auto& clock = lazyckpt::obs::process_clock();
    const auto t0 = clock.now_ns();
    const auto points = lazyckpt::spec::expand_sweep(grid);
    if (expand_ns != nullptr) *expand_ns += clock.now_ns() - t0;
    for (const auto& point : points) {
      w.requests.push_back(lazyckpt::spec::to_string(point.scenario));
    }
  }
  return w;
}

/// Cache-replay sizing: 8 seed-shifted copies of the catalog form the
/// working set (184 entries against the store's 64-entry memory tier), and
/// a pass is 2000 requests of which exactly one in 40 is a write.  Every
/// stored entry creates a file, and file creation is the noisiest cost on
/// a shared host (5 to 500 us each), so the working set and the write
/// share are kept small enough that creations stay a small part of set-up
/// and of a pass.  Eight copies put the pass's 99th percentile among the
/// disk-read spider-trace requests rather than at their edge (README.md,
/// Sizing).
constexpr std::uint64_t kWorkingCopies = 8;
constexpr std::size_t kReplayRequests = 2000;
constexpr std::size_t kReplayWrites = kReplayRequests / 40;

/// Cache-replay warm-up passes per set-up (Workload::warmup_passes): five
/// keep the store fill's file creations a small part of set-up.
constexpr std::size_t kReplayWarmupPasses = 5;

template <typename T>
void shuffle(std::vector<T>& values, lazyckpt::Rng& rng) {
  for (std::size_t i = values.size(); i-- > 1;) {
    const auto j = static_cast<std::size_t>(rng.uniform_index(i + 1));
    std::swap(values[i], values[j]);
  }
}

Workload cache_replay(std::uint64_t variant) {
  const auto& catalog = lazyckpt::spec::builtin_scenarios();
  Workload w;
  w.max_replicas = 4;
  w.warmup_passes = kReplayWarmupPasses;

  // Zipf rank r maps to working-set entry r, ordered copy-major, so the
  // hot head holds every catalog scenario whatever the seed.
  for (std::uint64_t copy = 0; copy < kWorkingCopies; ++copy) {
    for (const Scenario& scenario : catalog) {
      w.working_set.push_back(shifted_text(scenario, variant, copy));
    }
  }

  // Each entry is read its exact Zipf(1) share of the pass's reads
  // (cumulative rounding), in a seeded order.  So the cost mix of a pass,
  // and which requests make up its slowest 1%, do not depend on the
  // variant; only the order does.
  const std::size_t reads = kReplayRequests - kReplayWrites;
  double total = 0.0;
  for (std::size_t r = 0; r < w.working_set.size(); ++r) {
    total += 1.0 / static_cast<double>(r + 1);
  }
  std::vector<std::size_t> picks;
  picks.reserve(reads);
  double cumulative = 0.0;
  for (std::size_t r = 0; r < w.working_set.size(); ++r) {
    cumulative += 1.0 / static_cast<double>(r + 1);
    const auto upto = static_cast<std::size_t>(
        std::llround(cumulative / total * static_cast<double>(reads)));
    picks.insert(picks.end(), upto - picks.size(), r);
  }

  lazyckpt::Rng rng(0x5eed0000ULL + variant);
  std::vector<char> is_write(kReplayRequests, 0);
  std::fill_n(is_write.begin(), kReplayWrites, 1);
  shuffle(is_write, rng);
  shuffle(picks, rng);

  // Writes walk the catalog round-robin, each with a seed no other request
  // uses, so every write misses and the pass's compute cost is fixed.  They
  // leave out bounded iLazy (fig21, three quarters of a catalog pass), so
  // this workload's compute is the cheap policies' and a change to bounded
  // iLazy's decisions is predicted not to move it.
  std::vector<const Scenario*> writable;
  for (const Scenario& scenario : catalog) {
    if (!scenario.policy.starts_with("bounded-ilazy")) {
      writable.push_back(&scenario);
    }
  }
  std::size_t writes = 0;
  std::size_t next_pick = 0;
  for (std::size_t i = 0; i < kReplayRequests; ++i) {
    if (is_write[i] != 0) {
      const Scenario& scenario = *writable[writes % writable.size()];
      w.requests.push_back(
          shifted_text(scenario, variant, kWorkingCopies + writes));
      w.entry_of_request.push_back(Workload::kWrite);
      ++writes;
      continue;
    }
    const std::size_t entry = picks[next_pick++];
    w.requests.push_back(w.working_set[entry]);
    w.entry_of_request.push_back(entry);
  }
  return w;
}

}  // namespace

Workload make_workload(std::string_view name, std::uint64_t variant,
                       std::uint64_t* expand_ns) {
  if (name == "catalog") return catalog(variant);
  if (name == "sweep") return sweep(variant, expand_ns);
  if (name == "cache-replay") return cache_replay(variant);
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

}  // namespace perfbench
