/// Micro-benchmark: single-trial simulator throughput of today's kernels.
///
/// The "generic" arm is the type-erased loop (simulate_generic), the
/// "fast" arm is the devirtualized dispatch (simulate), and the "batch"
/// arm is the lockstep SoA kernel (simulate_batch) in production-sized
/// blocks.  All arms run in one invocation on the same pre-split RNG
/// streams, and each arm's summed RunMetrics must equal, bit for bit, the
/// digest the seed engine recorded for the same trials (kWorkloads); the
/// binary exits 1 otherwise.  The timings land in BENCH_sim_kernel.json
/// next to a machine block so the perf trajectory is comparable across
/// hosts.
///
/// Run single-threaded (LAZYCKPT_THREADS=1) for kernel numbers; the arms
/// are serial loops either way.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/policy/factory.hpp"
#include "sim/batch.hpp"
#include "stats/exponential.hpp"

namespace lazyckpt::bench {
namespace {

constexpr std::size_t kReplicas = 400;
constexpr double kComputeHours = 2000.0;
constexpr std::uint64_t kSeed = 20140623;  // DSN'14 vintage
constexpr int kRounds = 3;                 // best-of to shed scheduler noise

/// Fold the fields that matter for the bit-identity check; summing doubles
/// in replica order is itself deterministic, so an arm that reproduces the
/// seed's per-replica metrics reproduces its recorded sums, and any
/// arithmetic divergence perturbs them.
struct Digest {
  double makespan = 0.0;
  double wasted = 0.0;
  std::uint64_t events = 0;  // failures + written + skipped

  void add(const sim::RunMetrics& m) {
    makespan += m.makespan_hours;
    wasted += m.wasted_hours;
    events += m.failures + m.checkpoints_written + m.checkpoints_skipped;
  }
  bool operator==(const Digest&) const = default;
};

struct Workload {
  const char* name;
  const char* dist;    // "exponential" | "weibull"
  const char* policy;  // factory spec
  // What the seed engine summed over the first 3 (smoke) and kReplicas
  // trials of kSeed's streams, recorded with "%a".
  Digest seed_smoke;
  Digest seed_full;
};

constexpr Workload kWorkloads[] = {
    {"exp/hourly", "exponential", "hourly",
     {0x1.3df9564bbbcd4p+13, 0x1.611564bbbcd36p+9, 6986},
     {0x1.485c3e9e7de69p+20, 0x1.530e69e7de66fp+16, 921764}},
    {"exp/static-oci", "exponential", "static-oci",
     {0x1.12dced7ac01cp+13, 0x1.58676bd600ff8p+10, 2878},
     {0x1.18a767342945ep+20, 0x1.445d79a14a4dcp+17, 371615}},
    {"exp/ilazy", "exponential", "ilazy:0.6",
     {0x1.1b2a61529c0cep+13, 0x1.d2530a94e05c4p+10, 2434},
     {0x1.219d6bc2e25e3p+20, 0x1.c845de1712e84p+17, 310096}},
    {"weibull/hourly", "weibull", "hourly",
     {0x1.38e05e5b1bec3p+13, 0x1.3545e5b1bec35p+9, 7005},
     {0x1.42e2845716046p+20, 0x1.1f3445716046cp+16, 919952}},
    {"weibull/static-oci", "weibull", "static-oci",
     {0x1.066fe60134efp+13, 0x1.075f3009a7934p+10, 2884},
     {0x1.0d89e754de1e1p+20, 0x1.f8f4f54de213fp+16, 367888}},
    {"weibull/ilazy", "weibull", "ilazy:0.6",
     {0x1.0b0b7c2a4777ap+13, 0x1.805be1523bb57p+10, 2213},
     {0x1.0f41ed67f3afbp+20, 0x1.68b76b3f9d771p+17, 271240}},
};

/// The recorded seed digest for `replicas` trials: bench_replicas gives
/// kReplicas at full size and 3 under LAZYCKPT_BENCH_SMOKE.
const Digest& seed_digest(const Workload& wl, std::size_t replicas) {
  return replicas == kReplicas ? wl.seed_full : wl.seed_smoke;
}

stats::DistributionPtr make_dist(const std::string& kind) {
  if (kind == "exponential") {
    return stats::Exponential::from_mean(11.0).clone();
  }
  return stats::Weibull::from_mtbf_and_shape(11.0, 0.6).clone();
}

struct ArmResult {
  double seconds = 0.0;  // best of kRounds
  Digest digest;
};

enum class Arm { kGeneric, kFast, kBatch };

/// Block size for the batched arm — exactly what the production sweeps
/// use, LAZYCKPT_BATCH included (64 when unset; a 0 "disable" falls back
/// to the default so the arm still measures the kernel).
std::size_t batch_block() {
  const std::size_t block = sim::batch_size_from_env();
  return block > 0 ? block : 64;
}

ArmResult run_arm(Arm arm, const Workload& wl,
                  const sim::SimulationConfig& config,
                  const std::vector<Rng>& streams, std::size_t replicas) {
  const auto dist = make_dist(wl.dist);
  const io::ConstantStorage storage(0.5, 0.5);
  const auto policy = core::make_policy(wl.policy);

  // Pre-allocated outside the timed region so the batched arm's timing is
  // the kernel, not vector setup; the scalar arms allocate nothing either.
  std::vector<Rng> batch_streams;
  std::vector<sim::RunMetrics> batch_out;
  if (arm == Arm::kBatch) {
    batch_out.resize(replicas);
  }

  ArmResult result;
  result.seconds = std::numeric_limits<double>::infinity();
  // Best-of-N in smoke mode too: with three replicas the measurement
  // window is sub-millisecond, so a single round would charge one-time
  // costs (lazy table builds, cold caches, a scheduler preemption) to
  // the only sample and trip the perf gate's smoke floor.
  for (int round = 0; round < kRounds; ++round) {
    Digest digest;
    if (arm == Arm::kBatch) {
      batch_streams.assign(streams.begin(), streams.begin() + replicas);
    }
    const auto start = std::chrono::steady_clock::now();
    if (arm == Arm::kBatch) {
      // Serial blocks of the production batch size — same shape the sweep
      // dispatch runs per worker, minus the thread pool.
      const std::size_t block = batch_block();
      for (std::size_t begin = 0; begin < replicas; begin += block) {
        const std::size_t count = std::min(block, replicas - begin);
        sim::simulate_batch(
            config, *policy, *dist, storage,
            std::span<Rng>(batch_streams).subspan(begin, count),
            std::span<sim::RunMetrics>(batch_out).subspan(begin, count));
      }
      for (const auto& m : batch_out) digest.add(m);
    } else {
      for (std::size_t i = 0; i < replicas; ++i) {
        switch (arm) {
          case Arm::kGeneric: {
            sim::RenewalFailureSource source(*dist, streams[i]);
            digest.add(
                sim::simulate_generic(config, *policy, source, storage));
            break;
          }
          case Arm::kFast: {
            sim::RenewalFailureSource source(*dist, streams[i]);
            digest.add(sim::simulate(config, *policy, source, storage));
            break;
          }
          case Arm::kBatch:
            break;  // handled above
        }
      }
    }
    const auto stop = std::chrono::steady_clock::now();
    result.seconds = std::min(
        result.seconds, std::chrono::duration<double>(stop - start).count());
    result.digest = digest;
  }
  return result;
}

}  // namespace
}  // namespace lazyckpt::bench

int main() {
  using namespace lazyckpt;
  using namespace lazyckpt::bench;

  print_banner("Micro-benchmark — single-trial engine kernels");
  const std::size_t replicas = bench_replicas(kReplicas);
  print_params("MTBF 11 h, beta = gamma = 0.5 h, " +
               std::to_string(kComputeHours) +
               " h science per trial, alpha = Daly OCI; " +
               std::to_string(replicas) + " trials per arm, seed " +
               std::to_string(kSeed) + ", best of " +
               std::to_string(kRounds) + " rounds");

  sim::SimulationConfig config =
      hero_config(kPetascale20K, 0.5, kComputeHours);

  // One stream list, shared by every arm and workload — the streams the
  // seed digests were recorded on.
  Rng master(kSeed);
  std::vector<Rng> streams;
  streams.reserve(replicas);
  for (std::size_t i = 0; i < replicas; ++i) streams.push_back(master.split());

  // Warm-up: touch every code path and let the clock governor settle
  // before anything is timed.
  for (const Arm arm : {Arm::kGeneric, Arm::kFast, Arm::kBatch}) {
    run_arm(arm, kWorkloads[0], config, streams,
            std::min<std::size_t>(replicas, 32));
  }

  struct Row {
    const Workload* wl;
    ArmResult generic, fast, batch;
  };
  std::vector<Row> rows;
  bool identical = true;
  for (const auto& wl : kWorkloads) {
    Row row{&wl, run_arm(Arm::kGeneric, wl, config, streams, replicas),
            run_arm(Arm::kFast, wl, config, streams, replicas),
            run_arm(Arm::kBatch, wl, config, streams, replicas)};
    const Digest& seed = seed_digest(wl, replicas);
    if (!(row.generic.digest == seed && row.fast.digest == seed &&
          row.batch.digest == seed)) {
      identical = false;
      std::fprintf(stderr, "BIT-IDENTITY VIOLATION in %s\n", wl.name);
    }
    rows.push_back(row);
  }

  const auto trials_per_sec = [&](const ArmResult& a) {
    return a.seconds > 0.0 ? static_cast<double>(replicas) / a.seconds : 0.0;
  };
  const auto events_per_sec = [&](const ArmResult& a) {
    return a.seconds > 0.0
               ? static_cast<double>(a.digest.events) / a.seconds
               : 0.0;
  };
  const auto batch_vs_fast = [](const Row& row) {
    return row.batch.seconds > 0.0 ? row.fast.seconds / row.batch.seconds
                                   : 0.0;
  };

  TextTable table({"workload", "generic trials/s", "fast trials/s",
                   "batch trials/s", "batch/fast"});
  double worst_batch_vs_fast = std::numeric_limits<double>::infinity();
  double fast_total = 0.0;
  double batch_total = 0.0;
  for (const auto& row : rows) {
    worst_batch_vs_fast = std::min(worst_batch_vs_fast, batch_vs_fast(row));
    fast_total += row.fast.seconds;
    batch_total += row.batch.seconds;
    table.add_row({row.wl->name, TextTable::num(trials_per_sec(row.generic), 0),
                   TextTable::num(trials_per_sec(row.fast), 0),
                   TextTable::num(trials_per_sec(row.batch), 0),
                   TextTable::num(batch_vs_fast(row), 2)});
  }
  // The headline number: batch vs fast over the whole sweep (all
  // workloads, same trial mix for both arms, measured in this run).
  const double overall_batch =
      batch_total > 0.0 ? fast_total / batch_total : 0.0;
  std::printf("%s\n", table.to_string().c_str());
  std::printf("bit-identical to the seed digests: %s; batch vs fast %.2fx "
              "(worst %.2fx)\n",
              identical ? "yes" : "NO — BUG", overall_batch,
              worst_batch_vs_fast);

  std::FILE* json = std::fopen("BENCH_sim_kernel.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_sim_kernel.json\n");
    return 1;
  }
  std::fprintf(json,
               "{\n"
               "  \"bench\": \"micro_engine\",\n"
               "  \"workload\": \"single-trial simulate kernels, generic vs "
               "fast vs batch, checked against seed digests\",\n"
               "  \"replicas\": %zu,\n"
               "  \"compute_hours\": %.1f,\n"
               "  \"seed\": %llu,\n"
               "  \"rounds\": %d,\n",
               replicas, kComputeHours,
               static_cast<unsigned long long>(kSeed), kRounds);
  write_machine_json(json);
  std::fprintf(json, ",\n");
  write_observability_json(json);
  std::fprintf(json,
               ",\n"
               "  \"bit_identical\": %s,\n"
               "  \"overall\": {\"fast_seconds\": %.6f, "
               "\"batch_seconds\": %.6f, "
               "\"speedup_batch_vs_fast\": %.4f},\n"
               "  \"results\": [\n",
               identical ? "true" : "false", fast_total, batch_total,
               overall_batch);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    std::fprintf(
        json,
        "    {\"workload\": \"%s\", \"events\": %llu,\n"
        "     \"generic\": {\"seconds\": %.6f, \"trials_per_sec\": %.1f, "
        "\"events_per_sec\": %.1f},\n"
        "     \"fast\": {\"seconds\": %.6f, \"trials_per_sec\": %.1f, "
        "\"events_per_sec\": %.1f},\n"
        "     \"batch\": {\"seconds\": %.6f, \"trials_per_sec\": %.1f, "
        "\"events_per_sec\": %.1f},\n"
        "     \"speedup_batch_vs_fast\": %.4f}%s\n",
        row.wl->name,
        static_cast<unsigned long long>(row.fast.digest.events),
        row.generic.seconds, trials_per_sec(row.generic),
        events_per_sec(row.generic), row.fast.seconds,
        trials_per_sec(row.fast), events_per_sec(row.fast), row.batch.seconds,
        trials_per_sec(row.batch), events_per_sec(row.batch),
        batch_vs_fast(row), i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_sim_kernel.json\n");
  return identical ? 0 : 1;
}
