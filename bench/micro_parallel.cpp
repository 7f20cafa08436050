/// Micro-benchmark: serial vs parallel wall time for a representative
/// replica sweep on the shared parallel engine (common/parallel.hpp).
///
/// Emits BENCH_parallel.json (machine-readable) so later PRs can track the
/// perf trajectory, and prints the same numbers as a table.  Thread counts
/// are driven through LAZYCKPT_THREADS — the same knob users have — and the
/// run double-checks the determinism contract: the aggregate makespan must
/// be bit-identical at every thread count.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/parallel.hpp"
#include "core/policy/periodic.hpp"

using namespace lazyckpt;
using namespace lazyckpt::bench;

namespace {

constexpr std::size_t kReplicas = 150;
constexpr std::uint64_t kSeed = 67;

sim::AggregateMetrics run_sweep() {
  // 5000 h of science per replica: heavy enough (~50 ms serial for the
  // 150-replica sweep) that pool dispatch overhead is negligible and the
  // measured speedup reflects the engine, not thread start-up.
  spec::Scenario hero = hero_scenario(kPetascale20K, Law::kWeibull, 0.5, 0.6,
                                      bench_replicas(kReplicas), kSeed);
  hero.compute_hours = 5000.0;
  const auto config = spec::simulation_config(hero);
  const core::StaticOciPolicy policy;
  return sim::run_replicas(config, policy,
                           *stats::make_distribution(hero.distribution),
                           *io::make_storage(hero.storage), hero.replicas,
                           hero.seed);
}

struct Timing {
  std::size_t threads = 0;
  double seconds = 0.0;
  double speedup = 1.0;
  sim::AggregateMetrics metrics;
};

Timing time_sweep(std::size_t threads) {
  const std::string value = std::to_string(threads);
  setenv("LAZYCKPT_THREADS", value.c_str(), 1);
  Timing timing;
  timing.threads = threads;
  const auto start = std::chrono::steady_clock::now();
  timing.metrics = run_sweep();
  const auto stop = std::chrono::steady_clock::now();
  timing.seconds = std::chrono::duration<double>(stop - start).count();
  return timing;
}

}  // namespace

int main() {
  print_banner("Micro-benchmark — parallel replica sweep");
  print_params("petascale-20K, static-oci, Weibull k=0.6, 5000 h science, "
               "150 replicas, seed 67; wall time per LAZYCKPT_THREADS "
               "setting");

  run_sweep();  // warm up (page in code, fault the allocator)

  std::vector<Timing> timings;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    timings.push_back(time_sweep(threads));
  }
  unsetenv("LAZYCKPT_THREADS");

  bool deterministic = true;
  for (const auto& timing : timings) {
    if (timing.metrics.mean_makespan_hours !=
        timings.front().metrics.mean_makespan_hours) {
      deterministic = false;
    }
  }

  TextTable table({"threads", "seconds", "speedup vs 1", "mean makespan"});
  for (auto& timing : timings) {
    timing.speedup = timing.seconds > 0.0
                         ? timings.front().seconds / timing.seconds
                         : 0.0;
    table.add_row({std::to_string(timing.threads),
                   TextTable::num(timing.seconds, 3),
                   TextTable::num(timing.speedup, 2),
                   TextTable::num(timing.metrics.mean_makespan_hours, 6)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("hardware_concurrency: %u, deterministic across thread "
              "counts: %s\n",
              std::thread::hardware_concurrency(),
              deterministic ? "yes" : "NO — BUG");

  std::FILE* json = std::fopen("BENCH_parallel.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_parallel.json\n");
    return 1;
  }
  std::fprintf(json,
               "{\n"
               "  \"bench\": \"micro_parallel\",\n"
               "  \"workload\": \"run_replicas static-oci weibull k=0.6\",\n"
               "  \"replicas\": %zu,\n"
               "  \"seed\": %llu,\n",
               bench_replicas(kReplicas),
               static_cast<unsigned long long>(kSeed));
  write_machine_json(json);
  std::fprintf(json, ",\n");
  write_observability_json(json);
  std::fprintf(json,
               ",\n"
               "  \"deterministic\": %s,\n"
               "  \"results\": [\n",
               deterministic ? "true" : "false");
  for (std::size_t i = 0; i < timings.size(); ++i) {
    std::fprintf(json,
                 "    {\"threads\": %zu, \"seconds\": %.6f, "
                 "\"speedup\": %.4f}%s\n",
                 timings[i].threads, timings[i].seconds, timings[i].speedup,
                 i + 1 < timings.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_parallel.json\n");
  return deterministic ? 0 : 1;
}
