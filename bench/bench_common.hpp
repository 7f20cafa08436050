#pragma once

/// \file bench_common.hpp
/// \brief Shared scaffolding for the paper-reproduction bench binaries.
///
/// Each binary regenerates one table or figure of the DSN'14 paper.  The
/// output convention: a banner naming the artifact, the parameters used
/// (including seeds — everything is reproducible), then the rows/series.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/parallel.hpp"
#include "common/table.hpp"
#include "core/model/oci.hpp"
#include "core/policy/factory.hpp"
#include "io/factory.hpp"
#include "io/storage_model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/sweep.hpp"
#include "spec/catalog.hpp"
#include "spec/runner.hpp"
#include "stats/exponential.hpp"
#include "stats/factory.hpp"
#include "stats/weibull.hpp"

namespace lazyckpt::bench {

/// Every bench binary is trace-capable: run it with LAZYCKPT_TRACE=<path>
/// and this session (one per program; constructed before main, flushed
/// after main returns when worker threads have joined) writes a Chrome
/// trace_event JSON file for `lazyckpt-trace` / chrome://tracing.  Without
/// the variable the session is inert and tracing stays disabled.
inline const obs::TraceEnvSession trace_env_session{};

/// A hero-run design point (system MTBF at scale, see apps::catalog).
struct HeroRun {
  const char* label;
  double mtbf_hours;
};

inline constexpr HeroRun kPetascale10K{"petascale-10K", 22.0};
inline constexpr HeroRun kPetascale20K{"petascale-20K", 11.0};
inline constexpr HeroRun kExascale100K{"exascale-100K", 2.2};

/// Standard simulation configuration: W hours of compute on the given
/// machine with a Daly-OCI reference interval.
inline sim::SimulationConfig hero_config(const HeroRun& hero,
                                         double beta_hours,
                                         double compute_hours = 500.0,
                                         double shape = 0.6) {
  sim::SimulationConfig config;
  config.compute_hours = compute_hours;
  config.alpha_oci_hours = core::daly_oci(beta_hours, hero.mtbf_hours);
  config.mtbf_hint_hours = hero.mtbf_hours;
  config.shape_hint = shape;
  return config;
}

/// Evaluate a policy spec on a hero run under Weibull(k) failures.
inline sim::AggregateMetrics evaluate(const HeroRun& hero, double beta_hours,
                                      const std::string& policy_spec,
                                      double shape, std::size_t replicas,
                                      std::uint64_t seed,
                                      double compute_hours = 500.0) {
  const auto config = hero_config(hero, beta_hours, compute_hours, shape);
  const auto weibull =
      stats::Weibull::from_mtbf_and_shape(hero.mtbf_hours, shape);
  const io::ConstantStorage storage(beta_hours, beta_hours);
  const auto policy = core::make_policy(policy_spec);
  return sim::run_replicas(config, *policy, weibull, storage, replicas, seed);
}

/// Replica-averaged metrics for `scenario` with its policy swapped to
/// `policy_spec` and (optionally, when > 0) its reference OCI overridden —
/// the figure benches evaluate several policies and intervals against one
/// catalog machine+workload.  Everything else (distribution, storage,
/// replicas, seed) comes from the scenario, so two policies compared this
/// way face the same failure arrival times.
inline sim::AggregateMetrics run_scenario_policy(
    const spec::Scenario& scenario, const std::string& policy_spec,
    double oci_hours = 0.0) {
  spec::Scenario variant = scenario;
  variant.policy = policy_spec;
  if (oci_hours > 0.0) variant.oci_hours = oci_hours;
  return spec::ScenarioRunner().run(variant).aggregate;
}

/// Relative saving of `candidate` vs `baseline` (positive = candidate
/// smaller).
inline double saving(double baseline, double candidate) {
  return baseline > 0.0 ? 1.0 - candidate / baseline : 0.0;
}

/// Print the standard run parameters line.
inline void print_params(const std::string& text) {
  std::printf("parameters: %s\n\n", text.c_str());
}

/// True when LAZYCKPT_BENCH_SMOKE is set (to anything but "0"): bench
/// binaries shrink their workloads to a few replicas so the `bench_smoke`
/// CTest label can compile- and run-check every benchmark in seconds.
/// Smoke output is for exercising the code paths, not for numbers.
inline bool smoke_mode() {
  const char* env = std::getenv("LAZYCKPT_BENCH_SMOKE");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

/// Replica count to actually run: `n` normally, a tiny count under
/// LAZYCKPT_BENCH_SMOKE.
inline std::size_t bench_replicas(std::size_t n) {
  return smoke_mode() ? std::min<std::size_t>(n, 3) : n;
}

/// A scratch directory `<stem>_<pid>` under the system temp directory:
/// the pid suffix keeps two concurrent runs of one binary out of each
/// other's files.  The caller creates and removes it.
inline std::filesystem::path scratch_dir(const std::string& stem) {
  return std::filesystem::temp_directory_path() /
         (stem + "_" + std::to_string(static_cast<long long>(::getpid())));
}

#ifndef LAZYCKPT_BUILD_TYPE
#define LAZYCKPT_BUILD_TYPE "unknown"
#endif

/// Logical CPUs currently online — on a container this is the usable
/// count, where hardware_concurrency may report the host's full socket.
/// The PR-1/PR-2 numbers were recorded where the two disagreed (1 online
/// core), which is why both now land in every BENCH_*.json.
inline unsigned cpus_online() {
#if defined(__unix__) || defined(__APPLE__)
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  if (n > 0) return static_cast<unsigned>(n);
#endif
  return std::thread::hardware_concurrency();
}

/// Write the standard "machine" JSON block (no trailing comma or newline)
/// every BENCH_*.json emitter includes, so perf trajectories recorded on
/// different hosts are comparable: core counts (advertised and online),
/// the LAZYCKPT_THREADS setting and the worker count it resolves to,
/// build type, and compiler.
inline void write_machine_json(std::FILE* out, const char* indent = "  ") {
  const char* threads_env = std::getenv("LAZYCKPT_THREADS");
  std::fprintf(out,
               "%s\"machine\": {\n"
               "%s  \"hardware_concurrency\": %u,\n"
               "%s  \"cpus_online\": %u,\n"
               "%s  \"lazyckpt_threads\": %s%s%s,\n"
               "%s  \"threads_resolved\": %zu,\n"
               "%s  \"build_type\": \"%s\",\n"
               "%s  \"compiler\": \"%s\",\n"
               "%s  \"smoke_mode\": %s\n"
               "%s}",
               indent, indent, std::thread::hardware_concurrency(), indent,
               cpus_online(), indent, threads_env != nullptr ? "\"" : "",
               threads_env != nullptr ? threads_env : "null",
               threads_env != nullptr ? "\"" : "", indent,
               ParallelConfig{}.resolve(), indent, LAZYCKPT_BUILD_TYPE,
               indent, __VERSION__, indent, smoke_mode() ? "true" : "false",
               indent);
}

/// Write the "observability" JSON block (no trailing comma or newline):
/// whether tracing was live for the run, plus a metrics snapshot — every
/// counter/gauge/histogram the instrumented paths recorded.  With
/// telemetry disabled the block is an honest `"enabled": false` with an
/// empty-or-stale metrics object, at zero cost to the run itself.
inline void write_observability_json(std::FILE* out,
                                     const char* indent = "  ") {
  const std::string metrics_json =
      obs::metrics().snapshot().to_json(std::string(indent) + "  ");
  std::fprintf(out,
               "%s\"observability\": {\n"
               "%s  \"enabled\": %s,\n"
               "%s  \"metrics\": %s\n"
               "%s}",
               indent, indent, obs::enabled() ? "true" : "false", indent,
               metrics_json.c_str(), indent);
}

}  // namespace lazyckpt::bench
