#pragma once

/// \file bench_common.hpp
/// \brief Shared scaffolding for the paper-reproduction bench binaries.
///
/// Each binary regenerates one table or figure of the DSN'14 paper.  The
/// output convention: a banner naming the artifact, the parameters used
/// (including seeds — everything is reproducible), then the rows/series.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <span>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/keyval.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "io/factory.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/sweep.hpp"
#include "spec/catalog.hpp"
#include "spec/runner.hpp"
#include "stats/factory.hpp"

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

/// Failure law of a hero run's inter-arrival times.
enum class Law { kWeibull, kExponential };

/// A hero run as a scenario: W = 500 h (the Scenario default) on `hero`'s
/// machine, `law` failures at its MTBF (Weibull shape `shape`), constant
/// storage with β = γ = `beta_hours` (plus `size_gb` for write-volume
/// accounting when > 0), and explicit mtbf-hint and shape-hint, so the
/// runner's Daly OCI is core::daly_oci(β, MTBF) bit for bit.  The policy
/// is a placeholder for run_scenario_policy to swap; callers set any other
/// field (compute_hours, time_budget_hours, …) on the result.
inline spec::Scenario hero_scenario(const HeroRun& hero, Law law,
                                    double beta_hours, double shape,
                                    std::size_t replicas, std::uint64_t seed,
                                    double size_gb = 0.0) {
  const std::string mtbf = keyval::format_double(hero.mtbf_hours);
  spec::Scenario scenario;
  scenario.name = hero.label;
  scenario.distribution =
      law == Law::kWeibull
          ? "weibull:mtbf=" + mtbf + ",k=" + keyval::format_double(shape)
          : "exponential:mtbf=" + mtbf;
  scenario.storage = "constant:beta=" + keyval::format_double(beta_hours);
  if (size_gb > 0.0) {
    scenario.storage += ",size_gb=" + keyval::format_double(size_gb);
  }
  scenario.policy = "static-oci";
  scenario.mtbf_hint_hours = hero.mtbf_hours;
  scenario.shape_hint = shape;
  scenario.replicas = replicas;
  scenario.seed = seed;
  return scenario;
}

/// `scenario` run through spec::ScenarioRunner with its policy swapped to
/// `policy_spec` and (optionally, when > 0) its reference OCI overridden —
/// the figure benches evaluate several policies and intervals against one
/// machine+workload.  Everything else (distribution, storage, replicas,
/// seed) comes from the scenario, so two policies compared this way face
/// the same failure arrival times.
inline spec::ScenarioResult run_scenario_policy(const spec::Scenario& scenario,
                                                const std::string& policy_spec,
                                                double oci_hours = 0.0) {
  spec::Scenario variant = scenario;
  variant.policy = policy_spec;
  if (oci_hours > 0.0) variant.oci_hours = oci_hours;
  return spec::ScenarioRunner().run(variant);
}

/// The runtime-vs-interval curve of `scenario`: sim::runtime_vs_interval
/// over `intervals` on the scenario's config, failure law, storage,
/// replicas and seed.
inline std::vector<sim::IntervalPoint> interval_curve(
    const spec::Scenario& scenario, std::span<const double> intervals) {
  return sim::runtime_vs_interval(
      spec::simulation_config(scenario),
      *stats::make_distribution(scenario.distribution),
      *io::make_storage(scenario.storage), intervals, scenario.replicas,
      scenario.seed);
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
