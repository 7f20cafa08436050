#pragma once

/// \file gate.hpp
/// \brief lazyckpt-bench-gate: the perf-regression comparator behind the
/// committed bench trajectory (EXPERIMENTS.md, "Bench trajectory").
///
/// `bench/micro_engine` writes BENCH_sim_kernel.json; the canonical
/// snapshot for the current machine class is committed under results/.
/// The gate diffs a fresh report against that baseline: identity
/// invariants (the cross-arm bit-identity digest, and — when the run
/// shapes match — exact per-workload event counts) are enforced
/// unconditionally, while throughput is compared with a noise bound so a
/// shared runner's jitter does not fail CI but a real regression does.
///
/// Reports are read with the shared tools/json pull reader, which like the
/// gate links none of the simulation libraries, so the gate builds even
/// when the code it measures does not.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace lazyckpt::benchgate {

/// One measured arm of one workload row ("legacy", "generic", "fast",
/// "batch").
struct ArmStats {
  double seconds = 0.0;
  double trials_per_sec = 0.0;
  double events_per_sec = 0.0;
};

struct WorkloadRow {
  std::string workload;
  std::uint64_t events = 0;
  std::map<std::string, ArmStats> arms;
};

/// The slice of BENCH_sim_kernel.json the gate reasons about.  Unknown
/// keys are ignored so the schema can grow without breaking old gates.
struct BenchReport {
  std::string bench;
  std::uint64_t replicas = 0;
  std::uint64_t seed = 0;
  bool bit_identical = false;
  bool smoke_mode = false;
  std::vector<WorkloadRow> rows;
};

/// Parse a bench report.  Throws json::ParseError (a std::runtime_error)
/// on malformed JSON or a report missing the required keys.
[[nodiscard]] BenchReport parse_bench_report(std::string_view text);

/// Read and parse one report file.  Throws std::runtime_error when the
/// file cannot be read.
[[nodiscard]] BenchReport load_bench_report(const std::string& path);

struct GateOptions {
  /// Per-arm throughput floor: fresh trials/sec must be at least
  /// min_ratio × baseline trials/sec.
  double min_ratio = 0.8;
  /// Smoke-tolerant mode for shared CI runners: identity invariants stay
  /// mandatory, throughput bounds widen (unless --min-ratio overrides),
  /// and event counts are not compared (smoke runs shrink the workload).
  bool smoke = false;
};

/// One named invariant the gate evaluated.
struct GateCheck {
  std::string label;
  bool pass = false;
  std::string detail;
};

struct GateOutcome {
  bool pass = true;
  std::vector<GateCheck> checks;

  void add(std::string label, bool ok, std::string detail) {
    pass = pass && ok;
    checks.push_back({std::move(label), ok, std::move(detail)});
  }
};

/// Evaluate every gate invariant of `fresh` against `baseline`.
[[nodiscard]] GateOutcome run_gate(const BenchReport& baseline,
                                   const BenchReport& fresh,
                                   const GateOptions& options);

/// Scale every arm of `report` down by `factor` (seconds up, rates down)
/// — the synthetic regression behind --self-test.
[[nodiscard]] BenchReport inject_slowdown(BenchReport report,
                                          double factor = 100.0);

/// Default smoke-mode throughput floor: wide enough for a three-replica
/// run on a contended shared runner, tight enough that the self-test's
/// 100x injected slowdown still trips it.
inline constexpr double kSmokeMinRatio = 0.05;

// ---------------------------------------------------------------------
// Result-cache gate (--cache): bench/micro_cache writes BENCH_cache.json
// (committed under results/) recording a cold pass over the catalog grid
// and warm replays through the content-addressed store.  The gate holds
// the cache to its contract: warm replay is bit-identical, never misses,
// and stays a large multiple faster than recomputing.
// ---------------------------------------------------------------------

/// The slice of BENCH_cache.json the cache gate reasons about.
struct CacheReport {
  std::string bench;
  std::uint64_t scenarios = 0;
  bool byte_identical = false;
  bool smoke_mode = false;
  std::uint64_t warm_hits = 0;
  std::uint64_t warm_misses = 0;
  double cold_seconds = 0.0;
  double warm_disk_seconds = 0.0;
  double speedup_warm_disk = 0.0;
};

/// Parse a cache bench report.  Throws json::ParseError on malformed JSON
/// or a report missing the required keys.
[[nodiscard]] CacheReport parse_cache_report(std::string_view text);

/// Read and parse one cache report file.  Throws on unreadable files.
[[nodiscard]] CacheReport load_cache_report(const std::string& path);

/// Evaluate the cache invariants of `fresh`.  No baseline is needed: the
/// report is self-gating (identity flags plus its own cold-vs-warm
/// ratio).  `options.smoke` swaps the speedup floor; `options.min_ratio`
/// is ignored (use the constants below).
[[nodiscard]] GateOutcome run_cache_gate(const CacheReport& fresh,
                                         const GateOptions& options);

/// Slow the warm path of `report` down by `factor` — the synthetic
/// regression behind --cache --self-test.
[[nodiscard]] CacheReport inject_cache_slowdown(CacheReport report,
                                                double factor = 100.0);

/// Warm-replay speedup floors: a full-catalog warm pass must beat the
/// cold pass by 50x (the PR-7 acceptance bar); smoke runs shrink every
/// scenario to a few replicas, so cold collapses and only a sanity
/// multiple is enforceable.
inline constexpr double kCacheMinSpeedup = 50.0;
inline constexpr double kCacheSmokeMinSpeedup = 1.5;

}  // namespace lazyckpt::benchgate
