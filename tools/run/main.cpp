/// \file main.cpp
/// \brief lazyckpt-run: execute experiment scenarios (DESIGN.md §5g).
///
/// The driver behind the declarative scenario layer: point it at .scn
/// files (bench/scenarios/) or built-in catalog entries and it resolves
/// the factory specs, runs the Monte Carlo replicas on the shared parallel
/// engine, and prints a bench-style table or one deterministic JSON object
/// per scenario.
///
/// Usage:
///   lazyckpt-run [options] [scenario-file...]
///     --list          list built-in scenarios and registered factory kinds
///     --name <name>   run the built-in scenario <name> (repeatable)
///     --dump <name>   print the built-in scenario in canonical file form
///                     (the exact bytes save_scenario writes) and exit
///     --compare       run exactly two scenarios and print a per-metric
///                     delta table (B − A, and B/A) instead of two reports
///     --sweep <file>  expand a .scn.sweep parameter grid and run every
///                     deduplicated point (repeatable; exclusive with
///                     scenario files).  Output is one table — or with
///                     --json one JSON array — ordered by canonical key
///     --smoke         clamp every scenario to 3 replicas (CI smoke runs;
///                     output is for exercising code paths, not numbers)
///     --json          force JSON output regardless of the scenario's
///                     `output` key
///     --cache-dir <d> reuse results via the content-addressed store in
///                     <d> (default: $LAZYCKPT_CACHE when set); prints
///                     "cache hits=H misses=M" on stderr afterwards
///     --no-cache      ignore --cache-dir and $LAZYCKPT_CACHE
///     --report <path> write the canonical JSON run report (metrics,
///                     span rollup, cache stats, machine block) to <path>
///                     — byte-identical across reruns under a fake clock
///     --progress      heartbeat "done/total | rate | ETA" lines on
///                     stderr while replicas run (also: LAZYCKPT_PROGRESS)
///
/// Exit status: 0 on success, 1 on any malformed spec, unknown name, or
/// unreadable file (the error names the offending token).

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/store.hpp"
#include "common/fp.hpp"
#include "common/table.hpp"
#include "io/factory.hpp"
#include "io/hierarchy.hpp"
#include "json.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "sim/metrics.hpp"
#include "spec/catalog.hpp"
#include "spec/runner.hpp"
#include "spec/scenario.hpp"
#include "spec/sweep.hpp"
#include "stats/factory.hpp"

namespace {

using namespace lazyckpt;

// LAZYCKPT_TRACE=<path> works on the driver exactly like on the benches:
// a file-scope session flushes the trace after main returns.
const obs::TraceEnvSession trace_env_session{};

constexpr std::size_t kSmokeReplicas = 3;

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: lazyckpt-run [options] [scenario-file...]\n"
               "  --list          list built-in scenarios and factory kinds\n"
               "  --name <name>   run the built-in scenario <name>\n"
               "  --dump <name>   print built-in <name> in canonical file "
               "form\n"
               "  --compare       run two scenarios, print per-metric "
               "deltas\n"
               "  --sweep <file>  expand and run a .scn.sweep parameter "
               "grid\n"
               "  --smoke         clamp every scenario to %zu replicas\n"
               "  --json          force JSON output\n"
               "  --cache-dir <d> content-addressed result cache "
               "(default: $LAZYCKPT_CACHE)\n"
               "  --no-cache      disable the result cache\n"
               "  --report <path> write the canonical JSON run report\n"
               "  --progress      heartbeat lines on stderr "
               "(also: LAZYCKPT_PROGRESS)\n"
               "  --help          this message\n",
               kSmokeReplicas);
}

void print_list() {
  print_banner("lazyckpt-run — built-in scenarios");
  TextTable table({"name", "replicas", "policy", "title"});
  for (const auto& scenario : spec::builtin_scenarios()) {
    table.add_row({scenario.name, std::to_string(scenario.replicas),
                   scenario.policy, scenario.title});
  }
  std::printf("%s\n", table.to_string().c_str());

  const auto join = [](const std::vector<std::string>& kinds) {
    std::string out;
    for (const auto& kind : kinds) {
      if (!out.empty()) out += ", ";
      out += kind;
    }
    return out;
  };
  std::printf("distribution kinds: %s\n",
              join(stats::DistributionRegistry::instance().kinds()).c_str());
  std::printf("storage kinds:      %s\n",
              join(io::StorageRegistry::instance().kinds()).c_str());
  std::printf("tier kinds:         %s\n",
              join(io::TierRegistry::instance().kinds()).c_str());
  std::printf(
      "policy specs:       hourly, periodic:<h>, static-oci, dynamic-oci,\n"
      "                    ilazy[:k], bounded-ilazy:<k>, linear:<x>,\n"
      "                    skip<N>:<base-spec>\n");
}

void print_scenario_json(const spec::Scenario& s, const char* indent) {
  std::printf("%s\"name\": \"%s\",\n", indent,
              json::escape(s.name).c_str());
  std::printf("%s\"title\": \"%s\",\n", indent,
              json::escape(s.title).c_str());
  std::printf("%s\"distribution\": \"%s\",\n", indent,
              json::escape(s.distribution).c_str());
  if (s.is_tiered()) {
    std::printf("%s\"tiers\": [", indent);
    for (std::size_t i = 0; i < s.tiers.size(); ++i) {
      std::printf("%s\"%s\"", i > 0 ? ", " : "",
                  json::escape(s.tiers[i]).c_str());
    }
    std::printf("],\n");
  } else {
    std::printf("%s\"storage\": \"%s\",\n", indent,
                json::escape(s.storage).c_str());
  }
  std::printf("%s\"policy\": \"%s\",\n", indent,
              json::escape(s.policy).c_str());
  std::printf("%s\"compute_hours\": %.17g,\n", indent, s.compute_hours);
  std::printf("%s\"replicas\": %zu,\n", indent, s.replicas);
  std::printf("%s\"seed\": %llu\n", indent,
              static_cast<unsigned long long>(s.seed));
}

void print_aggregate_json(const sim::AggregateMetrics& a, const char* indent) {
  std::printf("%s\"replicas\": %zu,\n", indent, a.replicas);
  std::printf("%s\"mean_makespan_hours\": %.17g,\n", indent,
              a.mean_makespan_hours);
  std::printf("%s\"min_makespan_hours\": %.17g,\n", indent,
              a.min_makespan_hours);
  std::printf("%s\"max_makespan_hours\": %.17g,\n", indent,
              a.max_makespan_hours);
  std::printf("%s\"mean_compute_hours\": %.17g,\n", indent,
              a.mean_compute_hours);
  std::printf("%s\"mean_checkpoint_hours\": %.17g,\n", indent,
              a.mean_checkpoint_hours);
  std::printf("%s\"mean_wasted_hours\": %.17g,\n", indent,
              a.mean_wasted_hours);
  std::printf("%s\"mean_restart_hours\": %.17g,\n", indent,
              a.mean_restart_hours);
  std::printf("%s\"mean_failures\": %.17g,\n", indent, a.mean_failures);
  std::printf("%s\"mean_checkpoints_written\": %.17g,\n", indent,
              a.mean_checkpoints_written);
  std::printf("%s\"mean_checkpoints_skipped\": %.17g,\n", indent,
              a.mean_checkpoints_skipped);
  std::printf("%s\"mean_data_written_gb\": %.17g\n", indent,
              a.mean_data_written_gb);
}

void print_json(const spec::ScenarioResult& result) {
  const auto& s = result.scenario;
  std::printf("{\n");
  std::printf("  \"scenario\": {\n");
  print_scenario_json(s, "    ");
  std::printf("  },\n");
  std::printf("  \"aggregate\": {\n");
  print_aggregate_json(result.aggregate, "    ");
  const bool more =
      result.campaign.has_value() || result.hierarchy.has_value();
  std::printf("  }%s\n", more ? "," : "");
  if (result.campaign.has_value()) {
    const auto& c = *result.campaign;
    std::printf("  \"campaign\": {\n");
    std::printf("    \"replicas\": %zu,\n", c.replicas);
    std::printf("    \"mean_allocations\": %.17g,\n", c.mean_allocations);
    std::printf("    \"mean_machine_hours\": %.17g,\n", c.mean_machine_hours);
    std::printf("    \"mean_committed_hours\": %.17g,\n",
                c.mean_committed_hours);
    std::printf("    \"mean_checkpoint_hours\": %.17g,\n",
                c.mean_checkpoint_hours);
    std::printf("    \"completion_rate\": %.17g\n", c.completion_rate);
    std::printf("  }%s\n", result.hierarchy.has_value() ? "," : "");
  }
  if (result.hierarchy.has_value()) {
    const auto& h = *result.hierarchy;
    std::printf("  \"hierarchy\": {\n");
    std::printf("    \"replicas\": %zu,\n", h.replicas);
    std::printf("    \"mean_io_hours\": %.17g,\n", h.mean_io_hours());
    std::printf("    \"tiers\": [\n");
    for (std::size_t i = 0; i < h.tiers.size(); ++i) {
      const auto& tier = h.tiers[i];
      std::printf(
          "      {\"kind\": \"%s\", \"mean_io_hours\": %.17g, "
          "\"mean_checkpoints\": %.17g, \"mean_restarts\": %.17g}%s\n",
          json::escape(tier.kind).c_str(), tier.mean_io_hours,
          tier.mean_checkpoints, tier.mean_restarts,
          i + 1 < h.tiers.size() ? "," : "");
    }
    std::printf("    ]\n");
    std::printf("  }\n");
  }
  std::printf("}\n");
}

void print_table(const spec::ScenarioResult& result) {
  const auto& s = result.scenario;
  const auto& a = result.aggregate;
  print_banner("scenario: " + s.name +
               (s.title.empty() ? std::string() : " — " + s.title));
  const std::string storage_label =
      s.is_tiered() ? s.tier_spec() : s.storage;
  std::printf(
      "distribution %s | storage %s | policy %s\n"
      "W %s h | replicas %zu | seed %llu%s\n\n",
      s.distribution.c_str(), storage_label.c_str(), s.policy.c_str(),
      TextTable::num(s.compute_hours, 0).c_str(), s.replicas,
      static_cast<unsigned long long>(s.seed),
      s.is_campaign() ? " | campaign mode" : "");

  TextTable table({"metric", "mean", "min", "max"});
  table.add_row({"makespan (h)", TextTable::num(a.mean_makespan_hours),
                 TextTable::num(a.min_makespan_hours),
                 TextTable::num(a.max_makespan_hours)});
  table.add_row({"checkpoint I/O (h)", TextTable::num(a.mean_checkpoint_hours),
                 TextTable::num(a.min_checkpoint_hours),
                 TextTable::num(a.max_checkpoint_hours)});
  table.add_row({"wasted work (h)", TextTable::num(a.mean_wasted_hours), "",
                 ""});
  table.add_row({"restart (h)", TextTable::num(a.mean_restart_hours), "", ""});
  table.add_row({"checkpoints written",
                 TextTable::num(a.mean_checkpoints_written, 1), "", ""});
  table.add_row({"checkpoints skipped",
                 TextTable::num(a.mean_checkpoints_skipped, 1), "", ""});
  table.add_row({"failures", TextTable::num(a.mean_failures, 1), "", ""});
  std::printf("%s\n", table.to_string().c_str());

  if (result.hierarchy.has_value()) {
    const auto& h = *result.hierarchy;
    TextTable tiers({"tier", "kind", "mean I/O (h)", "mean checkpoints",
                     "mean restores"});
    for (std::size_t level = 0; level < h.tiers.size(); ++level) {
      const auto& tier = h.tiers[level];
      tiers.add_row({std::to_string(level), tier.kind,
                     TextTable::num(tier.mean_io_hours),
                     TextTable::num(tier.mean_checkpoints, 1),
                     TextTable::num(tier.mean_restarts, 1)});
    }
    std::printf("%s\n", tiers.to_string().c_str());
  }

  if (result.campaign.has_value()) {
    const auto& c = *result.campaign;
    TextTable campaign({"campaign metric", "value"});
    campaign.add_row(
        {"allocations (mean)", TextTable::num(c.mean_allocations)});
    campaign.add_row(
        {"machine hours (mean)", TextTable::num(c.mean_machine_hours, 1)});
    campaign.add_row(
        {"committed hours (mean)", TextTable::num(c.mean_committed_hours, 1)});
    campaign.add_row({"completion rate",
                      TextTable::percent(c.completion_rate, 0)});
    std::printf("%s\n", campaign.to_string().c_str());
  }
}

// ---------------------------------------------------------------------
// --compare: per-metric deltas between exactly two scenario runs.
// ---------------------------------------------------------------------

struct MetricDelta {
  const char* metric;
  double a = 0.0;
  double b = 0.0;

  [[nodiscard]] double delta() const noexcept { return b - a; }
  [[nodiscard]] double ratio() const noexcept {
    return !fp::is_zero(a) ? b / a : 0.0;
  }
};

/// The aggregate metrics --compare reports, in fixed order so both the
/// table and the JSON are deterministic for a given pair of runs.
std::vector<MetricDelta> metric_deltas(const sim::AggregateMetrics& a,
                                       const sim::AggregateMetrics& b) {
  return {
      {"mean_makespan_hours", a.mean_makespan_hours, b.mean_makespan_hours},
      {"min_makespan_hours", a.min_makespan_hours, b.min_makespan_hours},
      {"max_makespan_hours", a.max_makespan_hours, b.max_makespan_hours},
      {"mean_compute_hours", a.mean_compute_hours, b.mean_compute_hours},
      {"mean_checkpoint_hours", a.mean_checkpoint_hours,
       b.mean_checkpoint_hours},
      {"mean_wasted_hours", a.mean_wasted_hours, b.mean_wasted_hours},
      {"mean_restart_hours", a.mean_restart_hours, b.mean_restart_hours},
      {"mean_failures", a.mean_failures, b.mean_failures},
      {"mean_checkpoints_written", a.mean_checkpoints_written,
       b.mean_checkpoints_written},
      {"mean_checkpoints_skipped", a.mean_checkpoints_skipped,
       b.mean_checkpoints_skipped},
      {"mean_data_written_gb", a.mean_data_written_gb,
       b.mean_data_written_gb},
  };
}

void print_compare_json(const spec::ScenarioResult& a,
                        const spec::ScenarioResult& b) {
  std::printf("{\n");
  std::printf("  \"compare\": {\n");
  std::printf("    \"a\": {\n");
  print_scenario_json(a.scenario, "      ");
  std::printf("    },\n");
  std::printf("    \"b\": {\n");
  print_scenario_json(b.scenario, "      ");
  std::printf("    },\n");
  std::printf("    \"metrics\": [\n");
  const auto deltas = metric_deltas(a.aggregate, b.aggregate);
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    const auto& d = deltas[i];
    std::printf(
        "      {\"metric\": \"%s\", \"a\": %.17g, \"b\": %.17g, "
        "\"delta\": %.17g, \"ratio\": %.17g}%s\n",
        d.metric, d.a, d.b, d.delta(), d.ratio(),
        i + 1 < deltas.size() ? "," : "");
  }
  std::printf("    ]\n");
  std::printf("  }\n");
  std::printf("}\n");
}

void print_compare_table(const spec::ScenarioResult& a,
                         const spec::ScenarioResult& b) {
  const auto& sa = a.scenario;
  const auto& sb = b.scenario;
  print_banner("compare: " + sa.name + " (A) vs " + sb.name + " (B)");
  const std::string storage_a = sa.is_tiered() ? sa.tier_spec() : sa.storage;
  const std::string storage_b = sb.is_tiered() ? sb.tier_spec() : sb.storage;
  std::printf(
      "A: %s | %s | policy %s | %zu replicas | seed %llu\n"
      "B: %s | %s | policy %s | %zu replicas | seed %llu\n\n",
      sa.distribution.c_str(), storage_a.c_str(), sa.policy.c_str(),
      sa.replicas, static_cast<unsigned long long>(sa.seed),
      sb.distribution.c_str(), storage_b.c_str(), sb.policy.c_str(),
      sb.replicas, static_cast<unsigned long long>(sb.seed));

  TextTable table({"metric", "A", "B", "delta (B-A)", "B/A"});
  for (const auto& d : metric_deltas(a.aggregate, b.aggregate)) {
    table.add_row({d.metric, TextTable::num(d.a), TextTable::num(d.b),
                   TextTable::num(d.delta()),
                   !fp::is_zero(d.a) ? TextTable::num(d.ratio()) : "n/a"});
  }
  std::printf("%s\n", table.to_string().c_str());
}

// ---------------------------------------------------------------------
// --sweep: parameter-grid runs.  Points are already deduplicated and
// sorted by canonical key (spec::expand_sweep), so both output forms are
// deterministic and machine-independent.
// ---------------------------------------------------------------------

/// One executed grid point: the point plus its result.
struct SweepRow {
  spec::SweepPoint point;
  spec::ScenarioResult result;
};

void print_sweep_json(const std::vector<SweepRow>& rows) {
  std::printf("[\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    std::printf("  {\n");
    std::printf("    \"key\": \"%s\",\n", row.point.key_hex.c_str());
    std::printf("    \"scenario\": {\n");
    print_scenario_json(row.result.scenario, "      ");
    std::printf("    },\n");
    std::printf("    \"aggregate\": {\n");
    print_aggregate_json(row.result.aggregate, "      ");
    std::printf("    }\n");
    std::printf("  }%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::printf("]\n");
}

void print_sweep_table(const std::vector<SweepRow>& rows) {
  print_banner("sweep: " + std::to_string(rows.size()) + " grid points");
  TextTable table({"key", "policy", "oci", "mean makespan (h)",
                   "mean ckpt I/O (h)", "mean wasted (h)", "failures"});
  for (const auto& row : rows) {
    const auto& s = row.result.scenario;
    const auto& a = row.result.aggregate;
    table.add_row({row.point.key_hex.substr(0, 12), s.policy,
                   s.oci_hours > 0.0 ? TextTable::num(s.oci_hours) : "daly",
                   TextTable::num(a.mean_makespan_hours),
                   TextTable::num(a.mean_checkpoint_hours),
                   TextTable::num(a.mean_wasted_hours),
                   TextTable::num(a.mean_failures, 1)});
  }
  std::printf("%s\n", table.to_string().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool force_json = false;
  bool compare = false;
  bool no_cache = false;
  bool progress = false;
  if (const char* env = std::getenv("LAZYCKPT_PROGRESS");
      env != nullptr && *env != '\0' && std::string(env) != "0") {
    progress = true;
  }
  std::string cache_dir;
  std::string report_path;
  if (const char* env = std::getenv("LAZYCKPT_CACHE")) cache_dir = env;
  std::vector<spec::Scenario> scenarios;
  std::vector<std::string> sweep_files;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        print_usage(stdout);
        return 0;
      }
      if (arg == "--list") {
        print_list();
        return 0;
      }
      if (arg == "--smoke") {
        smoke = true;
        continue;
      }
      if (arg == "--compare") {
        compare = true;
        continue;
      }
      if (arg == "--json") {
        force_json = true;
        continue;
      }
      if (arg == "--no-cache") {
        no_cache = true;
        continue;
      }
      if (arg == "--progress") {
        progress = true;
        continue;
      }
      if (arg == "--report") {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "lazyckpt-run: --report needs a path\n");
          return 1;
        }
        report_path = argv[++i];
        continue;
      }
      if (arg == "--cache-dir") {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "lazyckpt-run: --cache-dir needs a path\n");
          return 1;
        }
        cache_dir = argv[++i];
        continue;
      }
      if (arg == "--sweep") {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "lazyckpt-run: --sweep needs a file\n");
          return 1;
        }
        sweep_files.emplace_back(argv[++i]);
        continue;
      }
      if (arg == "--name" || arg == "--dump") {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "lazyckpt-run: %s needs a scenario name\n",
                       arg.c_str());
          return 1;
        }
        const auto& scenario = spec::builtin_scenario(argv[++i]);
        if (arg == "--dump") {
          std::fputs(spec::to_file_string(scenario).c_str(), stdout);
          return 0;
        }
        scenarios.push_back(scenario);
        continue;
      }
      if (!arg.empty() && arg.front() == '-') {
        std::fprintf(stderr, "lazyckpt-run: unknown option '%s'\n",
                     arg.c_str());
        print_usage(stderr);
        return 1;
      }
      scenarios.push_back(spec::load_scenario(arg));
    }

    if (scenarios.empty() && sweep_files.empty()) {
      print_usage(stderr);
      return 1;
    }
    if (!sweep_files.empty() && (compare || !scenarios.empty())) {
      std::fprintf(stderr,
                   "lazyckpt-run: --sweep cannot be combined with scenario "
                   "files, --name, or --compare\n");
      return 1;
    }

    // The cache outlives the runner; the runner only borrows it.
    std::optional<cache::ResultStore> store;
    if (!no_cache && !cache_dir.empty()) {
      store.emplace(cache::StoreOptions{cache_dir, 256});
    }

    spec::RunnerOptions options;
    if (smoke) options.max_replicas = kSmokeReplicas;
    if (store.has_value()) options.cache = &*store;
    const spec::ScenarioRunner runner(options);

    // Reports and the heartbeat both read the obs registry, so either
    // flag turns recording on — telemetry observes, never perturbs, so
    // the tables/JSON on stdout stay byte-identical either way.
    if (!report_path.empty() || progress) obs::set_enabled(true);
    std::optional<obs::ProgressTicker> ticker;
    if (progress) ticker.emplace();
    std::vector<std::string> run_names;

    // Every scenario run goes through here: the ticker learns the task's
    // label/denominator, and the report learns the scenario order.
    const auto run_one = [&](const spec::Scenario& scenario) {
      std::size_t total = scenario.replicas;
      if (smoke) total = std::min(total, kSmokeReplicas);
      if (ticker.has_value()) {
        ticker->begin(scenario.name, total,
                      scenario.is_campaign() ? "sim.campaign_replicas_done"
                                             : "sim.replicas_done");
      }
      auto result = runner.run(scenario);
      if (ticker.has_value()) ticker->finish();
      run_names.push_back(scenario.name);
      return result;
    };

    // Stats go to stderr at every exit from here on, so "run 2 of the
    // same grid must be 100% hits" is assertable from a shell.
    const auto report_cache = [&store] {
      if (!store.has_value()) return;
      const cache::StoreStats stats = store->stats();
      std::fprintf(stderr,
                   "lazyckpt-run: cache hits=%llu misses=%llu\n",
                   static_cast<unsigned long long>(stats.hits),
                   static_cast<unsigned long long>(stats.misses));
    };

    // Canonical JSON run report (--report).  Assembled from the obs
    // registry and the trace buffers (snapshot, not drain — a pending
    // LAZYCKPT_TRACE flush still sees every event).
    const auto write_report = [&] {
      if (report_path.empty()) return;
      obs::RunReportInputs inputs;
      inputs.tool = "lazyckpt-run";
      inputs.scenarios = run_names;
      inputs.machine.emplace_back(
          "hardware_concurrency",
          std::to_string(std::thread::hardware_concurrency()));
      const char* threads_env = std::getenv("LAZYCKPT_THREADS");
      inputs.machine.emplace_back(
          "lazyckpt_threads",
          threads_env != nullptr
              ? "\"" + json::escape(threads_env) + "\""
              : std::string("null"));
      inputs.machine.emplace_back("smoke", smoke ? "true" : "false");
      inputs.metrics = obs::metrics().snapshot();
      inputs.events = obs::snapshot_events();
      if (store.has_value()) {
        const cache::StoreStats stats = store->stats();
        inputs.has_cache = true;
        inputs.cache_hits = stats.hits;
        inputs.cache_misses = stats.misses;
        inputs.cache_bytes_read = stats.bytes_read;
        inputs.cache_bytes_written = stats.bytes_written;
        inputs.cache_evictions = stats.evictions;
      }
      if (!obs::write_run_report_file(inputs, report_path)) {
        std::fprintf(stderr, "lazyckpt-run: cannot write report %s\n",
                     report_path.c_str());
      }
    };

    if (!sweep_files.empty()) {
      // Merge every requested grid: dedup across files by canonical key,
      // order by key — the result is independent of file order and of
      // how the grids overlap.
      std::vector<spec::SweepPoint> points;
      for (const auto& file : sweep_files) {
        for (auto& point : spec::load_sweep(file)) {
          points.push_back(std::move(point));
        }
      }
      std::sort(points.begin(), points.end(),
                [](const spec::SweepPoint& a, const spec::SweepPoint& b) {
                  return a.key_hex < b.key_hex;
                });
      points.erase(std::unique(points.begin(), points.end(),
                               [](const spec::SweepPoint& a,
                                  const spec::SweepPoint& b) {
                                 return a.key_hex == b.key_hex;
                               }),
                   points.end());

      std::vector<SweepRow> rows;
      rows.reserve(points.size());
      for (const auto& point : points) {
        rows.push_back(SweepRow{point, run_one(point.scenario)});
      }
      if (force_json) {
        print_sweep_json(rows);
      } else {
        print_sweep_table(rows);
      }
      report_cache();
      write_report();
      return 0;
    }

    if (compare) {
      if (scenarios.size() != 2) {
        std::fprintf(stderr,
                     "lazyckpt-run: --compare needs exactly two scenarios "
                     "(got %zu)\n",
                     scenarios.size());
        return 1;
      }
      if (scenarios[0].is_campaign() || scenarios[1].is_campaign()) {
        std::fprintf(stderr,
                     "lazyckpt-run: --compare supports replica-mode "
                     "scenarios only\n");
        return 1;
      }
      const auto a = run_one(scenarios[0]);
      const auto b = run_one(scenarios[1]);
      if (force_json) {
        print_compare_json(a, b);
      } else {
        print_compare_table(a, b);
      }
      report_cache();
      write_report();
      return 0;
    }

    for (const auto& scenario : scenarios) {
      const auto result = run_one(scenario);
      const bool json =
          force_json || scenario.output == spec::OutputFormat::kJson;
      if (json) {
        print_json(result);
      } else {
        print_table(result);
      }
    }
    report_cache();
    write_report();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "lazyckpt-run: %s\n", error.what());
    return 1;
  }
  return 0;
}
