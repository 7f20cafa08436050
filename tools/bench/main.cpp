/// \file main.cpp
/// \brief lazyckpt-bench-gate: perf-regression gate over the committed
/// bench trajectory (gate.hpp; EXPERIMENTS.md "Bench trajectory").
///
/// Usage:
///   lazyckpt-bench-gate --baseline <committed.json> --fresh <new.json>
///                       [--min-ratio <r>] [--smoke] [--self-test]
///   lazyckpt-bench-gate --cache --fresh <BENCH_cache.json>
///                       [--smoke] [--self-test]
///     --baseline   committed results/BENCH_sim_kernel.json snapshot
///     --fresh      report from the build you are gating
///     --min-ratio  per-arm trials/sec floor as a fraction of baseline
///                  (default 0.8 strict, 0.05 with --smoke)
///     --smoke      shared-runner mode: identity stays enforced, perf
///                  bounds widen, event counts are not compared
///     --cache      gate a BENCH_cache.json (bench/micro_cache) instead:
///                  warm replay must be byte-identical, miss-free, and
///                  >= 50x faster than cold (1.5x with --smoke).  The
///                  report is self-gating; --baseline is not used.
///     --self-test  verify the gate itself: the fresh report must pass,
///                  and a synthetic 100x slowdown injected into it must
///                  fail.  Exit 0 only if both hold.
///
/// Exit status: 0 gate passed, 1 gate failed (a report that does not
/// parse fails it too), 2 usage or I/O error.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "gate.hpp"
#include "json.hpp"

namespace {

using namespace lazyckpt;

void print_usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: lazyckpt-bench-gate --baseline <json> --fresh <json>\n"
      "                           [--min-ratio <r>] [--smoke] "
      "[--self-test]\n"
      "       lazyckpt-bench-gate --cache --fresh <json> [--smoke] "
      "[--self-test]\n"
      "  --baseline <json>  committed bench snapshot (results/)\n"
      "  --fresh <json>     freshly measured report to gate\n"
      "  --min-ratio <r>    trials/sec floor vs baseline (default 0.8,\n"
      "                     0.05 with --smoke)\n"
      "  --smoke            wide bounds for shared runners; identity\n"
      "                     checks stay exact\n"
      "  --cache            gate a BENCH_cache.json: byte-identity,\n"
      "                     zero warm misses, >= 50x warm speedup\n"
      "                     (1.5x with --smoke); no baseline needed\n"
      "  --self-test        prove the gate fails on an injected slowdown\n"
      "  --help             this message\n");
}

void print_outcome(const benchgate::GateOutcome& outcome) {
  for (const auto& check : outcome.checks) {
    std::printf("  [%s] %-28s %s\n", check.pass ? "ok" : "FAIL",
                check.label.c_str(), check.detail.c_str());
  }
  std::printf("gate: %s (%zu checks)\n", outcome.pass ? "PASS" : "FAIL",
              outcome.checks.size());
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string fresh_path;
  benchgate::GateOptions options;
  bool min_ratio_given = false;
  bool self_test = false;
  bool cache_mode = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "lazyckpt-bench-gate: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--baseline") {
      baseline_path = next_value("--baseline");
    } else if (arg == "--fresh") {
      fresh_path = next_value("--fresh");
    } else if (arg == "--min-ratio") {
      options.min_ratio = std::atof(next_value("--min-ratio"));
      min_ratio_given = true;
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--cache") {
      cache_mode = true;
    } else if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--help") {
      print_usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "lazyckpt-bench-gate: unknown option '%s'\n",
                   arg.c_str());
      print_usage(stderr);
      return 2;
    }
  }
  if (fresh_path.empty() || (!cache_mode && baseline_path.empty())) {
    print_usage(stderr);
    return 2;
  }
  if (options.smoke && !min_ratio_given) {
    options.min_ratio = benchgate::kSmokeMinRatio;
  }
  if (options.min_ratio <= 0.0) {
    std::fprintf(stderr, "lazyckpt-bench-gate: --min-ratio must be > 0\n");
    return 2;
  }

  try {
    if (cache_mode) {
      const auto fresh = benchgate::load_cache_report(fresh_path);
      std::printf("lazyckpt-bench-gate: cache report %s (%s)\n",
                  fresh_path.c_str(), options.smoke ? "smoke" : "strict");
      const auto outcome = benchgate::run_cache_gate(fresh, options);
      print_outcome(outcome);
      if (!self_test) {
        return outcome.pass ? 0 : 1;
      }
      if (!outcome.pass) {
        std::fprintf(stderr,
                     "self-test: fresh report must pass before injection\n");
        return 1;
      }
      const auto slowed = benchgate::inject_cache_slowdown(fresh);
      const auto injected = benchgate::run_cache_gate(slowed, options);
      std::printf("self-test: injected 100x warm slowdown -> gate %s\n",
                  injected.pass ? "PASSED (BUG: should have failed)"
                                : "failed as it must");
      return injected.pass ? 1 : 0;
    }

    const auto baseline = benchgate::load_bench_report(baseline_path);
    const auto fresh = benchgate::load_bench_report(fresh_path);

    std::printf("lazyckpt-bench-gate: %s vs baseline %s (min-ratio %.2f%s)\n",
                fresh_path.c_str(), baseline_path.c_str(), options.min_ratio,
                options.smoke ? ", smoke" : "");
    const auto outcome = benchgate::run_gate(baseline, fresh, options);
    print_outcome(outcome);

    if (!self_test) {
      return outcome.pass ? 0 : 1;
    }

    // Self-test: the gate is only trustworthy if it (a) passes the real
    // report and (b) fails a synthetically slowed copy of it.
    if (!outcome.pass) {
      std::fprintf(stderr,
                   "self-test: fresh report must pass before injection\n");
      return 1;
    }
    const auto slowed = benchgate::inject_slowdown(fresh);
    const auto injected = benchgate::run_gate(baseline, slowed, options);
    std::printf("self-test: injected 100x slowdown -> gate %s\n",
                injected.pass ? "PASSED (BUG: should have failed)" : "failed "
                                "as it must");
    return injected.pass ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lazyckpt-bench-gate: %s\n", e.what());
    // A report that does not parse fails the gate; the rest is I/O.
    return dynamic_cast<const json::ParseError*>(&e) != nullptr ? 1 : 2;
  }
}
