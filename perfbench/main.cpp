// lazyckpt-perfbench: one closed-loop client feeding generated scenario
// text through parse_scenario → ScenarioRunner::run → serialize_result.
//
//   lazyckpt-perfbench --workload <catalog|sweep|cache-replay> --seed <n>
//                      --seconds <s> --trace <0|1>
//                      --expect <expected_digests.txt> --scratch <dir>
//   lazyckpt-perfbench --record --workload <name> --scratch <dir>
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// from a replay that times each layer's public call (replay.hpp).  The
// last line of stdout is one JSON object; README.md documents every
// metric and why the workloads are sized as they are.  --record prints
// the expected pass digest of every variant of a workload.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "cache/key.hpp"
#include "cache/serialize.hpp"
#include "cache/store.hpp"
#include "common/digest.hpp"
#include "obs/clock.hpp"
#include "replay.hpp"
#include "spec/runner.hpp"
#include "spec/scenario.hpp"
#include "workloads.hpp"

namespace {

namespace fs = std::filesystem;
using lazyckpt::obs::process_clock;
using perfbench::LayerTrace;
using perfbench::Workload;

/// An untraced run sets up afresh before every kPassesPerSetup timed
/// passes, and at least kMinSetups times; setup_s is the median set-up.
constexpr std::size_t kPassesPerSetup = 3;
constexpr std::size_t kMinSetups = 5;

/// A traced run repeats rounds of an untraced pass, a traced pass and a
/// traced pass at 2 threads; at least this many, so medians have three
/// samples.
constexpr std::size_t kMinTracedRounds = 3;

void set_threads(std::size_t threads) {
  ::setenv("LAZYCKPT_THREADS", std::to_string(threads).c_str(), 1);
}

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

template <typename T>
double median(std::vector<T> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? static_cast<double>(values[n / 2])
                    : (static_cast<double>(values[n / 2 - 1]) +
                       static_cast<double>(values[n / 2])) /
                          2.0;
}

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
double percentile(const std::vector<std::uint64_t>& sorted, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return static_cast<double>(sorted[std::max<std::size_t>(rank, 1) - 1]);
}

/// One run's inputs plus, for cache-replay, the filled store it replays
/// against.  Every pass starts from the same state: a fresh ResultStore
/// (empty memory tier) over the directory filled at set-up, with the files
/// the previous pass's writes published removed again, so every pass does
/// identical work and produces identical bytes.
class Session {
 public:
  Session(Workload workload, fs::path cache_dir)
      : workload_(std::move(workload)), cache_dir_(std::move(cache_dir)) {
    if (!workload_.uses_cache()) return;
    fs::remove_all(cache_dir_);
    fs::create_directories(cache_dir_);
    new_store();
    const lazyckpt::spec::ScenarioRunner runner(runner_options());
    for (const std::string& text : workload_.working_set) {
      stored_bytes_.push_back(lazyckpt::cache::serialize_result(
          runner.run(lazyckpt::spec::parse_scenario(text))));
    }
    for (std::size_t i = 0; i < workload_.requests.size(); ++i) {
      if (!workload_.is_write(i)) continue;
      auto scenario = lazyckpt::spec::parse_scenario(workload_.requests[i]);
      scenario.replicas = std::min(scenario.replicas, workload_.max_replicas);
      write_paths_.push_back(
          store_->entry_path(lazyckpt::cache::derive_key(scenario)));
    }
  }
  ~Session() {
    if (workload_.uses_cache()) {
      std::error_code ignored;
      fs::remove_all(cache_dir_, ignored);
    }
  }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  [[nodiscard]] const Workload& workload() const { return workload_; }
  [[nodiscard]] lazyckpt::cache::ResultStore* store() { return store_.get(); }

  [[nodiscard]] lazyckpt::spec::RunnerOptions runner_options() const {
    lazyckpt::spec::RunnerOptions options;
    options.max_replicas = workload_.max_replicas;
    options.cache = store_.get();
    return options;
  }

  void begin_pass() {
    if (!workload_.uses_cache()) return;
    for (const std::string& path : write_paths_) {
      std::error_code ignored;
      fs::remove(path, ignored);
    }
    new_store();
  }

  /// Whether `bytes`, the response to request `i`, equals what set-up
  /// stored for its working-set entry (always true for writes).
  [[nodiscard]] bool matches_stored(std::size_t i,
                                    const std::string& bytes) const {
    if (!workload_.uses_cache()) return true;
    const std::size_t entry = workload_.entry_of_request[i];
    return entry == Workload::kWrite || stored_bytes_[entry] == bytes;
  }

 private:
  void new_store() {
    lazyckpt::cache::StoreOptions options;
    options.directory = cache_dir_.string();
    store_ = std::make_unique<lazyckpt::cache::ResultStore>(options);
  }

  Workload workload_;
  fs::path cache_dir_;
  std::unique_ptr<lazyckpt::cache::ResultStore> store_;
  std::vector<std::string> stored_bytes_;
  std::vector<std::string> write_paths_;
};

struct Pass {
  std::vector<std::uint64_t> latency_ns;
  std::uint64_t wall_ns = 0;
  std::size_t failed = 0;
  std::string digest;
  lazyckpt::cache::StoreStats cache;

  [[nodiscard]] double requests_per_s() const {
    return static_cast<double>(latency_ns.size()) * 1e9 /
           static_cast<double>(wall_ns);
  }
};

/// Run one pass; `trace` selects the layer-by-layer replay, and
/// `skip_writes` leaves out cache-replay writes (warm-up passes).
/// Responses are kept and checked after the pass so checking never lands
/// in its timing.  The pass digest is checked only when every request ran,
/// and not at all with `expected` empty (recording).
Pass run_pass(Session& session, const std::string& expected,
              LayerTrace* trace, bool skip_writes = false) {
  session.begin_pass();
  const Workload& w = session.workload();
  const lazyckpt::spec::ScenarioRunner runner(session.runner_options());
  const auto& clock = process_clock();
  const auto skipped = [&](std::size_t i) {
    return skip_writes && w.is_write(i);
  };

  Pass pass;
  std::vector<std::optional<std::string>> responses(w.requests.size());
  pass.latency_ns.reserve(w.requests.size());
  const auto pass_start = clock.now_ns();
  for (std::size_t i = 0; i < w.requests.size(); ++i) {
    if (skipped(i)) continue;
    const auto t0 = clock.now_ns();
    try {
      responses[i] =
          trace != nullptr
              ? perfbench::replay_request(w.requests[i], w.max_replicas,
                                          session.store(), *trace)
              : lazyckpt::cache::serialize_result(
                    runner.run(lazyckpt::spec::parse_scenario(w.requests[i])));
    } catch (const std::exception& error) {
      std::fprintf(stderr, "request %zu failed: %s\n", i, error.what());
    }
    pass.latency_ns.push_back(clock.now_ns() - t0);
  }
  pass.wall_ns = clock.now_ns() - pass_start;
  if (session.store() != nullptr) pass.cache = session.store()->stats();

  std::string digests;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    if (skipped(i)) continue;
    if (!responses[i] || !session.matches_stored(i, *responses[i])) {
      ++pass.failed;
      digests += "failed\n";
      continue;
    }
    digests += lazyckpt::content_digest_hex(*responses[i]) + "\n";
  }
  pass.digest = lazyckpt::content_digest_hex(digests);
  const bool whole_pass = pass.latency_ns.size() == w.requests.size();
  if (!expected.empty() && whole_pass && pass.digest != expected) {
    // The digest covers the whole pass, so a mismatch cannot be pinned on
    // one request: every request of the pass counts as failed.
    pass.failed = w.requests.size();
  }
  return pass;
}

/// Counts every request a run attempts and fails, set-up passes included.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  void add(const Pass& pass) {
    attempted += pass.latency_ns.size();
    failed += pass.failed;
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool record = false;
  std::string expect_path;
  fs::path scratch = ".";
};

std::string expected_digest(const Options& options, std::uint64_t variant) {
  std::ifstream in(options.expect_path);
  if (!in) throw std::runtime_error("cannot read " + options.expect_path);
  std::string name;
  std::uint64_t v = 0;
  std::string digest;
  while (in >> name >> v >> digest) {
    if (name == options.workload && v == variant) return digest;
  }
  throw std::runtime_error("no expected digest for " + options.workload +
                           " variant " + std::to_string(variant) + " in " +
                           options.expect_path);
}

fs::path cache_dir(const Options& options, int setup) {
  return options.scratch / ("cache-" + std::to_string(::getpid()) + "-" +
                            std::to_string(setup));
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-34s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("error_rate %.6g (%zu of %zu requests failed)\n",
              tally.attempted == 0
                  ? 0.0
                  : static_cast<double>(tally.failed) /
                        static_cast<double>(tally.attempted),
              tally.failed, tally.attempted);
  std::string json = "{\"correct\": ";
  json += tally.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Everything before a run's first timed request: generate the inputs
/// (expanding the sweep grids), fill the store, and the warm-up passes.
std::unique_ptr<Session> set_up(const Options& options, std::uint64_t variant,
                                const std::string& expected, int index,
                                Tally& tally,
                                std::uint64_t* expand_ns = nullptr) {
  auto session = std::make_unique<Session>(
      perfbench::make_workload(options.workload, variant, expand_ns),
      cache_dir(options, index));
  for (std::size_t p = 0; p < session->workload().warmup_passes; ++p) {
    tally.add(run_pass(*session, expected, nullptr, /*skip_writes=*/true));
  }
  return session;
}

int run_untraced(const Options& options, std::uint64_t variant,
                 const std::string& expected) {
  const auto& clock = process_clock();
  Tally tally;
  std::vector<double> setup_s;
  std::vector<std::uint64_t> latencies;
  std::vector<double> rates;
  std::unique_ptr<Session> session;
  const auto deadline =
      clock.now_ns() + static_cast<std::uint64_t>(options.seconds * 1e9);
  // Set-ups are spread over the run, a fresh one every kPassesPerSetup
  // timed passes, so setup_s and the pass metrics sample the same stretch
  // of machine time.
  while (setup_s.size() < kMinSetups ||
         rates.size() < session->workload().min_passes() ||
         clock.now_ns() < deadline) {
    session.reset();
    const auto t0 = clock.now_ns();
    session = set_up(options, variant, expected,
                     static_cast<int>(setup_s.size()), tally);
    setup_s.push_back(static_cast<double>(clock.now_ns() - t0) / 1e9);
    for (std::size_t p = 0; p < kPassesPerSetup; ++p) {
      const Pass pass = run_pass(*session, expected, nullptr);
      tally.add(pass);
      rates.push_back(pass.requests_per_s());
      latencies.insert(latencies.end(), pass.latency_ns.begin(),
                       pass.latency_ns.end());
    }
  }
  std::sort(latencies.begin(), latencies.end());

  std::printf("# %s variant %llu: %zu timed requests in %zu passes, "
              "%zu set-ups\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(variant), latencies.size(),
              rates.size(), setup_s.size());
  print_result(tally,
               {{"latency_p50_ms", percentile(latencies, 0.50) / 1e6, "ms"},
                {"latency_p99_ms", percentile(latencies, 0.99) / 1e6, "ms"},
                {"requests_per_s", median(rates), "1/s"},
                {"setup_s", median(setup_s), "s"},
                {"peak_rss_mb", peak_rss_mb(), "MB"}});
  return 0;
}

int run_traced(const Options& options, std::uint64_t variant,
               const std::string& expected) {
  const auto& clock = process_clock();
  Tally tally;
  std::uint64_t expand_ns = 0;
  const auto owned = set_up(options, variant, expected, 0, tally, &expand_ns);
  Session& session = *owned;

  std::vector<double> untraced_rates;
  std::vector<double> traced_rates;
  std::vector<double> speedups;
  std::vector<LayerTrace> traces;
  std::vector<lazyckpt::cache::StoreStats> cache_stats;
  bool counts_repeat = true;
  bool threads_agree = true;  // 2-thread bytes equal 1-thread bytes
  const auto deadline =
      clock.now_ns() + static_cast<std::uint64_t>(options.seconds * 1e9);
  while (traces.size() < kMinTracedRounds || clock.now_ns() < deadline) {
    const Pass untraced = run_pass(session, expected, nullptr);
    tally.add(untraced);
    untraced_rates.push_back(untraced.requests_per_s());

    LayerTrace trace;
    const Pass traced = run_pass(session, expected, &trace);
    tally.add(traced);
    traced_rates.push_back(traced.requests_per_s());
    cache_stats.push_back(traced.cache);

    set_threads(2);
    LayerTrace two_threads;
    const Pass parallel = run_pass(session, expected, &two_threads);
    tally.add(parallel);
    set_threads(1);
    threads_agree = threads_agree && parallel.digest == traced.digest;
    speedups.push_back(two_threads.sim_ns() == 0
                           ? 0.0
                           : static_cast<double>(trace.sim_ns()) /
                                 static_cast<double>(two_threads.sim_ns()));
    if (!traces.empty()) {
      const LayerTrace& first = traces.front();
      counts_repeat = counts_repeat && trace.replicas == first.replicas &&
                      trace.failures == first.failures &&
                      trace.checkpoints_written == first.checkpoints_written &&
                      trace.checkpoints_skipped == first.checkpoints_skipped;
    }
    traces.push_back(trace);
  }
  if (!threads_agree || !counts_repeat) {
    std::fprintf(stderr, "%s\n",
                 !threads_agree
                     ? "1-thread and 2-thread passes produced different bytes"
                     : "exact counts differ between traced passes");
    tally.failed = std::max<std::size_t>(tally.failed, 1);
  }

  const auto per_pass = [&](auto&& pick) {
    std::vector<double> values;
    for (std::size_t i = 0; i < traces.size(); ++i) {
      values.push_back(pick(traces[i], cache_stats[i]));
    }
    return median(std::move(values));
  };
  std::vector<Metric> metrics;
  for (std::size_t l = 0; l < perfbench::kLayerCount; ++l) {
    metrics.push_back({std::string(perfbench::kLayerNames[l]) + ".busy_ms",
                       per_pass([&](const LayerTrace& t, const auto&) {
                         return ms(t.busy_ns[l]);
                       }),
                       "ms"});
  }
  metrics.push_back({"spec.expand.busy_ms", ms(expand_ns), "ms"});
  for (std::size_t f = 0; f < perfbench::kPolicyFamilies.size(); ++f) {
    metrics.push_back(
        {"sim.policy." + std::string(perfbench::kPolicyFamilies[f]) +
             ".busy_ms",
         per_pass([&](const LayerTrace& t, const auto&) {
           return ms(t.policy_ns[f]);
         }),
         "ms"});
  }
  const LayerTrace& first = traces.front();
  std::uint64_t attributed_ns = 0;
  std::uint64_t request_ns = 0;
  for (const LayerTrace& t : traces) {
    attributed_ns += t.attributed_ns();
    request_ns += t.request_ns;
  }
  const lazyckpt::cache::StoreStats& cache = cache_stats.front();
  const double lookups = static_cast<double>(cache.hits + cache.misses);
  metrics.insert(
      metrics.end(),
      {{"sim.ns_per_replica",
        per_pass([](const LayerTrace& t, const auto&) {
          return t.replicas == 0 ? 0.0
                                 : static_cast<double>(t.sim_ns()) /
                                       static_cast<double>(t.replicas);
        }),
        "ns"},
       {"sim.replicas", static_cast<double>(first.replicas), "count"},
       {"sim.failures", static_cast<double>(first.failures), "count"},
       {"sim.checkpoints_written",
        static_cast<double>(first.checkpoints_written), "count"},
       {"sim.checkpoints_skipped",
        static_cast<double>(first.checkpoints_skipped), "count"},
       {"cache.hits", static_cast<double>(cache.hits), "count"},
       {"cache.misses", static_cast<double>(cache.misses), "count"},
       {"cache.hit_ratio",
        lookups == 0.0 ? 0.0 : static_cast<double>(cache.hits) / lookups,
        "ratio"},
       {"cache.bytes_read", static_cast<double>(cache.bytes_read), "bytes"},
       {"cache.bytes_written", static_cast<double>(cache.bytes_written),
        "bytes"},
       {"cache.evictions", static_cast<double>(cache.evictions), "count"},
       {"parallel.speedup", median(speedups), "x"},
       {"parallel.efficiency", median(speedups) / 2.0, "ratio"},
       {"trace.unattributed_frac",
        1.0 - static_cast<double>(attributed_ns) /
                  static_cast<double>(request_ns),
        "ratio"},
       {"trace.overhead_frac",
        1.0 - median(traced_rates) / median(untraced_rates), "ratio"},
       {"error_rate",
        static_cast<double>(tally.failed) /
            static_cast<double>(tally.attempted),
        "ratio"}});

  std::printf("# %s variant %llu: %zu traced passes at 1 thread, each "
              "paired with one untraced pass and one traced pass at 2 "
              "threads\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(variant), traces.size());
  print_result(tally, metrics);
  return 0;
}

int record(const Options& options) {
  for (std::uint64_t v = 0; v < perfbench::kVariants; ++v) {
    Session session(perfbench::make_workload(options.workload, v),
                    cache_dir(options, 0));
    const Pass pass = run_pass(session, "", nullptr);
    if (pass.failed != 0) {
      std::fprintf(stderr, "variant %llu: %zu requests failed\n",
                   static_cast<unsigned long long>(v), pass.failed);
      return 1;
    }
    std::printf("%s %llu %s\n", options.workload.c_str(),
                static_cast<unsigned long long>(v), pass.digest.c_str());
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: lazyckpt-perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --expect <file> --scratch <dir>\n"
               "       lazyckpt-perfbench --record --workload <name> "
               "--scratch <dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string& flag = args[i];
      if (flag == "--record") {
        options.record = true;
        continue;
      }
      if (i + 1 >= args.size()) return usage();
      const std::string& value = args[++i];
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--expect") {
        options.expect_path = value;
      } else if (flag == "--scratch") {
        options.scratch = value;
      } else {
        return usage();
      }
    }
    fs::create_directories(options.scratch);
    set_threads(1);
    if (options.record) return record(options);
    if (options.expect_path.empty()) return usage();

    const std::uint64_t variant = options.seed % perfbench::kVariants;
    const std::string expected = expected_digest(options, variant);
    return options.trace ? run_traced(options, variant, expected)
                         : run_untraced(options, variant, expected);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "lazyckpt-perfbench: %s\n", error.what());
    return 1;
  }
}
