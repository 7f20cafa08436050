#include "gate.hpp"

#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <variant>

#include "json.hpp"

namespace lazyckpt::benchgate {

namespace {

/// Read the value at the cursor into `out` when it has T's JSON kind and
/// skip it otherwise, leaving `out` as it was: a key of another type
/// reads as absent, so the schema can grow without breaking old gates.
template <typename T>
void read_if(json::Reader& reader, T* out) {
  constexpr json::Kind kKind =
      std::is_same_v<T, std::string> ? json::Kind::kString
      : std::is_same_v<T, bool>      ? json::Kind::kBool
                                     : json::Kind::kNumber;
  if (reader.peek_kind() != kKind) {
    reader.skip_value();
  } else if constexpr (std::is_same_v<T, std::string>) {
    *out = reader.parse_string();
  } else if constexpr (std::is_same_v<T, bool>) {
    *out = reader.parse_bool();
  } else if constexpr (std::is_same_v<T, double>) {
    *out = reader.parse_number();
  } else {
    *out = reader.parse_uint64();
  }
}

/// Visit the value at the cursor with `on_key` if it is an object, else
/// skip it.  Returns whether it was an object.
template <typename OnKey>
bool read_object_if(json::Reader& reader, OnKey&& on_key) {
  if (reader.peek_kind() != json::Kind::kObject) {
    reader.skip_value();
    return false;
  }
  reader.parse_object(on_key);
  return true;
}

/// Where read_fields stores one named field.
using Field = std::variant<std::string*, bool*, double*, std::uint64_t*>;

/// Visit an object, reading each listed field with read_if and skipping
/// every other key, or skip a value that is not an object.  Returns
/// whether it was an object.
bool read_fields(json::Reader& reader,
                 std::initializer_list<std::pair<std::string_view, Field>>
                     fields) {
  return read_object_if(reader, [&](const std::string& key) {
    for (const auto& [name, field] : fields) {
      if (name == key) {
        return std::visit([&](auto* out) { read_if(reader, out); }, field);
      }
    }
    reader.skip_value();
  });
}

/// Walk the root object of a `kind` ("bench" or "cache") report.  The
/// "bench" name and "machine.smoke_mode" that every report carries are
/// read here; every other key goes to `on_key(reader, key)`.  Malformed
/// JSON and a root that is not an object throw json::ParseError.
template <typename Report, typename OnKey>
void parse_report(std::string_view text, const std::string& kind,
                  Report* report, OnKey&& on_key) {
  json::Reader reader(text);
  bool is_object = false;
  try {
    is_object = read_object_if(reader, [&](const std::string& key) {
      if (key == "bench") {
        read_if(reader, &report->bench);
      } else if (key == "machine") {
        read_fields(reader, {{"smoke_mode", &report->smoke_mode}});
      } else {
        on_key(reader, key);
      }
    });
    if (!reader.at_end()) reader.fail("trailing content after JSON value");
  } catch (const json::ParseError& e) {
    throw json::ParseError(kind + " report does not parse: " + e.what());
  }
  if (!is_object) throw json::ParseError(kind + " report is not a JSON object");
}

std::string read_report(const std::string& path, const std::string& kind) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read " + kind + " report: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// One "results" entry: its workload name, event count, and every object
/// member carrying a trials_per_sec rate as a measured arm.
WorkloadRow parse_row(json::Reader& reader) {
  WorkloadRow row;
  reader.parse_object([&](const std::string& key) {
    if (key == "workload") {
      read_if(reader, &row.workload);
    } else if (key == "events") {
      read_if(reader, &row.events);
    } else {
      ArmStats arm;
      bool has_rate = false;
      const auto on_stat = [&](const std::string& stat) {
        if (stat == "seconds") {
          read_if(reader, &arm.seconds);
        } else if (stat == "trials_per_sec") {
          has_rate = true;
          read_if(reader, &arm.trials_per_sec);
        } else if (stat == "events_per_sec") {
          read_if(reader, &arm.events_per_sec);
        } else {
          reader.skip_value();
        }
      };
      if (read_object_if(reader, on_stat) && has_rate) {
        row.arms.emplace(key, arm);
      }
    }
  });
  return row;
}

std::string ratio_detail(const std::string& workload, const std::string& arm,
                         double fresh, double baseline, double floor_ratio) {
  char buffer[160];
  std::snprintf(buffer, sizeof buffer,
                "%s %s: %.1f vs baseline %.1f trials/s (%.2fx, floor %.2fx)",
                workload.c_str(), arm.c_str(), fresh, baseline,
                baseline > 0.0 ? fresh / baseline : 0.0, floor_ratio);
  return buffer;
}

}  // namespace

BenchReport parse_bench_report(std::string_view text) {
  BenchReport report;
  bool has_results = false;
  parse_report(text, "bench", &report,
               [&](json::Reader& reader, const std::string& key) {
    if (key == "replicas") {
      read_if(reader, &report.replicas);
    } else if (key == "seed") {
      read_if(reader, &report.seed);
    } else if (key == "bit_identical") {
      read_if(reader, &report.bit_identical);
    } else if (key == "results" &&
               reader.peek_kind() == json::Kind::kArray) {
      has_results = true;
      reader.parse_array([&] {
        if (reader.peek_kind() == json::Kind::kObject) {
          report.rows.push_back(parse_row(reader));
        } else {
          reader.skip_value();
        }
      });
    } else {
      reader.skip_value();
    }
  });
  if (!has_results) {
    throw json::ParseError("bench report has no results array");
  }
  if (report.rows.empty()) {
    throw json::ParseError("bench report has an empty results array");
  }
  return report;
}

BenchReport load_bench_report(const std::string& path) {
  return parse_bench_report(read_report(path, "bench"));
}

GateOutcome run_gate(const BenchReport& baseline, const BenchReport& fresh,
                     const GateOptions& options) {
  GateOutcome outcome;

  // Identity invariants hold in every mode: the fresh run must have
  // proven its arms bit-identical to each other (the in-run digest
  // comparison micro_engine performs), regardless of how noisy the
  // runner is.
  outcome.add("digest", fresh.bit_identical,
              fresh.bit_identical
                  ? "fresh arms bit-identical"
                  : "fresh report says arms are NOT bit-identical");

  // Exact event identity: only comparable when the two runs simulated
  // the same workload shape.  Smoke runs shrink the replica count, so
  // there the digest above carries the identity burden alone.
  const bool comparable_shape =
      !options.smoke && !fresh.smoke_mode &&
      fresh.replicas == baseline.replicas && fresh.seed == baseline.seed;

  for (const WorkloadRow& base_row : baseline.rows) {
    const WorkloadRow* fresh_row = nullptr;
    for (const WorkloadRow& row : fresh.rows) {
      if (row.workload == base_row.workload) {
        fresh_row = &row;
        break;
      }
    }
    if (fresh_row == nullptr) {
      outcome.add("workload " + base_row.workload, false,
                  "missing from fresh report");
      continue;
    }

    if (comparable_shape) {
      const bool same = fresh_row->events == base_row.events;
      outcome.add("events " + base_row.workload, same,
                  same ? std::to_string(base_row.events) + " events (exact)"
                       : "fresh " + std::to_string(fresh_row->events) +
                             " vs baseline " +
                             std::to_string(base_row.events));
    }

    for (const auto& [arm, base_stats] : base_row.arms) {
      const auto it = fresh_row->arms.find(arm);
      if (it == fresh_row->arms.end()) {
        // An arm the baseline knows but the fresh report lacks (or vice
        // versa) is a schema drift, not a regression: older baselines
        // predate the batch arm.
        continue;
      }
      const double floor_rate = base_stats.trials_per_sec * options.min_ratio;
      const bool ok = it->second.trials_per_sec >= floor_rate;
      outcome.add("perf " + base_row.workload + "/" + arm, ok,
                  ratio_detail(base_row.workload, arm,
                               it->second.trials_per_sec,
                               base_stats.trials_per_sec, options.min_ratio));
    }
  }
  return outcome;
}

CacheReport parse_cache_report(std::string_view text) {
  CacheReport report;
  bool has_warm = false;
  bool has_overall = false;
  parse_report(text, "cache", &report,
               [&](json::Reader& reader, const std::string& key) {
    if (key == "scenarios") {
      read_if(reader, &report.scenarios);
    } else if (key == "byte_identical" || key == "bit_identical") {
      read_if(reader, &report.byte_identical);
    } else if (key == "warm") {
      has_warm = read_fields(reader, {{"hits", &report.warm_hits},
                                      {"misses", &report.warm_misses}});
    } else if (key == "overall") {
      has_overall = read_fields(
          reader, {{"cold_seconds", &report.cold_seconds},
                   {"warm_disk_seconds", &report.warm_disk_seconds},
                   {"speedup_warm_disk", &report.speedup_warm_disk}});
    } else {
      reader.skip_value();
    }
  });
  if (!has_warm) {
    throw json::ParseError("cache report has no warm hit/miss block");
  }
  if (!has_overall) {
    throw json::ParseError("cache report has no overall block");
  }
  return report;
}

CacheReport load_cache_report(const std::string& path) {
  return parse_cache_report(read_report(path, "cache"));
}

GateOutcome run_cache_gate(const CacheReport& fresh,
                           const GateOptions& options) {
  GateOutcome outcome;

  outcome.add("byte-identity", fresh.byte_identical,
              fresh.byte_identical
                  ? "warm results byte-identical to the cold run"
                  : "report says warm results are NOT byte-identical");

  const bool has_grid = fresh.scenarios > 0;
  outcome.add("grid", has_grid,
              has_grid ? std::to_string(fresh.scenarios) + " scenarios"
                       : "report covers zero scenarios");

  // A warm replay that misses recomputed something: either the store
  // failed verification on its own entries or the key drifted between
  // passes.  Both are cache bugs, not noise, so the bound is exact.
  const bool no_misses = fresh.warm_misses == 0;
  outcome.add("warm misses", no_misses,
              no_misses ? "0 (every warm lookup was served)"
                        : std::to_string(fresh.warm_misses) +
                              " warm lookups recomputed");
  const bool covered = fresh.warm_hits >= fresh.scenarios;
  outcome.add("warm hits", covered,
              std::to_string(fresh.warm_hits) + " hits over " +
                  std::to_string(fresh.scenarios) + " scenarios" +
                  (covered ? "" : " — grid not covered"));

  const double floor_speedup =
      options.smoke || fresh.smoke_mode ? kCacheSmokeMinSpeedup
                                        : kCacheMinSpeedup;
  const bool fast = fresh.speedup_warm_disk >= floor_speedup;
  char detail[160];
  std::snprintf(detail, sizeof detail,
                "cold %.4fs vs warm disk %.4fs: %.1fx (floor %.1fx)",
                fresh.cold_seconds, fresh.warm_disk_seconds,
                fresh.speedup_warm_disk, floor_speedup);
  outcome.add("warm speedup", fast, detail);
  return outcome;
}

CacheReport inject_cache_slowdown(CacheReport report, double factor) {
  report.warm_disk_seconds *= factor;
  report.speedup_warm_disk /= factor;
  return report;
}

BenchReport inject_slowdown(BenchReport report, double factor) {
  for (WorkloadRow& row : report.rows) {
    for (auto& entry : row.arms) {
      ArmStats& stats = entry.second;
      stats.seconds *= factor;
      stats.trials_per_sec /= factor;
      stats.events_per_sec /= factor;
    }
  }
  return report;
}

}  // namespace lazyckpt::benchgate
