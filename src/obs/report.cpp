#include "obs/report.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string_view>

namespace lazyckpt::obs {
namespace {

/// Nanoseconds as microseconds with a fixed 3-decimal remainder — the
/// same stable formatting the trace serializer uses for timestamps.
void append_us(std::string& out, std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  out += buf;
}

std::size_t distinct_flows(const std::vector<TraceEvent>& events) {
  std::set<std::uint64_t> ids;
  for (const TraceEvent& event : events) {
    if (event.kind == EventKind::kFlowBegin ||
        event.kind == EventKind::kFlowStep ||
        event.kind == EventKind::kFlowEnd) {
      ids.insert(event.flow);
    }
  }
  return ids.size();
}

}  // namespace

std::vector<SpanRollup> rollup_spans(const std::vector<TraceEvent>& events) {
  struct OpenSpan {
    const char* name;
    TimeNs start_ns;
    std::uint64_t child_ns = 0;
  };
  std::map<std::uint32_t, std::vector<OpenSpan>> stacks;
  std::map<std::string, SpanRollup> by_name;

  for (const TraceEvent& event : events) {
    if (event.kind != EventKind::kBegin && event.kind != EventKind::kEnd) {
      continue;
    }
    auto& stack = stacks[event.tid];
    if (event.kind == EventKind::kBegin) {
      stack.push_back({event.name, event.ts_ns});
      continue;
    }
    if (stack.empty() ||
        std::string_view(stack.back().name) != event.name) {
      continue;  // unbalanced input: stay robust, the validator reports it
    }
    const OpenSpan span = stack.back();
    stack.pop_back();
    const std::uint64_t duration =
        event.ts_ns >= span.start_ns ? event.ts_ns - span.start_ns : 0;
    if (!stack.empty()) stack.back().child_ns += duration;

    SpanRollup& rollup = by_name[event.name];
    if (rollup.count == 0) rollup.name = event.name;
    ++rollup.count;
    rollup.total_ns += duration;
    rollup.self_ns +=
        duration >= span.child_ns ? duration - span.child_ns : 0;
  }

  std::vector<SpanRollup> rollups;
  rollups.reserve(by_name.size());
  for (auto& [name, rollup] : by_name) rollups.push_back(std::move(rollup));
  std::stable_sort(rollups.begin(), rollups.end(),
                   [](const SpanRollup& a, const SpanRollup& b) {
                     if (a.self_ns != b.self_ns) return a.self_ns > b.self_ns;
                     return a.name < b.name;
                   });
  return rollups;
}

std::string render_run_report(const RunReportInputs& inputs) {
  std::string out;
  out.reserve(2048);
  out += "{\n";
  out += "  \"schema\": \"lazyckpt-run-report\",\n";
  out += "  \"version\": " + std::to_string(kRunReportSchemaVersion) + ",\n";
  out += "  \"tool\": \"";
  append_json_escaped(out, inputs.tool);
  out += "\",\n";

  out += "  \"scenarios\": [";
  for (std::size_t i = 0; i < inputs.scenarios.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"';
    append_json_escaped(out, inputs.scenarios[i]);
    out += '"';
  }
  out += "],\n";

  out += "  \"machine\": {";
  for (std::size_t i = 0; i < inputs.machine.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    \"";
    append_json_escaped(out, inputs.machine[i].first);
    out += "\": ";
    out += inputs.machine[i].second;  // caller-rendered JSON value
  }
  out += inputs.machine.empty() ? "},\n" : "\n  },\n";

  out += "  \"trace\": {\"events\": " +
         std::to_string(inputs.events.size()) +
         ", \"flows\": " + std::to_string(distinct_flows(inputs.events)) +
         "},\n";

  const auto rollups = rollup_spans(inputs.events);
  out += "  \"spans\": [";
  for (std::size_t i = 0; i < rollups.size(); ++i) {
    const SpanRollup& r = rollups[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": \"";
    append_json_escaped(out, r.name);
    out += "\", \"count\": " + std::to_string(r.count) + ", \"total_us\": ";
    append_us(out, r.total_ns);
    out += ", \"self_us\": ";
    append_us(out, r.self_ns);
    out += "}";
  }
  out += rollups.empty() ? "],\n" : "\n  ],\n";

  if (inputs.has_cache) {
    out += "  \"cache\": {\"hits\": " + std::to_string(inputs.cache_hits) +
           ", \"misses\": " + std::to_string(inputs.cache_misses) +
           ", \"bytes_read\": " + std::to_string(inputs.cache_bytes_read) +
           ", \"bytes_written\": " +
           std::to_string(inputs.cache_bytes_written) +
           ", \"evictions\": " + std::to_string(inputs.cache_evictions) +
           "},\n";
  }

  out += "  \"metrics\": ";
  out += inputs.metrics.to_json("  ");
  out += "\n}\n";
  return out;
}

bool write_run_report_file(const RunReportInputs& inputs,
                           const std::string& path) {
  const std::string json = render_run_report(inputs);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const bool ok =
      std::fwrite(json.data(), 1, json.size(), out) == json.size();
  std::fclose(out);
  if (!ok) std::remove(path.c_str());
  return ok;
}

}  // namespace lazyckpt::obs
