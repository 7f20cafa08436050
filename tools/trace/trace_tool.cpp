#include "trace_tool.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>

namespace lazyckpt::tracetool {
namespace {

Event parse_event(json::Reader& reader) {
  Event event;
  reader.parse_object([&](const std::string& key) {
    if (key == "name") {
      event.name = reader.parse_string();
    } else if (key == "ph") {
      const std::string ph = reader.parse_string();
      event.phase = ph.empty() ? '?' : ph[0];
    } else if (key == "pid") {
      event.pid = reader.parse_uint64();
    } else if (key == "tid") {
      event.tid = reader.parse_uint64();
    } else if (key == "ts") {
      event.ts_us = reader.parse_number();
    } else if (key == "args") {
      reader.parse_object([&](const std::string& arg_key) {
        const json::Kind kind = reader.peek_kind();
        if (kind == json::Kind::kObject || kind == json::Kind::kArray) {
          reader.skip_value();  // nested structures are not surfaced
        } else if (kind == json::Kind::kString) {
          event.args.emplace_back(arg_key, reader.parse_string());
        } else if (kind == json::Kind::kBool) {
          event.args.emplace_back(arg_key,
                                  reader.parse_bool() ? "true" : "false");
        } else if (kind == json::Kind::kNull) {
          reader.parse_null();
          event.args.emplace_back(arg_key, "null");
        } else {
          const double value = reader.parse_number();
          if (!event.has_value) {
            // First numeric arg doubles as the counter sample value.
            event.value = value;
            event.has_value = true;
          }
          char buf[40];
          std::snprintf(buf, sizeof(buf), "%.17g", value);
          event.args.emplace_back(arg_key, buf);
        }
      });
    } else if (key == "id") {
      // Flow correlation id; the format allows both string and numeric
      // spellings (src/obs emits numbers).
      if (reader.peek_kind() == json::Kind::kString) {
        const std::string id = reader.parse_string();
        event.flow_id = std::strtoull(id.c_str(), nullptr, 10);
      } else {
        event.flow_id = reader.parse_uint64();
      }
      event.has_flow_id = true;
    } else {
      reader.skip_value();
    }
  });
  return event;
}

}  // namespace

ParsedTrace parse_trace(std::string_view text) {
  json::Reader reader(text);
  ParsedTrace trace;
  const auto parse_events = [&]() {
    reader.parse_array([&]() { trace.events.push_back(parse_event(reader)); });
  };
  if (reader.peek_kind() == json::Kind::kArray) {
    parse_events();
  } else {
    bool saw_events = false;
    reader.parse_object([&](const std::string& key) {
      if (key == "traceEvents") {
        parse_events();
        saw_events = true;
      } else if (key == "displayTimeUnit") {
        trace.display_time_unit = reader.parse_string();
      } else {
        reader.skip_value();
      }
    });
    if (!saw_events) {
      throw ParseError("document has no \"traceEvents\" array");
    }
  }
  if (!reader.at_end()) {
    throw ParseError("trailing content after the trace document");
  }
  return trace;
}

std::vector<std::string> validate(const ParsedTrace& trace) {
  std::vector<std::string> problems;
  const auto complain = [&](std::size_t index, const std::string& what) {
    problems.push_back("event " + std::to_string(index) + ": " + what);
  };

  // Per-(pid,tid) state: open span names and the last timestamp seen.
  std::map<std::pair<std::uint64_t, std::uint64_t>,
           std::vector<std::string>> open;
  std::map<std::pair<std::uint64_t, std::uint64_t>, double> last_ts;

  // Per flow id: how many start/step/finish events reference it.  The
  // checks are count-based, not sequence-based: the emitter drains its
  // thread-local buffers tid-major, so a finish recorded on the main
  // thread can legitimately precede a worker's step in file order.
  struct FlowCount {
    std::uint64_t starts = 0;
    std::uint64_t steps = 0;
    std::uint64_t ends = 0;
  };
  std::map<std::uint64_t, FlowCount> flows;

  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const Event& event = trace.events[i];
    if (event.name.empty()) complain(i, "missing name");
    switch (event.phase) {
      case 'B': case 'E': case 'i': case 'I': case 'C': case 'X':
      case 'M': case 's': case 't': case 'f': break;
      default:
        complain(i, std::string("unknown phase '") + event.phase + "'");
        continue;
    }
    if (event.phase == 'M') continue;  // metadata carries no timestamp

    if (event.phase == 's' || event.phase == 't' || event.phase == 'f') {
      if (!event.has_flow_id) {
        complain(i, std::string("flow event \"") + event.name +
                        "\" has no id");
      } else {
        FlowCount& count = flows[event.flow_id];
        if (event.phase == 's') ++count.starts;
        if (event.phase == 't') ++count.steps;
        if (event.phase == 'f') ++count.ends;
      }
    }

    const auto key = std::make_pair(event.pid, event.tid);
    if (const auto it = last_ts.find(key); it != last_ts.end()) {
      if (event.ts_us < it->second) {
        complain(i, "timestamp moves backwards on tid " +
                        std::to_string(event.tid));
      }
    }
    last_ts[key] = event.ts_us;

    if (event.phase == 'B') {
      open[key].push_back(event.name);
    } else if (event.phase == 'E') {
      auto& stack = open[key];
      if (stack.empty()) {
        complain(i, "end event \"" + event.name + "\" with no open span");
      } else if (stack.back() != event.name) {
        complain(i, "end event \"" + event.name +
                        "\" does not match open span \"" + stack.back() +
                        "\"");
        stack.pop_back();
      } else {
        stack.pop_back();
      }
    } else if (event.phase == 'C' && !event.has_value) {
      complain(i, "counter event \"" + event.name + "\" has no numeric arg");
    }
  }

  for (const auto& [key, stack] : open) {
    for (const std::string& name : stack) {
      problems.push_back("tid " + std::to_string(key.second) +
                         ": span \"" + name + "\" never ends");
    }
  }
  for (const auto& [id, count] : flows) {
    if (count.starts != 1) {
      problems.push_back("flow " + std::to_string(id) + ": " +
                         std::to_string(count.starts) +
                         " begin event(s), want exactly 1");
    }
    if (count.ends != 1) {
      problems.push_back("flow " + std::to_string(id) + ": " +
                         std::to_string(count.ends) +
                         " end event(s), want exactly 1");
    }
  }
  return problems;
}

std::vector<SpanStat> summarize(const ParsedTrace& trace) {
  struct OpenSpan {
    const std::string* name;
    double start_us;
    double child_us = 0.0;
  };
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<OpenSpan>>
      stacks;
  std::map<std::string, SpanStat> by_name;
  std::map<std::string, std::set<std::string>> keys_by_name;

  for (const Event& event : trace.events) {
    if (event.phase != 'B' && event.phase != 'E') continue;
    for (const auto& [key, value] : event.args) {
      keys_by_name[event.name].insert(key);
    }
    auto& stack = stacks[{event.pid, event.tid}];
    if (event.phase == 'B') {
      stack.push_back({&event.name, event.ts_us});
      continue;
    }
    if (stack.empty() || *stack.back().name != event.name) {
      continue;  // unbalanced input: validate() reports it, we stay robust
    }
    const OpenSpan span = stack.back();
    stack.pop_back();
    const double duration = event.ts_us - span.start_us;
    if (!stack.empty()) stack.back().child_us += duration;

    SpanStat& stat = by_name[event.name];
    if (stat.count == 0) {
      stat.name = event.name;
      stat.min_us = duration;
      stat.max_us = duration;
    }
    ++stat.count;
    stat.total_us += duration;
    stat.self_us += duration - span.child_us;
    stat.min_us = std::min(stat.min_us, duration);
    stat.max_us = std::max(stat.max_us, duration);
  }

  std::vector<SpanStat> stats;
  stats.reserve(by_name.size());
  for (auto& [name, stat] : by_name) {
    if (const auto it = keys_by_name.find(name); it != keys_by_name.end()) {
      stat.arg_keys.assign(it->second.begin(), it->second.end());
    }
    stats.push_back(std::move(stat));
  }
  std::stable_sort(stats.begin(), stats.end(),
                   [](const SpanStat& a, const SpanStat& b) {
                     if (a.self_us != b.self_us) return a.self_us > b.self_us;
                     return a.name < b.name;
                   });
  return stats;
}

std::string render_summary(const std::vector<SpanStat>& stats,
                           std::size_t top_n) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-32s %10s %14s %14s %12s %12s  %s\n",
                "span", "count", "self_ms", "total_ms", "min_ms", "max_ms",
                "args");
  out += line;
  const std::size_t shown = std::min(top_n, stats.size());
  for (std::size_t i = 0; i < shown; ++i) {
    const SpanStat& s = stats[i];
    std::string keys;
    for (const std::string& key : s.arg_keys) {
      if (!keys.empty()) keys += ',';
      keys += key;
    }
    if (keys.empty()) keys = "-";
    std::snprintf(line, sizeof(line),
                  "%-32s %10llu %14.3f %14.3f %12.3f %12.3f  %s\n",
                  s.name.c_str(), static_cast<unsigned long long>(s.count),
                  s.self_us / 1000.0, s.total_us / 1000.0, s.min_us / 1000.0,
                  s.max_us / 1000.0, keys.c_str());
    out += line;
  }
  if (shown < stats.size()) {
    std::snprintf(line, sizeof(line), "... %zu more span name(s)\n",
                  stats.size() - shown);
    out += line;
  }
  return out;
}

std::vector<SpanDelta> diff_profiles(const std::vector<SpanStat>& a,
                                     const std::vector<SpanStat>& b) {
  std::map<std::string, SpanDelta> by_name;
  for (const SpanStat& stat : a) {
    SpanDelta& d = by_name[stat.name];
    d.name = stat.name;
    d.count_a = stat.count;
    d.self_a_us = stat.self_us;
  }
  for (const SpanStat& stat : b) {
    SpanDelta& d = by_name[stat.name];
    d.name = stat.name;
    d.count_b = stat.count;
    d.self_b_us = stat.self_us;
  }
  std::vector<SpanDelta> deltas;
  deltas.reserve(by_name.size());
  for (auto& [name, delta] : by_name) deltas.push_back(std::move(delta));
  std::stable_sort(deltas.begin(), deltas.end(),
                   [](const SpanDelta& x, const SpanDelta& y) {
                     const double dx = std::abs(x.delta_us());
                     const double dy = std::abs(y.delta_us());
                     if (dx > dy) return true;
                     if (dx < dy) return false;
                     return x.name < y.name;
                   });
  return deltas;
}

std::string render_diff(const std::vector<SpanDelta>& deltas,
                        std::size_t top_n) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-32s %8s %8s %14s %14s %14s\n", "span",
                "count_a", "count_b", "self_a_ms", "self_b_ms", "delta_ms");
  out += line;
  const std::size_t shown = std::min(top_n, deltas.size());
  for (std::size_t i = 0; i < shown; ++i) {
    const SpanDelta& d = deltas[i];
    std::snprintf(line, sizeof(line),
                  "%-32s %8llu %8llu %14.3f %14.3f %+14.3f\n", d.name.c_str(),
                  static_cast<unsigned long long>(d.count_a),
                  static_cast<unsigned long long>(d.count_b),
                  d.self_a_us / 1000.0, d.self_b_us / 1000.0,
                  d.delta_us() / 1000.0);
    out += line;
  }
  if (shown < deltas.size()) {
    std::snprintf(line, sizeof(line), "... %zu more span name(s)\n",
                  deltas.size() - shown);
    out += line;
  }
  return out;
}

std::string export_spans_csv(const ParsedTrace& trace) {
  struct OpenSpan {
    const std::string* name;
    double start_us;
    const Event* begin;
  };
  // Join begin-then-end args as k=v;k=v, quoting the field only when a
  // value forces it (CSV rules: comma, quote, newline).
  const auto args_field = [](const Event& begin, const Event& end) {
    std::string joined;
    const auto append_args = [&](const Event& event) {
      for (const auto& [key, value] : event.args) {
        if (!joined.empty()) joined += ';';
        joined += key;
        joined += '=';
        joined += value;
      }
    };
    append_args(begin);
    append_args(end);
    if (joined.find_first_of(",\"\n") == std::string::npos) return joined;
    std::string quoted = "\"";
    for (const char c : joined) {
      if (c == '"') quoted += '"';
      quoted += c;
    }
    quoted += '"';
    return quoted;
  };

  std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<OpenSpan>>
      stacks;
  std::string out = "name,pid,tid,start_us,duration_us,args\n";
  char line[256];
  for (const Event& event : trace.events) {
    if (event.phase != 'B' && event.phase != 'E') continue;
    auto& stack = stacks[{event.pid, event.tid}];
    if (event.phase == 'B') {
      stack.push_back({&event.name, event.ts_us, &event});
      continue;
    }
    if (stack.empty() || *stack.back().name != event.name) continue;
    const OpenSpan span = stack.back();
    stack.pop_back();
    std::snprintf(line, sizeof(line), "%s,%llu,%llu,%.3f,%.3f,",
                  event.name.c_str(),
                  static_cast<unsigned long long>(event.pid),
                  static_cast<unsigned long long>(event.tid), span.start_us,
                  event.ts_us - span.start_us);
    out += line;
    out += args_field(*span.begin, event);
    out += '\n';
  }
  return out;
}

std::vector<CriticalNode> critical_path(const ParsedTrace& trace) {
  // Completed spans as a forest; children point into `done` by index.
  struct Span {
    std::string name;
    std::uint64_t pid = 0;
    std::uint64_t tid = 0;
    double start_us = 0.0;
    double total_us = 0.0;
    double child_us = 0.0;
    std::vector<std::size_t> children;
  };
  struct Building {
    const Event* begin;
    std::vector<std::size_t> children;
  };
  std::vector<Span> done;
  std::vector<std::size_t> roots;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<Building>>
      stacks;

  for (const Event& event : trace.events) {
    if (event.phase != 'B' && event.phase != 'E') continue;
    auto& stack = stacks[{event.pid, event.tid}];
    if (event.phase == 'B') {
      stack.push_back({&event, {}});
      continue;
    }
    if (stack.empty() || stack.back().begin->name != event.name) continue;
    Building building = std::move(stack.back());
    stack.pop_back();
    Span span;
    span.name = event.name;
    span.pid = event.pid;
    span.tid = event.tid;
    span.start_us = building.begin->ts_us;
    span.total_us = event.ts_us - building.begin->ts_us;
    for (const std::size_t child : building.children) {
      span.child_us += done[child].total_us;
    }
    span.children = std::move(building.children);
    const std::size_t index = done.size();
    done.push_back(std::move(span));
    if (!stack.empty()) {
      stack.back().children.push_back(index);
    } else {
      roots.push_back(index);
    }
  }

  // "Heavier" ordering: larger inclusive time, then earlier start, then
  // lower tid, then name.  Branch pairs instead of comparing floats for
  // equality, so the tie-break chain stays total and deterministic.
  const auto heavier = [&](std::size_t a, std::size_t b) {
    const Span& x = done[a];
    const Span& y = done[b];
    if (x.total_us > y.total_us) return true;
    if (x.total_us < y.total_us) return false;
    if (x.start_us < y.start_us) return true;
    if (x.start_us > y.start_us) return false;
    if (x.tid != y.tid) return x.tid < y.tid;
    return x.name < y.name;
  };

  std::vector<CriticalNode> path;
  if (roots.empty()) return path;
  std::size_t at = roots.front();
  for (const std::size_t root : roots) {
    if (heavier(root, at)) at = root;
  }
  while (true) {
    const Span& span = done[at];
    CriticalNode node;
    node.name = span.name;
    node.pid = span.pid;
    node.tid = span.tid;
    node.start_us = span.start_us;
    node.total_us = span.total_us;
    node.self_us = std::max(0.0, span.total_us - span.child_us);
    path.push_back(std::move(node));
    if (span.children.empty()) break;
    std::size_t next = span.children.front();
    for (const std::size_t child : span.children) {
      if (heavier(child, next)) next = child;
    }
    at = next;
  }
  return path;
}

std::string render_critical_path(const std::vector<CriticalNode>& path) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-40s %6s %12s %14s %14s\n", "span",
                "tid", "start_ms", "total_ms", "self_ms");
  out += line;
  for (std::size_t depth = 0; depth < path.size(); ++depth) {
    const CriticalNode& node = path[depth];
    std::string label(depth * 2, ' ');
    label += node.name;
    std::snprintf(line, sizeof(line), "%-40s %6llu %12.3f %14.3f %14.3f\n",
                  label.c_str(), static_cast<unsigned long long>(node.tid),
                  node.start_us / 1000.0, node.total_us / 1000.0,
                  node.self_us / 1000.0);
    out += line;
  }
  return out;
}

}  // namespace lazyckpt::tracetool
