#pragma once

/// \file trace_tool.hpp
/// \brief Core of lazyckpt-trace: parse Chrome trace_event JSON (the format
/// src/obs/trace.cpp emits and chrome://tracing / Perfetto load), validate
/// its structure, and aggregate spans into a self-time profile.
///
/// Like the lint core, this is a standalone library: it does not link the
/// lazyckpt runtime, so tests can drive it over in-memory documents and the
/// CLI builds even when the instrumented code does not.  Documents stream
/// through the shared tools/json reader; no DOM of a trace is built.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "json.hpp"

namespace lazyckpt::tracetool {

/// Malformed JSON or a document that is not a trace at all.
using ParseError = json::ParseError;

/// One trace_event entry.  Only the keys the viewer semantics depend on
/// are modeled; unknown keys are ignored (the format allows extensions).
struct Event {
  std::string name;
  char phase = '?';  ///< 'B', 'E', 'i', 'C', 's', 't', 'f', ...
  std::uint64_t pid = 0;
  std::uint64_t tid = 0;
  double ts_us = 0.0;
  double value = 0.0;  ///< first numeric arg of a counter event
  bool has_value = false;
  std::uint64_t flow_id = 0;  ///< "id" key of a flow event
  bool has_flow_id = false;
  /// Every scalar argument, in document order, values rendered canonically
  /// (strings verbatim, numbers as %.17g, true/false/null spelled out).
  std::vector<std::pair<std::string, std::string>> args;
};

struct ParsedTrace {
  std::vector<Event> events;
  std::string display_time_unit;  ///< empty when the document omits it
};

/// Parse a trace document: either the object form {"traceEvents": [...]}
/// or a bare JSON array of events.  Throws ParseError on malformed input.
[[nodiscard]] ParsedTrace parse_trace(std::string_view json);

/// Structural validation: every event carries the required keys, phases
/// are known, per-thread timestamps are monotone, begin/end pairs nest
/// properly (matching names, nothing left open), and flow ids resolve to
/// balanced begin/end pairs (exactly one 's' and one 'f' per id; steps
/// require a begin).  Returns human-readable problems; an empty vector
/// means the trace is valid.
[[nodiscard]] std::vector<std::string> validate(const ParsedTrace& trace);

/// Aggregated statistics for one span name.
struct SpanStat {
  std::string name;
  std::uint64_t count = 0;
  double total_us = 0.0;  ///< inclusive wall time
  double self_us = 0.0;   ///< total minus time in child spans
  double min_us = 0.0;
  double max_us = 0.0;
  /// Distinct argument keys seen on this span's begin/end events, sorted.
  std::vector<std::string> arg_keys;
};

/// Aggregate complete B/E pairs per name, attributing child time to the
/// child (self time).  Sorted by self time descending, then name, so the
/// output is deterministic for a given event sequence.
[[nodiscard]] std::vector<SpanStat> summarize(const ParsedTrace& trace);

/// Fixed-width summary table of the top `top_n` spans by self time.
[[nodiscard]] std::string render_summary(const std::vector<SpanStat>& stats,
                                         std::size_t top_n);

/// All complete spans as CSV rows: name,pid,tid,start_us,duration_us,args
/// — one line per B/E pair, in end order per thread.  The args column
/// joins the begin and end events' key=value pairs with ';' (quoted as a
/// CSV field when it contains a comma).
[[nodiscard]] std::string export_spans_csv(const ParsedTrace& trace);

/// One step of the critical path: the heaviest root span and, at each
/// level, its heaviest child.
struct CriticalNode {
  std::string name;
  std::uint64_t pid = 0;
  std::uint64_t tid = 0;
  double start_us = 0.0;
  double total_us = 0.0;  ///< inclusive
  double self_us = 0.0;   ///< total minus direct children
};

/// Walk the longest self-time chain of the trace: pick the root span with
/// the largest inclusive time (ties: earlier start, lower tid, then
/// name), then descend through the heaviest child at each level.  Empty
/// when the trace has no complete spans.
[[nodiscard]] std::vector<CriticalNode> critical_path(
    const ParsedTrace& trace);

/// Fixed-width rendering of a critical path, one node per line with depth
/// indentation.
[[nodiscard]] std::string render_critical_path(
    const std::vector<CriticalNode>& path);

/// Per-span self-time change between two profiles (B minus A).  A span
/// missing from one side contributes zero count/self time there, so
/// additions and removals show up as full-magnitude deltas.
struct SpanDelta {
  std::string name;
  std::uint64_t count_a = 0;
  std::uint64_t count_b = 0;
  double self_a_us = 0.0;
  double self_b_us = 0.0;
  [[nodiscard]] double delta_us() const noexcept {
    return self_b_us - self_a_us;
  }
};

/// Join two summarize() profiles by span name.  Sorted by |delta| self
/// time descending, then name, so the output is deterministic for a given
/// pair of traces; diff_profiles(b, a) is the exact negation.
[[nodiscard]] std::vector<SpanDelta> diff_profiles(
    const std::vector<SpanStat>& a, const std::vector<SpanStat>& b);

/// Fixed-width delta table of the top `top_n` spans by |delta| self time.
[[nodiscard]] std::string render_diff(const std::vector<SpanDelta>& deltas,
                                      std::size_t top_n);

}  // namespace lazyckpt::tracetool
