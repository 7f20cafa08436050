#pragma once

/// \file trace.hpp
/// \brief Structured tracing: scoped spans (with key=value arguments),
/// instants, counter samples, and cross-thread flow events, buffered per
/// thread and exported as Chrome trace_event / Perfetto JSON
/// (DESIGN.md §5f).
///
/// Contract ("observe, never perturb"): recording reads the obs clock and
/// appends to a thread-local buffer — it never touches RNG streams, policy
/// state, or any value that feeds simulation results, so every golden
/// master stays bit-identical whether tracing is on or off.  With tracing
/// disabled, each instrumentation site costs one relaxed load of a cold
/// atomic bool and a predictable branch.
///
/// Concurrency model: each thread appends to its own buffer (no locks or
/// atomics on the recording path beyond the enabled flag); the global
/// registry of buffers is touched only on a thread's first event and by
/// drain/serialize/reset.  Draining is NOT safe concurrently with
/// recording — flush after joining workers (the bench harness flushes
/// after main returns; the parallel pool joins its threads per region).
///
/// Event names and argument keys must be string literals (or otherwise
/// static storage): the recorder stores the pointer, not a copy.  Argument
/// *values* may be dynamic (scenario names); they are copied.

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/clock.hpp"

namespace lazyckpt::obs {

/// What a trace event marks.  Serialized phases: kBegin→"B", kEnd→"E",
/// kInstant→"i", kCounter→"C", kFlowBegin→"s", kFlowStep→"t",
/// kFlowEnd→"f".
enum class EventKind : std::uint8_t {
  kBegin,
  kEnd,
  kInstant,
  kCounter,
  kFlowBegin,
  kFlowStep,
  kFlowEnd,
};

/// One key=value span argument.  Keys point at static storage (like event
/// names); string values are owned copies so dynamic data (scenario names)
/// is safe to attach.
struct TraceArg {
  const char* key = nullptr;
  bool is_number = false;
  double number = 0.0;
  std::string text;

  [[nodiscard]] static TraceArg num(const char* key, double value) {
    TraceArg arg;
    arg.key = key;
    arg.is_number = true;
    arg.number = value;
    return arg;
  }
  [[nodiscard]] static TraceArg str(const char* key, std::string value) {
    TraceArg arg;
    arg.key = key;
    arg.text = std::move(value);
    return arg;
  }
};

namespace detail {
// Cold flag read by every instrumentation site.  Off by default; flipped
// by set_enabled(), or at load time when LAZYCKPT_TRACE is set in the
// environment (see trace.cpp), so test binaries exercise the instrumented
// paths under `LAZYCKPT_TRACE=1 ctest` without any per-test wiring.
extern std::atomic<bool> g_enabled;

// Out-of-line slow paths: append to the calling thread's buffer.
void record_event(const char* name, EventKind kind, double value);
void record_event_args(const char* name, EventKind kind,
                       std::vector<TraceArg> args);
void record_flow(const char* name, EventKind kind, std::uint64_t flow);
}  // namespace detail

/// True when telemetry (tracing and metrics) is recording.
[[nodiscard]] inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Turn telemetry on or off process-wide.
void set_enabled(bool on) noexcept;

/// One recorded event.  `name` points at static storage.
struct TraceEvent {
  const char* name = nullptr;
  EventKind kind = EventKind::kInstant;
  std::uint32_t tid = 0;        ///< recording thread (registration order)
  TimeNs ts_ns = 0;             ///< obs::process_clock() at record time
  double value = 0.0;           ///< kCounter sample value
  std::uint64_t flow = 0;       ///< kFlow* correlation id (0 = none)
  std::vector<TraceArg> args;   ///< kBegin/kEnd key=value arguments
};

/// Record a begin/end pair manually.  Prefer TraceSpan.
void record_begin(const char* name);
void record_begin(const char* name, std::vector<TraceArg> args);
void record_end(const char* name);
void record_end(const char* name, std::vector<TraceArg> args);

/// Record a point event (progress heartbeat, phase marker).
inline void instant(const char* name) {
  if (enabled()) detail::record_event(name, EventKind::kInstant, 0.0);
}

/// Record a counter sample (rendered as a track in the trace viewer).
inline void counter(const char* name, double value) {
  if (enabled()) detail::record_event(name, EventKind::kCounter, value);
}

// ---------------------------------------------------------------------
// Flow events: correlate one logical request (a scenario run) across the
// threads that service it.  Perfetto draws an arrow from the slice
// enclosing the flow-begin through every flow-step to the flow-end, so a
// scenario request can be followed into cache lookups, campaign
// allocations, and per-worker replica blocks (DESIGN.md §5f).
// ---------------------------------------------------------------------

/// Process-unique correlation id.  0 means "no flow".
using FlowId = std::uint64_t;

/// Mint a fresh nonzero flow id (atomic counter; ids are unique within
/// the process, which is all the trace format needs).
[[nodiscard]] FlowId new_flow_id() noexcept;

/// The flow id of the innermost active ScopedFlow, or 0.  Worker-side
/// instrumentation reads this to attach flow steps without threading the
/// id through every engine signature.
[[nodiscard]] FlowId current_flow() noexcept;

inline void flow_begin(const char* name, FlowId id) {
  if (id != 0 && enabled()) {
    detail::record_flow(name, EventKind::kFlowBegin, id);
  }
}
inline void flow_step(const char* name, FlowId id) {
  if (id != 0 && enabled()) {
    detail::record_flow(name, EventKind::kFlowStep, id);
  }
}
inline void flow_end(const char* name, FlowId id) {
  if (id != 0 && enabled()) {
    detail::record_flow(name, EventKind::kFlowEnd, id);
  }
}

/// RAII flow scope: emits the flow-begin at construction and the flow-end
/// at destruction (guaranteeing balanced pairs even on early returns), and
/// publishes the id via current_flow() for the duration.  An id of 0 makes
/// the whole object inert.  Scopes are process-global, not per-thread:
/// one top-level request is in flight at a time (the scenario runner), and
/// workers read the published id.
class ScopedFlow {
 public:
  ScopedFlow(const char* name, FlowId id);
  ~ScopedFlow();
  ScopedFlow(const ScopedFlow&) = delete;
  ScopedFlow& operator=(const ScopedFlow&) = delete;

 private:
  const char* name_;
  FlowId id_;
  FlowId previous_;
};

/// RAII begin/end pair.  The enabled check happens once, at construction,
/// so a span whose scope outlives a set_enabled(false) still closes.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) : name_(enabled() ? name : nullptr) {
    if (name_ != nullptr) record_begin(name_);
  }
  /// Span with key=value arguments on the begin event (scenario name,
  /// policy kind, replica range, ...).
  TraceSpan(const char* name, std::vector<TraceArg> args)
      : name_(enabled() ? name : nullptr) {
    if (name_ != nullptr) record_begin(name_, std::move(args));
  }
  /// Attach an argument to the closing end event — for outcomes only
  /// known at scope exit (cache hit vs miss).
  void end_arg(TraceArg arg) {
    if (name_ != nullptr) end_args_.push_back(std::move(arg));
  }
  ~TraceSpan() {
    if (name_ == nullptr) return;
    if (end_args_.empty()) {
      record_end(name_);
    } else {
      record_end(name_, std::move(end_args_));
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  std::vector<TraceArg> end_args_;
};

/// Collect every thread's buffered events, in (tid, recording) order, and
/// clear the buffers.  Not safe concurrently with recording.
[[nodiscard]] std::vector<TraceEvent> drain_events();

/// Copy every thread's buffered events without clearing them — for report
/// rollups that must not steal the trace out from under a pending
/// TraceEnvSession flush.  Not safe concurrently with recording.
[[nodiscard]] std::vector<TraceEvent> snapshot_events();

/// Render `events` as a Chrome trace_event JSON document ("traceEvents"
/// array form; loads in chrome://tracing and Perfetto).  Formatting is
/// byte-deterministic for a given event sequence, which is what the
/// fake-clock golden test pins.
[[nodiscard]] std::string render_chrome_trace(
    const std::vector<TraceEvent>& events);

/// Append `text` to `out` as the body of a JSON string: quote, backslash
/// and every byte below 0x20 escaped (`\n`, `\t`, `\r` by name, the rest
/// as `\u00XX`), other bytes passed through — the bytes json::escape in
/// tools/json produces.  The one escaper of the trace and report writers.
void append_json_escaped(std::string& out, std::string_view text);

/// drain_events() + render + write to `path`.  Returns false (and leaves
/// no partial file behind, best effort) when the file cannot be written.
bool write_chrome_trace_file(const std::string& path);

/// Drop all buffered events without serializing (tests).
void reset_trace_buffers();

/// Number of currently buffered events across all threads (tests).
[[nodiscard]] std::size_t buffered_event_count();

/// Opt-in environment session used by harness mains (one inline instance
/// lives in bench_common.hpp): when LAZYCKPT_TRACE=<path> is set, tracing
/// is enabled for the process lifetime and the buffered events are written
/// to <path> at destruction — after main returns, when all worker threads
/// have been joined.  The special value "1" enables recording without
/// writing a file (the `LAZYCKPT_TRACE=1 ctest` spelling that drives the
/// instrumented paths through the golden-master suites).
class TraceEnvSession {
 public:
  TraceEnvSession();
  ~TraceEnvSession();
  TraceEnvSession(const TraceEnvSession&) = delete;
  TraceEnvSession& operator=(const TraceEnvSession&) = delete;

  /// True when LAZYCKPT_TRACE was set and the session will write a file.
  [[nodiscard]] bool active() const noexcept { return !path_.empty(); }

 private:
  std::string path_;
};

}  // namespace lazyckpt::obs
