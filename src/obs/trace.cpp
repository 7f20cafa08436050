#include "obs/trace.hpp"

#include <cstdlib>
#include <memory>
#include <mutex>
#include <string_view>

#include "obs/metrics.hpp"

namespace lazyckpt::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

/// Owned by the global registry, appended to only by its owning thread.
/// Buffers outlive their threads so worker events survive pool teardown.
struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::vector<TraceEvent> events;
};

struct BufferRegistry {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
};

BufferRegistry& registry() {
  static BufferRegistry instance;
  return instance;
}

ThreadBuffer& thread_buffer() {
  thread_local ThreadBuffer* buffer = [] {
    auto owned = std::make_unique<ThreadBuffer>();
    ThreadBuffer* raw = owned.get();
    BufferRegistry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    raw->tid = static_cast<std::uint32_t>(reg.buffers.size());
    raw->events.reserve(1024);
    reg.buffers.push_back(std::move(owned));
    return raw;
  }();
  return *buffer;
}

/// `LAZYCKPT_TRACE=1 ctest` support: any process linking obs starts with
/// recording enabled when the variable is set, so golden-master and
/// determinism suites run their instrumented paths without per-test
/// wiring.  File writing stays opt-in (TraceEnvSession).
struct EnvEnable {
  EnvEnable() {
    const char* env = std::getenv("LAZYCKPT_TRACE");
    if (env != nullptr && *env != '\0') detail::g_enabled.store(true);
  }
};
const EnvEnable g_env_enable;

/// Microseconds with fixed 3-decimal nanosecond remainder — stable bytes
/// for a given TimeNs, pinned by the fake-clock golden test.
void append_timestamp_us(std::string& out, TimeNs ts_ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ts_ns / 1000),
                static_cast<unsigned long long>(ts_ns % 1000));
  out += buf;
}

}  // namespace

namespace detail {

TraceEvent make_event(const char* name, EventKind kind, std::uint32_t tid) {
  TraceEvent event;
  event.name = name;
  event.kind = kind;
  event.tid = tid;
  event.ts_ns = process_clock().now_ns();
  return event;
}

void record_event(const char* name, EventKind kind, double value) {
  ThreadBuffer& buffer = thread_buffer();
  TraceEvent event = make_event(name, kind, buffer.tid);
  event.value = value;
  buffer.events.push_back(std::move(event));
}

void record_event_args(const char* name, EventKind kind,
                       std::vector<TraceArg> args) {
  ThreadBuffer& buffer = thread_buffer();
  TraceEvent event = make_event(name, kind, buffer.tid);
  event.args = std::move(args);
  buffer.events.push_back(std::move(event));
}

void record_flow(const char* name, EventKind kind, std::uint64_t flow) {
  ThreadBuffer& buffer = thread_buffer();
  TraceEvent event = make_event(name, kind, buffer.tid);
  event.flow = flow;
  buffer.events.push_back(std::move(event));
}

}  // namespace detail

namespace {

// Flow-id state: a monotone mint plus the currently published id.  Both
// are telemetry-only — they never feed results, so cross-thread ordering
// of mints does not matter.
std::atomic<std::uint64_t> g_next_flow_id{1};
std::atomic<std::uint64_t> g_current_flow{0};

}  // namespace

FlowId new_flow_id() noexcept {
  return g_next_flow_id.fetch_add(1, std::memory_order_relaxed);
}

FlowId current_flow() noexcept {
  return g_current_flow.load(std::memory_order_relaxed);
}

ScopedFlow::ScopedFlow(const char* name, FlowId id)
    : name_(name),
      id_(id),
      previous_(g_current_flow.load(std::memory_order_relaxed)) {
  if (id_ == 0) return;
  flow_begin(name_, id_);
  g_current_flow.store(id_, std::memory_order_relaxed);
}

ScopedFlow::~ScopedFlow() {
  if (id_ == 0) return;
  flow_end(name_, id_);
  g_current_flow.store(previous_, std::memory_order_relaxed);
}

void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void record_begin(const char* name) {
  detail::record_event(name, EventKind::kBegin, 0.0);
}

void record_begin(const char* name, std::vector<TraceArg> args) {
  detail::record_event_args(name, EventKind::kBegin, std::move(args));
}

void record_end(const char* name) {
  detail::record_event(name, EventKind::kEnd, 0.0);
}

void record_end(const char* name, std::vector<TraceArg> args) {
  detail::record_event_args(name, EventKind::kEnd, std::move(args));
}

std::vector<TraceEvent> drain_events() {
  BufferRegistry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::vector<TraceEvent> out;
  std::size_t total = 0;
  for (const auto& buffer : reg.buffers) total += buffer->events.size();
  out.reserve(total);
  for (const auto& buffer : reg.buffers) {
    out.insert(out.end(), std::make_move_iterator(buffer->events.begin()),
               std::make_move_iterator(buffer->events.end()));
    buffer->events.clear();
  }
  return out;
}

std::vector<TraceEvent> snapshot_events() {
  BufferRegistry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::vector<TraceEvent> out;
  std::size_t total = 0;
  for (const auto& buffer : reg.buffers) total += buffer->events.size();
  out.reserve(total);
  for (const auto& buffer : reg.buffers) {
    out.insert(out.end(), buffer->events.begin(), buffer->events.end());
  }
  return out;
}

void append_json_escaped(std::string& out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += kHex[static_cast<unsigned char>(c) >> 4U];
          out += kHex[static_cast<unsigned char>(c) & 0xfU];
        } else {
          out += c;
        }
    }
  }
}

std::string render_chrome_trace(const std::vector<TraceEvent>& events) {
  std::string out;
  out.reserve(64 + events.size() * 96);
  out += "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& event = events[i];
    out += "{\"name\": \"";
    append_json_escaped(out, event.name);
    out += "\", \"cat\": \"lazyckpt\", \"ph\": \"";
    switch (event.kind) {
      case EventKind::kBegin:
        out += 'B';
        break;
      case EventKind::kEnd:
        out += 'E';
        break;
      case EventKind::kInstant:
        out += 'i';
        break;
      case EventKind::kCounter:
        out += 'C';
        break;
      case EventKind::kFlowBegin:
        out += 's';
        break;
      case EventKind::kFlowStep:
        out += 't';
        break;
      case EventKind::kFlowEnd:
        out += 'f';
        break;
    }
    out += "\", \"pid\": 1, \"tid\": ";
    out += std::to_string(event.tid);
    out += ", \"ts\": ";
    append_timestamp_us(out, event.ts_ns);
    if (event.kind == EventKind::kInstant) {
      out += ", \"s\": \"t\"";  // thread-scoped instant
    } else if (event.kind == EventKind::kCounter) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", event.value);
      out += ", \"args\": {\"value\": ";
      out += buf;
      out += "}";
    } else if (event.kind == EventKind::kFlowBegin ||
               event.kind == EventKind::kFlowStep ||
               event.kind == EventKind::kFlowEnd) {
      out += ", \"id\": ";
      out += std::to_string(event.flow);
      // Bind the flow end to the enclosing slice, not the next one, so
      // Perfetto draws the arrow into the span that consumed the request.
      if (event.kind == EventKind::kFlowEnd) out += ", \"bp\": \"e\"";
    } else if (!event.args.empty()) {
      out += ", \"args\": {";
      for (std::size_t a = 0; a < event.args.size(); ++a) {
        const TraceArg& arg = event.args[a];
        if (a > 0) out += ", ";
        out += '"';
        append_json_escaped(out, arg.key);
        out += "\": ";
        if (arg.is_number) {
          char buf[40];
          std::snprintf(buf, sizeof(buf), "%.17g", arg.number);
          out += buf;
        } else {
          out += '"';
          append_json_escaped(out, arg.text);
          out += '"';
        }
      }
      out += "}";
    }
    out += "}";
    if (i + 1 < events.size()) out += ',';
    out += '\n';
  }
  out += "]}\n";
  return out;
}

bool write_chrome_trace_file(const std::string& path) {
  const std::string json = render_chrome_trace(drain_events());
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const bool ok =
      std::fwrite(json.data(), 1, json.size(), out) == json.size();
  std::fclose(out);
  if (!ok) std::remove(path.c_str());
  return ok;
}

void reset_trace_buffers() {
  BufferRegistry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  for (const auto& buffer : reg.buffers) buffer->events.clear();
}

std::size_t buffered_event_count() {
  BufferRegistry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::size_t total = 0;
  for (const auto& buffer : reg.buffers) total += buffer->events.size();
  return total;
}

TraceEnvSession::TraceEnvSession() {
  // Force the buffer registry (and the metrics registry, which snapshot
  // emitters read) into existence NOW, inside this constructor: a
  // function-local static completes construction before this object does,
  // so it is destroyed after ~TraceEnvSession and the end-of-process
  // flush never touches a dead registry.  Without this the registry would
  // first be constructed at the first recorded event — inside main, after
  // this pre-main object — and be torn down before the flush.
  (void)registry();
  (void)metrics();

  const char* env = std::getenv("LAZYCKPT_TRACE");
  if (env == nullptr || *env == '\0') return;
  set_enabled(true);
  // "1" means record-only (the ctest convenience spelling); anything else
  // is the output path.
  if (std::string_view(env) != "1") path_ = env;
}

TraceEnvSession::~TraceEnvSession() {
  if (path_.empty()) return;
  if (write_chrome_trace_file(path_)) {
    std::fprintf(stderr, "lazyckpt: wrote trace to %s\n", path_.c_str());
  } else {
    std::fprintf(stderr, "lazyckpt: FAILED to write trace to %s\n",
                 path_.c_str());
  }
}

}  // namespace lazyckpt::obs
