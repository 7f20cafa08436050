/// \file main.cpp
/// \brief CLI for lazyckpt-trace (see trace_tool.hpp and DESIGN.md §5f).
///
/// Usage:
///   lazyckpt-trace validate      <trace.json>
///   lazyckpt-trace summarize     [--top N] <trace.json>
///   lazyckpt-trace export        [--out <file.csv>] <trace.json>
///   lazyckpt-trace diff          [--top N] <a.json> <b.json>
///   lazyckpt-trace critical-path <trace.json>
///
/// `validate` checks the document is structurally sound trace_event JSON
/// (required keys, monotone per-thread timestamps, balanced span nesting,
/// balanced flow begin/end pairs) and exits 0/1.  `summarize` prints a
/// top-N self-time profile of the spans, with each span's argument keys.
/// `export` emits every complete span as a CSV row for external analysis.
/// `diff` compares two traces' self-time profiles per span, sorted by
/// |delta| (B minus A) — the before/after view for performance work.
/// `critical-path` walks the longest self-time chain: the heaviest root
/// span, then the heaviest child at each level.  Exit status is 0 on
/// success, 1 when validation fails, 2 on usage or I/O errors.  A trace
/// with no spans is valid: summarize/diff/critical-path print an explicit
/// note and exit 0.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "trace_tool.hpp"

namespace {

using lazyckpt::tracetool::ParsedTrace;

int usage(std::ostream& out, int status) {
  out << "usage: lazyckpt-trace <command> [options] <trace.json>\n"
         "commands:\n"
         "  validate               check trace_event structure; exit 0/1\n"
         "  summarize [--top N]    top-N spans by self time (default 10)\n"
         "  export [--out <csv>]   complete spans as CSV (default stdout)\n"
         "  diff [--top N] <a> <b> per-span self-time deltas (B minus A)\n"
         "  critical-path          longest self-time chain, root to leaf\n"
         "Traces come from LAZYCKPT_TRACE=<path> on any bench binary.\n";
  return status;
}

/// Shared "empty but valid" note: a trace with zero complete spans is not
/// an error (a run can legitimately record only counters or nothing at
/// all), so profile commands say so explicitly instead of printing a bare
/// header.
bool note_if_no_spans(const ParsedTrace& trace, std::size_t span_names) {
  if (span_names != 0) return false;
  std::cout << "lazyckpt-trace: no spans in trace (" << trace.events.size()
            << " event" << (trace.events.size() == 1 ? "" : "s") << ")\n";
  return true;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(std::cerr, 2);
  const std::string command = argv[1];
  if (command == "--help" || command == "-h") return usage(std::cout, 0);

  std::string path;
  std::string second_path;
  std::string out_path;
  std::size_t top_n = 10;
  const bool wants_two_inputs = command == "diff";
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--top") {
      if (i + 1 >= argc) return usage(std::cerr, 2);
      const char* text = argv[++i];
      char* end = nullptr;
      const long value = std::strtol(text, &end, 10);
      if (end == text || *end != '\0' || value <= 0) {
        std::cerr << "lazyckpt-trace: --top needs a positive integer\n";
        return 2;
      }
      top_n = static_cast<std::size_t>(value);
    } else if (arg == "--out") {
      if (i + 1 >= argc) return usage(std::cerr, 2);
      out_path = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "lazyckpt-trace: unknown option '" << arg << "'\n";
      return usage(std::cerr, 2);
    } else if (path.empty()) {
      path = arg;
    } else if (wants_two_inputs && second_path.empty()) {
      second_path = arg;
    } else {
      return usage(std::cerr, 2);
    }
  }
  if (path.empty()) return usage(std::cerr, 2);
  if (wants_two_inputs && second_path.empty()) {
    std::cerr << "lazyckpt-trace: diff needs two trace files\n";
    return usage(std::cerr, 2);
  }

  const auto load_trace = [](const std::string& file, ParsedTrace* trace) {
    std::string text;
    if (!read_file(file, text)) {
      std::cerr << "lazyckpt-trace: cannot read " << file << "\n";
      return 2;
    }
    try {
      *trace = lazyckpt::tracetool::parse_trace(text);
    } catch (const lazyckpt::tracetool::ParseError& error) {
      std::cerr << "lazyckpt-trace: " << file << ": " << error.what() << "\n";
      return 1;
    }
    return 0;
  };

  ParsedTrace trace;
  if (const int status = load_trace(path, &trace); status != 0) {
    return status;
  }

  if (command == "diff") {
    ParsedTrace second;
    if (const int status = load_trace(second_path, &second); status != 0) {
      return status;
    }
    const auto deltas =
        lazyckpt::tracetool::diff_profiles(lazyckpt::tracetool::summarize(trace),
                                           lazyckpt::tracetool::summarize(second));
    if (deltas.empty()) {
      std::cout << "lazyckpt-trace: no spans in either trace ("
                << trace.events.size() << " + " << second.events.size()
                << " events)\n";
      return 0;
    }
    std::cout << lazyckpt::tracetool::render_diff(deltas, top_n);
    return 0;
  }

  if (command == "validate") {
    const auto problems = lazyckpt::tracetool::validate(trace);
    for (const std::string& problem : problems) {
      std::cerr << path << ": " << problem << "\n";
    }
    if (!problems.empty()) {
      std::cerr << "lazyckpt-trace: " << problems.size() << " problem"
                << (problems.size() == 1 ? "" : "s") << " in "
                << trace.events.size() << " events\n";
      return 1;
    }
    std::cout << "lazyckpt-trace: valid (" << trace.events.size()
              << " events)\n";
    return 0;
  }
  if (command == "summarize") {
    const auto stats = lazyckpt::tracetool::summarize(trace);
    if (note_if_no_spans(trace, stats.size())) return 0;
    std::cout << lazyckpt::tracetool::render_summary(stats, top_n);
    return 0;
  }
  if (command == "critical-path") {
    const auto nodes = lazyckpt::tracetool::critical_path(trace);
    if (note_if_no_spans(trace, nodes.size())) return 0;
    std::cout << lazyckpt::tracetool::render_critical_path(nodes);
    return 0;
  }
  if (command == "export") {
    const std::string csv = lazyckpt::tracetool::export_spans_csv(trace);
    if (out_path.empty()) {
      std::cout << csv;
      return 0;
    }
    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::cerr << "lazyckpt-trace: cannot write " << out_path << "\n";
      return 2;
    }
    out << csv;
    return 0;
  }

  std::cerr << "lazyckpt-trace: unknown command '" << command << "'\n";
  return usage(std::cerr, 2);
}
