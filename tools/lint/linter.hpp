#pragma once

/// \file linter.hpp
/// \brief Rule engine for `lazyckpt-lint`, the repo-aware static-analysis
/// tool that enforces the lazyckpt determinism contract (DESIGN.md §5e,
/// §5j).
///
/// PR 1 and PR 2 made simulation output bit-identical across thread counts
/// and kernel variants; that guarantee rests on source-level invariants
/// (all randomness through common/random pre-split streams, no wall-clock
/// reads in result paths, no unordered-container iteration feeding output).
/// Golden-master tests only catch violations at replay time — this engine
/// catches them at build time, as CTest cases with the `lint` label.
///
/// v2 rebuilt the engine on a real C++ lexer (lexer.hpp): every rule now
/// consumes artifacts derived from the token stream — comment/string-blind
/// line projections for the substring heuristics, the token stream itself
/// for the symbol-aware rules (symbols.hpp), and the repo-wide include
/// graph for include hygiene (include_graph.hpp).  It is still not a
/// compiler frontend: no macro expansion, no overload resolution, zero
/// dependencies beyond the standard library.  Rules remain heuristics;
/// every rule is therefore individually suppressible with
///
///     // lazyckpt-lint: allow(<rule-id>)
///
/// which silences the named rules on the comment's own line(s) and on the
/// immediately following line — so both the trailing and the
/// standalone-line-above placements work.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace lazyckpt::lint {

/// The rule catalog.  IDs (see rule_id) are stable: they appear in
/// diagnostics and in suppression comments, and future PRs append only.
enum class Rule {
  /// Banned nondeterminism sources: std::rand/srand/rand(), time(),
  /// clock(), localtime/gmtime/strftime, std::random_device,
  /// std::chrono::system_clock, std::chrono::steady_clock, and direct
  /// std::mt19937 construction.  All randomness must flow through the
  /// pre-split xoshiro streams in src/common/random.*; wall-clock time
  /// may only be read in bench/ (timing harnesses measure, never decide)
  /// or through the obs clock shim — src/obs/clock.cpp is the single
  /// allowlisted steady_clock site, everything else goes through
  /// obs::process_clock() so tests can substitute a fake clock.
  /// Additionally, a call from inside a parallel_for/parallel_map worker
  /// to a file-local function whose body reads a banned source is flagged
  /// at the call site (one level of indirection).
  kDeterminism,
  /// Iteration over std::unordered_map/std::unordered_set in a
  /// translation unit that also writes CSV/JSON/table output.  Hash
  /// iteration order is unspecified and varies across libstdc++/libc++,
  /// so it must never feed bytes that golden masters compare.
  kUnorderedOutputOrder,
  /// Raw ==/!= between floating-point expressions.  Exact comparison is
  /// occasionally the contract (domain sentinels, tabulated alpha
  /// levels); those sites must say so via lazyckpt::fp::exact_eq /
  /// fp::is_zero (common/fp.hpp) or a suppression comment.
  kFloatCompare,
  /// Header hygiene: every header starts with #pragma once (or a classic
  /// include guard), never contains `using namespace`, and library
  /// headers under src/ never include <iostream>.
  kHeaderHygiene,
  /// Error discipline in src/: no naked `throw std::<exception>` of any
  /// standard exception type (errors must go through the lazyckpt
  /// exception hierarchy and throwers in common/error.hpp so callers can
  /// catch lazyckpt::Error and hot paths keep the out-of-line cold-throw
  /// discipline), and no abort()/exit()/quick_exit()/_Exit() calls —
  /// library code reports failures, only binaries decide to terminate.
  kErrorDiscipline,
  /// RNG stream splitting inside a parallel_for/parallel_map worker
  /// lambda.  Bit-identical results across thread counts rest on streams
  /// being pre-split from the master in replica index order *before*
  /// dispatch (sweep.cpp, campaign.cpp, batch.cpp all do this); a
  /// `.split()` inside the worker body would order splits by thread
  /// scheduling and silently break replay.
  kRngSplitOrder,
  /// Raw file-writing calls (fopen/freopen/fwrite/fputs/fprintf,
  /// std::ofstream/std::fstream) in src/cache/ outside the atomic_io
  /// helper.  The result cache's torn-read/last-writer-wins guarantees
  /// rest on every publication going through write-temp-then-rename
  /// (cache::atomic_write_file); a direct write could expose a partially
  /// written entry to a concurrent reader.
  kCacheIoDiscipline,
  /// Include-what-you-use over the repo include graph
  /// (include_graph.hpp): a direct include nothing in the file refers to
  /// is unused; a symbol whose home header is only reached transitively
  /// needs a direct include.  Cross-file by nature, so these findings
  /// come from IncludeAnalyzer (driven by main.cpp), not lint_source.
  kIncludeHygiene,
  /// Raw ==/!= where an operand is a *variable of floating type*, found
  /// by the brace-scoped symbol table in symbols.hpp.  Complements
  /// kFloatCompare, which only sees literal operands: `a == b` with
  /// `double a, b` has no literal to spot.
  kFloatCompareVar,
  /// Metric and trace span names registered from src/ must be lowercase
  /// dot-separated — `cache.hits`, `sim.replicas_done` — i.e. at least
  /// two `[a-z][a-z0-9_]*` segments.  The obs registry, the run report,
  /// and the trace file all key on these strings, so a stray
  /// CamelCase or dotless name silently forks the namespace.  Flagged at
  /// the registration site: counter/gauge/histogram/instant/record_begin/
  /// record_end/flow_* calls and TraceSpan/ScopedFlow constructions whose
  /// first argument is a string literal.
  kMetricNameStyle,
};

/// Stable kebab-case identifier for `rule` ("determinism", "float-compare",
/// ...).  Used in diagnostics and matched by suppression comments.
[[nodiscard]] std::string_view rule_id(Rule rule) noexcept;

/// Parse a rule identifier; std::nullopt if unknown.
[[nodiscard]] std::optional<Rule> rule_from_id(std::string_view id) noexcept;

/// All rules, in catalog order (for --list-rules and the test suite).
[[nodiscard]] const std::vector<Rule>& all_rules();

/// One-line rationale for `rule`, shown by --list-rules.
[[nodiscard]] std::string_view rule_rationale(Rule rule) noexcept;

/// Where a file sits in the repo — determines which rules apply and which
/// exemptions hold.  Derived from the repo-relative path by classify_path.
struct FileContext {
  bool is_header = false;      ///< .hpp/.h/.hh/.hxx
  bool in_src = false;         ///< under src/ (the library)
  bool in_bench = false;       ///< under bench/ (timing exempt)
  bool in_tests = false;       ///< under tests/ (float-compare exempt)
  bool in_tools = false;       ///< under tools/ (include hygiene applies)
  bool is_random_impl = false;  ///< src/common/random.* (the one RNG home)
  bool is_error_impl = false;  ///< src/common/error.* (the thrower home)
  bool is_fp_helper = false;   ///< src/common/fp.hpp (approved comparators)
  bool is_obs_clock = false;   ///< src/obs/clock.* (the steady_clock shim)
  bool in_cache = false;       ///< under src/cache/ (atomic-write discipline)
  bool is_cache_io_impl = false;  ///< src/cache/atomic_io.* (the writer home)
};

/// Classify a repo-relative path ("src/sim/engine.cpp", "tests/x.cpp").
/// Both '/' separated and leading "./" forms are accepted.
[[nodiscard]] FileContext classify_path(std::string_view relative_path);

/// A single rule violation.
struct Finding {
  std::string file;     ///< repo-relative path as given to lint_source
  int line = 0;         ///< 1-based line number
  Rule rule = Rule::kDeterminism;
  std::string message;  ///< human-readable diagnostic
};

/// Replace comment text and the contents of string/char literals (including
/// raw strings) with spaces, preserving the line structure, so token rules
/// never fire inside literals or prose.  Since v2 this is a rendering of
/// the lexer's token stream, not a separate scanner.  Exposed for the
/// linter's own tests.
[[nodiscard]] std::vector<std::string> strip_comments_and_strings(
    std::string_view text);

/// Run every applicable rule over one in-memory source file.  `file_label`
/// is echoed into findings; `ctx` should come from classify_path on the
/// repo-relative path.  Findings are ordered by line.
[[nodiscard]] std::vector<Finding> lint_source(std::string_view file_label,
                                               std::string_view content,
                                               const FileContext& ctx);

/// Drop findings silenced by `// lazyckpt-lint: allow(...)` comments in
/// `content`.  lint_source applies this internally; it is exposed so
/// cross-file findings (include hygiene) get identical suppression
/// semantics.
[[nodiscard]] std::vector<Finding> apply_suppressions(
    std::string_view content, std::vector<Finding> findings);

/// Canonical ordering for reports: (file, line, rule id, message).
void sort_findings(std::vector<Finding>* findings);

/// "file:line: error: [rule-id] message" — the one-line text form.
[[nodiscard]] std::string format_finding(const Finding& finding);

/// Deterministic machine-readable report: findings sorted by
/// (file, line, rule id, message), stable key order, trailing newline.
[[nodiscard]] std::string render_findings_json(std::vector<Finding> findings);

}  // namespace lazyckpt::lint
