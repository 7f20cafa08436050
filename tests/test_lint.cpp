// Unit tests for the lazyckpt-lint rule engine (tools/lint/linter.hpp,
// DESIGN.md §5e).  Each rule gets one violating and one clean fixture
// snippet, plus suppression-comment and comment/string-stripping cases.
// Fixtures live in raw strings: the stripper itself guarantees this file
// never trips the `ctest -L lint` gate over tests/.

#include "linter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "include_graph.hpp"
#include "lexer.hpp"
#include "symbols.hpp"

namespace lint = lazyckpt::lint;

namespace {

std::vector<lint::Finding> lint_at(const std::string& path,
                                   const std::string& content) {
  return lint::lint_source(path, content, lint::classify_path(path));
}

bool has_rule(const std::vector<lint::Finding>& findings, lint::Rule rule) {
  return std::any_of(
      findings.begin(), findings.end(),
      [rule](const lint::Finding& f) { return f.rule == rule; });
}

TEST(LintRuleCatalog, IdsRoundTrip) {
  for (const lint::Rule rule : lint::all_rules()) {
    const auto id = lint::rule_id(rule);
    ASSERT_NE(id, "unknown");
    const auto parsed = lint::rule_from_id(id);
    ASSERT_TRUE(parsed.has_value()) << id;
    EXPECT_EQ(*parsed, rule);
    EXPECT_FALSE(lint::rule_rationale(rule).empty()) << id;
  }
  EXPECT_FALSE(lint::rule_from_id("no-such-rule").has_value());
}

TEST(LintClassifyPath, MapsRepoLayout) {
  EXPECT_TRUE(lint::classify_path("src/sim/engine.cpp").in_src);
  EXPECT_TRUE(lint::classify_path("src/sim/engine.hpp").is_header);
  EXPECT_TRUE(lint::classify_path("./src/common/random.cpp").is_random_impl);
  EXPECT_TRUE(lint::classify_path("src/common/random.hpp").is_random_impl);
  EXPECT_TRUE(lint::classify_path("src/common/error.hpp").is_error_impl);
  EXPECT_TRUE(lint::classify_path("src/common/fp.hpp").is_fp_helper);
  EXPECT_TRUE(lint::classify_path("bench/fig05_oci_vs_hourly.cpp").in_bench);
  EXPECT_TRUE(lint::classify_path("tests/test_common.cpp").in_tests);
  EXPECT_FALSE(lint::classify_path("tests/test_common.cpp").in_src);
  EXPECT_TRUE(lint::classify_path("src/obs/clock.cpp").is_obs_clock);
  EXPECT_TRUE(lint::classify_path("./src/obs/clock.hpp").is_obs_clock);
  EXPECT_FALSE(lint::classify_path("src/obs/trace.cpp").is_obs_clock);
  EXPECT_FALSE(lint::classify_path("src/cr/clock.cpp").is_obs_clock);
}

// ---- determinism ---------------------------------------------------------

TEST(LintDeterminism, FlagsBannedSources) {
  const std::string snippet = R"(
#include <random>
void f() {
  std::random_device rd;
  std::mt19937 gen(12345);
  auto now = time(nullptr);
  auto tick = std::chrono::system_clock::now();
  srand(42);
  int r = rand();
}
)";
  const auto findings = lint_at("src/sim/engine.cpp", snippet);
  EXPECT_EQ(findings.size(), 6u);
  EXPECT_TRUE(has_rule(findings, lint::Rule::kDeterminism));
  // file:line fidelity — the random_device sits on line 4.
  EXPECT_EQ(findings.front().file, "src/sim/engine.cpp");
  EXPECT_EQ(findings.front().line, 4);
}

TEST(LintDeterminism, FlagsCalendarAndCpuClockReads) {
  const std::string snippet = R"(
#include <ctime>
void f() {
  std::time_t now = time(nullptr);
  std::tm* local = localtime(&now);
  std::tm* utc = gmtime(&now);
  char buf[64];
  strftime(buf, sizeof(buf), "%F", local);
  auto cpu = clock();
}
)";
  const auto findings = lint_at("src/sim/engine.cpp", snippet);
  EXPECT_EQ(findings.size(), 5u);
  EXPECT_TRUE(has_rule(findings, lint::Rule::kDeterminism));
}

TEST(LintDeterminism, SteadyClockAllowedOnlyInObsClockShim) {
  const std::string snippet = R"(
#include <chrono>
auto tick() { return std::chrono::steady_clock::now(); }
)";
  // The one allowlisted home, mirroring common/random.* for RNG.
  EXPECT_TRUE(lint_at("src/obs/clock.cpp", snippet).empty());
  // Everywhere else in the library and in tests it is banned.
  EXPECT_FALSE(lint_at("src/sim/engine.cpp", snippet).empty());
  EXPECT_FALSE(lint_at("src/obs/trace.cpp", snippet).empty());
  EXPECT_FALSE(lint_at("src/cr/clock.cpp", snippet).empty());
  EXPECT_FALSE(lint_at("tests/test_obs.cpp", snippet).empty());
  // bench/ stays timing-exempt wholesale.
  EXPECT_TRUE(lint_at("bench/micro_engine.cpp", snippet).empty());
}

TEST(LintDeterminism, CleanRngUsageAndLookalikesPass) {
  const std::string snippet = R"(
#include "common/random.hpp"
#include "obs/clock.hpp"
double draw(lazyckpt::Rng& rng) {
  double runtime = 1.0;           // 'time' inside identifiers is fine
  auto t0 = lazyckpt::obs::process_clock().now_ns();  // the approved shim
  auto child = rng.split();
  return runtime * child.uniform() + double(t0) * 0.0;
}
)";
  EXPECT_TRUE(lint_at("src/sim/engine.cpp", snippet).empty());
}

TEST(LintDeterminism, BenchAndRandomImplAreExempt) {
  const std::string snippet = "auto t = time(nullptr);\n";
  EXPECT_TRUE(lint_at("bench/micro_engine.cpp", snippet).empty());
  EXPECT_TRUE(lint_at("src/common/random.cpp", snippet).empty());
  EXPECT_FALSE(lint_at("src/sim/engine.cpp", snippet).empty());
  EXPECT_FALSE(lint_at("tests/test_sim_engine.cpp", snippet).empty());
}

// ---- unordered-output-order ---------------------------------------------

TEST(LintUnordered, FlagsIterationInOutputTu) {
  const std::string snippet = R"(
#include <fstream>
#include <unordered_map>
void dump() {
  std::unordered_map<int, double> scores;
  std::ofstream out;
  for (const auto& [node, score] : scores) {
    out << node << score;
  }
}
)";
  const auto findings = lint_at("src/apps/report.cpp", snippet);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, lint::Rule::kUnorderedOutputOrder);
  EXPECT_EQ(findings[0].line, 7);
}

TEST(LintUnordered, TracksDeclarationsSplitAcrossLines) {
  // The declaration wraps: template arguments on one line, the variable
  // name on the next.  The joined-file scan must still track `scores`.
  const std::string snippet = R"(
#include <fstream>
#include <unordered_map>
void dump() {
  std::unordered_map<std::string,
                     double>
      scores;
  std::ofstream out;
  for (const auto& [node, score] : scores) {
    out << node << score;
  }
}
)";
  const auto findings = lint_at("src/apps/report.cpp", snippet);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, lint::Rule::kUnorderedOutputOrder);
  EXPECT_EQ(findings[0].line, 9);
}

TEST(LintUnordered, CleanWithoutOutputOrWithOrderedContainer) {
  // Same iteration, but the TU writes nothing: lookup tables are fine.
  const std::string no_output = R"(
#include <unordered_map>
int sum(const std::unordered_map<int, int>& m) {
  std::unordered_map<int, int> copy = m;
  int total = 0;
  for (const auto& [k, v] : copy) total += v;
  return total;
}
)";
  EXPECT_TRUE(lint_at("src/apps/lookup.cpp", no_output).empty());

  // Output TU iterating an ordered map: fine.
  const std::string ordered = R"(
#include <fstream>
#include <map>
void dump(const std::map<int, double>& m) {
  std::ofstream out;
  for (const auto& [k, v] : m) out << k << v;
}
)";
  EXPECT_TRUE(lint_at("src/apps/report.cpp", ordered).empty());
}

// ---- float-compare -------------------------------------------------------

TEST(LintFloatCompare, FlagsRawEqualityAgainstFloatLiterals) {
  const std::string snippet = R"(
bool f(double alpha, double x) {
  if (alpha == 0.05) return true;
  if (x != 1e-12) return true;
  return false;
}
)";
  const auto findings = lint_at("src/stats/thing.cpp", snippet);
  EXPECT_EQ(findings.size(), 2u);
  EXPECT_TRUE(has_rule(findings, lint::Rule::kFloatCompare));
}

TEST(LintFloatCompare, IntegerComparisonsAndHelpersPass) {
  const std::string snippet = R"(
#include "common/fp.hpp"
bool f(int n, double alpha, double x) {
  if (n == 3) return true;                    // integer compare is fine
  if (x1.size() == v2.count()) return true;   // member access, no literal
  return lazyckpt::fp::exact_eq(alpha, 0.05); // the approved spelling
}
)";
  EXPECT_TRUE(lint_at("src/stats/thing.cpp", snippet).empty());
}

TEST(LintFloatCompare, TestsAreExempt) {
  const std::string snippet = "bool b = (x == 0.5);\n";
  EXPECT_TRUE(lint_at("tests/test_stats.cpp", snippet).empty());
  EXPECT_FALSE(lint_at("src/stats/thing.cpp", snippet).empty());
}

// ---- header-hygiene ------------------------------------------------------

TEST(LintHeaderHygiene, FlagsGuardlessUsingNamespaceAndIostream) {
  const std::string snippet = R"(
#include <iostream>
using namespace std;
inline void hello() { cout << "hi"; }
)";
  const auto findings = lint_at("src/common/bad.hpp", snippet);
  EXPECT_EQ(findings.size(), 3u);
  EXPECT_TRUE(has_rule(findings, lint::Rule::kHeaderHygiene));
}

TEST(LintHeaderHygiene, PragmaOnceAndClassicGuardsPass) {
  const std::string pragma_form = R"(#pragma once
#include <ostream>
namespace lazyckpt { inline int two() { return 2; } }
)";
  EXPECT_TRUE(lint_at("src/common/good.hpp", pragma_form).empty());

  const std::string guard_form = R"(#ifndef LAZYCKPT_GOOD_HPP
#define LAZYCKPT_GOOD_HPP
namespace lazyckpt { inline int two() { return 2; } }
#endif
)";
  EXPECT_TRUE(lint_at("src/common/good.hpp", guard_form).empty());

  // <iostream> is only banned in library headers; a bench header may.
  const std::string bench_header = R"(#pragma once
#include <iostream>
)";
  EXPECT_TRUE(lint_at("bench/bench_common.hpp", bench_header).empty());
  // Sources may include <iostream> freely.
  EXPECT_TRUE(lint_at("src/apps/main.cpp", "#include <iostream>\n").empty());
}

// ---- error-discipline ----------------------------------------------------

TEST(LintErrorDiscipline, FlagsNakedRuntimeErrorInSrc) {
  const std::string snippet = R"(
void f(bool ok) {
  if (!ok) throw std::runtime_error("bad");
}
)";
  const auto findings = lint_at("src/io/agent.cpp", snippet);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, lint::Rule::kErrorDiscipline);
  EXPECT_EQ(findings[0].line, 3);
}

TEST(LintErrorDiscipline, FlagsEveryNakedStdExceptionType) {
  for (const std::string type :
       {"std::exception", "std::logic_error", "std::invalid_argument",
        "std::out_of_range", "std::length_error", "std::domain_error",
        "std::range_error", "std::overflow_error", "std::underflow_error",
        "std::system_error"}) {
    const std::string snippet =
        "void f(bool ok) {\n  if (!ok) throw " + type + "(\"bad\");\n}\n";
    const auto findings = lint_at("src/io/agent.cpp", snippet);
    ASSERT_EQ(findings.size(), 1u) << type;
    EXPECT_EQ(findings[0].rule, lint::Rule::kErrorDiscipline) << type;
    EXPECT_EQ(findings[0].line, 2) << type;
  }
}

TEST(LintErrorDiscipline, FlagsProcessTerminatorsInSrcOnly) {
  for (const std::string call :
       {"std::abort()", "abort()", "std::exit(1)", "exit(0)",
        "std::quick_exit(2)", "_Exit(3)"}) {
    const std::string snippet = "void f() {\n  " + call + ";\n}\n";
    const auto findings = lint_at("src/io/agent.cpp", snippet);
    ASSERT_EQ(findings.size(), 1u) << call;
    EXPECT_EQ(findings[0].rule, lint::Rule::kErrorDiscipline) << call;
    EXPECT_EQ(findings[0].line, 2) << call;
    // main()s outside src/ may terminate the process.
    EXPECT_TRUE(lint_at("bench/fig99.cpp", snippet).empty()) << call;
    EXPECT_TRUE(lint_at("examples/demo.cpp", snippet).empty()) << call;
  }
  // Lookalikes at non-token boundaries stay clean.
  const std::string lookalike =
      "void f() {\n  on_exit(nullptr, nullptr);\n  my_abort();\n}\n";
  EXPECT_TRUE(lint_at("src/io/agent.cpp", lookalike).empty());
}

TEST(LintErrorDiscipline, HierarchyThrowsAndOtherDirsPass) {
  const std::string hierarchy = R"(
#include "common/error.hpp"
void f(bool ok) {
  if (!ok) throw lazyckpt::IoError("bad");
  lazyckpt::require(ok, "must be ok");
}
)";
  EXPECT_TRUE(lint_at("src/io/agent.cpp", hierarchy).empty());

  const std::string naked = "void f() { throw std::runtime_error(\"x\"); }\n";
  // error.hpp itself and code outside src/ are exempt.  (The guardless
  // one-line header still trips header-hygiene, so check the rule, not
  // emptiness.)
  EXPECT_FALSE(
      has_rule(lint_at("src/common/error.hpp", naked),
               lint::Rule::kErrorDiscipline));
  EXPECT_TRUE(lint_at("tests/test_x.cpp", naked).empty());
  EXPECT_TRUE(lint_at("examples/demo.cpp", naked).empty());
}

// ---- cache-io-discipline -------------------------------------------------

TEST(LintCacheIoDiscipline, ClassifyPathMarksCacheLayer) {
  EXPECT_TRUE(lint::classify_path("src/cache/store.cpp").in_cache);
  EXPECT_FALSE(lint::classify_path("src/cache/store.cpp").is_cache_io_impl);
  EXPECT_TRUE(lint::classify_path("src/cache/atomic_io.cpp").in_cache);
  EXPECT_TRUE(
      lint::classify_path("src/cache/atomic_io.cpp").is_cache_io_impl);
  EXPECT_TRUE(
      lint::classify_path("./src/cache/atomic_io.hpp").is_cache_io_impl);
  EXPECT_FALSE(lint::classify_path("src/cr/file.cpp").in_cache);
}

TEST(LintCacheIoDiscipline, FlagsRawWritesOutsideTheAtomicHelper) {
  for (const std::string write :
       {"std::FILE* f = fopen(path.c_str(), \"w\");",
        "std::ofstream out(path);", "std::fstream io(path);",
        "fwrite(data, 1, n, f);", "fputs(\"x\", f);",
        "fprintf(f, \"%d\", v);"}) {
    const std::string snippet = "void publish() {\n  " + write + "\n}\n";
    const auto findings = lint_at("src/cache/store.cpp", snippet);
    ASSERT_TRUE(has_rule(findings, lint::Rule::kCacheIoDiscipline)) << write;
    // The same bytes are fine in the designated I/O shim and outside the
    // cache layer entirely.
    EXPECT_FALSE(has_rule(lint_at("src/cache/atomic_io.cpp", snippet),
                          lint::Rule::kCacheIoDiscipline))
        << write;
    EXPECT_FALSE(has_rule(lint_at("src/cr/file.cpp", snippet),
                          lint::Rule::kCacheIoDiscipline))
        << write;
  }
}

TEST(LintCacheIoDiscipline, ReadsAndIncludesStayClean) {
  const std::string snippet =
      "#include <fstream>\n"
      "std::optional<std::string> read(const std::string& path) {\n"
      "  std::ifstream in(path, std::ios::binary);\n"
      "  return std::nullopt;\n"
      "}\n";
  EXPECT_FALSE(has_rule(lint_at("src/cache/store.cpp", snippet),
                        lint::Rule::kCacheIoDiscipline));
}

TEST(LintCacheIoDiscipline, SuppressionCommentSilences) {
  const std::string snippet =
      "void f() {\n"
      "  std::ofstream out(path);  // lazyckpt-lint: allow(cache-io-"
      "discipline)\n"
      "}\n";
  EXPECT_FALSE(has_rule(lint_at("src/cache/key.cpp", snippet),
                        lint::Rule::kCacheIoDiscipline));
}

TEST(LintRngSplitOrder, FlagsSplitInsideParallelWorker) {
  const std::string violating = R"(
#include "common/parallel.hpp"
void run(lazyckpt::Rng& master, std::size_t n) {
  lazyckpt::parallel_for(n, [&](std::size_t i) {
    auto rng = master.split();
    use(rng, i);
  });
}
)";
  const auto findings = lint_at("src/sim/bad_dispatch.cpp", violating);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, lint::Rule::kRngSplitOrder);
  EXPECT_EQ(findings[0].line, 5);
}

TEST(LintRngSplitOrder, FlagsSplitInsideParallelMapWorker) {
  const std::string violating = R"(
void run(lazyckpt::Rng& master, std::size_t n) {
  const auto out = lazyckpt::parallel_map(n, [&](std::size_t i) {
    return simulate(master.split(), i);
  });
  use(out);
}
)";
  EXPECT_TRUE(has_rule(lint_at("src/sim/bad_map.cpp", violating),
                       lint::Rule::kRngSplitOrder));
}

TEST(LintRngSplitOrder, PreSplitStreamsInIndexOrderPass) {
  // The repo-wide idiom (sweep.cpp, campaign.cpp, batch.cpp): split every
  // stream from the master in replica index order, then dispatch.
  const std::string clean = R"(
#include "common/parallel.hpp"
void run(lazyckpt::Rng& master, std::size_t n) {
  std::vector<lazyckpt::Rng> streams;
  streams.reserve(n);
  for (std::size_t i = 0; i < n; ++i) streams.push_back(master.split());
  lazyckpt::parallel_for(n, [&](std::size_t i) { use(streams[i], i); });
}
)";
  EXPECT_TRUE(lint_at("src/sim/good_dispatch.cpp", clean).empty());

  // A split after the dispatch call has closed is outside the region.
  const std::string after = R"(
void run(lazyckpt::Rng& master, std::size_t n) {
  lazyckpt::parallel_for(n, [&](std::size_t i) { use(i); });
  auto tail = master.split();
  use(tail);
}
)";
  EXPECT_TRUE(lint_at("src/sim/after_dispatch.cpp", after).empty());
}

TEST(LintRngSplitOrder, TracksRegionAcrossLinesAndNestedParens) {
  // The worker lambda spans many lines and contains nested calls; the
  // paren-depth tracker must keep the region open until the dispatch
  // call's own argument list closes.
  const std::string violating = R"(
void run(lazyckpt::Rng& master, std::size_t n) {
  lazyckpt::parallel_for(
      n,
      [&](std::size_t i) {
        auto local = wrap(make(master.split()), i);
        use(local);
      },
      lazyckpt::ParallelConfig{4});
}
)";
  const auto findings = lint_at("src/sim/nested.cpp", violating);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, lint::Rule::kRngSplitOrder);
  EXPECT_EQ(findings[0].line, 6);
}

// ---- suppression comments ------------------------------------------------

TEST(LintSuppression, TrailingCommentSilencesItsLine) {
  const std::string snippet =
      "auto t = time(nullptr);  // lazyckpt-lint: allow(determinism)\n";
  EXPECT_TRUE(lint_at("src/sim/engine.cpp", snippet).empty());
}

TEST(LintSuppression, StandaloneCommentSilencesNextLine) {
  const std::string snippet = R"(
// lazyckpt-lint: allow(determinism)
auto t = time(nullptr);
)";
  EXPECT_TRUE(lint_at("src/sim/engine.cpp", snippet).empty());
}

TEST(LintSuppression, WrongRuleOrWrongLineDoesNotSilence) {
  // allow() names a different rule: the finding stays.
  const std::string wrong_rule =
      "auto t = time(nullptr);  // lazyckpt-lint: allow(float-compare)\n";
  EXPECT_EQ(lint_at("src/sim/engine.cpp", wrong_rule).size(), 1u);

  // Suppression two lines above the violation: the finding stays.
  const std::string far_away = R"(
// lazyckpt-lint: allow(determinism)
int unrelated = 0;
auto t = time(nullptr);
)";
  EXPECT_EQ(lint_at("src/sim/engine.cpp", far_away).size(), 1u);
}

TEST(LintSuppression, CommaListSilencesSeveralRules) {
  const std::string snippet =
      "if (x == 0.5) throw std::runtime_error(\"x\");"
      "  // lazyckpt-lint: allow(float-compare, error-discipline)\n";
  EXPECT_TRUE(lint_at("src/stats/thing.cpp", snippet).empty());
}

// ---- comment/string stripping --------------------------------------------

TEST(LintStripper, TokensInsideCommentsAndStringsAreInvisible) {
  const std::string snippet = R"(
// std::random_device mentioned in a comment
/* srand(1) in a block comment
   spanning lines with time(nullptr) */
const char* s = "std::rand() in a string";
const char* raw = R"x(mt19937 inside a raw string)x";
char quote = '"';
int grouped = 1'000'000;
)";
  EXPECT_TRUE(lint_at("src/sim/engine.cpp", snippet).empty());
}

TEST(LintStripper, PreservesLineNumbersAcrossBlockComments) {
  const std::string snippet = R"(int a = 0;
/* comment
   still comment */
auto t = time(nullptr);
)";
  const auto findings = lint_at("src/sim/engine.cpp", snippet);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 4);
}

TEST(LintStripper, CodeAfterLiteralsIsStillScanned) {
  // The stripper must resume scanning after a string ends on the line.
  const std::string snippet =
      "const char* s = \"label\"; auto t = time(nullptr);\n";
  const auto findings = lint_at("src/sim/engine.cpp", snippet);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, lint::Rule::kDeterminism);
}

TEST(LintStripper, LineCountMatchesInput) {
  const std::string text = "int a;\n\"str\n// c\n/* b */ int d;\n";
  const auto lines = lint::strip_comments_and_strings(text);
  // Four '\n'-terminated lines plus the empty tail.
  EXPECT_EQ(lines.size(), 5u);
  EXPECT_EQ(lines[0], "int a;");
  EXPECT_EQ(lines[3], "  int d;");
}

// ---- lexer edge cases (lexer.hpp) ----------------------------------------

std::vector<lint::Token> tokens_of(const std::string& text) {
  return lint::lex(text).tokens;
}

const lint::Token* find_kind(const std::vector<lint::Token>& toks,
                             lint::TokenKind kind) {
  for (const auto& t : toks) {
    if (t.kind == kind) return &t;
  }
  return nullptr;
}

TEST(LintLexer, RawStringWithCustomDelimiter) {
  // The body contains )" which would end a plain raw string — only the
  // custom delimiter terminates it.
  const auto toks = tokens_of("auto s = R\"xy(close )\" attempt)xy\";\n");
  const auto* raw = find_kind(toks, lint::TokenKind::kRawString);
  ASSERT_NE(raw, nullptr);
  EXPECT_EQ(raw->spelling, "R\"xy(close )\" attempt)xy\"");
  // And nothing after it was swallowed: the ';' still lexes.
  EXPECT_EQ(toks.back().spelling, ";");
}

TEST(LintLexer, MultiLineRawStringKeepsLineNumbers) {
  const auto ts = lint::lex("auto s = R\"(line one\nline two\n)\";\nint z;\n");
  const auto* raw = find_kind(ts.tokens, lint::TokenKind::kRawString);
  ASSERT_NE(raw, nullptr);
  EXPECT_EQ(raw->line, 1);
  // `z` sits on physical line 4 even though the raw string spans 1-3.
  bool found_z = false;
  for (const auto& t : ts.tokens) {
    if (t.spelling == "z") {
      EXPECT_EQ(t.line, 4);
      found_z = true;
    }
  }
  EXPECT_TRUE(found_z);
  EXPECT_EQ(ts.line_count, 5);
}

TEST(LintLexer, DigitSeparatorsStayOneNumberToken) {
  const auto toks = tokens_of("int n = 1'000'000; double d = 1'234.5;\n");
  int numbers = 0;
  for (const auto& t : toks) {
    if (t.kind != lint::TokenKind::kNumber) continue;
    ++numbers;
    if (t.spelling == "1'000'000") {
      EXPECT_FALSE(t.is_float);
    }
    if (t.spelling == "1'234.5") {
      EXPECT_TRUE(t.is_float);
    }
  }
  EXPECT_EQ(numbers, 2);
}

TEST(LintLexer, LineContinuationInsideLineComment) {
  // The backslash-newline extends the // comment onto the next physical
  // line, so `time(nullptr)` is comment text, not code.
  const std::string text = "// comment continues \\\ntime(nullptr);\nint a;\n";
  const auto toks = tokens_of(text);
  const auto* comment = find_kind(toks, lint::TokenKind::kComment);
  ASSERT_NE(comment, nullptr);
  EXPECT_NE(comment->spelling.find("time(nullptr)"), std::string::npos);
  // And the rules agree: no determinism finding.
  EXPECT_TRUE(lint_at("src/sim/engine.cpp", text).empty());
}

TEST(LintLexer, UserDefinedLiteralSuffixesAttach) {
  const auto toks =
      tokens_of("auto a = 10.5_hours; auto b = \"x\"_sv; auto c = 'y'_c;\n");
  const auto* num = find_kind(toks, lint::TokenKind::kNumber);
  ASSERT_NE(num, nullptr);
  EXPECT_EQ(num->spelling, "10.5_hours");
  EXPECT_TRUE(num->is_float);
  const auto* str = find_kind(toks, lint::TokenKind::kString);
  ASSERT_NE(str, nullptr);
  EXPECT_EQ(str->spelling, "\"x\"_sv");
  const auto* chr = find_kind(toks, lint::TokenKind::kChar);
  ASSERT_NE(chr, nullptr);
  EXPECT_EQ(chr->spelling, "'y'_c");
}

TEST(LintLexer, AdjacentStringConcatenationIsTwoTokens) {
  const auto toks = tokens_of("const char* s = \"one \" \"two\";\n");
  int strings = 0;
  for (const auto& t : toks) {
    if (t.kind == lint::TokenKind::kString) ++strings;
  }
  EXPECT_EQ(strings, 2);
  // Concatenated message text never produces rule false positives.
  EXPECT_TRUE(lint_at("src/sim/engine.cpp",
                      "const char* s = \"time(\" \"nullptr)\";\n")
                  .empty());
}

TEST(LintLexer, HeaderNameTokenOnlyAfterInclude) {
  const auto toks = tokens_of("#include <vector>\nbool lt = a < b;\n");
  const auto* hdr = find_kind(toks, lint::TokenKind::kHeaderName);
  ASSERT_NE(hdr, nullptr);
  EXPECT_EQ(hdr->spelling, "<vector>");
  EXPECT_TRUE(hdr->in_pp);
  // `a < b` on the next line lexes as ordinary punctuation, not a header.
  int headers = 0;
  for (const auto& t : toks) {
    if (t.kind == lint::TokenKind::kHeaderName) ++headers;
  }
  EXPECT_EQ(headers, 1);
}

// ---- float symbol table (symbols.hpp) ------------------------------------

TEST(LintSymbols, TracksDeclarationsParamsAndShadowing) {
  const auto ts = lint::lex(R"(
double top = 1.0;
void f(double x, int n) {
  real_t local = 0;
  {
    int x = n;      // shadows the double param
    long double ld = 0;
  }
}
)");
  const auto scan = lint::scan_float_vars(ts);
  std::vector<std::string> names;
  for (const auto& d : scan.decls) names.push_back(d.name);
  EXPECT_NE(std::find(names.begin(), names.end(), "top"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "x"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "local"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "ld"), names.end());
  // The int parameter is not a float declaration.
  for (const auto& d : scan.decls) EXPECT_NE(d.name, "n");
}

TEST(LintSymbols, StructuredBindingsAreNeverFloatVars) {
  // `auto [ptr, ec] = from_chars(..., value)` mixes a pointer and an error
  // code even though the initializer mentions a double.
  const auto ts = lint::lex(R"(
double value = 0.0;
auto [ptr, ec] = std::from_chars(b, e, value);
bool bad = ec != std::errc();
)");
  const auto scan = lint::scan_float_vars(ts);
  for (std::size_t i = 0; i < ts.tokens.size(); ++i) {
    if (ts.tokens[i].spelling == "ec" || ts.tokens[i].spelling == "ptr") {
      EXPECT_FALSE(scan.is_float_var_use[i]) << ts.tokens[i].line;
    }
  }
}

TEST(LintSymbols, FindsFreeFunctionsMethodsAndLambdas) {
  const auto ts = lint::lex(R"(
double helper(int a) { return a * 2.0; }
double Widget::method() const noexcept { return 1.0; }
auto bound = [](int x) { return x; };
)");
  const auto fns = lint::find_local_functions(ts);
  std::vector<std::string> names;
  for (const auto& f : fns) names.push_back(f.name);
  EXPECT_NE(std::find(names.begin(), names.end(), "helper"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "method"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "bound"), names.end());
  for (const auto& f : fns) {
    EXPECT_LT(f.body_first, f.body_last);
    EXPECT_EQ(ts.tokens[f.body_first].spelling, "{");
    EXPECT_EQ(ts.tokens[f.body_last].spelling, "}");
  }
}

TEST(LintSymbols, CallSitesAreNotFunctionDefinitions) {
  const auto ts = lint::lex(R"(
void f() {
  run(x);
  obj.call(y);
  if (cond) { act(); }
}
)");
  for (const auto& fn : lint::find_local_functions(ts)) {
    EXPECT_EQ(fn.name, "f");
  }
}

TEST(LintSymbols, TracksFloatMembersOfFileLocalRecords) {
  const auto ts = lint::lex(R"(
struct Metrics {
  double makespan = 0.0;
  int failures = 0;
};
bool f(const Metrics& a, const Metrics& b) {
  return a.makespan < b.makespan && a.failures < b.failures;
}
)");
  const auto scan = lint::scan_float_vars(ts);
  ASSERT_EQ(scan.member_decls.size(), 1u);
  EXPECT_EQ(scan.member_decls[0].name, "makespan");
  std::size_t member_uses = 0;
  for (std::size_t i = 0; i < ts.tokens.size(); ++i) {
    if (scan.is_float_member_use[i] == 0) continue;
    EXPECT_EQ(ts.tokens[i].spelling, "makespan") << ts.tokens[i].line;
    ++member_uses;
  }
  EXPECT_EQ(member_uses, 2u);  // a.makespan and b.makespan; never failures
}

// ---- float-compare-var ---------------------------------------------------

TEST(LintFloatCompareVar, FlagsRawComparisonBetweenFloatVariables) {
  const std::string violating = R"(
double stop(double a, double b) {
  if (a == b) return a;
  return b;
}
)";
  const auto findings = lint_at("src/sim/engine.cpp", violating);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, lint::Rule::kFloatCompareVar);
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("'a'"), std::string::npos);
}

TEST(LintFloatCompareVar, IntVariablesAndHelperCallsPass) {
  const std::string clean = R"(
bool f(int a, int b, double x, double y) {
  if (a == b) return true;
  return lazyckpt::fp::exact_eq(x, y);
}
)";
  EXPECT_TRUE(lint_at("src/sim/engine.cpp", clean).empty());
}

TEST(LintFloatCompareVar, StaticCastInitializerHasTheCastType) {
  // `auto first = static_cast<T>(...)` has type T, whatever floating
  // arithmetic its operand does.
  const std::string clean = R"(
bool f(double x, std::size_t n) {
  const auto first = static_cast<std::size_t>(x * 2.0);
  if (first == n) return true;
  return false;
}
)";
  EXPECT_TRUE(lint_at("src/sim/engine.cpp", clean).empty());
  const std::string violating = R"(
bool f(int n, double y) {
  const auto half = static_cast<double>(n);
  return half == y;
}
)";
  const auto findings = lint_at("src/sim/engine.cpp", violating);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, lint::Rule::kFloatCompareVar);
  EXPECT_EQ(findings[0].line, 4);
}

TEST(LintFloatCompareVar, LiteralRuleKeepsItsLines) {
  // A float literal on the line is kFloatCompare's claim; the variable
  // rule must not double-report it.
  const std::string snippet = R"(
void f(double x) {
  if (x == 0.5) {}
}
)";
  const auto findings = lint_at("src/sim/engine.cpp", snippet);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, lint::Rule::kFloatCompare);
}

TEST(LintFloatCompareVar, ShadowingIntSilencesOuterDouble) {
  const std::string clean = R"(
double x = 1.0;
void f(int a) {
  int x = a;
  if (x == a) {}
}
)";
  EXPECT_TRUE(lint_at("src/sim/engine.cpp", clean).empty());
}

TEST(LintFloatCompareVar, FlagsRawComparisonBetweenFloatMembers) {
  const std::string violating = R"(
struct Point {
  double x = 0.0;
  int id = 0;
};
bool same_x(const Point& a, const Point& b) {
  return a.x == b.x;
}
)";
  const auto findings = lint_at("src/sim/engine.cpp", violating);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, lint::Rule::kFloatCompareVar);
  EXPECT_EQ(findings[0].line, 7);
  EXPECT_NE(findings[0].message.find("'x'"), std::string::npos);
}

TEST(LintFloatCompareVar, IntMembersAndMemberHelperCallsPass) {
  const std::string clean = R"(
struct Point {
  double x = 0.0;
  int id = 0;
  double norm() const;
};
bool same(const Point& a, const Point& b) {
  if (a.id == b.id) return true;
  return lazyckpt::fp::exact_eq(a.x, b.x);
}
)";
  EXPECT_TRUE(lint_at("src/sim/engine.cpp", clean).empty());
}

TEST(LintFloatCompareVar, AmbiguousMemberNameStaysSilent) {
  // `v` is floating in one record and integral in another: without
  // per-expression type inference the pooled table drops it, keeping the
  // rule's positives trustworthy.
  const std::string clean = R"(
struct Reading { double v = 0.0; };
struct Count { int v = 0; };
bool f(const Count& p, const Count& q) {
  return p.v == q.v;
}
)";
  EXPECT_TRUE(lint_at("src/sim/engine.cpp", clean).empty());
}

TEST(LintFloatCompareVar, SuppressibleBothPlacements) {
  const std::string trailing = R"(
void f(double a, double b) {
  if (a == b) {}  // lazyckpt-lint: allow(float-compare-var)
}
)";
  EXPECT_TRUE(lint_at("src/sim/engine.cpp", trailing).empty());
  const std::string above = R"(
void f(double a, double b) {
  // lazyckpt-lint: allow(float-compare-var)
  if (a == b) {}
}
)";
  EXPECT_TRUE(lint_at("src/sim/engine.cpp", above).empty());
}

// ---- metric-name-style ----------------------------------------------------

TEST(LintMetricNameStyle, FlagsNonConformingNamesAtRegistration) {
  const std::string violating = R"(
void f() {
  obs::metrics().counter("CacheHits").add();
  obs::metrics().gauge("replicas").record_max(1);
  const obs::TraceSpan span("Sim.Block");
  obs::flow_step("spec flow", obs::current_flow());
}
)";
  const auto findings = lint_at("src/sim/engine.cpp", violating);
  ASSERT_EQ(findings.size(), 4u);
  for (const auto& finding : findings) {
    EXPECT_EQ(finding.rule, lint::Rule::kMetricNameStyle);
  }
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("\"CacheHits\""), std::string::npos);
  EXPECT_EQ(findings[1].line, 4);  // dotless: one segment is not enough
  EXPECT_EQ(findings[2].line, 5);  // TraceSpan declaration form
  EXPECT_EQ(findings[3].line, 6);  // space is not a separator
}

TEST(LintMetricNameStyle, ConformingAndDynamicNamesPass) {
  const std::string clean = R"(
void f(const char* dynamic) {
  obs::metrics().counter("cache.hits").add();
  obs::metrics().gauge("sim.replicas_done").record_max(1);
  obs::metrics().histogram("cr.write_latency_seconds", bounds).observe(x);
  const obs::TraceSpan span("sim.dispatch.batch");
  const obs::ScopedFlow flow("spec.flow", obs::new_flow_id());
  obs::record_begin("cr.crc32");
  obs::record_end("cr.crc32");
  obs::metrics().counter(dynamic).add();
}
)";
  EXPECT_TRUE(lint_at("src/sim/engine.cpp", clean).empty());
}

TEST(LintMetricNameStyle, OnlyAppliesUnderSrc) {
  const std::string snippet = R"(
void f() {
  obs::metrics().counter("CacheHits").add();
}
)";
  EXPECT_TRUE(lint_at("bench/fig05_oci_vs_hourly.cpp", snippet).empty());
  EXPECT_TRUE(lint_at("tests/test_obs.cpp", snippet).empty());
  EXPECT_FALSE(lint_at("src/cache/store.cpp", snippet).empty());
}

TEST(LintMetricNameStyle, Suppressible) {
  const std::string suppressed = R"(
void f() {
  // lazyckpt-lint: allow(metric-name-style)
  obs::metrics().counter("LegacyName").add();
}
)";
  EXPECT_TRUE(lint_at("src/sim/engine.cpp", suppressed).empty());
}

// ---- determinism via local-function indirection --------------------------

TEST(LintDeterminismIndirection, FlagsBannedSourceViaLocalHelper) {
  const std::string violating = R"(
static double wall_seed() { return static_cast<double>(time(nullptr)); }
// lazyckpt-lint: allow(determinism)
static double noop_disable_direct() { return 0.0; }
void sweep() {
  lazyckpt::parallel_for(0, n, [&](std::size_t i) {
    values[i] = wall_seed();
  });
}
)";
  const auto findings = lint_at("src/sim/sweep2.cpp", violating);
  // Line 2 is flagged directly; the call inside the worker is flagged via
  // indirection, naming the helper.
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(findings[1].rule, lint::Rule::kDeterminism);
  EXPECT_EQ(findings[1].line, 7);
  EXPECT_NE(findings[1].message.find("via local function 'wall_seed'"),
            std::string::npos);
}

TEST(LintDeterminismIndirection, CleanHelperAndOutsideCallsPass) {
  const std::string clean = R"(
static double pure(double x) { return x * 2.0; }
void sweep() {
  lazyckpt::parallel_for(0, n, [&](std::size_t i) {
    values[i] = pure(values[i]);
  });
}
)";
  EXPECT_TRUE(lint_at("src/sim/sweep2.cpp", clean).empty());

  // A tainted helper called *outside* any parallel region is only flagged
  // at its own body, not at the call site.
  const std::string outside = R"(
static double wall_seed() { return static_cast<double>(time(nullptr)); }
void serial() { double v = wall_seed(); }
)";
  const auto findings = lint_at("src/sim/serial.cpp", outside);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 2);
}

// ---- include hygiene (include_graph.hpp) ---------------------------------

lint::IncludeAnalyzer make_analyzer(
    const std::vector<std::pair<std::string, std::string>>& files) {
  lint::IncludeAnalyzer analyzer;
  for (const auto& [label, text] : files) analyzer.add_file(label, text);
  analyzer.finalize();
  return analyzer;
}

TEST(LintIncludeGraph, FlagsUnusedDirectInclude) {
  const auto analyzer = make_analyzer({
      {"src/common/error.hpp",
       "#pragma once\nnamespace lazyckpt {\n"
       "inline void require(bool c, const char* m) { (void)c; (void)m; }\n"
       "}\n"},
      {"src/sim/thing.cpp",
       "#include \"common/error.hpp\"\n#include <vector>\n"
       "std::vector<int> v;\n"},
  });
  const auto issues = analyzer.analyze("src/sim/thing.cpp");
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].line, 1);
  EXPECT_NE(issues[0].message.find("unused include \"common/error.hpp\""),
            std::string::npos);
}

TEST(LintIncludeGraph, ReferencedSymbolJustifiesInclude) {
  const auto analyzer = make_analyzer({
      {"src/common/error.hpp",
       "#pragma once\nnamespace lazyckpt {\n"
       "inline void require(bool c, const char* m) { (void)c; (void)m; }\n"
       "}\n"},
      {"src/sim/thing.cpp",
       "#include \"common/error.hpp\"\n"
       "void f() { lazyckpt::require(true, \"x\"); }\n"},
  });
  EXPECT_TRUE(analyzer.analyze("src/sim/thing.cpp").empty());
  // --explain names the justifying symbol.
  const auto lines = analyzer.explain("src/sim/thing.cpp");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("justified by 'require'"), std::string::npos);
}

TEST(LintIncludeGraph, FlagsMissingDirectStdInclude) {
  // thing.cpp says std::size_t but reaches <cstddef> only through a.hpp.
  const auto analyzer = make_analyzer({
      {"src/common/a.hpp", "#pragma once\n#include <cstddef>\n"
                           "namespace lazyckpt { struct Blob {}; }\n"},
      {"src/sim/thing.cpp",
       "#include \"common/a.hpp\"\n"
       "lazyckpt::Blob b; std::size_t n = 0;\n"},
  });
  const auto issues = analyzer.analyze("src/sim/thing.cpp");
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].message.find(
                "missing direct include <cstddef> for 'std::size_t'"),
            std::string::npos);
  EXPECT_EQ(issues[0].symbol, "std::size_t");
}

TEST(LintIncludeGraph, FlagsMissingDirectRepoInclude) {
  const auto analyzer = make_analyzer({
      {"src/sim/metrics.hpp", "#pragma once\n"
                              "namespace lazyckpt { struct RunMetrics {}; }\n"},
      {"src/sim/agg.hpp",
       "#pragma once\n#include \"sim/metrics.hpp\"\n"
       "namespace lazyckpt { struct Agg {}; }\n"},
      {"src/sim/thing.cpp",
       "#include \"sim/agg.hpp\"\n"
       "lazyckpt::Agg a; lazyckpt::RunMetrics m;\n"},
  });
  const auto issues = analyzer.analyze("src/sim/thing.cpp");
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].message.find(
                "missing direct include \"sim/metrics.hpp\" for "
                "'RunMetrics'"),
            std::string::npos);
}

TEST(LintIncludeGraph, PrimaryHeaderIsAlwaysKept) {
  const auto analyzer = make_analyzer({
      {"src/sim/thing.hpp", "#pragma once\n"
                            "namespace lazyckpt { struct Thing {}; }\n"},
      {"src/sim/thing.cpp", "#include \"sim/thing.hpp\"\nint x = 0;\n"},
  });
  // Nothing from thing.hpp is referenced, but it is the primary header.
  EXPECT_TRUE(analyzer.analyze("src/sim/thing.cpp").empty());
}

TEST(LintIncludeGraph, UnresolvedChainNeverIndicts) {
  // <immintrin.h> is not in the std table: the include's contents are
  // unknown, so it must never be reported unused.
  const auto analyzer = make_analyzer({
      {"src/sim/thing.cpp", "#include <immintrin.h>\nint x = 0;\n"},
  });
  EXPECT_TRUE(analyzer.analyze("src/sim/thing.cpp").empty());
  const auto lines = analyzer.explain("src/sim/thing.cpp");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("not fully resolved"), std::string::npos);
}

TEST(LintIncludeGraph, SuppressionAppliesViaApplySuppressions) {
  const std::string content =
      "#include <vector>  // lazyckpt-lint: allow(include-hygiene)\n"
      "int x = 0;\n";
  std::vector<lint::Finding> findings{
      {"src/sim/thing.cpp", 1, lint::Rule::kIncludeHygiene,
       "unused include <vector>"}};
  EXPECT_TRUE(lint::apply_suppressions(content, std::move(findings)).empty());
}

// ---- report formatting: text and JSON ------------------------------------

TEST(LintReport, SortsByFileLineRule) {
  std::vector<lint::Finding> findings{
      {"src/b.cpp", 9, lint::Rule::kDeterminism, "m1"},
      {"src/a.cpp", 12, lint::Rule::kFloatCompare, "m2"},
      {"src/a.cpp", 3, lint::Rule::kUnorderedOutputOrder, "m3"},
      {"src/a.cpp", 3, lint::Rule::kDeterminism, "m4"},
  };
  lint::sort_findings(&findings);
  EXPECT_EQ(findings[0].message, "m4");  // determinism < unordered-...
  EXPECT_EQ(findings[1].message, "m3");
  EXPECT_EQ(findings[2].message, "m2");
  EXPECT_EQ(findings[3].message, "m1");
}

TEST(LintReport, JsonMatchesTextFindings) {
  std::vector<lint::Finding> findings{
      {"src/a.cpp", 3, lint::Rule::kDeterminism, "banned \"thing\""},
      {"src/b.cpp", 9, lint::Rule::kFloatCompareVar, "raw == between"},
  };
  const std::string json = lint::render_findings_json(findings);
  // Deterministic shape: count first, findings sorted, trailing newline.
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
  EXPECT_EQ(json.back(), '\n');
  // Every field of every text-form finding appears in the JSON, with
  // string content escaped.
  for (const auto& f : findings) {
    const std::string text = lint::format_finding(f);
    EXPECT_NE(text.find(f.file + ":" + std::to_string(f.line)),
              std::string::npos);
    EXPECT_NE(text.find(std::string("[") + std::string(lint::rule_id(f.rule)) +
                        "]"),
              std::string::npos);
    EXPECT_NE(json.find("\"file\": \"" + f.file + "\""), std::string::npos);
    EXPECT_NE(json.find("\"rule\": \"" +
                        std::string(lint::rule_id(f.rule)) + "\""),
              std::string::npos);
  }
  EXPECT_NE(json.find("banned \\\"thing\\\""), std::string::npos);
  // Same input renders byte-identically every time.
  EXPECT_EQ(json, lint::render_findings_json(findings));
}

TEST(LintReport, JsonEmptyReportIsStable) {
  const std::string json = lint::render_findings_json({});
  EXPECT_NE(json.find("\"count\": 0"), std::string::npos);
  EXPECT_EQ(json, lint::render_findings_json({}));
}

}  // namespace
