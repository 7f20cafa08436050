#include "linter.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstddef>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "json.hpp"
#include "lexer.hpp"
#include "symbols.hpp"

namespace lazyckpt::lint {

namespace {

constexpr std::array<std::pair<Rule, std::string_view>, 10> kRuleIds = {{
    {Rule::kDeterminism, "determinism"},
    {Rule::kUnorderedOutputOrder, "unordered-output-order"},
    {Rule::kFloatCompare, "float-compare"},
    {Rule::kHeaderHygiene, "header-hygiene"},
    {Rule::kErrorDiscipline, "error-discipline"},
    {Rule::kRngSplitOrder, "rng-split-order"},
    {Rule::kCacheIoDiscipline, "cache-io-discipline"},
    {Rule::kIncludeHygiene, "include-hygiene"},
    {Rule::kFloatCompareVar, "float-compare-var"},
    {Rule::kMetricNameStyle, "metric-name-style"},
}};

constexpr std::array<std::pair<Rule, std::string_view>, 10> kRuleRationales =
    {{
    {Rule::kDeterminism,
     "all randomness flows through common/random pre-split streams; "
     "wall-clock reads are allowed only in bench/ or via the obs clock "
     "shim (src/obs/clock.cpp is the one steady_clock site); calls into "
     "local helpers that read banned sources are followed one level deep "
     "inside parallel workers"},
    {Rule::kUnorderedOutputOrder,
     "hash-container iteration order is unspecified and must never feed "
     "CSV/JSON/table bytes compared by golden masters"},
    {Rule::kFloatCompare,
     "raw ==/!= on floating-point expressions; intentional exact "
     "comparison must go through lazyckpt::fp (common/fp.hpp)"},
    {Rule::kHeaderHygiene,
     "headers start with #pragma once, never say `using namespace`, and "
     "library headers never include <iostream>"},
    {Rule::kErrorDiscipline,
     "src/ throws the lazyckpt::Error hierarchy via common/error.hpp, "
     "never naked std:: exception types, and never calls "
     "abort()/exit() — library code reports, callers decide"},
    {Rule::kRngSplitOrder,
     "RNG streams are pre-split from the master in index order before "
     "parallel dispatch; .split() inside a parallel_for/parallel_map "
     "worker would order splits by thread scheduling and break replay"},
    {Rule::kCacheIoDiscipline,
     "src/cache/ publishes files only through cache::atomic_write_file "
     "(write-temp-then-rename in atomic_io.*); a raw write call could "
     "expose a torn entry to a concurrent reader"},
    {Rule::kIncludeHygiene,
     "every file directly includes what it uses and nothing else: the "
     "repo-wide include graph (include_graph.hpp) flags unused direct "
     "includes and symbols reached only transitively"},
    {Rule::kFloatCompareVar,
     "raw ==/!= between variables or data members the symbol table "
     "(symbols.hpp) knows to have floating type; intentional exact "
     "comparison must go through lazyckpt::fp (common/fp.hpp)"},
    {Rule::kMetricNameStyle,
     "metric and trace span names registered from src/ are one shared "
     "namespace keyed by the obs registry, the run report, and the "
     "trace file; they must be lowercase dot-separated "
     "([a-z][a-z0-9_]* segments, at least two), e.g. cache.hits"},
}};

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True if `needle` occurs in `line` at a token boundary: the character
/// before the match (if any) is not an identifier character, and — when the
/// needle itself ends in an identifier character — neither is the character
/// after.  Returns the match position, or npos.
std::size_t find_token(std::string_view line, std::string_view needle,
                       std::size_t from = 0) {
  for (std::size_t pos = line.find(needle, from); pos != std::string_view::npos;
       pos = line.find(needle, pos + 1)) {
    const bool left_ok = pos == 0 || !is_ident_char(line[pos - 1]);
    const std::size_t end = pos + needle.size();
    const bool needle_ends_ident = is_ident_char(needle.back());
    const bool right_ok =
        !needle_ends_ident || end >= line.size() || !is_ident_char(line[end]);
    if (left_ok && right_ok) return pos;
  }
  return std::string_view::npos;
}

bool has_token(std::string_view line, std::string_view needle) {
  return find_token(line, needle) != std::string_view::npos;
}

/// True if `text` contains a floating-point literal: a digit sequence with
/// a decimal point and/or an exponent (1.5, .25, 2., 1e-12, 3.5e+2f).
/// Plain integers, identifiers like x1, and member access like v1.size()
/// do not match.
bool contains_float_literal(std::string_view text) {
  const auto is_digit = [](char c) {
    return std::isdigit(static_cast<unsigned char>(c)) != 0;
  };
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (!is_digit(c) && c != '.') continue;
    // A literal cannot start inside an identifier or right after '.'
    // (member access on something, or the tail of another number).
    if (i > 0 && (is_ident_char(text[i - 1]) || text[i - 1] == '.')) {
      // Skip the rest of this identifier/number so we do not re-test its
      // inner characters.
      continue;
    }
    std::size_t j = i;
    bool saw_digit = false;
    while (j < text.size() && is_digit(text[j])) {
      saw_digit = true;
      ++j;
    }
    bool is_float = false;
    if (j < text.size() && text[j] == '.') {
      ++j;
      bool frac_digit = false;
      while (j < text.size() && is_digit(text[j])) {
        frac_digit = true;
        ++j;
      }
      // "1." and "1.5" are floats; ".5" needs a fractional digit; a bare
      // '.' (member access, "...") is not a literal.
      is_float = saw_digit || frac_digit;
      if (!saw_digit && !frac_digit) continue;
    }
    if (j < text.size() && (text[j] == 'e' || text[j] == 'E') &&
        (saw_digit || is_float)) {
      std::size_t k = j + 1;
      if (k < text.size() && (text[k] == '+' || text[k] == '-')) ++k;
      std::size_t exp_start = k;
      while (k < text.size() && is_digit(text[k])) ++k;
      if (k > exp_start) {
        j = k;
        is_float = true;
      }
    }
    if (is_float) return true;
    if (j > i) i = j - 1;  // skip the scanned integer
  }
  return false;
}

/// Characters that delimit a comparison operand at line granularity.
bool is_operand_boundary(char c) {
  return c == '(' || c == ')' || c == '{' || c == '}' || c == ';' ||
         c == ',' || c == '?' || c == ':' || c == '&' || c == '|' ||
         c == '!' || c == '<' || c == '>' || c == '=';
}

std::string_view left_operand(std::string_view line, std::size_t op_pos) {
  std::size_t begin = op_pos;
  while (begin > 0 && !is_operand_boundary(line[begin - 1])) --begin;
  return line.substr(begin, op_pos - begin);
}

std::string_view right_operand(std::string_view line, std::size_t op_end) {
  std::size_t end = op_end;
  while (end < line.size() && !is_operand_boundary(line[end])) ++end;
  return line.substr(op_end, end - op_end);
}

struct Suppressions {
  // line (1-based) -> rules allowed on that line
  std::map<int, std::set<Rule>> by_line;

  [[nodiscard]] bool allows(int line, Rule rule) const {
    auto it = by_line.find(line);
    return it != by_line.end() && it->second.count(rule) != 0;
  }
};

/// Parse `// lazyckpt-lint: allow(rule-a, rule-b)` from the comment tokens
/// of `ts`.  An allow comment silences the named rules on every line the
/// comment itself occupies and on the immediately following line — which
/// makes both placements work: trailing the offending line, or on a
/// standalone comment line directly above it.
Suppressions parse_suppressions(const TokenStream& ts) {
  Suppressions out;
  constexpr std::string_view kMarker = "lazyckpt-lint:";
  for (const Token& tok : ts.tokens) {
    if (tok.kind != TokenKind::kComment) continue;
    const std::string& text = tok.spelling;
    const std::size_t marker = text.find(kMarker);
    if (marker == std::string::npos) continue;
    std::size_t open = text.find("allow(", marker + kMarker.size());
    if (open == std::string::npos) continue;
    open += std::string_view("allow(").size();
    const std::size_t close = text.find(')', open);
    if (close == std::string::npos) continue;

    std::set<Rule> rules;
    std::string ids = text.substr(open, close - open);
    std::istringstream split(ids);
    std::string id;
    while (std::getline(split, id, ',')) {
      const auto strip = [](std::string& s) {
        const auto b = s.find_first_not_of(" \t");
        const auto e = s.find_last_not_of(" \t");
        s = b == std::string::npos ? std::string() : s.substr(b, e - b + 1);
      };
      strip(id);
      if (const auto rule = rule_from_id(id)) rules.insert(*rule);
    }
    if (rules.empty()) continue;

    const int first_line = tok.line;
    const int newlines = static_cast<int>(
        std::count(text.begin(), text.end(), '\n'));
    for (int line = first_line; line <= first_line + newlines + 1; ++line) {
      out.by_line[line].insert(rules.begin(), rules.end());
    }
  }
  return out;
}

/// Raw includes (`<iostream>` or `"common/csv.hpp"`, angle/quote kept) with
/// their 1-based line numbers, read from the preprocessor tokens.
std::vector<std::pair<int, std::string>> parse_includes(
    const TokenStream& ts) {
  std::vector<std::pair<int, std::string>> includes;
  for (std::size_t i = 0; i + 1 < ts.tokens.size(); ++i) {
    const Token& tok = ts.tokens[i];
    if (!tok.in_pp || tok.kind != TokenKind::kIdentifier ||
        tok.spelling != "include") {
      continue;
    }
    const Token& arg = ts.tokens[i + 1];
    if (arg.kind == TokenKind::kHeaderName ||
        (arg.kind == TokenKind::kString && !arg.spelling.empty() &&
         arg.spelling.front() == '"')) {
      includes.emplace_back(arg.line, arg.spelling);
    }
  }
  return includes;
}

/// Render the token stream back into per-line text with comment bodies and
/// literal contents blanked, byte-compatible with the character scanner
/// this replaced: block comments become a single space (newlines kept),
/// line comments vanish, string literals collapse to `""` (prefix and UDL
/// suffix kept), char literals to a space, digit separators to spaces.
std::vector<std::string> render_stripped(const TokenStream& ts,
                                         std::string_view text) {
  std::string out;
  out.reserve(text.size());
  const auto emit_newlines_in = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end && i < text.size(); ++i) {
      if (text[i] == '\n') out += '\n';
    }
  };
  std::size_t cursor = 0;
  for (const Token& tok : ts.tokens) {
    if (tok.begin > cursor) {
      out.append(text.substr(cursor, tok.begin - cursor));
    }
    cursor = tok.end;
    switch (tok.kind) {
      case TokenKind::kIdentifier:
      case TokenKind::kPunct:
      case TokenKind::kHeaderName:
        out.append(text.substr(tok.begin, tok.end - tok.begin));
        break;
      case TokenKind::kNumber:
        for (std::size_t i = tok.begin; i < tok.end; ++i) {
          out += text[i] == '\'' ? ' ' : text[i];
        }
        break;
      case TokenKind::kComment: {
        const std::string_view raw =
            text.substr(tok.begin, tok.end - tok.begin);
        if (raw.rfind("/*", 0) == 0) out += ' ';
        emit_newlines_in(tok.begin, tok.end);
        break;
      }
      case TokenKind::kString:
      case TokenKind::kRawString: {
        const std::string& sp = tok.spelling;
        const std::size_t first = sp.find('"');
        const std::size_t last = sp.rfind('"');
        if (first != std::string::npos) out.append(sp, 0, first);
        out += "\"\"";
        emit_newlines_in(tok.begin, tok.end);
        if (last != std::string::npos && last > first) {
          out.append(sp, last + 1, std::string::npos);  // UDL suffix
        }
        break;
      }
      case TokenKind::kChar: {
        const std::string& sp = tok.spelling;
        const std::size_t first = sp.find('\'');
        const std::size_t last = sp.rfind('\'');
        if (first != std::string::npos) out.append(sp, 0, first);
        out += ' ';
        emit_newlines_in(tok.begin, tok.end);
        if (last != std::string::npos && last > first) {
          out.append(sp, last + 1, std::string::npos);
        }
        break;
      }
    }
  }
  if (cursor < text.size()) out.append(text.substr(cursor));

  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= out.size()) {
    const std::size_t nl = out.find('\n', start);
    if (nl == std::string::npos) {
      lines.emplace_back(out.substr(start));
      break;
    }
    lines.emplace_back(out.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

/// Variable names declared as std::unordered_map/set in `text`:
/// `std::unordered_map<K, V> name` with balanced template angles.  Callers
/// pass the whole file joined with spaces, so declarations split across
/// lines (template arguments or the name on a continuation line) are
/// tracked like single-line ones.
void collect_unordered_names(std::string_view text,
                             std::set<std::string>* names) {
  for (std::string_view container : {"unordered_map", "unordered_set"}) {
    for (std::size_t pos = find_token(text, container);
         pos != std::string_view::npos;
         pos = find_token(text, container, pos + 1)) {
      std::size_t at = pos + container.size();
      if (at >= text.size() || text[at] != '<') continue;
      int depth = 0;
      while (at < text.size()) {
        if (text[at] == '<') ++depth;
        if (text[at] == '>') {
          --depth;
          if (depth == 0) break;
        }
        ++at;
      }
      if (at >= text.size()) continue;  // unbalanced template angles
      ++at;
      while (at < text.size() &&
             (text[at] == ' ' || text[at] == '&' || text[at] == '*')) {
        ++at;
      }
      std::size_t name_end = at;
      while (name_end < text.size() && is_ident_char(text[name_end])) {
        ++name_end;
      }
      if (name_end > at) {
        names->insert(std::string(text.substr(at, name_end - at)));
      }
    }
  }
}

struct DeterminismToken {
  std::string_view token;
  std::string_view advice;
};

constexpr std::array<DeterminismToken, 11> kDeterminismTokens = {{
    {"std::rand", "use a pre-split lazyckpt::Rng stream (common/random.hpp)"},
    {"rand(", "use a pre-split lazyckpt::Rng stream (common/random.hpp)"},
    {"srand", "seeds come from the replica's pre-split Rng, never libc"},
    {"std::random_device",
     "nondeterministic seeding breaks replay; seed a lazyckpt::Rng stream"},
    {"random_device",
     "nondeterministic seeding breaks replay; seed a lazyckpt::Rng stream"},
    {"time(", "wall-clock reads are banned in result paths (bench/ only)"},
    {"clock(", "CPU/wall-clock reads are banned in result paths; timing "
               "goes through obs::process_clock() (src/obs/clock.hpp)"},
    {"localtime", "calendar time is nondeterministic and locale-dependent; "
                  "result paths must not read it"},
    {"gmtime", "calendar time is nondeterministic; result paths must not "
               "read it"},
    {"strftime", "formatted wall-clock time has no place in result paths "
                 "or golden-mastered output"},
    {"system_clock", "wall-clock reads are banned in result paths; use "
                     "obs::process_clock() (src/obs/clock.hpp) for timing"},
}};

/// steady_clock is banned like the tokens above, but with one allowlisted
/// home: src/obs/clock.cpp, the shim every other timing read goes through
/// (mirroring how common/random.* is the one RNG home).  Checked
/// separately because the exemption is path-dependent.
constexpr DeterminismToken kSteadyClockToken = {
    "steady_clock",
    "std::chrono reads are confined to the obs clock shim; call "
    "obs::process_clock() (src/obs/clock.hpp) so tests can inject a fake "
    "clock"};

constexpr std::array<std::string_view, 2> kMt19937Tokens = {
    "std::mt19937", "mt19937"};

/// First banned determinism source on a stripped line, honoring the same
/// precedence the direct rule uses; empty if the line is clean.
std::string_view banned_source_on_line(const std::string& line,
                                       const FileContext& ctx) {
  for (const auto& banned : kDeterminismTokens) {
    if (has_token(line, banned.token)) return banned.token;
  }
  if (!ctx.is_obs_clock && has_token(line, kSteadyClockToken.token)) {
    return kSteadyClockToken.token;
  }
  for (std::string_view token : kMt19937Tokens) {
    if (has_token(line, token)) return token;
  }
  return {};
}

}  // namespace

std::string_view rule_id(Rule rule) noexcept {
  for (const auto& [r, id] : kRuleIds) {
    if (r == rule) return id;
  }
  return "unknown";
}

std::optional<Rule> rule_from_id(std::string_view id) noexcept {
  for (const auto& [rule, known] : kRuleIds) {
    if (known == id) return rule;
  }
  return std::nullopt;
}

const std::vector<Rule>& all_rules() {
  static const std::vector<Rule> rules = [] {
    std::vector<Rule> out;
    out.reserve(kRuleIds.size());
    for (const auto& [rule, id] : kRuleIds) out.push_back(rule);
    return out;
  }();
  return rules;
}

std::string_view rule_rationale(Rule rule) noexcept {
  for (const auto& [r, text] : kRuleRationales) {
    if (r == rule) return text;
  }
  return "";
}

FileContext classify_path(std::string_view relative_path) {
  std::string path(relative_path);
  std::replace(path.begin(), path.end(), '\\', '/');
  while (path.rfind("./", 0) == 0) path.erase(0, 2);

  const auto has_prefix = [&path](std::string_view prefix) {
    return path.rfind(prefix, 0) == 0;
  };
  const auto ends_with = [&path](std::string_view suffix) {
    return path.size() >= suffix.size() &&
           path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
               0;
  };

  FileContext ctx;
  ctx.is_header = ends_with(".hpp") || ends_with(".h") || ends_with(".hh") ||
                  ends_with(".hxx");
  ctx.in_src = has_prefix("src/");
  ctx.in_bench = has_prefix("bench/");
  ctx.in_tests = has_prefix("tests/");
  ctx.in_tools = has_prefix("tools/");
  ctx.is_random_impl = has_prefix("src/common/random.");
  ctx.is_error_impl = has_prefix("src/common/error.");
  ctx.is_fp_helper = has_prefix("src/common/fp.");
  ctx.is_obs_clock = has_prefix("src/obs/clock.");
  ctx.in_cache = has_prefix("src/cache/");
  ctx.is_cache_io_impl = has_prefix("src/cache/atomic_io.");
  return ctx;
}

std::vector<std::string> strip_comments_and_strings(std::string_view text) {
  return render_stripped(lex(text), text);
}

std::vector<Finding> apply_suppressions(std::string_view content,
                                        std::vector<Finding> findings) {
  const Suppressions suppressions = parse_suppressions(lex(content));
  findings.erase(std::remove_if(findings.begin(), findings.end(),
                                [&](const Finding& f) {
                                  return suppressions.allows(f.line, f.rule);
                                }),
                 findings.end());
  return findings;
}

std::vector<Finding> lint_source(std::string_view file_label,
                                 std::string_view content,
                                 const FileContext& ctx) {
  const TokenStream ts = lex(content);
  const std::vector<std::string> lines = render_stripped(ts, content);
  const Suppressions suppressions = parse_suppressions(ts);
  const auto includes = parse_includes(ts);

  std::vector<Finding> findings;
  const auto report = [&](int line, Rule rule, std::string message) {
    if (suppressions.allows(line, rule)) return;
    findings.push_back(
        Finding{std::string(file_label), line, rule, std::move(message)});
  };

  // ---- determinism -------------------------------------------------------
  if (!ctx.is_random_impl && !ctx.in_bench) {
    for (std::size_t idx = 0; idx < lines.size(); ++idx) {
      const std::string& line = lines[idx];
      const int line_no = static_cast<int>(idx) + 1;
      bool flagged = false;
      for (const auto& banned : kDeterminismTokens) {
        if (has_token(line, banned.token)) {
          report(line_no, Rule::kDeterminism,
                 "banned nondeterminism source '" + std::string(banned.token) +
                     "': " + std::string(banned.advice));
          flagged = true;
          break;  // one diagnostic per line is enough
        }
      }
      if (!flagged && !ctx.is_obs_clock &&
          has_token(line, kSteadyClockToken.token)) {
        report(line_no, Rule::kDeterminism,
               "banned nondeterminism source '" +
                   std::string(kSteadyClockToken.token) +
                   "': " + std::string(kSteadyClockToken.advice));
      }
      for (std::string_view token : kMt19937Tokens) {
        if (has_token(line, token)) {
          report(line_no, Rule::kDeterminism,
                 "direct std::mt19937 construction: <random> engine output "
                 "is implementation-defined; use lazyckpt::Rng "
                 "(common/random.hpp)");
          break;
        }
      }
    }
  }

  // ---- determinism: one level of call indirection into parallel workers --
  if (!ctx.is_random_impl && !ctx.in_bench) {
    // A worker lambda that calls a file-local helper whose body reads a
    // banned source is as nondeterministic as the direct read; the direct
    // pass flags the definition, this pass flags the dispatch.  Helpers
    // whose offending line carries a suppression are trusted and skipped.
    struct Taint {
      std::string source;
      int def_line = 0;
    };
    std::map<std::string, Taint> tainted;
    for (const LocalFunction& fn : find_local_functions(ts)) {
      if (tainted.count(fn.name) != 0) continue;
      const int first = ts.tokens[fn.body_first].line;
      const int last = ts.tokens[fn.body_last].line;
      for (int ln = first;
           ln <= last && ln <= static_cast<int>(lines.size()); ++ln) {
        const std::string_view hit =
            banned_source_on_line(lines[ln - 1], ctx);
        if (hit.empty()) continue;
        if (suppressions.allows(ln, Rule::kDeterminism)) continue;
        tainted[fn.name] = Taint{std::string(hit), fn.line};
        break;
      }
    }
    if (!tainted.empty()) {
      std::vector<std::size_t> code;
      for (std::size_t i = 0; i < ts.tokens.size(); ++i) {
        if (ts.tokens[i].kind != TokenKind::kComment) code.push_back(i);
      }
      const auto sp = [&](std::size_t ci) -> std::string_view {
        return ci < code.size()
                   ? std::string_view(ts.tokens[code[ci]].spelling)
                   : std::string_view();
      };
      std::set<int> seen_lines;
      for (std::size_t ci = 0; ci + 1 < code.size(); ++ci) {
        const Token& t = ts.tokens[code[ci]];
        if (t.kind != TokenKind::kIdentifier ||
            (t.spelling != "parallel_for" && t.spelling != "parallel_map") ||
            sp(ci + 1) != "(") {
          continue;
        }
        int depth = 0;
        std::size_t j = ci + 1;
        for (; j < code.size(); ++j) {
          if (sp(j) == "(") ++depth;
          if (sp(j) == ")" && --depth == 0) break;
          const Token& inner = ts.tokens[code[j]];
          if (inner.kind != TokenKind::kIdentifier ||
              sp(j + 1) != "(") {
            continue;
          }
          const auto hit = tainted.find(inner.spelling);
          if (hit == tainted.end()) continue;
          if (!seen_lines.insert(inner.line).second) continue;
          report(inner.line, Rule::kDeterminism,
                 "banned nondeterminism source '" + hit->second.source +
                     "' reached inside a parallel_for/parallel_map worker "
                     "via local function '" + hit->first + "' (defined at "
                     "line " + std::to_string(hit->second.def_line) +
                     "); hoist the read out of the parallel region");
        }
        ci = j;
      }
    }
  }

  // ---- unordered-output-order -------------------------------------------
  {
    bool writes_output = false;
    for (const auto& [line_no, inc] : includes) {
      (void)line_no;
      if (inc.find("csv.hpp") != std::string::npos ||
          inc.find("table.hpp") != std::string::npos ||
          inc == "<fstream>" || inc == "<iostream>" || inc == "<ostream>" ||
          inc == "<cstdio>") {
        writes_output = true;
      }
    }
    std::set<std::string> unordered_names;
    // Declarations are collected from the whole file joined with spaces so
    // a declaration whose template arguments or name wrap onto the next
    // line is tracked like a single-line one.
    std::string joined;
    for (const std::string& line : lines) {
      if (!writes_output &&
          (has_token(line, "ofstream") || has_token(line, "std::cout") ||
           has_token(line, "printf(") || has_token(line, "fprintf("))) {
        writes_output = true;
      }
      joined += line;
      joined += ' ';
    }
    collect_unordered_names(joined, &unordered_names);
    if (writes_output && !unordered_names.empty()) {
      for (std::size_t idx = 0; idx < lines.size(); ++idx) {
        const std::string& line = lines[idx];
        const int line_no = static_cast<int>(idx) + 1;
        std::string offender;
        // Range-for whose range expression names an unordered container.
        const std::size_t for_pos = find_token(line, "for");
        if (for_pos != std::string::npos) {
          for (std::size_t colon = line.find(':', for_pos);
               colon != std::string::npos; colon = line.find(':', colon + 2)) {
            const bool double_colon =
                (colon + 1 < line.size() && line[colon + 1] == ':') ||
                (colon > 0 && line[colon - 1] == ':');
            if (double_colon) continue;
            const std::string_view range_expr =
                std::string_view(line).substr(colon + 1);
            for (const std::string& name : unordered_names) {
              if (has_token(range_expr, name)) offender = name;
            }
            break;
          }
        }
        if (offender.empty()) {
          for (const std::string& name : unordered_names) {
            for (std::string_view method : {".begin(", ".cbegin(", ".rbegin("}) {
              std::string call = name + std::string(method);
              if (line.find(call) != std::string::npos) offender = name;
            }
          }
        }
        if (!offender.empty()) {
          report(line_no, Rule::kUnorderedOutputOrder,
                 "iteration over unordered container '" + offender +
                     "' in a translation unit that writes output: hash "
                     "order is unspecified and breaks byte-identical "
                     "results; copy to a sorted vector or use std::map");
        }
      }
    }
  }

  // ---- float-compare -----------------------------------------------------
  std::set<int> float_literal_lines;  // lines the literal rule claimed
  if (!ctx.in_tests && !ctx.is_fp_helper) {
    for (std::size_t idx = 0; idx < lines.size(); ++idx) {
      const std::string& line = lines[idx];
      const int line_no = static_cast<int>(idx) + 1;
      for (std::size_t pos = 0; pos < line.size(); ++pos) {
        const bool eq = line.compare(pos, 2, "==") == 0;
        const bool ne = line.compare(pos, 2, "!=") == 0;
        if (!eq && !ne) continue;
        const std::size_t op_end = pos + 2;
        // Not part of a longer operator (<=, >=, +=, ==&co already sliced
        // off by the two-char window; reject compound forms around it).
        if (op_end < line.size() && line[op_end] == '=') {
          pos = op_end;
          continue;
        }
        if (eq && pos > 0 &&
            std::string_view("=!<>+-*/%&|^").find(line[pos - 1]) !=
                std::string_view::npos) {
          ++pos;
          continue;
        }
        // operator==/operator!= declarations are fine.
        const std::string_view before = std::string_view(line).substr(0, pos);
        if (before.size() >= 8 &&
            before.substr(before.size() - 8) == "operator") {
          ++pos;
          continue;
        }
        const std::string_view lhs = left_operand(line, pos);
        const std::string_view rhs = right_operand(line, op_end);
        if (contains_float_literal(lhs) || contains_float_literal(rhs)) {
          float_literal_lines.insert(line_no);
          report(line_no, Rule::kFloatCompare,
                 std::string("raw ") + (eq ? "==" : "!=") +
                     " against a floating-point expression: use "
                     "lazyckpt::fp::exact_eq / fp::is_zero (common/fp.hpp) "
                     "if exact comparison is the contract");
          break;  // one diagnostic per line
        }
        pos = op_end - 1;
      }
    }
  }

  // ---- float-compare-var -------------------------------------------------
  if (!ctx.in_tests && !ctx.is_fp_helper) {
    // The literal rule above cannot see `a == b` with `double a, b`; the
    // symbol table can.  Lines the literal rule already claimed are
    // skipped so a comparison never yields two findings.
    const FloatVarScan fv = scan_float_vars(ts);
    std::vector<std::size_t> code;
    for (std::size_t i = 0; i < ts.tokens.size(); ++i) {
      if (ts.tokens[i].kind != TokenKind::kComment) code.push_back(i);
    }
    const auto sp = [&](std::size_t ci) -> std::string_view {
      return ci < code.size()
                 ? std::string_view(ts.tokens[code[ci]].spelling)
                 : std::string_view();
    };
    // Tokens an operand expression may span; anything else ends the
    // operand (mirrors the character-level boundary set of the literal
    // rule, which keeps `.`, `->`, `::`, `[]` and arithmetic inside).
    const auto operand_member = [&](std::size_t ci) {
      const Token& t = ts.tokens[code[ci]];
      if (t.kind == TokenKind::kIdentifier && !is_keyword(t.spelling)) {
        return true;
      }
      if (t.kind == TokenKind::kNumber) return true;
      if (t.kind != TokenKind::kPunct) return false;
      const std::string_view s = t.spelling;
      return s == "." || s == "->" || s == "::" || s == "[" || s == "]" ||
             s == "*" || s == "+" || s == "-" || s == "/" || s == "%";
    };
    // A float-variable use inside an operand: not a member (`x.alpha`),
    // not qualified (`ns::alpha`), not a call (`alpha(`).  Member
    // accesses get their own check against the file's record member
    // table, so `a.x == b.x` with `struct P { double x; }` is caught.
    const auto float_var_at = [&](std::size_t ci) {
      if (fv.is_float_var_use[code[ci]] == 0) return false;
      if (ci > 0 && (sp(ci - 1) == "." || sp(ci - 1) == "->" ||
                     sp(ci - 1) == "::")) {
        return false;
      }
      return sp(ci + 1) != "(";
    };
    const auto float_member_at = [&](std::size_t ci) {
      return fv.is_float_member_use[code[ci]] != 0;
    };
    std::set<int> seen_lines;
    for (std::size_t ci = 1; ci + 1 < code.size(); ++ci) {
      const Token& op = ts.tokens[code[ci]];
      if (op.kind != TokenKind::kPunct || op.in_pp ||
          (op.spelling != "==" && op.spelling != "!=")) {
        continue;
      }
      if (sp(ci - 1) == "operator") continue;
      if (seen_lines.count(op.line) != 0 ||
          float_literal_lines.count(op.line) != 0) {
        continue;
      }
      std::string offender;
      for (std::size_t k = ci; k-- > 0 && operand_member(k);) {
        if (float_var_at(k) || float_member_at(k)) {
          offender = std::string(sp(k));
          break;
        }
      }
      if (offender.empty()) {
        for (std::size_t k = ci + 1; k < code.size() && operand_member(k);
             ++k) {
          if (float_var_at(k) || float_member_at(k)) {
            offender = std::string(sp(k));
            break;
          }
        }
      }
      if (offender.empty()) continue;
      seen_lines.insert(op.line);
      report(op.line, Rule::kFloatCompareVar,
             "raw " + op.spelling + " between floating-point variables: '" +
                 offender +
                 "' has floating type; use lazyckpt::fp::exact_eq / "
                 "fp::exact_ne (common/fp.hpp) if exact comparison is the "
                 "contract");
    }
  }

  // ---- header-hygiene ----------------------------------------------------
  if (ctx.is_header) {
    bool has_pragma_once = false;
    for (const std::string& line : lines) {
      const std::size_t hash = line.find_first_not_of(" \t");
      if (hash != std::string::npos && line[hash] == '#' &&
          line.find("pragma", hash) != std::string::npos &&
          line.find("once", hash) != std::string::npos) {
        has_pragma_once = true;
        break;
      }
    }
    if (!has_pragma_once) {
      // Accept a classic include guard: the first two preprocessor lines
      // are #ifndef X / #define X.
      std::vector<std::string_view> pp;
      for (const std::string& line : lines) {
        const std::size_t first = line.find_first_not_of(" \t");
        if (first == std::string::npos) continue;
        if (line[first] == '#') pp.push_back(line);
        if (pp.size() == 2) break;
      }
      const bool guarded =
          pp.size() == 2 && pp[0].find("#ifndef") != std::string_view::npos &&
          pp[1].find("#define") != std::string_view::npos;
      if (!guarded) {
        report(1, Rule::kHeaderHygiene,
               "header lacks #pragma once (or an #ifndef/#define guard) at "
               "the top");
      }
    }
    for (std::size_t idx = 0; idx < lines.size(); ++idx) {
      if (has_token(lines[idx], "using namespace")) {
        report(static_cast<int>(idx) + 1, Rule::kHeaderHygiene,
               "`using namespace` in a header leaks into every includer; "
               "qualify names instead");
      }
    }
    if (ctx.in_src) {
      for (const auto& [line_no, inc] : includes) {
        if (inc == "<iostream>") {
          report(line_no, Rule::kHeaderHygiene,
                 "<iostream> in a library header drags in static iostream "
                 "initializers for every includer; include it in the .cpp "
                 "or use <ostream>/<iosfwd>");
        }
      }
    }
  }

  // ---- error-discipline --------------------------------------------------
  if (ctx.in_src && !ctx.is_error_impl) {
    // Every standard exception type counts as naked — the hierarchy's
    // value is that callers can catch lazyckpt::Error and be done.
    constexpr std::array<std::string_view, 11> kNakedStdThrows = {
        "std::exception",       "std::runtime_error", "std::logic_error",
        "std::invalid_argument", "std::out_of_range",  "std::length_error",
        "std::domain_error",    "std::range_error",   "std::overflow_error",
        "std::underflow_error", "std::system_error",
    };
    // Process-terminating calls: library code never gets to decide that.
    constexpr std::array<std::string_view, 4> kTerminatorCalls = {
        "abort(", "exit(", "quick_exit(", "_Exit("};
    for (std::size_t idx = 0; idx < lines.size(); ++idx) {
      const std::string& line = lines[idx];
      const int line_no = static_cast<int>(idx) + 1;
      const std::size_t throw_pos = find_token(line, "throw");
      if (throw_pos != std::string_view::npos) {
        for (std::string_view type : kNakedStdThrows) {
          if (find_token(line, type, throw_pos) != std::string_view::npos) {
            report(line_no, Rule::kErrorDiscipline,
                   "naked `throw " + std::string(type) +
                       "` in src/: throw a lazyckpt::Error subclass or use "
                       "the require_* helpers in common/error.hpp");
            break;
          }
        }
      }
      for (std::string_view call : kTerminatorCalls) {
        if (find_token(line, call) != std::string_view::npos) {
          report(line_no, Rule::kErrorDiscipline,
                 "process-terminating `" +
                     std::string(call.substr(0, call.size() - 1)) +
                     "()` call in src/: throw a lazyckpt::Error subclass "
                     "instead and let the binary decide");
          break;
        }
      }
    }
  }

  // ---- rng-split-order ---------------------------------------------------
  {
    // Paren-depth tracking across lines: from a parallel_for(/parallel_map(
    // call until its argument list closes, any `.split(` sits inside the
    // worker lambda (or an argument expression evaluated per task) —
    // either way the split order would depend on thread scheduling.
    int region_depth = 0;  // 0 = outside any parallel dispatch call
    for (std::size_t idx = 0; idx < lines.size(); ++idx) {
      const std::string& line = lines[idx];
      const int line_no = static_cast<int>(idx) + 1;
      std::size_t pos = 0;
      bool flagged = false;
      while (pos < line.size()) {
        if (region_depth == 0) {
          std::size_t call = std::string_view::npos;
          for (std::string_view token : {"parallel_for", "parallel_map"}) {
            const std::size_t at = find_token(line, token, pos);
            if (at < call) call = at;
          }
          if (call == std::string_view::npos) break;
          const std::size_t open = line.find('(', call);
          if (open == std::string::npos) break;  // a bare mention, not a call
          region_depth = 1;
          pos = open + 1;
          continue;
        }
        if (!flagged && line.compare(pos, 7, ".split(") == 0) {
          report(line_no, Rule::kRngSplitOrder,
                 ".split() inside a parallel_for/parallel_map worker: "
                 "pre-split the streams from the master in index order "
                 "before dispatch so stream assignment cannot depend on "
                 "thread scheduling");
          flagged = true;  // one diagnostic per line
        }
        const char c = line[pos];
        if (c == '(') ++region_depth;
        if (c == ')') --region_depth;
        ++pos;
      }
    }
  }

  // ---- cache-io-discipline -----------------------------------------------
  if (ctx.in_cache && !ctx.is_cache_io_impl) {
    // Write-capable calls only: reads (ifstream, fread) are naturally
    // torn-proof because entries are published atomically.  Bare
    // "fstream" stays unflagged so `#include <fstream>` in a reader
    // translation unit does not trip the rule; std::fstream opens
    // read-write and is named explicitly.
    constexpr std::array<std::string_view, 7> kRawWriteTokens = {
        "fopen(",  "freopen(", "ofstream", "std::fstream",
        "fwrite(", "fputs(",   "fprintf(",
    };
    for (std::size_t idx = 0; idx < lines.size(); ++idx) {
      const std::string& line = lines[idx];
      const int line_no = static_cast<int>(idx) + 1;
      for (std::string_view token : kRawWriteTokens) {
        if (has_token(line, token)) {
          report(line_no, Rule::kCacheIoDiscipline,
                 "raw file-writing call '" +
                     std::string(token.back() == '(' ? token.substr(
                                     0, token.size() - 1)
                                                     : token) +
                     "' in src/cache/: publish entries through "
                     "cache::atomic_write_file (atomic_io.hpp) so readers "
                     "can never observe a torn entry");
          break;  // one diagnostic per line
        }
      }
    }
  }

  // ---- metric-name-style -------------------------------------------------
  if (ctx.in_src) {
    // Registration sites take the name as their first argument:
    // obs::metrics().counter("cache.hits"), obs::instant("cr.x"),
    // TraceSpan span("sim.block", ...).  The check walks the raw token
    // stream — the stripped lines blank literal contents, which is
    // exactly the text this rule needs to read.  Non-literal names
    // (variables, concatenations) are skipped: they cannot be judged
    // statically.
    constexpr std::array<std::string_view, 9> kRegistrars = {
        "counter",    "gauge",      "histogram", "instant", "record_begin",
        "record_end", "flow_begin", "flow_step", "flow_end",
    };
    constexpr std::array<std::string_view, 2> kSpanTypes = {"TraceSpan",
                                                            "ScopedFlow"};
    // Lowercase dot-separated: at least two [a-z][a-z0-9_]* segments.
    const auto name_ok = [](std::string_view name) {
      std::size_t segments = 0;
      std::size_t pos = 0;
      while (pos <= name.size()) {
        const std::size_t dot = name.find('.', pos);
        const std::string_view segment = name.substr(
            pos, dot == std::string_view::npos ? name.size() - pos
                                               : dot - pos);
        if (segment.empty()) return false;
        if (segment.front() < 'a' || segment.front() > 'z') return false;
        for (const char c : segment) {
          const bool valid = (c >= 'a' && c <= 'z') ||
                             (c >= '0' && c <= '9') || c == '_';
          if (!valid) return false;
        }
        ++segments;
        if (dot == std::string_view::npos) break;
        pos = dot + 1;
      }
      return segments >= 2;
    };
    std::vector<std::size_t> code;
    for (std::size_t i = 0; i < ts.tokens.size(); ++i) {
      if (ts.tokens[i].kind != TokenKind::kComment) code.push_back(i);
    }
    const auto tok = [&](std::size_t ci) -> const Token* {
      return ci < code.size() ? &ts.tokens[code[ci]] : nullptr;
    };
    for (std::size_t ci = 0; ci < code.size(); ++ci) {
      const Token& t = ts.tokens[code[ci]];
      if (t.kind != TokenKind::kIdentifier || t.in_pp) continue;
      const bool registrar =
          std::find(kRegistrars.begin(), kRegistrars.end(), t.spelling) !=
          kRegistrars.end();
      const bool span_type =
          std::find(kSpanTypes.begin(), kSpanTypes.end(), t.spelling) !=
          kSpanTypes.end();
      if (!registrar && !span_type) continue;
      std::size_t next = ci + 1;
      if (span_type) {
        // The declaration form `TraceSpan span(...)`: skip the variable.
        if (const Token* n = tok(next);
            n != nullptr && n->kind == TokenKind::kIdentifier) {
          ++next;
        }
      }
      const Token* paren = tok(next);
      if (paren == nullptr || paren->kind != TokenKind::kPunct ||
          paren->spelling != "(") {
        continue;
      }
      const Token* arg = tok(next + 1);
      if (arg == nullptr || arg->kind != TokenKind::kString) continue;
      const std::size_t open = arg->spelling.find('"');
      const std::size_t close = arg->spelling.rfind('"');
      if (open == std::string::npos || close <= open) continue;
      const std::string name =
          arg->spelling.substr(open + 1, close - open - 1);
      if (name_ok(name)) continue;
      report(t.line, Rule::kMetricNameStyle,
             "metric/span name \"" + name +
                 "\" is not lowercase dot-separated: the obs registry, run "
                 "reports, and trace files share this "
                 "namespace (want at least two [a-z][a-z0-9_]* segments, "
                 "e.g. \"cache.hits\")");
    }
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) { return a.line < b.line; });
  return findings;
}

void sort_findings(std::vector<Finding>* findings) {
  std::sort(findings->begin(), findings->end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              const std::string_view ra = rule_id(a.rule);
              const std::string_view rb = rule_id(b.rule);
              if (ra != rb) return ra < rb;
              return a.message < b.message;
            });
}

std::string format_finding(const Finding& finding) {
  return finding.file + ":" + std::to_string(finding.line) + ": error: [" +
         std::string(rule_id(finding.rule)) + "] " + finding.message;
}

std::string render_findings_json(std::vector<Finding> findings) {
  sort_findings(&findings);
  std::string out = "{\n  \"count\": " + std::to_string(findings.size()) +
                    ",\n  \"findings\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"file\": \"";
    out += json::escape(f.file);
    out += "\", \"line\": " + std::to_string(f.line) + ", \"rule\": \"" +
           std::string(rule_id(f.rule)) + "\", \"message\": \"";
    out += json::escape(f.message);
    out += "\"}";
  }
  out += findings.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

}  // namespace lazyckpt::lint
