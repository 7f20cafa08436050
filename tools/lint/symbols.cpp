#include "symbols.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <set>

namespace lazyckpt::lint {

namespace {

/// Floating type names the table tracks.  `real_t` is included so a future
/// precision-switch typedef is covered from day one.
bool is_float_type_name(std::string_view s) {
  return s == "float" || s == "double" || s == "real_t";
}

/// Non-floating type names that still *declare*: tracked with
/// is_float = false so an inner `int x` correctly shadows an outer
/// `double x` instead of inheriting its type.
bool is_nonfloat_type_name(std::string_view s) {
  constexpr std::array<std::string_view, 22> kNames = {
      "int",      "long",     "short",    "unsigned", "signed",
      "bool",     "char",     "size_t",   "ptrdiff_t", "int8_t",
      "int16_t",  "int32_t",  "int64_t",  "uint8_t",  "uint16_t",
      "uint32_t", "uint64_t", "intptr_t", "uintptr_t", "wchar_t",
      "char16_t", "char32_t"};
  return std::find(kNames.begin(), kNames.end(), s) != kNames.end();
}

/// Keywords that can sit between a type name and the declared identifier
/// without changing what is being declared.
bool is_decl_filler(std::string_view s) {
  return s == "const" || s == "volatile" || s == "constexpr" ||
         s == "constinit" || s == "static" || s == "inline" ||
         s == "thread_local" || s == "mutable";
}

struct Scope {
  std::map<std::string, bool> vars;  // name -> is_float
  bool is_record = false;  // a struct/class body: declarations are members
};

/// Pooled member-name verdicts across every record in the file.
enum MemberKind : int {
  kMemberNonFloat = 0,
  kMemberFloat = 1,
  kMemberAmbiguous = 2,  // floating in one record, not in another
};

}  // namespace

FloatVarScan scan_float_vars(const TokenStream& ts) {
  // Work over code tokens only (comments carry no scope information).
  std::vector<std::size_t> code;
  code.reserve(ts.tokens.size());
  for (std::size_t i = 0; i < ts.tokens.size(); ++i) {
    if (ts.tokens[i].kind != TokenKind::kComment) code.push_back(i);
  }
  const auto tok = [&](std::size_t ci) -> const Token& {
    return ts.tokens[code[ci]];
  };
  const auto spelling = [&](std::size_t ci) -> std::string_view {
    return ci < code.size() ? std::string_view(tok(ci).spelling)
                            : std::string_view();
  };

  FloatVarScan out;
  out.is_float_var_use.assign(ts.tokens.size(), 0);
  out.is_float_member_use.assign(ts.tokens.size(), 0);

  std::vector<Scope> scopes(1);  // file scope
  // Declarations seen inside the current parenthesized region (function
  // parameters, for-init, if-init) — injected into the next opened brace
  // scope, which also covers lambda bodies.
  std::vector<std::pair<std::string, bool>> pending_params;
  int paren_depth = 0;
  // A `struct`/`class` head was seen: the next brace scope holds member
  // declarations.  Cleared by '(' or ';' so `template <class T> void f()`
  // and forward declarations do not mark a function body as a record.
  bool pending_record = false;
  std::map<std::string, int> member_kinds;  // name -> MemberKind

  const auto lookup = [&](std::string_view name) -> const bool* {
    for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
      const auto found = it->vars.find(std::string(name));
      if (found != it->vars.end()) return &found->second;
    }
    return nullptr;
  };
  const auto declare = [&](std::string_view name, bool is_float, int line) {
    if (paren_depth > 0) {
      pending_params.emplace_back(std::string(name), is_float);
    } else {
      scopes.back().vars[std::string(name)] = is_float;
      if (scopes.back().is_record) {
        const int kind = is_float ? kMemberFloat : kMemberNonFloat;
        const auto [it, inserted] =
            member_kinds.emplace(std::string(name), kind);
        if (!inserted && it->second != kind) it->second = kMemberAmbiguous;
        if (is_float) {
          out.member_decls.push_back(
              FloatVarDecl{std::string(name), line,
                           static_cast<int>(scopes.size()) - 1});
        }
      }
    }
    if (is_float) {
      out.decls.push_back(FloatVarDecl{std::string(name), line,
                                       static_cast<int>(scopes.size()) - 1});
    }
  };

  // Identifier tokens consumed as the declared name itself — never uses.
  std::set<std::size_t> declared_name_tokens;

  /// Scan an initializer starting at `from` for visible floating-ness:
  /// a float literal, a known float variable, or an explicit float type
  /// token (a cast).  Stops at ';' at depth 0 or an unbalanced closer and
  /// returns the stop index via `stop`.
  const auto initializer_is_float = [&](std::size_t from,
                                        std::size_t* stop) {
    bool is_float = false;
    int depth = 0;
    std::size_t k = from;
    for (; k < code.size(); ++k) {
      const std::string_view s = spelling(k);
      if (s == "(" || s == "[" || s == "{") ++depth;
      if (s == ")" || s == "]" || s == "}") {
        if (depth == 0) break;
        --depth;
      }
      if ((s == ";" || s == ",") && depth == 0) break;
      const Token& ik = tok(k);
      if (ik.kind == TokenKind::kNumber && ik.is_float) is_float = true;
      if (ik.kind == TokenKind::kIdentifier) {
        if (is_float_type_name(s)) is_float = true;
        const bool* entry = lookup(s);
        if (entry != nullptr && *entry) is_float = true;
      }
    }
    *stop = k;
    return is_float;
  };

  /// When the initializer [from, stop) is exactly `static_cast<T>(...)`,
  /// its type is T whatever the operand: returns whether T is floating
  /// (and not a pointer).  Returns nullopt for any other initializer.
  const auto static_cast_is_float =
      [&](std::size_t from, std::size_t stop) -> std::optional<bool> {
    if (spelling(from) != "static_cast" || spelling(from + 1) != "<") {
      return std::nullopt;
    }
    bool float_seen = false;
    bool pointer = false;
    int angle = 1;
    std::size_t k = from + 2;
    for (; k < stop && angle > 0; ++k) {
      const std::string_view s = spelling(k);
      if (s == "<") ++angle;
      if (s == ">") --angle;
      if (s == ">>") angle -= 2;
      if (angle == 1 && s == "*") pointer = true;
      if (angle == 1 && is_float_type_name(s)) float_seen = true;
    }
    if (angle != 0 || spelling(k) != "(") return std::nullopt;
    int depth = 0;
    for (; k < stop; ++k) {
      if (spelling(k) == "(") ++depth;
      if (spelling(k) == ")" && --depth == 0) break;
    }
    if (k + 1 != stop) return std::nullopt;  // the cast is only a part
    return float_seen && !pointer;
  };

  for (std::size_t ci = 0; ci < code.size(); ++ci) {
    const Token& t = tok(ci);
    if (t.kind == TokenKind::kPunct) {
      if (t.spelling == "{") {
        scopes.emplace_back();
        scopes.back().is_record = pending_record;
        pending_record = false;
        for (const auto& [name, is_float] : pending_params) {
          scopes.back().vars[name] = is_float;
        }
        pending_params.clear();
      } else if (t.spelling == "}") {
        if (scopes.size() > 1) scopes.pop_back();
      } else if (t.spelling == "(") {
        ++paren_depth;
        pending_record = false;
      } else if (t.spelling == ")") {
        if (paren_depth > 0) --paren_depth;
      } else if (t.spelling == ";" && paren_depth == 0) {
        // A declaration without a body (`double f(double a);`) never
        // opens a scope — drop its parameters.  A ';' also ends a record
        // forward declaration (`struct S;`).
        pending_params.clear();
        pending_record = false;
      }
      continue;
    }
    if (t.kind != TokenKind::kIdentifier || t.in_pp) continue;

    if (t.spelling == "struct" || t.spelling == "class") {
      pending_record = true;
      continue;
    }

    // `auto` declarators: structured bindings and plain `auto name = ...`.
    // (`const auto ...` reaches here at the `auto` token itself.)
    if (t.spelling == "auto") {
      std::size_t j = ci + 1;
      while (j < code.size() && (spelling(j) == "const" ||
                                 spelling(j) == "&" || spelling(j) == "&&" ||
                                 spelling(j) == "*")) {
        ++j;
      }
      if (spelling(j) == "[") {
        // Structured binding.  The bound names are registered as
        // *non*-floating: a binding unpacks heterogeneous members (the
        // canonical `auto [ptr, ec] = std::from_chars(..., value)` mixes a
        // pointer and an error code even when `value` is a double), so
        // inferring float-ness from the initializer indicts the wrong
        // names.  Registering them non-float still shadows any outer
        // floating variable of the same name.
        std::vector<std::size_t> names;
        ++j;
        while (j < code.size() && spelling(j) != "]") {
          if (tok(j).kind == TokenKind::kIdentifier) names.push_back(j);
          ++j;
        }
        std::size_t stop = j;
        initializer_is_float(j + 1, &stop);  // advance past the initializer
        for (const std::size_t n : names) {
          declared_name_tokens.insert(code[n]);
          declare(tok(n).spelling, false, tok(n).line);
        }
        ci = stop;
        continue;
      }
      if (j < code.size() && tok(j).kind == TokenKind::kIdentifier &&
          !is_keyword(tok(j).spelling) && spelling(j + 1) == "=" &&
          spelling(j + 2) != "[") {  // `= [` binds a lambda, not a value
        std::size_t stop = j;
        bool is_float = initializer_is_float(j + 2, &stop);
        if (const auto cast = static_cast_is_float(j + 2, stop)) {
          is_float = *cast;
        }
        declared_name_tokens.insert(code[j]);
        declare(tok(j).spelling, is_float, tok(j).line);
        ci = stop;
      }
      continue;
    }

    // Type-led declaration: TYPE [filler/&/*] name [, name2 ...].  The
    // walked span may mix specifiers and type keywords (`const long
    // double`); a '*' makes the declarator a pointer — tracked as
    // non-float so `p == q` on pointers stays silent.
    if (is_float_type_name(t.spelling) ||
        is_nonfloat_type_name(t.spelling)) {
      bool float_seen = is_float_type_name(t.spelling);
      bool pointer = false;
      std::size_t j = ci + 1;
      while (j < code.size() &&
             (is_decl_filler(spelling(j)) || spelling(j) == "&" ||
              spelling(j) == "&&" || spelling(j) == "*" ||
              is_float_type_name(spelling(j)) ||
              is_nonfloat_type_name(spelling(j)) ||
              is_type_keyword(spelling(j)))) {
        if (spelling(j) == "*") pointer = true;
        if (is_float_type_name(spelling(j))) float_seen = true;
        ++j;
      }
      if (j < code.size() && tok(j).kind == TokenKind::kIdentifier &&
          !is_keyword(tok(j).spelling)) {
        // Only these continuations declare a variable; `name(` would be a
        // function declaration (or paren-init, which this repo's style
        // does not use) and `name ::` a qualified definition.
        const std::string_view after = spelling(j + 1);
        if (after == "=" || after == ";" || after == "," ||
            after == ")" || after == "{" || after == "[") {
          declare(tok(j).spelling, float_seen && !pointer, tok(j).line);
          declared_name_tokens.insert(code[j]);
          // Walk `, name` continuations at this nesting level:
          // `double a = 1, b = 2;`.
          std::size_t k = j + 1;
          int depth = 0;
          while (k < code.size()) {
            const std::string_view s = spelling(k);
            if (s == "(" || s == "[" || s == "{") ++depth;
            if (s == ")" || s == "]" || s == "}") {
              if (depth == 0) break;
              --depth;
            }
            if (s == ";" && depth == 0) break;
            if (s == "," && depth == 0) {
              std::size_t n = k + 1;
              bool ptr2 = false;
              while (n < code.size() &&
                     (spelling(n) == "&" || spelling(n) == "&&" ||
                      spelling(n) == "*" ||
                      is_decl_filler(spelling(n)))) {
                if (spelling(n) == "*") ptr2 = true;
                ++n;
              }
              if (n < code.size() &&
                  tok(n).kind == TokenKind::kIdentifier &&
                  !is_keyword(tok(n).spelling) &&
                  (spelling(n + 1) == "=" || spelling(n + 1) == ";" ||
                   spelling(n + 1) == "," || spelling(n + 1) == ")" ||
                   spelling(n + 1) == "[")) {
                declare(tok(n).spelling, float_seen && !ptr2,
                        tok(n).line);
                declared_name_tokens.insert(code[n]);
                k = n;
              } else {
                break;  // `, 3.0` — an argument list, not declarators
              }
            }
            ++k;
          }
          ci = j;  // resume after the first declared name
        }
      }
      continue;
    }

    if (is_keyword(t.spelling)) continue;

    // A plain identifier: mark if it is a use of a float variable.
    if (declared_name_tokens.count(code[ci]) != 0) continue;
    const bool* entry = lookup(t.spelling);
    if (entry != nullptr && *entry) out.is_float_var_use[code[ci]] = 1;
  }

  // Second pass: member accesses.  The pooled verdicts are only complete
  // once every record has been scanned, so `a.x` before the definition of
  // the struct declaring `x` still resolves.
  for (std::size_t ci = 1; ci < code.size(); ++ci) {
    const Token& t = tok(ci);
    if (t.kind != TokenKind::kIdentifier || t.in_pp ||
        is_keyword(t.spelling)) {
      continue;
    }
    if (spelling(ci - 1) != "." && spelling(ci - 1) != "->") continue;
    if (spelling(ci + 1) == "(") continue;  // method call, not a member
    const auto it = member_kinds.find(t.spelling);
    if (it != member_kinds.end() && it->second == kMemberFloat) {
      out.is_float_member_use[code[ci]] = 1;
    }
  }

  return out;
}

std::vector<LocalFunction> find_local_functions(const TokenStream& ts) {
  std::vector<std::size_t> code;
  code.reserve(ts.tokens.size());
  for (std::size_t i = 0; i < ts.tokens.size(); ++i) {
    if (ts.tokens[i].kind != TokenKind::kComment) code.push_back(i);
  }
  const auto tok = [&](std::size_t ci) -> const Token& {
    return ts.tokens[code[ci]];
  };
  const auto spelling = [&](std::size_t ci) -> std::string_view {
    return ci < code.size() ? std::string_view(tok(ci).spelling)
                            : std::string_view();
  };
  constexpr std::size_t npos = static_cast<std::size_t>(-1);
  /// Index (in `code`) of the token matching the opener at `ci`, or npos.
  const auto match_forward = [&](std::size_t ci, std::string_view open,
                                 std::string_view close) -> std::size_t {
    int depth = 0;
    for (std::size_t j = ci; j < code.size(); ++j) {
      if (spelling(j) == open) ++depth;
      if (spelling(j) == close) {
        --depth;
        if (depth == 0) return j;
      }
    }
    return npos;
  };

  std::vector<LocalFunction> out;
  for (std::size_t ci = 0; ci < code.size(); ++ci) {
    const Token& t = tok(ci);
    if (t.kind != TokenKind::kIdentifier || t.in_pp) continue;

    // Lambda binding: [const] auto [&] name = [...] <(...)>? ... {
    if (t.spelling == "auto") {
      std::size_t j = ci + 1;
      while (spelling(j) == "const" || spelling(j) == "&") ++j;
      if (j < code.size() && tok(j).kind == TokenKind::kIdentifier &&
          !is_keyword(tok(j).spelling) && spelling(j + 1) == "=" &&
          spelling(j + 2) == "[") {
        const std::size_t close_bracket = match_forward(j + 2, "[", "]");
        if (close_bracket == npos) continue;
        std::size_t k = close_bracket + 1;
        if (spelling(k) == "(") {
          const std::size_t close_paren = match_forward(k, "(", ")");
          if (close_paren == npos) continue;
          k = close_paren + 1;
        }
        // Skip specifiers / trailing return up to the body.
        while (k < code.size() && spelling(k) != "{" &&
               spelling(k) != ";" && spelling(k) != ",") {
          ++k;
        }
        if (spelling(k) != "{") continue;
        const std::size_t body_close = match_forward(k, "{", "}");
        if (body_close == npos) continue;
        out.push_back(LocalFunction{tok(j).spelling, tok(j).line, code[k],
                                    code[body_close]});
        continue;
      }
      continue;
    }

    // Free function / method definition: name(...) [clutter] {.
    if (is_keyword(t.spelling)) continue;
    if (spelling(ci + 1) != "(") continue;
    if (ci > 0) {
      // Member calls and expression contexts cannot begin a definition.
      const std::string_view prev = spelling(ci - 1);
      if (prev == "." || prev == "->" || prev == "return" ||
          prev == "new" || prev == "throw" || prev == "=" ||
          prev == "co_return" || prev == "co_await" || prev == "co_yield") {
        continue;
      }
    }
    const std::size_t close_paren = match_forward(ci + 1, "(", ")");
    if (close_paren == npos) continue;
    // Between ')' and '{' only declaration clutter may appear: const,
    // noexcept(...), trailing-return tokens.  A ';', '=', or any other
    // operator means this was a call or a plain declaration.  Constructor
    // member-init lists (`: member_(x) {`) are deliberately not chased —
    // a miss here only makes a rule silent, never wrong.
    std::size_t k = close_paren + 1;
    bool ok = false;
    while (k < code.size()) {
      const std::string_view s = spelling(k);
      if (s == "{") {
        ok = true;
        break;
      }
      if (s == "(") {  // noexcept(...) and attribute-like clutter
        const std::size_t c = match_forward(k, "(", ")");
        if (c == npos) break;
        k = c + 1;
        continue;
      }
      const bool decl_clutter =
          s == "const" || s == "noexcept" || s == "override" ||
          s == "final" || s == "mutable" || s == "->" || s == "::" ||
          s == "<" || s == ">" || s == "*" || s == "&" || s == "," ||
          (tok(k).kind == TokenKind::kIdentifier && !is_keyword(s)) ||
          is_type_keyword(s);
      if (!decl_clutter) break;
      ++k;
    }
    if (!ok) continue;
    const std::size_t body_close = match_forward(k, "{", "}");
    if (body_close == npos) continue;
    out.push_back(
        LocalFunction{t.spelling, t.line, code[k], code[body_close]});
  }

  std::sort(out.begin(), out.end(),
            [](const LocalFunction& a, const LocalFunction& b) {
              return a.body_first < b.body_first;
            });
  return out;
}

}  // namespace lazyckpt::lint
