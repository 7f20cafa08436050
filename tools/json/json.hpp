#pragma once

/// \file json.hpp
/// \brief The one JSON reader and string escaper of tools/: lazyckpt-trace
/// and lazyckpt-bench-gate read with it, lazyckpt-lint and lazyckpt-run
/// escape their --json output with it.  It links no lazyckpt library.
///
/// A pull reader: values are visited in place, never built into a DOM, so
/// a large trace streams through.  Any input either parses or throws
/// ParseError naming the line: numbers must match the RFC 8259 grammar
/// (no nan, inf, hex, leading zeros, bare dots or leading '+'), and
/// nesting deeper than kMaxDepth is rejected before it can exhaust the
/// stack.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace lazyckpt::json {

/// Malformed JSON, or a document without the shape its reader expects.
class ParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Deepest nesting of objects and arrays accepted.  The tools' documents
/// nest at most 4 deep; the bound keeps hostile input off the stack.
inline constexpr int kMaxDepth = 256;

/// The kind of a JSON value, judged by its first byte.
enum class Kind { kObject, kArray, kString, kNumber, kBool, kNull };

class Reader {
 public:
  explicit Reader(std::string_view text) noexcept : text_(text) {}

  /// Kind of the next value.  Any byte that starts no other kind reads as
  /// kNumber, which parse_number then rejects if it is not one.
  [[nodiscard]] Kind peek_kind();

  std::string parse_string();
  double parse_number();
  /// A number truncated toward zero; throws unless it lies in
  /// (-1, 2^64), where that conversion is defined.
  std::uint64_t parse_uint64();
  bool parse_bool();
  void parse_null();

  /// Visit an object: `on_key(key)` must consume the value.
  template <typename OnKey>
  void parse_object(OnKey&& on_key) {
    expect('{');
    enter();
    if (!consume('}')) {
      do {
        const std::string key = parse_string();
        expect(':');
        on_key(key);
      } while (consume(','));
      expect('}');
    }
    --depth_;
  }

  /// Visit an array: `on_element()` must consume one value per call.
  template <typename OnElement>
  void parse_array(OnElement&& on_element) {
    expect('[');
    enter();
    if (!consume(']')) {
      do {
        on_element();
      } while (consume(','));
      expect(']');
    }
    --depth_;
  }

  /// Consume any value, discarding it.
  void skip_value();

  [[nodiscard]] bool at_end();

  [[noreturn]] void fail(const std::string& what) const;

 private:
  /// Open one more level of nesting.  No guard closes it when a parse
  /// throws: a reader that has thrown is spent.
  void enter();
  void skip_ws();
  [[nodiscard]] char peek();
  void expect(char c);
  [[nodiscard]] bool consume(char c);
  void consume_literal(std::string_view literal);

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

/// `text` as the body of a JSON string: quote, backslash and every
/// control character escaped, other bytes passed through.
[[nodiscard]] std::string escape(std::string_view text);

}  // namespace lazyckpt::json
