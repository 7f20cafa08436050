#include "json.hpp"

#include <cctype>
#include <cstdlib>

namespace lazyckpt::json {

namespace {
constexpr std::string_view kHexDigits = "0123456789abcdef";
}  // namespace

void Reader::enter() {
  if (++depth_ > kMaxDepth) {
    fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
  }
}

void Reader::skip_ws() {
  while (pos_ < text_.size() &&
         std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
    ++pos_;
  }
}

char Reader::peek() {
  skip_ws();
  if (pos_ >= text_.size()) fail("unexpected end of document");
  return text_[pos_];
}

Kind Reader::peek_kind() {
  switch (peek()) {
    case '{': return Kind::kObject;
    case '[': return Kind::kArray;
    case '"': return Kind::kString;
    case 't':
    case 'f': return Kind::kBool;
    case 'n': return Kind::kNull;
    default: return Kind::kNumber;
  }
}

void Reader::expect(char c) {
  if (peek() != c) {
    fail(std::string("expected '") + c + "', got '" + text_[pos_] + "'");
  }
  ++pos_;
}

bool Reader::consume(char c) {
  if (peek() == c) {
    ++pos_;
    return true;
  }
  return false;
}

std::string Reader::parse_string() {
  expect('"');
  std::string out;
  while (true) {
    if (pos_ >= text_.size()) fail("unterminated string");
    const char c = text_[pos_++];
    if (c == '"') return out;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (pos_ >= text_.size()) fail("unterminated escape");
    const char esc = text_[pos_++];
    switch (esc) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        // Decode the BMP scalar to UTF-8; names in our documents are
        // ASCII, so this path exists for standards compliance.
        if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const auto h = static_cast<unsigned char>(text_[pos_++]);
          const std::size_t digit =
              kHexDigits.find(static_cast<char>(std::tolower(h)));
          if (digit == std::string_view::npos) {
            fail("bad hex digit in \\u escape");
          }
          code = (code << 4U) | static_cast<unsigned>(digit);
        }
        if (code < 0x80U) {
          out += static_cast<char>(code);
        } else if (code < 0x800U) {
          out += static_cast<char>(0xC0U | (code >> 6U));
          out += static_cast<char>(0x80U | (code & 0x3FU));
        } else {
          out += static_cast<char>(0xE0U | (code >> 12U));
          out += static_cast<char>(0x80U | ((code >> 6U) & 0x3FU));
          out += static_cast<char>(0x80U | (code & 0x3FU));
        }
        break;
      }
      default: fail("unknown escape sequence");
    }
  }
}

double Reader::parse_number() {
  skip_ws();
  // RFC 8259: -? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?, checked
  // before strtod sees the token, which would also take nan, inf, hex and
  // a bare prefix of a longer token.
  const std::size_t start = pos_;
  const auto at = [&](char c) {
    return pos_ < text_.size() && text_[pos_] == c;
  };
  const auto digits = [&] {
    const std::size_t from = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
    return pos_ - from;
  };
  if (at('-')) ++pos_;
  const std::size_t int_start = pos_;
  const std::size_t int_digits = digits();
  if (int_digits == 0) fail("expected a number");
  if (int_digits > 1 && text_[int_start] == '0') {
    fail("leading zero in a number");
  }
  if (at('.')) {
    ++pos_;
    if (digits() == 0) fail("expected a digit after the decimal point");
  }
  if (at('e') || at('E')) {
    ++pos_;
    if (at('+') || at('-')) ++pos_;
    if (digits() == 0) fail("expected a digit in the exponent");
  }
  const std::string token(text_.substr(start, pos_ - start));
  return std::strtod(token.c_str(), nullptr);
}

std::uint64_t Reader::parse_uint64() {
  const double value = parse_number();
  if (!(value > -1.0 && value < 18446744073709551616.0)) {
    fail("number out of range for an unsigned 64-bit integer");
  }
  return static_cast<std::uint64_t>(value);
}

void Reader::consume_literal(std::string_view literal) {
  skip_ws();
  if (text_.substr(pos_, literal.size()) != literal) {
    fail("bad literal");
  }
  pos_ += literal.size();
}

bool Reader::parse_bool() {
  const bool value = peek() == 't';
  consume_literal(value ? "true" : "false");
  return value;
}

void Reader::parse_null() { consume_literal("null"); }

void Reader::skip_value() {
  switch (peek_kind()) {
    case Kind::kObject:
      parse_object([&](const std::string&) { skip_value(); });
      break;
    case Kind::kArray:
      parse_array([&]() { skip_value(); });
      break;
    case Kind::kString: (void)parse_string(); break;
    case Kind::kBool: (void)parse_bool(); break;
    case Kind::kNull: parse_null(); break;
    case Kind::kNumber: (void)parse_number(); break;
  }
}

bool Reader::at_end() {
  skip_ws();
  return pos_ >= text_.size();
}

void Reader::fail(const std::string& what) const {
  // Line number for the error message: cheap scan, error path only.
  std::size_t line = 1;
  for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
    if (text_[i] == '\n') ++line;
  }
  throw ParseError("JSON error at line " + std::to_string(line) + ": " +
                   what);
}

std::string escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
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
          out += kHexDigits[static_cast<unsigned char>(c) >> 4U];
          out += kHexDigits[static_cast<unsigned char>(c) & 0xfU];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace lazyckpt::json
