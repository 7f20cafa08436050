#include "cache/serialize.hpp"

#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.hpp"
#include "common/error.hpp"

namespace lazyckpt::cache {
namespace {

// ---------------------------------------------------------------------
// Writing.  Every double goes through append_hexfloat (%a's bytes): exact
// round trip, no locale, no shortest-decimal subtleties — the same bytes
// on every IEEE-754 platform for the same bit pattern.
// ---------------------------------------------------------------------

/// Longest hexfloat: "-0x1.fffffffffffffp+1023" is 24 bytes.
constexpr std::size_t kHexfloatBytes = 32;

/// Write `value` as printf's %a would: `[-]0x` and std::to_chars' hex
/// digits for normal values and zeros, to_chars alone for ±inf and ±nan.
char* write_hexfloat(char (&buffer)[kHexfloatBytes], double value) {
  if (std::fpclassify(value) == FP_SUBNORMAL) {
    // %a spells these 0x0.<digits>p-1022; to_chars' spelling depends on
    // the libstdc++ version (GCC 15's normalizes them to 1.<digits>p-10xx).
    // Subnormals are rare enough that snprintf's cost does not matter.
    const int n = std::snprintf(buffer, kHexfloatBytes, "%a", value);
    return buffer + n;
  }
  char* out = buffer;
  if (std::isfinite(value)) {
    if (std::signbit(value)) *out++ = '-';
    *out++ = '0';
    *out++ = 'x';
    value = std::fabs(value);
  }
  return std::to_chars(out, std::end(buffer), value, std::chars_format::hex)
      .ptr;
}

void append_u64(std::string* out, std::uint64_t value) {
  char buffer[std::numeric_limits<std::uint64_t>::digits10 + 1];
  out->append(buffer, std::to_chars(buffer, std::end(buffer), value).ptr);
}

/// Append ` <value>` for every row of `table`, in table order: counts in
/// decimal, doubles as hexfloats.
template <class S, class Table>
void append_values(std::string* out, const Table& table, const S& s) {
  for (const auto& row : table) {
    const sim::Member<S> member = row.member;
    *out += ' ';
    if (member.count != nullptr) {
      append_u64(out, s.*member.count);
    } else {
      append_hexfloat(out, s.*member.real);
    }
  }
}

std::string payload_for(const spec::ScenarioResult& result) {
  const std::string scenario_text = spec::to_string(result.scenario);

  std::string p;
  p.reserve(256 + scenario_text.size() + result.runs.size() * 160);

  p += "scenario-bytes = ";
  append_u64(&p, scenario_text.size());
  p += '\n';
  p += scenario_text;  // canonical form always ends in '\n'

  p += "aggregate = ";
  append_u64(&p, result.aggregate.replicas);
  append_values(&p, sim::kAggregateFields, result.aggregate);
  p += '\n';

  p += "runs = ";
  append_u64(&p, result.runs.size());
  p += '\n';
  for (const auto& run : result.runs) {
    p += "run =";
    append_values(&p, sim::kRunFields, run);
    p += ' ';
    append_u64(&p, run.timeline.size());
    p += '\n';
    for (const auto& tp : run.timeline) {
      p += "tp =";
      append_values(&p, sim::kTimelineFields, tp);
      p += '\n';
    }
  }

  if (result.campaign.has_value()) {
    p += "campaign = ";
    append_u64(&p, result.campaign->replicas);
    append_values(&p, sim::kCampaignFields, *result.campaign);
    p += '\n';
  } else {
    p += "campaign = none\n";
  }

  if (result.hierarchy.has_value()) {
    const auto& h = *result.hierarchy;
    p += "hierarchy = ";
    append_u64(&p, h.replicas);
    append_values(&p, sim::kHierarchyFields, h);
    p += ' ';
    append_u64(&p, h.tiers.size());
    p += '\n';
    for (const auto& tier : h.tiers) {
      // Tier kinds are [A-Za-z0-9_.-] registry names (never spaces), so
      // they are safe as space-separated tokens.
      p += "htier = " + tier.kind;
      append_values(&p, sim::kTierFields, tier);
      p += '\n';
    }
  } else {
    p += "hierarchy = none\n";
  }

  p += "end\n";
  return p;
}

// ---------------------------------------------------------------------
// Reading.  A small line cursor with non-throwing failure: corruption is
// an expected condition for a cache, so every reject path produces a
// message, not an exception.
// ---------------------------------------------------------------------

class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  /// Next '\n'-terminated line (without the newline).  Fails on EOF.
  bool next_line(std::string_view* line) {
    if (failed_ || pos_ >= text_.size()) return fail("unexpected end");
    const std::size_t nl = text_.find('\n', pos_);
    if (nl == std::string_view::npos) return fail("unterminated line");
    *line = text_.substr(pos_, nl - pos_);
    pos_ = nl + 1;
    return true;
  }

  /// Consume exactly `n` raw bytes (the length-prefixed scenario text).
  bool take_bytes(std::size_t n, std::string_view* out) {
    if (failed_ || pos_ + n > text_.size()) {
      return fail("truncated byte block");
    }
    *out = text_.substr(pos_, n);
    pos_ += n;
    return true;
  }

  bool fail(const std::string& why) {
    if (!failed_) error_ = why;
    failed_ = true;
    return false;
  }

  /// Whether the unread bytes could hold `count` lines of at least
  /// `line_bytes` bytes each: bounds a count before anything is reserved
  /// from it.
  [[nodiscard]] bool can_hold(std::size_t count,
                              std::size_t line_bytes) const {
    return count <= (text_.size() - pos_) / line_bytes;
  }

  [[nodiscard]] bool ok() const { return !failed_; }
  [[nodiscard]] bool at_end() const { return pos_ == text_.size(); }
  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  bool failed_ = false;
  std::string error_;
};

/// Split a "key = v0 v1 v2 ..." line into its space-separated value
/// tokens, verifying the key.  Returns false (no reader fail) on mismatch
/// so callers can compose their own message.
bool parse_fields(std::string_view line, std::string_view key,
                  std::vector<std::string_view>* out) {
  const std::string prefix = std::string(key) + " =";
  if (line.substr(0, prefix.size()) != prefix) return false;
  out->clear();
  std::size_t pos = prefix.size();
  while (pos < line.size()) {
    while (pos < line.size() && line[pos] == ' ') ++pos;
    if (pos >= line.size()) break;
    const std::size_t end = line.find(' ', pos);
    const std::size_t stop = end == std::string_view::npos ? line.size() : end;
    out->push_back(line.substr(pos, stop - pos));
    pos = stop;
  }
  return true;
}

/// Bytes in the shortest "key = v0 … vN-1\n" line, with one-byte tokens.
constexpr std::size_t min_line_bytes(std::string_view key,
                                     std::size_t tokens) {
  return key.size() + 2 + 2 * tokens + 1;
}

bool parse_u64(std::string_view token, std::uint64_t* out) {
  const char* const end = token.data() + token.size();
  const auto [stop, ec] = std::from_chars(token.data(), end, *out);
  return ec == std::errc() && stop == end && !token.empty();
}

bool parse_size(std::string_view token, std::size_t* out) {
  std::uint64_t v = 0;
  if (!parse_u64(token, &v)) return false;
  *out = static_cast<std::size_t>(v);
  return true;
}

/// Parse one token per row of `table`, starting at `tokens`, into `s`.
template <class S, class Table>
bool parse_values(const std::string_view* tokens, const Table& table, S* s) {
  for (const auto& row : table) {
    const sim::Member<S> member = row.member;
    const bool parsed = member.count != nullptr
                            ? parse_u64(*tokens, &(s->*member.count))
                            : parse_hexfloat(*tokens, &(s->*member.real));
    if (!parsed) return false;
    ++tokens;
  }
  return true;
}

DeserializeOutcome reject(const std::string& why) {
  DeserializeOutcome out;
  out.error = why;
  return out;
}

}  // namespace

void append_hexfloat(std::string* out, double value) {
  char buffer[kHexfloatBytes];
  out->append(buffer, write_hexfloat(buffer, value));
}

bool parse_hexfloat(std::string_view token, double* out) {
  std::string_view body = token;
  const bool negative = body.starts_with('-');
  if (negative) body.remove_prefix(1);
  double value = 0.0;
  if (body == "nan") {
    // strtod's quiet NaN; from_chars sets other payload bits.
    value = std::numeric_limits<double>::quiet_NaN();
  } else if (body == "inf") {
    value = std::numeric_limits<double>::infinity();
  } else {
    if (!body.starts_with("0x")) return false;
    const char* const end = body.data() + body.size();
    const auto [stop, ec] = std::from_chars(body.data() + 2, end, value,
                                            std::chars_format::hex);
    if (ec != std::errc() || stop != end) return false;
  }
  *out = negative ? -value : value;
  // from_chars also takes uppercase digits, a missing exponent, a second
  // sign; only the writer's own spelling of the value is accepted.
  char buffer[kHexfloatBytes];
  return std::string_view(buffer, write_hexfloat(buffer, *out)) == token;
}

std::string serialize_result(const spec::ScenarioResult& result) {
  const std::string payload = payload_for(result);
  const std::uint32_t checksum = crc32(
      std::span(reinterpret_cast<const std::byte*>(payload.data()),
                payload.size()));
  char header[64];
  const int n = std::snprintf(header, sizeof(header),
                              "lazyckpt-result v%d\ncrc32 = %08x\n",
                              kResultFormatVersion, checksum);
  require(n > 0 && static_cast<std::size_t>(n) < sizeof(header),
          "cache: header formatting failed");
  return std::string(header, static_cast<std::size_t>(n)) + payload;
}

DeserializeOutcome deserialize_result(std::string_view bytes) {
  Reader reader(bytes);
  std::string_view line;

  // Header: magic + version.  A different version is not corruption — it
  // is an entry from another build generation — but either way the only
  // safe answer is "miss".
  if (!reader.next_line(&line)) return reject("empty entry");
  {
    const std::string expected =
        "lazyckpt-result v" + std::to_string(kResultFormatVersion);
    if (line != expected) {
      return reject("version mismatch: got '" + std::string(line) +
                    "', want '" + expected + "'");
    }
  }

  // Checksum over everything after the crc line.
  if (!reader.next_line(&line)) return reject("missing crc line");
  std::vector<std::string_view> fields;
  if (!parse_fields(line, "crc32", &fields) || fields.size() != 1 ||
      fields[0].size() != 8) {
    return reject("malformed crc line");
  }
  std::uint32_t stored_crc = 0;
  for (const char c : fields[0]) {
    // Strictly canonical lowercase hex: the writer never emits anything
    // else, so any other byte (including uppercase) is corruption.
    std::uint32_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint32_t>(c - 'a') + 10;
    } else {
      return reject("malformed crc value");
    }
    stored_crc = stored_crc << 4 | digit;
  }
  // The reader now sits exactly at the first payload byte.
  const std::string_view payload = bytes.substr(reader.pos());
  const std::uint32_t actual_crc = crc32(
      std::span(reinterpret_cast<const std::byte*>(payload.data()),
                payload.size()));
  if (actual_crc != stored_crc) {
    return reject("checksum mismatch (truncated or corrupt entry)");
  }

  // Scenario: length-prefixed canonical text, re-parsed and re-validated.
  if (!reader.next_line(&line)) return reject(reader.error());
  std::size_t scenario_bytes = 0;
  if (!parse_fields(line, "scenario-bytes", &fields) || fields.size() != 1 ||
      !parse_size(fields[0], &scenario_bytes)) {
    return reject("malformed scenario-bytes line");
  }
  std::string_view scenario_text;
  if (!reader.take_bytes(scenario_bytes, &scenario_text)) {
    return reject(reader.error());
  }

  spec::ScenarioResult result;
  try {
    result.scenario = spec::parse_scenario(scenario_text);
  } catch (const Error& error) {
    return reject(std::string("embedded scenario rejected: ") + error.what());
  }

  // Aggregate: replica count, then one value per table row.
  constexpr std::size_t kAggregateTokens = 1 + sim::kAggregateFields.size();
  if (!reader.next_line(&line)) return reject(reader.error());
  if (!parse_fields(line, "aggregate", &fields) ||
      fields.size() != kAggregateTokens) {
    return reject("malformed aggregate line");
  }
  if (!parse_size(fields[0], &result.aggregate.replicas)) {
    return reject("malformed aggregate replica count");
  }
  if (!parse_values(&fields[1], sim::kAggregateFields, &result.aggregate)) {
    return reject("malformed aggregate field");
  }

  // Per-replica runs, each followed by its timeline count and points.
  constexpr std::size_t kRunTokens = sim::kRunFields.size() + 1;
  if (!reader.next_line(&line)) return reject(reader.error());
  std::size_t run_count = 0;
  if (!parse_fields(line, "runs", &fields) || fields.size() != 1 ||
      !parse_size(fields[0], &run_count)) {
    return reject("malformed runs line");
  }
  if (!reader.can_hold(run_count, min_line_bytes("run", kRunTokens))) {
    return reject("run count exceeds the entry");
  }
  result.runs.reserve(run_count);
  for (std::size_t r = 0; r < run_count; ++r) {
    if (!reader.next_line(&line)) return reject(reader.error());
    if (!parse_fields(line, "run", &fields) || fields.size() != kRunTokens) {
      return reject("malformed run line");
    }
    sim::RunMetrics run{};
    if (!parse_values(&fields[0], sim::kRunFields, &run)) {
      return reject("malformed run field");
    }
    std::size_t timeline_count = 0;
    if (!parse_size(fields[kRunTokens - 1], &timeline_count)) {
      return reject("malformed run timeline count");
    }
    if (!reader.can_hold(timeline_count,
                         min_line_bytes("tp", sim::kTimelineFields.size()))) {
      return reject("timeline count exceeds the entry");
    }
    run.timeline.reserve(timeline_count);
    for (std::size_t t = 0; t < timeline_count; ++t) {
      if (!reader.next_line(&line)) return reject(reader.error());
      if (!parse_fields(line, "tp", &fields) ||
          fields.size() != sim::kTimelineFields.size()) {
        return reject("malformed timeline line");
      }
      sim::TimelinePoint tp{};
      if (!parse_values(&fields[0], sim::kTimelineFields, &tp)) {
        return reject("malformed timeline field");
      }
      run.timeline.push_back(tp);
    }
    result.runs.push_back(std::move(run));
  }

  // Campaign summary (or the explicit "none").
  constexpr std::size_t kCampaignTokens = 1 + sim::kCampaignFields.size();
  if (!reader.next_line(&line)) return reject(reader.error());
  if (!parse_fields(line, "campaign", &fields)) {
    return reject("malformed campaign line");
  }
  if (fields.size() == 1 && fields[0] == "none") {
    result.campaign.reset();
  } else if (fields.size() == kCampaignTokens) {
    sim::CampaignAggregate c{};
    if (!parse_size(fields[0], &c.replicas)) {
      return reject("malformed campaign replica count");
    }
    if (!parse_values(&fields[1], sim::kCampaignFields, &c)) {
      return reject("malformed campaign field");
    }
    result.campaign = c;
  } else {
    return reject("malformed campaign line");
  }

  // Per-tier hierarchy summary (or the explicit "none").
  constexpr std::size_t kHierarchyTokens = 2 + sim::kHierarchyFields.size();
  constexpr std::size_t kTierTokens = 1 + sim::kTierFields.size();
  if (!reader.next_line(&line)) return reject(reader.error());
  if (!parse_fields(line, "hierarchy", &fields)) {
    return reject("malformed hierarchy line");
  }
  if (fields.size() == 1 && fields[0] == "none") {
    result.hierarchy.reset();
  } else if (fields.size() == kHierarchyTokens) {
    sim::HierarchyAggregate h{};
    if (!parse_size(fields[0], &h.replicas)) {
      return reject("malformed hierarchy replica count");
    }
    if (!parse_values(&fields[1], sim::kHierarchyFields, &h)) {
      return reject("malformed hierarchy field");
    }
    std::size_t tier_count = 0;
    if (!parse_size(fields[kHierarchyTokens - 1], &tier_count)) {
      return reject("malformed hierarchy tier count");
    }
    if (!reader.can_hold(tier_count, min_line_bytes("htier", kTierTokens))) {
      return reject("htier count exceeds the entry");
    }
    h.tiers.reserve(tier_count);
    for (std::size_t t = 0; t < tier_count; ++t) {
      if (!reader.next_line(&line)) return reject(reader.error());
      if (!parse_fields(line, "htier", &fields) ||
          fields.size() != kTierTokens) {
        return reject("malformed htier line");
      }
      sim::TierAggregate tier{};
      tier.kind = std::string(fields[0]);
      if (!parse_values(&fields[1], sim::kTierFields, &tier)) {
        return reject("malformed htier field");
      }
      h.tiers.push_back(std::move(tier));
    }
    result.hierarchy = std::move(h);
  } else {
    return reject("malformed hierarchy line");
  }

  if (!reader.next_line(&line) || line != "end") {
    return reject("missing end marker");
  }
  if (!reader.at_end()) return reject("trailing bytes after end marker");

  DeserializeOutcome out;
  out.result = std::move(result);
  return out;
}

}  // namespace lazyckpt::cache
