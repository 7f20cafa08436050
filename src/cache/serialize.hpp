#pragma once

/// \file serialize.hpp
/// \brief Versioned, byte-stable serialization of scenario results
/// (DESIGN.md §5i).
///
/// The cache's contract is that a hit replays *bit-identically* to a fresh
/// run, so the value format cannot lose a single mantissa bit or reorder a
/// single field:
///
///   - every double is written as a C99 hexadecimal float, byte for byte
///     what printf's `%a` prints, and read back bit-exactly.  The codec is
///     `<charconv>` (append_hexfloat / parse_hexfloat below): `[-]0x` and
///     std::to_chars' hex digits, std::from_chars to read.  The reader
///     accepts only the writer's own spelling of a value, so a decimal,
///     `+`-signed or uppercase token is a malformed field, as is a count
///     with a sign;
///   - fields appear in one fixed order (no map iteration anywhere);
///   - the payload carries a CRC-32 and the embedded canonical scenario
///     text, so truncated, bit-flipped, wrong-version, and wrong-key
///     entries are all detected and reported as a miss — recompute, never
///     crash, never serve stale bytes.
///
/// serialize(deserialize(bytes)) == bytes for every valid entry, which is
/// what the test suite pins and what makes "cached result == fresh run"
/// checkable with a plain string comparison.

#include <optional>
#include <string>
#include <string_view>

#include "spec/runner.hpp"

namespace lazyckpt::cache {

/// Version stamp of the on-disk result format.  Part of the cache key and
/// of every entry header: bumping it atomically retires all old entries.
/// v2 added the per-tier hierarchy summary block.
inline constexpr int kResultFormatVersion = 2;

/// Serialize `result` (scenario as run, aggregate, per-replica runs with
/// timelines, campaign summary, per-tier hierarchy summary) into the
/// versioned checksummed entry format.  Deterministic: equal results
/// produce equal bytes.
[[nodiscard]] std::string serialize_result(const spec::ScenarioResult& result);

/// Outcome of parsing an entry: exactly one of `result` / `error` is set.
struct DeserializeOutcome {
  std::optional<spec::ScenarioResult> result;
  std::string error;  ///< why the bytes were rejected (when !result)
};

/// Append `value` as printf("%a") would print it: `[-]0x` plus
/// std::to_chars' hex digits for a finite value, `inf`, `-inf`, `nan` or
/// `-nan` otherwise.  The entry format's one double writer.
void append_hexfloat(std::string* out, double value);

/// Read a token append_hexfloat writes into the bits strtod would give it
/// (a NaN reads as strtod's quiet NaN of that sign).  Returns false for
/// every other token, including other spellings strtod would accept.
[[nodiscard]] bool parse_hexfloat(std::string_view token, double* out);

/// Parse and verify one serialized entry: header + version, CRC-32 over
/// the payload, field structure, and scenario validity.  A count (runs,
/// timeline points, tiers) that the remaining bytes could not hold is
/// rejected before anything is reserved from it.  Never throws on
/// malformed bytes — corruption is a routine cache condition, reported in
/// `error` so the store can count it and fall back to recompute.
[[nodiscard]] DeserializeOutcome deserialize_result(std::string_view bytes);

}  // namespace lazyckpt::cache
