// The content-addressed result cache (DESIGN.md §5i): key derivation,
// byte-stable serialization round trips, the LRU memory tier over the
// persistent disk tier, and the adversarial contract — truncated entries,
// flipped checksum bytes, stale format versions, and concurrent writers
// all degrade to a verified miss and a recompute, never a crash and never
// a stale result.

#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cache/atomic_io.hpp"
#include "cache/key.hpp"
#include "cache/serialize.hpp"
#include "cache/store.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/random.hpp"
#include "sim/campaign.hpp"
#include "sim/hierarchy.hpp"
#include "sim/metrics.hpp"
#include "spec/catalog.hpp"
#include "spec/runner.hpp"
#include "spec/scenario.hpp"

namespace lazyckpt {
namespace {

/// A small, fast replica-mode scenario for cache plumbing tests.
spec::Scenario small_scenario(std::uint64_t seed = 9) {
  spec::Scenario scenario = spec::builtin_scenario("quickstart");
  scenario.replicas = 4;
  scenario.seed = seed;
  return scenario;
}

spec::ScenarioResult run_fresh(const spec::Scenario& scenario) {
  return spec::ScenarioRunner().run(scenario);
}

class ResultStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test case and per process: ctest runs each case as its
    // own process, possibly concurrently, and the cases must not share a
    // cache directory.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           ("lazyckpt_cache_test_" + std::string(info->name()) + "_" +
            std::to_string(static_cast<long long>(::getpid())));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] cache::StoreOptions disk_options() const {
    return {.directory = dir_.string(), .max_memory_entries = 64};
  }

  /// Path of the (single) entry a store on dir_ holds for `key`.
  [[nodiscard]] std::string entry_file(const cache::CacheKey& key) const {
    return (dir_ / "objects" / key.digest_hex.substr(0, 2) / key.digest_hex)
        .string();
  }

  std::filesystem::path dir_;
};

// ---------------------------------------------------------------- keys

TEST(CacheKey, DigestIsDeterministicAndContentSensitive) {
  const auto key = cache::derive_key(small_scenario());
  EXPECT_EQ(key, cache::derive_key(small_scenario()));
  EXPECT_EQ(key.digest_hex.size(), 32u);
  EXPECT_EQ(key.digest_hex.find_first_not_of("0123456789abcdef"),
            std::string::npos);
  EXPECT_EQ(key.canonical_text, spec::to_string(small_scenario()));

  // Any input that changes the result must change the address.
  spec::Scenario other = small_scenario();
  other.seed = 10;
  EXPECT_NE(key.digest_hex, cache::derive_key(other).digest_hex);
  other = small_scenario();
  other.replicas = 5;
  EXPECT_NE(key.digest_hex, cache::derive_key(other).digest_hex);
  other = small_scenario();
  other.policy = "ilazy:0.6";
  EXPECT_NE(key.digest_hex, cache::derive_key(other).digest_hex);
}

TEST(CacheKey, InvalidScenarioHasNoAddress) {
  spec::Scenario broken = small_scenario();
  broken.replicas = 0;
  EXPECT_THROW((void)cache::derive_key(broken), InvalidArgument);
}

// ------------------------------------------------------------ serialization

TEST(CacheSerialize, RoundTripsByteStable) {
  const auto result = run_fresh(small_scenario());
  const std::string bytes = cache::serialize_result(result);
  EXPECT_EQ(bytes, cache::serialize_result(result)) << "non-deterministic";

  const auto outcome = cache::deserialize_result(bytes);
  ASSERT_TRUE(outcome.result.has_value()) << outcome.error;
  EXPECT_EQ(cache::serialize_result(*outcome.result), bytes);
  EXPECT_EQ(spec::to_string(outcome.result->scenario),
            spec::to_string(result.scenario));
  EXPECT_EQ(outcome.result->runs.size(), result.runs.size());
}

TEST(CacheSerialize, RoundTripsCampaignMode) {
  spec::Scenario scenario = spec::builtin_scenario("campaign-week");
  scenario.replicas = 3;
  ASSERT_TRUE(scenario.is_campaign());
  const auto result = run_fresh(scenario);
  ASSERT_TRUE(result.campaign.has_value());

  const std::string bytes = cache::serialize_result(result);
  const auto outcome = cache::deserialize_result(bytes);
  ASSERT_TRUE(outcome.result.has_value()) << outcome.error;
  ASSERT_TRUE(outcome.result->campaign.has_value());
  EXPECT_EQ(cache::serialize_result(*outcome.result), bytes);
}

TEST(CacheSerialize, RoundTripsTieredHierarchy) {
  spec::Scenario scenario = spec::builtin_scenario("tier-mem3-petascale-20K");
  scenario.replicas = 3;
  ASSERT_TRUE(scenario.is_tiered());
  const auto result = run_fresh(scenario);
  ASSERT_TRUE(result.hierarchy.has_value());
  ASSERT_EQ(result.hierarchy->tiers.size(), 3u);

  const std::string bytes = cache::serialize_result(result);
  const auto outcome = cache::deserialize_result(bytes);
  ASSERT_TRUE(outcome.result.has_value()) << outcome.error;
  ASSERT_TRUE(outcome.result->hierarchy.has_value());
  // Byte-stable re-serialization implies every hexfloat field — per-tier
  // I/O, checkpoints, and restarts included — survived exactly.
  EXPECT_EQ(cache::serialize_result(*outcome.result), bytes);
  EXPECT_EQ(outcome.result->hierarchy->tiers[0].kind,
            result.hierarchy->tiers[0].kind);
}

TEST(CacheSerialize, RejectsMalformedBytesWithoutThrowing) {
  const std::string bytes = cache::serialize_result(run_fresh(small_scenario()));

  for (const std::string& corrupt : {
           std::string(),                         // empty
           std::string("not a cache entry"),      // garbage
           bytes.substr(0, bytes.size() / 2),     // truncated
           bytes + "trailing",                    // trailing bytes
       }) {
    const auto outcome = cache::deserialize_result(corrupt);
    EXPECT_FALSE(outcome.result.has_value());
    EXPECT_FALSE(outcome.error.empty());
  }
}

TEST(CacheSerialize, RejectsStaleFormatVersion) {
  std::string bytes = cache::serialize_result(run_fresh(small_scenario()));
  const std::string current =
      "lazyckpt-result v" + std::to_string(cache::kResultFormatVersion);
  ASSERT_EQ(bytes.rfind(current, 0), 0u);
  bytes.replace(0, current.size(), "lazyckpt-result v999");
  const auto outcome = cache::deserialize_result(bytes);
  EXPECT_FALSE(outcome.result.has_value());
  EXPECT_NE(outcome.error.find("version"), std::string::npos)
      << outcome.error;
}

TEST(CacheSerialize, ChecksumCatchesEverySingleFlippedPayloadByte) {
  const std::string bytes = cache::serialize_result(run_fresh(small_scenario()));
  // Flip one byte at a stride across the whole entry; no flipped copy may
  // ever deserialize to a result.
  for (std::size_t pos = 0; pos < bytes.size(); pos += 7) {
    std::string flipped = bytes;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x20);
    if (flipped == bytes) continue;
    const auto outcome = cache::deserialize_result(flipped);
    EXPECT_FALSE(outcome.result.has_value()) << "flipped byte at " << pos;
  }
}

// ------------------------------------------------------------ field tables
//
// Every metrics struct's members are listed once, in its field table
// (sim/metrics.hpp, DESIGN.md §5l).  The static_asserts below fail the
// build when a struct gains a data member that its table lacks, or when a
// row repeats a name or a member; the round trip checks that every row
// survives the cache entry format exactly.

/// Converts to any member type; only named in unevaluated operands.
struct AnyMember {
  template <class T>
  operator T() const;
};

/// Number of data members of the aggregate T: the most initializers
/// `T{...}` accepts.
template <class T, class... Members>
constexpr std::size_t member_count() {
  if constexpr (requires { T{Members{}..., AnyMember{}}; }) {
    return member_count<T, Members..., AnyMember>();
  } else {
    return sizeof...(Members);
  }
}

// The members a table leaves out on purpose: `replicas`, `timeline`,
// `tiers` and a tier's `kind` have lines or tokens of their own.
static_assert(member_count<sim::TimelinePoint>() ==
                  sim::kTimelineFields.size(),
              "a TimelinePoint member has no row in kTimelineFields");
static_assert(member_count<sim::RunMetrics>() == sim::kRunFields.size() + 1,
              "a RunMetrics member has no row in kRunFields");
static_assert(member_count<sim::AggregateMetrics>() ==
                  sim::kAggregateFields.size() + 1,
              "an AggregateMetrics member has no row in kAggregateFields");
static_assert(member_count<sim::HierarchyAggregate>() ==
                  sim::kHierarchyFields.size() + 2,
              "a HierarchyAggregate member has no row in kHierarchyFields");
static_assert(member_count<sim::TierAggregate>() ==
                  sim::kTierFields.size() + 1,
              "a TierAggregate member has no row in kTierFields");
static_assert(member_count<sim::CampaignAggregate>() ==
                  sim::kCampaignFields.size() + 1,
              "a CampaignAggregate member has no row in kCampaignFields");

constexpr bool same_member(auto a, auto b) { return a == b; }
template <class S>
constexpr bool same_member(sim::Member<S> a, sim::Member<S> b) {
  return a.real == b.real && a.count == b.count;
}

template <class Row, std::size_t N>
constexpr bool rows_are_distinct(const std::array<Row, N>& table) {
  for (std::size_t i = 0; i < N; ++i) {
    for (std::size_t j = i + 1; j < N; ++j) {
      if (std::string_view(table[i].name) == table[j].name ||
          same_member(table[i].member, table[j].member)) {
        return false;
      }
    }
  }
  return true;
}

static_assert(rows_are_distinct(sim::kTimelineFields));
static_assert(rows_are_distinct(sim::kRunFields));
static_assert(rows_are_distinct(sim::kAggregateFields));
static_assert(rows_are_distinct(sim::kHierarchyFields));
static_assert(rows_are_distinct(sim::kTierFields));
static_assert(rows_are_distinct(sim::kCampaignFields));

/// Give every row of `table` in `s` a value no other row of the entry has:
/// counts take the running index, doubles 2^-3 times it.
template <class S, class Table>
void fill_distinct(const Table& table, S* s, std::uint64_t* index) {
  for (const auto& row : table) {
    const sim::Member<S> member = row.member;
    ++*index;
    if (member.count != nullptr) {
      s->*member.count = *index;
    } else {
      s->*member.real = 0x1p-3 * static_cast<double>(*index);
    }
  }
}

template <class S, class Table>
void expect_rows_equal(const Table& table, const S& want, const S& got,
                       const std::string& where) {
  for (const auto& row : table) {
    const sim::Member<S> member = row.member;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(member.value(got)),
              std::bit_cast<std::uint64_t>(member.value(want)))
        << where << '.' << row.name;
  }
}

/// A result whose every table row, count and block is filled with a
/// distinct value: two runs of two timeline points each, a campaign and a
/// two-tier hierarchy.
spec::ScenarioResult table_filled_result() {
  spec::ScenarioResult result;
  result.scenario = small_scenario();
  std::uint64_t index = 0;
  result.aggregate.replicas = 2;
  fill_distinct(sim::kAggregateFields, &result.aggregate, &index);
  for (int r = 0; r < 2; ++r) {
    sim::RunMetrics run;
    fill_distinct(sim::kRunFields, &run, &index);
    for (int t = 0; t < 2; ++t) {
      sim::TimelinePoint point;
      fill_distinct(sim::kTimelineFields, &point, &index);
      run.timeline.push_back(point);
    }
    result.runs.push_back(run);
  }
  sim::CampaignAggregate campaign;
  campaign.replicas = 3;
  fill_distinct(sim::kCampaignFields, &campaign, &index);
  result.campaign = campaign;
  sim::HierarchyAggregate hierarchy;
  hierarchy.replicas = 4;
  fill_distinct(sim::kHierarchyFields, &hierarchy, &index);
  for (const char* kind : {"mem", "pfs"}) {
    sim::TierAggregate tier;
    tier.kind = kind;
    fill_distinct(sim::kTierFields, &tier, &index);
    hierarchy.tiers.push_back(tier);
  }
  result.hierarchy = hierarchy;
  return result;
}

TEST(CacheSerialize, EveryTableFieldRoundTripsExactly) {
  const spec::ScenarioResult result = table_filled_result();
  const sim::CampaignAggregate& campaign = *result.campaign;
  const sim::HierarchyAggregate& hierarchy = *result.hierarchy;
  const std::string bytes = cache::serialize_result(result);
  const auto outcome = cache::deserialize_result(bytes);
  ASSERT_TRUE(outcome.result.has_value()) << outcome.error;
  const spec::ScenarioResult& got = *outcome.result;
  EXPECT_EQ(cache::serialize_result(got), bytes);

  EXPECT_EQ(got.aggregate.replicas, 2u);
  expect_rows_equal(sim::kAggregateFields, result.aggregate, got.aggregate,
                    "aggregate");
  ASSERT_EQ(got.runs.size(), result.runs.size());
  for (std::size_t r = 0; r < got.runs.size(); ++r) {
    const std::string where = "runs[" + std::to_string(r) + "]";
    expect_rows_equal(sim::kRunFields, result.runs[r], got.runs[r], where);
    ASSERT_EQ(got.runs[r].timeline.size(), result.runs[r].timeline.size());
    for (std::size_t t = 0; t < got.runs[r].timeline.size(); ++t) {
      expect_rows_equal(sim::kTimelineFields, result.runs[r].timeline[t],
                        got.runs[r].timeline[t],
                        where + ".timeline[" + std::to_string(t) + "]");
    }
  }
  ASSERT_TRUE(got.campaign.has_value());
  EXPECT_EQ(got.campaign->replicas, 3u);
  expect_rows_equal(sim::kCampaignFields, campaign, *got.campaign,
                    "campaign");
  ASSERT_TRUE(got.hierarchy.has_value());
  EXPECT_EQ(got.hierarchy->replicas, 4u);
  expect_rows_equal(sim::kHierarchyFields, hierarchy, *got.hierarchy,
                    "hierarchy");
  ASSERT_EQ(got.hierarchy->tiers.size(), hierarchy.tiers.size());
  for (std::size_t t = 0; t < hierarchy.tiers.size(); ++t) {
    EXPECT_EQ(got.hierarchy->tiers[t].kind, hierarchy.tiers[t].kind);
    expect_rows_equal(sim::kTierFields, hierarchy.tiers[t],
                      got.hierarchy->tiers[t],
                      "tiers[" + std::to_string(t) + "]");
  }
}

// ----------------------------------------------------------- resealed edits
//
// The CRC catches every accidental edit, so these tests recompute it after
// editing one token: only the field parser then stands between the edited
// entry and a result.

/// `bytes` with the last token of its first line that starts with `key`
/// replaced by `token`, and the CRC line recomputed over the new payload.
std::string reseal_last_token(const std::string& bytes, std::string_view key,
                              std::string_view token) {
  const std::size_t crc_line = bytes.find("crc32 = ");
  const std::size_t payload_start = bytes.find('\n', crc_line) + 1;
  std::string payload = bytes.substr(payload_start);
  const std::size_t line = payload.find("\n" + std::string(key)) + 1;
  EXPECT_NE(line, 0u) << "no line starts with '" << key << "'";
  const std::size_t end = payload.find('\n', line);
  const std::size_t last = payload.rfind(' ', end) + 1;
  payload.replace(last, end - last, token);
  const std::uint32_t crc = crc32(std::span(
      reinterpret_cast<const std::byte*>(payload.data()), payload.size()));
  char crc_hex[9];
  std::snprintf(crc_hex, sizeof(crc_hex), "%08x", crc);
  return bytes.substr(0, crc_line) + "crc32 = " + crc_hex + "\n" + payload;
}

TEST(CacheSerialize, CountsTheEntryCannotHoldAreRejected) {
  const std::string bytes = cache::serialize_result(table_filled_result());
  // Re-writing a count with its own value changes no byte: the helper
  // edits exactly one token and reseals it correctly.
  ASSERT_EQ(reseal_last_token(bytes, "runs =", "2"), bytes);
  ASSERT_EQ(reseal_last_token(bytes, "run =", "2"), bytes);
  ASSERT_EQ(reseal_last_token(bytes, "hierarchy =", "2"), bytes);
  // "runs =" holds the run count, the last token of "run =" a run's
  // timeline count, and the last token of "hierarchy =" the tier count.
  // Each was once reserved from unchecked: these values threw
  // std::length_error or std::bad_alloc out of deserialize_result.
  for (const std::string_view key : {"runs =", "run =", "hierarchy ="}) {
    for (const std::string_view count :
         {"-1", "99999999999999", "2000000000", "18446744073709551615",
          "18446744073709551616"}) {
      const std::string edited = reseal_last_token(bytes, key, count);
      cache::DeserializeOutcome outcome;
      EXPECT_NO_THROW(outcome = cache::deserialize_result(edited))
          << key << ' ' << count;
      EXPECT_FALSE(outcome.result.has_value()) << key << ' ' << count;
      EXPECT_FALSE(outcome.error.empty()) << key << ' ' << count;
    }
  }
}

TEST(CacheSerialize, DecimalTokenIsAMalformedField) {
  // strtod would read "0.125" as the value 0x1p-3 stands for; the reader
  // takes only the writer's spelling, so the entry is malformed (and the
  // store repairs it like any other reject).
  const std::string bytes = cache::serialize_result(table_filled_result());
  const auto outcome =
      cache::deserialize_result(reseal_last_token(bytes, "tp =", "0.125"));
  EXPECT_FALSE(outcome.result.has_value());
  EXPECT_NE(outcome.error.find("malformed timeline field"), std::string::npos)
      << outcome.error;
}

// ----------------------------------------------------------- hexfloat codec

/// printf's %a spelling of `value`: the reference the writer must match.
std::string printf_hexfloat(double value) {
  char buffer[64];
  const int n = std::snprintf(buffer, sizeof(buffer), "%a", value);
  return std::string(buffer, static_cast<std::size_t>(n));
}

/// Seeded random bit patterns (every exponent, sign and NaN payload) plus
/// the specials: ±0, ±inf, ±NaN, the subnormal range and the extremes.
std::vector<double> codec_values() {
  using limits = std::numeric_limits<double>;
  std::vector<double> values = {
      0.0, -0.0, limits::infinity(), -limits::infinity(),
      limits::quiet_NaN(), -limits::quiet_NaN(), limits::signaling_NaN(),
      limits::denorm_min(), -limits::denorm_min(),
      std::bit_cast<double>(std::uint64_t{0x000fffffffffffff}),
      std::bit_cast<double>(std::uint64_t{0x8000000000000123}),
      limits::min(), -limits::min(), limits::max(), -limits::max(),
      limits::epsilon(), 1.0, -1.5, 0.1, 1e300};
  Rng rng(20261020);
  for (int i = 0; i < (1 << 20); ++i) {
    values.push_back(std::bit_cast<double>(rng()));
  }
  return values;
}

TEST(CacheCodec, WriterIsByteEqualToPrintfA) {
  std::size_t mismatches = 0;
  for (const double value : codec_values()) {
    std::string written;
    cache::append_hexfloat(&written, value);
    const std::string expected = printf_hexfloat(value);
    if (written != expected && ++mismatches <= 5) {
      ADD_FAILURE() << "bits " << std::hex
                    << std::bit_cast<std::uint64_t>(value) << ": wrote "
                    << written << ", %a gives " << expected;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(CacheCodec, ReaderIsBitEqualToStrtodOnEveryWriterToken) {
  std::size_t mismatches = 0;
  for (const double value : codec_values()) {
    std::string token;
    cache::append_hexfloat(&token, value);
    const double reference = std::strtod(token.c_str(), nullptr);
    double parsed = 0.0;
    const bool ok = cache::parse_hexfloat(token, &parsed);
    if ((!ok || std::bit_cast<std::uint64_t>(parsed) !=
                    std::bit_cast<std::uint64_t>(reference)) &&
        ++mismatches <= 5) {
      ADD_FAILURE() << token << ": parsed " << ok << ' ' << std::hex
                    << std::bit_cast<std::uint64_t>(parsed) << ", strtod "
                    << std::bit_cast<std::uint64_t>(reference);
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(CacheCodec, ReaderRejectsEveryOtherSpelling) {
  double parsed = 0.0;
  for (const std::string_view token :
       {"", "-", "0x", "1.5", "1e3", "+0x1p+0", "0X1p+0", "0x1P+0",
        "0x1.Ap+0", "0x1.8", "0x1.80p+0", "0x-1p+0", "-0x-1p+0", " 0x1p+0",
        "0x1p+0 ", "0x1p+01", "Inf", "infinity", "+inf", "NAN", "nan(1)",
        "+nan", "--nan"}) {
    EXPECT_FALSE(cache::parse_hexfloat(token, &parsed)) << '"' << token << '"';
  }
}

// ------------------------------------------------------------------- store

TEST(ResultStoreMemory, LruEvictsLeastRecentlyUsed) {
  cache::StoreOptions options;  // no directory: memory-only
  options.max_memory_entries = 2;
  cache::ResultStore store(options);
  const auto a = run_fresh(small_scenario(1));
  const auto b = run_fresh(small_scenario(2));
  const auto c = run_fresh(small_scenario(3));
  store.store(a);
  store.store(b);
  EXPECT_TRUE(store.fetch(a.scenario).has_value());  // promote a over b
  store.store(c);                                    // evicts b
  EXPECT_EQ(store.stats().evictions, 1u);
  EXPECT_TRUE(store.fetch(a.scenario).has_value());
  EXPECT_TRUE(store.fetch(c.scenario).has_value());
  EXPECT_FALSE(store.fetch(b.scenario).has_value())
      << "evicted entry served from a memory-only store";
}

TEST_F(ResultStoreTest, PersistsAcrossStoreInstances) {
  const auto result = run_fresh(small_scenario());
  {
    cache::ResultStore writer(disk_options());
    writer.store(result);
    EXPECT_GT(writer.stats().bytes_written, 0u);
  }
  cache::ResultStore reader(disk_options());
  const auto fetched = reader.fetch(result.scenario);
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(cache::serialize_result(*fetched),
            cache::serialize_result(result));
  EXPECT_EQ(reader.stats().hits, 1u);
  EXPECT_GT(reader.stats().bytes_read, 0u);

  // Second fetch is served by the memory tier the disk hit populated.
  EXPECT_TRUE(reader.fetch(result.scenario).has_value());
  EXPECT_EQ(reader.stats().hits, 2u);
  EXPECT_EQ(reader.stats().bytes_read,
            cache::serialize_result(result).size());
}

TEST_F(ResultStoreTest, TruncatedEntryIsAMissAndRecomputeHeals) {
  const auto result = run_fresh(small_scenario());
  cache::ResultStore(disk_options()).store(result);

  const std::string path = entry_file(cache::derive_key(result.scenario));
  ASSERT_TRUE(std::filesystem::exists(path));
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);

  cache::ResultStore store(disk_options());
  EXPECT_FALSE(store.fetch(result.scenario).has_value());
  EXPECT_EQ(store.stats().misses, 1u);

  // The runner's recompute path republishes a good entry over the stump.
  spec::RunnerOptions options;
  options.cache = &store;
  const auto recomputed = spec::ScenarioRunner(options).run(result.scenario);
  EXPECT_EQ(cache::serialize_result(recomputed),
            cache::serialize_result(result));
  cache::ResultStore verify(disk_options());
  EXPECT_TRUE(verify.fetch(result.scenario).has_value());
}

TEST_F(ResultStoreTest, FlippedChecksumByteIsAMiss) {
  const auto result = run_fresh(small_scenario());
  cache::ResultStore(disk_options()).store(result);
  const std::string path = entry_file(cache::derive_key(result.scenario));

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  const auto crc_pos = bytes.find("crc32 = ");
  ASSERT_NE(crc_pos, std::string::npos);
  std::string flipped = bytes;
  char& digit = flipped[crc_pos + 8];
  digit = digit == '0' ? '1' : '0';
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << flipped;
  }

  cache::ResultStore store(disk_options());
  EXPECT_FALSE(store.fetch(result.scenario).has_value());
  EXPECT_EQ(store.stats().misses, 1u);
}

TEST_F(ResultStoreTest, ResealedHugeRunCountIsAMissAndRecomputeHeals) {
  const auto result = run_fresh(small_scenario());
  cache::ResultStore(disk_options()).store(result);
  const std::string path = entry_file(cache::derive_key(result.scenario));
  const std::optional<std::string> bytes = cache::read_file(path);
  ASSERT_TRUE(bytes.has_value());
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << reseal_last_token(*bytes, "runs =", "99999999999999");
  }

  cache::ResultStore store(disk_options());
  EXPECT_FALSE(store.fetch(result.scenario).has_value());
  EXPECT_EQ(store.stats().misses, 1u);
  store.store(result);
  cache::ResultStore healed(disk_options());
  ASSERT_TRUE(healed.fetch(result.scenario).has_value());
  EXPECT_EQ(healed.stats().hits, 1u);
}

TEST_F(ResultStoreTest, StaleFormatVersionOnDiskIsAMiss) {
  const auto result = run_fresh(small_scenario());
  cache::ResultStore(disk_options()).store(result);
  const std::string path = entry_file(cache::derive_key(result.scenario));

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  const std::string current =
      "lazyckpt-result v" + std::to_string(cache::kResultFormatVersion);
  ASSERT_EQ(bytes.rfind(current, 0), 0u);
  bytes.replace(0, current.size(), "lazyckpt-result v0");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  cache::ResultStore store(disk_options());
  EXPECT_FALSE(store.fetch(result.scenario).has_value());
}

TEST_F(ResultStoreTest, ConcurrentWritersAndReadersNeverTearAnEntry) {
  const auto result = run_fresh(small_scenario());
  const std::string expected = cache::serialize_result(result);

  constexpr int kWriters = 4;
  constexpr int kReaders = 4;
  constexpr int kIterations = 50;
  std::vector<std::thread> threads;
  std::atomic<int> torn{0};
  threads.reserve(kWriters + kReaders);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&] {
      cache::ResultStore store(disk_options());
      for (int i = 0; i < kIterations; ++i) store.store(result);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIterations; ++i) {
        // A fresh store per iteration forces the disk path: a reader may
        // race the very first publication (a clean miss), but must never
        // observe a torn or partial entry as a hit with different bytes.
        cache::ResultStore store(disk_options());
        if (const auto fetched = store.fetch(result.scenario)) {
          if (cache::serialize_result(*fetched) != expected) ++torn;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(torn.load(), 0);

  cache::ResultStore store(disk_options());
  const auto fetched = store.fetch(result.scenario);
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(cache::serialize_result(*fetched), expected);
}

TEST(ResultStoreShared, SharedDirectoryIsSharedAcrossStores) {
  // Two stores on one directory (two processes in spirit): what one
  // publishes the other serves.
  const auto dir =
      std::filesystem::temp_directory_path() / "lazyckpt_cache_shared";
  std::filesystem::remove_all(dir);
  const cache::StoreOptions options{.directory = dir.string()};
  const auto result = run_fresh(small_scenario());
  cache::ResultStore a(options);
  cache::ResultStore b(options);
  a.store(result);
  EXPECT_TRUE(b.fetch(result.scenario).has_value());
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------- runner integration

TEST_F(ResultStoreTest, WholeCatalogCachedRunsAreByteIdenticalToFresh) {
  // Every builtin scenario, clamped small so the suite stays fast: a
  // fresh uncached run, a cold cached run, and a warm cached run must
  // serialize to the same bytes.
  cache::ResultStore store(disk_options());
  spec::RunnerOptions uncached;
  uncached.max_replicas = 3;
  spec::RunnerOptions cached = uncached;
  cached.cache = &store;

  for (const spec::Scenario& scenario : spec::builtin_scenarios()) {
    const auto fresh = spec::ScenarioRunner(uncached).run(scenario);
    const auto cold = spec::ScenarioRunner(cached).run(scenario);
    const auto warm = spec::ScenarioRunner(cached).run(scenario);
    const std::string expected = cache::serialize_result(fresh);
    EXPECT_EQ(cache::serialize_result(cold), expected) << scenario.name;
    EXPECT_EQ(cache::serialize_result(warm), expected) << scenario.name;
  }
  const std::size_t n = spec::builtin_scenarios().size();
  EXPECT_EQ(store.stats().misses, n);
  EXPECT_EQ(store.stats().hits, n);
}

TEST(RunnerCache, ClampedAndFullRunsNeverShareAnEntry) {
  cache::StoreOptions store_options;  // no directory: memory-only
  store_options.max_memory_entries = 8;
  cache::ResultStore store(store_options);
  spec::Scenario scenario = small_scenario();

  spec::RunnerOptions clamped;
  clamped.cache = &store;
  clamped.max_replicas = 2;
  const auto small = spec::ScenarioRunner(clamped).run(scenario);
  EXPECT_EQ(small.runs.size(), 2u);

  spec::RunnerOptions full;
  full.cache = &store;
  const auto big = spec::ScenarioRunner(full).run(scenario);
  EXPECT_EQ(big.runs.size(), scenario.replicas);
  EXPECT_EQ(store.stats().misses, 2u) << "clamped run fed the full key";
}

// --------------------------------------------------------------- atomic io

TEST_F(ResultStoreTest, AtomicWriteLeavesNoTemporariesBehind) {
  cache::atomic_write_file(dir_.string(), "entry", "payload");
  cache::atomic_write_file(dir_.string(), "entry", "payload v2");
  EXPECT_EQ(cache::read_file((dir_ / "entry").string()), "payload v2");
  std::size_t files = 0;
  for (const auto& item : std::filesystem::directory_iterator(dir_)) {
    (void)item;
    ++files;
  }
  EXPECT_EQ(files, 1u) << "temporary files left in the cache directory";
}

TEST(AtomicIo, ReadMissingFileIsNullopt) {
  EXPECT_FALSE(cache::read_file("/nonexistent/lazyckpt/cache/entry")
                   .has_value());
}

}  // namespace
}  // namespace lazyckpt
