/// Tests for the shared tools/json reader and escaper, and for the two
/// CLIs' parsers built on it: lazyckpt-trace's trace reader and
/// lazyckpt-bench-gate's report readers.
///
/// Hostile input must turn into a json::ParseError, never a crash or a
/// wrong answer: nesting is bounded (200,000 nested '[' once overflowed
/// the stack), and numbers follow the RFC 8259 grammar (nan, hex and a
/// prefix of a longer token were once read as numbers).  The gate tests
/// pin every field the gate reads from the committed snapshots under
/// results/.  The mutation test over the same reader is
/// test_json_fuzz.cpp.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "gate.hpp"
#include "json.hpp"
#include "trace_tool.hpp"

namespace lazyckpt {
namespace {

/// Read `text` as one JSON value and nothing more.
void read_document(std::string_view text) {
  json::Reader reader(text);
  reader.skip_value();
  if (!reader.at_end()) reader.fail("trailing content");
}

/// `depth` nested arrays holding one 0.
std::string nested_arrays(std::size_t depth) {
  return std::string(depth, '[') + "0" + std::string(depth, ']');
}

// ---- the reader ------------------------------------------------------------

TEST(JsonReader, DecodesEveryEscape) {
  json::Reader reader(R"("q\" b\\ s\/ \b\f\n\r\t \u0041 \u00e9 \u20AC")");
  EXPECT_EQ(reader.parse_string(),
            "q\" b\\ s/ \b\f\n\r\t A \xC3\xA9 \xE2\x82\xAC");
  EXPECT_TRUE(reader.at_end());
}

TEST(JsonReader, RejectsBadEscapes) {
  for (const char* text : {R"("\x")", R"("\u12")", R"("\u12g4")", R"("\)",
                           R"("open)"}) {
    EXPECT_THROW(read_document(text), json::ParseError) << text;
  }
}

TEST(JsonReader, AcceptsRfc8259Numbers) {
  const std::vector<std::pair<std::string, double>> cases = {
      {"0", 0.0},          {"-0", -0.0},       {"7", 7.0},
      {"-12.25", -12.25},  {"1.5e+3", 1500.0}, {"2E-2", 0.02},
      {"10e2", 1000.0},    {"0.000125", 0.000125}};
  for (const auto& [text, expected] : cases) {
    json::Reader reader(text);
    EXPECT_EQ(reader.parse_number(), expected) << text;
    EXPECT_TRUE(reader.at_end()) << text;
  }
}

TEST(JsonReader, RejectsMalformedNumbers) {
  for (const char* token : {"nan", "NaN", "inf", "-inf", "Infinity", "0x10",
                            "01", "-01", "1.", ".5", "-.5", "+1", "-", "1e",
                            "1e+", "1.2.3.4e5e-"}) {
    EXPECT_THROW(read_document(std::string("[") + token + "]"),
                 json::ParseError)
        << token;
  }
}

TEST(JsonReader, Uint64RejectsWhatACastCouldNotHold) {
  json::Reader in_range("[2.9, 0, 18446744073709549568]");
  std::vector<std::uint64_t> values;
  in_range.parse_array([&] { values.push_back(in_range.parse_uint64()); });
  EXPECT_EQ(values, (std::vector<std::uint64_t>{2, 0, 18446744073709549568u}));
  for (const char* text : {"-1", "18446744073709551616", "1e400"}) {
    json::Reader reader(text);
    EXPECT_THROW((void)reader.parse_uint64(), json::ParseError) << text;
  }
}

TEST(JsonReader, NestingIsBoundedByMaxDepth) {
  const auto depth = static_cast<std::size_t>(json::kMaxDepth);
  EXPECT_NO_THROW(read_document(nested_arrays(depth)));
  EXPECT_THROW(read_document(nested_arrays(depth + 1)), json::ParseError);
}

TEST(JsonReader, DeepNestingInsideAnObjectRaisesParseError) {
  const std::string text = "{\"a\": " + std::string(200000, '[');
  try {
    read_document(text);
    FAIL() << "200,000-deep nesting parsed";
  } catch (const json::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than 256 levels"),
              std::string::npos)
        << e.what();
  }
}

TEST(JsonReader, ErrorsNameTheLine) {
  try {
    read_document("{\n\"a\": 1,\n\"b\": .5\n}");
    FAIL() << ".5 parsed";
  } catch (const json::ParseError& e) {
    EXPECT_EQ(std::string(e.what()), "JSON error at line 3: expected a number");
  }
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(json::escape("plain"), "plain");
  EXPECT_EQ(json::escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json::escape("t\tn\nr\r"), "t\\tn\\nr\\r");
  EXPECT_EQ(json::escape(std::string_view("\x01\x1f\b", 3)),
            "\\u0001\\u001f\\u0008");
  EXPECT_EQ(json::escape("caf\xC3\xA9"), "caf\xC3\xA9");
}

TEST(JsonEscape, RoundTripsThroughTheReader) {
  std::string text;
  for (int c = 1; c < 128; ++c) text += static_cast<char>(c);
  const std::string document = "\"" + json::escape(text) + "\"";
  json::Reader reader(document);
  EXPECT_EQ(reader.parse_string(), text);
}

// ---- lazyckpt-trace's reader -----------------------------------------------

std::string one_event_trace(const std::string& members) {
  return "{\"traceEvents\": [{\"name\": \"a\", \"ph\": \"i\", \"pid\": 1, "
         "\"tid\": 0, " +
         members + "}]}";
}

TEST(TraceToolJson, DeepArgsNestingRaisesParseError) {
  const std::string text =
      one_event_trace("\"ts\": 1, \"args\": {\"x\": " +
                      std::string(200000, '[') + "}");
  EXPECT_THROW((void)tracetool::parse_trace(text), tracetool::ParseError);
}

TEST(TraceToolJson, RejectsNonJsonTimestamps) {
  EXPECT_NO_THROW((void)tracetool::parse_trace(one_event_trace("\"ts\": 16")));
  for (const char* ts : {"nan", "0x10", "inf", "01", "+1"}) {
    EXPECT_THROW(
        (void)tracetool::parse_trace(one_event_trace(
            std::string("\"ts\": ") + ts)),
        tracetool::ParseError)
        << ts;
  }
}

TEST(TraceToolJson, ArgsKeepTheirCanonicalSpelling) {
  const tracetool::ParsedTrace trace = tracetool::parse_trace(one_event_trace(
      "\"ts\": 1, \"args\": {\"s\": \"t\\u0041b\", \"n\": 2.5, \"t\": true, "
      "\"f\": false, \"z\": null, \"o\": {\"deep\": [1]}}"));
  ASSERT_EQ(trace.events.size(), 1u);
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"s", "tAb"}, {"n", "2.5"}, {"t", "true"}, {"f", "false"},
      {"z", "null"}};
  EXPECT_EQ(trace.events[0].args, expected);
  EXPECT_TRUE(trace.events[0].has_value);
  EXPECT_EQ(trace.events[0].value, 2.5);
}

// ---- the gate's report parsers over the committed snapshots -------------

std::string source_path(const char* relative) {
  return std::string(LAZYCKPT_SOURCE_DIR) + "/" + relative;
}

std::string read_source_file(const char* relative) {
  std::ifstream in(source_path(relative), std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// `text` with its first occurrence of `from` replaced by `to`.
std::string replace_once(std::string text, std::string_view from,
                         std::string_view to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

/// The message of the std::runtime_error `parse` throws, or "" if none.
template <typename Parse>
std::string error_of(Parse&& parse) {
  try {
    parse();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(BenchGateReport, ParsesCommittedSimKernelSnapshot) {
  const benchgate::BenchReport report =
      benchgate::load_bench_report(source_path("results/BENCH_sim_kernel.json"));
  EXPECT_EQ(report.bench, "micro_engine");
  EXPECT_EQ(report.replicas, 400u);
  EXPECT_EQ(report.seed, 20140623u);
  EXPECT_TRUE(report.bit_identical);
  EXPECT_FALSE(report.smoke_mode);

  const std::vector<std::string> workloads = {
      "exp/hourly",     "exp/static-oci",     "exp/ilazy",
      "weibull/hourly", "weibull/static-oci", "weibull/ilazy"};
  const std::vector<std::uint64_t> events = {921764, 371615, 310096,
                                             919952, 367888, 271240};
  ASSERT_EQ(report.rows.size(), workloads.size());
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const benchgate::WorkloadRow& row = report.rows[i];
    EXPECT_EQ(row.workload, workloads[i]);
    EXPECT_EQ(row.events, events[i]) << row.workload;
    std::vector<std::string> arms;
    for (const auto& entry : row.arms) arms.push_back(entry.first);
    EXPECT_EQ(arms, (std::vector<std::string>{"batch", "fast", "generic",
                                              "legacy"}))
        << row.workload;
  }
  const benchgate::ArmStats& legacy = report.rows[0].arms.at("legacy");
  EXPECT_EQ(legacy.seconds, 0.059117);
  EXPECT_EQ(legacy.trials_per_sec, 6766.3);
  EXPECT_EQ(legacy.events_per_sec, 15592325.9);
}

TEST(BenchGateReport, ParsesPreBatchSnapshotWithoutBatchArm) {
  const benchgate::BenchReport report = benchgate::load_bench_report(
      source_path("results/BENCH_sim_kernel.pr2.json"));
  EXPECT_EQ(report.bench, "micro_engine");
  EXPECT_TRUE(report.bit_identical);
  ASSERT_FALSE(report.rows.empty());
  EXPECT_EQ(report.rows[0].arms.count("batch"), 0u);
  EXPECT_EQ(report.rows[0].arms.at("legacy").trials_per_sec, 4698.1);
}

TEST(BenchGateReport, ParsesCommittedCacheSnapshot) {
  const benchgate::CacheReport report =
      benchgate::load_cache_report(source_path("results/BENCH_cache.json"));
  EXPECT_EQ(report.bench, "micro_cache");
  EXPECT_EQ(report.scenarios, 16u);
  EXPECT_TRUE(report.byte_identical);
  EXPECT_FALSE(report.smoke_mode);
  EXPECT_EQ(report.warm_hits, 112u);
  EXPECT_EQ(report.warm_misses, 0u);
  EXPECT_EQ(report.cold_seconds, 0.210975);
  EXPECT_EQ(report.warm_disk_seconds, 0.003256);
  EXPECT_EQ(report.speedup_warm_disk, 64.7998);
}

TEST(BenchGateReport, SmokeModeComesFromTheMachineBlock) {
  const std::string sim = replace_once(
      read_source_file("results/BENCH_sim_kernel.json"),
      "\"smoke_mode\": false", "\"smoke_mode\": true");
  EXPECT_TRUE(benchgate::parse_bench_report(sim).smoke_mode);
  const std::string cache =
      replace_once(read_source_file("results/BENCH_cache.json"),
                   "\"smoke_mode\": false", "\"smoke_mode\": true");
  EXPECT_TRUE(benchgate::parse_cache_report(cache).smoke_mode);
}

TEST(BenchGateReport, MissingBlocksKeepTheirMessages) {
  const std::string sim = read_source_file("results/BENCH_sim_kernel.json");
  const std::string cache = read_source_file("results/BENCH_cache.json");
  EXPECT_EQ(error_of([&] {
              (void)benchgate::parse_bench_report(
                  replace_once(sim, "\"results\":", "\"resultz\":"));
            }),
            "bench report has no results array");
  EXPECT_EQ(error_of([&] {
              (void)benchgate::parse_cache_report(
                  replace_once(cache, "\"warm\":", "\"warmz\":"));
            }),
            "cache report has no warm hit/miss block");
  EXPECT_EQ(error_of([&] {
              (void)benchgate::parse_cache_report(
                  replace_once(cache, "\"overall\":", "\"overallz\":"));
            }),
            "cache report has no overall block");
  EXPECT_EQ(error_of([] {
              (void)benchgate::parse_bench_report("{\"results\": []}");
            }),
            "bench report has an empty results array");
  EXPECT_EQ(error_of([] { (void)benchgate::parse_bench_report("[1, 2]"); }),
            "bench report is not a JSON object");
  EXPECT_EQ(error_of([] { (void)benchgate::parse_cache_report("7"); }),
            "cache report is not a JSON object");
  EXPECT_EQ(error_of([] {
              (void)benchgate::load_bench_report("no/such/report.json");
            }),
            "cannot read bench report: no/such/report.json");
  EXPECT_EQ(error_of([] {
              (void)benchgate::load_cache_report("no/such/report.json");
            }),
            "cannot read cache report: no/such/report.json");
}

TEST(BenchGateReport, MalformedJsonSaysItDoesNotParse) {
  EXPECT_EQ(error_of([] {
              (void)benchgate::parse_bench_report("{\"results\": [");
            }).rfind("bench report does not parse: ", 0),
            0u);
  EXPECT_EQ(error_of([] {
              (void)benchgate::parse_cache_report("{\"warm\" 1}");
            }).rfind("cache report does not parse: ", 0),
            0u);
}

TEST(BenchGateReport, DeepNestingRaisesParseError) {
  const std::string deep = std::string(200000, '[');
  EXPECT_THROW((void)benchgate::parse_bench_report(
                   "{\"bench\": \"micro_engine\", \"x\": " + deep + "}"),
               json::ParseError);
  EXPECT_THROW((void)benchgate::parse_cache_report("{\"warm\": " + deep),
               json::ParseError);
}

TEST(BenchGateReport, MalformedNumberTokenDoesNotPass) {
  const std::string junk = replace_once(
      read_source_file("results/BENCH_sim_kernel.json"),
      "\"bench\": \"micro_engine\",",
      "\"bench\": \"micro_engine\", \"junk\": 1.2.3.4e5e-,");
  EXPECT_EQ(error_of([&] { (void)benchgate::parse_bench_report(junk); })
                .rfind("bench report does not parse: JSON error at line 2", 0),
            0u);
}

}  // namespace
}  // namespace lazyckpt
