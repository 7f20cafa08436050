/// Tests for the deterministic run report (src/obs/report.*, DESIGN.md
/// §5f).
///
/// The report renderer is a pure function of RunReportInputs, so the
/// central test here is an exact-JSON golden over synthetic inputs: every
/// key, every ordering rule, and every number format is pinned byte for
/// byte.  If this golden changes, kRunReportSchemaVersion must bump and
/// EXPERIMENTS.md must record why.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace {

using namespace lazyckpt;

obs::TraceEvent make_event(const char* name, obs::EventKind kind,
                           std::uint32_t tid, obs::TimeNs ts_ns) {
  obs::TraceEvent event;
  event.name = name;
  event.kind = kind;
  event.tid = tid;
  event.ts_ns = ts_ns;
  return event;
}

obs::TraceEvent make_flow(const char* name, obs::EventKind kind,
                          std::uint32_t tid, obs::TimeNs ts_ns,
                          std::uint64_t flow) {
  obs::TraceEvent event = make_event(name, kind, tid, ts_ns);
  event.flow = flow;
  return event;
}

// ---- span rollup ---------------------------------------------------------

TEST(ReportRollup, AggregatesNestedSpansWithSelfTime) {
  std::vector<obs::TraceEvent> events;
  events.push_back(make_event("outer", obs::EventKind::kBegin, 0, 1'000));
  events.push_back(make_event("inner", obs::EventKind::kBegin, 0, 2'000));
  events.push_back(make_event("inner", obs::EventKind::kEnd, 0, 4'000));
  events.push_back(make_event("outer", obs::EventKind::kEnd, 0, 10'000));

  const auto rollups = obs::rollup_spans(events);
  ASSERT_EQ(rollups.size(), 2u);
  // Sorted by self time descending: outer 9 µs total, 7 µs self.
  EXPECT_EQ(rollups[0].name, "outer");
  EXPECT_EQ(rollups[0].count, 1u);
  EXPECT_EQ(rollups[0].total_ns, 9'000u);
  EXPECT_EQ(rollups[0].self_ns, 7'000u);
  EXPECT_EQ(rollups[1].name, "inner");
  EXPECT_EQ(rollups[1].total_ns, 2'000u);
  EXPECT_EQ(rollups[1].self_ns, 2'000u);
}

TEST(ReportRollup, ThreadsRollUpIndependentlyAndStrayEndsAreIgnored) {
  std::vector<obs::TraceEvent> events;
  // tid 0 and tid 1 interleave in the drained stream; each has its own
  // stack, so the cross-thread interleaving must not create nesting.
  events.push_back(make_event("a", obs::EventKind::kBegin, 0, 1'000));
  events.push_back(make_event("b", obs::EventKind::kBegin, 1, 1'500));
  events.push_back(make_event("a", obs::EventKind::kEnd, 0, 3'000));
  events.push_back(make_event("b", obs::EventKind::kEnd, 1, 5'500));
  // A stray end with no open begin is skipped, not crashed on.
  events.push_back(make_event("ghost", obs::EventKind::kEnd, 2, 9'000));

  const auto rollups = obs::rollup_spans(events);
  ASSERT_EQ(rollups.size(), 2u);
  EXPECT_EQ(rollups[0].name, "b");
  EXPECT_EQ(rollups[0].total_ns, 4'000u);
  EXPECT_EQ(rollups[0].self_ns, 4'000u);
  EXPECT_EQ(rollups[1].name, "a");
  EXPECT_EQ(rollups[1].total_ns, 2'000u);
}

// ---- run report golden ---------------------------------------------------

/// Assemble the synthetic inputs the golden pins.  Built from scratch on
/// every call so the rebuild-determinism test exercises the whole
/// pipeline, not a cached string.
obs::RunReportInputs golden_inputs(obs::Registry& registry) {
  obs::RunReportInputs inputs;
  inputs.tool = "unit-test";
  inputs.scenarios = {"alpha", "beta"};
  inputs.machine = {{"cores", "8"}, {"label", "\"demo\""}};

  inputs.events.push_back(
      make_event("outer", obs::EventKind::kBegin, 0, 1'000));
  inputs.events.push_back(
      make_event("inner", obs::EventKind::kBegin, 0, 2'000));
  inputs.events.push_back(make_event("inner", obs::EventKind::kEnd, 0, 4'000));
  inputs.events.push_back(
      make_event("outer", obs::EventKind::kEnd, 0, 10'000));
  inputs.events.push_back(
      make_flow("spec.flow", obs::EventKind::kFlowBegin, 0, 1'100, 7));
  inputs.events.push_back(
      make_flow("spec.flow", obs::EventKind::kFlowEnd, 0, 9'900, 7));

  registry.counter("cache.hits").add(3);
  registry.gauge("sim.replicas_done").record_max(2.0);
  const double bounds[] = {1.0, 2.0};
  obs::Histogram& hist =
      registry.histogram("cr.write_latency_seconds", {bounds, 2});
  hist.observe(0.5);
  hist.observe(1.5);
  inputs.metrics = registry.snapshot();

  inputs.has_cache = true;
  inputs.cache_hits = 3;
  inputs.cache_misses = 1;
  inputs.cache_bytes_read = 64;
  inputs.cache_bytes_written = 128;
  inputs.cache_evictions = 0;
  return inputs;
}

const char kGoldenReport[] =
    "{\n"
    "  \"schema\": \"lazyckpt-run-report\",\n"
    "  \"version\": 1,\n"
    "  \"tool\": \"unit-test\",\n"
    "  \"scenarios\": [\"alpha\", \"beta\"],\n"
    "  \"machine\": {\n"
    "    \"cores\": 8,\n"
    "    \"label\": \"demo\"\n"
    "  },\n"
    "  \"trace\": {\"events\": 6, \"flows\": 1},\n"
    "  \"spans\": [\n"
    "    {\"name\": \"outer\", \"count\": 1, \"total_us\": 9.000, "
    "\"self_us\": 7.000},\n"
    "    {\"name\": \"inner\", \"count\": 1, \"total_us\": 2.000, "
    "\"self_us\": 2.000}\n"
    "  ],\n"
    "  \"cache\": {\"hits\": 3, \"misses\": 1, \"bytes_read\": 64, "
    "\"bytes_written\": 128, \"evictions\": 0},\n"
    "  \"metrics\": {\n"
    "    \"cache.hits\": 3,\n"
    "    \"cr.write_latency_seconds\": {\"buckets\": [1, 2], "
    "\"counts\": [1, 1, 0]},\n"
    "    \"sim.replicas_done\": 2\n"
    "  }\n"
    "}\n";

TEST(RunReport, RendersExactGoldenJson) {
  obs::Registry registry;
  EXPECT_EQ(obs::render_run_report(golden_inputs(registry)), kGoldenReport);
}

TEST(RunReport, ByteIdenticalAcrossIndependentRebuilds) {
  obs::Registry first_registry;
  obs::Registry second_registry;
  const std::string a = obs::render_run_report(golden_inputs(first_registry));
  const std::string b =
      obs::render_run_report(golden_inputs(second_registry));
  EXPECT_EQ(a, b);
}

TEST(RunReport, EmptyInputsRenderEmptyBlocks) {
  obs::RunReportInputs inputs;
  inputs.tool = "t";
  const std::string json = obs::render_run_report(inputs);
  EXPECT_NE(json.find("\"scenarios\": []"), std::string::npos) << json;
  EXPECT_NE(json.find("\"machine\": {}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"trace\": {\"events\": 0, \"flows\": 0}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"spans\": []"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"cache\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"metrics\": {}"), std::string::npos) << json;
  EXPECT_EQ(json.back(), '\n');
}

TEST(RunReport, WriteFileRoundTripsAndReportsFailure) {
  obs::Registry registry;
  const obs::RunReportInputs inputs = golden_inputs(registry);
  const std::string path =
      ::testing::TempDir() + "/lazyckpt_test_run_report.json";
  ASSERT_TRUE(obs::write_run_report_file(inputs, path));

  std::FILE* in = std::fopen(path.c_str(), "rb");
  ASSERT_NE(in, nullptr);
  std::string bytes;
  char buf[512];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) {
    bytes.append(buf, n);
  }
  std::fclose(in);
  std::remove(path.c_str());
  EXPECT_EQ(bytes, kGoldenReport);

  EXPECT_FALSE(obs::write_run_report_file(
      inputs, "/nonexistent-lazyckpt-dir/report.json"));
}

/// The simulator's per-tier histogram (src/sim/hierarchy.cpp) renders in
/// the metrics block under its exact name: a zero bound prints as 0, and
/// an observation equal to a bound counts in that bound's bucket.
TEST(RunReport, TierRestoreLevelRendersInMetricsBlock) {
  obs::Registry registry;
  const double level_bounds[] = {0.0, 1.0, 2.0, 3.0};
  obs::Histogram& levels =
      registry.histogram("sim.tier.restore_level", {level_bounds, 4});
  levels.observe(0.0);
  levels.observe(0.0);
  levels.observe(2.0);

  obs::RunReportInputs inputs;
  inputs.tool = "unit-test";
  inputs.metrics = registry.snapshot();
  const std::string json = obs::render_run_report(inputs);
  EXPECT_NE(
      json.find("\"sim.tier.restore_level\": {\"buckets\": [0, 1, 2, 3], "
                "\"counts\": [2, 0, 1, 0, 0]}"),
      std::string::npos)
      << json;
}

}  // namespace
