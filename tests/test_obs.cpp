/// Tests for the observability layer (src/obs, DESIGN.md §5f).
///
/// Three layers of guarantees:
///   * unit behaviour of the clock shim, metrics instruments, and trace
///     buffers,
///   * a byte-exact Chrome-trace golden recorded under a FakeClock — the
///     serialization contract the lazyckpt-trace tool parses,
///   * the "observe, never perturb" invariant: simulate() produces
///     bit-identical RunMetrics whether telemetry records or not.
///
/// The trace-tool round trip (parse → validate → summarize) runs in-process
/// against lazyckpt_trace_core, so the emitter and the tool are pinned to
/// the same format by a fast unit test, not only by the bench_smoke
/// integration case.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.hpp"
#include "core/model/oci.hpp"
#include "core/policy/factory.hpp"
#include "io/hierarchy.hpp"
#include "io/storage_model.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/batch.hpp"
#include "sim/engine.hpp"
#include "sim/failure_source.hpp"
#include "sim/hierarchy.hpp"
#include "sim/sweep.hpp"
#include "stats/exponential.hpp"
#include "trace_tool.hpp"

namespace {

using namespace lazyckpt;

/// Saves/restores the process-wide telemetry state so these tests behave
/// identically run standalone or under `LAZYCKPT_TRACE=1 ctest` (where
/// recording is already on at load).
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = obs::enabled();
    obs::set_enabled(false);
    obs::reset_trace_buffers();
  }
  void TearDown() override {
    obs::reset_trace_buffers();
    obs::set_enabled(was_enabled_);
  }

 private:
  bool was_enabled_ = false;
};

// ---- clock shim ----------------------------------------------------------

TEST_F(ObsTest, FakeClockAdvancesAndJumps) {
  obs::FakeClock clock;
  EXPECT_EQ(clock.now_ns(), 0u);
  clock.advance_ns(250);
  EXPECT_EQ(clock.now_ns(), 250u);
  clock.set_ns(1'000'000);
  EXPECT_EQ(clock.now_ns(), 1'000'000u);
}

TEST_F(ObsTest, ScopedOverrideInstallsAndRestores) {
  obs::FakeClock fake;
  fake.set_ns(42);
  {
    const obs::ScopedClockOverride override_scope(fake);
    EXPECT_EQ(obs::process_clock().now_ns(), 42u);
    fake.advance_ns(8);
    EXPECT_EQ(obs::process_clock().now_ns(), 50u);
  }
  // Back on the steady clock: readings move forward, not back to 50.
  const obs::TimeNs a = obs::process_clock().now_ns();
  const obs::TimeNs b = obs::process_clock().now_ns();
  EXPECT_LE(a, b);
}

// ---- metrics instruments -------------------------------------------------

TEST_F(ObsTest, CounterGaugeHistogramBasics) {
  obs::Counter counter;
  counter.add();
  counter.add(9);
  EXPECT_EQ(counter.value(), 10u);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);

  obs::Gauge gauge;
  gauge.set(3.5);
  gauge.record_max(2.0);  // lower: ignored
  EXPECT_EQ(std::bit_cast<std::uint64_t>(gauge.value()),
            std::bit_cast<std::uint64_t>(3.5));
  gauge.record_max(7.0);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(gauge.value()),
            std::bit_cast<std::uint64_t>(7.0));

  const double bounds[] = {1.0, 10.0, 100.0};
  obs::Histogram hist{{bounds, 3}};
  hist.observe(0.5);    // bucket 0
  hist.observe(1.0);    // <= 1.0: still bucket 0
  hist.observe(50.0);   // bucket 2
  hist.observe(999.0);  // overflow
  const auto counts = hist.counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 0u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(hist.total(), 4u);
  hist.reset();
  EXPECT_EQ(hist.total(), 0u);
}

TEST_F(ObsTest, RegistryFindsOrCreatesAndSnapshotsInNameOrder) {
  obs::Registry registry;
  obs::Counter& c1 = registry.counter("zz.last");
  obs::Counter& c2 = registry.counter("zz.last");
  EXPECT_EQ(&c1, &c2);  // cached references stay valid
  c1.add(3);
  registry.gauge("aa.first").set(1.25);
  const double bounds[] = {2.0};
  registry.histogram("mm.middle", {bounds, 1}).observe(1.0);

  const obs::MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.entries.size(), 3u);
  EXPECT_EQ(snap.entries[0].name, "aa.first");
  EXPECT_EQ(snap.entries[1].name, "mm.middle");
  EXPECT_EQ(snap.entries[2].name, "zz.last");

  const obs::MetricValue* counter_entry = snap.find("zz.last");
  ASSERT_NE(counter_entry, nullptr);
  EXPECT_EQ(counter_entry->count, 3u);
  EXPECT_EQ(snap.find("no.such"), nullptr);

  const std::string json = snap.to_json("  ");
  EXPECT_NE(json.find("\"aa.first\": 1.25"), std::string::npos) << json;
  EXPECT_NE(json.find("\"zz.last\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"buckets\""), std::string::npos) << json;

  registry.reset_values();
  EXPECT_EQ(c1.value(), 0u);
  // Instruments stay registered after a value reset.
  EXPECT_EQ(registry.snapshot().entries.size(), 3u);
}

// ---- trace recording -----------------------------------------------------

TEST_F(ObsTest, DisabledRecordingBuffersNothing) {
  ASSERT_FALSE(obs::enabled());
  {
    const obs::TraceSpan span("quiet");
    obs::instant("quiet.mark");
    obs::counter("quiet.count", 1.0);
  }
  EXPECT_EQ(obs::buffered_event_count(), 0u);
}

TEST_F(ObsTest, SpanCapturesEnabledStateAtConstruction) {
  obs::set_enabled(true);
  {
    const obs::TraceSpan span("closes.anyway");
    obs::set_enabled(false);
    // The span was armed while enabled, so its end event still records.
  }
  const auto events = obs::drain_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, obs::EventKind::kBegin);
  EXPECT_EQ(events[1].kind, obs::EventKind::kEnd);
}

/// The byte-exact serialization golden: a known event sequence recorded
/// under a FakeClock must render to exactly this Chrome-trace JSON.  If
/// this test changes, lazyckpt-trace and the DESIGN.md format notes must
/// move with it.
TEST_F(ObsTest, FakeClockTraceRendersExactJson) {
  obs::FakeClock clock;
  const obs::ScopedClockOverride override_scope(clock);
  obs::set_enabled(true);

  clock.set_ns(1'000);
  obs::record_begin("alpha");
  clock.set_ns(2'500);
  obs::instant("mark");
  clock.set_ns(3'000);
  obs::counter("items", 3.0);
  clock.set_ns(4'000);
  obs::record_begin("beta");
  clock.set_ns(6'500);
  obs::record_end("beta");
  clock.set_ns(9'999);
  obs::record_end("alpha");

  const std::string json = obs::render_chrome_trace(obs::drain_events());
  const std::string expected =
      "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
      "{\"name\": \"alpha\", \"cat\": \"lazyckpt\", \"ph\": \"B\", "
      "\"pid\": 1, \"tid\": 0, \"ts\": 1.000},\n"
      "{\"name\": \"mark\", \"cat\": \"lazyckpt\", \"ph\": \"i\", "
      "\"pid\": 1, \"tid\": 0, \"ts\": 2.500, \"s\": \"t\"},\n"
      "{\"name\": \"items\", \"cat\": \"lazyckpt\", \"ph\": \"C\", "
      "\"pid\": 1, \"tid\": 0, \"ts\": 3.000, \"args\": {\"value\": 3}},\n"
      "{\"name\": \"beta\", \"cat\": \"lazyckpt\", \"ph\": \"B\", "
      "\"pid\": 1, \"tid\": 0, \"ts\": 4.000},\n"
      "{\"name\": \"beta\", \"cat\": \"lazyckpt\", \"ph\": \"E\", "
      "\"pid\": 1, \"tid\": 0, \"ts\": 6.500},\n"
      "{\"name\": \"alpha\", \"cat\": \"lazyckpt\", \"ph\": \"E\", "
      "\"pid\": 1, \"tid\": 0, \"ts\": 9.999}\n"
      "]}\n";
  EXPECT_EQ(json, expected);
}

/// Parse → validate → summarize the rendered golden with the actual
/// lazyckpt-trace engine: emitter and tool agree on the format.
TEST_F(ObsTest, TraceToolRoundTripsRenderedOutput) {
  obs::FakeClock clock;
  const obs::ScopedClockOverride override_scope(clock);
  obs::set_enabled(true);

  clock.set_ns(1'000);
  obs::record_begin("alpha");
  clock.set_ns(4'000);
  obs::record_begin("beta");
  clock.set_ns(6'500);
  obs::record_end("beta");
  clock.set_ns(10'000);
  obs::record_end("alpha");
  obs::counter("items", 3.0);

  const std::string json = obs::render_chrome_trace(obs::drain_events());
  const tracetool::ParsedTrace trace = tracetool::parse_trace(json);
  ASSERT_EQ(trace.events.size(), 5u);
  EXPECT_TRUE(tracetool::validate(trace).empty());

  const auto stats = tracetool::summarize(trace);
  ASSERT_EQ(stats.size(), 2u);
  // alpha: total 9 µs, self 9 - 2.5 = 6.5 µs — ranks above beta (2.5/2.5).
  EXPECT_EQ(stats[0].name, "alpha");
  EXPECT_EQ(stats[0].count, 1u);
  EXPECT_NEAR(stats[0].total_us, 9.0, 1e-9);
  EXPECT_NEAR(stats[0].self_us, 6.5, 1e-9);
  EXPECT_EQ(stats[1].name, "beta");
  EXPECT_NEAR(stats[1].total_us, 2.5, 1e-9);
  EXPECT_NEAR(stats[1].self_us, 2.5, 1e-9);
}

TEST_F(ObsTest, TraceToolDiffRoundTripsThroughRecorder) {
  obs::FakeClock clock;
  const obs::ScopedClockOverride override_scope(clock);
  obs::set_enabled(true);

  // Profile A: alpha spends 9 µs (6.5 self), beta 2.5 µs, gamma 1 µs.
  clock.set_ns(1'000);
  obs::record_begin("alpha");
  clock.set_ns(4'000);
  obs::record_begin("beta");
  clock.set_ns(6'500);
  obs::record_end("beta");
  clock.set_ns(10'000);
  obs::record_end("alpha");
  clock.set_ns(10'000);
  obs::record_begin("gamma");
  clock.set_ns(11'000);
  obs::record_end("gamma");
  const tracetool::ParsedTrace trace_a =
      tracetool::parse_trace(obs::render_chrome_trace(obs::drain_events()));

  // Profile B: beta shrinks to 0.5 µs, gamma disappears, delta appears.
  clock.set_ns(1'000);
  obs::record_begin("alpha");
  clock.set_ns(4'000);
  obs::record_begin("beta");
  clock.set_ns(4'500);
  obs::record_end("beta");
  clock.set_ns(10'000);
  obs::record_end("alpha");
  clock.set_ns(10'000);
  obs::record_begin("delta");
  clock.set_ns(10'200);
  obs::record_end("delta");
  const tracetool::ParsedTrace trace_b =
      tracetool::parse_trace(obs::render_chrome_trace(obs::drain_events()));

  const auto profile_a = tracetool::summarize(trace_a);
  const auto profile_b = tracetool::summarize(trace_b);
  const auto deltas = tracetool::diff_profiles(profile_a, profile_b);
  ASSERT_EQ(deltas.size(), 4u);

  // Sorted by |delta| descending, then name.  alpha: self 6.5 -> 8.5 µs.
  EXPECT_EQ(deltas[0].name, "alpha");
  EXPECT_NEAR(deltas[0].delta_us(), 2.0, 1e-9);
  // beta: 2.5 -> 0.5 µs.
  EXPECT_EQ(deltas[1].name, "beta");
  EXPECT_NEAR(deltas[1].delta_us(), -2.0, 1e-9);
  // gamma removed (1 -> 0), delta added (0 -> 0.2); |1.0| > |0.2|.
  EXPECT_EQ(deltas[2].name, "gamma");
  EXPECT_EQ(deltas[2].count_a, 1u);
  EXPECT_EQ(deltas[2].count_b, 0u);
  EXPECT_NEAR(deltas[2].delta_us(), -1.0, 1e-9);
  EXPECT_EQ(deltas[3].name, "delta");
  EXPECT_EQ(deltas[3].count_a, 0u);
  EXPECT_EQ(deltas[3].count_b, 1u);
  EXPECT_NEAR(deltas[3].delta_us(), 0.2, 1e-9);

  // diff(b, a) is the exact negation, in the same order.
  const auto reversed = tracetool::diff_profiles(profile_b, profile_a);
  ASSERT_EQ(reversed.size(), deltas.size());
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    EXPECT_EQ(reversed[i].name, deltas[i].name);
    EXPECT_NEAR(reversed[i].delta_us(), -deltas[i].delta_us(), 1e-9);
    EXPECT_EQ(reversed[i].count_a, deltas[i].count_b);
    EXPECT_EQ(reversed[i].count_b, deltas[i].count_a);
  }

  // Rendering is deterministic and truncates past top_n with a footer.
  const std::string table = tracetool::render_diff(deltas, 10);
  EXPECT_EQ(table, tracetool::render_diff(deltas, 10));
  EXPECT_NE(table.find("alpha"), std::string::npos);
  EXPECT_NE(table.find("+"), std::string::npos);
  const std::string truncated = tracetool::render_diff(deltas, 2);
  EXPECT_NE(truncated.find("2 more span name(s)"), std::string::npos);
  EXPECT_EQ(truncated.find("gamma"), std::string::npos);
}

// ---- span arguments and flow events --------------------------------------

/// Byte-exact golden for the argument and flow serialization added in
/// DESIGN.md §5f: string args quoted, numeric args as %.17g, flow events
/// with a numeric "id" and "bp": "e" on the end.
TEST_F(ObsTest, FakeClockArgsAndFlowsRenderExactJson) {
  obs::FakeClock clock;
  const obs::ScopedClockOverride override_scope(clock);
  obs::set_enabled(true);

  clock.set_ns(1'000);
  {
    obs::TraceSpan span("spec.run", {obs::TraceArg::str("scenario", "fig13"),
                                     obs::TraceArg::num("replicas", 200.0)});
    clock.set_ns(2'000);
    obs::flow_begin("spec.flow", 7);
    clock.set_ns(3'000);
    obs::flow_step("spec.flow", 7);
    clock.set_ns(4'000);
    obs::flow_end("spec.flow", 7);
    clock.set_ns(5'000);
    span.end_arg(obs::TraceArg::str("cache", "miss"));
  }

  const std::string json = obs::render_chrome_trace(obs::drain_events());
  const std::string expected =
      "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
      "{\"name\": \"spec.run\", \"cat\": \"lazyckpt\", \"ph\": \"B\", "
      "\"pid\": 1, \"tid\": 0, \"ts\": 1.000, "
      "\"args\": {\"scenario\": \"fig13\", \"replicas\": 200}},\n"
      "{\"name\": \"spec.flow\", \"cat\": \"lazyckpt\", \"ph\": \"s\", "
      "\"pid\": 1, \"tid\": 0, \"ts\": 2.000, \"id\": 7},\n"
      "{\"name\": \"spec.flow\", \"cat\": \"lazyckpt\", \"ph\": \"t\", "
      "\"pid\": 1, \"tid\": 0, \"ts\": 3.000, \"id\": 7},\n"
      "{\"name\": \"spec.flow\", \"cat\": \"lazyckpt\", \"ph\": \"f\", "
      "\"pid\": 1, \"tid\": 0, \"ts\": 4.000, \"id\": 7, \"bp\": \"e\"},\n"
      "{\"name\": \"spec.run\", \"cat\": \"lazyckpt\", \"ph\": \"E\", "
      "\"pid\": 1, \"tid\": 0, \"ts\": 5.000, "
      "\"args\": {\"cache\": \"miss\"}}\n"
      "]}\n";
  EXPECT_EQ(json, expected);

  // Round trip through the actual lazyckpt-trace engine.
  const tracetool::ParsedTrace trace = tracetool::parse_trace(json);
  ASSERT_EQ(trace.events.size(), 5u);
  EXPECT_TRUE(tracetool::validate(trace).empty());

  ASSERT_EQ(trace.events[0].args.size(), 2u);
  EXPECT_EQ(trace.events[0].args[0].first, "scenario");
  EXPECT_EQ(trace.events[0].args[0].second, "fig13");
  EXPECT_EQ(trace.events[0].args[1].first, "replicas");
  EXPECT_EQ(trace.events[0].args[1].second, "200");
  EXPECT_TRUE(trace.events[1].has_flow_id);
  EXPECT_EQ(trace.events[1].flow_id, 7u);
  EXPECT_EQ(trace.events[3].phase, 'f');
  ASSERT_EQ(trace.events[4].args.size(), 1u);
  EXPECT_EQ(trace.events[4].args[0].first, "cache");
  EXPECT_EQ(trace.events[4].args[0].second, "miss");

  // summarize surfaces the union of begin+end arg keys, sorted.
  const auto stats = tracetool::summarize(trace);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].name, "spec.run");
  const std::vector<std::string> want_keys = {"cache", "replicas",
                                              "scenario"};
  EXPECT_EQ(stats[0].arg_keys, want_keys);
  const std::string table = tracetool::render_summary(stats, 10);
  EXPECT_NE(table.find("cache,replicas,scenario"), std::string::npos)
      << table;

  // The CSV export joins begin and end args into one quoted-as-needed
  // column.
  const std::string csv = tracetool::export_spans_csv(trace);
  EXPECT_NE(csv.find("scenario=fig13;replicas=200;cache=miss"),
            std::string::npos)
      << csv;
}

TEST_F(ObsTest, ValidatorRejectsUnbalancedFlows) {
  obs::FakeClock clock;
  const obs::ScopedClockOverride override_scope(clock);
  obs::set_enabled(true);

  clock.set_ns(1'000);
  obs::flow_begin("spec.flow", 9);  // begin with no matching end
  const tracetool::ParsedTrace trace =
      tracetool::parse_trace(obs::render_chrome_trace(obs::drain_events()));
  const auto problems = tracetool::validate(trace);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("flow 9"), std::string::npos) << problems[0];
  EXPECT_NE(problems[0].find("end"), std::string::npos) << problems[0];
}

TEST_F(ObsTest, ScopedFlowBalancesAndPublishesCurrentFlow) {
  obs::set_enabled(true);
  EXPECT_EQ(obs::current_flow(), 0u);
  const obs::FlowId id = obs::new_flow_id();
  ASSERT_NE(id, 0u);
  {
    const obs::ScopedFlow flow("spec.flow", id);
    EXPECT_EQ(obs::current_flow(), id);
  }
  EXPECT_EQ(obs::current_flow(), 0u);

  const auto events = obs::drain_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, obs::EventKind::kFlowBegin);
  EXPECT_EQ(events[0].flow, id);
  EXPECT_EQ(events[1].kind, obs::EventKind::kFlowEnd);
  EXPECT_EQ(events[1].flow, id);

  // An id of 0 makes the scope inert: nothing recorded, nothing published.
  {
    const obs::ScopedFlow inert("spec.flow", 0);
    EXPECT_EQ(obs::current_flow(), 0u);
  }
  EXPECT_EQ(obs::buffered_event_count(), 0u);
}

// ---- critical path --------------------------------------------------------

TEST_F(ObsTest, CriticalPathWalksTheHeaviestChain) {
  obs::FakeClock clock;
  const obs::ScopedClockOverride override_scope(clock);
  obs::set_enabled(true);

  clock.set_ns(1'000);
  obs::record_begin("root");
  clock.set_ns(2'000);
  obs::record_begin("child.heavy");
  clock.set_ns(5'000);
  obs::record_end("child.heavy");
  clock.set_ns(6'000);
  obs::record_begin("child.light");
  clock.set_ns(7'000);
  obs::record_end("child.light");
  clock.set_ns(10'000);
  obs::record_end("root");
  clock.set_ns(20'000);
  obs::record_begin("other.root");
  clock.set_ns(21'000);
  obs::record_end("other.root");

  const tracetool::ParsedTrace trace =
      tracetool::parse_trace(obs::render_chrome_trace(obs::drain_events()));
  const auto path = tracetool::critical_path(trace);
  ASSERT_EQ(path.size(), 2u);
  // root is the heaviest root (9 µs > 1 µs); its heaviest child is
  // child.heavy (3 µs > 1 µs).
  EXPECT_EQ(path[0].name, "root");
  EXPECT_NEAR(path[0].total_us, 9.0, 1e-9);
  EXPECT_NEAR(path[0].self_us, 5.0, 1e-9);
  EXPECT_EQ(path[1].name, "child.heavy");
  EXPECT_NEAR(path[1].total_us, 3.0, 1e-9);
  EXPECT_NEAR(path[1].self_us, 3.0, 1e-9);

  const std::string rendered = tracetool::render_critical_path(path);
  EXPECT_EQ(rendered, tracetool::render_critical_path(path));
  EXPECT_NE(rendered.find("root"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("  child.heavy"), std::string::npos) << rendered;

  // No complete spans → empty path.
  EXPECT_TRUE(tracetool::critical_path(tracetool::ParsedTrace{}).empty());
}

// ---- observe, never perturb ---------------------------------------------

sim::RunMetrics run_reference_sim() {
  sim::SimulationConfig config;
  config.compute_hours = 200.0;
  config.alpha_oci_hours = core::daly_oci(0.5, 11.0);
  config.mtbf_hint_hours = 11.0;
  config.shape_hint = 0.6;
  const io::ConstantStorage storage(0.5, 0.5, 2.0);
  const auto policy = core::make_policy("ilazy:0.6");
  sim::RenewalFailureSource source(
      std::make_unique<stats::Exponential>(stats::Exponential::from_mean(11.0)),
      Rng(9005));
  return sim::simulate(config, *policy, source, storage, {});
}

std::string format_metrics(const sim::RunMetrics& run) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), "%a %a %a %a %a %llu %llu %llu %a",
                run.makespan_hours, run.compute_hours, run.checkpoint_hours,
                run.wasted_hours, run.restart_hours,
                static_cast<unsigned long long>(run.failures),
                static_cast<unsigned long long>(run.checkpoints_written),
                static_cast<unsigned long long>(run.checkpoints_skipped),
                run.data_written_gb);
  return buf;
}

TEST_F(ObsTest, TracingDoesNotPerturbSimulationResults) {
  obs::set_enabled(false);
  const std::string quiet = format_metrics(run_reference_sim());

  obs::set_enabled(true);
  const std::string traced = format_metrics(run_reference_sim());

  // %a round-trips doubles: string equality is bit equality per field.
  EXPECT_EQ(quiet, traced);
  // And the traced run actually recorded something (the sim.trial span).
  EXPECT_GT(obs::buffered_event_count(), 0u);
}

TEST_F(ObsTest, EnabledSimulationFlushesEngineCounters) {
  obs::set_enabled(true);
  const std::uint64_t trials_before =
      obs::metrics().counter("sim.trials").value();
  (void)run_reference_sim();
  const obs::MetricsSnapshot snap = obs::metrics().snapshot();
  const obs::MetricValue* trials = snap.find("sim.trials");
  ASSERT_NE(trials, nullptr);
  EXPECT_EQ(trials->count, trials_before + 1);
  const obs::MetricValue* dispatch = snap.find("sim.dispatch.fast");
  ASSERT_NE(dispatch, nullptr);
  EXPECT_GE(dispatch->count, 1u);
}

/// Hierarchy runs share the flat engine's event loop, so they flush the same
/// `sim.*` counter families: one trial per replica, and every tier-0 write
/// counts as a checkpoint written.  The restore-level histogram keeps its
/// buckets and sees one observation per failure.
TEST_F(ObsTest, HierarchyRunsFlushEngineCounters) {
  obs::set_enabled(true);
  const auto hierarchy =
      io::make_hierarchy("bb:beta=0.05,survivable=0.8|pfs:beta=0.5,every=4");
  sim::HierarchyConfig config;
  config.compute_hours = 120.0;
  config.alpha_oci_hours = core::daly_oci(0.05, 11.0);
  config.mtbf_hint_hours = 11.0;
  config.shape_hint = 0.6;
  const auto policy = core::make_policy("ilazy:0.6");
  const stats::Exponential mtbf = stats::Exponential::from_mean(11.0);

  obs::Counter& trials = obs::metrics().counter("sim.trials");
  obs::Counter& written = obs::metrics().counter("sim.checkpoints_written");
  const std::uint64_t trials_before = trials.value();
  const std::uint64_t written_before = written.value();
  const obs::MetricValue* level_before =
      obs::metrics().snapshot().find("sim.tier.restore_level");
  const std::uint64_t restores_before =
      level_before != nullptr ? level_before->count : 0;

  const auto runs = sim::run_hierarchy_replicas_raw(config, hierarchy,
                                                    *policy, mtbf, 6, 4242);
  std::uint64_t tier0_writes = 0;
  std::uint64_t failures = 0;
  for (const auto& run : runs) {
    tier0_writes += run.tiers[0].checkpoints;
    failures += run.failures;
  }
  ASSERT_GT(failures, 0u);
  EXPECT_EQ(trials.value(), trials_before + runs.size());
  EXPECT_EQ(written.value(), written_before + tier0_writes);

  const obs::MetricsSnapshot snap = obs::metrics().snapshot();
  const obs::MetricValue* level = snap.find("sim.tier.restore_level");
  ASSERT_NE(level, nullptr);
  EXPECT_EQ(level->count, restores_before + failures);
  EXPECT_EQ(level->bucket_bounds, (std::vector<double>{0.0, 1.0, 2.0, 3.0}));
}

/// The batch kernel flushes the scalar loop's trial counters: one eligible
/// sweep, run batched and then replica by replica through simulate(),
/// moves every `sim.*` trial counter by the same amount.
TEST_F(ObsTest, BatchedAndScalarSweepsFlushTheSameCounters) {
  obs::set_enabled(true);
  sim::SimulationConfig config;
  config.compute_hours = 200.0;
  config.alpha_oci_hours = core::daly_oci(0.5, 11.0);
  config.mtbf_hint_hours = 11.0;
  config.shape_hint = 0.6;
  config.checkpoint_blocking_fraction = 0.6;
  const io::ConstantStorage storage(0.5, 0.5, 2.0);
  const auto policy = core::make_policy("ilazy:0.6");
  const stats::Exponential mtbf = stats::Exponential::from_mean(11.0);
  ASSERT_TRUE(sim::batch_eligible(*policy, storage));
  constexpr std::size_t kReplicas = 21;
  constexpr std::uint64_t kSeed = 4243;

  constexpr const char* kCounters[] = {
      "sim.trials", "sim.events", "sim.failures", "sim.checkpoints_written",
      "sim.checkpoints_skipped", "sim.dispatch.batch"};
  const auto deltas = [&](const auto& sweep) {
    std::vector<std::uint64_t> before;
    for (const char* name : kCounters) {
      before.push_back(obs::metrics().counter(name).value());
    }
    sweep();
    std::vector<std::uint64_t> moved;
    for (std::size_t i = 0; i < std::size(kCounters); ++i) {
      moved.push_back(obs::metrics().counter(kCounters[i]).value() -
                      before[i]);
    }
    return moved;
  };
  const std::vector<std::uint64_t> batched = deltas([&] {
    (void)sim::run_replicas_batched(config, *policy, mtbf, storage, kReplicas,
                                    kSeed, 8);
  });
  const std::vector<std::uint64_t> scalar = deltas([&] {
    Rng master(kSeed);
    for (std::size_t i = 0; i < kReplicas; ++i) {
      sim::RenewalFailureSource source(mtbf, master.split());
      const auto replica_policy = policy->clone();
      (void)sim::simulate(config, *replica_policy, source, storage);
    }
  });

  EXPECT_EQ(batched[0], kReplicas);
  EXPECT_GT(batched[2], 0u) << "the sweep should see failures";
  for (std::size_t i = 0; i + 1 < std::size(kCounters); ++i) {
    EXPECT_EQ(batched[i], scalar[i]) << kCounters[i];
  }
  // Only the dispatch counter tells the paths apart.
  EXPECT_EQ(batched.back(), kReplicas);
  EXPECT_EQ(scalar.back(), 0u);
}

/// Tiered sweeps run through the same replica driver as flat ones, so they
/// feed the same `sim.replicas_done` heartbeat the progress ticker reads:
/// the gauge ends at the replica count and the counter track's last sample
/// is that count too.
TEST_F(ObsTest, HierarchyRunsFeedTheReplicasDoneHeartbeat) {
  obs::set_enabled(true);
  const auto hierarchy =
      io::make_hierarchy("bb:beta=0.05,survivable=0.8|pfs:beta=0.5,every=4");
  sim::HierarchyConfig config;
  config.compute_hours = 120.0;
  config.alpha_oci_hours = core::daly_oci(0.05, 11.0);
  config.mtbf_hint_hours = 11.0;
  config.shape_hint = 0.6;
  const auto policy = core::make_policy("ilazy:0.6");
  const stats::Exponential mtbf = stats::Exponential::from_mean(11.0);

  obs::Gauge& done = obs::metrics().gauge("sim.replicas_done");
  done.reset();
  constexpr std::size_t kReplicas = 40;
  (void)sim::run_hierarchy_replicas_raw(config, hierarchy, *policy, mtbf,
                                        kReplicas, 77);
  EXPECT_GE(done.value(), static_cast<double>(kReplicas));

  double last_sample = 0.0;
  for (const obs::TraceEvent& event : obs::drain_events()) {
    if (event.kind == obs::EventKind::kCounter &&
        std::string(event.name) == "sim.replicas_done") {
      last_sample = std::max(last_sample, event.value);
    }
  }
  EXPECT_EQ(last_sample, static_cast<double>(kReplicas));
}

/// String arguments go through the one JSON escaper: tab and newline come
/// out escaped, and lazyckpt-trace reads the original bytes back.
TEST_F(ObsTest, StringArgsEscapeControlBytesAndRoundTrip) {
  obs::FakeClock clock;
  const obs::ScopedClockOverride override_scope(clock);
  obs::set_enabled(true);

  clock.set_ns(1'000);
  obs::record_begin("alpha", {obs::TraceArg::str("label", "a\tb\nc")});
  clock.set_ns(2'000);
  obs::record_end("alpha");

  const std::string json = obs::render_chrome_trace(obs::drain_events());
  EXPECT_NE(json.find("\"args\": {\"label\": \"a\\tb\\nc\"}"),
            std::string::npos)
      << json;
  const tracetool::ParsedTrace trace = tracetool::parse_trace(json);
  ASSERT_EQ(trace.events.size(), 2u);
  EXPECT_TRUE(tracetool::validate(trace).empty());
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"label", "a\tb\nc"}};
  EXPECT_EQ(trace.events[0].args, expected);
}

/// The ISSUE's cross-thread flow contract: a ScopedFlow opened on the main
/// thread is picked up by replica workers on an 8-thread sweep, and the
/// resulting trace still resolves every flow id to exactly one balanced
/// begin/end pair (steps land on worker tids in between).
TEST_F(ObsTest, FlowIdsBalanceAcrossEightWorkerThreads) {
  obs::set_enabled(true);

  const char* old_threads = std::getenv("LAZYCKPT_THREADS");
  const std::string saved = old_threads != nullptr ? old_threads : "";
  const bool had_old = old_threads != nullptr;
  setenv("LAZYCKPT_THREADS", "8", 1);
  // Pin the batch size well below replicas/8 so the batched dispatch fans
  // the sweep into many blocks (one heartbeat + flow step each) — enough
  // that the work-stealing loop hands blocks to more than one worker.
  const char* old_batch = std::getenv("LAZYCKPT_BATCH");
  const std::string saved_batch = old_batch != nullptr ? old_batch : "";
  const bool had_batch = old_batch != nullptr;
  setenv("LAZYCKPT_BATCH", "8", 1);

  sim::SimulationConfig config;
  config.compute_hours = 120.0;
  config.alpha_oci_hours = core::daly_oci(0.5, 11.0);
  config.mtbf_hint_hours = 11.0;
  config.shape_hint = 0.6;
  const io::ConstantStorage storage(0.5, 0.5, 2.0);
  const auto policy = core::make_policy("ilazy:0.6");
  const stats::Exponential mtbf = stats::Exponential::from_mean(11.0);

  const obs::FlowId id = obs::new_flow_id();
  {
    const obs::ScopedFlow flow("spec.flow", id);
    (void)sim::run_replicas(config, *policy, mtbf, storage, 512, 9005);
    // The pool hands blocks to whichever worker wins the work-stealing
    // race, so which tids carry the sweep's steps is timing-dependent.
    // For a deterministic cross-thread check, step the flow from eight
    // explicit threads: each gets its own trace buffer (a fresh tid) and
    // reads the published id through obs::current_flow().
    std::vector<std::thread> steppers;
    steppers.reserve(8);
    for (int i = 0; i < 8; ++i) {
      steppers.emplace_back(
          [] { obs::flow_step("spec.flow", obs::current_flow()); });
    }
    for (std::thread& t : steppers) t.join();
  }
  if (had_old) {
    setenv("LAZYCKPT_THREADS", saved.c_str(), 1);
  } else {
    unsetenv("LAZYCKPT_THREADS");
  }
  if (had_batch) {
    setenv("LAZYCKPT_BATCH", saved_batch.c_str(), 1);
  } else {
    unsetenv("LAZYCKPT_BATCH");
  }

  const std::string json = obs::render_chrome_trace(obs::drain_events());
  const tracetool::ParsedTrace trace = tracetool::parse_trace(json);
  EXPECT_TRUE(tracetool::validate(trace).empty());

  std::map<std::uint64_t, std::uint64_t> starts;
  std::map<std::uint64_t, std::uint64_t> ends;
  std::size_t steps = 0;
  std::set<std::uint64_t> step_tids;
  for (const tracetool::Event& event : trace.events) {
    if (event.phase == 's') ++starts[event.flow_id];
    if (event.phase == 'f') ++ends[event.flow_id];
    if (event.phase == 't') {
      ++steps;
      step_tids.insert(event.tid);
    }
  }
  ASSERT_EQ(starts.size(), 1u);
  EXPECT_EQ(starts.begin()->first, id);
  EXPECT_EQ(starts.begin()->second, 1u);
  ASSERT_EQ(ends.size(), 1u);
  EXPECT_EQ(ends.begin()->second, 1u);
  // 512 replicas in 8-wide batches: one heartbeat step per block, plus
  // the eight explicit stepper threads on eight distinct tids.
  EXPECT_GE(steps, 16u);
  EXPECT_GE(step_tids.size(), 8u);
}

}  // namespace
