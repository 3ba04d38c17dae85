// Tests for the telemetry layer: metric registry semantics, structured
// logging, exporter formats, the Chrome trace writer, the engine
// introspection counters, and — the load-bearing guarantee — that
// attaching the full telemetry stack leaves the simulation bit-identical.

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ecocloud/core/probability.hpp"
#include "ecocloud/metrics/event_log.hpp"
#include "ecocloud/obs/chrome_trace.hpp"
#include "ecocloud/obs/exporters.hpp"
#include "ecocloud/obs/instrumentation.hpp"
#include "ecocloud/obs/logger.hpp"
#include "ecocloud/obs/metric_registry.hpp"
#include "ecocloud/obs/telemetry.hpp"
#include "ecocloud/scenario/scenario.hpp"
#include "ecocloud/sim/simulator.hpp"

using namespace ecocloud;

// ------------------------------------------------------------------ registry

TEST(MetricRegistry, RegistrationIsIdempotent) {
  obs::MetricRegistry registry;
  obs::Counter& a = registry.counter("ecocloud_test_total", {{"k", "v"}});
  obs::Counter& b = registry.counter("ecocloud_test_total", {{"k", "v"}});
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(registry.num_instances(), 1u);
}

TEST(MetricRegistry, LabelOrderDoesNotSplitSeries) {
  obs::MetricRegistry registry;
  obs::Counter& a =
      registry.counter("ecocloud_test_total", {{"b", "2"}, {"a", "1"}});
  obs::Counter& b =
      registry.counter("ecocloud_test_total", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(registry.num_instances(), 1u);
}

TEST(MetricRegistry, DistinctLabelsGetDistinctInstances) {
  obs::MetricRegistry registry;
  obs::Counter& heap = registry.counter("ecocloud_pops_total", {{"source", "heap"}});
  obs::Counter& ring = registry.counter("ecocloud_pops_total", {{"source", "ring"}});
  EXPECT_NE(&heap, &ring);
  heap.inc();
  EXPECT_EQ(heap.value(), 1u);
  EXPECT_EQ(ring.value(), 0u);
  EXPECT_EQ(registry.families().size(), 1u);
  EXPECT_EQ(registry.num_instances(), 2u);
}

TEST(MetricRegistry, TypeConflictThrows) {
  obs::MetricRegistry registry;
  registry.counter("ecocloud_thing");
  EXPECT_THROW(registry.gauge("ecocloud_thing"), std::invalid_argument);
  EXPECT_THROW(registry.histogram("ecocloud_thing", {1.0}), std::invalid_argument);
}

TEST(MetricRegistry, InvalidNamesRejected) {
  obs::MetricRegistry registry;
  EXPECT_THROW(registry.counter(""), std::invalid_argument);
  EXPECT_THROW(registry.counter("7starts_with_digit"), std::invalid_argument);
  EXPECT_THROW(registry.counter("has-dash"), std::invalid_argument);
  EXPECT_THROW(registry.counter("has space"), std::invalid_argument);
  registry.counter("ok_name:with_colon_1");  // must not throw
}

TEST(MetricRegistry, CallbackBackedMetricsSampleTheirSource) {
  obs::MetricRegistry registry;
  std::uint64_t source = 0;
  obs::Counter& c =
      registry.counter_fn("ecocloud_pull_total", [&source] { return source; });
  EXPECT_EQ(c.value(), 0u);
  source = 41;
  EXPECT_EQ(c.value(), 41u);

  double level = 0.25;
  obs::Gauge& g = registry.gauge_fn("ecocloud_level", [&level] { return level; });
  level = 0.75;
  EXPECT_DOUBLE_EQ(g.value(), 0.75);
}

TEST(MetricRegistry, HistogramBucketsAreCumulativeAtExport) {
  obs::MetricRegistry registry;
  obs::Histogram& h =
      registry.histogram("ecocloud_lat_seconds", {1.0, 5.0, 10.0});
  h.observe(0.5);   // bucket le=1
  h.observe(5.0);   // le=5 (boundary counts into its bucket)
  h.observe(7.0);   // le=10
  h.observe(99.0);  // +Inf
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 111.5);
  const auto& counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
}

TEST(MetricRegistry, DisabledRegistryHandsOutWorkingSinks) {
  obs::MetricRegistry registry;
  registry.set_enabled(false);
  obs::Counter& c = registry.counter("ecocloud_sink_total");
  obs::Gauge& g = registry.gauge("ecocloud_sink");
  obs::Histogram& h = registry.histogram("ecocloud_sink_hist", {1.0});
  c.inc();
  g.set(3.0);
  h.observe(0.5);  // must not crash; values are discarded from exports
  EXPECT_EQ(registry.num_instances(), 0u);
  EXPECT_TRUE(registry.families().empty());

  std::ostringstream out;
  obs::write_prometheus(registry, out);
  EXPECT_TRUE(out.str().empty());
}

// -------------------------------------------------------------------- logger

TEST(Logger, DefaultConstructedIsSilent) {
  obs::Logger logger;
  logger.info("test", "nobody hears this");
  EXPECT_EQ(logger.lines_written(), 0u);
  EXPECT_FALSE(logger.enabled(obs::LogLevel::kError));
}

TEST(Logger, EmitsOneJsonObjectPerLine) {
  std::ostringstream out;
  obs::Logger logger;
  logger.set_sink(&out);
  logger.set_level(obs::LogLevel::kDebug);
  logger.set_clock([] { return 12.5; });
  logger.debug("sim", "tick", {{"n", std::uint64_t{7}}});
  logger.info("dc", "msg \"quoted\"\n", {{"load", 0.5}, {"ok", true}});
  EXPECT_EQ(logger.lines_written(), 2u);

  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line,
            R"({"ts_sim":12.5,"level":"debug","component":"sim","msg":"tick","n":7})");
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line,
            R"({"ts_sim":12.5,"level":"info","component":"dc",)"
            R"("msg":"msg \"quoted\"\n","load":0.5,"ok":true})");
}

TEST(Logger, LevelThresholdFilters) {
  std::ostringstream out;
  obs::Logger logger;
  logger.set_sink(&out);
  logger.set_level(obs::LogLevel::kWarn);
  logger.trace("c", "no");
  logger.debug("c", "no");
  logger.info("c", "no");
  logger.warn("c", "yes");
  logger.error("c", "yes");
  EXPECT_EQ(logger.lines_written(), 2u);
}

TEST(Logger, ParseLogLevel) {
  EXPECT_EQ(obs::parse_log_level("trace"), obs::LogLevel::kTrace);
  EXPECT_EQ(obs::parse_log_level("debug"), obs::LogLevel::kDebug);
  EXPECT_EQ(obs::parse_log_level("info"), obs::LogLevel::kInfo);
  EXPECT_EQ(obs::parse_log_level("warn"), obs::LogLevel::kWarn);
  EXPECT_EQ(obs::parse_log_level("error"), obs::LogLevel::kError);
  EXPECT_EQ(obs::parse_log_level("off"), obs::LogLevel::kOff);
  EXPECT_FALSE(obs::parse_log_level("loud").has_value());
  EXPECT_FALSE(obs::parse_log_level("").has_value());
}

// ----------------------------------------------------------------- exporters

TEST(PrometheusExporter, WritesExpositionFormat) {
  obs::MetricRegistry registry;
  registry.counter("ecocloud_pops_total", {{"source", "heap"}}, "Pop count")
      .inc(5);
  registry.counter("ecocloud_pops_total", {{"source", "ring"}}, "Pop count")
      .inc(7);
  registry.gauge("ecocloud_load", {}, "Overall load").set(0.625);
  obs::Histogram& h = registry.histogram("ecocloud_lat_seconds", {1.0, 5.0},
                                         {}, "Latency");
  h.observe(0.5);
  h.observe(3.0);
  h.observe(100.0);

  std::ostringstream out;
  obs::write_prometheus(registry, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("# HELP ecocloud_pops_total Pop count\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ecocloud_pops_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("ecocloud_pops_total{source=\"heap\"} 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("ecocloud_pops_total{source=\"ring\"} 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ecocloud_load gauge\n"), std::string::npos);
  EXPECT_NE(text.find("ecocloud_load 0.625\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ecocloud_lat_seconds histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("ecocloud_lat_seconds_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("ecocloud_lat_seconds_bucket{le=\"5\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("ecocloud_lat_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("ecocloud_lat_seconds_count 3\n"), std::string::npos);
}

TEST(PrometheusExporter, EscapesLabelValuesAndHelp) {
  obs::MetricRegistry registry;
  registry.counter("ecocloud_esc_total", {{"path", "a\\b\"c\nd"}},
                   "help with \\ and\nnewline");
  std::ostringstream out;
  obs::write_prometheus(registry, out);
  const std::string text = out.str();
  EXPECT_NE(text.find(R"(path="a\\b\"c\nd")"), std::string::npos);
  EXPECT_NE(text.find("# HELP ecocloud_esc_total help with \\\\ and\\nnewline\n"),
            std::string::npos);
}

TEST(JsonExporter, WritesSnapshot) {
  obs::MetricRegistry registry;
  registry.counter("ecocloud_c_total", {{"k", "v"}}, "A counter").inc(9);
  registry.histogram("ecocloud_h_seconds", {2.0}).observe(1.0);
  std::ostringstream out;
  obs::write_json(registry, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"name\": \"ecocloud_c_total\""), std::string::npos);
  EXPECT_NE(text.find("\"type\": \"counter\""), std::string::npos);
  EXPECT_NE(text.find("\"value\": 9"), std::string::npos);
  EXPECT_NE(text.find("\"type\": \"histogram\""), std::string::npos);
  EXPECT_NE(text.find("\"count\": 1"), std::string::npos);
}

// -------------------------------------------------------------- chrome trace

TEST(ChromeTrace, SerializesEventsWithMicrosecondTimestamps) {
  obs::ChromeTraceWriter trace;
  trace.name_process(1, "servers");
  trace.name_thread(1, 17, "server 17");
  trace.complete("active", "server-state", 2.0, 3.5, 1, 17);
  trace.instant("crash", "fault", 4.0, 1, 17, {{"vm", std::int64_t{5}}});
  trace.counter("servers", 6.0, 3, {{"active", std::int64_t{12}}});
  EXPECT_EQ(trace.size(), 5u);

  std::ostringstream out;
  trace.write(out);
  const std::string text = out.str();
  EXPECT_EQ(text.front(), '{');
  EXPECT_NE(text.find("\"traceEvents\":["), std::string::npos);
  // 2 s -> 2,000,000 us; durations likewise.
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ts\":2000000"), std::string::npos);
  EXPECT_NE(text.find("\"dur\":3500000"), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(text.find("\"args\":{\"active\":12}"), std::string::npos);
}

// ------------------------------------------------------------- engine stats

TEST(EngineStats, CountsSchedulingFiringAndCancels) {
  sim::Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  auto cancelled = sim.schedule_at(2.0, [&] { ++fired; });
  auto periodic = sim.schedule_periodic(1.0, [&] { ++fired; }, 0.5);
  ASSERT_TRUE(cancelled.cancel());
  EXPECT_FALSE(cancelled.cancel());  // second cancel is stale

  sim.run_until(3.0);
  periodic.cancel();

  const sim::EngineStats& stats = sim.stats();
  EXPECT_EQ(stats.scheduled_one_shot, 2u);
  EXPECT_EQ(stats.scheduled_periodic, 1u);
  EXPECT_EQ(stats.fired_one_shot, 1u);
  EXPECT_EQ(stats.fired_periodic, 3u);  // t = 0.5, 1.5, 2.5
  EXPECT_EQ(stats.fired_from_heap + stats.fired_from_ring, 4u);
  EXPECT_EQ(stats.cancels, 2u);
  EXPECT_EQ(stats.stale_cancels, 1u);
  EXPECT_GE(stats.slab_high_water, 2u);
  EXPECT_EQ(fired, 4);
}

// ----------------------------------------------------------- bernoulli tally

TEST(BernoulliTally, RecordsOutcomes) {
  core::BernoulliTally tally;
  tally.record(true);
  tally.record(true);
  tally.record(false);
  EXPECT_EQ(tally.accepts, 2u);
  EXPECT_EQ(tally.rejects, 1u);
  EXPECT_EQ(tally.trials(), 3u);
}

// ------------------------------------------------- instrumentation smoke run

namespace {

scenario::DailyConfig small_config() {
  scenario::DailyConfig config;
  config.fleet.num_servers = 30;
  config.num_vms = 450;
  config.horizon_s = 6.0 * sim::kHour;
  config.warmup_s = 1.0 * sim::kHour;
  config.seed = 20130520;
  return config;
}

/// Run \p daily in 300 s slices, flushing \p instr at every slice
/// boundary (a safe point), as the drivers do.
void run_flushing(scenario::DailyScenario& daily, obs::Instrumentation& instr) {
  daily.start();
  for (sim::SimTime t = 300.0;; t += 300.0) {
    const bool done = daily.run_slice(t);
    instr.flush_now(daily.simulator().now());
    if (done) break;
  }
  daily.finish();
}

}  // namespace

TEST(Instrumentation, PopulatesMetricsLogAndTrace) {
  scenario::DailyScenario daily(small_config());

  obs::MetricRegistry registry;
  std::ostringstream log_out;
  obs::Logger logger;
  logger.set_sink(&log_out);
  logger.set_level(obs::LogLevel::kInfo);
  logger.set_clock([&daily] { return daily.simulator().now(); });
  obs::ChromeTraceWriter trace;
  obs::Instrumentation instr(registry, logger, &trace);
  instr.attach_engine(daily.simulator());
  instr.attach_datacenter(daily.datacenter());
  instr.attach_controller(*daily.ecocloud());

  run_flushing(daily, instr);
  instr.finalize(daily.simulator().now());

  const auto* executed =
      registry.find_counter("ecocloud_engine_executed_events_total");
  ASSERT_NE(executed, nullptr);
  EXPECT_EQ(executed->value(), daily.simulator().executed_events());

  // The owned event counters see the whole run from t = 0; the scenario
  // resets the datacenter/controller counters at the end of warm-up, so
  // the telemetry values are an upper bound of the post-warmup ones.
  const auto* activations = registry.find_counter("ecocloud_events_total",
                                                  {{"kind", "activation"}});
  ASSERT_NE(activations, nullptr);
  EXPECT_GT(activations->value(), 0u);
  EXPECT_GE(activations->value(), daily.datacenter().total_activations());

  const auto* wake_latency =
      registry.find_histogram("ecocloud_wake_latency_seconds");
  ASSERT_NE(wake_latency, nullptr);
  EXPECT_GT(wake_latency->count(), 0u);
  EXPECT_GE(wake_latency->count(), daily.ecocloud()->wake_ups());
  // Default boot time is 120 s, so every uncontended wake lands there.
  EXPECT_GE(wake_latency->sum(),
            120.0 * static_cast<double>(wake_latency->count()));

  const auto* trials = registry.find_counter(
      "ecocloud_bernoulli_trials_total",
      {{"function", "fa"}, {"outcome", "accept"}});
  ASSERT_NE(trials, nullptr);
  EXPECT_GT(trials->value(), 0u);

  EXPECT_GT(logger.lines_written(), 0u);
  EXPECT_GT(trace.size(), 0u);

  // Exports of a real run must serialize without throwing.
  std::ostringstream prom, json, tr;
  obs::write_prometheus(registry, prom);
  obs::write_json(registry, json);
  trace.write(tr);
  EXPECT_FALSE(prom.str().empty());
  EXPECT_FALSE(json.str().empty());
  EXPECT_FALSE(tr.str().empty());
}

// --------------------------------------------------- pure-observer guarantee

// The tentpole invariant: running with the full telemetry stack attached
// (registry + logger + trace + a flush at every 300 s safe point) produces
// exactly the same decision event stream and aggregates as a bare run.
// Faults are enabled so the failure-path instrumentation is covered too.
// Flushes happen between slices, outside the calendar, so even
// executed_events() matches.
TEST(ObsRegression, EventStreamBitIdenticalWithTelemetry) {
  scenario::DailyConfig config = small_config();
  config.horizon_s = 12.0 * sim::kHour;
  config.faults.server_mtbf_s = 6.0 * sim::kHour;
  config.faults.server_mttr_s = 1800.0;

  // Bare run: only the event log observing.
  scenario::DailyScenario bare(config);
  metrics::EventLog bare_log;
  bare_log.attach(*bare.ecocloud());
  bare.run();
  std::ostringstream bare_csv;
  bare_log.write_csv(bare_csv);

  // Instrumented run: event log plus the full telemetry stack.
  scenario::DailyScenario instr_run(config);
  metrics::EventLog instr_log;
  instr_log.attach(*instr_run.ecocloud());
  obs::MetricRegistry registry;
  std::ostringstream log_out;
  obs::Logger logger;
  logger.set_sink(&log_out);
  logger.set_level(obs::LogLevel::kTrace);
  logger.set_clock([&instr_run] { return instr_run.simulator().now(); });
  obs::ChromeTraceWriter trace;
  obs::Instrumentation instr(registry, logger, &trace);
  instr.attach_engine(instr_run.simulator());
  instr.attach_datacenter(instr_run.datacenter());
  instr.attach_controller(*instr_run.ecocloud());
  if (instr_run.fault_injector() != nullptr) {
    instr.attach_faults(*instr_run.fault_injector());
  }
  run_flushing(instr_run, instr);
  instr.finalize(instr_run.simulator().now());

  ASSERT_NE(instr_run.fault_injector(), nullptr);
  EXPECT_GT(instr_run.fault_injector()->stats().crashes(), 0u);

  // Decision streams byte-identical.
  std::ostringstream instr_csv;
  instr_log.write_csv(instr_csv);
  EXPECT_EQ(bare_csv.str(), instr_csv.str());
  EXPECT_GT(bare_log.size(), 0u);

  // Aggregates exactly equal.
  EXPECT_EQ(bare.datacenter().energy_joules(),
            instr_run.datacenter().energy_joules());
  EXPECT_EQ(bare.datacenter().total_migrations(),
            instr_run.datacenter().total_migrations());
  EXPECT_EQ(bare.datacenter().total_activations(),
            instr_run.datacenter().total_activations());
  EXPECT_EQ(bare.datacenter().total_hibernations(),
            instr_run.datacenter().total_hibernations());
  EXPECT_EQ(bare.datacenter().overload_vm_seconds(),
            instr_run.datacenter().overload_vm_seconds());
  EXPECT_EQ(bare.ecocloud()->messages().total(),
            instr_run.ecocloud()->messages().total());
  EXPECT_EQ(bare.ecocloud()->low_migrations(),
            instr_run.ecocloud()->low_migrations());
  EXPECT_EQ(bare.ecocloud()->high_migrations(),
            instr_run.ecocloud()->high_migrations());

  EXPECT_EQ(instr_run.simulator().executed_events(),
            bare.simulator().executed_events());
}

// The Sec. IV driver under the same stack the CLI builds: a trace,
// trace-level logs and a flush at every safe point leave the collector's
// samples and the executed events exactly the bare run's.
TEST(ObsRegression, ConsolidationRunIdenticalWithTelemetry) {
  scenario::ConsolidationConfig config;
  config.num_servers = 30;
  config.initial_vms = 300;
  config.horizon_s = 3.0 * sim::kHour;
  config.mean_lifetime_s = sim::kHour;
  config.seed = 11;

  scenario::ConsolidationScenario bare(config);
  bare.run();

  scenario::ConsolidationScenario observed(config);
  std::ostringstream log;
  obs::Telemetry telemetry({{.simulator = &observed.simulator(),
                             .datacenter = &observed.datacenter(),
                             .controller = &observed.controller()}},
                           {.trace = true,
                            .log_level = obs::LogLevel::kTrace,
                            .log_out = &log});
  telemetry.attach_robustness([] { return obs::RobustnessSample{}; });
  std::size_t safe_points = 0;
  observed.on_safe_point = [&](sim::SimTime t) {
    telemetry.flush_now(t);
    ++safe_points;
  };
  observed.run();
  telemetry.finalize(config.horizon_s);

  EXPECT_EQ(safe_points,
            static_cast<std::size_t>(config.horizon_s / scenario::kSafePointPeriodS));
  EXPECT_GT(telemetry.log_lines(), 0u);
  std::ostringstream trace;
  telemetry.write_trace(trace);
  EXPECT_NE(trace.str().find("\"ph\":\"X\""), std::string::npos);

  const auto& a = observed.collector().samples();
  const auto& b = bare.collector().samples();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 0u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].active_servers, b[i].active_servers);
    EXPECT_EQ(a[i].booting_servers, b[i].booting_servers);
    EXPECT_EQ(a[i].overall_load, b[i].overall_load);
    EXPECT_EQ(a[i].power_w, b[i].power_w);
    EXPECT_EQ(a[i].overload_percent, b[i].overload_percent);
    EXPECT_EQ(a[i].window_energy_j, b[i].window_energy_j);
  }
  EXPECT_EQ(observed.simulator().executed_events(),
            bare.simulator().executed_events());
  EXPECT_EQ(observed.datacenter().energy_joules(),
            bare.datacenter().energy_joules());
}

// ---------------------------------------------------- exporter hardening

TEST(MetricRegistry, InvalidLabelNamesRejected) {
  obs::MetricRegistry registry;
  EXPECT_THROW(registry.counter("ecocloud_bad_total", {{"1digit", "v"}}),
               std::invalid_argument);
  EXPECT_THROW(registry.counter("ecocloud_bad_total", {{"has:colon", "v"}}),
               std::invalid_argument);
  EXPECT_THROW(registry.counter("ecocloud_bad_total", {{"", "v"}}),
               std::invalid_argument);
  // Values, unlike names, are free-form (the exporter escapes them).
  registry.counter("ecocloud_ok_total", {{"_ok", "anything: goes\n"}});
}

TEST(MetricRegistry, LeLabelReservedOnHistograms) {
  obs::MetricRegistry registry;
  EXPECT_THROW(
      registry.histogram("ecocloud_h_seconds", {1.0}, {{"le", "0.5"}}),
      std::invalid_argument);
  // "le" stays usable on non-histogram families.
  registry.counter("ecocloud_le_total", {{"le", "x"}});
}

TEST(MetricRegistry, NonFiniteHistogramBoundsRejected) {
  obs::MetricRegistry registry;
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(registry.histogram("ecocloud_h1_seconds", {1.0, inf}),
               std::invalid_argument);
  EXPECT_THROW(
      registry.histogram("ecocloud_h2_seconds",
                         {std::numeric_limits<double>::quiet_NaN()}),
      std::invalid_argument);
}

TEST(MetricRegistry, NonFiniteObservationsLandInInfBucketOnly) {
  obs::MetricRegistry registry;
  obs::Histogram& h = registry.histogram("ecocloud_h_seconds", {1.0});
  h.observe(0.5);
  h.observe(std::numeric_limits<double>::infinity());
  h.observe(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5);  // non-finite values excluded from sum
  const auto& counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 2u);
}

TEST(MetricRegistry, HistogramResetToMirrorsExternalCounts) {
  obs::MetricRegistry registry;
  obs::Histogram& h = registry.histogram("ecocloud_h_seconds", {1.0, 5.0});
  h.observe(0.3);
  h.reset_to({4, 2, 1}, 12.5);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_DOUBLE_EQ(h.sum(), 12.5);
  EXPECT_EQ(h.bucket_counts(), (std::vector<std::uint64_t>{4, 2, 1}));
  EXPECT_THROW(h.reset_to({1, 2}, 0.0), std::invalid_argument);  // wrong size
}

TEST(PrometheusExporter, HistogramExpositionIsCumulativeWithInfBucket) {
  obs::MetricRegistry registry;
  obs::Histogram& h =
      registry.histogram("ecocloud_lat_seconds", {1.0, 5.0}, {{"op", "x"}});
  h.observe(0.5);
  h.observe(3.0);
  h.observe(99.0);
  std::ostringstream out;
  obs::write_prometheus(registry, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("ecocloud_lat_seconds_bucket{op=\"x\",le=\"1\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ecocloud_lat_seconds_bucket{op=\"x\",le=\"5\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("ecocloud_lat_seconds_bucket{op=\"x\",le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("ecocloud_lat_seconds_count{op=\"x\"} 3"),
            std::string::npos);
  // The +Inf bucket equals _count — the consistency scrapers assert on.
  EXPECT_NE(text.find("ecocloud_lat_seconds_sum{op=\"x\"} 102.5"),
            std::string::npos);
}

TEST(JsonExporter, NonFiniteHistogramSumStaysValidJson) {
  obs::MetricRegistry registry;
  obs::Histogram& h = registry.histogram("ecocloud_h_seconds", {1.0});
  h.reset_to({0, 0}, std::numeric_limits<double>::quiet_NaN());
  std::ostringstream out;
  obs::write_json(registry, out);
  const std::string text = out.str();
  // A bare NaN token would break every JSON parser; it must be quoted.
  EXPECT_EQ(text.find("\"sum\": nan"), std::string::npos) << text;
  EXPECT_EQ(text.find("\"sum\": -nan"), std::string::npos) << text;
  EXPECT_NE(text.find("\"sum\": \""), std::string::npos) << text;
}
