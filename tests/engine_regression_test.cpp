// Golden-stream regression pins for the engine hot-path rework.
//
// These tests freeze the exact event streams the engine produced BEFORE the
// structure-of-arrays / sampling / streaming-trace rework (the hashes below
// were captured from that build) and require every later build to reproduce
// them byte for byte under the default (compatibility) sampler. Unlike the
// run-vs-run pins in obs_test/faults_test, these survive a rebuild of the
// engine internals: they compare against constants, not against a second run
// of the same binary. The hashes were recorded with the trace matrix
// materialized up front; every run now streams its traces, so the pins
// also hold the cursor banks to that matrix bit for bit.

#include <cstdint>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "ecocloud/metrics/event_log.hpp"
#include "ecocloud/metrics/event_log_binary.hpp"
#include "ecocloud/scenario/scenario.hpp"
#include "ecocloud/trace/trace_set.hpp"

namespace {

using namespace ecocloud;

/// FNV-1a 64-bit over the bytes of \p s. Stable, dependency-free, and good
/// enough to pin a CSV byte stream.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

struct StreamFingerprint {
  std::uint64_t hash = 0;
  std::size_t bytes = 0;
  std::size_t events = 0;
};

StreamFingerprint run_and_fingerprint(scenario::DailyScenario& scenario) {
  metrics::EventLog log;
  log.attach(*scenario.ecocloud());
  scenario.run();
  std::ostringstream csv;
  log.write_csv(csv);
  const std::string text = csv.str();

  // Every pinned stream also validates the binary round trip: the compact
  // format converted back through eventlog2csv's code path must reproduce
  // the legacy CSV byte for byte.
  std::ostringstream binary;
  metrics::write_binary_events(binary, log.events());
  std::istringstream binary_in(binary.str());
  std::ostringstream converted;
  const metrics::BinaryReadResult round_trip =
      metrics::convert_binary_events_to_csv(binary_in, converted);
  EXPECT_FALSE(round_trip.truncated_tail);
  EXPECT_EQ(converted.str(), text)
      << "binary event log did not convert back to the legacy CSV bytes";

  return StreamFingerprint{fnv1a(text), text.size(), log.events().size()};
}

StreamFingerprint run_and_fingerprint(scenario::DailyConfig config) {
  scenario::DailyScenario scenario(std::move(config));
  return run_and_fingerprint(scenario);
}

TEST(EngineRegression, PaperScaleEventStreamPinned) {
  scenario::DailyConfig config;  // 400 servers, 6,000 VMs, 48 h
  config.warmup_s = 6.0 * sim::kHour;
  const StreamFingerprint fp = run_and_fingerprint(config);
  EXPECT_EQ(fp.hash, 1180743103847393382ULL)
      << "paper-scale event CSV diverged (bytes=" << fp.bytes
      << " events=" << fp.events << " hash=" << fp.hash << ")";
  EXPECT_EQ(fp.bytes, 746824u);
  EXPECT_EQ(fp.events, 22196u);
}

// The same run with its traces materialized: TraceSet::generate collects
// the stream into a matrix, which drives the scenario through the
// loaded-trace constructor. Both TraceDriver paths, cursor bank and
// matrix, must reproduce the pin above: same hash, same bytes, same events.
TEST(EngineRegression, PaperScaleStreamingTracesMatchesMaterializedPin) {
  scenario::DailyConfig config;
  config.warmup_s = 6.0 * sim::kHour;
  util::Rng rng(config.seed);
  trace::TraceSet traces = trace::TraceSet::generate(
      trace::WorkloadModel(config.workload), config.num_vms,
      scenario::trace_steps(config.horizon_s, config.workload), rng);
  scenario::DailyScenario materialized(config, std::move(traces));
  const StreamFingerprint fp = run_and_fingerprint(materialized);
  EXPECT_EQ(fp.hash, 1180743103847393382ULL)
      << "materialized-trace event CSV diverged from the streaming pin "
      << "(bytes=" << fp.bytes << " events=" << fp.events << ")";
  EXPECT_EQ(fp.bytes, 746824u);
  EXPECT_EQ(fp.events, 22196u);
}

TEST(EngineRegression, ScaleUpEventStreamPinned) {
  // The scaleup_4000 fleet of BENCH_engine.json on a shortened horizon:
  // same construction (10x fleet, 10x VMs), 6 h of simulated time so the
  // pin stays cheap enough for every ctest run.
  scenario::DailyConfig config;
  config.fleet.num_servers = 4000;
  config.num_vms = 60000;
  config.horizon_s = 6.0 * sim::kHour;
  config.warmup_s = 1.0 * sim::kHour;
  const StreamFingerprint fp = run_and_fingerprint(config);
  EXPECT_EQ(fp.hash, 8250774598759218787ULL)
      << "scaleup event CSV diverged (bytes=" << fp.bytes
      << " events=" << fp.events << " hash=" << fp.hash << ")";
  EXPECT_EQ(fp.bytes, 2629411u);
  EXPECT_EQ(fp.events, 86001u);
}

}  // namespace
