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
#include "ecocloud/par/sharded_runner.hpp"
#include "ecocloud/scenario/config_io.hpp"
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

// ------------------------------------------------ invitation-round variants
//
// The pins above run the paper's broadcast round only. These three pin the
// round's other paths on small fleets, each at K = 1 and K = 4 shards and
// on 1 and 4 threads (the thread count must not matter): a lossy control
// plane, rack-scoped group invitations (the subset path, which skips
// inactive rack members) and the compat sampler's partial Fisher-Yates
// group. The digests were recorded before the round was split into a
// filter pass and a draw pass.

/// FNV-1a digest of the merged event CSV of a sharded run.
std::uint64_t sharded_digest(const std::string& config_text, std::size_t shards,
                             std::size_t threads) {
  std::istringstream in(config_text);
  par::ShardedDailyRun run(scenario::load_daily_config(in),
                           {.shards = shards, .threads = threads});
  run.run();
  std::ostringstream csv;
  run.write_events_csv(csv);
  return fnv1a(csv.str());
}

const std::string kSmallFleet =
    "servers = 48\nvms = 600\nhorizon_hours = 12\nwarmup_hours = 1\nseed = 7\n";

void expect_pinned(const std::string& config_text, std::uint64_t k1_digest,
                   std::uint64_t k4_digest) {
  for (const std::size_t threads : {1u, 4u}) {
    EXPECT_EQ(sharded_digest(config_text, 1, threads), k1_digest)
        << "K = 1 on " << threads << " threads";
    EXPECT_EQ(sharded_digest(config_text, 4, threads), k4_digest)
        << "K = 4 on " << threads << " threads";
  }
}

TEST(EngineRegression, LossyControlPlaneRoundsPinned) {
  // Every round samples drop_invitation per contacted server and
  // drop_reply per reply from the fault stream, interleaved in contacted
  // order; crashes keep the active set churning.
  expect_pinned(kSmallFleet +
                    "faults.server_mtbf_s = 7200\n"
                    "faults.invitation_loss_prob = 0.05\n"
                    "faults.reply_loss_prob = 0.05\n",
                5513234371645964139ULL, 14466168947232945188ULL);
}

TEST(EngineRegression, RackRoundsPinned) {
  // Racks need a single shard, so only K = 1 is pinned.
  const std::string config = kSmallFleet + "racks = 4\n";
  for (const std::size_t threads : {1u, 4u}) {
    EXPECT_EQ(sharded_digest(config, 1, threads), 7370563664780509271ULL)
        << "K = 1 on " << threads << " threads";
  }
}

TEST(EngineRegression, CompatGroupInvitationRoundsPinned) {
  expect_pinned(kSmallFleet + "invite_group_size = 8\n", 16663853763759270038ULL,
                10853529250766085884ULL);
}

}  // namespace
