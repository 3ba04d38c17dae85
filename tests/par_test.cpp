// Tests for ecocloud::par — the deterministic sharded parallel engine.
//
// The two load-bearing properties:
//  * K=1 sharded mode is BIT-IDENTICAL to the single-threaded engine
//    (same event CSV bytes, same samples, same aggregate totals);
//  * for fixed K, output is bit-identical on 1, 2, or 8 worker threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "ecocloud/ckpt/checkpoint.hpp"
#include "ecocloud/ckpt/snapshot_io.hpp"
#include "ecocloud/metrics/event_log.hpp"
#include "ecocloud/par/event_merge.hpp"
#include "ecocloud/par/partition.hpp"
#include "ecocloud/par/sharded_runner.hpp"
#include "ecocloud/par/sharded_telemetry.hpp"
#include "ecocloud/scenario/config_io.hpp"
#include "ecocloud/scenario/scenario.hpp"
#include "ecocloud/trace/trace_set.hpp"
#include "ecocloud/util/phase_profiler.hpp"

using namespace ecocloud;

namespace {

scenario::DailyConfig small_config() {
  scenario::DailyConfig config;
  config.fleet.num_servers = 48;
  config.num_vms = 600;
  config.horizon_s = 3.0 * sim::kHour;
  config.warmup_s = 0.5 * sim::kHour;
  config.seed = 7;
  return config;
}

scenario::DailyConfig faulted_config() {
  auto config = small_config();
  config.faults.server_mtbf_s = 2.0 * sim::kHour;
  config.faults.server_mttr_s = 600.0;
  config.faults.migration_abort_prob = 0.05;
  return config;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "par_test_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<metrics::Event> merged_rows(
    const std::vector<par::EventStream>& streams) {
  std::vector<metrics::Event> rows;
  par::merge_event_streams(
      streams, [&rows](const metrics::Event& e) { rows.push_back(e); });
  return rows;
}

std::uint64_t line_count(const std::string& text) {
  return static_cast<std::uint64_t>(std::count(text.begin(), text.end(), '\n'));
}

std::string events_csv(const par::ShardedDailyRun& run) {
  std::ostringstream out;
  run.write_events_csv(out);
  return out.str();
}

std::string events_binary(const par::ShardedDailyRun& run) {
  std::ostringstream out;
  run.write_events_binary(out);
  return out.str();
}

void expect_samples_identical(const std::vector<metrics::Sample>& a,
                              const std::vector<metrics::Sample>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].active_servers, b[i].active_servers);
    EXPECT_EQ(a[i].booting_servers, b[i].booting_servers);
    EXPECT_EQ(a[i].overall_load, b[i].overall_load);
    EXPECT_EQ(a[i].power_w, b[i].power_w);
    EXPECT_EQ(a[i].overload_percent, b[i].overload_percent);
    EXPECT_EQ(a[i].window_energy_j, b[i].window_energy_j);
    EXPECT_EQ(a[i].window_vm_seconds, b[i].window_vm_seconds);
    EXPECT_EQ(a[i].window_overload_vm_seconds,
              b[i].window_overload_vm_seconds);
  }
}

/// Adversarial shard execution orders for ParConfig::epoch_order:
/// identity, reversed, and a rotation by the epoch (or deploy round).
std::vector<std::function<std::vector<std::size_t>(std::uint64_t, std::size_t)>>
explorer_orders() {
  using Order = std::vector<std::size_t>;
  return {
      [](std::uint64_t, std::size_t k) {
        Order order(k);
        for (std::size_t i = 0; i < k; ++i) order[i] = i;
        return order;
      },
      [](std::uint64_t, std::size_t k) {
        Order order(k);
        for (std::size_t i = 0; i < k; ++i) order[i] = k - 1 - i;
        return order;
      },
      [](std::uint64_t epoch, std::size_t k) {
        Order order(k);
        for (std::size_t i = 0; i < k; ++i) order[i] = (i + epoch) % k;
        return order;
      },
  };
}

/// FNV-1a 64-bit over the bytes of \p s, with engine_regression_test's
/// constants, so a digest reads the same in both files.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

// ----------------------------------------------------------------- partition

TEST(ShardPlan, RoundTripsServerIds) {
  for (const std::size_t k : {1u, 3u, 5u}) {
    const par::ShardPlan plan(k, 48, 600);
    std::size_t covered = 0;
    for (std::size_t shard = 0; shard < k; ++shard) {
      covered += plan.servers_in(shard);
    }
    EXPECT_EQ(covered, 48u);
    for (dc::ServerId g = 0; g < 48; ++g) {
      const std::size_t shard = plan.shard_of_server(g);
      EXPECT_LT(shard, k);
      const dc::ServerId local = plan.local_server(g);
      EXPECT_LT(local, plan.servers_in(shard));
      EXPECT_EQ(plan.global_server(shard, local), g);
    }
  }
}

TEST(ShardPlan, IsIdentityForOneShard) {
  const par::ShardPlan plan(1, 16, 100);
  for (dc::ServerId g = 0; g < 16; ++g) {
    EXPECT_EQ(plan.shard_of_server(g), 0u);
    EXPECT_EQ(plan.local_server(g), g);
  }
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(plan.shard_of_trace(i), 0u);
  }
}

TEST(ShardPlan, RejectsMoreShardsThanServers) {
  EXPECT_THROW(par::ShardPlan(10, 4, 100), std::invalid_argument);
}

// 32-bit id boundary: global ids are dc::ServerId/dc::VmId (uint32_t) with
// the max value reserved as the none-sentinel. Plans beyond the id space
// must refuse loudly instead of letting the casts wrap; plans at planet
// scale (1M servers, 15M VMs) and at the exact boundary must work.
TEST(ShardPlan, RejectsPlansBeyondThe32BitIdSpace) {
  const std::size_t id_space = static_cast<std::size_t>(dc::kNoServer);  // 2^32-1

  // Planet scale round-trips fine, including the highest global id.
  const par::ShardPlan planet(8, 1'000'000, 15'000'000);
  const dc::ServerId top = 999'999;
  EXPECT_EQ(planet.global_server(planet.shard_of_server(top),
                                 planet.local_server(top)),
            top);

  // Exactly at the boundary: the largest representable plan (max id is the
  // sentinel, so the last valid count is 2^32-2 ids... i.e. < sentinel).
  const par::ShardPlan boundary(1, id_space - 1, id_space - 1);
  const auto last = static_cast<dc::ServerId>(id_space - 2);
  EXPECT_EQ(boundary.global_server(0, boundary.local_server(last)), last);

  // One past: a fleet whose ids would collide with kNoServer/kNoVm or wrap.
  EXPECT_THROW(par::ShardPlan(1, id_space, 100), std::invalid_argument);
  EXPECT_THROW(par::ShardPlan(1, id_space + 1, 100), std::invalid_argument);
  EXPECT_THROW(par::ShardPlan(1, 100, id_space), std::invalid_argument);

  // A stale local id that would truncate through the 32-bit cast fails
  // instead of minting a bogus global id.
  const par::ShardPlan small(4, 48, 600);
  EXPECT_THROW((void)small.global_server(3, 100), std::invalid_argument);
}

// --------------------------------------------------------- unsupported modes

TEST(ShardedDailyRun, RejectsTopologyAndBadSyncInterval) {
  // Racks with K > 1 are the one remaining exclusion (invitations would
  // need cross-shard rack scoping); faults, checkpointing, auditing, and
  // telemetry all compose with sharding now.
  auto config = small_config();
  config.topology = net::TopologyConfig{};
  EXPECT_THROW(par::ShardedDailyRun(config, {.shards = 2}),
               std::invalid_argument);
}

// -------------------------------------------------- K=1 == single-threaded

TEST(ShardedDailyRun, SingleShardIsBitIdenticalToSingleThreadedEngine) {
  // With racks too: K = 1 builds the whole fleet's topology, exactly as
  // DailyScenario does, so group invitations and transfer times match.
  auto racks = small_config();
  racks.topology = net::TopologyConfig{.num_racks = 4};
  std::vector<std::string> logs;
  for (const auto& config : {small_config(), racks}) {
    SCOPED_TRACE(config.topology ? "4 racks" : "no racks");
    scenario::DailyScenario reference(config);
    metrics::EventLog reference_log;
    reference_log.attach(*reference.ecocloud());
    reference.run();

    par::ShardedDailyRun sharded(config, {.shards = 1, .threads = 2});
    sharded.run();

    // Aggregate totals: exact, not approximate.
    const dc::DataCenter& rdc = reference.datacenter();
    EXPECT_EQ(sharded.stats().executed_events,
              reference.simulator().executed_events());
    EXPECT_EQ(sharded.stats().migrations, rdc.total_migrations());
    EXPECT_EQ(sharded.stats().activations, rdc.total_activations());
    EXPECT_EQ(sharded.stats().hibernations, rdc.total_hibernations());
    EXPECT_EQ(sharded.stats().energy_joules, rdc.energy_joules());
    EXPECT_EQ(sharded.stats().low_migrations,
              reference.ecocloud()->low_migrations());
    EXPECT_EQ(sharded.stats().high_migrations,
              reference.ecocloud()->high_migrations());
    EXPECT_EQ(sharded.stats().cross_shard_migrations, 0u);

    // Samples: field-exact.
    expect_samples_identical(sharded.merged_samples(),
                             reference.collector().samples());

    // Event log: byte-exact.
    std::ostringstream reference_csv;
    reference_log.write_csv(reference_csv);
    EXPECT_EQ(events_csv(sharded), reference_csv.str());
    logs.push_back(reference_csv.str());
  }
  // The racks really scope the invitations (else the pin proves nothing).
  EXPECT_NE(logs[0], logs[1]);
}

// ------------------------------------------- thread-count independence (K=4)

TEST(ShardedDailyRun, FixedShardCountIsDeterministicAcrossThreadCounts) {
  const auto config = small_config();

  par::ShardedDailyRun t1(config, {.shards = 4, .threads = 1});
  par::ShardedDailyRun t2(config, {.shards = 4, .threads = 2});
  par::ShardedDailyRun t8(config, {.shards = 4, .threads = 8});
  t1.run();
  t2.run();
  t8.run();

  for (const par::ShardedDailyRun* other : {&t2, &t8}) {
    EXPECT_EQ(t1.stats().executed_events, other->stats().executed_events);
    EXPECT_EQ(t1.stats().migrations, other->stats().migrations);
    EXPECT_EQ(t1.stats().cross_shard_migrations,
              other->stats().cross_shard_migrations);
    EXPECT_EQ(t1.stats().energy_joules, other->stats().energy_joules);
    EXPECT_EQ(t1.stats().stranded_wishes, other->stats().stranded_wishes);
    expect_samples_identical(t1.merged_samples(), other->merged_samples());
    EXPECT_EQ(events_csv(t1), events_csv(*other));
  }
}

// ------------------------------------------------------ cross-shard hand-off

TEST(ShardedDailyRun, HandsOffStrandedMigrationsAcrossShards) {
  // Small shards saturate locally long before the whole fleet does, so a
  // multi-shard run must exercise the barrier hand-off path.
  const auto config = small_config();
  par::ShardedDailyRun run(config, {.shards = 4, .threads = 2});
  run.run();

  EXPECT_GT(run.stats().stranded_wishes, 0u);
  EXPECT_GT(run.stats().cross_shard_migrations, 0u);
  EXPECT_GT(run.stats().barriers, 0u);
  // Cross-shard transfers are counted into the migration totals.
  std::uint64_t intra = 0;
  for (std::size_t k = 0; k < run.num_shards(); ++k) {
    intra += run.shard(k).datacenter().total_migrations();
  }
  EXPECT_EQ(run.stats().migrations,
            intra + run.stats().cross_shard_migrations);
  // Every VM is driven by exactly one shard: total demand conservation at
  // the end (each shard's datacenter only knows its own VMs).
  EXPECT_EQ(run.stats().low_migrations + run.stats().high_migrations,
            run.stats().migrations);
}

TEST(ShardedDailyRun, SameShardCountSameSeedReproduces) {
  const auto config = small_config();
  par::ShardedDailyRun a(config, {.shards = 2, .threads = 2});
  par::ShardedDailyRun b(config, {.shards = 2, .threads = 2});
  a.run();
  b.run();
  EXPECT_EQ(events_csv(a), events_csv(b));
  EXPECT_EQ(a.stats().energy_joules, b.stats().energy_joules);
}

// ------------------------------------------------------- faults under shards

TEST(ShardedDailyRun, SingleShardFaultedMatchesSingleThreadedEngine) {
  // K=1 with fault injection replays the single-threaded faulted run
  // exactly: same crash/repair draws, same redeploys, same bytes.
  const auto config = faulted_config();

  scenario::DailyScenario reference(config);
  metrics::EventLog reference_log;
  reference_log.attach(*reference.ecocloud());
  reference.run();
  ASSERT_NE(reference.fault_injector(), nullptr);

  par::ShardedDailyRun sharded(config, {.shards = 1, .threads = 2});
  ASSERT_NE(sharded.shard(0).fault_injector(), nullptr);
  sharded.run();

  EXPECT_EQ(sharded.stats().executed_events,
            reference.simulator().executed_events());
  EXPECT_EQ(sharded.stats().migrations,
            reference.datacenter().total_migrations());
  EXPECT_EQ(sharded.stats().energy_joules,
            reference.datacenter().energy_joules());
  expect_samples_identical(sharded.merged_samples(),
                           reference.collector().samples());

  std::ostringstream reference_csv;
  reference_log.write_csv(reference_csv);
  EXPECT_EQ(events_csv(sharded), reference_csv.str());
}

TEST(ShardedDailyRun, FaultedRunIsDeterministicAcrossThreadCounts) {
  const auto config = faulted_config();

  par::ShardedDailyRun t1(config, {.shards = 4, .threads = 1});
  par::ShardedDailyRun t2(config, {.shards = 4, .threads = 2});
  par::ShardedDailyRun t8(config, {.shards = 4, .threads = 8});
  t1.run();
  t2.run();
  t8.run();

  // The faulted trajectory actually exercises the failure path.
  std::uint64_t crashes = 0;
  for (std::size_t k = 0; k < t1.num_shards(); ++k) {
    ASSERT_NE(t1.shard(k).fault_injector(), nullptr);
    crashes += t1.shard(k).fault_injector()->stats().crashes();
  }
  EXPECT_GT(crashes, 0u);

  for (const par::ShardedDailyRun* other : {&t2, &t8}) {
    EXPECT_EQ(t1.stats().executed_events, other->stats().executed_events);
    EXPECT_EQ(t1.stats().energy_joules, other->stats().energy_joules);
    expect_samples_identical(t1.merged_samples(), other->merged_samples());
    EXPECT_EQ(events_csv(t1), events_csv(*other));
  }
}

TEST(ShardedDailyRun, ScriptedFaultsFireOnTheirOwnShard) {
  // Each shard's schedule is the global one restricted to its servers in
  // local ids: a scripted crash fires once, on the shard that owns the
  // server, and the merged log names the global server. At K = 4, crash
  // 4-5 hits shards 0 and 1 and crash 5-6 shards 1 and 2.
  for (const auto& [schedule, first] :
       {std::pair{"crash 4-5 3600 600", 4}, std::pair{"crash 5-6 3600 600", 5}}) {
    SCOPED_TRACE(schedule);
    auto config = small_config();
    config.faults.schedule = faults::parse_fault_schedule(schedule);

    par::ShardedDailyRun sharded(config, {.shards = 4, .threads = 2});
    sharded.run();
    std::vector<std::string> failed;
    std::istringstream rows(events_csv(sharded));
    for (std::string row; std::getline(rows, row);) {
      if (row.find(",server_failed,") != std::string::npos) failed.push_back(row);
    }
    const std::string expected = "3600,server_failed,-1,";
    EXPECT_EQ(failed, (std::vector<std::string>{
                          expected + std::to_string(first) + ",0",
                          expected + std::to_string(first + 1) + ",0"}));

    // K = 1 is the single-threaded engine, scripted faults included.
    scenario::DailyScenario reference(config);
    metrics::EventLog reference_log;
    reference_log.attach(*reference.ecocloud());
    reference.run();
    par::ShardedDailyRun single(config, {.shards = 1, .threads = 1});
    single.run();
    std::ostringstream reference_csv;
    reference_log.write_csv(reference_csv);
    EXPECT_EQ(events_csv(single), reference_csv.str());
  }
}

// --------------------------------------------------------- checkpoint/resume

TEST(ShardedDailyRun, CheckpointResumeIsBitIdenticalAcrossThreadCounts) {
  const auto config = small_config();

  // Uninterrupted reference: no checkpointing at all.
  par::ShardedDailyRun reference(config, {.shards = 4, .threads = 2});
  reference.run();

  // Checkpointed run: snapshot every 1800 s of sim time; keep a copy of
  // the FIRST snapshot (later barriers overwrite checkpoint_out).
  auto ckpt_config = config;
  ckpt_config.run.checkpoint_out = temp_path("shard.ckpt");
  ckpt_config.run.checkpoint_every_s = 1800.0;
  const std::string first_snapshot = temp_path("shard_first.ckpt");
  par::ShardedDailyRun checkpointed(ckpt_config, {.shards = 4, .threads = 2});
  std::size_t snapshots = 0;
  checkpointed.on_checkpoint = [&](const std::string& path) {
    if (snapshots++ == 0) {
      std::ofstream out(first_snapshot, std::ios::binary);
      out << slurp(path);
    }
  };
  checkpointed.run();
  ASSERT_GT(snapshots, 1u);
  EXPECT_EQ(checkpointed.stats().checkpoints_written, snapshots);

  // Checkpointing must not perturb the trajectory.
  EXPECT_EQ(events_csv(checkpointed), events_csv(reference));
  EXPECT_EQ(checkpointed.stats().energy_joules,
            reference.stats().energy_joules);

  // Resume the first mid-run snapshot at two other thread counts; both
  // must land byte-identical to the uninterrupted reference. The 8-thread
  // resume names an output but no cadence: it keeps the snapshot's 1800 s
  // and its last snapshot must be the checkpointed run's, byte for byte.
  const std::string resumed_out = temp_path("shard_resumed.ckpt");
  for (const std::size_t threads : {1u, 8u}) {
    auto resume_config = config;
    if (threads == 8) resume_config.run.checkpoint_out = resumed_out;
    par::ShardedDailyRun resumed(resume_config,
                                 {.shards = 4, .threads = threads});
    resumed.restore_snapshot(first_snapshot);
    ASSERT_TRUE(resumed.resumed());
    resumed.run();
    EXPECT_EQ(events_csv(resumed), events_csv(reference));
    EXPECT_EQ(resumed.stats().energy_joules, reference.stats().energy_joules);
    expect_samples_identical(resumed.merged_samples(),
                             reference.merged_samples());
    EXPECT_EQ(resumed.stats().checkpoints_written,
              threads == 8 ? snapshots - 1 : 0u);
  }
  EXPECT_EQ(slurp(resumed_out), slurp(ckpt_config.run.checkpoint_out));

  std::remove(first_snapshot.c_str());
  std::remove(resumed_out.c_str());
  std::remove(ckpt_config.run.checkpoint_out.c_str());
}

TEST(ShardedDailyRun, FaultedCheckpointResumeReplaysExactly) {
  // The hard case: snapshots must carry every shard's fault-process RNG
  // and pending repair/redeploy state.
  const auto config = faulted_config();

  par::ShardedDailyRun reference(config, {.shards = 2, .threads = 2});
  reference.run();

  auto ckpt_config = config;
  ckpt_config.run.checkpoint_out = temp_path("faulted.ckpt");
  ckpt_config.run.checkpoint_every_s = 3600.0;
  const std::string snapshot = temp_path("faulted_first.ckpt");
  par::ShardedDailyRun checkpointed(ckpt_config, {.shards = 2, .threads = 2});
  bool captured = false;
  checkpointed.on_checkpoint = [&](const std::string& path) {
    if (!captured) {
      captured = true;
      std::ofstream out(snapshot, std::ios::binary);
      out << slurp(path);
    }
  };
  checkpointed.run();
  ASSERT_TRUE(captured);

  par::ShardedDailyRun resumed(config, {.shards = 2, .threads = 1});
  resumed.restore_snapshot(snapshot);
  resumed.run();
  EXPECT_EQ(events_csv(resumed), events_csv(reference));
  EXPECT_EQ(resumed.stats().energy_joules, reference.stats().energy_joules);

  std::remove(snapshot.c_str());
  std::remove(ckpt_config.run.checkpoint_out.c_str());
}

TEST(ShardedDailyRun, ResumeBeforeWarmupReplaysExactly) {
  // A snapshot taken before warmup_s carries every shard's pending
  // warmup reset (its "scenario" section): the resumed run resets at the
  // same barrier as the uninterrupted one.
  const auto config = faulted_config();
  par::ShardedDailyRun reference(config, {.shards = 4, .threads = 2});
  reference.run();

  auto ckpt_config = config;
  ckpt_config.run.checkpoint_out = temp_path("pre_warmup.ckpt");
  ckpt_config.run.checkpoint_every_s = 900.0;
  const std::string snapshot = temp_path("pre_warmup_first.ckpt");
  par::ShardedDailyRun checkpointed(ckpt_config, {.shards = 4, .threads = 2});
  bool captured = false;
  checkpointed.on_checkpoint = [&](const std::string& path) {
    if (captured) return;
    captured = true;
    std::ofstream out(snapshot, std::ios::binary);
    out << slurp(path);
  };
  checkpointed.run();
  ASSERT_TRUE(captured);

  par::ShardedDailyRun resumed(config, {.shards = 4, .threads = 1});
  resumed.restore_snapshot(snapshot);
  ASSERT_LT(resumed.shard(0).simulator().now(), config.warmup_s);
  resumed.run();
  EXPECT_EQ(events_csv(resumed), events_csv(reference));
  expect_samples_identical(resumed.merged_samples(), reference.merged_samples());
  EXPECT_EQ(resumed.stats().energy_joules, reference.stats().energy_joules);

  std::remove(snapshot.c_str());
  std::remove(ckpt_config.run.checkpoint_out.c_str());
}

TEST(ShardedDailyRun, RestoreRejectsDigestMismatch) {
  const auto config = small_config();
  const std::string snapshot = temp_path("digest.ckpt");
  par::ShardedDailyRun source(config, {.shards = 2, .threads = 1});
  source.save_snapshot(snapshot);

  // Different shard count -> different trajectory -> refuse to restore.
  par::ShardedDailyRun wrong_shards(config, {.shards = 4, .threads = 1});
  EXPECT_THROW(wrong_shards.restore_snapshot(snapshot), std::exception);

  // A single-calendar snapshot (DailyScenario + CheckpointManager, what
  // run-daily --checkpoint-out wrote before it ran on shards) is refused
  // by a K = 1 run, naming the configuration mismatch.
  scenario::DailyScenario daily(config);
  ckpt::CheckpointManager manager(daily.simulator());
  daily.register_checkpoint(manager);
  daily.start();
  manager.save(snapshot);
  par::ShardedDailyRun single(config, {.shards = 1, .threads = 1});
  try {
    single.restore_snapshot(snapshot);
    ADD_FAILURE() << "a single-calendar snapshot restored into a K=1 run";
  } catch (const ckpt::SnapshotError& error) {
    EXPECT_NE(std::string(error.what()).find("different configuration"),
              std::string::npos)
        << error.what();
  }

  std::remove(snapshot.c_str());
}

TEST(ShardedDailyRun, RestoreRejectsUnknownCoordinatorEventKind) {
  // The coordinator's cross-shard rows restore through EventLog's checked
  // load: a row whose kind names no EventKind fails the restore instead
  // of coming back as an "unknown" CSV row.
  auto config = small_config();
  config.run.checkpoint_out = temp_path("kind.ckpt");
  config.run.checkpoint_every_s = 7200.0;  // one snapshot, at t = 7200 s
  par::ShardedDailyRun source(config, {.shards = 4, .threads = 1});
  source.run();

  ckpt::Snapshot snapshot = ckpt::read_snapshot_file(config.run.checkpoint_out);
  ckpt::SnapshotSection* coordinator = nullptr;
  for (ckpt::SnapshotSection& section : snapshot.sections) {
    if (section.name == "coordinator") coordinator = &section;
  }
  ASSERT_NE(coordinator, nullptr);
  // Clock and cadence, six counters, then the log: row count, first time,
  // first kind.
  util::BinReader r(coordinator->payload);
  for (int i = 0; i < 2; ++i) (void)r.f64();
  for (int i = 0; i < 6; ++i) (void)r.u64();
  ASSERT_EQ(r.u64(), 28u);
  (void)r.f64();
  coordinator->payload[coordinator->payload.size() - r.remaining()] =
      static_cast<char>(200);
  ckpt::write_snapshot_file(snapshot, config.run.checkpoint_out);

  par::ShardedDailyRun resumed(small_config(), {.shards = 4, .threads = 1});
  EXPECT_THROW(resumed.restore_snapshot(config.run.checkpoint_out),
               ckpt::SnapshotError);

  std::remove(config.run.checkpoint_out.c_str());
}

// -------------------------------------------------- epoch-order explorer

TEST(ShardedDailyRun, EpochExecutionOrderCannotChangeTrajectory) {
  // Run K=3 under adversarial epoch interleavings. If any shard peeked at
  // another shard's in-epoch state, some permutation would diverge.
  const auto config = small_config();

  par::ShardedDailyRun reference(config, {.shards = 3, .threads = 2});
  reference.run();
  const std::string reference_csv = events_csv(reference);

  for (const auto& order : explorer_orders()) {
    par::ShardedDailyRun explored(
        config, {.shards = 3, .threads = 1, .epoch_order = order});
    explored.run();
    EXPECT_EQ(events_csv(explored), reference_csv);
    EXPECT_EQ(explored.stats().energy_joules, reference.stats().energy_joules);
    expect_samples_identical(explored.merged_samples(),
                             reference.merged_samples());
  }
}

// ------------------------------------------------------ t = 0 deploy wave

TEST(ShardedDailyRun, SaturatedDeployWaveIsPinned) {
  // 1,200 VMs on 16 servers: the wave runs out of hibernated servers, so
  // rows reach the serial owner-then-retry step. The digest was recorded
  // from the serial wave (one row at a time in global trace order); the
  // parallel rounds must reproduce it on any thread count and in any
  // shard order.
  constexpr std::uint64_t kSerialWaveDigest = 12930674965698799238ULL;
  std::ifstream in(ECOCLOUD_TEST_DATA_DIR "/par_saturated_smoke.conf");
  ASSERT_TRUE(in) << "missing tests/data/par_saturated_smoke.conf";
  const scenario::DailyConfig config = scenario::load_daily_config(in);

  par::ShardedDailyRun run(config, {.shards = 4, .threads = 4});
  run.run();
  EXPECT_EQ(fnv1a(events_csv(run)), kSerialWaveDigest);
  // The pin covers both serial-step outcomes: a row refused by every
  // shard, and a VM queued by a shard that does not own it (assigned when
  // its server finishes booting; hand-offs log no assignment).
  std::size_t refused = 0;
  std::size_t retried = 0;
  for (std::size_t k = 0; k < run.num_shards(); ++k) {
    const par::Shard& shard = run.shard(k);
    for (const metrics::Event& e : shard.event_log().events()) {
      if (e.kind == metrics::EventKind::kAssignmentFailure && e.time == 0.0) {
        ++refused;
      }
      if (e.kind == metrics::EventKind::kAssignment &&
          run.plan().shard_of_trace(shard.trace_of(e.vm)) != k) {
        ++retried;
      }
    }
  }
  EXPECT_GT(refused, 0u);
  EXPECT_GT(retried, 0u);

  for (const std::size_t threads : {1u, 2u}) {
    par::ShardedDailyRun other(config, {.shards = 4, .threads = threads});
    other.run();
    EXPECT_EQ(fnv1a(events_csv(other)), kSerialWaveDigest) << threads;
  }
  for (const auto& order : explorer_orders()) {
    par::ShardedDailyRun explored(
        config, {.shards = 4, .threads = 1, .epoch_order = order});
    explored.run();
    EXPECT_EQ(fnv1a(events_csv(explored)), kSerialWaveDigest);
  }
}

TEST(ShardedDailyRun, ProfilerSeesTheDeployWave) {
  // A 60 s horizon ends before the first boot completes (120 s), so the
  // only VM-lifecycle work is the t = 0 wave: each shard's rounds land in
  // its own domain, the frontiers in the coordinator's.
  auto config = small_config();
  config.horizon_s = 60.0;
  config.warmup_s = 0.0;
  par::ShardedDailyRun run(config, {.shards = 4, .threads = 2});
  util::PhaseProfiler profiler(5);
  run.set_profiler(&profiler);
  run.run();
  for (std::size_t k = 0; k <= 4; ++k) {
    EXPECT_GT(profiler.domain(k).stats(util::Phase::kVmLifecycle).calls, 0u)
        << profiler.domain_name(k);
  }
}

TEST(ShardedDailyRun, InlineEpochsChargeNoBarrierWait) {
  // One thread runs the epochs one after another: no shard waits for
  // another, so no domain is charged barrier wait. The per-shard lag the
  // live plane and the benchmark read is still measured.
  par::ShardedDailyRun run(small_config(), {.shards = 4, .threads = 1});
  util::PhaseProfiler profiler(5);
  run.set_profiler(&profiler);
  run.run();
  for (std::size_t k = 0; k <= 4; ++k) {
    const util::PhaseStats& wait =
        profiler.domain(k).stats(util::Phase::kBarrierWait);
    EXPECT_EQ(wait.calls, 0u) << profiler.domain_name(k);
    EXPECT_EQ(wait.timed_ns, 0u) << profiler.domain_name(k);
  }
  const std::vector<double>& lag = run.last_barrier_lag_s();
  EXPECT_GT(*std::max_element(lag.begin(), lag.end()), 0.0);
}

TEST(ShardedDailyRun, RejectsInvalidEpochOrder) {
  const auto config = small_config();
  // Duplicate index: not a permutation.
  par::ShardedDailyRun run(
      config, {.shards = 2, .threads = 1, .epoch_order = [](std::uint64_t,
                                                            std::size_t) {
                 return std::vector<std::size_t>{0, 0};
               }});
  EXPECT_THROW(run.run(), std::exception);
}

// ------------------------------------------------------------ barrier audits

TEST(ShardedDailyRun, BarrierAuditsPassAndDoNotPerturbTheTrajectory) {
  const auto config = small_config();

  par::ShardedDailyRun reference(config, {.shards = 4, .threads = 2});
  reference.run();

  auto audited_config = config;
  audited_config.run.audit_every_s = 600.0;
  audited_config.run.audit_action = "log";
  par::ShardedDailyRun audited(audited_config, {.shards = 4, .threads = 2});
  audited.run();

  EXPECT_GT(audited.stats().audits_run, 0u);
  EXPECT_EQ(audited.stats().audit_failures, 0u);
  EXPECT_EQ(events_csv(audited), events_csv(reference));
  EXPECT_EQ(audited.stats().energy_joules, reference.stats().energy_joules);
}

TEST(ShardedDailyRun, FaultedBarrierAuditsStayClean) {
  // Crash/repair churn plus cross-shard hand-offs must not trip the
  // cross-shard ownership or conservation checks.
  auto config = faulted_config();
  config.run.audit_every_s = 900.0;
  config.run.audit_action = "log";
  par::ShardedDailyRun run(config, {.shards = 4, .threads = 2});
  run.run();
  EXPECT_GT(run.stats().audits_run, 0u);
  EXPECT_EQ(run.stats().audit_failures, 0u);
}

// ------------------------------------------------------- sharded telemetry

TEST(ShardedTelemetry, ObservesAFaultedCheckpointedRunWithoutPerturbingIt) {
  // Every observer on (trace timelines, trace-level logs, the shared
  // registry) over a faulted run that also writes barrier snapshots: the
  // trajectory must be the bare run's, and the registry must export the
  // runner's snapshot count under the single-calendar series name.
  const auto config = faulted_config();
  auto observed_config = config;
  observed_config.run.checkpoint_out = temp_path("telemetry.ckpt");
  observed_config.run.checkpoint_every_s = 1800.0;
  for (const std::size_t shards : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    par::ShardedDailyRun bare(config, {.shards = shards, .threads = 2});
    bare.run();

    par::ShardedDailyRun observed(observed_config,
                                  {.shards = shards, .threads = 2});
    std::ostringstream log;
    const auto telemetry = par::attach_telemetry(
        observed, {.trace = true,
                   .log_level = obs::LogLevel::kTrace,
                   .log_out = &log});
    observed.run();
    telemetry->finalize(config.horizon_s);

    EXPECT_EQ(events_binary(observed), events_binary(bare));
    expect_samples_identical(observed.merged_samples(), bare.merged_samples());
    EXPECT_EQ(observed.stats().energy_joules, bare.stats().energy_joules);
    EXPECT_EQ(observed.stats().executed_events, bare.stats().executed_events);

    EXPECT_GT(telemetry->log_lines(), 0u);
    EXPECT_EQ(line_count(log.str()), telemetry->log_lines());
    ASSERT_GT(observed.stats().checkpoints_written, 0u);
    const obs::Counter* written =
        telemetry->registry().find_counter("ecocloud_checkpoints_written_total");
    ASSERT_NE(written, nullptr);
    EXPECT_EQ(written->value(), observed.stats().checkpoints_written);
  }
  std::remove(observed_config.run.checkpoint_out.c_str());
}

TEST(ShardedTelemetry, OneShardStreamsItsLogAndMoreShardsMergeAtTheEnd) {
  // Log delivery depends only on the number of calendars: one shard's
  // records reach the sink by the first barrier, K > 1 shards buffer
  // theirs until finalize() merges them.
  const auto config = small_config();
  for (const std::size_t shards : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    par::ShardedDailyRun run(config, {.shards = shards, .threads = 2});
    std::ostringstream log;
    const auto telemetry = par::attach_telemetry(
        run, {.log_level = obs::LogLevel::kTrace, .log_out = &log});
    std::optional<std::size_t> at_first_barrier;
    run.on_barrier = [&log, &at_first_barrier,
                      flush = std::move(run.on_barrier)](sim::SimTime t) {
      flush(t);
      if (!at_first_barrier) at_first_barrier = line_count(log.str());
    };
    run.run();
    telemetry->finalize(config.horizon_s);

    ASSERT_TRUE(at_first_barrier.has_value());
    if (shards == 1) {
      EXPECT_GT(*at_first_barrier, 0u);
    } else {
      EXPECT_EQ(*at_first_barrier, 0u);
    }
    EXPECT_EQ(line_count(log.str()), telemetry->log_lines());
  }
}

// ---------------------------------------------------------- event-log merge

TEST(EventMerge, EqualTimestampsKeepStreamOrder) {
  using metrics::Event;
  using metrics::EventKind;
  // Three streams, all rows at the same instant: the merge must emit
  // stream 0's rows first, then stream 1's, then stream 2's, keeping the
  // within-stream order — the tie-break that makes shard stitching a pure
  // function of (time, shard index).
  const std::vector<Event> s0 = {
      {100.0, EventKind::kAssignment, 0, 10, false},
      {100.0, EventKind::kAssignment, 1, 11, false}};
  const std::vector<Event> s1 = {
      {100.0, EventKind::kActivation, dc::kNoVm, 20, false}};
  const std::vector<Event> s2 = {
      {100.0, EventKind::kMigrationStart, 2, 30, true}};
  const std::vector<par::EventStream> streams = {
      {&s0, {}}, {&s1, {}}, {&s2, {}}};

  const auto merged = merged_rows(streams);
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].server, 10u);
  EXPECT_EQ(merged[1].server, 11u);
  EXPECT_EQ(merged[2].server, 20u);
  EXPECT_EQ(merged[3].server, 30u);

  // Deterministic: merging twice yields the same rows.
  const auto again = merged_rows(streams);
  ASSERT_EQ(again.size(), merged.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(again[i].time, merged[i].time);
    EXPECT_EQ(again[i].kind, merged[i].kind);
    EXPECT_EQ(again[i].server, merged[i].server);
  }
}

TEST(EventMerge, InterleavesStrictlyByTimeAcrossStreams) {
  using metrics::Event;
  using metrics::EventKind;
  const std::vector<Event> s0 = {{1.0, EventKind::kAssignment, 0, 0, false},
                                 {5.0, EventKind::kAssignment, 1, 0, false}};
  const std::vector<Event> s1 = {{2.0, EventKind::kAssignment, 2, 1, false},
                                 {4.0, EventKind::kAssignment, 3, 1, false}};
  const auto merged = merged_rows({{&s0, {}}, {&s1, {}}});
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].time, 1.0);
  EXPECT_EQ(merged[1].time, 2.0);
  EXPECT_EQ(merged[2].time, 4.0);
  EXPECT_EQ(merged[3].time, 5.0);
}

TEST(EventMerge, TranslationRoundTripsLocalIdsThroughShardPlan) {
  using metrics::Event;
  using metrics::EventKind;
  constexpr std::size_t kShards = 3;
  const par::ShardPlan plan(kShards, 12, 30);

  // Each shard stream holds LOCAL ids; translation lifts them to global
  // via the plan. Round-trip: the merged global ids map back to exactly
  // the (shard, local) pair that emitted them.
  std::vector<std::vector<Event>> local(kShards);
  for (std::size_t k = 0; k < kShards; ++k) {
    for (dc::ServerId s = 0; s < plan.servers_in(k); ++s) {
      local[k].push_back(
          {static_cast<double>(k), EventKind::kActivation, dc::kNoVm, s,
           false});
    }
  }
  std::vector<par::EventStream> streams;
  for (std::size_t k = 0; k < kShards; ++k) {
    streams.push_back({&local[k], [&plan, k](const Event& raw) {
                         Event e = raw;
                         e.server = plan.global_server(k, raw.server);
                         return e;
                       }});
  }

  const auto merged = merged_rows(streams);
  ASSERT_EQ(merged.size(), 12u);
  std::vector<bool> seen(12, false);
  for (const Event& e : merged) {
    const std::size_t k = plan.shard_of_server(e.server);
    EXPECT_EQ(static_cast<double>(k), e.time);  // emitted by that shard
    EXPECT_EQ(plan.global_server(k, plan.local_server(e.server)), e.server);
    EXPECT_FALSE(seen[e.server]);
    seen[e.server] = true;
  }
}

TEST(EventMerge, CsvMatchesEventLogFormat) {
  using metrics::Event;
  using metrics::EventKind;
  // -1 sentinels and precision must match EventLog::write_csv exactly;
  // the K=1 bit-identity tests depend on it, pin it directly too.
  const std::vector<Event> rows = {
      {0.125, EventKind::kActivation, dc::kNoVm, 3, false},
      {7.5, EventKind::kMigrationStart, 42, 1, true}};
  std::ostringstream out;
  metrics::write_events_csv(out, rows);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("time_s,kind,vm,server,is_high"), std::string::npos);
  EXPECT_NE(csv.find(",-1,3,"), std::string::npos);  // kNoVm -> -1
  EXPECT_NE(csv.find(",42,1,1"), std::string::npos);
}

// ---------------------------------------------- per-shard streaming banks

namespace {

// Demand oracle for cross-shard hand-offs: at every barrier, each VM a
// shard drives carries exactly the demand of its trace row, read from a
// TraceSet generated apart from the run with the same seed. Rows reach a
// shard other than their owner through deploy retries and hand-offs (the
// bank adopts a copy of the row) and, after a restore, through
// re-adoption; each path must deliver that row's demand at every later
// step, not a stale or a foreign one. \p tag keeps the snapshot files of
// concurrently running tests apart.
void expect_rows_drive_their_own_demand(const scenario::DailyConfig& base,
                                        const std::string& tag) {
  util::Rng rng(base.seed);
  const trace::TraceSet reference = trace::TraceSet::generate(
      trace::WorkloadModel(base.workload), base.num_vms,
      scenario::trace_steps(base.horizon_s, base.workload), rng);
  std::size_t checked = 0;
  const auto check_at_barriers = [&reference, &checked](
                                     par::ShardedDailyRun& run) {
    run.on_barrier = [&run, &reference, &checked](sim::SimTime t) {
      const std::size_t step = reference.step_at(t);
      for (std::size_t k = 0; k < run.num_shards(); ++k) {
        const par::Shard& shard = run.shard(k);
        for (const auto& [vm, row] : shard.trace_driver().mapped_vms()) {
          ASSERT_EQ(shard.datacenter().vm_demand_mhz(vm),
                    reference.demand_mhz_at(row, step))
              << "t " << t << " shard " << k << " vm " << vm << " row "
              << row;
          ++checked;
        }
      }
    };
  };

  auto config = base;
  config.run.checkpoint_out = temp_path(tag + "_oracle.ckpt");
  config.run.checkpoint_every_s = 5400.0;  // one snapshot, mid-horizon
  const std::string snapshot = temp_path(tag + "_oracle_mid.ckpt");
  par::ShardedDailyRun run(config, {.shards = 4, .threads = 2});
  check_at_barriers(run);
  bool captured = false;
  run.on_checkpoint = [&](const std::string& path) {
    if (captured) return;
    captured = true;
    std::ofstream out(snapshot, std::ios::binary);
    out << slurp(path);
  };
  run.run();
  // Adoption only runs when VMs cross shards.
  ASSERT_GT(run.stats().cross_shard_migrations, 0u);
  ASSERT_GT(checked, 0u);
  ASSERT_TRUE(captured);

  par::ShardedDailyRun resumed(base, {.shards = 4, .threads = 1});
  resumed.restore_snapshot(snapshot);
  std::size_t foreign_rows = 0;
  for (std::size_t k = 0; k < resumed.num_shards(); ++k) {
    const par::Shard& shard = resumed.shard(k);
    for (const auto& [vm, row] : shard.trace_driver().mapped_vms()) {
      (void)vm;
      if (resumed.plan().shard_of_trace(row) != k) ++foreign_rows;
    }
  }
  ASSERT_GT(foreign_rows, 0u) << "the snapshot holds no re-adopted rows";
  checked = 0;
  check_at_barriers(resumed);
  resumed.run();
  EXPECT_GT(checked, 0u);

  std::remove(snapshot.c_str());
  std::remove(config.run.checkpoint_out.c_str());
}

}  // namespace

// The per-shard streaming banks of a K=4 run, fresh and restored, deliver
// the demand of the materialized TraceSet row by row.
TEST(ShardedDailyRun, StreamingBanksMatchMaterializedSharded) {
  expect_rows_drive_their_own_demand(small_config(), "fault_free");
}

// The same oracle under crash/repair churn and aborted migrations.
TEST(ShardedDailyRun, FaultedStreamingMatchesFaultedMaterialized) {
  expect_rows_drive_their_own_demand(faulted_config(), "faulted");
}

TEST(ShardedDailyRun, StreamingSingleShardMatchesSingleThreadedStreaming) {
  // The retired streaming_traces key still parses (the frozen perfbench
  // planet config sets it) but selects nothing: a K=1 run that sets it
  // replays the single-threaded run that does not, byte for byte.
  const auto config = small_config();

  scenario::DailyScenario reference(config);
  metrics::EventLog reference_log;
  reference_log.attach(*reference.ecocloud());
  reference.run();

  auto keyed = config;
  keyed.streaming_traces = true;
  par::ShardedDailyRun sharded(keyed, {.shards = 1, .threads = 1});
  sharded.run();

  std::ostringstream reference_csv;
  reference_log.write_csv(reference_csv);
  EXPECT_EQ(events_csv(sharded), reference_csv.str());
  EXPECT_EQ(sharded.stats().energy_joules,
            reference.datacenter().energy_joules());
  expect_samples_identical(sharded.merged_samples(),
                           reference.collector().samples());
}

TEST(ShardedDailyRun, StreamingCheckpointResumeReplaysExactly) {
  // Restore path: banks regenerate at step 0, fast-forward to the snapshot
  // barrier, and the coordinator re-adopts every cross-shard row from its
  // owner bank before the run continues.
  const auto config = small_config();

  par::ShardedDailyRun reference(config, {.shards = 4, .threads = 2});
  reference.run();
  // The resume below is only a real test if rows cross shards.
  ASSERT_GT(reference.stats().cross_shard_migrations, 0u);

  auto ckpt_config = config;
  ckpt_config.run.checkpoint_out = temp_path("stream.ckpt");
  ckpt_config.run.checkpoint_every_s = 1800.0;
  const std::string first_snapshot = temp_path("stream_first.ckpt");
  const std::string late_snapshot = temp_path("stream_late.ckpt");
  par::ShardedDailyRun checkpointed(ckpt_config, {.shards = 4, .threads = 2});
  std::size_t snapshots = 0;
  checkpointed.on_checkpoint = [&](const std::string& path) {
    // Keep the first snapshot (few adopted rows) and the latest one (many).
    std::ofstream out(snapshots == 0 ? first_snapshot : late_snapshot,
                      std::ios::binary);
    out << slurp(path);
    ++snapshots;
  };
  checkpointed.run();
  ASSERT_GT(snapshots, 1u);
  EXPECT_EQ(events_csv(checkpointed), events_csv(reference));

  for (const std::string& snapshot : {first_snapshot, late_snapshot}) {
    par::ShardedDailyRun resumed(config, {.shards = 4, .threads = 1});
    resumed.restore_snapshot(snapshot);
    ASSERT_TRUE(resumed.resumed());
    resumed.run();
    EXPECT_EQ(events_csv(resumed), events_csv(reference));
    EXPECT_EQ(resumed.stats().energy_joules, reference.stats().energy_joules);
    expect_samples_identical(resumed.merged_samples(),
                             reference.merged_samples());
  }

  std::remove(first_snapshot.c_str());
  std::remove(late_snapshot.c_str());
  std::remove(ckpt_config.run.checkpoint_out.c_str());
}
