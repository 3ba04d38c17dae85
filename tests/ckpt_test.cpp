// Tests for the checkpoint/restore subsystem: the snapshot container's
// rejection of corrupted/foreign files, bit-identical resume of both
// scenarios (event log bytes, metric samples and every accumulated
// aggregate), the consistency rules that refuse to resume into different
// wiring, and the runtime invariant auditor + watchdog.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ecocloud/ckpt/auditor.hpp"
#include "ecocloud/ckpt/checkpoint.hpp"
#include "ecocloud/ckpt/snapshot_io.hpp"
#include "ecocloud/ckpt/watchdog.hpp"
#include "ecocloud/metrics/event_log.hpp"
#include "ecocloud/scenario/scenario.hpp"
#include "ecocloud/util/rng.hpp"
#include "ecocloud/util/snapshot.hpp"

using namespace ecocloud;

namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "ckpt_test_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// --- Snapshot container ------------------------------------------------------

ckpt::Snapshot sample_snapshot() {
  ckpt::Snapshot snapshot;
  snapshot.add("alpha", std::string("hello\0world", 11));
  snapshot.add("beta", "");
  std::string blob(4096, '\0');
  for (std::size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<char>(i * 31 + 7);
  }
  snapshot.add("gamma", blob);
  return snapshot;
}

TEST(SnapshotIo, RoundTripPreservesSections) {
  const std::string path = temp_path("roundtrip.ckpt");
  const ckpt::Snapshot written = sample_snapshot();
  ckpt::write_snapshot_file(written, path);

  const ckpt::Snapshot read = ckpt::read_snapshot_file(path);
  ASSERT_EQ(read.sections.size(), written.sections.size());
  for (std::size_t i = 0; i < written.sections.size(); ++i) {
    EXPECT_EQ(read.sections[i].name, written.sections[i].name);
    EXPECT_EQ(read.sections[i].payload, written.sections[i].payload);
  }
  std::remove(path.c_str());
}

TEST(SnapshotIo, AtomicWriteLeavesNoTemporary) {
  const std::string path = temp_path("atomic.ckpt");
  ckpt::write_snapshot_file(sample_snapshot(), path);
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

TEST(SnapshotIo, DuplicateSectionNameRejected) {
  ckpt::Snapshot snapshot;
  snapshot.add("twice", "a");
  EXPECT_THROW(snapshot.add("twice", "b"), ckpt::SnapshotError);
}

TEST(SnapshotIo, MissingFileRejected) {
  EXPECT_THROW((void)ckpt::read_snapshot_file(temp_path("does_not_exist.ckpt")),
               ckpt::SnapshotError);
}

TEST(SnapshotIo, BadMagicRejected) {
  const std::string path = temp_path("magic.ckpt");
  ckpt::write_snapshot_file(sample_snapshot(), path);
  std::string bytes = read_file(path);
  bytes[0] = 'X';
  write_file(path, bytes);
  try {
    (void)ckpt::read_snapshot_file(path);
    FAIL() << "bad magic accepted";
  } catch (const ckpt::SnapshotError& error) {
    EXPECT_NE(std::string(error.what()).find("bad magic"), std::string::npos)
        << error.what();
  }
  std::remove(path.c_str());
}

TEST(SnapshotIo, WrongFormatVersionRejected) {
  const std::string path = temp_path("version.ckpt");
  ckpt::write_snapshot_file(sample_snapshot(), path);
  std::string bytes = read_file(path);
  // Little-endian u32 version immediately after the 8-byte magic.
  bytes[sizeof(ckpt::kSnapshotMagic)] =
      static_cast<char>(ckpt::kFormatVersion + 1);
  write_file(path, bytes);
  try {
    (void)ckpt::read_snapshot_file(path);
    FAIL() << "wrong version accepted";
  } catch (const ckpt::SnapshotError& error) {
    EXPECT_NE(std::string(error.what()).find("format version"), std::string::npos)
        << error.what();
  }
  std::remove(path.c_str());
}

TEST(SnapshotIo, FlippedPayloadBitFailsCrc) {
  const std::string path = temp_path("crc.ckpt");
  ckpt::write_snapshot_file(sample_snapshot(), path);
  std::string bytes = read_file(path);
  // The tail of the file is inside the last section's payload.
  bytes[bytes.size() - 10] ^= 0x20;
  write_file(path, bytes);
  try {
    (void)ckpt::read_snapshot_file(path);
    FAIL() << "corrupted payload accepted";
  } catch (const ckpt::SnapshotError& error) {
    EXPECT_NE(std::string(error.what()).find("CRC32"), std::string::npos)
        << error.what();
  }
  std::remove(path.c_str());
}

TEST(SnapshotIo, TruncatedFileRejectedAtEveryLength) {
  const std::string path = temp_path("truncated.ckpt");
  ckpt::write_snapshot_file(sample_snapshot(), path);
  const std::string bytes = read_file(path);
  // Every proper prefix must be rejected cleanly (no UB, no acceptance):
  // cutting inside the header, a section name, a length field, or a payload.
  for (std::size_t keep : {std::size_t{0}, std::size_t{4}, std::size_t{9},
                           std::size_t{30}, bytes.size() / 2, bytes.size() - 1}) {
    ASSERT_LT(keep, bytes.size());
    write_file(path, bytes.substr(0, keep));
    EXPECT_THROW((void)ckpt::read_snapshot_file(path), ckpt::SnapshotError)
        << "prefix of " << keep << " bytes accepted";
  }
  std::remove(path.c_str());
}

TEST(SnapshotIo, TrailingGarbageRejected) {
  const std::string path = temp_path("trailing.ckpt");
  ckpt::write_snapshot_file(sample_snapshot(), path);
  write_file(path, read_file(path) + "extra");
  EXPECT_THROW((void)ckpt::read_snapshot_file(path), ckpt::SnapshotError);
  std::remove(path.c_str());
}

// --- unordered_map iteration-order restore -----------------------------------

// Bit-exact resume hinges on restoring hashtable iteration order, which
// save_unordered/load_unordered achieve (on libstdc++) by re-inserting in
// reverse saved order into a table with the saved bucket count. Property:
// arbitrary insert/erase histories round-trip to the same iteration order.
TEST(SnapshotUtil, UnorderedMapIterationOrderSurvivesRoundTrip) {
  util::Rng rng(2026);
  for (int trial = 0; trial < 20; ++trial) {
    std::unordered_map<std::uint64_t, double> original;
    const std::size_t inserts = 1 + rng.uniform_int(400);
    for (std::size_t i = 0; i < inserts; ++i) {
      original[rng.uniform_int(1000)] = rng.uniform();
      if (!original.empty() && rng.bernoulli(0.2)) {
        original.erase(original.begin());
      }
    }

    util::BinWriter w;
    util::save_unordered(w, original,
                         [](util::BinWriter& out, std::uint64_t key, double value) {
                           out.u64(key);
                           out.f64(value);
                         });
    std::unordered_map<std::uint64_t, double> restored;
    util::BinReader r(w.buffer());
    util::load_unordered(r, restored, [](util::BinReader& in) {
      const std::uint64_t key = in.u64();
      const double value = in.f64();
      return std::make_pair(key, value);
    });

    ASSERT_EQ(restored.size(), original.size());
    ASSERT_EQ(restored.bucket_count(), original.bucket_count());
    auto it = original.begin();
    auto jt = restored.begin();
    for (; it != original.end(); ++it, ++jt) {
      EXPECT_EQ(jt->first, it->first);
      EXPECT_EQ(jt->second, it->second);
    }
  }
}

// Matching immediately after restore is not enough: the restored table must
// also stay in lockstep with the original under further identical mutation,
// which requires the rehash policy (growth trajectory) to survive the round
// trip too. The critical case is a map snapshotted while still EMPTY —
// libstdc++'s never-used table sits in a single-bucket state that rehash()
// cannot recreate, and a restored 2-bucket table grows 2, 5, 11, ... while
// the original grows 13, 29, ..., diverging iteration order hours after
// resume (found by the crash-resume CI rehearsal; see load_unordered).
TEST(SnapshotUtil, RestoredMapStaysInLockstepUnderFurtherMutation) {
  util::Rng rng(8086);
  const auto save_item = [](util::BinWriter& out, std::uint64_t key,
                            double value) {
    out.u64(key);
    out.f64(value);
  };
  const auto load_item = [](util::BinReader& in) {
    const std::uint64_t key = in.u64();
    const double value = in.f64();
    return std::make_pair(key, value);
  };
  for (int trial = 0; trial < 20; ++trial) {
    std::unordered_map<std::uint64_t, double> original;
    // Trial 0 snapshots a virgin (never used) map; later trials snapshot
    // after a random history that may or may not leave it empty.
    const std::size_t inserts = trial == 0 ? 0 : rng.uniform_int(60);
    for (std::size_t i = 0; i < inserts; ++i) {
      original[rng.uniform_int(500)] = rng.uniform();
      if (!original.empty() && rng.bernoulli(0.4)) {
        original.erase(original.begin());
      }
    }

    util::BinWriter w;
    util::save_unordered(w, original, save_item);
    std::unordered_map<std::uint64_t, double> restored;
    util::BinReader r(w.buffer());
    util::load_unordered(r, restored, load_item);
    ASSERT_EQ(restored.bucket_count(), original.bucket_count());

    // Identical op sequence on both; structure must never diverge.
    for (int step = 0; step < 400; ++step) {
      const std::uint64_t key = rng.uniform_int(500);
      const double value = rng.uniform();
      original[key] = value;
      restored[key] = value;
      if (original.size() > 2 && rng.bernoulli(0.3)) {
        original.erase(original.begin());
        restored.erase(restored.begin());
      }
      ASSERT_EQ(restored.size(), original.size());
      ASSERT_EQ(restored.bucket_count(), original.bucket_count())
          << "trial " << trial << " step " << step;
      auto it = original.begin();
      auto jt = restored.begin();
      for (; it != original.end(); ++it, ++jt) {
        ASSERT_EQ(jt->first, it->first) << "trial " << trial << " step " << step;
      }
    }
  }
}

// --- Bit-identical resume: daily scenario ------------------------------------

namespace {

scenario::DailyConfig resume_daily_config() {
  scenario::DailyConfig config;
  config.fleet.num_servers = 48;
  config.num_vms = 600;
  config.horizon_s = 6.0 * sim::kHour;
  config.warmup_s = 1.0 * sim::kHour;
  config.seed = 7;
  // Exercise every fault code path so their RNG streams, redeploy queue
  // and in-flight repairs are part of what resume must reproduce.
  config.faults.server_mtbf_s = 4.0 * sim::kHour;
  config.faults.server_mttr_s = 600.0;
  config.faults.migration_abort_prob = 0.05;
  config.faults.boot_failure_prob = 0.10;
  config.faults.invitation_loss_prob = 0.02;
  config.faults.reply_loss_prob = 0.02;
  return config;
}

/// Everything a resumed run must reproduce bit for bit.
struct DailyResult {
  double energy_joules = 0.0;
  double vm_seconds = 0.0;
  double overload_vm_seconds = 0.0;
  std::uint64_t migrations = 0;
  std::uint64_t activations = 0;
  std::uint64_t hibernations = 0;
  std::uint64_t messages = 0;
  std::uint64_t executed_events = 0;
  std::string event_csv;
  std::vector<metrics::Sample> samples;
};

DailyResult daily_result(scenario::DailyScenario& daily,
                         const metrics::EventLog& log) {
  DailyResult result;
  const dc::DataCenter& d = daily.datacenter();
  result.energy_joules = d.energy_joules();
  result.vm_seconds = d.vm_seconds();
  result.overload_vm_seconds = d.overload_vm_seconds();
  result.migrations = d.total_migrations();
  result.activations = d.total_activations();
  result.hibernations = d.total_hibernations();
  result.messages = daily.ecocloud()->messages().total();
  result.executed_events = daily.simulator().executed_events();
  std::ostringstream csv;
  log.write_csv(csv);
  result.event_csv = csv.str();
  result.samples = daily.collector().samples();
  return result;
}

void expect_same(const DailyResult& resumed, const DailyResult& reference) {
  // Exact comparisons throughout: resume must be bit-identical, so even
  // doubles compare with ==.
  EXPECT_EQ(resumed.energy_joules, reference.energy_joules);
  EXPECT_EQ(resumed.vm_seconds, reference.vm_seconds);
  EXPECT_EQ(resumed.overload_vm_seconds, reference.overload_vm_seconds);
  EXPECT_EQ(resumed.migrations, reference.migrations);
  EXPECT_EQ(resumed.activations, reference.activations);
  EXPECT_EQ(resumed.hibernations, reference.hibernations);
  EXPECT_EQ(resumed.messages, reference.messages);
  EXPECT_EQ(resumed.executed_events, reference.executed_events);
  EXPECT_EQ(resumed.event_csv, reference.event_csv);
  ASSERT_EQ(resumed.samples.size(), reference.samples.size());
  for (std::size_t i = 0; i < reference.samples.size(); ++i) {
    EXPECT_EQ(resumed.samples[i].time, reference.samples[i].time);
    EXPECT_EQ(resumed.samples[i].active_servers, reference.samples[i].active_servers);
    EXPECT_EQ(resumed.samples[i].booting_servers,
              reference.samples[i].booting_servers);
    EXPECT_EQ(resumed.samples[i].overall_load, reference.samples[i].overall_load);
    EXPECT_EQ(resumed.samples[i].power_w, reference.samples[i].power_w);
    EXPECT_EQ(resumed.samples[i].overload_percent,
              reference.samples[i].overload_percent);
    EXPECT_EQ(resumed.samples[i].window_energy_j,
              reference.samples[i].window_energy_j);
  }
}

void register_event_log(ckpt::CheckpointManager& manager, metrics::EventLog& log) {
  manager.add_section(
      "event_log", [&log](util::BinWriter& w) { log.save_state(w); },
      [&log](util::BinReader& r) { log.load_state(r); });
}

/// Keep a numbered copy of the snapshot just written to \p path.
void keep_copy(const std::string& path, std::vector<std::string>& copies) {
  const std::string copy = path + "." + std::to_string(copies.size());
  std::ofstream out(copy, std::ios::binary | std::ios::trunc);
  std::ifstream in(path, std::ios::binary);
  out << in.rdbuf();
  copies.push_back(copy);
}

/// Run \p daily from its current time to the horizon in slices ending on
/// the multiples of \p period_s, saving a snapshot at every slice boundary
/// (a safe point) and keeping a numbered copy of each.
void finish_saving_snapshots(scenario::DailyScenario& daily,
                             ckpt::CheckpointManager& manager,
                             sim::SimTime period_s, const std::string& path,
                             std::vector<std::string>& copies) {
  sim::SimTime t = daily.simulator().now();
  for (bool done = false; !done;) {
    t = (std::floor(t / period_s) + 1.0) * period_s;
    done = daily.run_slice(t);
    manager.save(path);
    keep_copy(path, copies);
  }
  daily.finish();
}

/// Run the reference to completion, checkpointing every \p period_s and
/// keeping a numbered copy of every snapshot along the way.
DailyResult run_daily_reference(const scenario::DailyConfig& config,
                                sim::SimTime period_s, const std::string& path,
                                std::vector<std::string>& copies) {
  scenario::DailyScenario daily(config);
  metrics::EventLog log;
  log.attach(*daily.ecocloud());
  ckpt::CheckpointManager manager(daily.simulator());
  daily.register_checkpoint(manager);
  register_event_log(manager, log);
  daily.start();
  finish_saving_snapshots(daily, manager, period_s, path, copies);
  return daily_result(daily, log);
}

/// Resume from one snapshot into a freshly built scenario and finish.
DailyResult resume_daily(const scenario::DailyConfig& config,
                         const std::string& snapshot) {
  scenario::DailyScenario daily(config);
  metrics::EventLog log;
  log.attach(*daily.ecocloud());
  ckpt::CheckpointManager manager(daily.simulator());
  daily.register_checkpoint(manager);
  register_event_log(manager, log);
  manager.restore(snapshot);
  daily.run_resumed();
  return daily_result(daily, log);
}

void remove_all(const std::vector<std::string>& paths) {
  for (const std::string& path : paths) std::remove(path.c_str());
}

}  // namespace

// The tentpole guarantee: resuming from any snapshot of an interrupted run
// reproduces the uninterrupted run bit for bit — event log CSV bytes, every
// 30-minute sample, and every accumulated double compare with ==. The
// snapshot cadence (1800 s) straddles the 1 h warmup, so the first resume
// point exercises the "snapshot before the accounting reset" path.
TEST(CheckpointResume, DailyRunIsBitIdenticalFromEverySnapshot) {
  const scenario::DailyConfig config = resume_daily_config();
  const std::string path = temp_path("daily.ckpt");
  std::vector<std::string> copies;
  const DailyResult reference =
      run_daily_reference(config, 1800.0, path, copies);
  // 6 h / 1800 s = 12 snapshots (the last lands exactly on the horizon).
  ASSERT_GE(copies.size(), 10u);

  // Resume from before the warmup reset, right at it, mid-run, and from
  // the final snapshot.
  for (const std::size_t index :
       {std::size_t{0}, std::size_t{1}, copies.size() / 2, copies.size() - 1}) {
    SCOPED_TRACE("snapshot #" + std::to_string(index));
    const DailyResult resumed = resume_daily(config, copies[index]);
    expect_same(resumed, reference);
  }
  remove_all(copies);
  std::remove(path.c_str());
}

// The fast sampler adds deterministic state of its own — the dense
// membership order inside DataCenter and the controller's open-boot
// registry, both drawn from by index — so resume must reproduce that
// order exactly, not just the aggregate placement state.
TEST(CheckpointResume, FastSamplerRunIsBitIdenticalFromEverySnapshot) {
  scenario::DailyConfig config = resume_daily_config();
  config.params.fast_sampler = true;
  config.params.invite_group_size = 8;  // exercise Floyd's subset sampling
  const std::string path = temp_path("daily_fast.ckpt");
  std::vector<std::string> copies;
  const DailyResult reference =
      run_daily_reference(config, 1800.0, path, copies);
  ASSERT_GE(copies.size(), 10u);
  for (const std::size_t index :
       {std::size_t{0}, copies.size() / 2, copies.size() - 1}) {
    SCOPED_TRACE("snapshot #" + std::to_string(index));
    const DailyResult resumed = resume_daily(config, copies[index]);
    expect_same(resumed, reference);
  }
  remove_all(copies);
  std::remove(path.c_str());
}

// Chained resume: interrupt the *resumed* run again and resume from its
// own snapshot. Crash-safety must compose across generations of resumes.
TEST(CheckpointResume, DailyResumeOfAResumeStaysBitIdentical) {
  const scenario::DailyConfig config = resume_daily_config();
  const std::string path = temp_path("daily_chain.ckpt");
  std::vector<std::string> copies;
  const DailyResult reference =
      run_daily_reference(config, 2700.0, path, copies);
  ASSERT_GE(copies.size(), 3u);

  // First resume: restore snapshot #0 and let the run write its own
  // snapshots to a second path.
  std::vector<std::string> second_copies;
  const std::string second_path = temp_path("daily_chain2.ckpt");
  {
    scenario::DailyScenario daily(config);
    metrics::EventLog log;
    log.attach(*daily.ecocloud());
    ckpt::CheckpointManager manager(daily.simulator());
    daily.register_checkpoint(manager);
    register_event_log(manager, log);
    manager.restore(copies[0]);
    finish_saving_snapshots(daily, manager, 2700.0, second_path, second_copies);
    expect_same(daily_result(daily, log), reference);
  }
  ASSERT_GE(second_copies.size(), 2u);

  // Second generation: resume from a snapshot the resumed run wrote.
  const DailyResult resumed =
      resume_daily(config, second_copies[second_copies.size() - 2]);
  expect_same(resumed, reference);

  remove_all(copies);
  remove_all(second_copies);
  std::remove(path.c_str());
  std::remove(second_path.c_str());
}

// Satellite: property test — random checkpoint cadences (hence random
// interruption points measured in executed events) never perturb the
// final event log or aggregates.
TEST(CheckpointResume, PropertyRandomCadencesAndResumePoints) {
  scenario::DailyConfig config = resume_daily_config();
  // Smaller run: the property loop runs several full simulations.
  config.fleet.num_servers = 24;
  config.num_vms = 300;
  config.horizon_s = 3.0 * sim::kHour;
  config.warmup_s = 0.5 * sim::kHour;

  util::Rng rng(424242);
  for (int trial = 0; trial < 3; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    config.seed = 100 + static_cast<std::uint64_t>(trial);
    const double period_s = 300.0 + rng.uniform(0.0, 3000.0);
    const std::string path =
        temp_path("property_" + std::to_string(trial) + ".ckpt");
    std::vector<std::string> copies;
    const DailyResult reference =
        run_daily_reference(config, period_s, path, copies);
    ASSERT_FALSE(copies.empty());

    const std::size_t index = rng.index(copies.size());
    SCOPED_TRACE("period " + std::to_string(period_s) + " s, snapshot #" +
                 std::to_string(index));
    const DailyResult resumed = resume_daily(config, copies[index]);
    expect_same(resumed, reference);
    remove_all(copies);
    std::remove(path.c_str());
  }
}

// A run that never checkpoints must not even notice the subsystem exists,
// and one that checkpoints and audits between slices must not notice it
// either: safe points lie outside the calendar, so even executed_events()
// matches the bare run.
TEST(CheckpointResume, RegisteredButIdleManagerIsInvisible) {
  scenario::DailyConfig config = resume_daily_config();
  config.fleet.num_servers = 24;
  config.num_vms = 300;
  config.horizon_s = 2.0 * sim::kHour;
  config.warmup_s = 0.0;

  DailyResult bare;
  {
    scenario::DailyScenario daily(config);
    metrics::EventLog log;
    log.attach(*daily.ecocloud());
    daily.run();
    bare = daily_result(daily, log);
  }
  DailyResult registered;
  {
    scenario::DailyScenario daily(config);
    metrics::EventLog log;
    log.attach(*daily.ecocloud());
    ckpt::CheckpointManager manager(daily.simulator());
    daily.register_checkpoint(manager);
    register_event_log(manager, log);
    daily.run();
    registered = daily_result(daily, log);
  }
  expect_same(registered, bare);

  DailyResult operated;
  {
    scenario::DailyScenario daily(config);
    metrics::EventLog log;
    log.attach(*daily.ecocloud());
    ckpt::CheckpointManager manager(daily.simulator());
    daily.register_checkpoint(manager);
    register_event_log(manager, log);
    ckpt::RuntimeAuditor auditor(daily.simulator(), daily.datacenter(),
                                 {.action = ckpt::AuditAction::kAbort});
    auditor.attach_controller(daily.ecocloud());
    if (daily.fault_injector() != nullptr) {
      auditor.attach_redeploy(&daily.fault_injector()->redeploy());
    }
    const std::string path = temp_path("operated.ckpt");
    daily.start();
    for (sim::SimTime t = 600.0;; t += 600.0) {
      const bool done = daily.run_slice(t);
      manager.save(path);
      EXPECT_TRUE(auditor.run_audit().empty());
      if (done) break;
    }
    daily.finish();
    operated = daily_result(daily, log);
    EXPECT_EQ(manager.stats().checkpoints_written, 12u);
    std::remove(path.c_str());
  }
  expect_same(operated, bare);
}

// --- Bit-identical resume: consolidation scenario ----------------------------

namespace {

struct ConsResult {
  double energy_joules = 0.0;
  double vm_seconds = 0.0;
  std::uint64_t arrivals = 0;
  std::uint64_t departures = 0;
  std::uint64_t rejections = 0;
  std::uint64_t messages = 0;
  std::uint64_t executed_events = 0;
  std::vector<metrics::Sample> samples;
};

ConsResult cons_result(scenario::ConsolidationScenario& cons) {
  ConsResult result;
  result.energy_joules = cons.datacenter().energy_joules();
  result.vm_seconds = cons.datacenter().vm_seconds();
  result.arrivals = cons.open_system().total_arrivals();
  result.departures = cons.open_system().total_departures();
  result.rejections = cons.open_system().total_rejections();
  result.messages = cons.controller().messages().total();
  result.executed_events = cons.simulator().executed_events();
  result.samples = cons.collector().samples();
  return result;
}

void expect_same(const ConsResult& actual, const ConsResult& reference) {
  EXPECT_EQ(actual.energy_joules, reference.energy_joules);
  EXPECT_EQ(actual.vm_seconds, reference.vm_seconds);
  EXPECT_EQ(actual.arrivals, reference.arrivals);
  EXPECT_EQ(actual.departures, reference.departures);
  EXPECT_EQ(actual.rejections, reference.rejections);
  EXPECT_EQ(actual.messages, reference.messages);
  EXPECT_EQ(actual.executed_events, reference.executed_events);
  ASSERT_EQ(actual.samples.size(), reference.samples.size());
  for (std::size_t i = 0; i < reference.samples.size(); ++i) {
    EXPECT_EQ(actual.samples[i].time, reference.samples[i].time);
    EXPECT_EQ(actual.samples[i].active_servers,
              reference.samples[i].active_servers);
    EXPECT_EQ(actual.samples[i].overall_load, reference.samples[i].overall_load);
    EXPECT_EQ(actual.samples[i].power_w, reference.samples[i].power_w);
    EXPECT_EQ(actual.samples[i].window_energy_j,
              reference.samples[i].window_energy_j);
  }
}

scenario::ConsolidationConfig resume_cons_config() {
  scenario::ConsolidationConfig config;
  config.num_servers = 30;
  config.initial_vms = 300;
  config.horizon_s = 4.0 * sim::kHour;
  config.mean_lifetime_s = 1.0 * sim::kHour;
  config.seed = 11;
  return config;
}

ConsResult bare_consolidation_run(const scenario::ConsolidationConfig& config) {
  scenario::ConsolidationScenario cons(config);
  cons.run();
  return cons_result(cons);
}

}  // namespace

// The consolidation run checkpoints itself at its 300 s safe points
// (config.run). Resuming from every snapshot it wrote reproduces the bare
// run exactly; a resume that names an output but no cadence keeps the
// snapshot's and writes the uninterrupted run's snapshots byte for byte.
TEST(CheckpointResume, ConsolidationRunIsBitIdentical) {
  const scenario::ConsolidationConfig config = resume_cons_config();
  const ConsResult bare = bare_consolidation_run(config);

  const std::string path = temp_path("cons.ckpt");
  std::vector<std::string> copies;
  {
    scenario::ConsolidationConfig checkpointed = config;
    checkpointed.run.checkpoint_out = path;
    checkpointed.run.checkpoint_every_s = 1800.0;
    scenario::ConsolidationScenario cons(checkpointed);
    cons.on_safe_point = [&cons, &copies, &path](sim::SimTime) {
      if (cons.checkpoints().stats().checkpoints_written > copies.size()) {
        keep_copy(path, copies);
      }
    };
    cons.run();
    expect_same(cons_result(cons), bare);
  }
  ASSERT_EQ(copies.size(), 8u);  // 4 h / 1800 s, the last on the horizon

  for (std::size_t index = 0; index < copies.size(); ++index) {
    SCOPED_TRACE("snapshot #" + std::to_string(index));
    scenario::ConsolidationScenario cons(config);
    cons.restore_snapshot(copies[index]);
    cons.run_resumed();
    expect_same(cons_result(cons), bare);
  }

  scenario::ConsolidationConfig resumed = config;
  resumed.run.checkpoint_out = temp_path("cons_resumed.ckpt");
  {
    scenario::ConsolidationScenario cons(resumed);
    cons.restore_snapshot(copies[2]);
    cons.run_resumed();
    expect_same(cons_result(cons), bare);
    EXPECT_EQ(cons.checkpoints().stats().checkpoints_written,
              copies.size() - 3);
  }
  EXPECT_EQ(read_file(resumed.run.checkpoint_out), read_file(copies.back()));

  remove_all(copies);
  std::remove(path.c_str());
  std::remove(resumed.run.checkpoint_out.c_str());
}

// Checkpoints, audits and the watchdog act at safe points, outside the
// calendar: the consolidation run executes exactly the bare run's events
// (the calendar-event services used to add one event per firing).
TEST(CheckpointResume, ConsolidationOperabilityIsInvisible) {
  const scenario::ConsolidationConfig config = resume_cons_config();
  scenario::ConsolidationConfig operated = config;
  operated.run.checkpoint_out = temp_path("cons_operated.ckpt");
  operated.run.checkpoint_every_s = 1800.0;
  operated.run.audit_every_s = 900.0;
  operated.run.audit_action = "abort";
  operated.run.audit_strict = false;  // departed VMs stay unowned
  operated.run.watchdog_stall_s = 120.0;
  scenario::ConsolidationScenario cons(operated);
  std::vector<sim::SimTime> safe_points;
  cons.on_safe_point = [&safe_points](sim::SimTime t) { safe_points.push_back(t); };
  cons.run();

  expect_same(cons_result(cons), bare_consolidation_run(config));
  EXPECT_EQ(safe_points.size(), 48u);  // every 300 s of 4 h
  EXPECT_EQ(cons.auditor()->stats().audits_run, 16u);
  EXPECT_EQ(cons.auditor()->stats().audits_failed, 0u);
  EXPECT_EQ(cons.checkpoints().stats().checkpoints_written, 8u);
  std::remove(operated.run.checkpoint_out.c_str());
}

// --- Consistency enforcement at restore --------------------------------------

namespace {

/// One early snapshot (t = 1800 s) of a short daily run, for the
/// rejection tests.
std::string make_daily_snapshot(const scenario::DailyConfig& config,
                                const std::string& path, bool with_event_log) {
  scenario::DailyScenario daily(config);
  metrics::EventLog log;
  log.attach(*daily.ecocloud());
  ckpt::CheckpointManager manager(daily.simulator());
  daily.register_checkpoint(manager);
  if (with_event_log) register_event_log(manager, log);
  daily.start();
  daily.run_slice(1800.0);
  manager.save(path);
  return path;
}

scenario::DailyConfig tiny_daily() {
  scenario::DailyConfig config;
  config.fleet.num_servers = 12;
  config.num_vms = 150;
  config.horizon_s = 1.0 * sim::kHour;
  config.seed = 5;
  return config;
}

}  // namespace

TEST(CheckpointConsistency, DifferentConfigDigestRejected) {
  const std::string path = temp_path("digest.ckpt");
  scenario::DailyConfig config = tiny_daily();
  make_daily_snapshot(config, path, /*with_event_log=*/false);

  config.seed = 6;  // different experiment
  scenario::DailyScenario daily(config);
  ckpt::CheckpointManager manager(daily.simulator());
  daily.register_checkpoint(manager);
  try {
    manager.restore(path);
    FAIL() << "digest mismatch accepted";
  } catch (const ckpt::SnapshotError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("different configuration"), std::string::npos) << what;
    EXPECT_NE(what.find("stored:"), std::string::npos) << what;
    EXPECT_NE(what.find("current:"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(CheckpointConsistency, SnapshotWithEventLogNeedsEventLogRegistered) {
  const std::string path = temp_path("needs_log.ckpt");
  const scenario::DailyConfig config = tiny_daily();
  make_daily_snapshot(config, path, /*with_event_log=*/true);

  scenario::DailyScenario daily(config);
  ckpt::CheckpointManager manager(daily.simulator());
  daily.register_checkpoint(manager);  // no event log this time
  try {
    manager.restore(path);
    FAIL() << "dropped the stored event_log section silently";
  } catch (const ckpt::SnapshotError& error) {
    EXPECT_NE(std::string(error.what()).find("carries section 'event_log'"),
              std::string::npos)
        << error.what();
  }
  std::remove(path.c_str());
}

TEST(CheckpointConsistency, SnapshotWithoutEventLogRejectsEventLogRegistration) {
  const std::string path = temp_path("no_log.ckpt");
  const scenario::DailyConfig config = tiny_daily();
  make_daily_snapshot(config, path, /*with_event_log=*/false);

  scenario::DailyScenario daily(config);
  metrics::EventLog log;
  log.attach(*daily.ecocloud());
  ckpt::CheckpointManager manager(daily.simulator());
  daily.register_checkpoint(manager);
  register_event_log(manager, log);
  try {
    manager.restore(path);
    FAIL() << "resumed with an event log the original run did not have";
  } catch (const ckpt::SnapshotError& error) {
    EXPECT_NE(std::string(error.what()).find("missing section 'event_log'"),
              std::string::npos)
        << error.what();
  }
  std::remove(path.c_str());
}

TEST(CheckpointConsistency, RestoreTwiceRejected) {
  const std::string path = temp_path("twice.ckpt");
  const scenario::DailyConfig config = tiny_daily();
  make_daily_snapshot(config, path, /*with_event_log=*/false);

  scenario::DailyScenario daily(config);
  ckpt::CheckpointManager manager(daily.simulator());
  daily.register_checkpoint(manager);
  manager.restore(path);
  EXPECT_THROW(manager.restore(path), std::exception);
  std::remove(path.c_str());
}

TEST(CheckpointConsistency, CorruptedSnapshotNamesTheSection) {
  const std::string path = temp_path("named.ckpt");
  const scenario::DailyConfig config = tiny_daily();
  make_daily_snapshot(config, path, /*with_event_log=*/false);

  std::string bytes = read_file(path);
  bytes[bytes.size() / 2] ^= 0x01;
  write_file(path, bytes);
  scenario::DailyScenario daily(config);
  ckpt::CheckpointManager manager(daily.simulator());
  daily.register_checkpoint(manager);
  try {
    manager.restore(path);
    FAIL() << "corrupted snapshot accepted";
  } catch (const ckpt::SnapshotError& error) {
    // Either a CRC failure naming a section or a structural error — both
    // carry the path for actionable diagnostics.
    EXPECT_NE(std::string(error.what()).find(path), std::string::npos)
        << error.what();
  }
  std::remove(path.c_str());
}

// --- Runtime auditor ---------------------------------------------------------

TEST(Auditor, ParseAction) {
  EXPECT_EQ(ckpt::parse_audit_action("log"), ckpt::AuditAction::kLog);
  EXPECT_EQ(ckpt::parse_audit_action("abort"), ckpt::AuditAction::kAbort);
  EXPECT_EQ(ckpt::parse_audit_action("heal"), ckpt::AuditAction::kHeal);
  EXPECT_THROW((void)ckpt::parse_audit_action("explode"), std::invalid_argument);
  EXPECT_STREQ(ckpt::to_string(ckpt::AuditAction::kAbort), "abort");
}

namespace {

/// Run \p daily to the horizon in \p period_s slices, auditing at every
/// slice boundary (a safe point).
void run_audited(scenario::DailyScenario& daily, ckpt::RuntimeAuditor& auditor,
                 sim::SimTime period_s) {
  daily.start();
  for (sim::SimTime t = period_s;; t += period_s) {
    const bool done = daily.run_slice(t);
    (void)auditor.run_audit();
    if (done) break;
  }
  daily.finish();
}

}  // namespace

TEST(Auditor, CleanDailyRunPassesEveryAudit) {
  scenario::DailyConfig config = resume_daily_config();
  config.fleet.num_servers = 24;
  config.num_vms = 300;
  config.horizon_s = 3.0 * sim::kHour;

  scenario::DailyScenario daily(config);
  // kAbort: corruption would kill the test.
  ckpt::RuntimeAuditor auditor(daily.simulator(), daily.datacenter(),
                               {.action = ckpt::AuditAction::kAbort});
  auditor.attach_controller(daily.ecocloud());
  if (daily.fault_injector() != nullptr) {
    auditor.attach_redeploy(&daily.fault_injector()->redeploy());
  }
  run_audited(daily, auditor, 600.0);

  EXPECT_EQ(auditor.stats().audits_run, 18u);  // 3 h / 600 s
  EXPECT_EQ(auditor.stats().audits_failed, 0u);
  EXPECT_EQ(auditor.stats().heals_applied, 0u);
}

// Acceptance gate: the auditor stays green on the paper-scale experiment
// (same fleet/VM shape as the Sec. III regression run).
TEST(Auditor, PassesOnPaperScaleDaily) {
  scenario::DailyConfig config;
  config.fleet.num_servers = 60;
  config.num_vms = 900;
  config.horizon_s = 48.0 * sim::kHour;
  config.seed = 20130520;

  scenario::DailyScenario daily(config);
  ckpt::RuntimeAuditor auditor(daily.simulator(), daily.datacenter(),
                               {.action = ckpt::AuditAction::kAbort});
  auditor.attach_controller(daily.ecocloud());
  run_audited(daily, auditor, 2.0 * sim::kHour);

  EXPECT_EQ(auditor.stats().audits_run, 24u);  // 48 h / 2 h
  EXPECT_EQ(auditor.stats().audits_failed, 0u);
}

TEST(Auditor, StrictModeDetectsUnownedVm) {
  scenario::DailyConfig config = tiny_daily();
  scenario::DailyScenario daily(config);
  daily.run();

  ckpt::AuditorConfig audit;
  audit.strict_vm_accounting = true;
  ckpt::RuntimeAuditor auditor(daily.simulator(), daily.datacenter(), audit);
  auditor.attach_controller(daily.ecocloud());
  EXPECT_TRUE(auditor.run_audit().empty());

  // A VM that exists but is neither placed, boot-queued, nor pending
  // redeploy is a leak; strict accounting must flag it.
  (void)daily.datacenter().create_vm(500.0, 512.0);
  const std::vector<std::string> failures = auditor.run_audit();
  ASSERT_FALSE(failures.empty());
  bool mentions_ownership = false;
  for (const std::string& failure : failures) {
    if (failure.find("neither placed") != std::string::npos) {
      mentions_ownership = true;
    }
  }
  EXPECT_TRUE(mentions_ownership) << failures.front();
  EXPECT_EQ(auditor.stats().audits_run, 2u);
  EXPECT_EQ(auditor.stats().audits_failed, 1u);

  // Relaxed accounting (the consolidation default) accepts unowned VMs.
  ckpt::AuditorConfig relaxed;
  relaxed.strict_vm_accounting = false;
  ckpt::RuntimeAuditor lenient(daily.simulator(), daily.datacenter(), relaxed);
  lenient.attach_controller(daily.ecocloud());
  EXPECT_TRUE(lenient.run_audit().empty());
}

TEST(Auditor, HealRepairsOnlyDerivableState) {
  scenario::DailyConfig config = tiny_daily();
  scenario::DailyScenario daily(config);
  daily.run();

  // True state corruption (an unowned VM) is not cache drift: heal runs,
  // repairs nothing, and the failure is still reported.
  (void)daily.datacenter().create_vm(500.0, 512.0);
  ckpt::AuditorConfig audit;
  audit.action = ckpt::AuditAction::kHeal;
  ckpt::RuntimeAuditor auditor(daily.simulator(), daily.datacenter(), audit);
  auditor.attach_controller(daily.ecocloud());
  const std::vector<std::string> failures = auditor.run_audit();
  EXPECT_FALSE(failures.empty());
  EXPECT_EQ(auditor.stats().heals_applied, 1u);
  EXPECT_EQ(daily.datacenter().heal_caches(), 0u);  // caches were never wrong
}

// --- Watchdog ----------------------------------------------------------------

TEST(Watchdog, BeatsKeepItQuiet) {
  ckpt::Watchdog::Config config;
  config.stall_seconds = 0.3;
  ckpt::Watchdog watchdog(config);
  watchdog.arm();
  for (int i = 0; i < 6; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    watchdog.beat(static_cast<std::uint64_t>(i), static_cast<double>(i));
  }
  watchdog.disarm();
  EXPECT_FALSE(watchdog.armed());
  // Destructor joins the monitor thread; reaching here without an abort
  // is the assertion.
}

TEST(Watchdog, DisarmedWatchdogIgnoresSilence) {
  ckpt::Watchdog::Config config;
  config.stall_seconds = 0.1;
  ckpt::Watchdog watchdog(config);  // never armed
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
}

TEST(WatchdogDeathTest, AbortsOnStallWithDiagnostic) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        ckpt::Watchdog::Config config;
        config.stall_seconds = 0.2;
        ckpt::Watchdog watchdog(config);
        watchdog.beat(42, 1234.0);
        watchdog.arm();
        std::this_thread::sleep_for(std::chrono::seconds(5));
      },
      "stalled");
}

}  // namespace
