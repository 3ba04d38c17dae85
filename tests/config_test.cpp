// Tests for key=value parsing, experiment-config loading, and the
// PlanetLab trace-directory import/export.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "ecocloud/scenario/config_io.hpp"
#include "ecocloud/trace/planetlab_io.hpp"
#include "ecocloud/util/key_value.hpp"

using namespace ecocloud;

// ----------------------------------------------------------------- key=value

TEST(KeyValue, ParsesAssignmentsCommentsBlanks) {
  const auto kv = util::KeyValueConfig::parse_string(
      "# header comment\n"
      "alpha = 0.25\n"
      "\n"
      "name = hello ; trailing comment\n"
      "count=42\n");
  EXPECT_EQ(kv.size(), 3u);
  EXPECT_DOUBLE_EQ(kv.get_double("alpha", 0.0), 0.25);
  EXPECT_EQ(kv.get_string("name", ""), "hello");
  EXPECT_EQ(kv.get_int("count", 0), 42);
}

TEST(KeyValue, FallbacksWhenAbsent) {
  const auto kv = util::KeyValueConfig::parse_string("");
  EXPECT_DOUBLE_EQ(kv.get_double("x", 1.5), 1.5);
  EXPECT_EQ(kv.get_int("y", 7), 7);
  EXPECT_TRUE(kv.get_bool("z", true));
  EXPECT_EQ(kv.get_string("s", "d"), "d");
}

TEST(KeyValue, BooleanSpellings) {
  const auto kv = util::KeyValueConfig::parse_string(
      "a = true\nb = 0\nc = yes\nd = off\n");
  EXPECT_TRUE(kv.get_bool("a", false));
  EXPECT_FALSE(kv.get_bool("b", true));
  EXPECT_TRUE(kv.get_bool("c", false));
  EXPECT_FALSE(kv.get_bool("d", true));
}

TEST(KeyValue, RejectsMalformedInput) {
  EXPECT_THROW(util::KeyValueConfig::parse_string("no equals sign\n"),
               std::invalid_argument);
  EXPECT_THROW(util::KeyValueConfig::parse_string("= value\n"),
               std::invalid_argument);
  EXPECT_THROW(util::KeyValueConfig::parse_string("a = 1\na = 2\n"),
               std::invalid_argument);
  const auto kv = util::KeyValueConfig::parse_string("x = abc\n");
  EXPECT_THROW((void)kv.get_double("x", 0.0), std::invalid_argument);
  EXPECT_THROW((void)kv.get_bool("x", false), std::invalid_argument);
}

TEST(KeyValue, TracksUnusedKeys) {
  const auto kv = util::KeyValueConfig::parse_string("a = 1\nb = 2\n");
  (void)kv.get_int("a", 0);
  const auto unused = kv.unused_keys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "b");
  EXPECT_THROW(kv.require_all_used(), std::invalid_argument);
  (void)kv.get_int("b", 0);
  EXPECT_NO_THROW(kv.require_all_used());
}

// ----------------------------------------------------------------- config IO

TEST(ConfigIo, DailyDefaultsMatchPaper) {
  std::istringstream empty;
  const auto config = scenario::load_daily_config(empty);
  EXPECT_EQ(config.fleet.num_servers, 400u);
  EXPECT_EQ(config.num_vms, 6000u);
  EXPECT_DOUBLE_EQ(config.params.ta, 0.90);
  EXPECT_DOUBLE_EQ(config.params.p, 3.0);
  EXPECT_DOUBLE_EQ(config.params.tl, 0.50);
  EXPECT_DOUBLE_EQ(config.params.th, 0.95);
  EXPECT_DOUBLE_EQ(config.params.alpha, 0.25);
  EXPECT_DOUBLE_EQ(config.params.beta, 0.25);
  EXPECT_DOUBLE_EQ(config.horizon_s, 48.0 * sim::kHour);
}

TEST(ConfigIo, DailyOverrides) {
  std::istringstream in(
      "servers = 80\n"
      "vms = 1200\n"
      "horizon_hours = 12\n"
      "warmup_hours = 2\n"
      "p = 5\n"
      "tl = 0.4\n"
      "core_mix = 4,8\n"
      "invite_group_size = 32\n"
      "enable_migrations = false\n"
      "diurnal_amplitude = 0.1\n");
  const auto config = scenario::load_daily_config(in);
  EXPECT_EQ(config.fleet.num_servers, 80u);
  EXPECT_EQ(config.num_vms, 1200u);
  EXPECT_DOUBLE_EQ(config.horizon_s, 12.0 * sim::kHour);
  EXPECT_DOUBLE_EQ(config.warmup_s, 2.0 * sim::kHour);
  EXPECT_DOUBLE_EQ(config.params.p, 5.0);
  EXPECT_DOUBLE_EQ(config.params.tl, 0.4);
  EXPECT_EQ(config.fleet.core_mix, (std::vector<unsigned>{4u, 8u}));
  EXPECT_EQ(config.params.invite_group_size, 32u);
  EXPECT_FALSE(config.params.enable_migrations);
  EXPECT_DOUBLE_EQ(config.workload.diurnal.amplitude(), 0.1);
}

TEST(ConfigIo, DailyRejectsUnknownKeys) {
  std::istringstream in("serverz = 80\n");
  EXPECT_THROW(scenario::load_daily_config(in), std::invalid_argument);
}

TEST(ConfigIo, DailyRejectsInvalidParameters) {
  std::istringstream in("th = 0.5\n");  // Th must exceed Ta = 0.9
  EXPECT_THROW(scenario::load_daily_config(in), std::invalid_argument);

  // Values no run can be built from are refused by key before any trace
  // is generated: a horizon that is not a finite, positive, representable
  // number of samples, and negative counts (which would wrap through the
  // size_t casts).
  const std::pair<const char*, const char*> bad[] = {
      {"horizon_hours = -1\n", "horizon_hours"},
      {"horizon_hours = 0\n", "horizon_hours"},
      {"horizon_hours = nan\n", "horizon_hours"},
      {"horizon_hours = inf\n", "horizon_hours"},
      {"horizon_hours = 1e13\n", "horizon_hours"},
      {"sample_period_s = 0\n", "sample_period_s"},
      {"sample_period_s = -300\n", "sample_period_s"},
      {"sample_period_s = nan\n", "sample_period_s"},
      {"servers = -1\n", "servers"},
      {"vms = -1\n", "vms"},
  };
  for (const auto& [text, key] : bad) {
    std::istringstream daily(text);
    try {
      (void)scenario::load_daily_config(daily);
      ADD_FAILURE() << "daily config accepted: " << text;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(key), std::string::npos)
          << error.what();
    }
    if (std::string(key) == "vms") continue;  // no such consolidation key
    std::istringstream consolidation(text);
    EXPECT_THROW((void)scenario::load_consolidation_config(consolidation),
                 std::invalid_argument)
        << text;
  }
  std::istringstream negative_vms("initial_vms = -1\n");
  EXPECT_THROW((void)scenario::load_consolidation_config(negative_vms),
               std::invalid_argument);
}

TEST(ConfigIo, ConsolidationDefaultsAndOverrides) {
  std::istringstream empty;
  const auto defaults = scenario::load_consolidation_config(empty);
  EXPECT_EQ(defaults.num_servers, 100u);
  EXPECT_EQ(defaults.initial_vms, 1500u);
  EXPECT_DOUBLE_EQ(defaults.workload.reference_mhz, 1600.0);

  std::istringstream in(
      "servers = 40\n"
      "initial_vms = 500\n"
      "mean_lifetime_hours = 1\n"
      "metrics_period_s = 600\n");
  const auto config = scenario::load_consolidation_config(in);
  EXPECT_EQ(config.num_servers, 40u);
  EXPECT_EQ(config.initial_vms, 500u);
  EXPECT_DOUBLE_EQ(config.mean_lifetime_s, sim::kHour);
  EXPECT_DOUBLE_EQ(config.sample_period_s, 600.0);
}

// ------------------------------------------------------------- PlanetLab IO

namespace {

std::filesystem::path temp_dir(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace

TEST(PlanetlabIo, ParseFile) {
  std::istringstream in("12\n34\n\n 56 \n0\n100\n");
  const auto samples = trace::parse_planetlab_file(in);
  ASSERT_EQ(samples.size(), 5u);
  EXPECT_FLOAT_EQ(samples[0], 12.0f);
  EXPECT_FLOAT_EQ(samples[2], 56.0f);
  EXPECT_FLOAT_EQ(samples[4], 100.0f);
}

TEST(PlanetlabIo, ParseClampsOutOfRange) {
  std::istringstream in("150\n-5\n");
  const auto samples = trace::parse_planetlab_file(in);
  EXPECT_FLOAT_EQ(samples[0], 100.0f);
  EXPECT_FLOAT_EQ(samples[1], 0.0f);
}

TEST(PlanetlabIo, ParseRejectsGarbage) {
  std::istringstream in("12\nnot-a-number\n");
  EXPECT_THROW(trace::parse_planetlab_file(in), std::invalid_argument);
}

TEST(PlanetlabIo, DirectoryRoundTrip) {
  const auto dir = temp_dir("ecocloud_pl_roundtrip");
  trace::WorkloadModel model;
  util::Rng rng(3);
  const auto original = trace::TraceSet::generate(model, 5, 12, rng);
  trace::write_planetlab_dir(original, dir);

  const auto loaded = trace::read_planetlab_dir(dir, 300.0, 2000.0);
  ASSERT_EQ(loaded.num_vms(), 5u);
  ASSERT_EQ(loaded.num_steps(), 12u);
  for (std::size_t v = 0; v < 5; ++v) {
    for (std::size_t k = 0; k < 12; ++k) {
      EXPECT_NEAR(loaded.percent_at(v, k), original.percent_at(v, k), 1e-3);
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(PlanetlabIo, RaggedFilesAreWrapExtended) {
  const auto dir = temp_dir("ecocloud_pl_ragged");
  {
    std::ofstream a(dir / "a");
    a << "10\n20\n30\n40\n";
    std::ofstream b(dir / "b");
    b << "5\n15\n";
  }
  const auto set = trace::read_planetlab_dir(dir);
  EXPECT_EQ(set.num_steps(), 4u);
  // File b wraps: 5, 15, 5, 15.
  EXPECT_FLOAT_EQ(static_cast<float>(set.percent_at(1, 2)), 5.0f);
  EXPECT_FLOAT_EQ(static_cast<float>(set.percent_at(1, 3)), 15.0f);
  std::filesystem::remove_all(dir);
}

TEST(PlanetlabIo, ErrorsOnMissingOrEmptyDir) {
  EXPECT_THROW(trace::read_planetlab_dir("/nonexistent/ecocloud"),
               std::invalid_argument);
  const auto dir = temp_dir("ecocloud_pl_empty");
  EXPECT_THROW(trace::read_planetlab_dir(dir), std::invalid_argument);
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------ TraceSet::from_series

TEST(TraceSetFromSeries, ComputesAverages) {
  std::vector<std::vector<float>> series{{10.0f, 20.0f, 30.0f},
                                         {0.0f, 0.0f, 60.0f}};
  const auto set = trace::TraceSet::from_series(series, 300.0, 2000.0, 1024.0);
  EXPECT_EQ(set.num_vms(), 2u);
  EXPECT_DOUBLE_EQ(set.average_percent(0), 20.0);
  EXPECT_DOUBLE_EQ(set.average_percent(1), 20.0);
  EXPECT_DOUBLE_EQ(set.ram_mb(0), 1024.0);
  EXPECT_DOUBLE_EQ(set.demand_mhz_at(0, 2), 600.0);
}

TEST(TraceSetFromSeries, RejectsBadInput) {
  EXPECT_THROW(trace::TraceSet::from_series({}, 300.0, 2000.0),
               std::invalid_argument);
  EXPECT_THROW(trace::TraceSet::from_series({{10.0f}, {10.0f, 20.0f}}, 300.0, 2000.0),
               std::invalid_argument);
  EXPECT_THROW(trace::TraceSet::from_series({{150.0f}}, 300.0, 2000.0),
               std::invalid_argument);
}

TEST(ConfigIo, DailyTopologyKeys) {
  std::istringstream in(
      "racks = 8\n"
      "intra_rack_gbps = 25\n"
      "inter_rack_gbps = 10\n");
  const auto config = scenario::load_daily_config(in);
  ASSERT_TRUE(config.topology.has_value());
  EXPECT_EQ(config.topology->num_racks, 8u);
  EXPECT_DOUBLE_EQ(config.topology->intra_rack_gbps, 25.0);
  EXPECT_DOUBLE_EQ(config.topology->inter_rack_gbps, 10.0);
  std::istringstream none("servers = 50\n");
  EXPECT_FALSE(scenario::load_daily_config(none).topology.has_value());
}

// ------------------------------------------------------- sections and faults

TEST(KeyValue, SectionsPrefixKeys) {
  const auto kv = util::KeyValueConfig::parse_string(
      "top = 1\n"
      "[faults]\n"
      "server_mtbf_s = 3600\n"
      "schedule = crash 0-3 60\n"
      "[other] ; comment after a header\n"
      "x = 2\n");
  EXPECT_EQ(kv.get_int("top", 0), 1);
  EXPECT_DOUBLE_EQ(kv.get_double("faults.server_mtbf_s", 0.0), 3600.0);
  EXPECT_EQ(kv.get_string("faults.schedule", ""), "crash 0-3 60");
  EXPECT_EQ(kv.get_int("other.x", 0), 2);
}

TEST(KeyValue, RejectsMalformedSectionHeader) {
  EXPECT_THROW(util::KeyValueConfig::parse_string("[faults\n"),
               std::invalid_argument);
  EXPECT_THROW(util::KeyValueConfig::parse_string("[]\n"),
               std::invalid_argument);
}

TEST(ConfigIo, DailyParsesFaultsSection) {
  std::istringstream in(
      "servers = 40\n"
      "[faults]\n"
      "server_mtbf_s = 7200\n"
      "server_mttr_s = 300\n"
      "migration_abort_prob = 0.05\n"
      "max_invite_rounds = 5\n"
      "redeploy_delay_s = 45\n"
      "schedule = crash 10-20 3600 600, repair 5 7200\n");
  const auto config = scenario::load_daily_config(in);
  EXPECT_TRUE(config.faults.enabled());
  EXPECT_DOUBLE_EQ(config.faults.server_mtbf_s, 7200.0);
  EXPECT_DOUBLE_EQ(config.faults.server_mttr_s, 300.0);
  EXPECT_DOUBLE_EQ(config.faults.migration_abort_prob, 0.05);
  EXPECT_EQ(config.faults.max_invite_rounds, 5u);
  EXPECT_DOUBLE_EQ(config.faults.redeploy_delay_s, 45.0);
  ASSERT_EQ(config.faults.schedule.size(), 2u);
  EXPECT_EQ(config.faults.schedule[0].first, 10u);
  EXPECT_EQ(config.faults.schedule[1].kind,
            faults::ScriptedFault::Kind::kRepair);
}

TEST(ConfigIo, DailyDefaultsDisableFaults) {
  std::istringstream empty;
  const auto config = scenario::load_daily_config(empty);
  EXPECT_FALSE(config.faults.enabled());
}

TEST(ConfigIo, DailyRejectsBadFaultValues) {
  {
    std::istringstream in("[faults]\nmigration_abort_prob = 1.5\n");
    EXPECT_THROW(scenario::load_daily_config(in), std::invalid_argument);
  }
  {
    std::istringstream in("[faults]\nschedule = explode 3 100\n");
    EXPECT_THROW(scenario::load_daily_config(in), std::invalid_argument);
  }
  {
    std::istringstream in("[faults]\nmax_boot_retries = -1\n");
    EXPECT_THROW(scenario::load_daily_config(in), std::invalid_argument);
  }
  {
    // Typo protection extends into the section.
    std::istringstream in("[faults]\nserver_mtfb_s = 100\n");
    EXPECT_THROW(scenario::load_daily_config(in), std::invalid_argument);
  }
}

// ------------------------------------------------------ parameter hardening

TEST(ParamsValidate, RejectsNonFiniteValues) {
  {
    core::EcoCloudParams p;
    p.alpha = std::numeric_limits<double>::infinity();
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  {
    core::EcoCloudParams p;
    p.ta = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  {
    core::EcoCloudParams p;
    p.boot_time_s = -std::numeric_limits<double>::infinity();
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
}

TEST(ParamsValidate, RejectsOutOfRangeHighDestFactor) {
  core::EcoCloudParams p;
  p.high_dest_factor = 1.2;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.high_dest_factor = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(ConfigIo, DailyRejectsNegativeInviteGroupSize) {
  std::istringstream in("invite_group_size = -3\n");
  EXPECT_THROW(scenario::load_daily_config(in), std::invalid_argument);
}

// --- Robustness sections + strict parsing diagnostics ------------------------

TEST(ConfigIo, DailyParsesRobustnessSections) {
  std::istringstream in(
      "[checkpoint]\n"
      "out = /tmp/run.ckpt\n"
      "every_s = 1800\n"
      "[audit]\n"
      "every_s = 600\n"
      "action = heal\n"
      "tolerance = 1e-9\n"
      "strict = false\n"
      "[watchdog]\n"
      "stall_s = 120\n");
  const auto config = scenario::load_daily_config(in);
  EXPECT_EQ(config.run.checkpoint_out, "/tmp/run.ckpt");
  EXPECT_DOUBLE_EQ(config.run.checkpoint_every_s, 1800.0);
  EXPECT_DOUBLE_EQ(config.run.audit_every_s, 600.0);
  EXPECT_EQ(config.run.audit_action, "heal");
  EXPECT_DOUBLE_EQ(config.run.audit_tolerance, 1e-9);
  EXPECT_FALSE(config.run.audit_strict);
  EXPECT_DOUBLE_EQ(config.run.watchdog_stall_s, 120.0);
}

TEST(ConfigIo, RobustnessDefaultsAreAllDisabled) {
  std::istringstream daily_in;
  const auto daily = scenario::load_daily_config(daily_in);
  EXPECT_TRUE(daily.run.checkpoint_out.empty());
  EXPECT_DOUBLE_EQ(daily.run.checkpoint_every_s, 0.0);
  EXPECT_DOUBLE_EQ(daily.run.audit_every_s, 0.0);
  EXPECT_EQ(daily.run.audit_action, "log");
  EXPECT_TRUE(daily.run.audit_strict);
  EXPECT_DOUBLE_EQ(daily.run.watchdog_stall_s, 0.0);

  // The consolidation loader relaxes strict VM accounting: departed VMs
  // stay unowned forever in the open system.
  std::istringstream cons_in;
  const auto cons = scenario::load_consolidation_config(cons_in);
  EXPECT_FALSE(cons.run.audit_strict);
}

TEST(ConfigIo, RejectsInvalidRobustnessValues) {
  {
    std::istringstream in("[checkpoint]\nevery_s = 1800\n");  // no out path
    EXPECT_THROW(scenario::load_daily_config(in), std::invalid_argument);
  }
  {
    std::istringstream in("[audit]\naction = explode\n");
    EXPECT_THROW(scenario::load_daily_config(in), std::invalid_argument);
  }
  {
    std::istringstream in("[audit]\ntolerance = -1\n");
    EXPECT_THROW(scenario::load_daily_config(in), std::invalid_argument);
  }
  {
    std::istringstream in("[watchdog]\nstall_s = -5\n");
    EXPECT_THROW(scenario::load_daily_config(in), std::invalid_argument);
  }
}

// Regression: an infinite or NaN cadence used to load and silently
// disable its checkpoints, audits or watchdog. Both loaders reject it and
// name the key.
TEST(ConfigIo, RejectsNonFiniteRobustnessValues) {
  const std::pair<const char*, const char*> cases[] = {
      {"[checkpoint]\nout = /tmp/x.ckpt\nevery_s = inf\n", "checkpoint.every_s"},
      {"[checkpoint]\nout = /tmp/x.ckpt\nevery_s = nan\n", "checkpoint.every_s"},
      {"[audit]\nevery_s = inf\n", "audit.every_s"},
      {"[audit]\nevery_s = -5\n", "audit.every_s"},
      {"[watchdog]\nstall_s = inf\n", "watchdog.stall_s"},
      {"[watchdog]\nstall_s = nan\n", "watchdog.stall_s"},
  };
  for (const auto& [text, key] : cases) {
    SCOPED_TRACE(text);
    for (const bool daily : {true, false}) {
      std::istringstream in(text);
      try {
        if (daily) {
          (void)scenario::load_daily_config(in);
        } else {
          (void)scenario::load_consolidation_config(in);
        }
        FAIL() << "accepted";
      } catch (const std::invalid_argument& error) {
        EXPECT_NE(std::string(error.what()).find(key), std::string::npos)
            << error.what();
      }
    }
  }
}

// Satellite regression: a typo'd key is reported with its name and the
// line it sits on, so multi-section files stay debuggable.
TEST(ConfigIo, UnknownKeyErrorCarriesLineNumber) {
  std::istringstream in(
      "servers = 40\n"
      "\n"
      "# comment\n"
      "[checkpoint]\n"
      "ouut = /tmp/x.ckpt\n");
  try {
    (void)scenario::load_daily_config(in);
    FAIL() << "unknown key accepted";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("checkpoint.ouut"), std::string::npos) << what;
    EXPECT_NE(what.find("(line 5)"), std::string::npos) << what;
  }
}
