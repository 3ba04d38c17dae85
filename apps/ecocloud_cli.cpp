// ecocloud_cli — command-line driver for the ecoCloud simulation suite.
//
//   ecocloud_cli run-daily [--config FILE] [--csv FILE]
//   ecocloud_cli run-consolidation [--config FILE] [--csv FILE]
//   ecocloud_cli serve [--port P] [--workers W] [--data-dir DIR]
//   ecocloud_cli gen-traces --out DIR [--vms N] [--hours H] [--seed S]
//   ecocloud_cli functions [--ta X] [--p X] [--tl X] [--th X]
//                          [--alpha X] [--beta X]
//   ecocloud_cli help-config
//
// Experiments are configured with `key = value` files (see help-config);
// absent keys keep the paper's defaults, unknown keys are rejected.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "ecocloud/ckpt/auditor.hpp"
#include "ecocloud/ckpt/checkpoint.hpp"
#include "ecocloud/ckpt/snapshot_io.hpp"
#include "ecocloud/ckpt/watchdog.hpp"
#include "ecocloud/core/probability.hpp"
#include "ecocloud/metrics/episode_summary.hpp"
#include "ecocloud/metrics/event_log.hpp"
#include "ecocloud/metrics/event_log_binary.hpp"
#include "ecocloud/obs/chrome_trace.hpp"
#include "ecocloud/obs/exporters.hpp"
#include "ecocloud/obs/http_server.hpp"
#include "ecocloud/obs/instrumentation.hpp"
#include "ecocloud/obs/logger.hpp"
#include "ecocloud/obs/metric_registry.hpp"
#include "ecocloud/obs/profiler.hpp"
#include "ecocloud/obs/progress.hpp"
#include "ecocloud/par/sharded_runner.hpp"
#include "ecocloud/par/sharded_telemetry.hpp"
#include "ecocloud/scenario/config_io.hpp"
#include "ecocloud/srv/server.hpp"
#include "ecocloud/trace/planetlab_io.hpp"
#include "ecocloud/util/csv.hpp"
#include "ecocloud/util/exit_codes.hpp"
#include "ecocloud/util/string_util.hpp"
#include "ecocloud/util/validation.hpp"

using namespace ecocloud;

namespace {

/// Minimal --key value parser; every option takes exactly one argument.
class Options {
 public:
  Options(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
        throw std::invalid_argument("bad option or missing value: " + key);
      }
      values_[key.substr(2)] = argv[++i];
    }
  }

  [[nodiscard]] std::optional<std::string> get(const std::string& key) {
    const auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    used_.insert(key);
    return it->second;
  }

  [[nodiscard]] double get_double(const std::string& key, double fallback) {
    const auto value = get(key);
    return value ? util::parse_double(*value) : fallback;
  }

  void reject_unknown() const {
    for (const auto& [key, value] : values_) {
      if (used_.count(key) == 0) {
        throw std::invalid_argument("unknown option --" + key);
      }
    }
  }

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> used_;
};

/// Fail fast on unwritable output paths: probe with an append-open before
/// the (possibly hours-long) run instead of erroring at exit. A file the
/// probe newly created is removed again.
void require_writable(const std::string& path) {
  const bool existed = static_cast<bool>(std::ifstream(path));
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    // A bad output path is a configuration error (exit code 2), caught
    // before the (possibly hours-long) run instead of at exit.
    throw std::invalid_argument("cannot write to '" + path +
                                "' (checked before starting the run)");
  }
  std::fclose(file);
  if (!existed) std::remove(path.c_str());
}

/// Live observability plane shared by all run modes: --serve-metrics
/// (embedded HTTP scrape endpoint), --profile-out (phase profiler +
/// folded-stacks dump), --progress (stderr ticker). Everything here is a
/// pure observer — snapshots are rendered on the sim thread at safe
/// points and the HTTP thread serves only the cached strings.
class LivePlane {
 public:
  explicit LivePlane(Options& options) {
    if (const auto port = options.get("serve-metrics")) {
      const double p = util::parse_double(*port);
      util::require(p >= 0.0 && p <= 65535.0 && p == std::floor(p),
                    "--serve-metrics wants a TCP port (0..65535; 0 picks "
                    "an ephemeral one)");
      port_ = static_cast<std::uint16_t>(p);
      serve_ = true;
    }
    profile_path_ = options.get("profile-out");
    if (profile_path_) require_writable(*profile_path_);
    if (const auto mode = options.get("progress")) {
      if (*mode == "on") {
        progress_ = true;
      } else if (*mode == "off") {
        progress_ = false;
      } else if (*mode == "auto") {
        // Auto: only when a human is plausibly watching.
        progress_ = isatty(fileno(stderr)) != 0;
      } else {
        throw std::invalid_argument("bad --progress '" + *mode +
                                    "' (want auto|on|off)");
      }
    }
  }

  [[nodiscard]] bool any() const {
    return serve_ || profile_path_.has_value() || progress_;
  }
  [[nodiscard]] bool profiling() const { return profile_path_.has_value(); }

  /// Build the profiler (when profiling) and bind the HTTP server (when
  /// serving). \p num_domains: 1 single-calendar, K+1 sharded. The
  /// registry must outlive this object.
  void start(obs::MetricRegistry& registry, std::size_t num_domains) {
    if (!any()) return;
    registry_ = &registry;
    if (profiling()) {
      core_.emplace(num_domains);
      profiler_.emplace(*core_, registry);
    }
    if (serve_) {
      server_.emplace(hub_, port_);
      std::printf(
          "serving /metrics /progress /healthz on http://127.0.0.1:%u\n",
          static_cast<unsigned>(server_->port()));
    }
  }

  /// The profiler core, for ShardedDailyRun::set_profiler / the main
  /// thread's domain installation. Null when not profiling.
  [[nodiscard]] util::PhaseProfiler* core() {
    return core_ ? &*core_ : nullptr;
  }
  [[nodiscard]] obs::Profiler* profiler() {
    return profiler_ ? &*profiler_ : nullptr;
  }

  /// Anchor wall-clock zero and publish a first snapshot so a scrape
  /// racing the run start already gets a document.
  void begin(double sim_start_s, double horizon_s, std::uint64_t events) {
    if (!any()) return;
    tracker_.begin(sim_start_s, horizon_s);
    publish(sim_start_s, events);
  }

  void set_shards(std::vector<obs::ShardProgress> shards) {
    tracker_.set_shards(std::move(shards));
  }

  /// Refresh everything at a safe point: profiler registry mirrors, the
  /// /metrics and /progress snapshots, and the stderr ticker.
  void publish(double sim_now_s, std::uint64_t events) {
    if (registry_ == nullptr) return;
    tracker_.update(sim_now_s, events);
    if (profiler_) profiler_->publish(tracker_.wall_seconds());
    if (server_) {
      std::ostringstream prom;
      obs::write_prometheus(*registry_, prom);
      hub_.publish_metrics(prom.str());
      hub_.publish_progress(tracker_.to_json());
    }
    if (progress_) tracker_.maybe_tick(stderr);
  }

  /// Final publish, folded-stacks dump, and the overhead summary. The
  /// HTTP server keeps answering until this object goes out of scope.
  void finish(double sim_now_s, std::uint64_t events) {
    if (registry_ == nullptr) return;
    publish(sim_now_s, events);
    if (profiler_) {
      std::ofstream out(*profile_path_);
      util::require(out.good(), "cannot open " + *profile_path_);
      profiler_->write_folded(out);
      std::printf("folded stacks written to %s\n", profile_path_->c_str());
      profiler_->print_summary(stdout);
    }
  }

 private:
  bool serve_ = false;
  std::uint16_t port_ = 0;
  std::optional<std::string> profile_path_;
  bool progress_ = false;
  obs::MetricRegistry* registry_ = nullptr;
  std::optional<util::PhaseProfiler> core_;
  std::optional<obs::Profiler> profiler_;
  obs::SnapshotHub hub_;
  std::optional<obs::HttpServer> server_;
  obs::ProgressTracker tracker_;
};

/// Telemetry wiring shared by run-daily and run-consolidation. Flags are
/// consumed up front; attach() subscribes before the run (so it chains
/// behind any EventLog/collector already installed), finish() closes the
/// trace spans and writes the requested output files.
class CliTelemetry {
 public:
  explicit CliTelemetry(Options& options, LivePlane& live)
      : live_(live),
        metrics_path_(options.get("metrics-out")),
        json_path_(options.get("metrics-json")),
        trace_path_(options.get("trace-out")),
        log_path_(options.get("log-out")) {
    if (const auto level = options.get("log-level")) {
      const auto parsed = obs::parse_log_level(*level);
      util::require(parsed.has_value(),
                    "bad --log-level '" + *level +
                        "' (want trace|debug|info|warn|error|off)");
      level_ = *parsed;
    }
    if (trace_path_) trace_.emplace();
    if (log_path_) {
      log_file_.open(*log_path_);
      util::require(log_file_.good(), "cannot open " + *log_path_);
      logger_.set_sink(&log_file_);
      if (level_ == obs::LogLevel::kOff) level_ = obs::LogLevel::kInfo;
    } else if (level_ != obs::LogLevel::kOff) {
      logger_.set_sink(&std::clog);
    }
    logger_.set_level(level_);
  }

  [[nodiscard]] bool enabled() const {
    return metrics_path_ || json_path_ || trace_path_ || log_path_ ||
           level_ != obs::LogLevel::kOff || live_.any();
  }

  void attach(sim::Simulator& sim, const dc::DataCenter& datacenter,
              core::EcoCloudController& controller,
              const faults::FaultInjector* injector, bool resumed = false) {
    if (!enabled()) return;
    logger_.set_clock([&sim] { return sim.now(); });
    instr_.emplace(registry_, logger_, trace_ ? &*trace_ : nullptr);
    instr_->attach_engine(sim);
    instr_->attach_datacenter(datacenter);
    instr_->attach_controller(controller);
    if (injector != nullptr) instr_->attach_faults(*injector);
    live_.start(registry_, /*num_domains=*/1);
    if (live_.core() != nullptr) {
      // Single-calendar runs execute on this thread; one domain covers it.
      util::set_current_domain(&live_.core()->domain(0));
    }
    if (live_.any()) {
      sim::Simulator* simp = &sim;
      obs::ChromeTraceWriter* trace = trace_ ? &*trace_ : nullptr;
      instr_->set_flush_hook([this, simp, trace](sim::SimTime now) {
        live_.publish(now, simp->executed_events());
        if (trace != nullptr && live_.profiler() != nullptr) {
          live_.profiler()->emit_counter_track(*trace, now);
        }
      });
    }
    // A resumed run re-arms the tagged flush event from the snapshot's
    // calendar (register_checkpoint) instead of scheduling a fresh one.
    if (!resumed) instr_->start_flush(sim, kFlushPeriodS);
  }

  /// Register the flush event's owner so snapshots written or restored
  /// under telemetry can rebuild it. Telemetry has no state section: it
  /// is an observer, and its own counters restart on resume.
  void register_checkpoint(ckpt::CheckpointManager& manager, sim::Simulator& sim) {
    if (!instr_) return;
    manager.add_owner(sim::tag_owner::kObsFlush,
                      [this, &sim](const sim::EventTag& tag) {
                        util::require(tag.kind == obs::Instrumentation::kEvFlush,
                                      "snapshot: unknown telemetry event kind");
                        return instr_->make_flush_callback(sim);
                      });
  }

  /// Register pull-mode checkpoint/audit metrics (no-op without telemetry).
  void attach_robustness(std::function<obs::RobustnessSample()> sample) {
    if (instr_) instr_->attach_robustness(std::move(sample));
  }

  /// Fail fast on unwritable output paths (the log file is already open).
  void probe_outputs() const {
    for (const auto& path : {metrics_path_, json_path_, trace_path_}) {
      if (path) require_writable(*path);
    }
  }

  void finish(sim::SimTime end) {
    if (!instr_) return;
    instr_->finalize(end);
    if (trace_ && live_.profiler() != nullptr) {
      live_.profiler()->emit_counter_track(*trace_, end);
    }
    if (metrics_path_) {
      std::ofstream out(*metrics_path_);
      util::require(out.good(), "cannot open " + *metrics_path_);
      obs::write_prometheus(registry_, out);
      std::printf("metrics written to %s (%zu series)\n", metrics_path_->c_str(),
                  registry_.num_instances());
    }
    if (json_path_) {
      std::ofstream out(*json_path_);
      util::require(out.good(), "cannot open " + *json_path_);
      obs::write_json(registry_, out);
      std::printf("metrics JSON written to %s\n", json_path_->c_str());
    }
    if (trace_path_) {
      std::ofstream out(*trace_path_);
      util::require(out.good(), "cannot open " + *trace_path_);
      trace_->write(out);
      std::printf("trace written to %s (%zu events; open in ui.perfetto.dev)\n",
                  trace_path_->c_str(), trace_->size());
    }
    if (log_path_) {
      std::printf("log written to %s (%llu lines)\n", log_path_->c_str(),
                  static_cast<unsigned long long>(logger_.lines_written()));
    }
  }

 private:
  /// Sim-time period of the logger/trace flush hook (5 min).
  static constexpr double kFlushPeriodS = 300.0;

  LivePlane& live_;
  std::optional<std::string> metrics_path_;
  std::optional<std::string> json_path_;
  std::optional<std::string> trace_path_;
  std::optional<std::string> log_path_;
  obs::LogLevel level_ = obs::LogLevel::kOff;
  obs::MetricRegistry registry_;
  obs::Logger logger_;
  std::optional<obs::ChromeTraceWriter> trace_;
  std::ofstream log_file_;
  std::optional<obs::Instrumentation> instr_;
};

/// Checkpoint/audit/watchdog wiring shared by run-daily and
/// run-consolidation. Flags override the config file's [checkpoint] /
/// [audit] / [watchdog] sections; wire() builds the machinery against the
/// constructed scenario and launch() either restores a snapshot or starts
/// the periodic services.
class Robustness {
 public:
  Robustness(Options& options, scenario::RunControl run) : run_(std::move(run)) {
    if (const auto v = options.get("checkpoint-out")) run_.checkpoint_out = *v;
    run_.checkpoint_every_s =
        options.get_double("checkpoint-every", run_.checkpoint_every_s);
    resume_path_ = options.get("resume-from");
    run_.audit_every_s = options.get_double("audit-every", run_.audit_every_s);
    if (const auto v = options.get("audit-action")) run_.audit_action = *v;
    run_.watchdog_stall_s =
        options.get_double("watchdog-stall", run_.watchdog_stall_s);
    if (!run_.checkpoint_out.empty()) {
      util::require(run_.checkpoint_every_s > 0.0 || resume_path_.has_value(),
                    "--checkpoint-out needs --checkpoint-every SECONDS (> 0)");
      require_writable(run_.checkpoint_out);
    }
    util::require(run_.watchdog_stall_s <= 0.0 || run_.audit_every_s > 0.0,
                  "the watchdog is fed by the auditor's heartbeat: "
                  "--watchdog-stall needs --audit-every");
  }

  [[nodiscard]] bool resumed() const { return resume_path_.has_value(); }
  [[nodiscard]] bool checkpointing() const {
    return resumed() || !run_.checkpoint_out.empty();
  }

  /// Build auditor, watchdog, and checkpoint manager. \p register_scenario
  /// registers the scenario's own sections/owners when checkpointing.
  template <typename RegisterFn>
  void wire(sim::Simulator& sim, dc::DataCenter& datacenter,
            const core::EcoCloudController* controller,
            const faults::RedeployQueue* redeploy, metrics::EventLog* event_log,
            CliTelemetry& telemetry, RegisterFn register_scenario) {
    if (run_.watchdog_stall_s > 0.0) {
      watchdog_.emplace(ckpt::Watchdog::Config{run_.watchdog_stall_s, {}});
    }
    if (run_.audit_every_s > 0.0) {
      ckpt::AuditorConfig audit;
      audit.period_s = run_.audit_every_s;
      audit.action = ckpt::parse_audit_action(run_.audit_action);
      audit.tolerance = run_.audit_tolerance;
      audit.strict_vm_accounting = run_.audit_strict;
      auditor_.emplace(sim, datacenter, audit);
      if (controller != nullptr) auditor_->attach_controller(controller);
      if (redeploy != nullptr) auditor_->attach_redeploy(redeploy);
      if (watchdog_) auditor_->set_watchdog(&*watchdog_);
    }
    if (checkpointing()) {
      manager_.emplace(sim);
      register_scenario(*manager_);
      if (event_log != nullptr) {
        manager_->add_section(
            "event_log",
            [event_log](util::BinWriter& w) { event_log->save_state(w); },
            [event_log](util::BinReader& r) { event_log->load_state(r); });
      }
      if (auditor_) {
        manager_->add_section(
            "auditor", [this](util::BinWriter& w) { auditor_->save_state(w); },
            [this](util::BinReader& r) { auditor_->load_state(r); });
        manager_->add_owner(sim::tag_owner::kAuditor,
                            [this](const sim::EventTag& tag) {
                              return auditor_->rebuild_event(tag);
                            });
      }
      telemetry.register_checkpoint(*manager_, sim);
    }
    if (manager_ || auditor_) {
      telemetry.attach_robustness([this] {
        obs::RobustnessSample sample;
        if (manager_) {
          const auto& c = manager_->stats();
          sample.checkpoints_written = c.checkpoints_written;
          sample.snapshot_bytes_last = c.snapshot_bytes_last;
          sample.save_wall_seconds_total = c.save_wall_seconds_total;
        }
        if (auditor_) {
          const auto& a = auditor_->stats();
          sample.audits_run = a.audits_run;
          sample.audits_failed = a.audits_failed;
          sample.heals_applied = a.heals_applied;
        }
        return sample;
      });
    }
  }

  /// Restore the snapshot (resume) or start the periodic services
  /// (fresh run). Returns true when the run resumed.
  bool launch(sim::Simulator& sim) {
    if (resumed()) {
      manager_->restore(*resume_path_);
      // Keep writing snapshots: to --checkpoint-out when given, otherwise
      // back over the file we resumed from (the campaign keeps advancing).
      manager_->set_output_path(
          !run_.checkpoint_out.empty() ? run_.checkpoint_out : *resume_path_);
      std::printf("resumed from %s at t=%.0f s (%llu events executed)\n",
                  resume_path_->c_str(), sim.now(),
                  static_cast<unsigned long long>(sim.executed_events()));
    } else {
      if (manager_ && !run_.checkpoint_out.empty()) {
        manager_->start_periodic(run_.checkpoint_every_s, run_.checkpoint_out);
      }
      if (auditor_) auditor_->start();
    }
    if (watchdog_) watchdog_->arm();
    return resumed();
  }

  void finish() {
    if (watchdog_) watchdog_->disarm();
    if (auditor_) {
      const auto& a = auditor_->stats();
      std::printf("audits            %llu run, %llu failed (action=%s)\n",
                  static_cast<unsigned long long>(a.audits_run),
                  static_cast<unsigned long long>(a.audits_failed),
                  ckpt::to_string(auditor_->config().action));
    }
    if (manager_ && manager_->stats().checkpoints_written > 0) {
      const auto& c = manager_->stats();
      std::printf("checkpoints       %llu written (last %llu bytes, %.1f ms)\n",
                  static_cast<unsigned long long>(c.checkpoints_written),
                  static_cast<unsigned long long>(c.snapshot_bytes_last),
                  1e3 * c.save_wall_seconds_last);
    }
  }

 private:
  scenario::RunControl run_;
  std::optional<std::string> resume_path_;
  std::optional<ckpt::Watchdog> watchdog_;
  std::optional<ckpt::RuntimeAuditor> auditor_;
  std::optional<ckpt::CheckpointManager> manager_;
};

/// --events output format: compact binary records by default (decode with
/// eventlog2csv); an explicit .csv suffix keeps the legacy text format.
bool events_path_wants_csv(const std::string& path) {
  return path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
}

int usage() {
  std::puts(
      "usage: ecocloud_cli <command> [options]\n"
      "\n"
      "commands:\n"
      "  run-daily          48-hour trace-driven experiment (paper Sec. III)\n"
      "    --config FILE    key=value configuration (default: paper setup)\n"
      "    --csv FILE       also write the 30-minute series as CSV\n"
      "    --events FILE    also write the full decision event log (compact\n"
      "                     binary; convert with eventlog2csv; a .csv suffix\n"
      "                     writes the legacy text format directly)\n"
      "    --metrics-out F  write Prometheus text-format metrics at exit\n"
      "    --metrics-json F write a JSON metrics snapshot at exit\n"
      "    --trace-out F    write a Chrome trace-event timeline (open the\n"
      "                     file in ui.perfetto.dev)\n"
      "    --log-out F      structured JSONL log (default level info)\n"
      "    --log-level L    trace|debug|info|warn|error|off (stderr when no\n"
      "                     --log-out is given)\n"
      "    --checkpoint-out F   write crash-safe snapshots to F\n"
      "    --checkpoint-every S snapshot cadence in sim seconds\n"
      "    --resume-from F      restore a snapshot and finish the run\n"
      "                         (bit-identical to the uninterrupted run)\n"
      "    --audit-every S      run the invariant auditor every S sim secs\n"
      "    --audit-action A     log | abort | heal on a failed audit\n"
      "    --watchdog-stall S   abort after S wall seconds without progress\n"
      "    --serve-metrics P  live scrape endpoint on 127.0.0.1:P while the\n"
      "                     run executes (GET /metrics /progress /healthz;\n"
      "                     P=0 picks an ephemeral port, printed at start)\n"
      "    --profile-out F  phase profiler: folded-stacks dump to F (feed to\n"
      "                     flamegraph.pl) plus per-phase histograms in the\n"
      "                     metrics outputs and a summary on stdout\n"
      "    --progress M     auto|on|off stderr progress ticker (auto = only\n"
      "                     when stderr is a TTY; at most one line/second)\n"
      "    --shards K       sharded parallel engine: K independent shards,\n"
      "                     deterministic output for fixed K regardless of\n"
      "                     thread count; composes with checkpointing,\n"
      "                     auditing, faults, and telemetry\n"
      "    --threads N      worker threads for --shards (default: all cores)\n"
      "    --sync-interval S  epoch barrier period in sim seconds (300)\n"
      "  run-consolidation  assignment-only experiment (paper Sec. IV)\n"
      "    --config FILE, --csv FILE, telemetry and robustness options as\n"
      "    above\n"
      "  serve              campaign server: accept scenario submissions over\n"
      "                     HTTP and run them to completion (crash-tolerant;\n"
      "                     see DESIGN.md Sec. 16)\n"
      "    --port P         API port (default 0 = ephemeral, printed at start)\n"
      "    --workers N      concurrent campaign executions (default 2)\n"
      "    --queue-capacity N  queued submissions before 429 (default 8)\n"
      "    --data-dir DIR   journal/checkpoints/event logs (default campaigns)\n"
      "    --slice S        sim-seconds per slice between safe points (1800)\n"
      "    --checkpoint-every-slices N  periodic durability cadence (4)\n"
      "    --rss-high-mb M  checkpoint+pause the largest campaign above M MB\n"
      "    --rss-low-mb M   resume paused campaigns below M MB (0.9*high)\n"
      "    --retry-after S  Retry-After header on 429 responses (5)\n"
      "                     SIGTERM drains: admission stops (503), in-flight\n"
      "                     campaigns checkpoint at the next safe point, the\n"
      "                     journal is flushed, exit code 0\n"
      "  gen-traces         write a synthetic PlanetLab-format trace directory\n"
      "    --out DIR [--vms N] [--hours H] [--seed S]\n"
      "  functions          print f_a / f_l / f_h tables\n"
      "    [--ta X] [--p X] [--tl X] [--th X] [--alpha X] [--beta X]\n"
      "  help-config        list every configuration key\n"
      "\n"
      "exit codes: 0 success, 1 runtime failure, 2 configuration error,\n"
      "            4 audit violation (action=abort), 5 watchdog stall");
  return util::exit_code::kConfigError;
}

void write_series_csv(const std::string& path,
                      const std::vector<metrics::Sample>& samples) {
  std::ofstream out(path);
  util::require(out.good(), "cannot open " + path);
  util::CsvWriter csv(out);
  csv.header({"time_s", "active_servers", "booting", "overall_load", "power_w",
              "overload_percent", "window_energy_j"});
  for (const auto& s : samples) {
    csv.row(std::vector<double>{s.time, static_cast<double>(s.active_servers),
                                static_cast<double>(s.booting_servers),
                                s.overall_load, s.power_w, s.overload_percent,
                                s.window_energy_j});
  }
  std::printf("series written to %s (%zu samples)\n", path.c_str(),
              samples.size());
}

template <typename LoadFn>
auto load_config(Options& options, LoadFn load) {
  if (const auto path = options.get("config")) {
    std::ifstream in(*path);
    util::require(in.good(), "cannot open config file " + *path);
    return load(in);
  }
  std::istringstream empty;
  return load(empty);
}

int run_daily_sharded(Options& options, scenario::DailyConfig config,
                      std::size_t shards) {
  const auto csv_path = options.get("csv");
  const auto events_path = options.get("events");

  // Run-control flags override the config file's sections, exactly as the
  // single-calendar Robustness wiring does. The one relaxation: no
  // watchdog-needs-audit coupling, because the sharded coordinator beats
  // the watchdog at every barrier whether or not audits are enabled.
  if (const auto v = options.get("checkpoint-out")) config.run.checkpoint_out = *v;
  config.run.checkpoint_every_s =
      options.get_double("checkpoint-every", config.run.checkpoint_every_s);
  const auto resume_path = options.get("resume-from");
  config.run.audit_every_s =
      options.get_double("audit-every", config.run.audit_every_s);
  if (const auto v = options.get("audit-action")) config.run.audit_action = *v;
  config.run.watchdog_stall_s =
      options.get_double("watchdog-stall", config.run.watchdog_stall_s);
  if (!config.run.checkpoint_out.empty()) {
    util::require(
        config.run.checkpoint_every_s > 0.0 || resume_path.has_value(),
        "--checkpoint-out needs --checkpoint-every SECONDS (> 0)");
    require_writable(config.run.checkpoint_out);
  }

  // Telemetry flags (same surface as the single-threaded runs; the merge
  // back into one metrics/log/trace output happens after the run).
  const auto metrics_path = options.get("metrics-out");
  const auto json_path = options.get("metrics-json");
  const auto trace_path = options.get("trace-out");
  const auto log_path = options.get("log-out");
  obs::LogLevel log_level = obs::LogLevel::kOff;
  if (const auto level = options.get("log-level")) {
    const auto parsed = obs::parse_log_level(*level);
    util::require(parsed.has_value(),
                  "bad --log-level '" + *level +
                      "' (want trace|debug|info|warn|error|off)");
    log_level = *parsed;
  }
  if (log_path && log_level == obs::LogLevel::kOff) {
    log_level = obs::LogLevel::kInfo;
  }

  par::ParConfig par;
  par.shards = shards;
  par.threads = static_cast<std::size_t>(options.get_double("threads", 0.0));
  par.sync_interval_s = options.get_double("sync-interval", par.sync_interval_s);
  util::require(par.sync_interval_s > 0.0,
                "--sync-interval wants a positive number of sim seconds");
  if (par.sync_interval_s > config.horizon_s) {
    std::fprintf(stderr,
                 "warning: --sync-interval %.0f s exceeds the %.0f s horizon; "
                 "the whole run is one epoch and cross-shard hand-off only "
                 "happens at the end\n",
                 par.sync_interval_s, config.horizon_s);
  } else if (par.sync_interval_s > 86400.0) {
    std::fprintf(stderr,
                 "warning: --sync-interval %.0f s exceeds a simulated day; "
                 "stranded migrations wait that long for a cross-shard "
                 "hand-off\n",
                 par.sync_interval_s);
  }
  LivePlane live(options);
  options.reject_unknown();
  for (const auto& path :
       {csv_path, events_path, metrics_path, json_path, trace_path, log_path}) {
    if (path) require_writable(*path);
  }

  const std::size_t threads =
      par.threads != 0
          ? par.threads
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::printf(
      "daily run: %zu servers, %zu VMs, %.0f h (+%.0f h warm-up), "
      "%zu shards on %zu threads\n",
      config.fleet.num_servers, config.num_vms,
      (config.horizon_s - config.warmup_s) / sim::kHour,
      config.warmup_s / sim::kHour, par.shards, threads);

  par::ShardedDailyRun run(std::move(config), par);
  if (resume_path) {
    run.restore_snapshot(*resume_path);
  }

  std::optional<par::ShardedTelemetry> telemetry;
  if (metrics_path || json_path || trace_path || log_path ||
      log_level != obs::LogLevel::kOff || live.any()) {
    par::ShardedTelemetry::Options topt;
    topt.trace = trace_path.has_value();
    topt.log_level = log_level;
    telemetry.emplace(run, topt);
  }
  if (resume_path) {
    std::printf("resumed from %s (sharded snapshot)\n", resume_path->c_str());
  }

  // The live plane hangs off the barrier hook (chained AFTER the
  // ShardedTelemetry one so its counters are fresh when the snapshot is
  // rendered): refresh per-shard epoch/lag gauges, then publish /metrics
  // and /progress. No calendar events, no RNG — pure observer.
  std::vector<obs::Gauge*> epoch_gauges;
  std::vector<obs::Gauge*> lag_gauges;
  if (live.any()) {
    obs::MetricRegistry& registry = telemetry->registry();
    live.start(registry, run.num_shards() + 1);
    run.set_profiler(live.core());
    for (std::size_t k = 0; k < run.num_shards(); ++k) {
      const obs::Labels labels{{"shard", std::to_string(k)}};
      epoch_gauges.push_back(
          &registry.gauge("ecocloud_shard_epoch_wall_seconds", labels,
                          "Wall seconds the shard spent on the last epoch"));
      lag_gauges.push_back(&registry.gauge(
          "ecocloud_shard_barrier_lag_seconds", labels,
          "How long the shard waited for the slowest one at the last barrier"));
    }
    auto prev = std::move(run.on_barrier);
    run.on_barrier = [&run, &live, &epoch_gauges, &lag_gauges,
                      prev = std::move(prev)](sim::SimTime t) {
      if (prev) prev(t);
      std::uint64_t events = 0;
      std::vector<obs::ShardProgress> progress;
      progress.reserve(run.num_shards());
      for (std::size_t k = 0; k < run.num_shards(); ++k) {
        obs::ShardProgress sp;
        sp.shard = static_cast<int>(k);
        sp.epoch_wall_s = run.last_epoch_wall_s()[k];
        sp.barrier_lag_s = run.last_barrier_lag_s()[k];
        sp.events = run.shard(k).simulator().executed_events();
        events += sp.events;
        epoch_gauges[k]->set(sp.epoch_wall_s);
        lag_gauges[k]->set(sp.barrier_lag_s);
        progress.push_back(sp);
      }
      live.set_shards(std::move(progress));
      live.publish(t, events);
    };
    std::uint64_t start_events = 0;
    for (std::size_t k = 0; k < run.num_shards(); ++k) {
      start_events += run.shard(k).simulator().executed_events();
    }
    live.begin(run.shard(0).simulator().now(), run.config().horizon_s,
               start_events);
  }

  run.run();
  const par::ParStats& s = run.stats();
  const sim::SimTime horizon = run.config().horizon_s;
  if (telemetry) telemetry->finalize(horizon);
  live.finish(horizon, s.executed_events);

  double vm_seconds = 0.0;
  double overload_vm_seconds = 0.0;
  for (std::size_t k = 0; k < run.num_shards(); ++k) {
    vm_seconds += run.shard(k).datacenter().vm_seconds();
    overload_vm_seconds += run.shard(k).datacenter().overload_vm_seconds();
  }
  std::printf("energy            %.1f kWh\n", run.total_energy_kwh());
  std::printf("migrations        %llu (%llu low / %llu high, %llu cross-shard)\n",
              static_cast<unsigned long long>(s.migrations),
              static_cast<unsigned long long>(s.low_migrations),
              static_cast<unsigned long long>(s.high_migrations),
              static_cast<unsigned long long>(s.cross_shard_migrations));
  std::printf("switches          %llu on / %llu off\n",
              static_cast<unsigned long long>(s.activations),
              static_cast<unsigned long long>(s.hibernations));
  std::printf("over-demand       %.4f%% of VM-time\n",
              vm_seconds > 0.0 ? 100.0 * overload_vm_seconds / vm_seconds
                               : 0.0);
  std::printf("engine            %llu events over %llu barriers; "
              "%llu stranded wishes\n",
              static_cast<unsigned long long>(s.executed_events),
              static_cast<unsigned long long>(s.barriers),
              static_cast<unsigned long long>(s.stranded_wishes));
  if (run.shard(0).fault_injector() != nullptr) {
    std::uint64_t crashes = 0, repairs = 0, orphans = 0, redeployed = 0,
                  abandoned = 0;
    double downtime = 0.0;
    for (std::size_t k = 0; k < run.num_shards(); ++k) {
      const auto& r = run.shard(k).fault_injector()->stats();
      crashes += r.crashes();
      repairs += r.repairs();
      orphans += r.orphaned_vms();
      redeployed += r.redeployed_vms();
      abandoned += r.abandoned_vms();
      downtime += r.downtime_vm_seconds();
    }
    std::printf("faults            %llu crashes / %llu repairs; "
                "%llu orphans (%llu redeployed, %llu abandoned); "
                "%.1f VM-min downtime\n",
                static_cast<unsigned long long>(crashes),
                static_cast<unsigned long long>(repairs),
                static_cast<unsigned long long>(orphans),
                static_cast<unsigned long long>(redeployed),
                static_cast<unsigned long long>(abandoned), downtime / 60.0);
  }
  if (s.audits_run > 0) {
    std::printf("audits            %llu barrier rounds, %llu failed checks "
                "(action=%s)\n",
                static_cast<unsigned long long>(s.audits_run),
                static_cast<unsigned long long>(s.audit_failures),
                run.config().run.audit_action.c_str());
  }
  if (s.checkpoints_written > 0) {
    std::printf("checkpoints       %llu written\n",
                static_cast<unsigned long long>(s.checkpoints_written));
  }
  if (csv_path) write_series_csv(*csv_path, run.merged_samples());
  if (events_path) {
    const bool as_csv = events_path_wants_csv(*events_path);
    std::ofstream out(*events_path,
                      as_csv ? std::ios::out : std::ios::out | std::ios::binary);
    util::require(out.good(), "cannot open " + *events_path);
    if (as_csv) {
      run.write_events_csv(out);
    } else {
      run.write_events_binary(out);
    }
    std::printf("event log written to %s%s\n", events_path->c_str(),
                as_csv ? "" : " (binary; convert with eventlog2csv)");
  }
  if (telemetry) {
    if (metrics_path) {
      std::ofstream out(*metrics_path);
      util::require(out.good(), "cannot open " + *metrics_path);
      obs::write_prometheus(telemetry->registry(), out);
      std::printf("metrics written to %s (%zu series)\n", metrics_path->c_str(),
                  telemetry->registry().num_instances());
    }
    if (json_path) {
      std::ofstream out(*json_path);
      util::require(out.good(), "cannot open " + *json_path);
      obs::write_json(telemetry->registry(), out);
      std::printf("metrics JSON written to %s\n", json_path->c_str());
    }
    if (trace_path) {
      std::ofstream out(*trace_path);
      util::require(out.good(), "cannot open " + *trace_path);
      telemetry->write_trace(out);
      std::printf("trace written to %s (open in ui.perfetto.dev)\n",
                  trace_path->c_str());
    }
    if (log_path) {
      std::ofstream out(*log_path);
      util::require(out.good(), "cannot open " + *log_path);
      telemetry->write_log(out);
      std::printf("log written to %s (%llu lines, shard-merged)\n",
                  log_path->c_str(),
                  static_cast<unsigned long long>(telemetry->log_lines()));
    } else if (log_level != obs::LogLevel::kOff) {
      telemetry->write_log(std::clog);
    }
  }
  return 0;
}

int run_daily(Options& options) {
  auto config = load_config(options, scenario::load_daily_config);
  if (const auto shards = options.get("shards")) {
    const auto k = util::parse_double(*shards);
    util::require(k >= 1.0 && k == static_cast<double>(static_cast<std::size_t>(k)),
                  "--shards wants a positive integer");
    return run_daily_sharded(options, std::move(config),
                             static_cast<std::size_t>(k));
  }
  const auto csv_path = options.get("csv");
  const auto events_path = options.get("events");
  LivePlane live(options);
  Robustness robustness(options, config.run);
  CliTelemetry telemetry(options, live);
  options.reject_unknown();

  for (const auto& path : {csv_path, events_path}) {
    if (path) require_writable(*path);
  }
  telemetry.probe_outputs();

  std::printf("daily run: %zu servers, %zu VMs, %.0f h (+%.0f h warm-up)\n",
              config.fleet.num_servers, config.num_vms,
              (config.horizon_s - config.warmup_s) / sim::kHour,
              config.warmup_s / sim::kHour);
  scenario::DailyScenario daily(config);
  metrics::EventLog event_log;
  if (events_path) event_log.attach(*daily.ecocloud());
  if (daily.ecocloud() != nullptr) {
    telemetry.attach(daily.simulator(), daily.datacenter(), *daily.ecocloud(),
                     daily.fault_injector(), robustness.resumed());
  }
  auto* injector = daily.fault_injector();
  robustness.wire(daily.simulator(), daily.datacenter(), daily.ecocloud(),
                  injector != nullptr ? &injector->redeploy() : nullptr,
                  events_path ? &event_log : nullptr, telemetry,
                  [&daily](ckpt::CheckpointManager& manager) {
                    daily.register_checkpoint(manager);
                  });
  const bool resumed_run = robustness.launch(daily.simulator());
  live.begin(daily.simulator().now(), config.horizon_s,
             daily.simulator().executed_events());
  if (resumed_run) {
    daily.run_resumed();
  } else {
    daily.run();
  }
  robustness.finish();
  live.finish(daily.simulator().now(), daily.simulator().executed_events());
  telemetry.finish(daily.simulator().now());

  const auto& d = daily.datacenter();
  const auto episodes = metrics::summarize_episodes(d.overload_episodes());
  std::printf("energy            %.1f kWh\n", d.energy_joules() / 3.6e6);
  std::printf("migrations        %llu (%llu low / %llu high), max %zu in flight\n",
              static_cast<unsigned long long>(d.total_migrations()),
              static_cast<unsigned long long>(daily.ecocloud()->low_migrations()),
              static_cast<unsigned long long>(daily.ecocloud()->high_migrations()),
              d.max_inflight_migrations());
  std::printf("switches          %llu on / %llu off\n",
              static_cast<unsigned long long>(d.total_activations()),
              static_cast<unsigned long long>(d.total_hibernations()));
  std::printf("over-demand       %.4f%% of VM-time; %zu violations, %.1f%% <30 s\n",
              d.vm_seconds() > 0.0
                  ? 100.0 * d.overload_vm_seconds() / d.vm_seconds()
                  : 0.0,
              episodes.count, 100.0 * episodes.fraction_under_30s);
  std::printf("control plane     %llu messages (%llu invitations)\n",
              static_cast<unsigned long long>(daily.ecocloud()->messages().total()),
              static_cast<unsigned long long>(
                  daily.ecocloud()->messages().invitations_sent));
  if (const auto* injector = daily.fault_injector()) {
    const auto& r = injector->stats();
    std::printf("faults            %llu crashes / %llu repairs; "
                "%llu orphans (%llu redeployed, %llu abandoned)\n",
                static_cast<unsigned long long>(r.crashes()),
                static_cast<unsigned long long>(r.repairs()),
                static_cast<unsigned long long>(r.orphaned_vms()),
                static_cast<unsigned long long>(r.redeployed_vms()),
                static_cast<unsigned long long>(r.abandoned_vms()));
    std::printf("                  %llu migrations interrupted, %llu aborted, "
                "%llu boot failures; %llu messages lost\n",
                static_cast<unsigned long long>(
                    daily.ecocloud()->interrupted_migrations()),
                static_cast<unsigned long long>(
                    daily.ecocloud()->aborted_migrations()),
                static_cast<unsigned long long>(daily.ecocloud()->boot_failures()),
                static_cast<unsigned long long>(
                    daily.ecocloud()->messages().invitations_lost +
                    daily.ecocloud()->messages().replies_lost));
    std::printf("availability      %.6f%% (%.1f VM-min downtime, "
                "median redeploy %.1f s)\n",
                100.0 * injector->availability(),
                r.downtime_vm_seconds() / 60.0,
                r.redeployed_vms() > 0 ? r.redeploy_quantiles().quantile(0.5)
                                       : 0.0);
  }
  if (csv_path) write_series_csv(*csv_path, daily.collector().samples());
  if (events_path) {
    const bool as_csv = events_path_wants_csv(*events_path);
    std::ofstream out(*events_path,
                      as_csv ? std::ios::out : std::ios::out | std::ios::binary);
    util::require(out.good(), "cannot open " + *events_path);
    if (as_csv) {
      event_log.write_csv(out);
    } else {
      metrics::write_binary_events(out, event_log.events());
    }
    std::printf("event log written to %s (%zu events%s)\n", events_path->c_str(),
                event_log.size(),
                as_csv ? "" : "; binary, convert with eventlog2csv");
  }
  return 0;
}

int run_consolidation(Options& options) {
  auto config = load_config(options, scenario::load_consolidation_config);
  const auto csv_path = options.get("csv");
  LivePlane live(options);
  Robustness robustness(options, config.run);
  CliTelemetry telemetry(options, live);
  options.reject_unknown();

  if (csv_path) require_writable(*csv_path);
  telemetry.probe_outputs();

  std::printf("consolidation run: %zu servers, %zu initial VMs, %.0f h\n",
              config.num_servers, config.initial_vms,
              config.horizon_s / sim::kHour);
  scenario::ConsolidationScenario cons(config);
  telemetry.attach(cons.simulator(), cons.datacenter(), cons.controller(),
                   /*injector=*/nullptr, robustness.resumed());
  robustness.wire(cons.simulator(), cons.datacenter(), &cons.controller(),
                  /*redeploy=*/nullptr, /*event_log=*/nullptr, telemetry,
                  [&cons](ckpt::CheckpointManager& manager) {
                    cons.register_checkpoint(manager);
                  });
  const bool resumed_run = robustness.launch(cons.simulator());
  live.begin(cons.simulator().now(), config.horizon_s,
             cons.simulator().executed_events());
  if (resumed_run) {
    cons.run_resumed();
  } else {
    cons.run();
  }
  robustness.finish();
  live.finish(cons.simulator().now(), cons.simulator().executed_events());
  telemetry.finish(cons.simulator().now());
  const auto& d = cons.datacenter();
  std::printf("final: %zu active / %zu hibernated; arrivals=%llu departures=%llu "
              "rejections=%llu\n",
              d.active_server_count(),
              d.num_servers() - d.active_server_count() - d.booting_server_count(),
              static_cast<unsigned long long>(cons.open_system().total_arrivals()),
              static_cast<unsigned long long>(cons.open_system().total_departures()),
              static_cast<unsigned long long>(cons.open_system().total_rejections()));
  if (csv_path) write_series_csv(*csv_path, cons.collector().samples());
  return 0;
}

int gen_traces(Options& options) {
  const auto out_dir = options.get("out");
  util::require(out_dir.has_value(), "gen-traces requires --out DIR");
  const double hours = options.get_double("hours", 48.0);
  const auto vms = static_cast<std::size_t>(options.get_double("vms", 6000.0));
  const auto seed = static_cast<std::uint64_t>(options.get_double("seed", 1.0));
  options.reject_unknown();

  trace::WorkloadModel model;
  util::Rng rng(seed);
  const auto steps = static_cast<std::size_t>(hours * 3600.0 / 300.0) + 1;
  const auto set = trace::TraceSet::generate(model, vms, steps, rng);
  trace::write_planetlab_dir(set, *out_dir);
  std::printf("wrote %zu traces x %zu samples (5-min cadence) to %s\n", vms,
              steps, out_dir->c_str());
  return 0;
}

int functions(Options& options) {
  const double ta = options.get_double("ta", 0.9);
  const double p = options.get_double("p", 3.0);
  const double tl = options.get_double("tl", 0.5);
  const double th = options.get_double("th", 0.95);
  const double alpha = options.get_double("alpha", 0.25);
  const double beta = options.get_double("beta", 0.25);
  options.reject_unknown();

  const core::AssignmentFunction fa(ta, p);
  const core::LowMigrationFunction fl(tl, alpha);
  const core::HighMigrationFunction fh(th, beta);
  std::printf("u,fa,fl,fh   (Ta=%.2f p=%.1f Tl=%.2f Th=%.2f a=%.2f b=%.2f; "
              "fa peaks at u=%.3f)\n", ta, p, tl, th, alpha, beta, fa.argmax());
  for (int i = 0; i <= 50; ++i) {
    const double u = i / 50.0;
    std::printf("%.2f,%.4f,%.4f,%.4f\n", u, fa(u), fl(u), fh(u));
  }
  return 0;
}

/// SIGTERM/SIGINT flag for the `serve` loop. A plain flag (no locks, no
/// allocation) is all a signal handler may touch; the main thread polls
/// it and runs the actual drain protocol in normal context.
volatile std::sig_atomic_t g_serve_stop = 0;

void serve_signal_handler(int) { g_serve_stop = 1; }

int serve(Options& options) {
  srv::ServerConfig config;
  const double port = options.get_double("port", 0.0);
  util::require(port >= 0.0 && port <= 65535.0 && port == std::floor(port),
                "--port wants a TCP port (0..65535; 0 picks an ephemeral one)");
  config.port = static_cast<std::uint16_t>(port);
  const double workers = options.get_double("workers", 2.0);
  util::require(workers >= 1.0 && workers == std::floor(workers),
                "--workers wants a positive integer");
  config.workers = static_cast<std::size_t>(workers);
  const double capacity = options.get_double("queue-capacity", 8.0);
  util::require(capacity >= 1.0 && capacity == std::floor(capacity),
                "--queue-capacity wants a positive integer");
  config.queue_capacity = static_cast<std::size_t>(capacity);
  if (const auto dir = options.get("data-dir")) config.data_dir = *dir;
  config.slice_s = options.get_double("slice", config.slice_s);
  util::require(config.slice_s > 0.0,
                "--slice wants a positive number of sim seconds");
  config.checkpoint_every_slices = static_cast<std::size_t>(options.get_double(
      "checkpoint-every-slices",
      static_cast<double>(config.checkpoint_every_slices)));
  config.rss_high_mb = options.get_double("rss-high-mb", 0.0);
  config.rss_low_mb = options.get_double("rss-low-mb", 0.0);
  config.retry_after_s =
      static_cast<int>(options.get_double("retry-after", 5.0));
  options.reject_unknown();

  srv::CampaignServer server(std::move(config));
  server.start();
  std::printf("campaign server listening on http://127.0.0.1:%u\n",
              static_cast<unsigned>(server.port()));
  if (server.recovered_campaigns() > 0) {
    std::printf("journal replay: %zu campaigns recovered\n",
                server.recovered_campaigns());
  }
  std::printf("POST /campaigns to submit; SIGTERM drains and exits 0\n");
  std::fflush(stdout);

  std::signal(SIGTERM, serve_signal_handler);
  std::signal(SIGINT, serve_signal_handler);
  while (g_serve_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("drain: admission stopped, checkpointing in-flight campaigns\n");
  std::fflush(stdout);
  server.drain();
  std::printf("campaign server drained cleanly\n");
  return util::exit_code::kSuccess;
}

int help_config() {
  std::puts(
      "daily config keys (key = value, '#' comments, defaults = paper):\n"
      "  fleet:     servers, core_mhz, core_mix (e.g. 4,6,8), ram_per_core_mb\n"
      "  workload:  vms, reference_mhz, sample_period_s, diurnal_amplitude,\n"
      "             diurnal_peak_hour, ar1_rho, dev_base, dev_slope\n"
      "  run:       horizon_hours, warmup_hours, seed\n"
      "  algorithm: ta, p, tl, th, alpha, beta, high_dest_factor,\n"
      "             monitor_period_s, migration_cooldown_s,\n"
      "             migration_latency_s, boot_time_s, grace_period_s,\n"
      "             hibernate_delay_s, require_fit, enable_migrations,\n"
      "             invite_group_size, fast_sampler\n"
      "  no effect: streaming_traces (accepted; every run streams its\n"
      "             traces, DESIGN.md Sec. 14)\n"
      "  faults:    under a [faults] section (or faults.-prefixed):\n"
      "             server_mtbf_s, server_mttr_s, migration_abort_prob,\n"
      "             boot_failure_prob, max_boot_retries,\n"
      "             invitation_loss_prob, reply_loss_prob, max_invite_rounds,\n"
      "             redeploy_delay_s, redeploy_backoff_s,\n"
      "             redeploy_backoff_max_s, redeploy_max_attempts,\n"
      "             schedule (e.g. crash 10-20 3600 600, repair 5 7200)\n"
      "  robustness: [checkpoint] out, every_s; [audit] every_s,\n"
      "             action (log|abort|heal), tolerance, strict;\n"
      "             [watchdog] stall_s — all disabled by default\n"
      "\n"
      "consolidation config keys:\n"
      "  servers, cores_per_server, core_mhz, initial_vms, horizon_hours,\n"
      "  mean_lifetime_hours, metrics_period_s, seed + algorithm/workload "
      "keys");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    Options options(argc, argv, 2);
    if (command == "run-daily") return run_daily(options);
    if (command == "run-consolidation") return run_consolidation(options);
    if (command == "serve") return serve(options);
    if (command == "gen-traces") return gen_traces(options);
    if (command == "functions") return functions(options);
    if (command == "help-config") return help_config();
    if (command == "help" || command == "--help" || command == "-h") {
      usage();
      return 0;
    }
    std::fprintf(stderr, "unknown command: %s\n", command.c_str());
    return usage();
  } catch (const std::invalid_argument& error) {
    // Bad flags, bad config keys, incompatible option combinations: the
    // user asked for something the tool cannot parse or honor.
    std::fprintf(stderr, "error: %s\n", error.what());
    return util::exit_code::kConfigError;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return util::exit_code::kRuntimeFailure;
  }
}
