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

#include <charconv>
#include <chrono>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "ecocloud/ckpt/auditor.hpp"
#include "ecocloud/ckpt/checkpoint.hpp"
#include "ecocloud/core/probability.hpp"
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
#include "ecocloud/stats/quantile.hpp"
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

  static constexpr std::uint64_t kNoMax = std::numeric_limits<std::uint64_t>::max();

  /// Integer flag in [min, max], written as plain decimal digits. Anything
  /// else (a sign, a fraction, an exponent, NaN, overflow) is a
  /// configuration error naming the flag. nullopt when the flag is absent.
  [[nodiscard]] std::optional<std::uint64_t> get_uint(const std::string& key,
                                                      std::uint64_t min,
                                                      std::uint64_t max = kNoMax) {
    const auto value = get(key);
    if (!value) return std::nullopt;
    std::uint64_t parsed = 0;
    const char* last = value->data() + value->size();
    const auto [end, error] = std::from_chars(value->data(), last, parsed);
    if (error != std::errc{} || end != last || parsed < min || parsed > max) {
      throw std::invalid_argument(
          "--" + key + " wants an integer " +
          (max == kNoMax ? ">= " + std::to_string(min)
                         : "in [" + std::to_string(min) + ", " +
                               std::to_string(max) + "]") +
          ", got '" + *value + "'");
    }
    return parsed;
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

/// Create \p path and write it with \p fill.
void write_output(const std::string& path,
                  const std::function<void(std::ostream&)>& fill) {
  std::ofstream out(path, std::ios::binary);
  util::require(out.good(), "cannot open " + path);
  fill(out);
}

/// Live observability plane shared by all run modes: --serve-metrics
/// (embedded HTTP scrape endpoint), --profile-out (phase profiler +
/// folded-stacks dump), --progress (stderr ticker). Everything here is a
/// pure observer — snapshots are rendered on the sim thread at safe
/// points and the HTTP thread serves only the cached strings.
class LivePlane {
 public:
  explicit LivePlane(Options& options) {
    if (const auto port = options.get_uint("serve-metrics", 0, 65535)) {
      port_ = static_cast<std::uint16_t>(*port);
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
  /// serving). \p num_domains: 1 for run-consolidation, K+1 for a daily
  /// run. The registry must outlive this object.
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

/// Telemetry output flags of run-daily and run-consolidation, parsed and
/// probed (fail fast on unwritable paths) once.
struct TelemetryFlags {
  explicit TelemetryFlags(Options& options)
      : metrics_path(options.get("metrics-out")),
        json_path(options.get("metrics-json")),
        trace_path(options.get("trace-out")),
        log_path(options.get("log-out")) {
    if (const auto value = options.get("log-level")) {
      const auto parsed = obs::parse_log_level(*value);
      util::require(parsed.has_value(),
                    "bad --log-level '" + *value +
                        "' (want trace|debug|info|warn|error|off)");
      level = *parsed;
    }
    if (log_path && level == obs::LogLevel::kOff) level = obs::LogLevel::kInfo;
    for (const auto& path : {metrics_path, json_path, trace_path, log_path}) {
      if (path) require_writable(*path);
    }
  }

  [[nodiscard]] bool any() const {
    return metrics_path || json_path || trace_path || log_path ||
           level != obs::LogLevel::kOff;
  }

  /// Write --metrics-out and --metrics-json from \p registry and
  /// --trace-out through \p write_trace.
  void write(const obs::MetricRegistry& registry,
             const std::function<void(std::ostream&)>& write_trace) const {
    if (metrics_path) {
      write_output(*metrics_path, [&registry](std::ostream& out) {
        obs::write_prometheus(registry, out);
      });
      std::printf("metrics written to %s (%zu series)\n", metrics_path->c_str(),
                  registry.num_instances());
    }
    if (json_path) {
      write_output(*json_path, [&registry](std::ostream& out) {
        obs::write_json(registry, out);
      });
      std::printf("metrics JSON written to %s\n", json_path->c_str());
    }
    if (trace_path) {
      write_output(*trace_path, write_trace);
      std::printf("trace written to %s (open in ui.perfetto.dev)\n",
                  trace_path->c_str());
    }
  }

  std::optional<std::string> metrics_path;
  std::optional<std::string> json_path;
  std::optional<std::string> trace_path;
  std::optional<std::string> log_path;
  obs::LogLevel level = obs::LogLevel::kOff;
};

/// Run-control flags over the config file's [checkpoint] / [audit] /
/// [watchdog] sections, for both run commands, validated once merged.
/// Returns the --resume-from path. A resumed run keeps writing snapshots
/// at its snapshot's cadence unless --checkpoint-every sets one: to
/// --checkpoint-out when given, otherwise back over the file it resumed
/// from.
std::optional<std::string> parse_run_control(Options& options,
                                             scenario::RunControl& run) {
  if (const auto v = options.get("checkpoint-out")) run.checkpoint_out = *v;
  run.checkpoint_every_s =
      options.get_double("checkpoint-every", run.checkpoint_every_s);
  auto resume_path = options.get("resume-from");
  run.audit_every_s = options.get_double("audit-every", run.audit_every_s);
  if (const auto v = options.get("audit-action")) run.audit_action = *v;
  run.watchdog_stall_s =
      options.get_double("watchdog-stall", run.watchdog_stall_s);
  run.validate(resume_path.has_value());
  if (!run.checkpoint_out.empty()) {
    require_writable(run.checkpoint_out);
  } else if (resume_path) {
    run.checkpoint_out = *resume_path;
  }
  return resume_path;
}

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
      "                     --log-out is given, at exit for run-daily)\n"
      "    --checkpoint-out F   write crash-safe snapshots to F\n"
      "    --checkpoint-every S snapshot cadence in sim seconds\n"
      "    --resume-from F      restore a snapshot and finish the run\n"
      "                         (bit-identical to the uninterrupted run),\n"
      "                         snapshotting to --checkpoint-out or F at\n"
      "                         the snapshot's cadence or --checkpoint-every;\n"
      "                         every other run-control and telemetry flag\n"
      "                         may differ from the run that wrote F\n"
      "    --audit-every S      run the invariant auditor every S sim secs\n"
      "    --audit-action A     log | abort | heal on a failed audit\n"
      "    --watchdog-stall S   abort after S wall seconds without progress\n"
      "                         (snapshots, audits and watchdog beats happen\n"
      "                         at safe points between run slices: barriers\n"
      "                         here; a cadence acts at the first safe point\n"
      "                         at or after each of its multiples)\n"
      "    --serve-metrics P  live scrape endpoint on 127.0.0.1:P while the\n"
      "                     run executes (GET /metrics /progress /healthz;\n"
      "                     P=0 picks an ephemeral port, printed at start)\n"
      "    --profile-out F  phase profiler: folded-stacks dump to F (feed to\n"
      "                     flamegraph.pl) plus per-phase histograms in the\n"
      "                     metrics outputs and a summary on stdout\n"
      "    --progress M     auto|on|off stderr progress ticker (auto = only\n"
      "                     when stderr is a TTY; at most one line/second)\n"
      "    --shards K       split the fleet into K shards (default 1) that\n"
      "                     run in parallel between epoch barriers; output\n"
      "                     is deterministic for fixed K whatever the thread\n"
      "                     count; rack topology needs K = 1\n"
      "    --threads N      worker threads, at most K (default: all cores)\n"
      "    --sync-interval S  epoch barrier period in sim seconds (300)\n"
      "  run-consolidation  assignment-only experiment (paper Sec. IV)\n"
      "    --config FILE, --csv FILE, telemetry and run-control options as\n"
      "    above; its safe points are every 300 sim seconds\n"
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
  write_output(path, [&samples](std::ostream& out) {
    util::CsvWriter csv(out);
    csv.header({"time_s", "active_servers", "booting", "overall_load",
                "power_w", "overload_percent", "window_energy_j"});
    for (const auto& s : samples) {
      csv.row(std::vector<double>{s.time, static_cast<double>(s.active_servers),
                                  static_cast<double>(s.booting_servers),
                                  s.overall_load, s.power_w, s.overload_percent,
                                  s.window_energy_j});
    }
  });
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

/// The end-of-run report of a daily run, summed over the shards (K = 1
/// prints exactly what the single engine would).
void print_daily_summary(const par::ShardedDailyRun& run) {
  const par::ParStats& s = run.stats();
  double vm_seconds = 0.0;
  double overload_vm_seconds = 0.0;
  std::size_t max_inflight = 0;  // sum of per-shard peaks
  std::size_t violations = 0;
  std::size_t short_violations = 0;
  std::uint64_t messages = 0, invitations = 0, interrupted = 0, aborted = 0,
                boot_failures = 0, lost = 0;
  for (std::size_t k = 0; k < run.num_shards(); ++k) {
    const dc::DataCenter& d = run.shard(k).datacenter();
    vm_seconds += d.vm_seconds();
    overload_vm_seconds += d.overload_vm_seconds();
    max_inflight += d.max_inflight_migrations();
    for (const dc::OverloadEpisode& episode : d.overload_episodes()) {
      ++violations;
      if (episode.duration_s < 30.0) ++short_violations;
    }
    const core::EcoCloudController& eco = run.shard(k).controller();
    messages += eco.messages().total();
    invitations += eco.messages().invitations_sent;
    interrupted += eco.interrupted_migrations();
    aborted += eco.aborted_migrations();
    boot_failures += eco.boot_failures();
    lost += eco.messages().invitations_lost + eco.messages().replies_lost;
  }
  std::printf("energy            %.1f kWh\n", run.total_energy_kwh());
  std::printf("migrations        %llu (%llu low / %llu high, %llu cross-shard), "
              "max %zu in flight\n",
              static_cast<unsigned long long>(s.migrations),
              static_cast<unsigned long long>(s.low_migrations),
              static_cast<unsigned long long>(s.high_migrations),
              static_cast<unsigned long long>(s.cross_shard_migrations),
              max_inflight);
  std::printf("switches          %llu on / %llu off\n",
              static_cast<unsigned long long>(s.activations),
              static_cast<unsigned long long>(s.hibernations));
  std::printf("over-demand       %.4f%% of VM-time; %zu violations, %.1f%% <30 s\n",
              vm_seconds > 0.0 ? 100.0 * overload_vm_seconds / vm_seconds : 0.0,
              violations,
              violations > 0 ? 100.0 * (static_cast<double>(short_violations) /
                                        static_cast<double>(violations))
                             : 100.0);
  std::printf("control plane     %llu messages (%llu invitations)\n",
              static_cast<unsigned long long>(messages),
              static_cast<unsigned long long>(invitations));
  std::printf("engine            %llu events over %llu barriers; "
              "%llu stranded wishes\n",
              static_cast<unsigned long long>(s.executed_events),
              static_cast<unsigned long long>(s.barriers),
              static_cast<unsigned long long>(s.stranded_wishes));
  if (run.config().faults.enabled()) {
    std::uint64_t crashes = 0, repairs = 0, orphans = 0, redeployed = 0,
                  abandoned = 0;
    double downtime = 0.0;
    stats::QuantileSketch redeploy;
    for (std::size_t k = 0; k < run.num_shards(); ++k) {
      // Only shards whose slice can fault have an injector.
      const faults::FaultInjector* injector = run.shard(k).fault_injector();
      if (injector == nullptr) continue;
      const auto& r = injector->stats();
      crashes += r.crashes();
      repairs += r.repairs();
      orphans += r.orphaned_vms();
      redeployed += r.redeployed_vms();
      abandoned += r.abandoned_vms();
      downtime += r.downtime_vm_seconds();
      redeploy.merge(r.redeploy_quantiles());
    }
    const double demanded = vm_seconds + downtime;
    std::printf("faults            %llu crashes / %llu repairs; "
                "%llu orphans (%llu redeployed, %llu abandoned)\n",
                static_cast<unsigned long long>(crashes),
                static_cast<unsigned long long>(repairs),
                static_cast<unsigned long long>(orphans),
                static_cast<unsigned long long>(redeployed),
                static_cast<unsigned long long>(abandoned));
    std::printf("                  %llu migrations interrupted, %llu aborted, "
                "%llu boot failures; %llu messages lost\n",
                static_cast<unsigned long long>(interrupted),
                static_cast<unsigned long long>(aborted),
                static_cast<unsigned long long>(boot_failures),
                static_cast<unsigned long long>(lost));
    std::printf("availability      %.6f%% (%.1f VM-min downtime, "
                "median redeploy %.1f s)\n",
                100.0 * (demanded > 0.0 ? vm_seconds / demanded : 1.0),
                downtime / 60.0, redeployed > 0 ? redeploy.quantile(0.5) : 0.0);
  }
  if (s.audits_run > 0) {
    std::printf("audits            %llu barrier rounds, %llu failed checks "
                "(action=%s)\n",
                static_cast<unsigned long long>(s.audits_run),
                static_cast<unsigned long long>(s.audit_failures),
                run.config().run.audit_action.c_str());
  }
  if (s.checkpoints_written > 0) {
    std::printf("checkpoints       %llu written (last %llu bytes, %.1f ms)\n",
                static_cast<unsigned long long>(s.checkpoints_written),
                static_cast<unsigned long long>(s.snapshot_bytes_last),
                1e3 * s.save_wall_seconds_last);
  }
}

/// Hang the live plane off the barrier hook (chained AFTER the
/// ShardedTelemetry flush so its counters are fresh when the snapshot is
/// rendered): refresh per-shard epoch/lag gauges, then publish /metrics
/// and /progress. No calendar events, no RNG — pure observer.
void attach_live_plane(LivePlane& live, par::ShardedDailyRun& run,
                       obs::MetricRegistry& registry) {
  live.start(registry, run.num_shards() + 1);
  run.set_profiler(live.core());
  std::vector<obs::Gauge*> epoch_gauges;
  std::vector<obs::Gauge*> lag_gauges;
  for (std::size_t k = 0; k < run.num_shards(); ++k) {
    const obs::Labels labels{{"shard", std::to_string(k)}};
    epoch_gauges.push_back(
        &registry.gauge("ecocloud_shard_epoch_wall_seconds", labels,
                        "Wall seconds the shard spent on the last epoch"));
    lag_gauges.push_back(&registry.gauge(
        "ecocloud_shard_barrier_lag_seconds", labels,
        "How long the shard waited for the slowest one at the last barrier"));
  }
  run.on_barrier = [&run, &live, epoch_gauges, lag_gauges,
                    prev = std::move(run.on_barrier)](sim::SimTime t) {
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

int run_daily(Options& options) {
  auto config = load_config(options, scenario::load_daily_config);
  const auto csv_path = options.get("csv");
  const auto events_path = options.get("events");
  const auto resume_path = parse_run_control(options, config.run);
  par::ParConfig par;
  par.shards = options.get_uint("shards", 1).value_or(par.shards);
  par.threads = options.get_uint("threads", 0).value_or(par.threads);
  par.sync_interval_s = options.get_double("sync-interval", par.sync_interval_s);
  util::require(par.sync_interval_s > 0.0,
                "--sync-interval wants a positive number of sim seconds");
  LivePlane live(options);
  const TelemetryFlags telemetry_flags(options);
  options.reject_unknown();
  for (const auto& path : {csv_path, events_path}) {
    if (path) require_writable(*path);
  }

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
  par::ShardedDailyRun run(std::move(config), par);
  std::printf(
      "daily run: %zu servers, %zu VMs, %.0f h (+%.0f h warm-up), "
      "%zu shards on %zu threads\n",
      run.config().fleet.num_servers, run.config().num_vms,
      (run.config().horizon_s - run.config().warmup_s) / sim::kHour,
      run.config().warmup_s / sim::kHour, run.num_shards(), run.num_threads());
  if (resume_path) {
    run.restore_snapshot(*resume_path);
    std::printf("resumed from %s at t=%.0f s\n", resume_path->c_str(),
                run.shard(0).simulator().now());
  }

  std::optional<par::ShardedTelemetry> telemetry;
  if (telemetry_flags.any() || live.any()) {
    telemetry.emplace(run, par::ShardedTelemetry::Options{
                               telemetry_flags.trace_path.has_value(),
                               telemetry_flags.level});
  }
  if (live.any()) attach_live_plane(live, run, telemetry->registry());

  run.run();
  const sim::SimTime horizon = run.config().horizon_s;
  if (telemetry) telemetry->finalize(horizon);
  live.finish(horizon, run.stats().executed_events);
  print_daily_summary(run);

  if (csv_path) write_series_csv(*csv_path, run.merged_samples());
  if (events_path) {
    const bool as_csv = events_path_wants_csv(*events_path);
    std::size_t rows = 0;
    write_output(*events_path, [&](std::ostream& out) {
      rows = as_csv ? run.write_events_csv(out) : run.write_events_binary(out);
    });
    std::printf("event log written to %s (%zu events%s)\n", events_path->c_str(),
                rows, as_csv ? "" : "; binary, convert with eventlog2csv");
  }
  if (telemetry) {
    telemetry_flags.write(telemetry->registry(), [&telemetry](std::ostream& out) {
      telemetry->write_trace(out);
    });
    if (telemetry_flags.log_path) {
      write_output(*telemetry_flags.log_path, [&telemetry](std::ostream& out) {
        telemetry->write_log(out);
      });
      std::printf("log written to %s (%llu lines)\n",
                  telemetry_flags.log_path->c_str(),
                  static_cast<unsigned long long>(telemetry->log_lines()));
    } else if (telemetry_flags.level != obs::LogLevel::kOff) {
      telemetry->write_log(std::clog);
    }
  }
  return 0;
}

int run_consolidation(Options& options) {
  auto config = load_config(options, scenario::load_consolidation_config);
  const auto csv_path = options.get("csv");
  const auto resume_path = parse_run_control(options, config.run);
  LivePlane live(options);
  const TelemetryFlags telemetry_flags(options);
  options.reject_unknown();
  if (csv_path) require_writable(*csv_path);

  std::printf("consolidation run: %zu servers, %zu initial VMs, %.0f h\n",
              config.num_servers, config.initial_vms,
              config.horizon_s / sim::kHour);
  scenario::ConsolidationScenario cons(std::move(config));
  const sim::Simulator& sim = cons.simulator();
  if (resume_path) {
    cons.restore_snapshot(*resume_path);
    std::printf("resumed from %s at t=%.0f s (%llu events executed)\n",
                resume_path->c_str(), sim.now(),
                static_cast<unsigned long long>(sim.executed_events()));
  }

  // Telemetry observes the one calendar; it flushes, and the live plane
  // publishes, at every safe point.
  obs::MetricRegistry registry;
  obs::Logger logger;
  std::ofstream log_file;
  std::optional<obs::ChromeTraceWriter> trace;
  std::optional<obs::Instrumentation> instr;
  if (telemetry_flags.any() || live.any()) {
    if (telemetry_flags.trace_path) trace.emplace();
    if (telemetry_flags.log_path) {
      log_file.open(*telemetry_flags.log_path);
      util::require(log_file.good(), "cannot open " + *telemetry_flags.log_path);
      logger.set_sink(&log_file);
    } else if (telemetry_flags.level != obs::LogLevel::kOff) {
      logger.set_sink(&std::clog);
    }
    logger.set_level(telemetry_flags.level);
    logger.set_clock([&sim] { return sim.now(); });
    instr.emplace(registry, logger, trace ? &*trace : nullptr);
    instr->attach_engine(sim);
    instr->attach_datacenter(cons.datacenter());
    instr->attach_controller(cons.controller());
    if (!cons.config().run.checkpoint_out.empty() || cons.auditor() != nullptr) {
      instr->attach_robustness([&cons] {
        const ckpt::CheckpointManager::Stats& c = cons.checkpoints().stats();
        obs::RobustnessSample sample{.checkpoints_written = c.checkpoints_written,
                                     .snapshot_bytes_last = c.snapshot_bytes_last,
                                     .save_wall_seconds_total =
                                         c.save_wall_seconds_total};
        if (const ckpt::RuntimeAuditor* auditor = cons.auditor()) {
          sample.audits_run = auditor->stats().audits_run;
          sample.audits_failed = auditor->stats().audits_failed;
          sample.heals_applied = auditor->stats().heals_applied;
        }
        return sample;
      });
    }
    live.start(registry, /*num_domains=*/1);
    // The run executes on this thread; one domain covers it.
    if (live.core() != nullptr) util::set_current_domain(&live.core()->domain(0));
    cons.on_safe_point = [&](sim::SimTime t) {
      instr->flush_now(t);
      live.publish(t, sim.executed_events());
      if (trace && live.profiler() != nullptr) {
        live.profiler()->emit_counter_track(*trace, t);
      }
    };
  }
  live.begin(sim.now(), cons.config().horizon_s, sim.executed_events());

  if (resume_path) {
    cons.run_resumed();
  } else {
    cons.run();
  }
  const sim::SimTime horizon = cons.config().horizon_s;
  if (instr) instr->finalize(horizon);
  if (trace && live.profiler() != nullptr) {
    live.profiler()->emit_counter_track(*trace, horizon);
  }
  live.finish(horizon, sim.executed_events());

  const auto& d = cons.datacenter();
  std::printf("final: %zu active / %zu hibernated; arrivals=%llu departures=%llu "
              "rejections=%llu\n",
              d.active_server_count(),
              d.num_servers() - d.active_server_count() - d.booting_server_count(),
              static_cast<unsigned long long>(cons.open_system().total_arrivals()),
              static_cast<unsigned long long>(cons.open_system().total_departures()),
              static_cast<unsigned long long>(cons.open_system().total_rejections()));
  if (const ckpt::RuntimeAuditor* auditor = cons.auditor()) {
    std::printf("audits            %llu run, %llu failed (action=%s)\n",
                static_cast<unsigned long long>(auditor->stats().audits_run),
                static_cast<unsigned long long>(auditor->stats().audits_failed),
                ckpt::to_string(auditor->config().action));
  }
  if (const auto& c = cons.checkpoints().stats(); c.checkpoints_written > 0) {
    std::printf("checkpoints       %llu written (last %llu bytes, %.1f ms)\n",
                static_cast<unsigned long long>(c.checkpoints_written),
                static_cast<unsigned long long>(c.snapshot_bytes_last),
                1e3 * c.save_wall_seconds_last);
  }
  if (csv_path) write_series_csv(*csv_path, cons.collector().samples());
  if (instr) {
    telemetry_flags.write(registry,
                          [&trace](std::ostream& out) { trace->write(out); });
    if (telemetry_flags.log_path) {
      std::printf("log written to %s (%llu lines)\n",
                  telemetry_flags.log_path->c_str(),
                  static_cast<unsigned long long>(logger.lines_written()));
    }
  }
  return 0;
}

int gen_traces(Options& options) {
  const auto out_dir = options.get("out");
  util::require(out_dir.has_value(), "gen-traces requires --out DIR");
  const double hours = options.get_double("hours", 48.0);
  util::require(std::isfinite(hours) && hours > 0.0 &&
                    hours * 3600.0 / 300.0 <= scenario::kMaxTraceSteps,
                "--hours wants a finite number of hours > 0 (at most 2^32 "
                "five-minute steps)");
  const std::size_t vms = options.get_uint("vms", 1).value_or(6000);
  const std::uint64_t seed = options.get_uint("seed", 0).value_or(1);
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
  config.port = static_cast<std::uint16_t>(
      options.get_uint("port", 0, 65535).value_or(config.port));
  config.workers = options.get_uint("workers", 1).value_or(config.workers);
  config.queue_capacity =
      options.get_uint("queue-capacity", 1).value_or(config.queue_capacity);
  if (const auto dir = options.get("data-dir")) config.data_dir = *dir;
  config.slice_s = options.get_double("slice", config.slice_s);
  util::require(config.slice_s > 0.0,
                "--slice wants a positive number of sim seconds");
  config.checkpoint_every_slices =
      options.get_uint("checkpoint-every-slices", 0)
          .value_or(config.checkpoint_every_slices);
  config.rss_high_mb = options.get_double("rss-high-mb", 0.0);
  config.rss_low_mb = options.get_double("rss-low-mb", 0.0);
  config.retry_after_s = static_cast<int>(
      options.get_uint("retry-after", 0, INT_MAX).value_or(config.retry_after_s));
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
