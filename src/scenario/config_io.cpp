#include "ecocloud/scenario/config_io.hpp"

#include <cmath>
#include <istream>
#include <limits>
#include <stdexcept>
#include <string>

#include "ecocloud/faults/fault_model.hpp"
#include "ecocloud/util/key_value.hpp"
#include "ecocloud/util/string_util.hpp"
#include "ecocloud/util/validation.hpp"

namespace ecocloud::scenario {

namespace {

/// Throw std::invalid_argument naming \p key, and the line that set it,
/// unless \p ok.
void require_key(const util::KeyValueConfig& kv, bool ok,
                 const std::string& key, const char* what) {
  if (ok) return;
  std::string message = "config: '" + key + "' " + what;
  if (const std::size_t line = kv.line_of(key); line > 0) {
    message += " (line " + std::to_string(line) + ")";
  }
  throw std::invalid_argument(message);
}

/// Read an integer key >= \p min (size_t fields must reject negatives
/// instead of wrapping through the cast).
std::size_t get_size(const util::KeyValueConfig& kv, const std::string& key,
                     std::size_t fallback, long long min = 0) {
  const long long value = kv.get_int(key, static_cast<long long>(fallback));
  require_key(kv, value >= min, key,
              ("must be >= " + std::to_string(min)).c_str());
  return static_cast<std::size_t>(value);
}

/// A server's core count: at least one, and it must fit the unsigned
/// field instead of wrapping through the cast.
bool is_core_count(long long cores) {
  return cores >= 1 && cores <= std::numeric_limits<unsigned>::max();
}

/// The horizon must cut into a representable number of trace samples
/// (scenario::trace_steps); checked before any trace is generated.
void check_horizon(const util::KeyValueConfig& kv, sim::SimTime horizon_s,
                   sim::SimTime sample_period_s) {
  require_key(kv, std::isfinite(horizon_s) && horizon_s > 0.0,
              "horizon_hours", "must be finite and > 0");
  require_key(kv, std::isfinite(sample_period_s) && sample_period_s > 0.0,
              "sample_period_s", "must be finite and > 0");
  require_key(kv, horizon_s / sample_period_s <= kMaxTraceSteps,
              "horizon_hours", "spans more than 2^32 trace samples");
}

void load_params(const util::KeyValueConfig& kv, core::EcoCloudParams& params) {
  params.ta = kv.get_double("ta", params.ta);
  params.p = kv.get_double("p", params.p);
  params.tl = kv.get_double("tl", params.tl);
  params.th = kv.get_double("th", params.th);
  params.alpha = kv.get_double("alpha", params.alpha);
  params.beta = kv.get_double("beta", params.beta);
  params.high_dest_factor = kv.get_double("high_dest_factor", params.high_dest_factor);
  params.monitor_period_s = kv.get_double("monitor_period_s", params.monitor_period_s);
  params.migration_cooldown_s =
      kv.get_double("migration_cooldown_s", params.migration_cooldown_s);
  params.migration_latency_s =
      kv.get_double("migration_latency_s", params.migration_latency_s);
  params.boot_time_s = kv.get_double("boot_time_s", params.boot_time_s);
  params.grace_period_s = kv.get_double("grace_period_s", params.grace_period_s);
  params.hibernate_delay_s =
      kv.get_double("hibernate_delay_s", params.hibernate_delay_s);
  params.require_fit = kv.get_bool("require_fit", params.require_fit);
  params.enable_migrations =
      kv.get_bool("enable_migrations", params.enable_migrations);
  params.invite_group_size =
      get_size(kv, "invite_group_size", params.invite_group_size);
  params.fast_sampler = kv.get_bool("fast_sampler", params.fast_sampler);
}

void load_faults(const util::KeyValueConfig& kv, faults::FaultParams& params) {
  params.server_mtbf_s = kv.get_double("faults.server_mtbf_s", params.server_mtbf_s);
  params.server_mttr_s = kv.get_double("faults.server_mttr_s", params.server_mttr_s);
  params.migration_abort_prob =
      kv.get_double("faults.migration_abort_prob", params.migration_abort_prob);
  params.boot_failure_prob =
      kv.get_double("faults.boot_failure_prob", params.boot_failure_prob);
  params.max_boot_retries =
      get_size(kv, "faults.max_boot_retries", params.max_boot_retries);
  params.invitation_loss_prob =
      kv.get_double("faults.invitation_loss_prob", params.invitation_loss_prob);
  params.reply_loss_prob =
      kv.get_double("faults.reply_loss_prob", params.reply_loss_prob);
  params.max_invite_rounds =
      get_size(kv, "faults.max_invite_rounds", params.max_invite_rounds);
  params.redeploy_delay_s =
      kv.get_double("faults.redeploy_delay_s", params.redeploy_delay_s);
  params.redeploy_backoff_s =
      kv.get_double("faults.redeploy_backoff_s", params.redeploy_backoff_s);
  params.redeploy_backoff_max_s =
      kv.get_double("faults.redeploy_backoff_max_s", params.redeploy_backoff_max_s);
  params.redeploy_max_attempts =
      get_size(kv, "faults.redeploy_max_attempts", params.redeploy_max_attempts);
  const std::string schedule = kv.get_string("faults.schedule", "");
  if (!schedule.empty()) params.schedule = faults::parse_fault_schedule(schedule);
  params.validate();
}

void load_run_control(const util::KeyValueConfig& kv, RunControl& run) {
  run.checkpoint_out = kv.get_string("checkpoint.out", run.checkpoint_out);
  run.checkpoint_every_s =
      kv.get_double("checkpoint.every_s", run.checkpoint_every_s);
  util::require(run.checkpoint_every_s == 0.0 || !run.checkpoint_out.empty(),
                "config: 'checkpoint.every_s' needs 'checkpoint.out'");
  run.audit_every_s = kv.get_double("audit.every_s", run.audit_every_s);
  run.audit_action = kv.get_string("audit.action", run.audit_action);
  run.audit_tolerance = kv.get_double("audit.tolerance", run.audit_tolerance);
  util::require(run.audit_tolerance >= 0.0,
                "config: 'audit.tolerance' must be >= 0");
  run.audit_strict = kv.get_bool("audit.strict", run.audit_strict);
  run.watchdog_stall_s = kv.get_double("watchdog.stall_s", run.watchdog_stall_s);
  // The command re-checks once its flags are merged and it knows whether
  // the run resumes (a resume may take the snapshot's cadence).
  run.validate(/*resuming=*/true);
}

void load_workload(const util::KeyValueConfig& kv, trace::WorkloadConfig& workload) {
  workload.reference_mhz = kv.get_double("reference_mhz", workload.reference_mhz);
  workload.sample_period_s =
      kv.get_double("sample_period_s", workload.sample_period_s);
  const double amplitude =
      kv.get_double("diurnal_amplitude", workload.diurnal.amplitude());
  const double peak_hour =
      kv.get_double("diurnal_peak_hour", workload.diurnal.peak_hour());
  workload.diurnal = trace::DiurnalPattern(amplitude, peak_hour);
  workload.ar1_rho = kv.get_double("ar1_rho", workload.ar1_rho);
  workload.dev_base = kv.get_double("dev_base", workload.dev_base);
  workload.dev_slope = kv.get_double("dev_slope", workload.dev_slope);
}

}  // namespace

DailyConfig load_daily_config(std::istream& in) {
  const auto kv = util::KeyValueConfig::parse(in);
  DailyConfig config;

  config.fleet.num_servers =
      get_size(kv, "servers", config.fleet.num_servers, /*min=*/1);
  config.fleet.core_mhz = kv.get_double("core_mhz", config.fleet.core_mhz);
  config.fleet.ram_per_core_mb =
      kv.get_double("ram_per_core_mb", config.fleet.ram_per_core_mb);
  const std::string mix = kv.get_string("core_mix", "");
  if (!mix.empty()) {
    config.fleet.core_mix.clear();
    for (const std::string& part : util::split(mix, ',')) {
      const long long cores = util::parse_int(part);
      require_key(kv, is_core_count(cores), "core_mix",
                  "entries must be in [1, 4294967295]");
      config.fleet.core_mix.push_back(static_cast<unsigned>(cores));
    }
  }

  config.num_vms = get_size(kv, "vms", config.num_vms);
  config.horizon_s =
      kv.get_double("horizon_hours", config.horizon_s / sim::kHour) * sim::kHour;
  config.warmup_s =
      kv.get_double("warmup_hours", config.warmup_s / sim::kHour) * sim::kHour;
  config.seed = static_cast<std::uint64_t>(
      kv.get_int("seed", static_cast<long long>(config.seed)));
  // Accepted for existing configs; it has no effect (every run streams).
  config.streaming_traces = kv.get_bool("streaming_traces", false);

  const auto racks = kv.get_int("racks", 0);
  if (racks > 0) {
    net::TopologyConfig topology;
    topology.num_racks = static_cast<std::size_t>(racks);
    topology.intra_rack_gbps =
        kv.get_double("intra_rack_gbps", topology.intra_rack_gbps);
    topology.inter_rack_gbps =
        kv.get_double("inter_rack_gbps", topology.inter_rack_gbps);
    config.topology = topology;
  } else {
    // Consume the bandwidth keys even without racks, for typo detection.
    (void)kv.get_double("intra_rack_gbps", 0.0);
    (void)kv.get_double("inter_rack_gbps", 0.0);
  }

  load_params(kv, config.params);
  load_workload(kv, config.workload);
  check_horizon(kv, config.horizon_s, config.workload.sample_period_s);
  require_key(kv,
              std::isfinite(config.warmup_s) && config.warmup_s >= 0.0 &&
                  config.warmup_s < config.horizon_s,
              "warmup_hours", "must be finite, >= 0 and < horizon_hours");
  load_faults(kv, config.faults);
  load_run_control(kv, config.run);
  kv.require_all_used();
  config.params.validate();
  return config;
}

ConsolidationConfig load_consolidation_config(std::istream& in) {
  const auto kv = util::KeyValueConfig::parse(in);
  ConsolidationConfig config;

  config.num_servers = get_size(kv, "servers", config.num_servers, /*min=*/1);
  const long long cores = kv.get_int("cores_per_server", config.cores_per_server);
  require_key(kv, is_core_count(cores), "cores_per_server",
              "must be in [1, 4294967295]");
  config.cores_per_server = static_cast<unsigned>(cores);
  config.core_mhz = kv.get_double("core_mhz", config.core_mhz);
  config.initial_vms = get_size(kv, "initial_vms", config.initial_vms);
  config.horizon_s =
      kv.get_double("horizon_hours", config.horizon_s / sim::kHour) * sim::kHour;
  config.mean_lifetime_s =
      kv.get_double("mean_lifetime_hours", config.mean_lifetime_s / sim::kHour) *
      sim::kHour;
  // "sample_period_s" configures the workload cadence; the metrics window
  // has its own key to avoid the collision.
  config.sample_period_s =
      kv.get_double("metrics_period_s", config.sample_period_s);
  config.seed = static_cast<std::uint64_t>(
      kv.get_int("seed", static_cast<long long>(config.seed)));
  // A zero lifetime makes the departure rate 1/0 and the run never ends.
  require_key(kv, std::isfinite(config.mean_lifetime_s) && config.mean_lifetime_s > 0.0,
              "mean_lifetime_hours", "must be finite and > 0");
  require_key(kv, std::isfinite(config.sample_period_s) && config.sample_period_s > 0.0,
              "metrics_period_s", "must be finite and > 0");

  load_params(kv, config.params);
  load_workload(kv, config.workload);
  check_horizon(kv, config.horizon_s, config.workload.sample_period_s);
  // Departed VMs stay unowned forever in the open system, so the strict
  // every-VM-owned audit would always fail here.
  config.run.audit_strict = false;
  load_run_control(kv, config.run);
  kv.require_all_used();
  return config;
}

}  // namespace ecocloud::scenario
