#include "ecocloud/scenario/scenario.hpp"

#include <algorithm>
#include <cstdio>

#include "ecocloud/ckpt/checkpoint.hpp"
#include "ecocloud/util/phase_profiler.hpp"
#include "ecocloud/util/validation.hpp"

namespace ecocloud::scenario {

namespace {

/// Digest helpers: every field that shapes the deterministic run is
/// printed exactly (%.17g round-trips doubles) so a snapshot refuses to
/// restore into even a slightly different experiment.
void digest_f(std::string& out, const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), " %s=%.17g", key, value);
  out += buf;
}

void digest_u(std::string& out, const char* key, std::uint64_t value) {
  out += ' ';
  out += key;
  out += '=';
  out += std::to_string(value);
}

void digest_params(std::string& out, const core::EcoCloudParams& p) {
  digest_f(out, "ta", p.ta);
  digest_f(out, "p", p.p);
  digest_f(out, "tl", p.tl);
  digest_f(out, "th", p.th);
  digest_f(out, "alpha", p.alpha);
  digest_f(out, "beta", p.beta);
  digest_f(out, "hdf", p.high_dest_factor);
  digest_f(out, "monitor", p.monitor_period_s);
  digest_f(out, "cooldown", p.migration_cooldown_s);
  digest_f(out, "mig_latency", p.migration_latency_s);
  digest_f(out, "boot", p.boot_time_s);
  digest_f(out, "grace", p.grace_period_s);
  digest_f(out, "hib_delay", p.hibernate_delay_s);
  digest_u(out, "fit", p.require_fit ? 1 : 0);
  digest_u(out, "migrations", p.enable_migrations ? 1 : 0);
  digest_u(out, "invite_group", p.invite_group_size);
  digest_u(out, "fast_sampler", p.fast_sampler ? 1 : 0);
}

void digest_workload(std::string& out, const trace::WorkloadConfig& w) {
  digest_f(out, "ref_mhz", w.reference_mhz);
  digest_f(out, "sample", w.sample_period_s);
  digest_f(out, "diurnal_amp", w.diurnal.amplitude());
  digest_f(out, "diurnal_peak", w.diurnal.peak_hour());
  digest_f(out, "rho", w.ar1_rho);
  digest_f(out, "dev_base", w.dev_base);
  digest_f(out, "dev_slope", w.dev_slope);
  digest_f(out, "ram_min", w.ram_min_mb);
  digest_f(out, "ram_max", w.ram_max_mb);
}

void digest_faults(std::string& out, const faults::FaultParams& f) {
  digest_f(out, "mtbf", f.server_mtbf_s);
  digest_f(out, "mttr", f.server_mttr_s);
  digest_f(out, "mig_abort", f.migration_abort_prob);
  digest_f(out, "boot_fail", f.boot_failure_prob);
  digest_u(out, "boot_retries", f.max_boot_retries);
  digest_f(out, "inv_loss", f.invitation_loss_prob);
  digest_f(out, "reply_loss", f.reply_loss_prob);
  digest_u(out, "invite_rounds", f.max_invite_rounds);
  digest_f(out, "redeploy_delay", f.redeploy_delay_s);
  digest_f(out, "backoff", f.redeploy_backoff_s);
  digest_f(out, "backoff_max", f.redeploy_backoff_max_s);
  digest_u(out, "redeploy_attempts", f.redeploy_max_attempts);
  digest_u(out, "scripted", f.schedule.size());
  for (const faults::ScriptedFault& fault : f.schedule) {
    digest_u(out, "kind", fault.kind == faults::ScriptedFault::Kind::kCrash ? 0 : 1);
    digest_f(out, "at", fault.time);
    digest_u(out, "first", fault.first);
    digest_u(out, "last", fault.last);
    digest_f(out, "repair_after", fault.repair_after_s);
  }
}

}  // namespace

void build_fleet(dc::DataCenter& datacenter, const FleetConfig& fleet) {
  util::require(!fleet.core_mix.empty(), "build_fleet: empty core mix");
  for (std::size_t i = 0; i < fleet.num_servers; ++i) {
    const unsigned cores = fleet.core_mix[i % fleet.core_mix.size()];
    datacenter.add_server(cores, fleet.core_mhz,
                          fleet.ram_per_core_mb * static_cast<double>(cores));
  }
}

std::size_t trace_steps(sim::SimTime horizon_s,
                        const trace::WorkloadConfig& workload) {
  const double steps = horizon_s / workload.sample_period_s;
  util::require(steps >= 0.0 && steps <= kMaxTraceSteps,
                "trace_steps: horizon / sample period must be in [0, 2^32]");
  return static_cast<std::size_t>(steps) + 2;
}

DailyScenario::DailyScenario(DailyConfig config, Algorithm algorithm,
                             baseline::CentralizedParams centralized_params)
    : config_(std::move(config)), algorithm_(algorithm) {
  init(centralized_params);
  util::Rng rng(config_.seed);
  streaming_ = std::make_unique<trace::StreamingTraces>(
      trace::StreamingTraces::generate(
          trace::WorkloadModel(config_.workload), config_.num_vms,
          trace_steps(config_.horizon_s, config_.workload), rng));
  trace_driver_ = std::make_unique<core::TraceDriver>(sim_, *dc_, *streaming_);
}

DailyScenario::DailyScenario(DailyConfig config, trace::TraceSet traces,
                             Algorithm algorithm,
                             baseline::CentralizedParams centralized_params)
    : config_(std::move(config)), algorithm_(algorithm) {
  config_.num_vms = traces.num_vms();
  init(centralized_params);
  traces_ = std::make_unique<trace::TraceSet>(std::move(traces));
  trace_driver_ = std::make_unique<core::TraceDriver>(sim_, *dc_, *traces_);
}

void DailyScenario::init(const baseline::CentralizedParams& centralized_params) {
  config_.params.validate();
  dc_ = std::make_unique<dc::DataCenter>();
  build_fleet(*dc_, config_.fleet);

  util::Rng rng(config_.seed);
  if (algorithm_ == Algorithm::kEcoCloud) {
    eco_ = std::make_unique<core::EcoCloudController>(sim_, *dc_, config_.params,
                                                      rng.split(1));
    if (config_.topology) {
      topology_ =
          std::make_unique<net::Topology>(dc_->num_servers(), *config_.topology);
      eco_->set_topology(topology_.get());
    }
  } else if (algorithm_ == Algorithm::kCentralized) {
    central_ = std::make_unique<baseline::CentralizedController>(
        sim_, *dc_, centralized_params, rng.split(1));
  }
  // kStatic needs no controller at all.

  collector_ = std::make_unique<metrics::MetricsCollector>(sim_, *dc_);
  if (eco_) collector_->attach(*eco_);

  if (eco_ && config_.faults.enabled()) {
    // Stream 7 keeps fault draws out of the workload (seed) and
    // controller (split 1) streams: the same seed yields the same fault
    // sequence regardless of the other knobs.
    injector_ = std::make_unique<faults::FaultInjector>(
        sim_, *dc_, *eco_, config_.faults, rng.split(7));
  }
}

void DailyScenario::start() {
  if (algorithm_ == Algorithm::kStatic) {
    // No consolidation: the whole fleet runs and VMs are spread
    // round-robin, as in a data center without any placement policy.
    for (std::size_t s = 0; s < dc_->num_servers(); ++s) {
      dc_->start_booting(0.0, static_cast<dc::ServerId>(s));
      dc_->finish_booting(0.0, static_cast<dc::ServerId>(s));
    }
  }

  // Hooks must be live before the first deployment: message loss applies
  // to the initial placement wave too.
  if (injector_) injector_->start();

  // Create all VMs with their t=0 demand and deploy them; the controllers
  // wake servers and queue VMs as boots complete. At planet scale this
  // wave is tens of seconds of wall time, so it carries its own phase —
  // one span, always timed, never mistaken for steady-state event cost.
  {
    util::ScopedPhase profile(util::Phase::kVmLifecycle);
    for (std::size_t i = 0; i < config_.num_vms; ++i) {
      const dc::VmId vm = dc_->create_vm(0.0, trace_driver_->ram_mb(i));
      trace_driver_->map_vm(i, vm);
      if (eco_) {
        eco_->deploy_vm(vm);
      } else if (central_) {
        central_->deploy_vm(vm);
      } else {
        dc_->place_vm(0.0, vm,
                      static_cast<dc::ServerId>(i % dc_->num_servers()));
      }
    }
  }

  trace_driver_->start();
  if (eco_) eco_->start();
  if (central_) central_->start();
  collector_->start();
}

bool DailyScenario::run_slice(sim::SimTime until) {
  const sim::SimTime target = std::min(until, config_.horizon_s);
  if (config_.warmup_s > 0.0 && !warmup_done_ &&
      target >= config_.warmup_s) {
    sim_.run_until(config_.warmup_s);
    dc_->reset_accounting(sim_.now());
    collector_->rebase();
    if (eco_) eco_->reset_counters();
    warmup_done_ = true;
  }
  sim_.run_until(target);
  return target >= config_.horizon_s;
}

void DailyScenario::finish() {
  dc_->advance_to(config_.horizon_s);
  if (injector_) injector_->finalize(config_.horizon_s);
}

void DailyScenario::run() {
  start();
  run_slice(config_.horizon_s);
  finish();
}

void DailyScenario::run_resumed() {
  run_slice(config_.horizon_s);
  finish();
}

std::string daily_config_digest(const DailyConfig& config, const char* algo) {
  std::string digest = "daily algo=";
  digest += algo;
  digest_u(digest, "seed", config.seed);
  digest_u(digest, "servers", config.fleet.num_servers);
  digest_f(digest, "core_mhz", config.fleet.core_mhz);
  digest += " mix=";
  for (unsigned cores : config.fleet.core_mix) {
    digest += std::to_string(cores);
    digest += ',';
  }
  digest_f(digest, "ram_per_core", config.fleet.ram_per_core_mb);
  digest_u(digest, "vms", config.num_vms);
  digest_f(digest, "horizon", config.horizon_s);
  digest_f(digest, "warmup", config.warmup_s);
  digest_params(digest, config.params);
  digest_workload(digest, config.workload);
  digest_faults(digest, config.faults);
  if (config.topology) {
    digest_u(digest, "racks", config.topology->num_racks);
    digest_f(digest, "intra_gbps", config.topology->intra_rack_gbps);
    digest_f(digest, "inter_gbps", config.topology->inter_rack_gbps);
  } else {
    digest += " topo=none";
  }
  return digest;
}

std::string DailyScenario::config_digest() const {
  return daily_config_digest(config_,
                             algorithm_ == Algorithm::kEcoCloud       ? "eco"
                             : algorithm_ == Algorithm::kCentralized ? "centralized"
                                                                     : "static");
}

void register_daily_checkpoint(ckpt::CheckpointManager& manager,
                               dc::DataCenter& datacenter,
                               core::EcoCloudController& controller,
                               core::TraceDriver& trace_driver,
                               metrics::MetricsCollector& collector,
                               faults::FaultInjector* injector) {
  dc::DataCenter* dc = &datacenter;
  core::EcoCloudController* eco = &controller;
  core::TraceDriver* driver = &trace_driver;
  metrics::MetricsCollector* coll = &collector;
  manager.add_section(
      "datacenter", [dc](util::BinWriter& w) { dc->save_state(w); },
      [dc](util::BinReader& r) { dc->load_state(r); });
  manager.add_section(
      "controller", [eco](util::BinWriter& w) { eco->save_state(w); },
      [eco](util::BinReader& r) { eco->load_state(r); });
  manager.add_section(
      "trace_driver", [driver](util::BinWriter& w) { driver->save_state(w); },
      [driver](util::BinReader& r) { driver->load_state(r); });
  manager.add_section(
      "collector", [coll](util::BinWriter& w) { coll->save_state(w); },
      [coll](util::BinReader& r) { coll->load_state(r); });
  if (injector != nullptr) {
    manager.add_section(
        "faults", [injector](util::BinWriter& w) { injector->save_state(w); },
        [injector](util::BinReader& r) { injector->load_state(r); });
  }

  manager.add_owner(
      sim::tag_owner::kController,
      [eco](const sim::EventTag& tag) { return eco->rebuild_event(tag); },
      [eco](const sim::EventTag& tag, sim::EventHandle handle) {
        eco->bind_event(tag, handle);
      });
  manager.add_owner(sim::tag_owner::kTraceDriver, [driver](const sim::EventTag& tag) {
    return driver->rebuild_event(tag);
  });
  manager.add_owner(sim::tag_owner::kCollector, [coll](const sim::EventTag& tag) {
    return coll->rebuild_event(tag);
  });
  if (injector != nullptr) {
    manager.add_owner(sim::tag_owner::kFaults, [injector](const sim::EventTag& tag) {
      return injector->rebuild_event(tag);
    });
    manager.add_owner(
        sim::tag_owner::kRedeploy,
        [injector](const sim::EventTag& tag) {
          return injector->redeploy().rebuild_event(tag);
        },
        [injector](const sim::EventTag& tag, sim::EventHandle handle) {
          injector->redeploy().bind_event(tag, handle);
        });
  }
}

void DailyScenario::register_checkpoint(ckpt::CheckpointManager& manager) {
  util::require(eco_ != nullptr,
                "checkpointing supports the ecoCloud algorithm only (the "
                "baseline controllers schedule untagged events)");
  manager.set_config_digest(config_digest());
  manager.add_section(
      "scenario", [this](util::BinWriter& w) { w.boolean(warmup_done_); },
      [this](util::BinReader& r) { warmup_done_ = r.boolean(); });
  register_daily_checkpoint(manager, *dc_, *eco_, *trace_driver_, *collector_,
                            injector_.get());
}

ConsolidationScenario::ConsolidationScenario(ConsolidationConfig config)
    : config_(std::move(config)) {
  // The Sec. IV experiment studies the assignment procedure in isolation.
  config_.params.enable_migrations = false;
  config_.params.validate();

  dc_ = std::make_unique<dc::DataCenter>();
  for (std::size_t i = 0; i < config_.num_servers; ++i) {
    dc_->add_server(config_.cores_per_server, config_.core_mhz);
  }

  util::Rng rng(config_.seed);
  streaming_ = std::make_unique<trace::StreamingTraces>(
      trace::StreamingTraces::generate(
          trace::WorkloadModel(config_.workload), 6000,
          trace_steps(config_.horizon_s, config_.workload), rng));

  trace_driver_ = std::make_unique<core::TraceDriver>(sim_, *dc_, *streaming_);
  eco_ = std::make_unique<core::EcoCloudController>(sim_, *dc_, config_.params,
                                                    rng.split(1));
  rates_ = std::make_unique<trace::RateEstimator>(1800.0);

  const double nu_rate = nu();
  const std::size_t target = config_.initial_vms;
  const trace::DiurnalPattern diurnal = config_.workload.diurnal;
  auto lambda_fn = [target, nu_rate, diurnal](sim::SimTime t) {
    return static_cast<double>(target) * nu_rate * diurnal.value(t);
  };
  const double lambda_max =
      static_cast<double>(target) * nu_rate * diurnal.max() * 1.001;

  open_ = std::make_unique<core::OpenSystemDriver>(sim_, *dc_, *eco_, *trace_driver_,
                                                   rng.split(2), lambda_fn,
                                                   lambda_max, nu_rate);
  open_->set_rate_estimator(rates_.get());

  metrics::CollectorConfig mc;
  mc.sample_period_s = config_.sample_period_s;
  collector_ = std::make_unique<metrics::MetricsCollector>(sim_, *dc_, mc);
  collector_->attach(*eco_);
}

double ConsolidationScenario::lambda(sim::SimTime t) const {
  return static_cast<double>(config_.initial_vms) * nu() *
         config_.workload.diurnal.value(t);
}

double ConsolidationScenario::mean_vm_share() const {
  const double mean_mhz = trace::WorkloadModel::expected_average_percent() / 100.0 *
                          config_.workload.reference_mhz;
  const double capacity =
      static_cast<double>(config_.cores_per_server) * config_.core_mhz;
  return mean_mhz / capacity;
}

void ConsolidationScenario::run() {
  // Non-consolidated start: every server active, VMs spread uniformly.
  for (std::size_t s = 0; s < config_.num_servers; ++s) {
    eco_->force_activate(static_cast<dc::ServerId>(s));
  }
  open_->seed_initial_population(config_.initial_vms);
  dc_->reset_accounting(sim_.now());

  trace_driver_->start();
  eco_->start();  // no-op with migrations disabled, kept for symmetry
  open_->start();
  collector_->sample_now();
  collector_->start();

  sim_.run_until(config_.horizon_s);
  dc_->advance_to(config_.horizon_s);
}

void ConsolidationScenario::run_resumed() {
  sim_.run_until(config_.horizon_s);
  dc_->advance_to(config_.horizon_s);
}

std::string ConsolidationScenario::config_digest() const {
  std::string digest = "consolidation";
  digest_u(digest, "seed", config_.seed);
  digest_u(digest, "servers", config_.num_servers);
  digest_u(digest, "cores", config_.cores_per_server);
  digest_f(digest, "core_mhz", config_.core_mhz);
  digest_u(digest, "initial_vms", config_.initial_vms);
  digest_f(digest, "horizon", config_.horizon_s);
  digest_f(digest, "lifetime", config_.mean_lifetime_s);
  digest_f(digest, "sample", config_.sample_period_s);
  digest_params(digest, config_.params);
  digest_workload(digest, config_.workload);
  return digest;
}

void ConsolidationScenario::register_checkpoint(ckpt::CheckpointManager& manager) {
  manager.set_config_digest(config_digest());

  manager.add_section(
      "datacenter", [this](util::BinWriter& w) { dc_->save_state(w); },
      [this](util::BinReader& r) { dc_->load_state(r); });
  manager.add_section(
      "controller", [this](util::BinWriter& w) { eco_->save_state(w); },
      [this](util::BinReader& r) { eco_->load_state(r); });
  manager.add_section(
      "trace_driver", [this](util::BinWriter& w) { trace_driver_->save_state(w); },
      [this](util::BinReader& r) { trace_driver_->load_state(r); });
  manager.add_section(
      "open_system", [this](util::BinWriter& w) { open_->save_state(w); },
      [this](util::BinReader& r) { open_->load_state(r); });
  manager.add_section(
      "rates", [this](util::BinWriter& w) { rates_->save_state(w); },
      [this](util::BinReader& r) { rates_->load_state(r); });
  manager.add_section(
      "collector", [this](util::BinWriter& w) { collector_->save_state(w); },
      [this](util::BinReader& r) { collector_->load_state(r); });

  manager.add_owner(
      sim::tag_owner::kController,
      [this](const sim::EventTag& tag) { return eco_->rebuild_event(tag); },
      [this](const sim::EventTag& tag, sim::EventHandle handle) {
        eco_->bind_event(tag, handle);
      });
  manager.add_owner(sim::tag_owner::kTraceDriver, [this](const sim::EventTag& tag) {
    return trace_driver_->rebuild_event(tag);
  });
  manager.add_owner(sim::tag_owner::kOpenSystem, [this](const sim::EventTag& tag) {
    return open_->rebuild_event(tag);
  });
  manager.add_owner(sim::tag_owner::kCollector, [this](const sim::EventTag& tag) {
    return collector_->rebuild_event(tag);
  });
}

}  // namespace ecocloud::scenario
