#include "ecocloud/obs/instrumentation.hpp"

#include <utility>
#include <vector>

#include "ecocloud/dc/server.hpp"
#include "ecocloud/util/validation.hpp"

namespace ecocloud::obs {

namespace {

/// Wake-to-active latency buckets (seconds). Boot time defaults to 120 s,
/// so the interesting resolution sits around that mark; queue-delayed
/// wakes land in the coarse tail.
const std::vector<double> kWakeLatencyBounds = {30.0,  60.0,  90.0,
                                                120.0, 150.0, 180.0,
                                                240.0, 300.0, 600.0};

[[nodiscard]] std::uint64_t id_u64(std::uint32_t id) {
  return static_cast<std::uint64_t>(id);
}

}  // namespace

Instrumentation::Instrumentation(MetricRegistry& registry, Logger& logger,
                                 ChromeTraceWriter* trace, ShardContext shard)
    : registry_(registry), logger_(logger), trace_(trace),
      shard_(std::move(shard)) {
  if (trace_ != nullptr) {
    const std::string suffix =
        shard_.sharded ? " (shard " + std::to_string(shard_.shard) + ")" : "";
    trace_->name_process(pid(ChromeTraceWriter::kServersPid),
                         "servers" + suffix);
    trace_->name_process(pid(ChromeTraceWriter::kMigrationsPid),
                         "migrations" + suffix);
    trace_->name_process(pid(ChromeTraceWriter::kCountersPid),
                         "fleet" + suffix);
  }
}

Labels Instrumentation::labels(Labels base) const {
  if (shard_.sharded) {
    base.emplace_back("shard", std::to_string(shard_.shard));
  }
  return base;
}

int Instrumentation::pid(int base) const {
  // 3 track groups per shard: shard k owns pids {1,2,3} + 3k, so shard 0
  // (and the unsharded engine) keeps the historical pids.
  return shard_.sharded ? base + 3 * static_cast<int>(shard_.shard) : base;
}

std::uint64_t Instrumentation::gsrv(dc::ServerId server) const {
  return shard_.global_server ? shard_.global_server(id_u64(server))
                              : id_u64(server);
}

std::uint64_t Instrumentation::gvm(dc::VmId vm) const {
  return shard_.global_vm ? shard_.global_vm(id_u64(vm)) : id_u64(vm);
}

void Instrumentation::attach_engine(const sim::Simulator& simulator) {
  const sim::Simulator* sim = &simulator;
  registry_.counter_fn(
      "ecocloud_engine_executed_events_total",
      [sim] { return sim->executed_events(); }, labels({}),
      "Events executed by the simulation kernel");
  registry_.counter_fn(
      "ecocloud_engine_events_fired_total",
      [sim] { return sim->stats().fired_from_heap; },
      labels({{"source", "heap"}}), "Events popped, by queue structure");
  registry_.counter_fn(
      "ecocloud_engine_events_fired_total",
      [sim] { return sim->stats().fired_from_ring; },
      labels({{"source", "ring"}}), "Events popped, by queue structure");
  registry_.counter_fn(
      "ecocloud_engine_events_scheduled_total",
      [sim] { return sim->stats().scheduled_one_shot; },
      labels({{"kind", "one_shot"}}),
      "schedule_at/after and schedule_periodic calls");
  registry_.counter_fn(
      "ecocloud_engine_events_scheduled_total",
      [sim] { return sim->stats().scheduled_periodic; },
      labels({{"kind", "periodic"}}),
      "schedule_at/after and schedule_periodic calls");
  registry_.counter_fn(
      "ecocloud_engine_timer_fires_total",
      [sim] { return sim->stats().fired_one_shot; },
      labels({{"kind", "one_shot"}}),
      "Executed events, by one-shot vs. periodic record");
  registry_.counter_fn(
      "ecocloud_engine_timer_fires_total",
      [sim] { return sim->stats().fired_periodic; },
      labels({{"kind", "periodic"}}),
      "Executed events, by one-shot vs. periodic record");
  registry_.counter_fn(
      "ecocloud_engine_cancels_total",
      [sim] { return sim->stats().cancels; }, labels({{"result", "cancelled"}}),
      "EventHandle::cancel calls, by whether the event was still pending");
  registry_.counter_fn(
      "ecocloud_engine_cancels_total",
      [sim] { return sim->stats().stale_cancels; },
      labels({{"result", "stale"}}),
      "EventHandle::cancel calls, by whether the event was still pending");
  registry_.counter_fn(
      "ecocloud_engine_dropped_cancelled_total",
      [sim] { return sim->stats().dropped_cancelled; }, labels({}),
      "Cancelled records lazily discarded at pop time");
  registry_.gauge_fn(
      "ecocloud_engine_pending_events",
      [sim] { return static_cast<double>(sim->pending_events()); }, labels({}),
      "Live events currently queued");
  registry_.gauge_fn(
      "ecocloud_engine_slab_high_water",
      [sim] { return static_cast<double>(sim->stats().slab_high_water); },
      labels({}), "High-water mark of occupied event-slab slots");
}

void Instrumentation::attach_datacenter(const dc::DataCenter& datacenter) {
  dc_ = &datacenter;
  const dc::DataCenter* dc = dc_;

  registry_.gauge_fn(
      "ecocloud_servers",
      [dc] { return static_cast<double>(dc->active_server_count()); },
      labels({{"state", "active"}}), "Servers currently in each state");
  registry_.gauge_fn(
      "ecocloud_servers",
      [dc] { return static_cast<double>(dc->booting_server_count()); },
      labels({{"state", "booting"}}), "Servers currently in each state");
  registry_.gauge_fn(
      "ecocloud_servers",
      [dc] {
        return static_cast<double>(
            dc->state_members(dc::ServerState::kHibernated).size());
      },
      labels({{"state", "hibernated"}}), "Servers currently in each state");
  registry_.gauge_fn(
      "ecocloud_servers",
      [dc] { return static_cast<double>(dc->failed_server_count()); },
      labels({{"state", "failed"}}), "Servers currently in each state");
  registry_.gauge_fn(
      "ecocloud_overall_load", [dc] { return dc->overall_load(); }, labels({}),
      "Total demand over active capacity (paper's overall load)");
  registry_.gauge_fn(
      "ecocloud_power_watts", [dc] { return dc->total_power_w(); }, labels({}),
      "Instantaneous fleet power draw");
  registry_.gauge_fn(
      "ecocloud_energy_joules", [dc] { return dc->energy_joules(); }, labels({}),
      "Energy integrated since the last accounting reset");
  registry_.gauge_fn(
      "ecocloud_placed_vms",
      [dc] { return static_cast<double>(dc->placed_vm_count()); }, labels({}),
      "VMs currently placed on a server");
  registry_.gauge_fn(
      "ecocloud_total_demand_mhz", [dc] { return dc->total_demand_mhz(); },
      labels({}), "Aggregate CPU demand of placed VMs");
  registry_.gauge_fn(
      "ecocloud_inflight_migrations",
      [dc] { return static_cast<double>(dc->inflight_migrations()); },
      labels({}), "Live migrations currently in flight (placement view)");
  registry_.counter_fn(
      "ecocloud_server_activations_total",
      [dc] { return dc->total_activations(); }, labels({}),
      "Server activations since construction");
  registry_.counter_fn(
      "ecocloud_server_hibernations_total",
      [dc] { return dc->total_hibernations(); }, labels({}),
      "Server hibernations since construction");
  registry_.counter_fn(
      "ecocloud_vm_migrations_total", [dc] { return dc->total_migrations(); },
      labels({}), "Completed VM migrations since construction");
  registry_.counter_fn(
      "ecocloud_server_failures_total", [dc] { return dc->total_failures(); },
      labels({}), "Server fail-stop crashes since construction");
  registry_.counter_fn(
      "ecocloud_server_repairs_total", [dc] { return dc->total_repairs(); },
      labels({}), "Server repairs since construction");

  // Seed the state timeline: every server's residency starts in its
  // current state (attach before run() so this is the initial state).
  if (trace_ != nullptr) {
    for (const dc::Server& server : datacenter.servers()) {
      const std::uint64_t global = gsrv(server.id());
      trace_->name_thread(pid(ChromeTraceWriter::kServersPid),
                          static_cast<int>(global),
                          "server " + std::to_string(global));
      open_server_span(server.id(), dc::to_string(server.state()),
                       datacenter.last_update_time());
    }
  }
}

void Instrumentation::attach_controller(core::EcoCloudController& controller) {
  util::require(dc_ != nullptr || trace_ == nullptr,
                "Instrumentation: attach_datacenter before attach_controller "
                "when tracing");

  const std::string kEvents = "ecocloud_events_total";
  const std::string kEventsHelp = "Controller decision events, by kind";
  ev_assignment_ =
      &registry_.counter(kEvents, labels({{"kind", "assignment"}}), kEventsHelp);
  ev_assignment_failure_ = &registry_.counter(
      kEvents, labels({{"kind", "assignment_failure"}}), kEventsHelp);
  ev_migration_start_low_ = &registry_.counter(
      kEvents, labels({{"kind", "migration_start_low"}}), kEventsHelp);
  ev_migration_start_high_ = &registry_.counter(
      kEvents, labels({{"kind", "migration_start_high"}}), kEventsHelp);
  ev_migration_complete_low_ = &registry_.counter(
      kEvents, labels({{"kind", "migration_complete_low"}}), kEventsHelp);
  ev_migration_complete_high_ = &registry_.counter(
      kEvents, labels({{"kind", "migration_complete_high"}}), kEventsHelp);
  ev_migration_aborted_ = &registry_.counter(
      kEvents, labels({{"kind", "migration_aborted"}}), kEventsHelp);
  ev_activation_ =
      &registry_.counter(kEvents, labels({{"kind", "activation"}}), kEventsHelp);
  ev_hibernation_ = &registry_.counter(
      kEvents, labels({{"kind", "hibernation"}}), kEventsHelp);
  ev_wake_ = &registry_.counter(kEvents, labels({{"kind", "wake"}}), kEventsHelp);
  ev_server_failed_ = &registry_.counter(
      kEvents, labels({{"kind", "server_failed"}}), kEventsHelp);
  ev_server_repaired_ = &registry_.counter(
      kEvents, labels({{"kind", "server_repaired"}}), kEventsHelp);
  ev_vm_orphaned_ = &registry_.counter(
      kEvents, labels({{"kind", "vm_orphaned"}}), kEventsHelp);
  wake_latency_ = &registry_.histogram(
      "ecocloud_wake_latency_seconds", kWakeLatencyBounds, labels({}),
      "Wake command to activation latency per server");

  const core::EcoCloudController* ctl = &controller;
  registry_.counter_fn(
      "ecocloud_wake_ups_total", [ctl] { return ctl->wake_ups(); }, labels({}),
      "Wake-up commands issued by the manager");
  registry_.counter_fn(
      "ecocloud_assignment_failures_total",
      [ctl] { return ctl->assignment_failures(); }, labels({}),
      "Deployments that found the data center saturated");
  registry_.counter_fn(
      "ecocloud_migrations_aborted_total",
      [ctl] { return ctl->aborted_migrations(); }, labels({}),
      "Migrations rolled back by a transfer abort");
  registry_.counter_fn(
      "ecocloud_migrations_interrupted_total",
      [ctl] { return ctl->interrupted_migrations(); }, labels({}),
      "Migrations rolled back by an endpoint crash or boot failure");
  registry_.counter_fn(
      "ecocloud_boot_failures_total", [ctl] { return ctl->boot_failures(); },
      labels({}), "Failed boot attempts");
  registry_.gauge_fn(
      "ecocloud_boot_queue_servers",
      [ctl] { return static_cast<double>(ctl->boot_queue_count()); }, labels({}),
      "Booting servers with a deployment queue attached");
  registry_.gauge_fn(
      "ecocloud_queued_vms",
      [ctl] { return static_cast<double>(ctl->queued_vm_count()); }, labels({}),
      "VMs waiting on booting servers");
  registry_.gauge_fn(
      "ecocloud_controller_inflight_migrations",
      [ctl] { return static_cast<double>(ctl->inflight_migration_count()); },
      labels({}), "Live migrations tracked in flight by the controller");

  const core::MessageLog* msgs = &controller.messages();
  const std::string kMessages = "ecocloud_messages_total";
  const std::string kMessagesHelp =
      "Control-plane messages, by type (paper Fig. 1)";
  registry_.counter_fn(
      kMessages, [msgs] { return msgs->invitations_sent; },
      labels({{"type", "invitation"}}), kMessagesHelp);
  registry_.counter_fn(
      kMessages, [msgs] { return msgs->volunteer_replies; },
      labels({{"type", "volunteer_reply"}}), kMessagesHelp);
  registry_.counter_fn(
      kMessages, [msgs] { return msgs->placement_commands; },
      labels({{"type", "placement_command"}}), kMessagesHelp);
  registry_.counter_fn(
      kMessages, [msgs] { return msgs->wake_commands; },
      labels({{"type", "wake_command"}}), kMessagesHelp);
  registry_.counter_fn(
      kMessages, [msgs] { return msgs->migration_commands; },
      labels({{"type", "migration_command"}}), kMessagesHelp);
  registry_.counter_fn(
      "ecocloud_messages_lost_total", [msgs] { return msgs->invitations_lost; },
      labels({{"type", "invitation"}}),
      "Messages dropped by the lossy control plane");
  registry_.counter_fn(
      "ecocloud_messages_lost_total", [msgs] { return msgs->replies_lost; },
      labels({{"type", "volunteer_reply"}}),
      "Messages dropped by the lossy control plane");
  registry_.counter_fn(
      "ecocloud_invitation_rounds_total",
      [msgs] { return msgs->invitation_rounds; }, labels({}),
      "Invitation rounds initiated by the manager");

  const core::BernoulliTally* fa = &controller.assignment().fa_tally();
  const core::BernoulliTally* fl = &controller.migration().fl_tally();
  const core::BernoulliTally* fh = &controller.migration().fh_tally();
  const std::string kTrials = "ecocloud_bernoulli_trials_total";
  const std::string kTrialsHelp =
      "Bernoulli trials per probability function, by outcome";
  registry_.counter_fn(
      kTrials, [fa] { return fa->accepts; },
      labels({{"function", "fa"}, {"outcome", "accept"}}), kTrialsHelp);
  registry_.counter_fn(
      kTrials, [fa] { return fa->rejects; },
      labels({{"function", "fa"}, {"outcome", "reject"}}), kTrialsHelp);
  registry_.counter_fn(
      kTrials, [fl] { return fl->accepts; },
      labels({{"function", "fl"}, {"outcome", "accept"}}), kTrialsHelp);
  registry_.counter_fn(
      kTrials, [fl] { return fl->rejects; },
      labels({{"function", "fl"}, {"outcome", "reject"}}), kTrialsHelp);
  registry_.counter_fn(
      kTrials, [fh] { return fh->accepts; },
      labels({{"function", "fh"}, {"outcome", "accept"}}), kTrialsHelp);
  registry_.counter_fn(
      kTrials, [fh] { return fh->rejects; },
      labels({{"function", "fh"}, {"outcome", "reject"}}), kTrialsHelp);

  // Chain the Events callbacks: forward to whoever was attached first,
  // then count / log / trace. Nothing below draws randomness or schedules
  // work, which is what keeps the event stream bit-identical.
  auto& events = controller.events();

  events.on_assignment = [this, prev = std::move(events.on_assignment)](
                             sim::SimTime t, dc::VmId vm, dc::ServerId s) {
    if (prev) prev(t, vm, s);
    ev_assignment_->inc();
    if (logger_.enabled(LogLevel::kTrace)) {
      logger_.trace("controller", "vm assigned",
                    {{"vm", gvm(vm)}, {"server", gsrv(s)}});
    }
  };

  events.on_assignment_failure =
      [this, prev = std::move(events.on_assignment_failure)](sim::SimTime t,
                                                             dc::VmId vm) {
        if (prev) prev(t, vm);
        ev_assignment_failure_->inc();
        if (logger_.enabled(LogLevel::kWarn)) {
          logger_.warn("controller", "assignment failed: data center saturated",
                       {{"vm", gvm(vm)}});
        }
      };

  events.on_migration_start = [this, prev = std::move(events.on_migration_start)](
                                  sim::SimTime t, dc::VmId vm, bool is_high) {
    if (prev) prev(t, vm, is_high);
    (is_high ? ev_migration_start_high_ : ev_migration_start_low_)->inc();
    if (trace_ != nullptr) migration_spans_[vm] = {t, is_high};
    if (logger_.enabled(LogLevel::kDebug)) {
      logger_.debug("controller", "migration started",
                    {{"vm", gvm(vm)}, {"high", is_high}});
    }
  };

  events.on_migration_complete =
      [this, prev = std::move(events.on_migration_complete)](
          sim::SimTime t, dc::VmId vm, bool is_high) {
        if (prev) prev(t, vm, is_high);
        (is_high ? ev_migration_complete_high_ : ev_migration_complete_low_)->inc();
        if (trace_ != nullptr) {
          const auto it = migration_spans_.find(vm);
          if (it != migration_spans_.end()) {
            trace_->complete("migration", "migration", it->second.since,
                             t - it->second.since,
                             pid(ChromeTraceWriter::kMigrationsPid),
                             static_cast<int>(gvm(vm)),
                             {{"kind", is_high ? "high" : "low"},
                              {"outcome", "complete"}});
            migration_spans_.erase(it);
          }
        }
        if (logger_.enabled(LogLevel::kDebug)) {
          logger_.debug("controller", "migration completed",
                        {{"vm", gvm(vm)}, {"high", is_high}});
        }
      };

  events.on_migration_aborted =
      [this, prev = std::move(events.on_migration_aborted)](
          sim::SimTime t, dc::VmId vm, bool is_high) {
        if (prev) prev(t, vm, is_high);
        ev_migration_aborted_->inc();
        if (trace_ != nullptr) {
          const auto it = migration_spans_.find(vm);
          if (it != migration_spans_.end()) {
            trace_->complete("migration", "migration", it->second.since,
                             t - it->second.since,
                             pid(ChromeTraceWriter::kMigrationsPid),
                             static_cast<int>(gvm(vm)),
                             {{"kind", is_high ? "high" : "low"},
                              {"outcome", "aborted"}});
            migration_spans_.erase(it);
          }
        }
        if (logger_.enabled(LogLevel::kWarn)) {
          logger_.warn("controller", "migration aborted",
                       {{"vm", gvm(vm)}, {"high", is_high}});
        }
      };

  events.on_wake = [this, prev = std::move(events.on_wake)](sim::SimTime t,
                                                            dc::ServerId s) {
    if (prev) prev(t, s);
    ev_wake_->inc();
    wake_sent_at_[s] = t;
    close_server_span(s, t);
    open_server_span(s, "booting", t);
    if (logger_.enabled(LogLevel::kInfo)) {
      logger_.info("controller", "wake command sent", {{"server", gsrv(s)}});
    }
  };

  events.on_activation = [this, prev = std::move(events.on_activation)](
                             sim::SimTime t, dc::ServerId s) {
    if (prev) prev(t, s);
    ev_activation_->inc();
    const auto it = wake_sent_at_.find(s);
    if (it != wake_sent_at_.end()) {
      wake_latency_->observe(t - it->second);
      wake_sent_at_.erase(it);
    }
    close_server_span(s, t);
    open_server_span(s, "active", t);
    if (logger_.enabled(LogLevel::kInfo)) {
      logger_.info("controller", "server activated", {{"server", gsrv(s)}});
    }
  };

  events.on_hibernation = [this, prev = std::move(events.on_hibernation)](
                              sim::SimTime t, dc::ServerId s) {
    if (prev) prev(t, s);
    ev_hibernation_->inc();
    close_server_span(s, t);
    open_server_span(s, "hibernated", t);
    if (logger_.enabled(LogLevel::kInfo)) {
      logger_.info("controller", "server hibernated", {{"server", gsrv(s)}});
    }
  };

  events.on_server_failed = [this, prev = std::move(events.on_server_failed)](
                                sim::SimTime t, dc::ServerId s) {
    if (prev) prev(t, s);
    ev_server_failed_->inc();
    wake_sent_at_.erase(s);  // a crash voids the pending wake measurement
    close_server_span(s, t);
    open_server_span(s, "failed", t);
    if (logger_.enabled(LogLevel::kWarn)) {
      logger_.warn("controller", "server crashed", {{"server", gsrv(s)}});
    }
  };

  events.on_server_repaired =
      [this, prev = std::move(events.on_server_repaired)](sim::SimTime t,
                                                          dc::ServerId s) {
        if (prev) prev(t, s);
        ev_server_repaired_->inc();
        close_server_span(s, t);
        open_server_span(s, "hibernated", t);
        if (logger_.enabled(LogLevel::kInfo)) {
          logger_.info("controller", "server repaired", {{"server", gsrv(s)}});
        }
      };

  events.on_vm_orphaned = [this, prev = std::move(events.on_vm_orphaned)](
                              sim::SimTime t, dc::VmId vm, dc::ServerId s) {
    if (prev) prev(t, vm, s);
    ev_vm_orphaned_->inc();
    if (trace_ != nullptr) {
      trace_->instant("vm orphaned", "fault", t,
                      pid(ChromeTraceWriter::kServersPid),
                      static_cast<int>(gsrv(s)),
                      {{"vm", static_cast<std::int64_t>(gvm(vm))}});
    }
    if (logger_.enabled(LogLevel::kWarn)) {
      logger_.warn("controller", "vm orphaned by crash",
                   {{"vm", gvm(vm)}, {"server", gsrv(s)}});
    }
  };
}

void Instrumentation::attach_faults(const faults::FaultInjector& injector) {
  const faults::FaultInjector* inj = &injector;
  registry_.gauge_fn(
      "ecocloud_redeploy_pending",
      [inj] { return static_cast<double>(inj->redeploy().pending()); },
      labels({}), "Orphaned VMs currently waiting in the redeploy queue");
  registry_.counter_fn(
      "ecocloud_redeploy_attempts_total",
      [inj] { return inj->redeploy().total_attempts(); }, labels({}),
      "Deploy attempts made for orphans (first tries and retries)");
  registry_.counter_fn(
      "ecocloud_redeploy_failed_attempts_total",
      [inj] { return inj->redeploy().failed_attempts(); }, labels({}),
      "Orphan deploy attempts that found the data center saturated");
  registry_.counter_fn(
      "ecocloud_faults_crashes_total", [inj] { return inj->stats().crashes(); },
      labels({}), "Injected server crashes");
  registry_.counter_fn(
      "ecocloud_faults_repairs_total", [inj] { return inj->stats().repairs(); },
      labels({}), "Completed server repairs");
  registry_.counter_fn(
      "ecocloud_faults_orphaned_vms_total",
      [inj] { return inj->stats().orphaned_vms(); }, labels({}),
      "VMs orphaned by crashes");
  registry_.counter_fn(
      "ecocloud_faults_redeployed_vms_total",
      [inj] { return inj->stats().redeployed_vms(); }, labels({}),
      "Orphans successfully redeployed");
  registry_.counter_fn(
      "ecocloud_faults_abandoned_vms_total",
      [inj] { return inj->stats().abandoned_vms(); }, labels({}),
      "Orphans abandoned after the retry budget");
  registry_.gauge_fn(
      "ecocloud_downtime_vm_seconds",
      [inj] { return inj->stats().downtime_vm_seconds(); }, labels({}),
      "Accumulated VM downtime attributed to faults");
}

void Instrumentation::flush_now(sim::SimTime now) {
  sample_trace_counters(now);
  logger_.flush();
}

void Instrumentation::finalize(sim::SimTime end) {
  if (finalized_) return;
  finalized_ = true;
  if (trace_ != nullptr) {
    for (auto& [server, span] : server_spans_) {
      trace_->complete(span.state, "server-state", span.since, end - span.since,
                       pid(ChromeTraceWriter::kServersPid),
                       static_cast<int>(gsrv(server)));
    }
    for (auto& [vm, span] : migration_spans_) {
      trace_->complete("migration", "migration", span.since, end - span.since,
                       pid(ChromeTraceWriter::kMigrationsPid),
                       static_cast<int>(gvm(vm)),
                       {{"kind", span.is_high ? "high" : "low"},
                        {"outcome", "unfinished"}});
    }
    sample_trace_counters(end);
  }
  server_spans_.clear();
  migration_spans_.clear();
  logger_.info("obs", "telemetry finalized",
               {{"metric_instances",
                 static_cast<std::uint64_t>(registry_.num_instances())},
                {"log_lines", logger_.lines_written()}});
  logger_.flush();
}

void Instrumentation::open_server_span(dc::ServerId server, const char* state,
                                       sim::SimTime at) {
  if (trace_ == nullptr) return;
  server_spans_[server] = {state, at};
}

void Instrumentation::close_server_span(dc::ServerId server, sim::SimTime at) {
  if (trace_ == nullptr) return;
  const auto it = server_spans_.find(server);
  if (it == server_spans_.end()) return;
  trace_->complete(it->second.state, "server-state", it->second.since,
                   at - it->second.since, pid(ChromeTraceWriter::kServersPid),
                   static_cast<int>(gsrv(server)));
  server_spans_.erase(it);
}

void Instrumentation::sample_trace_counters(sim::SimTime now) {
  if (trace_ == nullptr || dc_ == nullptr) return;
  trace_->counter(
      "servers", now, pid(ChromeTraceWriter::kCountersPid),
      {{"active", static_cast<std::int64_t>(dc_->active_server_count())},
       {"booting", static_cast<std::int64_t>(dc_->booting_server_count())},
       {"failed", static_cast<std::int64_t>(dc_->failed_server_count())}});
  trace_->counter("load", now, pid(ChromeTraceWriter::kCountersPid),
                  {{"overall_load", dc_->overall_load()}});
  trace_->counter("power_watts", now, pid(ChromeTraceWriter::kCountersPid),
                  {{"power_w", dc_->total_power_w()}});
  trace_->counter(
      "inflight_migrations", now, pid(ChromeTraceWriter::kCountersPid),
      {{"inflight", static_cast<std::int64_t>(dc_->inflight_migrations())}});
}

}  // namespace ecocloud::obs
