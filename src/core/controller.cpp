#include "ecocloud/core/controller.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "ecocloud/dc/monitor_kernel.hpp"
#include "ecocloud/util/snapshot.hpp"
#include "ecocloud/util/phase_profiler.hpp"
#include "ecocloud/util/validation.hpp"

namespace ecocloud::core {

EcoCloudController::EcoCloudController(sim::Simulator& simulator,
                                       dc::DataCenter& datacenter,
                                       EcoCloudParams params, util::Rng rng)
    : sim_(simulator),
      dc_(datacenter),
      params_(params),
      rng_(rng),
      assignment_(params_, rng_),
      migration_(params_, assignment_, rng_) {
  params_.validate();
  assignment_.set_message_log(&messages_);
}

void EcoCloudController::start() {
  util::ensure(!started_, "EcoCloudController::start called twice");
  started_ = true;
  if (!params_.enable_migrations) return;
  const auto n = dc_.num_servers();
  for (std::size_t s = 0; s < n; ++s) {
    // Stagger monitors so server checks are spread over a period, as truly
    // asynchronous per-server daemons would be.
    const sim::SimTime phase =
        params_.monitor_period_s * static_cast<double>(s) / static_cast<double>(n);
    const auto id = static_cast<dc::ServerId>(s);
    sim_.schedule_periodic(params_.monitor_period_s,
                           sim::EventTag{sim::tag_owner::kController, kEvMonitor, id, 0},
                           [this, id] { monitor_server(id); }, phase);
  }
}

void EcoCloudController::reset_counters() {
  low_migrations_ = 0;
  high_migrations_ = 0;
  assignment_failures_ = 0;
  wake_ups_ = 0;
  aborted_migrations_ = 0;
  interrupted_migrations_ = 0;
  boot_failures_ = 0;
  messages_.reset();
}

void EcoCloudController::set_fault_hooks(const FaultHooks* hooks) {
  faults_ = hooks;
  assignment_.set_fault_hooks(hooks);
}

void EcoCloudController::set_orphan_handler(std::function<void(dc::VmId)> handler) {
  orphan_handler_ = std::move(handler);
}

bool EcoCloudController::deploy_vm(dc::VmId vm) {
  const sim::SimTime now = sim_.now();
  const dc::Vm& machine = dc_.vm(vm);
  util::require(!machine.placed(), "deploy_vm: VM already placed");
  util::require(queued_on_.find(vm) == queued_on_.end(), "deploy_vm: VM already queued");

  // With a lossy control plane a silent round may just mean every reply
  // was dropped, so the manager repeats the invitation before concluding
  // the active set is saturated. One round is the paper's protocol.
  const std::size_t rounds =
      faults_ ? std::max<std::size_t>(std::size_t{1}, faults_->max_invite_rounds)
              : std::size_t{1};
  for (std::size_t round = 0; round < rounds; ++round) {
    // With a topology, the manager broadcasts to one random rack only
    // (footnote 1); otherwise to every active server.
    const std::vector<dc::ServerId>* subset =
        topology_ ? &topology_->servers_in_rack(rng_.index(topology_->num_racks()))
                  : nullptr;
    const AssignmentResult result =
        assignment_.invite(dc_, now, machine.demand_mhz, machine.ram_mb,
                           /*ta_override=*/-1.0, dc::kNoServer, subset);
    if (result.server) {
      dc_.place_vm(now, vm, *result.server);
      ++messages_.placement_commands;
      if (events_.on_assignment) events_.on_assignment(now, vm, *result.server);
      return true;
    }
  }

  // Every active server declined: the load is outgrowing the active set.
  // Prefer a server that is already booting; otherwise wake one.
  if (const auto booting = booting_with_room(dc_.vm(vm).demand_mhz)) {
    queue_vm(*booting, vm);
    return true;
  }

  if (auto woken = wake_one_server()) {
    queue_vm(*woken, vm);
    return true;
  }

  ++assignment_failures_;
  if (events_.on_assignment_failure) events_.on_assignment_failure(now, vm);
  return false;
}

std::optional<dc::ServerId> EcoCloudController::wake_one_server() {
  // A uniform pick needs no particular order. The compat sampler draws
  // from the sorted view (the original behavior, re-sorted lazily after
  // transitions); the fast sampler draws from the dense membership set
  // directly, skipping the O(n log n) re-sort a planet-scale fleet would
  // pay on almost every wake.
  const std::vector<dc::ServerId>& sleeping =
      params_.fast_sampler ? dc_.state_members(dc::ServerState::kHibernated)
                           : dc_.servers_with(dc::ServerState::kHibernated);
  if (sleeping.empty()) return std::nullopt;
  const dc::ServerId chosen = sleeping[rng_.index(sleeping.size())];
  const sim::SimTime now = sim_.now();
  dc_.start_booting(now, chosen);
  ++wake_ups_;
  ++messages_.wake_commands;
  if (events_.on_wake) events_.on_wake(now, chosen);
  BootQueue& queue = boot_queues_[chosen];
  queue.finish_at = now + params_.boot_time_s;
  queue.boot_attempts = 1;
  if (params_.fast_sampler) open_boot_insert(chosen);
  queue.boot_event = sim_.schedule_after(
      params_.boot_time_s,
      sim::EventTag{sim::tag_owner::kController, kEvBootDone, chosen, 0},
      [this, chosen] { on_boot_finished(chosen); });
  return chosen;
}

std::optional<dc::ServerId> EcoCloudController::booting_with_room(
    double demand_mhz) {
  if (params_.fast_sampler) {
    // Probe a few random open-boot entries instead of scanning every boot
    // queue. Closure keeps the registry mostly-fit, so the first probe
    // nearly always lands; when all probes miss, a deployment wakes another
    // server — at worst a slightly eager wake, never an over-commitment.
    for (std::size_t probe = 0;
         probe < kBootProbeCount && !open_boot_.empty(); ++probe) {
      const dc::ServerId sid = open_boot_[rng_.index(open_boot_.size())];
      const auto it = boot_queues_.find(sid);
      const dc::Server& server = dc_.server(sid);
      if (it == boot_queues_.end() || !server.booting()) continue;
      const double committed =
          it->second.queued_mhz + server.reserved_mhz() + demand_mhz;
      if (committed / server.capacity_mhz() <= params_.ta) return sid;
    }
    return std::nullopt;
  }
  for (const auto& [server_id, queue] : boot_queues_) {
    const dc::Server& server = dc_.server(server_id);
    if (!server.booting()) continue;
    // Count capacity reserved for inbound migrations too — otherwise a
    // server can be over-committed by queued deployments racing in-flight
    // migrations to the same target.
    const double committed = queue.queued_mhz + server.reserved_mhz() + demand_mhz;
    if (committed / server.capacity_mhz() <= params_.ta) return server_id;
  }
  return std::nullopt;
}

void EcoCloudController::queue_vm(dc::ServerId booting_server, dc::VmId vm) {
  BootQueue& queue = boot_queues_[booting_server];
  queue.vms.push_back(vm);
  queue.queued_mhz += dc_.vm(vm).demand_mhz;
  queued_on_[vm] = booting_server;
  if (params_.fast_sampler) open_boot_update(booting_server);
}

void EcoCloudController::on_boot_finished(dc::ServerId s) {
  util::ScopedPhase profile(util::Phase::kVmLifecycle);
  const sim::SimTime now = sim_.now();

  if (faults_ && faults_->boot_fails && faults_->boot_fails(s)) {
    ++boot_failures_;
    BootQueue& queue = boot_queues_[s];
    if (queue.boot_attempts <= faults_->max_boot_retries) {
      // Hung boot: the watchdog power-cycles the machine and tries again.
      // Inbound migrations cannot outwait the new deadline reliably, so
      // they are rolled back to their sources.
      ++queue.boot_attempts;
      queue.finish_at = now + params_.boot_time_s;
      queue.boot_event = sim_.schedule_after(
          params_.boot_time_s,
          sim::EventTag{sim::tag_owner::kController, kEvBootDone, s, 0},
          [this, s] { on_boot_finished(s); });
      rollback_migrations_touching(s);
      return;
    }
    // Out of retries: the server is dead. Its queued VMs fall back to the
    // assignment procedure, which wakes a *different* server if needed.
    const std::vector<dc::VmId> orphans = fail_server(s);
    if (!orphan_handler_) {
      for (dc::VmId vm : orphans) deploy_vm(vm);
    }
    return;
  }

  dc_.finish_booting(now, s);
  open_boot_erase(s);
  dc_.server_mutable(s).set_grace_until(now + params_.grace_period_s);
  if (events_.on_activation) events_.on_activation(now, s);

  auto it = boot_queues_.find(s);
  if (it != boot_queues_.end()) {
    const std::vector<dc::VmId> queued = std::move(it->second.vms);
    boot_queues_.erase(it);
    for (dc::VmId vm : queued) {
      queued_on_.erase(vm);
      dc_.place_vm(now, vm, s);
      ++messages_.placement_commands;
      if (events_.on_assignment) events_.on_assignment(now, vm, s);
    }
  }
  // A server woken for a single small VM may stay nearly empty; once its
  // grace expires the normal low-migration path will drain it if needed.
  if (dc_.server(s).empty()) schedule_hibernation_check(s);
}

void EcoCloudController::depart_vm(dc::VmId vm) {
  const sim::SimTime now = sim_.now();
  const dc::Vm& machine = dc_.vm(vm);
  if (events_.on_vm_departed) events_.on_vm_departed(now, vm);

  if (auto it = queued_on_.find(vm); it != queued_on_.end()) {
    const dc::ServerId booting_server = it->second;
    BootQueue& queue = boot_queues_[booting_server];
    queue.vms.erase(std::find(queue.vms.begin(), queue.vms.end(), vm));
    queue.queued_mhz -= machine.demand_mhz;
    queued_on_.erase(it);
    if (params_.fast_sampler) open_boot_update(booting_server);
    return;
  }

  if (machine.migrating()) {
    if (auto flight = inflight_.find(vm); flight != inflight_.end()) {
      flight->second.done.cancel();
      inflight_.erase(flight);
    }
    dc_.cancel_migration(now, vm);
  }
  if (machine.placed()) {
    const dc::ServerId host = machine.host;
    dc_.unplace_vm(now, vm);
    if (dc_.server(host).empty()) schedule_hibernation_check(host);
  }
}

void EcoCloudController::force_activate(dc::ServerId server, bool with_grace) {
  const sim::SimTime now = sim_.now();
  dc_.start_booting(now, server);
  dc_.finish_booting(now, server);
  if (with_grace) {
    dc_.server_mutable(server).set_grace_until(now + params_.grace_period_s);
  }
}

void EcoCloudController::refresh_monitor_row(dc::ServerId s) {
  // Scalar reference kernel for the single row — bit-identical to the
  // batch sweep by construction — then the same out-migration patch the
  // full rebuild applies.
  dc::monitor_classify_scalar(dc_.servers_soa(), s, s + 1, params_.tl,
                              params_.th, monitor_u_.data(),
                              monitor_cls_.data());
  const dc::Server server = dc_.server(s);
  if (server.migrating_out_count() != 0 &&
      monitor_cls_[s] != static_cast<std::uint8_t>(dc::MonitorClass::kSkip)) {
    const double u = MigrationProcedure::effective_utilization(dc_, server);
    monitor_u_[s] = u;
    monitor_cls_[s] = static_cast<std::uint8_t>(
        1u + (u < params_.tl ? 1u : 0u) + (u > params_.th ? 2u : 0u));
  }
}

void EcoCloudController::drain_monitor_journal() {
  const std::size_t n = dc_.num_servers();
  const bool full = dc_.monitor_all_dirty() || monitor_cls_.size() != n;
  if (!full && dc_.monitor_dirty_ids().empty()) return;
  util::ScopedPhase profile(util::Phase::kMonitorBatch);
  if (full) {
    const dc::ServerSoA& soa = dc_.servers_soa();
    monitor_u_.resize(n);
    monitor_cls_.resize(n);
    dc::monitor_classify(soa, 0, n, params_.tl, params_.th, monitor_u_.data(),
                         monitor_cls_.data());
    // The kernel's demand/capacity shortcut is exact except where VMs are
    // migrating out; patch those rows with the full evaluator (cheap:
    // out-migrations are rare and short-lived, and the scan below is a
    // straight read of one integer column).
    const std::uint32_t* out = soa.migrating_out_count.data();
    for (std::size_t s = 0; s < n; ++s) {
      if (out[s] != 0) refresh_monitor_row(static_cast<dc::ServerId>(s));
    }
  } else {
    for (dc::ServerId s : dc_.monitor_dirty_ids()) refresh_monitor_row(s);
  }
  dc_.clear_monitor_dirty();
}

void EcoCloudController::monitor_server(dc::ServerId s) {
  util::ScopedPhase profile(util::Phase::kMonitorSweep);
  drain_monitor_journal();
  // The cached class byte encodes exactly the RNG-free part of
  // MigrationProcedure::check: skip (!active || empty) and in-band ticks
  // return without drawing, so the Bernoulli stream only advances for the
  // same servers — in the same id order — as the per-server slow path did.
  const auto cls = static_cast<dc::MonitorClass>(monitor_cls_[s]);
  if (cls == dc::MonitorClass::kSkip || cls == dc::MonitorClass::kInBand) {
    return;
  }
  const sim::SimTime now = sim_.now();
  const dc::Server server = dc_.server(s);
  // Grace and cooldown windows are pure time comparisons; they are read
  // fresh here (never cached) so their setters need no journal hook.
  if (server.in_grace(now)) return;
  if (now < server.migration_cooldown_until()) return;
  const bool is_high = cls == dc::MonitorClass::kHigh;
  bool fired = false;
  auto plan = migration_.trial(dc_, s, now, monitor_u_[s], is_high, &fired);
  if (fired) {
    dc_.server_mutable(s).set_migration_cooldown_until(now +
                                                       params_.migration_cooldown_s);
  }
  if (plan) {
    execute_plan(*plan, s);
  } else if (fired && events_.on_migration_stranded) {
    // Trial fired but produced no plan: nothing movable, or no volunteer
    // for a low migration.
    events_.on_migration_stranded(now, s, is_high);
  }
}

void EcoCloudController::execute_plan(const MigrationPlan& first_plan,
                                      dc::ServerId source) {
  const sim::SimTime now = sim_.now();

  // Footnote-3 rechecks chain: each plan whose largest-VM migration does
  // not clear the threshold immediately runs another trial. The chain
  // length is bounded only by the number of hosted VMs, so it iterates
  // instead of recursing (a planet-scale server hosting thousands of VMs
  // must not grow the call stack per migrated VM).
  MigrationPlan plan = first_plan;
  for (;;) {
    if (plan.dest) {
      start_migration(plan.vm, *plan.dest, plan.is_high,
                      now + migration_duration(plan.vm, source, *plan.dest));
    } else if (plan.wake && plan.is_high) {
      // Prefer a server that is already booting (load ramps overload many
      // servers at once; one wake can absorb several sheddings). Otherwise
      // wake a fresh one. Either way the migration completes only after the
      // destination finished booting (+1 s keeps event order unambiguous).
      const dc::Vm& vm = dc_.vm(plan.vm);
      std::optional<dc::ServerId> dest = booting_with_room(vm.demand_mhz);
      if (!dest) {
        dest = wake_one_server();
        if (dest) {
          dc_.server_mutable(*dest).set_grace_until(now + params_.boot_time_s +
                                                    params_.grace_period_s);
        }
      }
      if (dest) {
        const sim::SimTime boot_done = boot_queues_[*dest].finish_at;
        const sim::SimTime complete_at = std::max(
            now + migration_duration(plan.vm, source, *dest), boot_done + 1.0);
        start_migration(plan.vm, *dest, plan.is_high, complete_at);
      } else if (events_.on_migration_stranded) {
        // With no hibernated server left the overload must be ridden out.
        events_.on_migration_stranded(now, source, /*is_high=*/true);
      }
    }

    if (!plan.recheck_suggested) return;
    // The recheck deliberately does not apply the migration cooldown: the
    // follow-up trial belongs to the same monitor tick.
    bool fired = false;
    auto next = migration_.check(dc_, source, now, &fired);
    if (!next) return;
    plan = *next;
  }
}

void EcoCloudController::set_topology(const net::Topology* topology) {
  if (topology) {
    util::require(topology->num_servers() >= dc_.num_servers(),
                  "set_topology: topology does not cover every server");
  }
  topology_ = topology;
  migration_.set_topology(topology);
}

sim::SimTime EcoCloudController::migration_duration(dc::VmId vm, dc::ServerId source,
                                                    dc::ServerId dest) const {
  sim::SimTime duration = params_.migration_latency_s;
  if (topology_) {
    duration += topology_->transfer_time_s(source, dest, dc_.vm(vm).ram_mb);
  }
  return duration;
}

void EcoCloudController::start_migration(dc::VmId vm, dc::ServerId dest, bool is_high,
                                         sim::SimTime complete_at) {
  const sim::SimTime now = sim_.now();
  dc_.begin_migration(now, vm, dest);
  ++messages_.migration_commands;
  if (events_.on_migration_start) events_.on_migration_start(now, vm, is_high);
  Inflight flight;
  flight.dest = dest;
  flight.is_high = is_high;
  flight.will_abort =
      faults_ && faults_->migration_aborts && faults_->migration_aborts(vm);
  flight.done = sim_.schedule_at(
      complete_at,
      sim::EventTag{sim::tag_owner::kController, kEvMigrationDone, vm, 0},
      [this, vm] { finish_migration(vm); });
  inflight_[vm] = std::move(flight);
}

void EcoCloudController::finish_migration(dc::VmId vm) {
  // The flight record disappears when the migration is rolled back; its
  // completion event is cancelled with it, so a missing entry means a
  // stale event that slipped through — ignore it.
  const auto it = inflight_.find(vm);
  if (it == inflight_.end()) return;
  const bool is_high = it->second.is_high;
  const bool will_abort = it->second.will_abort;
  inflight_.erase(it);

  const sim::SimTime now = sim_.now();
  if (will_abort) {
    dc_.cancel_migration(now, vm);
    ++aborted_migrations_;
    if (events_.on_migration_aborted) events_.on_migration_aborted(now, vm, is_high);
    return;
  }

  const dc::ServerId source = dc_.vm(vm).host;
  dc_.complete_migration(now, vm);
  if (is_high) {
    ++high_migrations_;
  } else {
    ++low_migrations_;
  }
  if (events_.on_migration_complete) events_.on_migration_complete(now, vm, is_high);
  if (dc_.server(source).empty()) schedule_hibernation_check(source);
}

void EcoCloudController::rollback_migration(dc::VmId vm, bool counts_as_interrupted) {
  const auto it = inflight_.find(vm);
  util::ensure(it != inflight_.end(), "rollback_migration: no such flight");
  const bool is_high = it->second.is_high;
  it->second.done.cancel();
  inflight_.erase(it);
  dc_.cancel_migration(sim_.now(), vm);
  if (counts_as_interrupted) {
    ++interrupted_migrations_;
  } else {
    ++aborted_migrations_;
  }
  if (events_.on_migration_aborted) {
    events_.on_migration_aborted(sim_.now(), vm, is_high);
  }
}

void EcoCloudController::rollback_migrations_touching(dc::ServerId server) {
  std::vector<dc::VmId> touching;
  for (const auto& [vm, flight] : inflight_) {
    if (flight.dest == server || dc_.vm(vm).host == server) touching.push_back(vm);
  }
  for (dc::VmId vm : touching) rollback_migration(vm, /*counts_as_interrupted=*/true);
}

std::vector<dc::VmId> EcoCloudController::fail_server(dc::ServerId server) {
  const sim::SimTime now = sim_.now();
  util::require(!dc_.server(server).failed(), "fail_server: server already failed");

  // Roll back in-flight migrations first: a VM headed here stays on its
  // source; a VM leaving here dies with the host and is re-deployed like
  // any other orphan.
  rollback_migrations_touching(server);

  // A booting server takes its queue down with it.
  std::vector<dc::VmId> orphans;
  if (auto it = boot_queues_.find(server); it != boot_queues_.end()) {
    it->second.boot_event.cancel();
    for (dc::VmId vm : it->second.vms) {
      queued_on_.erase(vm);
      orphans.push_back(vm);
    }
    boot_queues_.erase(it);
  }
  open_boot_erase(server);

  const std::vector<dc::VmId> hosted = dc_.fail_server(now, server);
  orphans.insert(orphans.end(), hosted.begin(), hosted.end());

  if (events_.on_server_failed) events_.on_server_failed(now, server);
  for (dc::VmId vm : orphans) {
    if (events_.on_vm_orphaned) events_.on_vm_orphaned(now, vm, server);
    if (orphan_handler_) orphan_handler_(vm);
  }
  return orphans;
}

void EcoCloudController::repair_server(dc::ServerId server) {
  const sim::SimTime now = sim_.now();
  dc_.repair_server(now, server);
  if (events_.on_server_repaired) events_.on_server_repaired(now, server);
}

void EcoCloudController::schedule_hibernation_check(dc::ServerId s) {
  sim_.schedule_after(
      params_.hibernate_delay_s,
      sim::EventTag{sim::tag_owner::kController, kEvHibernateCheck, s, 0},
      [this, s] { hibernation_check(s); });
}

void EcoCloudController::hibernation_check(dc::ServerId s) {
  const dc::Server& server = dc_.server(s);
  const sim::SimTime now = sim_.now();
  if (!server.active() || !server.empty()) return;
  if (server.reserved_mhz() > 0.0) {
    // An inbound migration is in flight; re-check once it should be done.
    schedule_hibernation_check(s);
    return;
  }
  if (server.in_grace(now)) {
    // Still in its post-boot grace window; try again once it expires.
    sim_.schedule_at(
        server.grace_until(),
        sim::EventTag{sim::tag_owner::kController, kEvGraceCheck, s, 0},
        [this, s] { grace_recheck(s); });
    return;
  }
  dc_.hibernate(now, s);
  if (events_.on_hibernation) events_.on_hibernation(now, s);
}

void EcoCloudController::grace_recheck(dc::ServerId s) {
  if (dc_.server(s).empty()) schedule_hibernation_check(s);
}

void EcoCloudController::open_boot_insert(dc::ServerId s) {
  if (open_boot_pos_.find(s) != open_boot_pos_.end()) return;
  open_boot_pos_[s] = static_cast<std::uint32_t>(open_boot_.size());
  open_boot_.push_back(s);
}

void EcoCloudController::open_boot_erase(dc::ServerId s) {
  const auto it = open_boot_pos_.find(s);
  if (it == open_boot_pos_.end()) return;
  const std::uint32_t pos = it->second;
  open_boot_[pos] = open_boot_.back();
  open_boot_pos_[open_boot_[pos]] = pos;
  open_boot_.pop_back();
  open_boot_pos_.erase(s);
}

void EcoCloudController::open_boot_update(dc::ServerId s) {
  const auto it = boot_queues_.find(s);
  const dc::Server& server = dc_.server(s);
  if (it == boot_queues_.end() || !server.booting()) {
    open_boot_erase(s);
    return;
  }
  const double committed = it->second.queued_mhz + server.reserved_mhz();
  if (committed / server.capacity_mhz() <= params_.ta) {
    open_boot_insert(s);
  } else {
    open_boot_erase(s);
  }
}

void EcoCloudController::save_state(util::BinWriter& w) const {
  util::save_rng(w, rng_);
  w.boolean(started_);
  w.u64(low_migrations_);
  w.u64(high_migrations_);
  w.u64(assignment_failures_);
  w.u64(wake_ups_);
  w.u64(aborted_migrations_);
  w.u64(interrupted_migrations_);
  w.u64(boot_failures_);
  w.u64(messages_.invitation_rounds);
  w.u64(messages_.invitations_sent);
  w.u64(messages_.volunteer_replies);
  w.u64(messages_.placement_commands);
  w.u64(messages_.wake_commands);
  w.u64(messages_.migration_commands);
  w.u64(messages_.invitations_lost);
  w.u64(messages_.replies_lost);
  const auto save_tally = [&w](const BernoulliTally& tally) {
    w.u64(tally.accepts);
    w.u64(tally.rejects);
  };
  save_tally(assignment_.fa_tally());
  save_tally(migration_.fl_tally());
  save_tally(migration_.fh_tally());
  util::save_unordered(
      w, boot_queues_,
      [](util::BinWriter& out, dc::ServerId server, const BootQueue& queue) {
        out.u64(server);
        out.u64(queue.vms.size());
        for (dc::VmId vm : queue.vms) out.u64(vm);
        out.f64(queue.queued_mhz);
        out.f64(queue.finish_at);
        out.u64(queue.boot_attempts);
        // boot_event is rebuilt by bind_event at calendar import.
      });
  util::save_unordered(w, queued_on_,
                       [](util::BinWriter& out, dc::VmId vm, dc::ServerId server) {
                         out.u64(vm);
                         out.u64(server);
                       });
  util::save_unordered(
      w, inflight_,
      [](util::BinWriter& out, dc::VmId vm, const Inflight& flight) {
        out.u64(vm);
        out.u64(flight.dest);
        out.boolean(flight.is_high);
        out.boolean(flight.will_abort);
        // flight.done is rebuilt by bind_event at calendar import.
      });
  // Open-boot registry in vector order: probes index into it, so the
  // order is behavior. Always empty in compat mode.
  w.u64(open_boot_.size());
  for (dc::ServerId s : open_boot_) w.u64(s);
}

void EcoCloudController::load_state(util::BinReader& r) {
  util::load_rng(r, rng_);
  started_ = r.boolean();
  low_migrations_ = r.u64();
  high_migrations_ = r.u64();
  assignment_failures_ = r.u64();
  wake_ups_ = r.u64();
  aborted_migrations_ = r.u64();
  interrupted_migrations_ = r.u64();
  boot_failures_ = r.u64();
  messages_.invitation_rounds = r.u64();
  messages_.invitations_sent = r.u64();
  messages_.volunteer_replies = r.u64();
  messages_.placement_commands = r.u64();
  messages_.wake_commands = r.u64();
  messages_.migration_commands = r.u64();
  messages_.invitations_lost = r.u64();
  messages_.replies_lost = r.u64();
  const auto load_tally = [&r] {
    BernoulliTally tally;
    tally.accepts = r.u64();
    tally.rejects = r.u64();
    return tally;
  };
  assignment_.restore_fa_tally(load_tally());
  const BernoulliTally fl = load_tally();
  const BernoulliTally fh = load_tally();
  migration_.restore_tallies(fl, fh);
  util::load_unordered(r, boot_queues_, [](util::BinReader& in) {
    const auto server = static_cast<dc::ServerId>(in.u64());
    BootQueue queue;
    const std::uint64_t n = in.u64();
    queue.vms.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      queue.vms.push_back(static_cast<dc::VmId>(in.u64()));
    }
    queue.queued_mhz = in.f64();
    queue.finish_at = in.f64();
    queue.boot_attempts = static_cast<std::size_t>(in.u64());
    return std::make_pair(server, std::move(queue));
  });
  util::load_unordered(r, queued_on_, [](util::BinReader& in) {
    const auto vm = static_cast<dc::VmId>(in.u64());
    const auto server = static_cast<dc::ServerId>(in.u64());
    return std::make_pair(vm, server);
  });
  util::load_unordered(r, inflight_, [](util::BinReader& in) {
    const auto vm = static_cast<dc::VmId>(in.u64());
    Inflight flight;
    flight.dest = static_cast<dc::ServerId>(in.u64());
    flight.is_high = in.boolean();
    flight.will_abort = in.boolean();
    return std::make_pair(vm, std::move(flight));
  });
  open_boot_.clear();
  open_boot_pos_.clear();
  const std::uint64_t n_open = r.u64();
  open_boot_.reserve(static_cast<std::size_t>(n_open));
  for (std::uint64_t i = 0; i < n_open; ++i) {
    const auto server = static_cast<dc::ServerId>(r.u64());
    open_boot_pos_[server] = static_cast<std::uint32_t>(i);
    open_boot_.push_back(server);
  }
}

sim::Simulator::Callback EcoCloudController::rebuild_event(
    const sim::EventTag& tag) {
  switch (tag.kind) {
    case kEvMonitor: {
      const auto s = static_cast<dc::ServerId>(tag.a);
      return [this, s] { monitor_server(s); };
    }
    case kEvBootDone: {
      const auto s = static_cast<dc::ServerId>(tag.a);
      return [this, s] { on_boot_finished(s); };
    }
    case kEvMigrationDone: {
      const auto vm = static_cast<dc::VmId>(tag.a);
      return [this, vm] { finish_migration(vm); };
    }
    case kEvHibernateCheck: {
      const auto s = static_cast<dc::ServerId>(tag.a);
      return [this, s] { hibernation_check(s); };
    }
    case kEvGraceCheck: {
      const auto s = static_cast<dc::ServerId>(tag.a);
      return [this, s] { grace_recheck(s); };
    }
    default:
      throw std::runtime_error(
          "EcoCloudController: snapshot contains an unknown event kind " +
          std::to_string(tag.kind));
  }
}

void EcoCloudController::bind_event(const sim::EventTag& tag,
                                    sim::EventHandle handle) {
  if (tag.kind == kEvBootDone) {
    const auto it = boot_queues_.find(static_cast<dc::ServerId>(tag.a));
    util::require(it != boot_queues_.end(),
                  "EcoCloudController: restored boot event has no boot queue");
    it->second.boot_event = handle;
  } else if (tag.kind == kEvMigrationDone) {
    const auto it = inflight_.find(static_cast<dc::VmId>(tag.a));
    util::require(it != inflight_.end(),
                  "EcoCloudController: restored migration event has no flight");
    it->second.done = handle;
  }
}

}  // namespace ecocloud::core
