#include "ecocloud/par/sharded_runner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>
#include <thread>
#include <utility>

#include "ecocloud/ckpt/auditor.hpp"
#include "ecocloud/ckpt/checkpoint.hpp"
#include "ecocloud/ckpt/snapshot_io.hpp"
#include "ecocloud/core/migration.hpp"
#include "ecocloud/metrics/event_log_binary.hpp"
#include "ecocloud/par/event_merge.hpp"
#include "ecocloud/util/exit_codes.hpp"
#include "ecocloud/util/rng.hpp"
#include "ecocloud/util/validation.hpp"

namespace ecocloud::par {

namespace {

/// Section-name prefix of shard \p k in a sharded snapshot: "s<k>.".
std::string shard_prefix(std::size_t k) {
  std::string prefix = "s";
  prefix += std::to_string(k);
  prefix += '.';
  return prefix;
}

}  // namespace

ShardedDailyRun::ShardedDailyRun(scenario::DailyConfig config, ParConfig par)
    : config_(std::move(config)),
      par_(std::move(par)),
      plan_(par_.shards, config_.fleet.num_servers, config_.num_vms),
      safe_points_(config_.run) {
  config_.params.validate();
  config_.faults.validate();
  util::require(par_.sync_interval_s > 0.0,
                "ShardedDailyRun: sync interval must be > 0");
  util::require(!config_.topology || par_.shards == 1,
                "ShardedDailyRun: rack topology needs a single shard "
                "(invitations would need cross-shard rack scoping)");

  // The traces are generated once from the bare seed — exactly as
  // DailyScenario does — so the workload is a function of the config
  // alone, not of K. Each shard owns the cursor bank of its trace rows
  // (DESIGN.md §17); the banks come from one pass over the same stream,
  // so the demand samples are bit-identical to a single bank's.
  util::Rng rng(config_.seed);
  std::vector<trace::StreamingTraces> banks =
      trace::StreamingTraces::generate_partitioned(
          trace::WorkloadModel(config_.workload), config_.num_vms,
          scenario::trace_steps(config_.horizon_s, config_.workload), rng,
          par_.shards);
  shards_.reserve(par_.shards);
  for (std::size_t k = 0; k < par_.shards; ++k) {
    shards_.push_back(
        std::make_unique<Shard>(config_, plan_, k, std::move(banks[k])));
  }
  const std::size_t threads =
      par_.threads != 0
          ? par_.threads
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t workers = std::min(threads, par_.shards);
  if (workers > 1) pool_ = std::make_unique<util::ThreadPool>(workers);
}

ShardedDailyRun::~ShardedDailyRun() = default;

void ShardedDailyRun::ensure_managers() {
  if (!managers_.empty()) return;
  managers_.reserve(shards_.size());
  for (auto& shard : shards_) {
    auto manager = std::make_unique<ckpt::CheckpointManager>(shard->simulator());
    shard->register_checkpoint(*manager);
    managers_.push_back(std::move(manager));
  }
}

std::string ShardedDailyRun::config_digest() const {
  std::string digest = scenario::daily_config_digest(config_, "eco");
  digest += " shards=" + std::to_string(plan_.num_shards());
  char buf[48];
  std::snprintf(buf, sizeof(buf), " sync=%.17g", par_.sync_interval_s);
  digest += buf;
  return digest;
}

void ShardedDailyRun::set_profiler(util::PhaseProfiler* profiler) {
  if (profiler != nullptr) {
    util::require(profiler->num_domains() == shards_.size() + 1,
                  "ShardedDailyRun::set_profiler: expected K+1 domains");
    for (std::size_t k = 0; k < shards_.size(); ++k) {
      profiler->set_domain_name(k, "shard" + std::to_string(k));
    }
    profiler->set_domain_name(shards_.size(), "coordinator");
  }
  profiler_ = profiler;
}

void ShardedDailyRun::save_snapshot(const std::string& path) {
  util::ScopedPhase profile(util::Phase::kCheckpointWrite);
  const std::uint64_t t0 = util::monotonic_ns();
  ensure_managers();
  ckpt::Snapshot snapshot;
  ckpt::add_config_digest(snapshot, config_digest());
  {
    // Coordinator state. Snapshots are written after barrier_handoff, so
    // the wish queue is empty by construction; what remains is the epoch
    // clock and the cross-shard accounting.
    util::BinWriter w;
    w.f64(t_);
    w.f64(safe_points_.checkpoint_every_s());
    w.u64(stats_.barriers);
    w.u64(stats_.stranded_wishes);
    w.u64(stats_.handoff_attempts);
    w.u64(stats_.cross_shard_migrations);
    w.u64(cross_low_);
    w.u64(cross_high_);
    coordinator_log_.save_state(w);
    snapshot.add("coordinator", w.take());
  }
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    managers_[k]->collect(snapshot, shard_prefix(k));
  }
  ckpt::write_snapshot_file(snapshot, path);
  ++stats_.checkpoints_written;
  stats_.snapshot_bytes_last = 0;
  for (const ckpt::SnapshotSection& section : snapshot.sections) {
    stats_.snapshot_bytes_last += section.payload.size();
  }
  stats_.save_wall_seconds_last =
      static_cast<double>(util::monotonic_ns() - t0) * 1e-9;
  stats_.save_wall_seconds_total += stats_.save_wall_seconds_last;
  if (on_checkpoint) on_checkpoint(path);
}

void ShardedDailyRun::restore_snapshot(const std::string& path) {
  util::require(!ran_, "ShardedDailyRun: restore_snapshot after run");
  util::require(!resumed_, "ShardedDailyRun: restore_snapshot called twice");
  ensure_managers();
  const ckpt::Snapshot snapshot = ckpt::read_snapshot_file(path);
  ckpt::require_config_digest(snapshot, config_digest(), path);

  const ckpt::SnapshotSection* coord = snapshot.find("coordinator");
  if (coord == nullptr) {
    throw ckpt::SnapshotError("snapshot: '" + path +
                              "' has no coordinator section");
  }
  try {
    util::BinReader r(coord->payload);
    t_ = r.f64();
    safe_points_.restore_cadence(r.f64());
    stats_.barriers = r.u64();
    stats_.stranded_wishes = r.u64();
    stats_.handoff_attempts = r.u64();
    stats_.cross_shard_migrations = r.u64();
    cross_low_ = r.u64();
    cross_high_ = r.u64();
    coordinator_log_.load_state(r);
    r.expect_exhausted("coordinator");
  } catch (const std::exception& error) {
    throw ckpt::SnapshotError("snapshot: '" + path +
                              "' section 'coordinator' failed to load: " +
                              error.what());
  }

  std::size_t expected = 2;  // meta + coordinator
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    managers_[k]->restore_from(snapshot, shard_prefix(k), path);
    expected += managers_[k]->num_sections() + 1;  // sections + engine
  }
  if (snapshot.sections.size() != expected) {
    throw ckpt::SnapshotError(
        "snapshot: '" + path + "' has " +
        std::to_string(snapshot.sections.size()) + " sections, expected " +
        std::to_string(expected) +
        " — the resumed run must enable the same subsystems (faults) and "
        "shard count as the run that wrote the snapshot");
  }
  // Banks carry no snapshot sections: they were regenerated at step 0 by
  // the constructor and will fast-forward deterministically on the first
  // tick. What the fresh banks lack is the rows handed off across shards
  // before the snapshot — re-adopt every mapped row that lives away from
  // its owner bank (order-independent: adoption copies owner-bank state
  // and draws nothing).
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    for (const auto& [vm, row] : shards_[k]->trace_driver().mapped_vms()) {
      (void)vm;
      const std::size_t home = plan_.shard_of_trace(row);
      if (home != k) shards_[k]->adopt_trace_row(row, *shards_[home]);
    }
  }
  resumed_ = true;
}

void ShardedDailyRun::run() {
  util::ensure(!ran_, "ShardedDailyRun::run called twice");
  ran_ = true;
  const std::size_t K = shards_.size();

  // Operability wiring from config_.run. All of it is barrier-driven —
  // none of it schedules calendar events — so enabling checkpoints,
  // audits, or the watchdog never perturbs the simulated trajectory.
  const scenario::RunControl& rc = config_.run;
  if (safe_points_.checkpointing()) ensure_managers();
  if (rc.audit_every_s > 0.0) {
    // Handed-off VMs are departed (unowned) on their source shard, so
    // strict ownership only holds for K=1.
    const ckpt::AuditorConfig ac{
        .action = ckpt::parse_audit_action(rc.audit_action),
        .tolerance = rc.audit_tolerance,
        .strict_vm_accounting = rc.audit_strict && K == 1};
    auditors_.reserve(K);
    for (auto& shard : shards_) {
      auto auditor = std::make_unique<ckpt::RuntimeAuditor>(
          shard->simulator(), shard->datacenter(), ac);
      auditor->attach_controller(&shard->controller());
      if (shard->fault_injector() != nullptr) {
        auditor->attach_redeploy(&shard->fault_injector()->redeploy());
      }
      auditors_.push_back(std::move(auditor));
    }
    last_energy_.assign(K, 0.0);
  }

  if (!resumed_) {
    // DailyScenario::start, spread over the shards.
    for (auto& shard : shards_) shard->scenario().start_faults();

    // t=0 deployment wave, in global trace order. A VM refused by its
    // owner shard (saturation) is retried on the remaining shards in
    // order; with K=1 there is nobody to retry on and the behavior is
    // DailyScenario's.
    {
      util::ScopedPhase profile(util::Phase::kVmLifecycle);
      for (std::size_t i = 0; i < plan_.num_traces(); ++i) {
        const std::size_t owner = plan_.shard_of_trace(i);
        if (shards_[owner]->deploy(i) || K == 1) continue;
        shards_[owner]->abandon_last_deploy();
        for (std::size_t off = 1; off < K; ++off) {
          Shard& next = *shards_[(owner + off) % K];
          // Banks hold only their owner's rows: the retry shard adopts a
          // copy of the cursor (all banks sit at step 0 here) before it
          // can price and drive the VM.
          next.adopt_trace_row(i, *shards_[owner]);
          if (next.deploy(i)) break;
          next.abandon_last_deploy();
        }
      }
    }

    for (auto& shard : shards_) shard->scenario().start_services();
  }

  safe_points_.begin(t_);

  // Epoch loop. Barrier times are multiples of the sync interval clipped
  // to the warmup boundary and the horizon, so the accounting reset
  // (DailyScenario::run_slice, at the end of the epoch that reaches
  // warmup) and the final settle happen at exactly the single-threaded
  // times. On a resumed run t_ starts at the snapshot's barrier and the
  // loop simply continues.
  const sim::SimTime horizon = config_.horizon_s;
  const sim::SimTime warmup = config_.warmup_s;
  last_epoch_wall_s_.assign(K, 0.0);
  last_barrier_lag_s_.assign(K, 0.0);
  // Coordinator-side samples (hand-off, checkpoints, barrier lag) go to
  // the profiler's extra domain; without a profiler this re-installs the
  // thread's current domain, a no-op.
  util::DomainScope coordinator_scope(
      profiler_ != nullptr ? &profiler_->domain(K) : util::current_domain());
  // Each worker writes only its own shard's slot; the pool join makes the
  // writes visible to the coordinator before it reads them.
  const auto run_shard_epoch = [&](std::size_t k, sim::SimTime until) {
    util::DomainScope scope(profiler_ != nullptr ? &profiler_->domain(k)
                                                 : util::current_domain());
    const std::uint64_t t0 = util::monotonic_ns();
    shards_[k]->scenario().run_slice(until);
    last_epoch_wall_s_[k] =
        static_cast<double>(util::monotonic_ns() - t0) * 1e-9;
  };
  while (t_ < horizon) {
    sim::SimTime next = t_ + par_.sync_interval_s;
    if (warmup > t_) next = std::min(next, warmup);
    next = std::min(next, horizon);

    if (par_.epoch_order) {
      const std::vector<std::size_t> order =
          par_.epoch_order(stats_.barriers, K);
      util::require(order.size() == K,
                    "ShardedDailyRun: epoch_order must return a permutation "
                    "of the shard indices");
      std::vector<std::uint8_t> seen(K, 0);
      for (std::size_t k : order) {
        util::require(k < K && seen[k] == 0,
                      "ShardedDailyRun: epoch_order must return a "
                      "permutation of the shard indices");
        seen[k] = 1;
        run_shard_epoch(k, next);
      }
    } else if (pool_) {
      pool_->parallel_for(0, K,
                          [&](std::size_t k) { run_shard_epoch(k, next); });
    } else {
      for (std::size_t k = 0; k < K; ++k) run_shard_epoch(k, next);
    }
    const double slowest = *std::max_element(last_epoch_wall_s_.begin(),
                                             last_epoch_wall_s_.end());
    for (std::size_t k = 0; k < K; ++k) {
      last_barrier_lag_s_[k] = slowest - last_epoch_wall_s_[k];
      if (profiler_ != nullptr) {
        // Attributed to the shard that sat idle, not to the coordinator.
        profiler_->domain(k).add(
            util::Phase::kBarrierWait,
            static_cast<std::uint64_t>(last_barrier_lag_s_[k] * 1e9));
      }
    }

    // This epoch's run_slice reset the shards' energy integrals, so the
    // monotonicity audit starts over too.
    if (t_ < warmup && next >= warmup) {
      last_energy_.assign(last_energy_.size(), 0.0);
    }
    {
      util::ScopedPhase profile(util::Phase::kHandoff);
      barrier_handoff(next);
    }
    ++stats_.barriers;
    t_ = next;
    at_barrier();
  }
  safe_points_.end();
  for (auto& shard : shards_) shard->scenario().finish();

  for (auto& shard : shards_) {
    stats_.executed_events += shard->simulator().executed_events();
    const dc::DataCenter& sdc = shard->datacenter();
    stats_.migrations += sdc.total_migrations();
    stats_.activations += sdc.total_activations();
    stats_.hibernations += sdc.total_hibernations();
    stats_.energy_joules += sdc.energy_joules();
    const core::EcoCloudController& eco = shard->controller();
    stats_.low_migrations += eco.low_migrations();
    stats_.high_migrations += eco.high_migrations();
    stats_.wake_ups += eco.wake_ups();
    stats_.assignment_failures += eco.assignment_failures();
  }
  stats_.migrations += stats_.cross_shard_migrations;
  stats_.low_migrations += cross_low_;
  stats_.high_migrations += cross_high_;
}

void ShardedDailyRun::barrier_handoff(sim::SimTime now) {
  // Serial and in shard order: the ONLY place where shards interact, and
  // the order never depends on thread scheduling.
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    const std::vector<MigrationWish> wishes = shards_[k]->take_wishes();
    stats_.stranded_wishes += wishes.size();
    if (shards_.size() == 1) continue;  // nowhere to hand off
    for (const MigrationWish& wish : wishes) resolve_wish(k, wish, now);
  }
}

void ShardedDailyRun::resolve_wish(std::size_t source_shard,
                                   const MigrationWish& wish,
                                   sim::SimTime now) {
  Shard& src = *shards_[source_shard];
  const dc::DataCenter& sdc = src.datacenter();
  const dc::Server& server = sdc.server(wish.server);
  if (!server.active() || server.empty()) return;

  // Re-validate against the band: the epoch may have resolved the excess
  // (or the deficit) locally since the wish was recorded.
  const core::EcoCloudParams& p = config_.params;
  const double u_eff =
      core::MigrationProcedure::effective_utilization(sdc, server);
  const bool is_high = u_eff > p.th;
  if (!is_high && u_eff >= p.tl) return;
  ++stats_.handoff_attempts;

  // VM selection mirrors MigrationProcedure's rules (share > u - Th for
  // high, any movable VM for low) but replaces the uniform draw with a
  // (demand, id) order: the coordinator must not consume any shard's RNG,
  // or a K=1 run would diverge from the single-threaded engine.
  dc::VmId pick = dc::kNoVm;
  if (is_high) {
    const double share_needed = u_eff - p.th;
    dc::VmId smallest_fit = dc::kNoVm;
    double smallest_fit_demand = std::numeric_limits<double>::infinity();
    dc::VmId largest = dc::kNoVm;
    double largest_demand = -1.0;
    for (dc::VmId v : server.vms()) {
      const dc::Vm& vm = sdc.vm(v);
      if (vm.migrating()) continue;
      const double share = vm.demand_mhz / server.capacity_mhz();
      if (share > share_needed &&
          (vm.demand_mhz < smallest_fit_demand ||
           (vm.demand_mhz == smallest_fit_demand && v < smallest_fit))) {
        smallest_fit = v;
        smallest_fit_demand = vm.demand_mhz;
      }
      if (vm.demand_mhz > largest_demand ||
          (vm.demand_mhz == largest_demand && v < largest)) {
        largest = v;
        largest_demand = vm.demand_mhz;
      }
    }
    // Smallest sufficient shedding, else the largest VM (footnote 3).
    pick = smallest_fit != dc::kNoVm ? smallest_fit : largest;
  } else {
    double smallest_demand = std::numeric_limits<double>::infinity();
    for (dc::VmId v : server.vms()) {
      const dc::Vm& vm = sdc.vm(v);
      if (vm.migrating()) continue;
      if (vm.demand_mhz < smallest_demand ||
          (vm.demand_mhz == smallest_demand && v < pick)) {
        pick = v;
        smallest_demand = vm.demand_mhz;
      }
    }
  }
  if (pick == dc::kNoVm) return;  // everything is already leaving

  const double demand_mhz = sdc.vm(pick).demand_mhz;
  const double ram_mb = sdc.vm(pick).ram_mb;
  const double ta_override =
      is_high ? std::min(1.0, p.high_dest_factor * server.utilization()) : -1.0;

  // Destination search over the OTHER shards, starting after the source
  // and wrapping: each destination shard answers with its own invitation
  // round (its controller's RNG — drawn serially, so deterministic).
  for (std::size_t off = 1; off < shards_.size(); ++off) {
    const std::size_t d = (source_shard + off) % shards_.size();
    const std::optional<dc::ServerId> dest =
        shards_[d]->invite(now, demand_mhz, ram_mb, ta_override);
    if (!dest) continue;

    const std::size_t row = src.trace_of(pick);
    // Copy the row's cursor from its OWNER bank (not necessarily the
    // source shard: the VM may be on its second hand-off, but the owner's
    // copy is identical — a row's state is a pure function of its captured
    // cursor and the step, and every bank sits at this barrier's step).
    // Draws no RNG.
    shards_[d]->adopt_trace_row(row, *shards_[plan_.shard_of_trace(row)]);
    src.release_vm(pick);
    shards_[d]->accept_transfer(now, row, *dest);

    ++stats_.cross_shard_migrations;
    ++(is_high ? cross_high_ : cross_low_);
    const auto global_vm = static_cast<dc::VmId>(row);
    coordinator_log_.record(metrics::Event{
        now, metrics::EventKind::kMigrationStart, global_vm, dc::kNoServer,
        is_high});
    coordinator_log_.record(metrics::Event{
        now, metrics::EventKind::kMigrationComplete, global_vm, dc::kNoServer,
        is_high});
    return;
  }
}

std::vector<metrics::Sample> ShardedDailyRun::merged_samples() const {
  // K=1: hand back shard 0's samples verbatim — no re-derivation, so the
  // bytes a CSV writer produces match the single-threaded run exactly.
  if (shards_.size() == 1) return shards_[0]->collector().samples();

  const std::size_t n = shards_[0]->collector().samples().size();
  for (const auto& shard : shards_) {
    util::ensure(shard->collector().samples().size() == n,
                 "ShardedDailyRun: shards sampled different window counts");
  }
  std::vector<metrics::Sample> merged(n);
  for (std::size_t i = 0; i < n; ++i) {
    metrics::Sample& m = merged[i];
    m.time = shards_[0]->collector().samples()[i].time;
    double capacity = 0.0;
    double demand = 0.0;
    for (const auto& shard : shards_) {
      const metrics::Sample& s = shard->collector().samples()[i];
      m.active_servers += s.active_servers;
      m.booting_servers += s.booting_servers;
      m.power_w += s.power_w;
      m.window_energy_j += s.window_energy_j;
      m.window_vm_seconds += s.window_vm_seconds;
      m.window_overload_vm_seconds += s.window_overload_vm_seconds;
      const double cap = shard->datacenter().total_capacity_mhz();
      capacity += cap;
      demand += s.overall_load * cap;
    }
    // Capacity-weighted mean == global demand / global capacity, the
    // single-datacenter definition of overall_load.
    m.overall_load = capacity > 0.0 ? demand / capacity : 0.0;
    m.overload_percent =
        m.window_vm_seconds > 0.0
            ? 100.0 * m.window_overload_vm_seconds / m.window_vm_seconds
            : 0.0;
  }
  return merged;
}

void ShardedDailyRun::at_barrier() {
  std::uint64_t executed = 0;
  for (const auto& shard : shards_) {
    executed += shard->simulator().executed_events();
  }
  safe_points_.visit(t_, executed, [this] { run_audits(); },
                     [this] { save_snapshot(config_.run.checkpoint_out); });
  if (on_barrier) on_barrier(t_);
}

void ShardedDailyRun::run_audits() {
  ++stats_.audits_run;
  // Per-shard invariants first (calendar integrity, fleet accounting, VM
  // ownership vs controller/redeploy tracking) — each shard's auditor
  // applies the configured action itself (log/heal/abort).
  stats_.audit_heals = 0;
  for (auto& auditor : auditors_) {
    if (!auditor->run_audit().empty()) ++stats_.audit_failures;
    stats_.audit_heals += auditor->stats().heals_applied;
  }
  // Then the invariants no single shard can see.
  const std::vector<std::string> cross = cross_shard_failures();
  if (cross.empty()) return;
  stats_.audit_failures += cross.size();
  std::fprintf(stderr, "[audit] t=%.3f: %zu cross-shard violation(s):\n", t_,
               cross.size());
  for (const std::string& failure : cross) {
    std::fprintf(stderr, "[audit]   %s\n", failure.c_str());
  }
  // kHeal has no cross-shard remedy (nothing cacheable spans shards), so
  // it degrades to logging; abort keeps its distinct exit code.
  if (ckpt::parse_audit_action(config_.run.audit_action) ==
      ckpt::AuditAction::kAbort) {
    std::fprintf(stderr, "[audit] aborting (action=abort)\n");
    std::_Exit(util::exit_code::kAuditViolation);
  }
}

std::vector<std::string> ShardedDailyRun::cross_shard_failures() {
  std::vector<std::string> failures;

  // Every global trace row must be driven by at most one shard: a row
  // driven twice means a cross-shard hand-off duplicated a VM instead of
  // moving it.
  std::vector<std::uint8_t> driven(plan_.num_traces(), 0);
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    const Shard& shard = *shards_[k];
    for (const auto& [vm, row] : shard.trace_driver().mapped_vms()) {
      (void)vm;
      if (driven[row]++ != 0) {
        failures.push_back("trace row " + std::to_string(row) +
                           " is driven by more than one shard (duplicate VM "
                           "after hand-off; last seen on shard " +
                           std::to_string(k) + ")");
      }
    }
  }

  // Fleet capacity conservation: the shards must partition the configured
  // fleet exactly — capacity can neither appear nor vanish at hand-offs.
  double capacity = 0.0;
  for (const auto& shard : shards_) {
    capacity += shard->datacenter().total_capacity_mhz();
  }
  double expected = 0.0;
  const scenario::FleetConfig& fleet = config_.fleet;
  for (std::size_t i = 0; i < fleet.num_servers; ++i) {
    expected += static_cast<double>(fleet.core_mix[i % fleet.core_mix.size()]) *
                fleet.core_mhz;
  }
  if (std::abs(capacity - expected) >
      config_.run.audit_tolerance * expected) {
    failures.push_back("fleet capacity is " + std::to_string(capacity) +
                       " MHz across shards, expected " +
                       std::to_string(expected) + " MHz from the config");
  }

  // Energy conservation: each shard's cumulative energy integral must be
  // non-decreasing between barriers (it only resets at the warmup
  // boundary, where last_energy_ is cleared too).
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    const double energy = shards_[k]->datacenter().energy_joules();
    if (energy < last_energy_[k]) {
      failures.push_back("shard " + std::to_string(k) +
                         " energy integral went backwards: " +
                         std::to_string(last_energy_[k]) + " J -> " +
                         std::to_string(energy) + " J");
    }
    last_energy_[k] = energy;
  }
  return failures;
}

void ShardedDailyRun::merge_events(const EventSink& sink) const {
  // (K+1)-way merge over per-shard segments (each already time-ordered)
  // plus the coordinator's cross-shard rows, keyed by (time, stream) with
  // the coordinator last, with local ids translated to global — K=1
  // reproduces a single-threaded run's stream exactly.
  std::vector<EventStream> streams;
  streams.reserve(shards_.size() + 1);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard* shard = shards_[s].get();
    streams.push_back(EventStream{
        &shard->event_log().events(), [this, shard, s](const metrics::Event& raw) {
          metrics::Event e = raw;
          if (e.vm != dc::kNoVm) {
            e.vm = static_cast<dc::VmId>(shard->trace_of(e.vm));
          }
          if (e.server != dc::kNoServer) {
            e.server = plan_.global_server(s, e.server);
          }
          return e;
        }});
  }
  streams.push_back(EventStream{&coordinator_log_.events(), {}});
  merge_event_streams(streams, sink);
}

std::size_t ShardedDailyRun::write_events_csv(std::ostream& out) const {
  std::vector<metrics::Event> rows;
  merge_events([&rows](const metrics::Event& e) { rows.push_back(e); });
  metrics::write_events_csv(out, rows);
  return rows.size();
}

std::size_t ShardedDailyRun::write_events_binary(std::ostream& out) const {
  metrics::BinaryEventWriter writer(out);
  merge_events([&writer](const metrics::Event& e) { writer.write(e); });
  return writer.written();
}

}  // namespace ecocloud::par
