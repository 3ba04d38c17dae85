#include "ecocloud/par/shard.hpp"

#include "ecocloud/ckpt/checkpoint.hpp"
#include "ecocloud/util/rng.hpp"
#include "ecocloud/util/validation.hpp"

namespace ecocloud::par {

namespace {

/// Seed derivation for shard k: XOR with k spread over the full 64 bits
/// (multiples of the golden-ratio increment, as in splitmix64). Shard 0's
/// term is zero, so its stream is exactly the single-threaded engine's.
std::uint64_t shard_seed(std::uint64_t seed, std::size_t shard_id) {
  return seed ^ (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(shard_id));
}

/// Restrict a global fault schedule to the servers shard \p id owns and
/// rewrite the ranges into local ids. Entries whose [first, last] range
/// contains no server of this shard are dropped, so every scripted crash
/// fires on exactly one shard and a K=1 schedule is unchanged.
faults::FaultParams localize_faults(const faults::FaultParams& global,
                                    const ShardPlan& plan, std::size_t id) {
  faults::FaultParams local = global;
  local.schedule.clear();
  const auto k = static_cast<dc::ServerId>(plan.num_shards());
  const auto self = static_cast<dc::ServerId>(id);
  for (faults::ScriptedFault fault : global.schedule) {
    // Smallest/largest global server in [first, last] congruent to id
    // modulo K; empty intersections are skipped.
    const dc::ServerId g0 =
        fault.first + ((self + k - fault.first % k) % k);
    if (g0 > fault.last) continue;
    const dc::ServerId g1 = fault.last - ((fault.last % k + k - self) % k);
    fault.first = g0 / k;
    fault.last = g1 / k;
    local.schedule.push_back(fault);
  }
  return local;
}

}  // namespace

Shard::Shard(const scenario::DailyConfig& config, const ShardPlan& plan,
             std::size_t shard_id, trace::StreamingTraces bank)
    : plan_(plan), id_(shard_id), bank_(std::move(bank)) {
  // Mirror DailyScenario's construction exactly (scenario.cpp): fleet,
  // trace driver, controller from Rng(seed).split(1) and its racks,
  // collector, log. Any divergence here breaks the K=1 bit-identity pin.
  dc_ = std::make_unique<dc::DataCenter>();
  const scenario::FleetConfig& fleet = config.fleet;
  util::require(!fleet.core_mix.empty(), "Shard: empty core mix");
  const std::size_t locals = plan_.servers_in(id_);
  for (std::size_t l = 0; l < locals; ++l) {
    // The class mix follows the *global* index, so every shard inherits
    // the fleet's 4/6/8-core round-robin proportions.
    const auto global = static_cast<std::size_t>(
        plan_.global_server(id_, static_cast<dc::ServerId>(l)));
    const unsigned cores = fleet.core_mix[global % fleet.core_mix.size()];
    dc_->add_server(cores, fleet.core_mhz,
                    fleet.ram_per_core_mb * static_cast<double>(cores));
  }

  trace_driver_ = std::make_unique<core::TraceDriver>(sim_, *dc_, bank_);

  util::Rng rng(shard_seed(config.seed, id_));
  eco_ = std::make_unique<core::EcoCloudController>(sim_, *dc_, config.params,
                                                    rng.split(1));
  if (config.topology) {
    // Only a one-shard run has racks (ShardedDailyRun refuses them for
    // K > 1), so this shard's fleet is the whole fleet and invitations
    // never cross a shard.
    topology_ =
        std::make_unique<net::Topology>(dc_->num_servers(), *config.topology);
    eco_->set_topology(topology_.get());
  }

  collector_ = std::make_unique<metrics::MetricsCollector>(sim_, *dc_);
  collector_->attach(*eco_);
  log_ = std::make_unique<metrics::EventLog>();
  log_->attach(*eco_);

  if (config.faults.enabled()) {
    // Stream 7 mirrors DailyScenario: fault draws stay out of the
    // controller stream (split 1), and shard 0's stream is exactly the
    // single-threaded injector's. Every shard gets an injector even when
    // its localized schedule is empty, so the stochastic processes and
    // snapshot section layout are uniform across shards.
    injector_ = std::make_unique<faults::FaultInjector>(
        sim_, *dc_, *eco_, localize_faults(config.faults, plan_, id_),
        rng.split(7));
  }

  wished_.assign(locals, 0);
  eco_->events().on_migration_stranded = [this](sim::SimTime t,
                                                dc::ServerId server,
                                                bool is_high) {
    // Record-only: no RNG draw, no state change, so single-threaded
    // behavior is untouched whether or not anyone drains the wishes.
    if (wished_[server]) return;
    wished_[server] = 1;
    wishes_.push_back(MigrationWish{t, server, is_high});
  };
}

void Shard::adopt_trace_row(std::size_t trace_index, const Shard& home) {
  bank_.adopt_row(trace_index, home.bank_);
}

bool Shard::deploy(std::size_t trace_index) {
  const dc::VmId vm = dc_->create_vm(0.0, trace_driver_->ram_mb(trace_index));
  vm_trace_.push_back(trace_index);
  trace_driver_->map_vm(trace_index, vm);
  last_deployed_ = vm;
  return eco_->deploy_vm(vm);
}

void Shard::abandon_last_deploy() {
  util::require(last_deployed_ != dc::kNoVm,
                "Shard::abandon_last_deploy: nothing to abandon");
  trace_driver_->unmap_vm(last_deployed_);
  last_deployed_ = dc::kNoVm;
}

void Shard::start_faults() {
  if (injector_) injector_->start();
}

void Shard::start_services() {
  trace_driver_->start();
  eco_->start();
  collector_->start();
}

void Shard::run_until(sim::SimTime t) { sim_.run_until(t); }

void Shard::warmup_reset() {
  dc_->reset_accounting(sim_.now());
  collector_->rebase();
  eco_->reset_counters();
}

void Shard::finish(sim::SimTime horizon) {
  dc_->advance_to(horizon);
  if (injector_) injector_->finalize(horizon);
}

void Shard::save_state(util::BinWriter& w) const {
  w.u64(vm_trace_.size());
  for (std::size_t trace : vm_trace_) w.u64(trace);
  w.u64(static_cast<std::uint64_t>(last_deployed_));
  w.u64(wishes_.size());
  for (const MigrationWish& wish : wishes_) {
    w.f64(wish.time);
    w.u64(static_cast<std::uint64_t>(wish.server));
    w.boolean(wish.is_high);
  }
  w.u64(wished_.size());
  for (std::uint8_t flag : wished_) w.boolean(flag != 0);
}

void Shard::load_state(util::BinReader& r) {
  vm_trace_.assign(static_cast<std::size_t>(r.u64()), 0);
  for (std::size_t& trace : vm_trace_) trace = static_cast<std::size_t>(r.u64());
  last_deployed_ = static_cast<dc::VmId>(r.u64());
  wishes_.assign(static_cast<std::size_t>(r.u64()), MigrationWish{});
  for (MigrationWish& wish : wishes_) {
    wish.time = r.f64();
    wish.server = static_cast<dc::ServerId>(r.u64());
    wish.is_high = r.boolean();
  }
  wished_.assign(static_cast<std::size_t>(r.u64()), 0);
  for (std::uint8_t& flag : wished_) flag = r.boolean() ? 1 : 0;
}

void Shard::register_checkpoint(ckpt::CheckpointManager& manager) {
  manager.add_section(
      "shard", [this](util::BinWriter& w) { save_state(w); },
      [this](util::BinReader& r) { load_state(r); });
  scenario::register_daily_checkpoint(manager, *dc_, *eco_, *trace_driver_,
                                      *collector_, injector_.get());
  manager.add_section(
      "event_log", [this](util::BinWriter& w) { log_->save_state(w); },
      [this](util::BinReader& r) { log_->load_state(r); });
}

std::optional<dc::ServerId> Shard::invite(sim::SimTime now, double demand_mhz,
                                          double ram_mb, double ta_override) {
  return eco_->assignment()
      .invite(*dc_, now, demand_mhz, ram_mb, ta_override)
      .server;
}

dc::VmId Shard::accept_transfer(sim::SimTime t, std::size_t trace_index,
                                dc::ServerId dest) {
  const dc::VmId vm = dc_->create_vm(0.0, trace_driver_->ram_mb(trace_index));
  vm_trace_.push_back(trace_index);
  trace_driver_->map_vm(trace_index, vm);  // sets the live trace demand
  dc_->place_vm(t, vm, dest);
  return vm;
}

void Shard::release_vm(dc::VmId vm) {
  trace_driver_->unmap_vm(vm);
  // The normal departure path: unplaces, settles accounting, and
  // re-evaluates hibernation of the (possibly now empty) source server.
  eco_->depart_vm(vm);
}

std::vector<MigrationWish> Shard::take_wishes() {
  std::vector<MigrationWish> out = std::move(wishes_);
  wishes_.clear();
  for (const MigrationWish& wish : out) wished_[wish.server] = 0;
  return out;
}

}  // namespace ecocloud::par
