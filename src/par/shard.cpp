#include "ecocloud/par/shard.hpp"

#include "ecocloud/ckpt/checkpoint.hpp"
#include "ecocloud/util/validation.hpp"

namespace ecocloud::par {

namespace {

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

/// Shard \p id's DailyConfig: its slice of the fleet, its seed, its faults
/// (see shard.hpp). Everything else is the global run's.
scenario::DailyConfig shard_config(const scenario::DailyConfig& global,
                                   const ShardPlan& plan, std::size_t id) {
  scenario::DailyConfig local = global;
  const std::size_t k = plan.num_shards();
  local.fleet.num_servers = plan.servers_in(id);
  // Local server l is global server l·K + id, whose class is
  // mix[(l·K + id) mod |mix|] = mix'[l mod |mix|].
  const std::vector<unsigned>& mix = global.fleet.core_mix;
  for (std::size_t j = 0; j < mix.size(); ++j) {
    local.fleet.core_mix[j] = mix[(j * k + id) % mix.size()];
  }
  // XOR with id spread over the full 64 bits (multiples of the
  // golden-ratio increment, as in splitmix64); shard 0's term is zero.
  local.seed ^= 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(id);
  local.faults = localize_faults(global.faults, plan, id);
  return local;
}

}  // namespace

Shard::Shard(const scenario::DailyConfig& config, const ShardPlan& plan,
             std::size_t shard_id, trace::StreamingTraces bank)
    : id_(shard_id), scenario_(shard_config(config, plan, shard_id), std::move(bank)) {
  log_.attach(controller());
  wished_.assign(datacenter().num_servers(), 0);
  controller().events().on_migration_stranded =
      [this](sim::SimTime t, dc::ServerId server, bool is_high) {
        // Record-only: no RNG draw, no state change, so single-threaded
        // behavior is untouched whether or not anyone drains the wishes.
        if (wished_[server]) return;
        wished_[server] = 1;
        wishes_.push_back(MigrationWish{t, server, is_high});
      };
}

void Shard::adopt_trace_row(std::size_t trace_index, const Shard& home) {
  scenario_.trace_driver().adopt_row(trace_index, home.trace_driver());
}

bool Shard::deploy(std::size_t trace_index) {
  vm_trace_.push_back(trace_index);
  return scenario_.deploy(trace_index);
}

void Shard::abandon_last_deploy() {
  util::require(!vm_trace_.empty(),
                "Shard::abandon_last_deploy: nothing to abandon");
  scenario_.trace_driver().unmap_vm(static_cast<dc::VmId>(vm_trace_.size() - 1));
}

void Shard::save_state(util::BinWriter& w) const {
  w.u64(vm_trace_.size());
  for (std::size_t trace : vm_trace_) w.u64(trace);
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
  scenario_.register_checkpoint(manager);
  manager.add_section(
      "event_log", [this](util::BinWriter& w) { log_.save_state(w); },
      [this](util::BinReader& r) { log_.load_state(r); });
}

std::optional<dc::ServerId> Shard::invite(sim::SimTime now, double demand_mhz,
                                          double ram_mb, double ta_override) {
  return controller()
      .assignment()
      .invite(datacenter(), now, demand_mhz, ram_mb, ta_override)
      .server;
}

dc::VmId Shard::accept_transfer(sim::SimTime t, std::size_t trace_index,
                                dc::ServerId dest) {
  core::TraceDriver& driver = scenario_.trace_driver();
  const dc::VmId vm = datacenter().create_vm(0.0, driver.ram_mb(trace_index));
  vm_trace_.push_back(trace_index);
  driver.map_vm(trace_index, vm);  // sets the live trace demand
  datacenter().place_vm(t, vm, dest);
  return vm;
}

void Shard::release_vm(dc::VmId vm) {
  scenario_.trace_driver().unmap_vm(vm);
  // The normal departure path: unplaces, settles accounting, and
  // re-evaluates hibernation of the (possibly now empty) source server.
  controller().depart_vm(vm);
}

std::vector<MigrationWish> Shard::take_wishes() {
  std::vector<MigrationWish> out = std::move(wishes_);
  wishes_.clear();
  for (const MigrationWish& wish : out) wished_[wish.server] = 0;
  return out;
}

}  // namespace ecocloud::par
