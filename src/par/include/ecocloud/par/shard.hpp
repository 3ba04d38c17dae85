#pragma once

/// \file shard.hpp
/// \brief One shard of a sharded daily run: a complete, self-contained
/// single-threaded simulation of its slice of the fleet.
///
/// A shard owns everything the single-threaded engine owns — slab event
/// calendar (sim::Simulator), datacenter subset, trace driver, ecoCloud
/// controller with its own RNG streams, metrics collector, event-log
/// segment — plus the trace::StreamingTraces cursor bank of its trace rows
/// (ShardPlan::shard_of_trace partitioning, DESIGN.md §17), which it
/// advances privately: O(VMs/K) memory per shard, nothing shared.
/// Between epoch barriers a shard never touches another shard's state;
/// everything cross-shard goes through the coordinator (sharded_runner),
/// which runs serially — including adopt_trace_row, which copies a
/// handed-off VM's cursor from its owner bank into the destination bank.
///
/// RNG partitioning: shard k draws from Rng(seed ^ k * golden).split(1),
/// mirroring DailyScenario's Rng(seed).split(1) — the XOR term vanishes
/// for shard 0, so a K=1 run replays the single-threaded stream exactly.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "ecocloud/core/controller.hpp"
#include "ecocloud/core/trace_driver.hpp"
#include "ecocloud/dc/datacenter.hpp"
#include "ecocloud/faults/fault_injector.hpp"
#include "ecocloud/metrics/collector.hpp"
#include "ecocloud/metrics/event_log.hpp"
#include "ecocloud/net/topology.hpp"
#include "ecocloud/par/partition.hpp"
#include "ecocloud/scenario/scenario.hpp"
#include "ecocloud/sim/simulator.hpp"
#include "ecocloud/trace/streaming_traces.hpp"
#include "ecocloud/util/binio.hpp"

namespace ecocloud::ckpt {
class CheckpointManager;
}

namespace ecocloud::par {

/// A server whose migration trial fired with no local destination; recorded
/// during an epoch, resolved (or dropped) by the coordinator at the next
/// barrier. Deduplicated per server per epoch.
struct MigrationWish {
  sim::SimTime time = 0.0;
  dc::ServerId server = dc::kNoServer;  ///< local id within the shard
  bool is_high = false;
};

class Shard {
 public:
  /// Takes ownership of \p bank, this shard's slice of a
  /// StreamingTraces::generate_partitioned run (bank k for shard k — the
  /// partition rule and ShardPlan::shard_of_trace agree by construction).
  Shard(const scenario::DailyConfig& config, const ShardPlan& plan,
        std::size_t shard_id, trace::StreamingTraces bank);

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  [[nodiscard]] std::size_t id() const { return id_; }

  /// Create + map + deploy the VM of global trace row \p trace_index at
  /// t = 0. Returns false when the shard is saturated (assignment failed);
  /// the VM stays created and mapped, exactly as in DailyScenario.
  bool deploy(std::size_t trace_index);

  /// Undo the trace mapping of the last failed deploy so the runner can
  /// retry the VM on another shard without this one double-driving it.
  void abandon_last_deploy();

  /// Install fault hooks and schedule this shard's fault processes. Call
  /// once, BEFORE the first deploy (message loss applies to the initial
  /// placement wave, exactly as in DailyScenario). No-op without faults.
  void start_faults();

  /// Start the periodic services (trace ticks, monitors, sampling). Call
  /// once, after the t=0 deployment wave.
  void start_services();

  /// Advance this shard's calendar to \p t (inclusive, like
  /// Simulator::run_until). Safe to call concurrently with other shards.
  void run_until(sim::SimTime t);

  /// End-of-warmup accounting reset (DailyScenario semantics).
  void warmup_reset();

  /// Settle energy/SLA integrals (and open orphan downtime) at the horizon.
  void finish(sim::SimTime horizon);

  /// Checkpoint surface for the shard's own coordination state: the
  /// VM->trace map, the pending migration wishes, and the dedup flags.
  /// Everything else (datacenter, controller, collector, ...) registers
  /// its own section via register_checkpoint.
  void save_state(util::BinWriter& w) const;
  void load_state(util::BinReader& r);

  /// Register every stateful component of this shard (sections and
  /// calendar-event owners) with \p manager: the shard coordination
  /// section, scenario::register_daily_checkpoint, and the event-log
  /// segment.
  void register_checkpoint(ckpt::CheckpointManager& manager);

  // --- Coordinator surface (serial, between epochs) ---

  /// One invitation round over this shard's fleet for an incoming migrant.
  /// Draws from this shard's own controller RNG — callable only from the
  /// serial barrier, in shard order, or determinism is lost.
  [[nodiscard]] std::optional<dc::ServerId> invite(sim::SimTime now,
                                                   double demand_mhz,
                                                   double ram_mb,
                                                   double ta_override);

  /// Materialize the VM of \p trace_index on \p dest (an active local
  /// server that volunteered) and start driving it from the trace.
  dc::VmId accept_transfer(sim::SimTime t, std::size_t trace_index,
                           dc::ServerId dest);

  /// Remove a VM handed off to another shard: stop driving it and run the
  /// normal departure path (which also re-evaluates hibernation).
  void release_vm(dc::VmId vm);

  /// Copy global trace row \p trace_index from \p home's bank into this
  /// shard's bank so deploy/accept_transfer can drive it here. No-op when
  /// already resident; serial coordinator code only, at a barrier (both
  /// banks at the same step).
  void adopt_trace_row(std::size_t trace_index, const Shard& home);

  /// Drain the wishes recorded since the previous barrier.
  [[nodiscard]] std::vector<MigrationWish> take_wishes();

  /// Global trace row of a local VM (valid for every VM ever created here).
  [[nodiscard]] std::size_t trace_of(dc::VmId vm) const {
    return vm_trace_[vm];
  }

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] const sim::Simulator& simulator() const { return sim_; }
  [[nodiscard]] dc::DataCenter& datacenter() { return *dc_; }
  [[nodiscard]] const dc::DataCenter& datacenter() const { return *dc_; }
  [[nodiscard]] core::EcoCloudController& controller() { return *eco_; }
  [[nodiscard]] const core::EcoCloudController& controller() const {
    return *eco_;
  }
  [[nodiscard]] const metrics::MetricsCollector& collector() const {
    return *collector_;
  }
  [[nodiscard]] const metrics::EventLog& event_log() const { return *log_; }
  [[nodiscard]] const core::TraceDriver& trace_driver() const {
    return *trace_driver_;
  }
  /// Non-null only when the run's FaultParams are enabled.
  [[nodiscard]] faults::FaultInjector* fault_injector() {
    return injector_.get();
  }
  [[nodiscard]] const faults::FaultInjector* fault_injector() const {
    return injector_.get();
  }

 private:
  const ShardPlan& plan_;
  std::size_t id_;
  trace::StreamingTraces bank_;

  sim::Simulator sim_;
  std::unique_ptr<net::Topology> topology_;
  std::unique_ptr<dc::DataCenter> dc_;
  std::unique_ptr<core::TraceDriver> trace_driver_;
  std::unique_ptr<core::EcoCloudController> eco_;
  std::unique_ptr<metrics::MetricsCollector> collector_;
  std::unique_ptr<metrics::EventLog> log_;
  std::unique_ptr<faults::FaultInjector> injector_;

  /// Local VmId -> global trace row; append-only, so event rows translate
  /// even for VMs that have since been handed off.
  std::vector<std::size_t> vm_trace_;
  dc::VmId last_deployed_ = dc::kNoVm;

  std::vector<MigrationWish> wishes_;
  std::vector<std::uint8_t> wished_;  ///< per local server, dedup flag
};

}  // namespace ecocloud::par
