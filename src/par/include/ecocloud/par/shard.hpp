#pragma once

/// \file shard.hpp
/// \brief One shard of a sharded daily run: a scenario::DailyScenario over
/// its slice of the fleet, plus the coordination state the coordinator
/// needs between epochs.
///
/// The shard's simulation — slab event calendar, datacenter subset, trace
/// driver, ecoCloud controller with its own RNG streams, metrics
/// collector, fault injector — is a DailyScenario built from the shard's
/// trace::StreamingTraces cursor bank (ShardPlan::shard_of_trace
/// partitioning, DESIGN.md §17) and a shard-local DailyConfig:
///
///  * plan.servers_in(k) servers with the core mix rotated,
///    mix'[j] = mix[(j·K + k) mod |mix|], so build_fleet gives local
///    server l the class of global server l·K + k;
///  * seed ^ k·golden, so shard k draws from Rng(seed ^ k·golden).split(1)
///    (and split(7) for faults) — the XOR term vanishes for shard 0, and a
///    K = 1 shard is the single-threaded DailyScenario by construction;
///  * the scripted fault schedule restricted to the shard's servers in
///    local ids; a shard whose slice cannot fault has no injector.
///
/// The shard adds its event-log segment and the stranded-migration wishes
/// it records for the coordinator. Between epoch barriers a shard never
/// touches another shard's state; everything cross-shard goes through the
/// coordinator (sharded_runner), which runs serially — including
/// adopt_trace_row, which copies a handed-off VM's cursor from its owner
/// bank into the destination bank.

#include <cstdint>
#include <optional>
#include <vector>

#include "ecocloud/metrics/event_log.hpp"
#include "ecocloud/par/partition.hpp"
#include "ecocloud/scenario/scenario.hpp"
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
  /// \p config is the run's global configuration.
  Shard(const scenario::DailyConfig& config, const ShardPlan& plan,
        std::size_t shard_id, trace::StreamingTraces bank);

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  [[nodiscard]] std::size_t id() const { return id_; }

  /// The simulation of this shard's slice. The coordinator drives it:
  /// start_faults(), the deploy wave through deploy(), start_services(),
  /// run_slice() per epoch (concurrently with other shards), finish().
  [[nodiscard]] scenario::DailyScenario& scenario() { return scenario_; }

  /// DailyScenario::deploy of global trace row \p trace_index, recorded in
  /// the shard's VM -> trace map. Returns false when the shard is
  /// saturated; the VM stays created and mapped, as in DailyScenario.
  bool deploy(std::size_t trace_index);

  /// Undo the trace mapping of the last failed deploy so the runner can
  /// retry the VM on another shard without this one double-driving it.
  void abandon_last_deploy();

  /// Checkpoint surface for the shard's own coordination state: the
  /// VM->trace map, the pending migration wishes, and the dedup flags.
  void save_state(util::BinWriter& w) const;
  void load_state(util::BinReader& r);

  /// Register the shard coordination section, the scenario's sections and
  /// calendar-event owners (DailyScenario::register_checkpoint), and the
  /// event-log segment with \p manager.
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

  [[nodiscard]] sim::Simulator& simulator() { return scenario_.simulator(); }
  [[nodiscard]] const sim::Simulator& simulator() const {
    return scenario_.simulator();
  }
  [[nodiscard]] dc::DataCenter& datacenter() { return scenario_.datacenter(); }
  [[nodiscard]] const dc::DataCenter& datacenter() const {
    return scenario_.datacenter();
  }
  [[nodiscard]] core::EcoCloudController& controller() {
    return *scenario_.ecocloud();
  }
  [[nodiscard]] const core::EcoCloudController& controller() const {
    return *scenario_.ecocloud();
  }
  [[nodiscard]] const metrics::MetricsCollector& collector() const {
    return scenario_.collector();
  }
  [[nodiscard]] const metrics::EventLog& event_log() const { return log_; }
  [[nodiscard]] const core::TraceDriver& trace_driver() const {
    return scenario_.trace_driver();
  }
  /// Non-null only when this shard's slice can fault: its localized
  /// FaultParams are enabled (random processes, or a scripted fault on one
  /// of its servers).
  [[nodiscard]] faults::FaultInjector* fault_injector() {
    return scenario_.fault_injector();
  }
  [[nodiscard]] const faults::FaultInjector* fault_injector() const {
    return scenario_.fault_injector();
  }

 private:
  std::size_t id_;
  scenario::DailyScenario scenario_;
  metrics::EventLog log_;

  /// Local VmId -> global trace row; append-only (VM ids are dense), so
  /// event rows translate even for VMs that have since been handed off.
  std::vector<std::size_t> vm_trace_;

  std::vector<MigrationWish> wishes_;
  std::vector<std::uint8_t> wished_;  ///< per local server, dedup flag
};

}  // namespace ecocloud::par
