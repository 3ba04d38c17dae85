#pragma once

/// \file controller.hpp
/// \brief Event-driven orchestration of the ecoCloud procedures.
///
/// EcoCloudController plays both roles of the paper's architecture:
///  * the thin data-center manager (broadcasting invitations, picking among
///    volunteers, waking servers); and
///  * the per-server monitor loop that runs the migration procedure on
///    local information every few seconds.
///
/// It owns no placement state — that lives in DataCenter — and reports
/// everything observable through optional event callbacks, which the
/// metrics module subscribes to.
///
/// The controller also carries the recovery half of the fault model
/// (src/faults): fail-stop crashes roll back the migrations touching the
/// dead server and orphan its VMs into a redeploy path, failed boots are
/// retried a bounded number of times before falling back to a different
/// server, and a lossy control plane is tolerated by repeating invitation
/// rounds. With no fault hooks installed every failure path is dead code
/// and the event stream is identical to the fault-free build.

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "ecocloud/core/assignment.hpp"
#include "ecocloud/core/fault_hooks.hpp"
#include "ecocloud/core/migration.hpp"
#include "ecocloud/core/params.hpp"
#include "ecocloud/dc/datacenter.hpp"
#include "ecocloud/sim/simulator.hpp"
#include "ecocloud/util/binio.hpp"
#include "ecocloud/util/rng.hpp"

namespace ecocloud::core {

class EcoCloudController {
 public:
  /// EventTag kinds scheduled under sim::tag_owner::kController. Values are
  /// part of the snapshot format — append, never renumber. `a` carries the
  /// server id (or VM id for kEvMigrationDone).
  enum EventKind : std::uint16_t {
    kEvMonitor = 1,        ///< Periodic per-server monitor loop.
    kEvBootDone = 2,       ///< Boot completion (handle kept in BootQueue).
    kEvMigrationDone = 3,  ///< Migration completion (handle kept in Inflight).
    kEvHibernateCheck = 4, ///< Delayed hibernation check.
    kEvGraceCheck = 5,     ///< Re-check at grace-period expiry.
  };

  /// Observable events; any callback may be left empty.
  struct Events {
    std::function<void(sim::SimTime, dc::VmId, dc::ServerId)> on_assignment;
    /// Fired when no server volunteered, none was booting, and none could
    /// be woken (the "buy more servers" signal of Sec. II).
    std::function<void(sim::SimTime, dc::VmId)> on_assignment_failure;
    std::function<void(sim::SimTime, dc::VmId, bool is_high)> on_migration_start;
    std::function<void(sim::SimTime, dc::VmId, bool is_high)> on_migration_complete;
    std::function<void(sim::SimTime, dc::ServerId)> on_activation;
    std::function<void(sim::SimTime, dc::ServerId)> on_hibernation;
    /// Fired when the manager sends a wake-up command (boot start); pairs
    /// with on_activation to measure the wake-to-active latency.
    std::function<void(sim::SimTime, dc::ServerId)> on_wake;
    /// Fired at the start of every departure, before any state is touched
    /// (the faults module drops departing orphans from its redeploy queue).
    std::function<void(sim::SimTime, dc::VmId)> on_vm_departed;
    /// A migration trial fired but no local destination exists: either no
    /// server volunteered for a low migration, or a high migration found
    /// neither a volunteer nor a wakeable server. Within a single
    /// datacenter the situation is simply ridden out (paper Sec. II); the
    /// sharded engine records it as a cross-shard hand-off wish.
    std::function<void(sim::SimTime, dc::ServerId, bool is_high)>
        on_migration_stranded;
    // --- Failure-path events (only fired when faults are injected) ---
    std::function<void(sim::SimTime, dc::ServerId)> on_server_failed;
    std::function<void(sim::SimTime, dc::ServerId)> on_server_repaired;
    /// A VM lost its host to a crash and left the placement.
    std::function<void(sim::SimTime, dc::VmId, dc::ServerId)> on_vm_orphaned;
    /// An in-flight migration was rolled back (transfer abort or a crash
    /// of either endpoint); the VM stays on its source if that survives.
    std::function<void(sim::SimTime, dc::VmId, bool is_high)> on_migration_aborted;
  };

  EcoCloudController(sim::Simulator& simulator, dc::DataCenter& datacenter,
                     EcoCloudParams params, util::Rng rng);

  /// Schedule the per-server monitor loops (staggered phases). Call once.
  void start();

  /// Run the assignment procedure for an unplaced VM. May place it
  /// immediately, queue it on a booting server, or wake a hibernated
  /// server. Returns false only when the whole data center is saturated.
  bool deploy_vm(dc::VmId vm);

  /// Remove a VM from the system (departure). Handles in-flight migrations
  /// and boot queues; triggers hibernation checks.
  void depart_vm(dc::VmId vm);

  /// Activate a hibernated server instantly (experiment setup helper; does
  /// not grant the post-boot grace period unless \p with_grace).
  void force_activate(dc::ServerId server, bool with_grace = false);

  /// Fail-stop crash of \p server. Rolls back every in-flight migration
  /// touching it (destinations keep nothing, sources keep their VM),
  /// cancels a pending boot, and orphans both hosted and boot-queued VMs.
  /// Orphans are handed to the orphan handler when one is installed (the
  /// faults module's redeploy queue) and returned either way.
  std::vector<dc::VmId> fail_server(dc::ServerId server);

  /// Repair a failed server: it rejoins as hibernated and becomes eligible
  /// for the normal wake-up path again.
  void repair_server(dc::ServerId server);

  /// Install fault hooks (nullptr to detach): lossy control plane, boot
  /// failures, migration aborts. Also forwarded to the assignment
  /// procedure. Not owned; must outlive the controller while attached.
  void set_fault_hooks(const FaultHooks* hooks);

  /// Install the recovery policy for crash orphans (empty to reset to the
  /// default, which retries deploy_vm once, immediately). The handler runs
  /// inside fail_server; implementations should defer real work through
  /// the simulator rather than re-entering the controller synchronously.
  void set_orphan_handler(std::function<void(dc::VmId)> handler);

  [[nodiscard]] const EcoCloudParams& params() const { return params_; }
  [[nodiscard]] Events& events() { return events_; }

  // --- Lifetime counters ---
  [[nodiscard]] std::uint64_t low_migrations() const { return low_migrations_; }
  [[nodiscard]] std::uint64_t high_migrations() const { return high_migrations_; }
  [[nodiscard]] std::uint64_t assignment_failures() const {
    return assignment_failures_;
  }
  [[nodiscard]] std::uint64_t wake_ups() const { return wake_ups_; }
  /// Migrations rolled back by a transfer-abort fault.
  [[nodiscard]] std::uint64_t aborted_migrations() const { return aborted_migrations_; }
  /// Migrations rolled back because an endpoint crashed or its boot failed.
  [[nodiscard]] std::uint64_t interrupted_migrations() const {
    return interrupted_migrations_;
  }
  /// Failed boot attempts (each may be retried up to max_boot_retries).
  [[nodiscard]] std::uint64_t boot_failures() const { return boot_failures_; }
  void reset_counters();

  /// Exposed for tests and extensions.
  [[nodiscard]] AssignmentProcedure& assignment() { return assignment_; }
  [[nodiscard]] MigrationProcedure& migration() { return migration_; }

  /// Control-plane traffic accumulated so far (paper Fig. 1 / footnote 1).
  [[nodiscard]] const MessageLog& messages() const { return messages_; }

  // --- Introspection (telemetry gauges; all O(1)) ---
  /// Servers currently booting with a deployment queue attached.
  [[nodiscard]] std::size_t boot_queue_count() const { return boot_queues_.size(); }
  /// VMs waiting on booting servers.
  [[nodiscard]] std::size_t queued_vm_count() const { return queued_on_.size(); }
  /// Live migrations currently tracked in flight by this controller.
  [[nodiscard]] std::size_t inflight_migration_count() const {
    return inflight_.size();
  }

  /// Attach a rack topology (footnote 1): invitations are broadcast to one
  /// random rack instead of the whole fleet, migration destinations are
  /// searched in the source's rack, and migration completion times include
  /// the RAM transfer over intra-/inter-rack bandwidth. The topology must
  /// cover every server and outlive the controller. Call before start().
  void set_topology(const net::Topology* topology);

  // --- Checkpoint surface ---------------------------------------------------

  /// Serialize the controller: RNG stream, counters, message log, tallies,
  /// and the boot/queue/in-flight maps with their iteration order (those
  /// maps are iterated by decision paths, so order is behavior).
  void save_state(util::BinWriter& w) const;
  void load_state(util::BinReader& r);

  /// Rebuild the callback for a calendar entry tagged with one of this
  /// controller's EventKinds; throws std::runtime_error on unknown kinds.
  [[nodiscard]] sim::Simulator::Callback rebuild_event(const sim::EventTag& tag);

  /// Re-capture the restored handle of a kEvBootDone / kEvMigrationDone
  /// event into the matching BootQueue / Inflight entry (which must have
  /// been restored by load_state first).
  void bind_event(const sim::EventTag& tag, sim::EventHandle handle);

  // --- Audit accessors (RuntimeAuditor) ------------------------------------
  /// VMs queued on booting servers, keyed by VM.
  [[nodiscard]] const std::unordered_map<dc::VmId, dc::ServerId>& queued_vms()
      const {
    return queued_on_;
  }
  /// True when \p vm has an in-flight migration tracked by this controller.
  [[nodiscard]] bool tracks_inflight(dc::VmId vm) const {
    return inflight_.count(vm) > 0;
  }

 private:
  void monitor_server(dc::ServerId s);
  /// Rebuild the stale part of the monitor classification cache from the
  /// DataCenter's dirty journal (all-dirty -> one columnar kernel sweep,
  /// otherwise per-id scalar refreshes). Attributed to Phase::kMonitorBatch.
  void drain_monitor_journal();
  /// Recompute one server's cached u_eff + class byte (scalar reference
  /// kernel, then the out-migration patch — bit-identical to the batch).
  void refresh_monitor_row(dc::ServerId s);
  void execute_plan(const MigrationPlan& plan, dc::ServerId source);
  /// Wall time a live migration takes: the fixed latency plus, with a
  /// topology attached, the RAM transfer over the available bandwidth.
  [[nodiscard]] sim::SimTime migration_duration(dc::VmId vm, dc::ServerId source,
                                                dc::ServerId dest) const;
  void start_migration(dc::VmId vm, dc::ServerId dest, bool is_high,
                       sim::SimTime complete_at);
  void finish_migration(dc::VmId vm);
  /// Cancel the in-flight migration of \p vm: release the destination
  /// reservation, cancel the completion event, bump the right counter.
  void rollback_migration(dc::VmId vm, bool counts_as_interrupted);
  /// Roll back every in-flight migration whose source or destination is
  /// \p server (crash and boot-failure handling).
  void rollback_migrations_touching(dc::ServerId server);
  /// Pick a hibernated server and start booting it; returns its id.
  std::optional<dc::ServerId> wake_one_server();
  void queue_vm(dc::ServerId booting_server, dc::VmId vm);
  void on_boot_finished(dc::ServerId s);
  void schedule_hibernation_check(dc::ServerId s);
  /// Body of the delayed hibernation check (named so a restored event can
  /// rebuild its callback from the kEvHibernateCheck tag).
  void hibernation_check(dc::ServerId s);
  /// Re-check scheduled at grace expiry (kEvGraceCheck).
  void grace_recheck(dc::ServerId s);

  sim::Simulator& sim_;
  dc::DataCenter& dc_;
  EcoCloudParams params_;
  util::Rng rng_;
  AssignmentProcedure assignment_;
  MigrationProcedure migration_;
  Events events_;
  MessageLog messages_;
  const net::Topology* topology_ = nullptr;

  /// VMs waiting for a booting server, per server, plus their total demand.
  struct BootQueue {
    std::vector<dc::VmId> vms;
    double queued_mhz = 0.0;
    sim::SimTime finish_at = 0.0;
    /// Pending boot-completion event (cancelled when the server crashes).
    sim::EventHandle boot_event;
    /// Boot attempts so far (faults: retried up to max_boot_retries).
    std::size_t boot_attempts = 1;
  };

  /// An in-flight live migration, keyed by VM in inflight_.
  struct Inflight {
    dc::ServerId dest = dc::kNoServer;
    bool is_high = false;
    /// Decided at start by the migration_aborts hook: the transfer will
    /// fail at its completion time instead of landing.
    bool will_abort = false;
    sim::EventHandle done;
  };

  /// Booting server with room under Ta for \p demand_mhz more (a
  /// deployment to queue, or an inbound migration). Non-const: the fast
  /// sampler probes the open-boot registry with RNG draws instead of
  /// scanning every boot queue.
  std::optional<dc::ServerId> booting_with_room(double demand_mhz);
  std::unordered_map<dc::ServerId, BootQueue> boot_queues_;
  std::unordered_map<dc::VmId, dc::ServerId> queued_on_;
  std::unordered_map<dc::VmId, Inflight> inflight_;

  // --- Fast-sampler open-boot registry (params_.fast_sampler only) ---
  // Booting servers believed to still have queue room under Ta. Deploy
  // and migration paths probe kBootProbeCount random entries instead of
  // scanning boot_queues_, re-checking fit at probe time — so a stale
  // entry costs a wasted probe, never a wrong placement. A server leaves
  // when its committed load passes Ta (or its boot resolves) and returns
  // when a queued departure frees room. Probes index into open_boot_, so
  // its order is deterministic state and is checkpointed verbatim.
  static constexpr std::size_t kBootProbeCount = 8;
  std::vector<dc::ServerId> open_boot_;
  std::unordered_map<dc::ServerId, std::uint32_t> open_boot_pos_;
  void open_boot_insert(dc::ServerId s);
  void open_boot_erase(dc::ServerId s);
  /// Re-derive open/closed for \p s from its committed-vs-Ta ratio.
  void open_boot_update(dc::ServerId s);

  // --- Batched monitor cache (DESIGN.md §17) ---
  // Per-server fast-path effective utilization and MonitorClass byte,
  // rebuilt lazily from the DataCenter's monitor dirty journal at the top
  // of each monitor tick. Derived state: deliberately not checkpointed —
  // restore leaves the journal all-dirty, so the first tick after a resume
  // rebuilds the cache from the restored columns.
  std::vector<double> monitor_u_;
  std::vector<std::uint8_t> monitor_cls_;

  const FaultHooks* faults_ = nullptr;
  std::function<void(dc::VmId)> orphan_handler_;

  std::uint64_t low_migrations_ = 0;
  std::uint64_t high_migrations_ = 0;
  std::uint64_t assignment_failures_ = 0;
  std::uint64_t wake_ups_ = 0;
  std::uint64_t aborted_migrations_ = 0;
  std::uint64_t interrupted_migrations_ = 0;
  std::uint64_t boot_failures_ = 0;
  bool started_ = false;
};

}  // namespace ecocloud::core
