#pragma once

/// \file instrumentation.hpp
/// \brief Wires the telemetry primitives into the running simulation.
///
/// Instrumentation is the only piece of the obs module that knows about
/// the rest of the codebase. It attaches to each layer in one of two
/// ways, both chosen so the simulation stays bit-identical with or
/// without telemetry (the "pure observer" invariant pinned by
/// ObsRegression.EventStreamBitIdenticalWithTelemetry):
///
///  * **Pull**: counters and gauges the layers already maintain
///    (EngineStats, DataCenter lifetime counters, MessageLog, the
///    Bernoulli tallies) are exposed through callback-backed registry
///    instances. The hot paths are untouched; the callback runs only
///    when an exporter samples the registry.
///  * **Chain**: controller Events callbacks are wrapped, preserving any
///    previously installed subscriber (same pattern as
///    metrics::EventLog::attach). The wrappers count, log, and emit
///    trace spans but never draw from any RNG and never schedule
///    simulation work.
///
/// Telemetry never enters the event queue: drivers call flush_now() at
/// their safe points (sim times between two run slices), so even
/// executed_events() is the same with and without telemetry.

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "ecocloud/core/controller.hpp"
#include "ecocloud/dc/datacenter.hpp"
#include "ecocloud/faults/fault_injector.hpp"
#include "ecocloud/obs/chrome_trace.hpp"
#include "ecocloud/obs/logger.hpp"
#include "ecocloud/obs/metric_registry.hpp"
#include "ecocloud/sim/simulator.hpp"

namespace ecocloud::obs {

/// Pull-mode snapshot of the robustness machinery (checkpoint manager +
/// runtime auditor), supplied by a callback so obs stays decoupled from
/// the ckpt module.
struct RobustnessSample {
  std::uint64_t checkpoints_written = 0;
  std::uint64_t snapshot_bytes_last = 0;
  double save_wall_seconds_total = 0.0;
  std::uint64_t audits_run = 0;
  std::uint64_t audits_failed = 0;
  std::uint64_t heals_applied = 0;
};

/// Identity of the shard an Instrumentation observes. A sharded run gives
/// every shard its own Instrumentation over ONE shared registry: the
/// shard label keeps the series apart, the pid offset keeps the trace
/// track groups apart, and the id translations rewrite local server/VM
/// ids into the global namespace so merged telemetry reads like the
/// single-threaded run's. Default-constructed = not sharded (no label,
/// no offset, ids pass through).
struct ShardContext {
  bool sharded = false;
  std::size_t shard = 0;
  /// Local server id -> global server id (ShardPlan::global_server).
  std::function<std::uint64_t(std::uint64_t)> global_server;
  /// Local VM id -> global trace row (Shard::trace_of).
  std::function<std::uint64_t(std::uint64_t)> global_vm;
};

class Instrumentation {
 public:
  /// \p registry and \p logger must outlive the Instrumentation; \p trace
  /// may be null to disable timeline capture. None of them are owned.
  Instrumentation(MetricRegistry& registry, Logger& logger,
                  ChromeTraceWriter* trace = nullptr, ShardContext shard = {});

  /// Register pull-mode metrics over the event kernel's EngineStats.
  void attach_engine(const sim::Simulator& simulator);

  /// Register pull-mode fleet/energy metrics. Must be called before
  /// attach_controller when a trace writer is present: the server-state
  /// timeline needs the initial state of every server.
  void attach_datacenter(const dc::DataCenter& datacenter);

  /// Chain the controller's Events callbacks (preserving existing
  /// subscribers) and register pull-mode metrics over its lifetime
  /// counters, MessageLog, and the fa/fl/fh Bernoulli tallies. Attach
  /// any other subscriber (EventLog, MetricsCollector) first so it is
  /// not displaced.
  void attach_controller(core::EcoCloudController& controller);

  /// Register pull-mode metrics over the fault injector's resilience
  /// stats and redeploy queue.
  void attach_faults(const faults::FaultInjector& injector);

  /// Register pull-mode metrics over the checkpoint/audit machinery.
  /// \p sample is polled when an exporter reads the registry. The series
  /// describe the whole run, so they never carry a shard label.
  void attach_robustness(std::function<RobustnessSample()> sample);

  /// Flush the logger and sample the trace counters. Drivers call this at
  /// safe points (ShardedDailyRun::on_barrier,
  /// ConsolidationScenario::on_safe_point).
  void flush_now(sim::SimTime now);

  /// Close open trace spans (server states, in-flight migrations) at
  /// \p end and flush the logger. Call once, after the run.
  void finalize(sim::SimTime end);

  [[nodiscard]] MetricRegistry& registry() { return registry_; }
  [[nodiscard]] Logger& logger() { return logger_; }

 private:
  void open_server_span(dc::ServerId server, const char* state,
                        sim::SimTime at);
  void close_server_span(dc::ServerId server, sim::SimTime at);
  void sample_trace_counters(sim::SimTime now);

  /// Shard-aware wrappers: label sets gain {"shard", k}, trace pids shift
  /// by 3*k, and ids translate to global — all identity when not sharded.
  [[nodiscard]] Labels labels(Labels base) const;
  [[nodiscard]] int pid(int base) const;
  [[nodiscard]] std::uint64_t gsrv(dc::ServerId server) const;
  [[nodiscard]] std::uint64_t gvm(dc::VmId vm) const;

  MetricRegistry& registry_;
  Logger& logger_;
  ChromeTraceWriter* trace_;
  ShardContext shard_;

  const dc::DataCenter* dc_ = nullptr;

  // Owned (push-mode) counters bumped from the chained callbacks.
  Counter* ev_assignment_ = nullptr;
  Counter* ev_assignment_failure_ = nullptr;
  Counter* ev_migration_start_low_ = nullptr;
  Counter* ev_migration_start_high_ = nullptr;
  Counter* ev_migration_complete_low_ = nullptr;
  Counter* ev_migration_complete_high_ = nullptr;
  Counter* ev_migration_aborted_ = nullptr;
  Counter* ev_activation_ = nullptr;
  Counter* ev_hibernation_ = nullptr;
  Counter* ev_wake_ = nullptr;
  Counter* ev_server_failed_ = nullptr;
  Counter* ev_server_repaired_ = nullptr;
  Counter* ev_vm_orphaned_ = nullptr;
  Histogram* wake_latency_ = nullptr;

  /// Wake-command time per server, matched against on_activation to
  /// observe the wake-to-active latency.
  std::unordered_map<dc::ServerId, sim::SimTime> wake_sent_at_;

  /// Open trace spans: current state name and its start time, per server.
  struct OpenSpan {
    std::string state;
    sim::SimTime since = 0.0;
  };
  std::unordered_map<dc::ServerId, OpenSpan> server_spans_;
  /// In-flight migration spans: start time and kind, per VM.
  struct OpenMigration {
    sim::SimTime since = 0.0;
    bool is_high = false;
  };
  std::unordered_map<dc::VmId, OpenMigration> migration_spans_;

  bool finalized_ = false;
};

}  // namespace ecocloud::obs
