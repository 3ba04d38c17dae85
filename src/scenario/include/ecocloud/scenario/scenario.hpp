#pragma once

/// \file scenario.hpp
/// \brief Ready-made experiment setups for the paper's two evaluations.
///
/// Benches, examples and integration tests all run the same two scenarios;
/// centralizing the setup keeps every figure reproduction consistent:
///
///  * DailyScenario (Sec. III) — 400 servers (1/3 x 4, 1/3 x 6, 1/3 x 8
///    cores at 2 GHz), 6,000 trace-driven VMs, ecoCloud assignment +
///    migration, 48 hours, metrics every 30 minutes. Each shard of
///    par::ShardedDailyRun is one DailyScenario over its slice.
///  * ConsolidationScenario (Sec. IV) — 100 six-core servers, 1,500
///    initial VMs spread randomly (10-30% per-server load), migrations
///    disabled, open arrivals/departures, 18 hours starting at midnight.

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "ecocloud/baseline/centralized_controller.hpp"
#include "ecocloud/ckpt/auditor.hpp"
#include "ecocloud/ckpt/checkpoint.hpp"
#include "ecocloud/ckpt/watchdog.hpp"
#include "ecocloud/net/topology.hpp"
#include "ecocloud/core/controller.hpp"
#include "ecocloud/core/open_system.hpp"
#include "ecocloud/core/trace_driver.hpp"
#include "ecocloud/faults/fault_injector.hpp"
#include "ecocloud/metrics/collector.hpp"
#include "ecocloud/trace/rate_estimator.hpp"
#include "ecocloud/trace/trace_set.hpp"

namespace ecocloud::scenario {

/// Robustness knobs shared by both experiments: crash-safe checkpoints,
/// the runtime invariant auditor, and the wall-clock watchdog. Parsed from
/// `[checkpoint]` / `[audit]` / `[watchdog]` config sections (config_io)
/// and overridable from the CLI. Drivers honour them only at safe points
/// (SafePoints), never through calendar events, so no setting here changes
/// a run's trajectory. Not part of the config digest: a resume may change
/// any of them; a snapshot stores only its checkpoint cadence.
struct RunControl {
  /// Snapshot file written at the first safe point at or after every
  /// multiple of checkpoint_every_s of sim time. Empty disables
  /// checkpointing.
  std::string checkpoint_out;
  sim::SimTime checkpoint_every_s = 0.0;

  /// Invariant-audit cadence (same due-time rule); 0 disables the auditor.
  sim::SimTime audit_every_s = 0.0;
  /// "log" | "abort" | "heal" (ckpt::parse_audit_action).
  std::string audit_action = "log";
  /// Relative tolerance of the floating-point conservation checks.
  double audit_tolerance = 1e-6;
  /// Require every live VM to be owned exactly once. On by default for
  /// the daily scenario; the consolidation scenario's departed VMs are
  /// legitimately unowned, so its loader defaults this to false.
  bool audit_strict = true;

  /// Wall-clock seconds without a safe point before the watchdog aborts
  /// with a diagnostic; 0 disables the watchdog.
  double watchdog_stall_s = 0.0;

  /// Throw std::invalid_argument naming the flag and config key unless
  /// every cadence and the stall are finite and >= 0, the audit action is
  /// known, and a checkpoint_out has a cadence > 0 — which a \p resuming
  /// run may leave at 0 to keep its snapshot's.
  void validate(bool resuming) const;
};

/// Period of ConsolidationScenario's safe points: the 5-minute trace tick.
inline constexpr sim::SimTime kSafePointPeriodS = 300.0;

/// A driver's RunControl duties, done only at its safe points: sim times
/// between two run slices, when no event is running (ShardedDailyRun's
/// barriers, ConsolidationScenario's kSafePointPeriodS ticks). Holds the
/// due-time rule, the checkpoint cadence snapshots store, and the watchdog.
class SafePoints {
 public:
  explicit SafePoints(const RunControl& run)
      : run_(run), checkpoint_every_s_(run.checkpoint_every_s) {}

  /// The checkpoint cadence in force; every snapshot stores it.
  [[nodiscard]] sim::SimTime checkpoint_every_s() const {
    return checkpoint_every_s_;
  }
  /// On resume: keep the snapshot's cadence unless the RunControl set one.
  void restore_cadence(sim::SimTime stored_every_s);
  [[nodiscard]] bool checkpointing() const {
    return !run_.checkpoint_out.empty() && checkpoint_every_s_ > 0.0;
  }

  /// At the run's first safe point \p now (0, or a resumed run's snapshot
  /// time): start the due clocks and arm the watchdog when configured.
  void begin(sim::SimTime now);
  /// Safe point \p t: \p audit if an audit is due, \p checkpoint if a
  /// checkpoint is due, then a watchdog beat. A duty is due at the first
  /// safe point at or after each multiple of its cadence.
  void visit(sim::SimTime t, std::uint64_t executed_events,
             const std::function<void()>& audit,
             const std::function<void()>& checkpoint);
  /// The run is over: disarm the watchdog.
  void end();

 private:
  RunControl run_;
  sim::SimTime checkpoint_every_s_;
  sim::SimTime next_audit_ = 0.0;
  sim::SimTime next_checkpoint_ = 0.0;
  std::unique_ptr<ckpt::Watchdog> watchdog_;
};

/// Fleet mix of the Sec. III experiment.
struct FleetConfig {
  std::size_t num_servers = 400;
  double core_mhz = 2000.0;
  /// Server classes, assigned round-robin: one third each of 4/6/8 cores.
  std::vector<unsigned> core_mix = {4, 6, 8};
  double ram_per_core_mb = 4096.0;
};

/// Build a hibernated fleet into \p datacenter per the mix.
void build_fleet(dc::DataCenter& datacenter, const FleetConfig& fleet);

/// Largest horizon / sample period a run accepts (2^32 trace steps); the
/// config loaders reject longer horizons by key.
inline constexpr double kMaxTraceSteps = 4294967296.0;

/// Trace samples a run of \p horizon_s generates at \p workload's sample
/// period: horizon / period + 2, so the step active at the horizon exists.
/// Throws std::invalid_argument unless horizon / period is in
/// [0, kMaxTraceSteps] (NaN included).
[[nodiscard]] std::size_t trace_steps(sim::SimTime horizon_s,
                                      const trace::WorkloadConfig& workload);

/// Parameters of the 48-hour daily-cycle experiment.
struct DailyConfig {
  FleetConfig fleet;
  std::size_t num_vms = 6000;
  sim::SimTime horizon_s = 48.0 * sim::kHour;
  core::EcoCloudParams params;  // paper defaults
  trace::WorkloadConfig workload;
  std::uint64_t seed = 20130520;  // arbitrary but fixed
  /// Has no effect: every synthetic run streams its traces (DESIGN.md
  /// §14). The `streaming_traces` config key still parses into this field
  /// so existing configs load; both are to be removed.
  bool streaming_traces = false;
  /// Skip accounting during the initial consolidation transient.
  sim::SimTime warmup_s = 0.0;
  /// When set, the fleet is organized into racks: invitations go to one
  /// random rack (footnote 1) and migration times include RAM transfer
  /// over the intra-/inter-rack bandwidth. ecoCloud only.
  std::optional<net::TopologyConfig> topology;
  /// Fault injection (crashes, lossy control plane, boot/migration
  /// failures). All-zero (the default) runs the exact fault-free code
  /// paths; see src/faults. ecoCloud only.
  faults::FaultParams faults;
  /// Checkpoint/audit/watchdog wiring (not part of the config digest).
  RunControl run;
};

/// Which algorithm drives the daily scenario.
///  * kEcoCloud     — the paper's decentralized procedures;
///  * kCentralized  — periodic global reoptimization (baseline module);
///  * kStatic       — no consolidation at all: every server active, VMs
///    spread round-robin, no migrations (the "before" reference that
///    motivates the paper's Sec. I under-utilization discussion).
enum class Algorithm { kEcoCloud, kCentralized, kStatic };

/// Configuration fingerprint of a daily run (every field that shapes the
/// deterministic event stream, printed with round-tripping precision).
/// Shared by DailyScenario::config_digest and the sharded runner, which
/// appends its shard count so single- and sharded-run snapshots never
/// restore into each other.
[[nodiscard]] std::string daily_config_digest(const DailyConfig& config,
                                              const char* algo);

/// A fully wired daily-cycle experiment. Construct, then run().
///
/// This is the only code that wires an ecoCloud daily simulation: a shard
/// of par::ShardedDailyRun is a DailyScenario over its slice of the fleet
/// and its cursor bank, driven through start_faults(), deploy(),
/// start_services(), run_slice() and finish() by the coordinator.
class DailyScenario {
 public:
  /// Synthetic workload: streams config.num_vms trace rows generated from
  /// Rng(config.seed) (the bank constructor with that bank).
  explicit DailyScenario(DailyConfig config,
                         Algorithm algorithm = Algorithm::kEcoCloud,
                         baseline::CentralizedParams centralized_params = {});

  /// Drive the scenario from a streaming cursor bank — one bank of
  /// StreamingTraces::generate_partitioned for a shard. config.num_vms is
  /// taken from the bank (its global row count); config.seed seeds only
  /// the controller (split 1) and fault (split 7) streams.
  DailyScenario(DailyConfig config, trace::StreamingTraces bank,
                Algorithm algorithm = Algorithm::kEcoCloud,
                baseline::CentralizedParams centralized_params = {});

  /// Drive the scenario with externally supplied traces (e.g. real
  /// PlanetLab logs imported via trace::read_planetlab_dir) instead of the
  /// synthetic workload; config.num_vms is taken from the trace set.
  DailyScenario(DailyConfig config, trace::TraceSet traces,
                Algorithm algorithm = Algorithm::kEcoCloud,
                baseline::CentralizedParams centralized_params = {});

  /// Deploy all VMs at t=0 and simulate the full horizon. Equivalent to
  /// start() + run_slice(horizon) + finish().
  void run();

  /// Finish the horizon of a run restored from a snapshot. Deployment and
  /// service start are skipped — state and the event calendar came back
  /// with the snapshot — and the warmup reset still happens if the
  /// snapshot predates it.
  void run_resumed();

  /// Setup phase of run() without advancing simulation time: boot the
  /// static fleet if applicable, start_faults(), deploy() every trace row
  /// in order, start_services(). The campaign server uses start() +
  /// repeated run_slice() so it can checkpoint, pause, or evict a campaign
  /// between slices.
  void start();

  /// Install fault hooks and schedule the fault processes. Call once,
  /// before the first deploy(): message loss applies to the initial
  /// placement wave too. No-op without an injector.
  void start_faults();

  /// Create the VM of trace row \p row at t = 0 (VM ids are dense, so it
  /// is datacenter().num_vms() - 1), map it to its trace and hand it to
  /// the algorithm. Returns false when the ecoCloud assignment failed;
  /// the VM stays created and mapped either way.
  bool deploy(std::size_t row);

  /// Start the periodic services: trace ticks, controller monitors,
  /// metric sampling. Call once, after the t = 0 deployment wave.
  void start_services();

  /// Advance the simulation to min(\p until, horizon), performing the
  /// warmup accounting reset when the slice crosses warmup_s. Slicing is
  /// invisible to the event stream: nothing samples the clock between
  /// events, so N slices execute the identical event sequence as one
  /// run_until(horizon). Returns true once the horizon has been reached.
  bool run_slice(sim::SimTime until);

  /// Post-horizon bookkeeping: advance idle-interval accounting to the
  /// horizon and finalize fault statistics. Call exactly once, after
  /// run_slice() has returned true.
  void finish();

  /// Register this scenario's state sections (scenario flags, datacenter,
  /// controller, trace driver, collector, and faults when there is an
  /// injector, in that order) and calendar-event owners plus the config
  /// digest. ecoCloud only: the baseline controllers schedule untagged
  /// events and cannot be checkpointed.
  void register_checkpoint(ckpt::CheckpointManager& manager);

  /// Fingerprint of the immutable configuration; snapshots only restore
  /// into a scenario with an identical digest.
  [[nodiscard]] std::string config_digest() const;

  [[nodiscard]] const DailyConfig& config() const { return config_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] const sim::Simulator& simulator() const { return sim_; }
  [[nodiscard]] dc::DataCenter& datacenter() { return *dc_; }
  [[nodiscard]] const dc::DataCenter& datacenter() const { return *dc_; }
  [[nodiscard]] metrics::MetricsCollector& collector() { return *collector_; }
  [[nodiscard]] const metrics::MetricsCollector& collector() const {
    return *collector_;
  }
  [[nodiscard]] core::TraceDriver& trace_driver() { return *trace_driver_; }
  [[nodiscard]] const core::TraceDriver& trace_driver() const {
    return *trace_driver_;
  }
  [[nodiscard]] core::EcoCloudController* ecocloud() { return eco_.get(); }
  [[nodiscard]] const core::EcoCloudController* ecocloud() const {
    return eco_.get();
  }
  [[nodiscard]] baseline::CentralizedController* centralized() {
    return central_.get();
  }
  [[nodiscard]] const net::Topology* topology() const { return topology_.get(); }
  /// Non-null only when config.faults.enabled() and the algorithm is
  /// kEcoCloud; carries the resilience statistics of the run.
  [[nodiscard]] faults::FaultInjector* fault_injector() { return injector_.get(); }
  [[nodiscard]] const faults::FaultInjector* fault_injector() const {
    return injector_.get();
  }

 private:
  /// Wiring both trace sources share: fleet, controller, collector, fault
  /// injector. Each constructor then builds its trace driver.
  void init(const baseline::CentralizedParams& centralized_params);

  DailyConfig config_;
  Algorithm algorithm_;
  sim::Simulator sim_;
  std::unique_ptr<net::Topology> topology_;
  std::unique_ptr<dc::DataCenter> dc_;
  /// Loaded traces (the TraceSet constructor) or the streaming bank.
  std::unique_ptr<trace::TraceSet> traces_;
  std::unique_ptr<trace::StreamingTraces> streaming_;
  std::unique_ptr<core::TraceDriver> trace_driver_;
  std::unique_ptr<core::EcoCloudController> eco_;
  std::unique_ptr<baseline::CentralizedController> central_;
  std::unique_ptr<metrics::MetricsCollector> collector_;
  std::unique_ptr<faults::FaultInjector> injector_;
  /// Whether the warmup accounting reset already happened (part of the
  /// scenario snapshot section, so a resume before/after warmup behaves
  /// exactly like the uninterrupted run).
  bool warmup_done_ = false;
};

/// Parameters of the Sec. IV consolidation experiment.
struct ConsolidationConfig {
  std::size_t num_servers = 100;
  unsigned cores_per_server = 6;
  double core_mhz = 2000.0;
  std::size_t initial_vms = 1500;
  sim::SimTime horizon_s = 18.0 * sim::kHour;
  /// Mean VM lifetime (1/nu). The paper does not publish its lambda/mu;
  /// 2 h gives enough turnover for the system to reach the Fig.-12 steady
  /// state within ~6 hours, as the paper reports.
  sim::SimTime mean_lifetime_s = 2.0 * sim::kHour;
  core::EcoCloudParams params;  // migrations disabled in the constructor
  /// Reference capacity lowered so 1,500 VMs load 100 servers to the
  /// paper's "10-30%" starting condition (DESIGN.md Sec. 5).
  trace::WorkloadConfig workload{.reference_mhz = 1600.0};
  std::uint64_t seed = 19731123;
  /// Metrics sampling period (finer than 30 min to resolve the transient).
  sim::SimTime sample_period_s = 900.0;
  /// Checkpoint/audit/watchdog wiring, honoured at safe points (not part
  /// of the config digest).
  RunControl run;
};

/// The migration-free consolidation experiment with open arrivals.
class ConsolidationScenario {
 public:
  explicit ConsolidationScenario(ConsolidationConfig config);

  /// start() + run_resumed().
  void run();

  /// From the current time (start()'s, or a restored snapshot's) run
  /// slices to every kSafePointPeriodS safe point, doing the config.run
  /// duties (SafePoints) and then on_safe_point at each, and finish().
  void run_resumed();

  /// Setup at t = 0 (DailyScenario::start): every server active, the
  /// initial VM population spread over them, drivers and collector started.
  void start();
  /// Advance to min(\p until, horizon); true once the horizon is reached.
  bool run_slice(sim::SimTime until);
  /// Advance idle accounting to the horizon, after the last run_slice().
  void finish();

  /// Restore a snapshot into this freshly built scenario; run_resumed()
  /// then finishes the run bit-identically.
  void restore_snapshot(const std::string& path) { manager_.restore(path); }

  /// Called at every safe point after the config.run duties: the CLI
  /// flushes telemetry and publishes the live plane here.
  std::function<void(sim::SimTime)> on_safe_point;

  /// The manager behind config.run's checkpoints and restore_snapshot();
  /// the auditor, null unless config.run.audit_every_s > 0.
  [[nodiscard]] const ckpt::CheckpointManager& checkpoints() const {
    return manager_;
  }
  [[nodiscard]] const ckpt::RuntimeAuditor* auditor() const {
    return auditor_.get();
  }

  [[nodiscard]] const ConsolidationConfig& config() const { return config_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] dc::DataCenter& datacenter() { return *dc_; }
  [[nodiscard]] metrics::MetricsCollector& collector() { return *collector_; }
  [[nodiscard]] core::EcoCloudController& controller() { return *eco_; }
  [[nodiscard]] trace::RateEstimator& rates() { return *rates_; }
  [[nodiscard]] core::OpenSystemDriver& open_system() { return *open_; }

  /// Arrival rate used to drive the scenario (VMs/second at time t).
  [[nodiscard]] double lambda(sim::SimTime t) const;

  /// Per-VM departure rate (1/s).
  [[nodiscard]] double nu() const { return 1.0 / config_.mean_lifetime_s; }

  /// Mean VM demand as a fraction of one server's capacity — the fluid
  /// model's vm_share for this fleet.
  [[nodiscard]] double mean_vm_share() const;

 private:
  /// Register state sections and event owners with manager_ (datacenter,
  /// controller, trace driver, open system, rate estimator, collector,
  /// run_control: the checkpoint cadence) plus the config digest.
  void register_checkpoint();
  [[nodiscard]] std::string config_digest() const;

  ConsolidationConfig config_;
  sim::Simulator sim_;
  std::unique_ptr<dc::DataCenter> dc_;
  std::unique_ptr<trace::StreamingTraces> streaming_;
  std::unique_ptr<core::TraceDriver> trace_driver_;
  std::unique_ptr<core::EcoCloudController> eco_;
  std::unique_ptr<core::OpenSystemDriver> open_;
  std::unique_ptr<trace::RateEstimator> rates_;
  std::unique_ptr<metrics::MetricsCollector> collector_;
  SafePoints safe_points_;
  ckpt::CheckpointManager manager_;
  std::unique_ptr<ckpt::RuntimeAuditor> auditor_;
};

}  // namespace ecocloud::scenario
