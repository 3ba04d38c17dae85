#pragma once

/// \file sharded_runner.hpp
/// \brief Coordinator of a sharded daily run: conservative epoch
/// synchronization over K independent shards.
///
/// Execution model (DESIGN.md Sec. 12):
///  * the horizon is cut into epochs of sync_interval_s (aligned so the
///    warmup boundary and the horizon are barrier times);
///  * within an epoch every shard advances its own calendar independently
///    — a ThreadPool of min(threads, K) workers runs them concurrently
///    (one worker: no pool, the calling thread runs them in order), but
///    nothing they touch is shared, so any interleaving computes the same
///    states;
///  * at the barrier the coordinator runs SERIALLY, in shard order: it
///    drains each shard's migration wishes (trials that fired with no
///    local destination) and re-runs the destination search over the
///    other shards' fleets, transferring the VM when someone volunteers.
///
/// Determinism for a fixed K: shard streams never interleave (each shard
/// owns its RNG, calendar, and fleet slice), barrier decisions are made in
/// shard order by serial code, and output merging orders rows by
/// (time, shard). None of that depends on how many worker threads execute
/// the epochs, so 1, 2, or 16 threads produce identical bytes.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "ecocloud/metrics/collector.hpp"
#include "ecocloud/metrics/event_log.hpp"
#include "ecocloud/par/event_merge.hpp"
#include "ecocloud/par/partition.hpp"
#include "ecocloud/par/shard.hpp"
#include "ecocloud/scenario/scenario.hpp"
#include "ecocloud/util/phase_profiler.hpp"
#include "ecocloud/util/thread_pool.hpp"

namespace ecocloud::ckpt {
class CheckpointManager;
class RuntimeAuditor;
}  // namespace ecocloud::ckpt

namespace ecocloud::par {

struct ParConfig {
  /// Number of shards K. Fixed K fixes the trajectory; the thread count
  /// only changes wall-clock time.
  std::size_t shards = 1;
  /// Worker threads (0 -> hardware concurrency), capped at the shard
  /// count.
  std::size_t threads = 0;
  /// Epoch length between barriers. The default matches the 5-minute
  /// trace tick: cross-shard relief then reacts on the same timescale as
  /// the demand changes that cause it.
  sim::SimTime sync_interval_s = 300.0;
  /// Interleaving-explorer hook: when set, each epoch runs its shards
  /// SERIALLY in the permutation this returns for (epoch, K) instead of
  /// on the thread pool. The correctness harness sweeps permutations to
  /// prove the epoch execution order cannot influence the trajectory.
  std::function<std::vector<std::size_t>(std::uint64_t, std::size_t)>
      epoch_order = {};
};

/// Aggregate results of a sharded run (sums over shards + coordinator).
struct ParStats {
  std::uint64_t executed_events = 0;
  std::uint64_t migrations = 0;      ///< intra-shard + cross-shard
  std::uint64_t low_migrations = 0;  ///< ditto
  std::uint64_t high_migrations = 0;
  std::uint64_t cross_shard_migrations = 0;
  std::uint64_t activations = 0;
  std::uint64_t hibernations = 0;
  std::uint64_t wake_ups = 0;
  std::uint64_t assignment_failures = 0;
  std::uint64_t stranded_wishes = 0;   ///< wishes drained at barriers
  std::uint64_t handoff_attempts = 0;  ///< wishes still valid at the barrier
  std::uint64_t barriers = 0;
  std::uint64_t audits_run = 0;       ///< barrier audit rounds
  std::uint64_t audit_failures = 0;   ///< failed checks across all rounds
  std::uint64_t audit_heals = 0;      ///< heal actions across all shards
  std::uint64_t checkpoints_written = 0;
  std::uint64_t snapshot_bytes_last = 0;  ///< section payloads, last snapshot
  double save_wall_seconds_last = 0.0;
  double save_wall_seconds_total = 0.0;
  double energy_joules = 0.0;
};

class ShardedDailyRun {
 public:
  /// Builds the K shards. Rejects the one config the sharded engine does
  /// not support: rack topology with K > 1 (invitations would need
  /// cross-shard rack scoping). Faults, checkpointing, auditing, the
  /// watchdog, and telemetry all compose with sharding.
  ShardedDailyRun(scenario::DailyConfig config, ParConfig par);
  ~ShardedDailyRun();

  ShardedDailyRun(const ShardedDailyRun&) = delete;
  ShardedDailyRun& operator=(const ShardedDailyRun&) = delete;

  /// Deploy all VMs at t=0 (skipped on a resumed run) and simulate to the
  /// horizon, honoring config.run at every barrier (a safe point, see
  /// scenario::SafePoints): audits, checkpoints (written to
  /// config.run.checkpoint_out only), and watchdog beats. Call once.
  void run();

  /// Write one atomic snapshot of the whole sharded run (coordinator
  /// state plus every shard's sections) to \p path. Normally driven by
  /// config.run at barriers; public for tests and manual checkpoints.
  /// Snapshots are only taken at barriers, where the hand-off queue is
  /// empty and every shard sits at the same sim time.
  void save_snapshot(const std::string& path);

  /// Restore a snapshot written by save_snapshot into this freshly
  /// constructed run (same config, same K, same sync interval — enforced
  /// via the stored digest; the thread count is free). run() then
  /// continues from the snapshot's barrier and produces byte-identical
  /// output to the uninterrupted run. The snapshot also carries the
  /// writing run's checkpoint cadence, which the resumed run keeps unless
  /// config.run.checkpoint_every_s sets a new one.
  void restore_snapshot(const std::string& path);

  [[nodiscard]] bool resumed() const { return resumed_; }

  /// Called after each barrier's hand-off and safe-point duties with the
  /// barrier time: the telemetry layer flushes its per-shard streams and
  /// the live plane publishes here.
  std::function<void(sim::SimTime)> on_barrier;

  /// Called after every successful snapshot write with the path.
  std::function<void(const std::string&)> on_checkpoint;

  /// Attach a phase profiler with K+1 domains: domain k receives shard
  /// k's samples (installed on whichever worker runs the shard's epoch),
  /// domain K the coordinator's (hand-off, checkpoint writes, and the
  /// per-shard barrier lag). Pure observer — attach/detach freely.
  void set_profiler(util::PhaseProfiler* profiler);

  /// Wall seconds each shard spent on the most recent epoch, and how far
  /// behind the slowest shard each one finished (max epoch wall minus
  /// own). Measured every epoch regardless of profiling; read them from
  /// the on_barrier hook.
  [[nodiscard]] const std::vector<double>& last_epoch_wall_s() const {
    return last_epoch_wall_s_;
  }
  [[nodiscard]] const std::vector<double>& last_barrier_lag_s() const {
    return last_barrier_lag_s_;
  }

  [[nodiscard]] const ParStats& stats() const { return stats_; }
  [[nodiscard]] double total_energy_kwh() const {
    return stats_.energy_joules / 3.6e6;
  }

  /// Per-window samples merged across shards: counts, power and energy
  /// add; overall load is the capacity-weighted mean; overload percent is
  /// recomputed from the summed VM-time integrals. For K=1 the samples are
  /// shard 0's verbatim (bit-identical to the single-threaded collector).
  [[nodiscard]] std::vector<metrics::Sample> merged_samples() const;

  /// Decision event log stitched across shards in (time, shard) order with
  /// ids translated to global: byte-identical to EventLog::write_csv
  /// format, and to the single-threaded log when K=1. Returns the rows
  /// written.
  std::size_t write_events_csv(std::ostream& out) const;

  /// The same rows in the compact binary format (event_log_binary.hpp),
  /// streamed from the merge without a stitched copy; eventlog2csv
  /// converts it back to write_events_csv's exact bytes.
  std::size_t write_events_binary(std::ostream& out) const;

  [[nodiscard]] std::size_t num_shards() const { return shards_.size(); }
  /// Threads that run the epochs: min(ParConfig::threads, K).
  [[nodiscard]] std::size_t num_threads() const {
    return pool_ ? pool_->size() : 1;
  }
  [[nodiscard]] const Shard& shard(std::size_t k) const { return *shards_[k]; }
  [[nodiscard]] Shard& shard(std::size_t k) { return *shards_[k]; }
  [[nodiscard]] const ShardPlan& plan() const { return plan_; }
  [[nodiscard]] const scenario::DailyConfig& config() const { return config_; }

 private:
  void barrier_handoff(sim::SimTime now);
  void resolve_wish(std::size_t source_shard, const MigrationWish& wish,
                    sim::SimTime now);
  /// Lazily build one CheckpointManager per shard (sections + owners).
  void ensure_managers();
  /// Hand every stitched global event row to \p sink, in output order.
  void merge_events(const EventSink& sink) const;
  /// Digest stored in snapshots: the daily digest plus shard count and
  /// sync interval, so snapshots only restore into the same trajectory.
  [[nodiscard]] std::string config_digest() const;
  /// The safe-point duties (audits, checkpoint, watchdog beat) and the
  /// on_barrier hook — runs serially after the hand-off with t_ already at
  /// the barrier time.
  void at_barrier();
  void run_audits();
  /// Cross-shard invariants: unique trace-row ownership, fleet capacity
  /// conservation, per-shard energy monotonicity.
  [[nodiscard]] std::vector<std::string> cross_shard_failures();

  scenario::DailyConfig config_;
  ParConfig par_;
  ShardPlan plan_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Null when one thread runs every epoch.
  std::unique_ptr<util::ThreadPool> pool_;

  /// Cross-shard migrations recorded by the coordinator with GLOBAL ids
  /// (the shard logs never see them; dc unplace/place is not a migration
  /// to either side's accounting).
  metrics::EventLog coordinator_log_;
  std::uint64_t cross_low_ = 0;
  std::uint64_t cross_high_ = 0;

  /// Operability wiring (built on demand from config_.run).
  std::vector<std::unique_ptr<ckpt::CheckpointManager>> managers_;
  std::vector<std::unique_ptr<ckpt::RuntimeAuditor>> auditors_;
  std::vector<double> last_energy_;  ///< per shard, for the monotonicity check
  /// Due times, the checkpoint cadence every snapshot stores, the watchdog.
  scenario::SafePoints safe_points_;

  /// Coordinator clock: the last completed barrier time. Persisted, so a
  /// resumed run continues the epoch loop exactly where the snapshot was
  /// taken; the warmup reset is done once t_ >= config.warmup_s.
  sim::SimTime t_ = 0.0;

  util::PhaseProfiler* profiler_ = nullptr;
  std::vector<double> last_epoch_wall_s_;
  std::vector<double> last_barrier_lag_s_;

  ParStats stats_;
  bool ran_ = false;
  bool resumed_ = false;
};

}  // namespace ecocloud::par
