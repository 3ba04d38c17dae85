#pragma once

/// \file workloads.hpp
/// \brief The four benchmark workloads and the per-layer bookkeeping their
/// traced reps share. README.md says why each workload exists.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "e2e_common.hpp"
#include "ecocloud/ckpt/checkpoint.hpp"
#include "ecocloud/core/controller.hpp"
#include "ecocloud/metrics/event_log.hpp"
#include "ecocloud/scenario/scenario.hpp"

namespace ecocloud::perfbench {

/// Per-layer numbers of the traced runs in one rep. Times are kept per run
/// (a rep reports their median), counts are summed over the runs.
struct Layers {
  std::vector<double> construct_s, start_s, run_s, write_events_s,
      write_series_s, save_s, restore_s;
  std::vector<double> slice_s;  ///< every 900 s slice (or sharded epoch)
  std::uint64_t events = 0;
  std::uint64_t events_bytes = 0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t allocations = 0;  ///< operator new calls while simulating
  double rss_after_setup_mb = 0.0;

  std::uint64_t invitations = 0, messages = 0, placements = 0;
  std::uint64_t fa_accepts = 0, fa_trials = 0, fl_accepts = 0, fl_trials = 0,
                fh_accepts = 0, fh_trials = 0;
  std::uint64_t migrations_low = 0, migrations_high = 0;
  std::uint64_t assignment_failures = 0, wake_ups = 0;
  std::uint64_t activations = 0, hibernations = 0;
  double energy_kwh = 0.0;

  /// Add one controller's counters (control plane, trials, migrations).
  void add_controller(core::EcoCloudController& eco);
  /// Write the per-layer metrics gathered here.
  void emit(Result& out) const;
};

/// Slice length of traced runs: slicing leaves the event stream unchanged
/// (the digest proves it) and gives the per-slice time distribution.
inline constexpr double kSliceS = 900.0;

/// The daily config text of a workload, as a user would pass it to
/// `ecocloud_cli run-daily --config` (campaign_server: one campaign).
[[nodiscard]] std::string daily_config_text(const Options& options,
                                            std::uint64_t seed);

/// A single-calendar run wired as `run-daily --events` wires it. Held by
/// pointer: the event log's callbacks capture its address.
struct Single {
  explicit Single(const scenario::DailyConfig& config);
  Single(const Single&) = delete;
  Single& operator=(const Single&) = delete;

  /// The campaign server's checkpoint wiring: scenario sections plus the
  /// event log, so a resumed run's log is the uninterrupted one.
  void wire_checkpoint();

  std::unique_ptr<scenario::DailyScenario> daily;
  metrics::EventLog log;
  std::unique_ptr<ckpt::CheckpointManager> manager;
};

/// A traced single-calendar run of \p config under span \p parent:
/// construct, start, 900 s slices, finish, then the event log
/// (<dir>/events.bin) and series written. With a \p snapshot_path, a
/// checkpoint is saved at the warm-up boundary (mid-horizon when there is
/// none). Returns the finished run for post-run probes.
std::unique_ptr<Single> traced_single_run(const scenario::DailyConfig& config,
                                          const std::string& dir, Spans& spans,
                                          int parent, Layers& layers,
                                          const std::string& snapshot_path);

/// Restore the snapshot of a traced_single_run into a fresh scenario (a
/// top-level span) and check it: the re-saved bytes must equal the
/// snapshot, and with \p finish_restored the resumed run's event log must
/// equal the run's <dir>/events.bin. Returns false when a check fails.
bool restore_check(const scenario::DailyConfig& config, const std::string& dir,
                   const std::string& snapshot_path, bool finish_restored,
                   Spans& spans, Layers& layers);

/// Layer probes run outside the rep: trace generation at the workload's
/// size, cursor advance on a per-shard bank, and fleet construction.
void standalone_layers(const scenario::DailyConfig& config, std::size_t shards,
                       Spans& spans, Result& out);

/// dc.classify_ns_per_server: 1,000 monitor_classify passes over \p dc.
void classify_layer(const dc::DataCenter& dc, const core::EcoCloudParams& params,
                    Spans& spans, Result& out);

void run_daily_workload(const Options& options, Result& out);
void run_server_workload(const Options& options, Result& out);

}  // namespace ecocloud::perfbench
