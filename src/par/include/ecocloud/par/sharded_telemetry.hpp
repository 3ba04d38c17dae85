#pragma once

/// \file sharded_telemetry.hpp
/// \brief Telemetry over a sharded run: one registry, K observer stacks.
///
/// Each shard gets its own Instrumentation (logger + trace writer) so the
/// hot path never crosses a shard boundary; everything merges
/// deterministically at the edges:
///
///  * **Metrics**: ONE shared MetricRegistry. Registration happens
///    serially at attach time, per-shard instances are distinct series via
///    the {"shard", k} label, and pull callbacks only fire when an
///    exporter samples the registry (after run(), single-threaded). For
///    K=1 the label is omitted, so the exported series are exactly the
///    single-threaded run's. Barrier snapshots and audits export through
///    Instrumentation::attach_robustness, under the single-calendar names.
///  * **Logs**: one Logger per shard writing JSONL into an in-memory
///    sink, each record tagged with its shard; write_log() K-way merges
///    the streams by ts_sim with ties broken in shard order.
///  * **Traces**: one ChromeTraceWriter per shard with pid offsets
///    (3 tracks per shard), absorbed into one trace in shard order.
///
/// Flushing is driven by the coordinator's barrier hook, NOT by calendar
/// events: a sharded run with telemetry executes the exact same event
/// sequence as one without (stronger than the single-threaded layer's
/// "same decisions, shifted seq numbers" guarantee).

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ecocloud/obs/chrome_trace.hpp"
#include "ecocloud/obs/instrumentation.hpp"
#include "ecocloud/obs/logger.hpp"
#include "ecocloud/obs/metric_registry.hpp"
#include "ecocloud/par/sharded_runner.hpp"

namespace ecocloud::par {

class ShardedTelemetry {
 public:
  struct Options {
    /// Build per-shard trace timelines (memory-heavy on long runs).
    bool trace = false;
    /// Per-shard structured-log threshold; kOff disables the loggers.
    obs::LogLevel log_level = obs::LogLevel::kOff;
  };

  /// Attaches observer stacks to every shard of \p run and chains the
  /// run's on_barrier hook with the flush. Call after construction (and
  /// after restore_snapshot, if resuming) but before run(); \p run must
  /// outlive this object.
  ShardedTelemetry(ShardedDailyRun& run, Options options);

  ShardedTelemetry(const ShardedTelemetry&) = delete;
  ShardedTelemetry& operator=(const ShardedTelemetry&) = delete;

  /// The shared registry, for the Prometheus/JSON exporters.
  [[nodiscard]] obs::MetricRegistry& registry() { return registry_; }

  /// Close open trace spans and flush every logger at \p end (the
  /// horizon). Call once, after run().
  void finalize(sim::SimTime end);

  /// K-way merge of the per-shard JSONL logs by ts_sim (ties in shard
  /// order, within-shard order preserved). Call after finalize().
  void write_log(std::ostream& out);

  /// Merge the per-shard timelines (shard order) into one Chrome trace
  /// and serialize it. Consumes the per-shard events; call once.
  void write_trace(std::ostream& out);

  /// Total log records across all shards.
  [[nodiscard]] std::uint64_t log_lines() const;

 private:
  struct ShardStack {
    std::ostringstream log_sink;
    std::unique_ptr<obs::Logger> logger;
    std::unique_ptr<obs::ChromeTraceWriter> trace;
    std::unique_ptr<obs::Instrumentation> instrumentation;
  };

  ShardedDailyRun& run_;
  obs::MetricRegistry registry_;
  std::vector<std::unique_ptr<ShardStack>> stacks_;
};

}  // namespace ecocloud::par
