#pragma once

/// \file telemetry.hpp
/// \brief The one telemetry stack of a run (DESIGN.md §10): per observed calendar a
/// Logger, an optional ChromeTraceWriter and an Instrumentation, all over ONE
/// MetricRegistry. One calendar streams its log into the sink; with more, each buffers
/// its records and finalize() merges them by ts_sim, ties in calendar order. Drivers
/// flush only at safe points, never from a calendar event.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <sstream>
#include <vector>

#include "ecocloud/obs/instrumentation.hpp"

namespace ecocloud::obs {

class Profiler;

/// One calendar and the layers on it the stack observes; none are owned.
struct ObservedCalendar {
  const sim::Simulator* simulator = nullptr;
  const dc::DataCenter* datacenter = nullptr;
  core::EcoCloudController* controller = nullptr;
  /// Null when nothing on this calendar can fault.
  const faults::FaultInjector* faults = nullptr;
  ShardContext shard = {};
};

/// Checkpoint manager and runtime auditor counters, supplied by a callback so obs
/// stays decoupled from the ckpt module.
struct RobustnessSample {
  std::uint64_t checkpoints_written = 0;
  std::uint64_t snapshot_bytes_last = 0;
  double save_wall_seconds_total = 0.0;
  std::uint64_t audits_run = 0;
  std::uint64_t audits_failed = 0;
  std::uint64_t heals_applied = 0;
};

class Telemetry {
 public:
  struct Options {
    /// Per-calendar trace timelines (memory-heavy on long runs).
    bool trace = false;
    LogLevel log_level = LogLevel::kOff;
    /// Where the JSONL log goes; null disables logging. Not owned.
    std::ostream* log_out = nullptr;
  };

  /// Attach one observer stack per calendar (engine, datacenter, controller, faults),
  /// in calendar order. Construct before the run.
  Telemetry(std::vector<ObservedCalendar> calendars, Options options);

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  [[nodiscard]] MetricRegistry& registry() { return registry_; }

  /// Export the run's checkpoint and audit series (unlabeled: they describe the whole
  /// run), polled from \p sample at export. Every driver registers them.
  void attach_robustness(std::function<RobustnessSample()> sample);

  /// With a trace, flush_now() and finalize() also sample \p profiler's counter track
  /// into the first calendar's timeline. Not owned.
  void set_profiler(Profiler* profiler) { profiler_ = profiler; }

  /// At a safe point: sample the trace counters and flush the loggers.
  void flush_now(sim::SimTime now);

  /// Close open trace spans at \p end (the horizon) and deliver the whole log. Call
  /// once, after the run.
  void finalize(sim::SimTime end);

  /// Merge the timelines in calendar order into one Chrome trace and serialize it.
  /// Consumes the timelines; call once.
  void write_trace(std::ostream& out);
  [[nodiscard]] std::uint64_t log_lines() const;

 private:
  struct Stack {
    std::ostringstream log_buffer;  ///< with more than one calendar
    Logger logger;
    std::unique_ptr<ChromeTraceWriter> trace;
    std::unique_ptr<Instrumentation> instrumentation;
  };

  void emit_profile(sim::SimTime now);
  void merge_logs();

  std::ostream* log_out_;
  bool buffered_;
  MetricRegistry registry_;
  std::vector<std::unique_ptr<Stack>> stacks_;
  std::function<RobustnessSample()> robustness_;
  Profiler* profiler_ = nullptr;
};

}  // namespace ecocloud::obs
