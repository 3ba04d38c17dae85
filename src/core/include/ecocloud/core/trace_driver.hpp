#pragma once

/// \file trace_driver.hpp
/// \brief Replays per-VM demand traces onto DataCenter VMs every sampling
///        period.
///
/// Each mapped VM's demand is refreshed from its trace series at every
/// 5-minute tick (the CoMon sampling period), exactly as the paper's
/// trace-driven simulations do. The driver reads from one of two sources:
/// a trace::StreamingTraces cursor bank, which every synthetic run uses
/// (O(VMs) memory, samples produced lazily as the clock advances —
/// DESIGN.md §14), or a trace::TraceSet loaded from files (the full sample
/// matrix, replayed with wrap-around past its end). The driver is the only
/// place that tells the two apart: callers ask it for row counts and RAM.

#include <unordered_map>

#include "ecocloud/dc/datacenter.hpp"
#include "ecocloud/sim/simulator.hpp"
#include "ecocloud/trace/streaming_traces.hpp"
#include "ecocloud/trace/trace_set.hpp"
#include "ecocloud/util/binio.hpp"

namespace ecocloud::core {

class TraceDriver {
 public:
  /// Snapshot-stable event kinds (tag_owner::kTraceDriver). Append only.
  enum EventKind : std::uint16_t { kEvTick = 1 };

  /// Driver over loaded traces, which must outlive it.
  TraceDriver(sim::Simulator& simulator, dc::DataCenter& datacenter,
              const trace::TraceSet& traces);

  /// Driver over a synthetic stream. The cursor bank is advanced on demand
  /// (monotonically) as ticks and VM arrivals query it; it must outlive
  /// the driver.
  TraceDriver(sim::Simulator& simulator, dc::DataCenter& datacenter,
              trace::StreamingTraces& streaming);

  /// Trace rows the driver can map (global indices for a sharded bank).
  [[nodiscard]] std::size_t num_rows() const;

  /// RAM footprint (MB) of trace row \p trace_index.
  [[nodiscard]] double ram_mb(std::size_t trace_index) const;

  /// Bind DataCenter VM \p vm to trace row \p trace_index and set its
  /// demand to the current sample.
  void map_vm(std::size_t trace_index, dc::VmId vm);

  /// Stop driving \p vm (on departure).
  void unmap_vm(dc::VmId vm);

  /// Make trace row \p trace_index drivable here by copying its cursor
  /// from \p home's bank (a cross-shard hand-off or deploy retry; both
  /// banks at the same step). No-op when already resident, and for loaded
  /// traces, which hold every row.
  void adopt_row(std::size_t trace_index, const TraceDriver& home);

  /// Schedule the periodic demand refresh. Call once.
  void start();

  /// Demand (MHz) that trace row \p trace_index prescribes right now.
  [[nodiscard]] double current_demand_mhz(std::size_t trace_index) const;

  [[nodiscard]] std::size_t mapped_count() const { return vm_to_trace_.size(); }

  /// Current VM -> trace-row binding. The sharded auditor walks this to
  /// assert each global trace row is driven by at most one shard.
  [[nodiscard]] const std::unordered_map<dc::VmId, std::size_t>& mapped_vms()
      const {
    return vm_to_trace_;
  }

  /// Checkpoint surface. The VM->trace map is restored with its exact
  /// iteration order preserved: tick() refreshes demands in map order and
  /// the DataCenter accumulates load deltas in that order, so a different
  /// order would change floating-point rounding and break bit-exact resume.
  /// A streaming source carries no snapshot state of its own: it restarts
  /// at step 0 and deterministically fast-forwards on the first query after
  /// a restore.
  void save_state(util::BinWriter& w) const;
  void load_state(util::BinReader& r);
  [[nodiscard]] sim::Simulator::Callback rebuild_event(const sim::EventTag& tag);

 private:
  void tick();
  [[nodiscard]] sim::SimTime source_sample_period_s() const;
  /// Move streaming cursors to the step active at \p now. No-op for
  /// loaded traces or when already there (ticks and same-tick VM arrivals
  /// land on the same step regardless of event order).
  void sync_streaming(sim::SimTime now) const;

  sim::Simulator& sim_;
  dc::DataCenter& dc_;
  const trace::TraceSet* traces_ = nullptr;
  trace::StreamingTraces* streaming_ = nullptr;
  std::unordered_map<dc::VmId, std::size_t> vm_to_trace_;
  bool started_ = false;
};

}  // namespace ecocloud::core
