#pragma once

/// \file streaming_traces.hpp
/// \brief Lazily generated per-VM demand cursors: the one source of
///        synthetic demand.
///
/// A materialized trace matrix costs 4 bytes x num_vms x num_steps, which
/// is gigabytes at planet scale (DESIGN.md §14). StreamingTraces keeps
/// only O(1) state per VM — the drawn average, the RAM footprint, the
/// current AR(1) deviation, and a private RNG cursor positioned at the
/// VM's slice of the generation stream — and advances all cursors one
/// sampling step at a time as the simulation progresses. Every synthetic
/// run streams; TraceSet::generate is a collect over a stream.
///
/// Bit-compatibility contract: generate() consumes the shared RNG exactly
/// as drawing every row on it one normal() at a time would (average, RAM,
/// then WorkloadModel::generate_series' block), and the demand produced
/// at (v, k) equals that reference series' sample bit for bit (same draws,
/// same arithmetic, same clamp). tests/trace_test checks both; the golden
/// event-stream pins of tests/engine_regression_test rest on them.
///
/// Access is monotone: advance_to(k) may only move forward. Rewinds throw,
/// and the wrap-around replay TraceSet::percent_at offers for steps beyond
/// num_steps is not supported — scenarios generate enough steps to cover
/// their horizon (scenario::trace_steps), so neither limitation is
/// reachable from a run. After a checkpoint restore the bank starts over
/// at step 0 and the first advance_to fast-forwards deterministically; no
/// cursor state needs to be part of the snapshot.
///
/// Sharding (DESIGN.md §17): generate_partitioned() cuts the generation
/// stream into K banks, bank k owning the rows congruent to k modulo K —
/// the same row->shard rule as par::ShardPlan::shard_of_trace — while
/// consuming the shared RNG in exactly generate()'s order, so K banks
/// advanced in lockstep produce the same samples as one bank. Rows are
/// addressed by their GLOBAL index everywhere; a bank can additionally
/// adopt_row() a copy of a sibling bank's row (cross-shard VM hand-off),
/// after which it advances the copy itself. A row's state at step T is a
/// pure function of its captured cursor and T, so copies never diverge
/// from the original.

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "ecocloud/sim/time.hpp"
#include "ecocloud/trace/workload_model.hpp"
#include "ecocloud/util/rng.hpp"

namespace ecocloud::trace {

class StreamingTraces {
 public:
  /// Set up cursors for \p num_vms VMs of \p num_steps samples each:
  /// generate_partitioned() with one bank.
  /// O(num_vms) memory; O(num_vms x num_steps) raw generator steps to skip
  /// each row's series block but only O(num_vms) Box-Muller transforms.
  static StreamingTraces generate(const WorkloadModel& model,
                                  std::size_t num_vms, std::size_t num_steps,
                                  util::Rng& rng);

  /// generate(), cut into \p num_banks banks: bank k holds the cursors of
  /// the rows congruent to k modulo num_banks. One pass over the shared
  /// RNG in exactly generate()'s draw order, so the union of the banks is
  /// bit-identical to a single generate() bank. Every accessor keeps
  /// taking GLOBAL row indices.
  static std::vector<StreamingTraces> generate_partitioned(
      const WorkloadModel& model, std::size_t num_vms, std::size_t num_steps,
      util::Rng& rng, std::size_t num_banks);

  /// Total rows of the generation run, NOT the resident count: partitioned
  /// banks answer for the whole row space so global indices validate
  /// uniformly (accessing a non-resident row still throws).
  [[nodiscard]] std::size_t num_vms() const { return total_vms_; }

  /// True when row \p v is resident here: owned by this bank's stride
  /// class, or previously copied in with adopt_row().
  [[nodiscard]] bool has_row(std::size_t v) const;

  /// Copy row \p v from \p home into this bank so it can be driven (and
  /// advanced) locally. No-op when already resident. Both banks must sit
  /// at the same current step — at that instant the copy is exact, and it
  /// stays exact afterwards because each row evolves from its own private
  /// cursor. Draws no shared randomness.
  void adopt_row(std::size_t v, const StreamingTraces& home);
  [[nodiscard]] std::size_t num_steps() const { return num_steps_; }
  [[nodiscard]] sim::SimTime sample_period_s() const { return config_.sample_period_s; }
  [[nodiscard]] double reference_mhz() const { return config_.reference_mhz; }

  /// Average utilization (percent) drawn for VM \p v.
  [[nodiscard]] double average_percent(std::size_t v) const {
    return averages_.at(slot(v));
  }

  /// RAM footprint of VM \p v (MB).
  [[nodiscard]] double ram_mb(std::size_t v) const {
    return ram_mb_.at(slot(v));
  }

  /// Step index active at simulation time \p t (floor(t / period)).
  [[nodiscard]] std::size_t step_at(sim::SimTime t) const;

  /// The step all cursors are currently positioned at.
  [[nodiscard]] std::size_t current_step() const { return current_step_; }

  /// Advance every cursor to \p step (forward only; throws on rewind or
  /// past num_steps). O(num_vms x steps advanced).
  void advance_to(std::size_t step);

  /// Punctual utilization (percent) of VM \p v at the current step —
  /// bit-identical to sample current_step() of the reference series.
  [[nodiscard]] double percent_current(std::size_t v) const {
    return static_cast<double>(values_.at(slot(v)));
  }

  /// Demand (MHz) of VM \p v at the current step.
  [[nodiscard]] double demand_mhz_current(std::size_t v) const {
    return percent_current(v) / 100.0 * config_.reference_mhz;
  }

 private:
  StreamingTraces() = default;

  /// Storage index of global row \p v. Owned rows live at v / stride_;
  /// adopted rows are found through foreign_. Throws (with the shard
  /// hand-off contract spelled out) for rows resident elsewhere.
  [[nodiscard]] std::size_t slot(std::size_t v) const;

  /// Bank partitioning: this bank owns the rows with v % stride_ ==
  /// offset_ of total_vms_ global rows (stride 1 = the unpartitioned
  /// single bank of generate()).
  std::size_t stride_ = 1;
  std::size_t offset_ = 0;
  std::size_t total_vms_ = 0;
  /// Adopted rows: global index -> storage slot appended past the owned
  /// block. Grows by at most one per distinct handed-off row.
  std::unordered_map<std::size_t, std::size_t> foreign_;

  std::size_t num_steps_ = 0;
  std::size_t current_step_ = 0;
  /// The generating model's parameters, shared by all cursors.
  WorkloadConfig config_;

  // Per-VM columns (DESIGN.md §14: ~76 bytes/VM, horizon-independent).
  std::vector<double> averages_;
  std::vector<double> ram_mb_;
  std::vector<double> dev_;        ///< AR(1) deviation at current_step_.
  std::vector<float> values_;      ///< Clamped percent at current_step_.
  std::vector<util::Rng> cursors_; ///< Positioned to draw the next innovation.
};

}  // namespace ecocloud::trace
