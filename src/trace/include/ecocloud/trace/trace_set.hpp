#pragma once

/// \file trace_set.hpp
/// \brief A materialized set of per-VM CPU utilization traces: the
///        container for traces loaded from files.
///
/// Mirrors the paper's data: N VMs, each a series of utilization
/// percentages sampled every 5 minutes, held as a VMs x steps matrix.
/// Sets come from PlanetLab directories (planetlab_io), from raw series,
/// or round-trip through CSV (header row, then one row per VM: id, avg,
/// ram_mb, sample_0, sample_1, ...); every loader rejects what a run
/// could not replay. Synthetic runs never build one — they stream
/// (StreamingTraces) — so generate() serves only tools that want the whole
/// matrix: exporting synthetic traces, figure benches, examples.

#include <cstddef>
#include <iosfwd>
#include <vector>

#include "ecocloud/sim/time.hpp"
#include "ecocloud/trace/workload_model.hpp"
#include "ecocloud/util/rng.hpp"

namespace ecocloud::trace {

class TraceSet {
 public:
  /// Synthesize \p num_vms traces of \p num_steps samples each: a
  /// StreamingTraces run collected step by step, so the samples and the
  /// draws from \p rng are exactly the stream's.
  static TraceSet generate(const WorkloadModel& model, std::size_t num_vms,
                           std::size_t num_steps, util::Rng& rng);

  /// Load from CSV previously written by write_csv(). Throws
  /// std::invalid_argument on input from_series would refuse as well.
  static TraceSet read_csv(std::istream& in);

  /// Build a set from raw per-VM utilization series (percent). Averages
  /// are computed from the data; RAM footprints default to \p ram_mb.
  /// All series must have the same non-zero length and samples in
  /// [0, 100]; the period and reference must be finite and > 0.
  static TraceSet from_series(std::vector<std::vector<float>> series,
                              double sample_period_s, double reference_mhz,
                              double ram_mb = 0.0);

  void write_csv(std::ostream& out) const;

  [[nodiscard]] std::size_t num_vms() const { return series_.size(); }
  [[nodiscard]] std::size_t num_steps() const { return num_steps_; }
  [[nodiscard]] sim::SimTime sample_period_s() const { return sample_period_s_; }
  [[nodiscard]] double reference_mhz() const { return reference_mhz_; }

  /// Average utilization (percent) declared for VM \p v.
  [[nodiscard]] double average_percent(std::size_t v) const;

  /// RAM footprint of VM \p v (MB).
  [[nodiscard]] double ram_mb(std::size_t v) const;

  /// Punctual utilization (percent) of VM \p v at step \p k; steps beyond
  /// the series length wrap around (traces repeat), matching how finite
  /// logs are replayed over longer horizons. Inline and modulo-free in the
  /// in-range case: the trace driver calls this once per VM per sample
  /// step, and an integer division there is measurable at fleet scale.
  [[nodiscard]] double percent_at(std::size_t v, std::size_t k) const {
    const std::vector<float>& s = series_.at(v);
    if (k >= s.size()) [[unlikely]] k %= s.size();
    return static_cast<double>(s[k]);
  }

  /// Demand in MHz of VM \p v at step \p k.
  [[nodiscard]] double demand_mhz_at(std::size_t v, std::size_t k) const {
    return percent_at(v, k) / 100.0 * reference_mhz_;
  }

  /// Step index active at simulation time \p t (floor(t / period)).
  [[nodiscard]] std::size_t step_at(sim::SimTime t) const;

  /// Mean demand (MHz) over all VMs at step \p k.
  [[nodiscard]] double total_demand_mhz_at(std::size_t k) const;

 private:
  TraceSet() = default;

  /// Throw std::invalid_argument, prefixed with \p who, unless the set is
  /// replayable: at least one step, a finite positive period and
  /// reference, one full-length series per VM, finite non-negative RAM,
  /// and samples within [0, 100].
  void validate(const char* who) const;

  std::size_t num_steps_ = 0;
  sim::SimTime sample_period_s_ = 300.0;
  double reference_mhz_ = 2000.0;
  std::vector<double> averages_;
  std::vector<double> ram_mb_;
  std::vector<std::vector<float>> series_;
};

}  // namespace ecocloud::trace
