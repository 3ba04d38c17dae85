#pragma once

/// \file workload_model.hpp
/// \brief Statistical model of PlanetLab-like VM CPU demand.
///
/// The paper's traces (CoMon/PlanetLab, 6,000 VMs, 5-minute samples) are
/// characterised by two published marginals:
///  * Fig. 4 — distribution of each VM's *average* CPU utilization
///    (percent of a reference capacity): mass concentrated below 20%, a
///    long thin tail up to 100%.
///  * Fig. 5 — distribution of punctual-minus-average deviations: sharply
///    peaked at 0, with about 94% of deviations within +-10 points.
///
/// WorkloadModel reproduces both: per-VM averages are drawn from a bin
/// table calibrated to Fig. 4, and the punctual demand follows
///   v(t) = clamp(avg * g(t) + d(t), 0, 100)
/// where g is the shared diurnal factor and d an AR(1) noise whose scale
/// grows with the VM's average (big VMs fluctuate more, as in the traces).

#include <cstddef>
#include <vector>

#include "ecocloud/sim/time.hpp"
#include "ecocloud/trace/diurnal.hpp"
#include "ecocloud/util/rng.hpp"

namespace ecocloud::trace {

/// Tunable parameters of the synthetic workload.
struct WorkloadConfig {
  /// CPU capacity, in MHz, that utilization percentages refer to. The
  /// PlanetLab convention is "percent of the hosting machine"; we pin the
  /// reference to one 2 GHz core so demands are portable across the
  /// heterogeneous fleet (DESIGN.md Sec. 5).
  double reference_mhz = 2000.0;

  /// Trace sampling period (paper: 5 minutes).
  sim::SimTime sample_period_s = 300.0;

  /// Diurnal modulation.
  DiurnalPattern diurnal{};

  /// AR(1) deviation: correlation between consecutive 5-min samples.
  double ar1_rho = 0.7;

  /// Deviation scale: stddev (percent points) = dev_base + dev_slope * avg.
  double dev_base = 1.0;
  double dev_slope = 0.15;

  /// RAM footprint per VM (MB), uniform in [ram_min_mb, ram_max_mb]
  /// (exercised by the multi-resource extension only).
  double ram_min_mb = 512.0;
  double ram_max_mb = 4096.0;
};

/// One synthetic trace row, as WorkloadModel::draw_row takes it from the
/// shared generation stream.
struct TraceRow {
  double average_percent = 0.0;
  double ram_mb = 0.0;
  /// The AR(1) deviation at step 0, drawn from its stationary distribution.
  double deviation = 0.0;
  /// The row's own copy of the series block, ready to draw the step-1
  /// innovation and then one per step.
  util::Rng cursor;
};

/// Samples per-VM averages and generates punctual utilization series.
class WorkloadModel {
 public:
  explicit WorkloadModel(WorkloadConfig config = WorkloadConfig{});

  [[nodiscard]] const WorkloadConfig& config() const { return config_; }

  /// The Fig.-4 calibration table: relative weight of each 5%-wide average
  /// utilization bin over [0, 100).
  [[nodiscard]] static const std::vector<double>& average_bin_weights();

  /// Draw one VM average utilization (percent of reference capacity).
  [[nodiscard]] double sample_average_percent(util::Rng& rng) const;

  /// Draw a RAM footprint (MB).
  [[nodiscard]] double sample_ram_mb(util::Rng& rng) const;

  /// Expected mean of the average-utilization distribution (percent),
  /// computed from the bin table (useful for sizing experiments).
  [[nodiscard]] static double expected_average_percent();

  /// Draw one trace row from the shared stream \p rng in the order the
  /// series reference uses: average, RAM, then a series block of
  /// 1 + \p num_steps normals — the stationary deviation and one innovation
  /// per step. The row's cursor draws the deviation and keeps the rest of
  /// the block; \p rng skips the whole block exactly (Rng::discard_normals).
  [[nodiscard]] TraceRow draw_row(util::Rng& rng, std::size_t num_steps) const;

  /// Generate a punctual utilization series (percent) of \p num_steps
  /// samples for a VM with the given average, starting at \p start_time.
  /// Deviations evolve as AR(1); values are clamped to [0, 100]. Draws every
  /// normal from \p rng, one at a time: the reference the trace cursors
  /// (StreamingTraces) are tested against.
  [[nodiscard]] std::vector<float> generate_series(util::Rng& rng,
                                                   double avg_percent,
                                                   std::size_t num_steps,
                                                   sim::SimTime start_time = 0.0) const;

  /// Convert a utilization percentage to MHz demand under this model.
  [[nodiscard]] double percent_to_mhz(double percent) const {
    return percent / 100.0 * config_.reference_mhz;
  }

 private:
  /// Stationary standard deviation of the AR(1) deviation for \p avg_percent.
  [[nodiscard]] double deviation_sigma(double avg_percent) const {
    return config_.dev_base + config_.dev_slope * avg_percent;
  }

  WorkloadConfig config_;
};

}  // namespace ecocloud::trace
