#pragma once

/// \file quantile.hpp
/// \brief Exact quantiles over a retained sample plus a summary helper.

#include <cstddef>
#include <vector>

#include "ecocloud/util/binio.hpp"

namespace ecocloud::stats {

/// Collects samples and answers exact quantile queries (linear
/// interpolation between order statistics, the common "type 7" estimator).
class QuantileSketch {
 public:
  void add(double x);
  void add_all(const std::vector<double>& xs);
  /// Add every sample \p other retains: quantiles of the merge are exact.
  void merge(const QuantileSketch& other) { add_all(other.samples_); }

  [[nodiscard]] std::size_t size() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }

  /// Quantile for q in [0,1]. Throws std::invalid_argument if empty or q
  /// out of range.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] double median() const { return quantile(0.5); }

  /// Fraction of samples <= x.
  [[nodiscard]] double cdf(double x) const;

  /// Checkpoint surface: preserves the retained samples in their current
  /// order plus the lazy-sort flag, so restored quantiles are identical.
  void save(util::BinWriter& w) const;
  void load(util::BinReader& r);

 private:
  void sort_if_needed() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

/// Convenience: quantile of a value vector (copies and sorts).
[[nodiscard]] double quantile_of(std::vector<double> values, double q);

}  // namespace ecocloud::stats
