#pragma once

/// \file probability.hpp
/// \brief The three Bernoulli success-probability functions of ecoCloud
///        (paper Sec. II, Eqs. (1)-(4)).
///
/// * AssignmentFunction  f_a(u) = u^p (Ta - u) / Mp    for 0 <= u <= Ta
///   with Mp = p^p / (p+1)^(p+1) * Ta^(p+1), so max f_a = 1 at
///   u* = p/(p+1) * Ta; f_a = 0 above Ta.
/// * LowMigrationFunction   f_l(u) = (1 - u/Tl)^alpha  for u < Tl, else 0.
/// * HighMigrationFunction  f_h(u) = (1 + (u-1)/(1-Th))^beta for u > Th,
///   else 0; reaches 1 at u = 1.
///
/// All functions take utilization in [0, 1] and return a probability in
/// [0, 1]. Parameters are validated at construction.

#include <cstdint>

namespace ecocloud::core {

/// Accept/reject tally of the Bernoulli trials run against one of the
/// probability functions. The procedures maintain one tally per function
/// (f_a, f_l, f_h) so the telemetry layer can report how often each
/// stochastic decision actually fires — the live counterpart of the
/// paper's analytical success probabilities. Deterministic short-circuits
/// (grace-period acceptance, inactive servers) are not trials and are not
/// counted.
struct BernoulliTally {
  std::uint64_t accepts = 0;
  std::uint64_t rejects = 0;

  void record(bool accepted) { ++(accepted ? accepts : rejects); }
  [[nodiscard]] std::uint64_t trials() const { return accepts + rejects; }
};

/// Assignment probability f_a (Eq. 1-2). Servers with intermediate
/// utilization volunteer with high probability; empty and nearly-full
/// servers refuse.
class AssignmentFunction {
 public:
  /// \param ta  maximum allowed utilization Ta, in (0, 1].
  /// \param p   shape parameter (> 0); larger p pushes the most likely
  ///            acceptors toward Ta (stronger consolidation).
  AssignmentFunction(double ta, double p);

  [[nodiscard]] double ta() const { return ta_; }
  [[nodiscard]] double p() const { return p_; }

  /// Normalizer Mp (Eq. 2).
  [[nodiscard]] double normalizer() const { return mp_; }

  /// Utilization at which f_a peaks: p/(p+1) * Ta.
  [[nodiscard]] double argmax() const;

  /// f_a(u); 0 outside [0, Ta].
  [[nodiscard]] double operator()(double u) const;

  /// f_a(u) for u in [0, Ta], given u^p. operator() is
  /// from_power(u, std::pow(u, p)), so a memoized u^p gives the same double.
  [[nodiscard]] double from_power(double u, double u_to_p) const {
    return u_to_p * (ta_ - u) / mp_;
  }

  /// Copy of this function with a different threshold (used by the
  /// high-migration destination variant, Ta' = 0.9 * u_source).
  [[nodiscard]] AssignmentFunction with_threshold(double new_ta) const;

 private:
  double ta_;
  double p_;
  double mp_;
};

/// Low-utilization migration probability f_l (Eq. 3): drains servers whose
/// utilization fell below Tl so they can be emptied and hibernated.
class LowMigrationFunction {
 public:
  /// \param tl     lower threshold, in (0, 1).
  /// \param alpha  shape (> 0); smaller alpha = more eager migrations.
  LowMigrationFunction(double tl, double alpha);

  [[nodiscard]] double tl() const { return tl_; }
  [[nodiscard]] double alpha() const { return alpha_; }

  /// f_l(u); 0 for u >= Tl; 1 at u = 0.
  [[nodiscard]] double operator()(double u) const;

 private:
  double tl_;
  double alpha_;
};

/// High-utilization migration probability f_h (Eq. 4): sheds load from
/// servers whose utilization exceeds Th, before SLA violations build up.
class HighMigrationFunction {
 public:
  /// \param th    upper threshold, in (0, 1).
  /// \param beta  shape (> 0); smaller beta = more eager migrations.
  HighMigrationFunction(double th, double beta);

  [[nodiscard]] double th() const { return th_; }
  [[nodiscard]] double beta() const { return beta_; }

  /// f_h(u); 0 for u <= Th; 1 at u = 1 (input clamped to [0,1]).
  [[nodiscard]] double operator()(double u) const;

 private:
  double th_;
  double beta_;
};

}  // namespace ecocloud::core
