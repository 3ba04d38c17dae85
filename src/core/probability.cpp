#include "ecocloud/core/probability.hpp"

#include <cmath>

#include "ecocloud/util/math.hpp"
#include "ecocloud/util/validation.hpp"

namespace ecocloud::core {

AssignmentFunction::AssignmentFunction(double ta, double p) : ta_(ta), p_(p) {
  util::require(ta > 0.0 && ta <= 1.0, "AssignmentFunction: Ta must be in (0,1]");
  util::require(p > 0.0, "AssignmentFunction: p must be > 0");
  // Mp = p^p / (p+1)^(p+1) * Ta^(p+1)  (Eq. 2)
  mp_ = std::pow(p, p) / std::pow(p + 1.0, p + 1.0) * std::pow(ta, p + 1.0);
}

double AssignmentFunction::argmax() const { return p_ / (p_ + 1.0) * ta_; }

double AssignmentFunction::operator()(double u) const {
  if (u < 0.0 || u > ta_) return 0.0;
  return from_power(u, std::pow(u, p_));
}

AssignmentFunction AssignmentFunction::with_threshold(double new_ta) const {
  return AssignmentFunction(new_ta, p_);
}

LowMigrationFunction::LowMigrationFunction(double tl, double alpha)
    : tl_(tl), alpha_(alpha) {
  util::require(tl > 0.0 && tl < 1.0, "LowMigrationFunction: Tl must be in (0,1)");
  util::require(alpha > 0.0, "LowMigrationFunction: alpha must be > 0");
}

double LowMigrationFunction::operator()(double u) const {
  if (u >= tl_) return 0.0;
  if (u <= 0.0) return 1.0;
  return std::pow(1.0 - u / tl_, alpha_);
}

HighMigrationFunction::HighMigrationFunction(double th, double beta)
    : th_(th), beta_(beta) {
  util::require(th > 0.0 && th < 1.0, "HighMigrationFunction: Th must be in (0,1)");
  util::require(beta > 0.0, "HighMigrationFunction: beta must be > 0");
}

double HighMigrationFunction::operator()(double u) const {
  u = util::clamp01(u);
  if (u <= th_) return 0.0;
  return std::pow(1.0 + (u - 1.0) / (1.0 - th_), beta_);
}

}  // namespace ecocloud::core
