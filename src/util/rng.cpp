#include "ecocloud/util/rng.hpp"

#include <cmath>

#include "ecocloud/util/validation.hpp"

namespace ecocloud::util {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) {
    word = splitmix64(sm);
  }
  // A theoretically possible all-zero state would make the generator stick.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) {
    state_[0] = 0x9E3779B97F4A7C15ULL;
  }
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

Rng::State Rng::state() const {
  State st;
  st.s = state_;
  st.cached_normal = cached_normal_;
  st.has_cached_normal = has_cached_normal_;
  return st;
}

void Rng::set_state(const State& state) {
  require((state.s[0] | state.s[1] | state.s[2] | state.s[3]) != 0,
          "Rng::set_state: all-zero state is invalid");
  state_ = state.s;
  cached_normal_ = state.cached_normal;
  has_cached_normal_ = state.has_cached_normal;
}

Rng Rng::split(std::uint64_t stream_id) const {
  std::uint64_t sm = state_[0] ^ rotl(state_[3], 23) ^ (stream_id * 0xD1342543DE82EF95ULL);
  return Rng(splitmix64(sm));
}

double Rng::uniform() {
  // 53 random bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  require(lo <= hi, "Rng::uniform: lo must be <= hi");
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  require(n > 0, "Rng::uniform_int: n must be > 0");
  // Lemire-style rejection to eliminate modulo bias.
  const std::uint64_t threshold = (~n + 1) % n;  // == 2^64 mod n
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return r % n;
  }
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::exponential(double rate) {
  require(rate > 0.0, "Rng::exponential: rate must be > 0");
  double u;
  do {
    u = uniform();
  } while (u == 0.0);
  return -std::log(u) / rate;
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1;
  do {
    u1 = uniform();
  } while (u1 == 0.0);
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::normal(double mean, double stddev) {
  require(stddev >= 0.0, "Rng::normal: stddev must be >= 0");
  return mean + stddev * normal();
}

void Rng::discard_normals(std::uint64_t n) {
  if (n > 0 && has_cached_normal_) {
    has_cached_normal_ = false;
    --n;
  }
  // Whole pairs as raw outputs, keeping normal()'s u1 == 0 rejection
  // (uniform() is 0 exactly when the top 53 bits are). The last one or two
  // draws go through normal() so cached_normal_ ends bit-exact as well: the
  // State carries it even when has_cached_normal_ is false.
  for (; n > 2; n -= 2) {
    while (((*this)() >> 11) == 0) {
    }
    (void)(*this)();
  }
  for (; n > 0; --n) (void)normal();
}

std::size_t Rng::discrete(const std::vector<double>& weights) {
  require(!weights.empty(), "Rng::discrete: weights must be non-empty");
  double total = 0.0;
  for (double w : weights) {
    require(w >= 0.0, "Rng::discrete: weights must be non-negative");
    total += w;
  }
  require(total > 0.0, "Rng::discrete: at least one weight must be positive");
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  // Floating-point rounding can exhaust the loop; return the last positive.
  for (std::size_t i = weights.size(); i-- > 0;) {
    if (weights[i] > 0.0) return i;
  }
  return weights.size() - 1;
}

std::size_t Rng::index(std::size_t size) {
  require(size > 0, "Rng::index: size must be > 0");
  return static_cast<std::size_t>(uniform_int(size));
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(uniform_int(i));
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

}  // namespace ecocloud::util
