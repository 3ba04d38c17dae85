#pragma once

/// \file rng.hpp
/// \brief Deterministic, splittable random number generation.
///
/// All stochastic behaviour in the library flows through Rng so that every
/// experiment is reproducible from a single 64-bit seed. The generator is
/// xoshiro256** (Blackman & Vigna), seeded via SplitMix64; both are
/// implemented locally so results are identical across standard libraries.

#include <array>
#include <cstdint>
#include <vector>

namespace ecocloud::util {

/// SplitMix64 step: used for seeding and for cheap stateless hashing.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** pseudo-random generator with distribution helpers.
///
/// Satisfies UniformRandomBitGenerator, so it can also be plugged into
/// <random> distributions, although the built-in helpers are preferred for
/// cross-platform determinism.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Construct from a 64-bit seed (expanded through SplitMix64).
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~static_cast<result_type>(0); }

  /// Next raw 64-bit output.
  result_type operator()();

  /// Derive an independent child generator (stream splitting). Children with
  /// different \p stream_id values are statistically independent of the
  /// parent and of each other.
  [[nodiscard]] Rng split(std::uint64_t stream_id) const;

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n), n > 0. Uses rejection to avoid modulo bias.
  std::uint64_t uniform_int(std::uint64_t n);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Exponential variate with the given rate (> 0).
  double exponential(double rate);

  /// Standard normal variate (Box-Muller; one value per call, cached pair).
  double normal();

  /// Normal variate with the given mean and standard deviation (>= 0).
  double normal(double mean, double stddev);

  /// Advance the stream exactly as \p n calls of normal() would, leaving
  /// the identical State (cached half included). Whole Box-Muller pairs
  /// are skipped as raw outputs; only the final pair is computed, so the
  /// cost is O(n) raw steps plus O(1) transcendental calls.
  void discard_normals(std::uint64_t n);

  /// Sample an index from unnormalized non-negative weights.
  /// Throws std::invalid_argument if weights are empty or all zero.
  std::size_t discrete(const std::vector<double>& weights);

  /// Random index into a container of the given size (> 0).
  std::size_t index(std::size_t size);

  /// Fisher-Yates shuffle of an index permutation [0, n).
  [[nodiscard]] std::vector<std::size_t> permutation(std::size_t n);

  /// Complete generator state, exposed for checkpoint/restore. Restoring a
  /// saved State resumes the stream exactly where it left off, including
  /// the Box-Muller cached second normal.
  struct State {
    std::array<std::uint64_t, 4> s{};
    double cached_normal = 0.0;
    bool has_cached_normal = false;
  };

  [[nodiscard]] State state() const;
  void set_state(const State& state);

 private:
  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace ecocloud::util
