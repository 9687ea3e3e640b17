// Deterministic pseudo-random number generation for simulations.
//
// All stochastic components in this library (discrete-event simulator,
// response dynamics schedulers, distributed allocator) draw from an explicit
// Rng instance so that every experiment is reproducible bit-for-bit from its
// seed. The generator is xoshiro256** (Blackman & Vigna), seeded through
// SplitMix64 per the authors' recommendation; it is fast, has a 2^256-1
// period and passes BigCrush.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace mrca {

/// SplitMix64: used to expand a single 64-bit seed into generator state.
/// Also usable standalone as a tiny, stateless-feeling mixer.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: the library-wide PRNG.
///
/// Satisfies std::uniform_random_bit_generator, so it can be plugged into
/// <random> distributions as well, though the member helpers below are
/// preferred (they are deterministic across standard library versions).
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a 64-bit seed via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept { return next_u64(); }

  std::uint64_t next_u64() noexcept;

  /// Uniform integer in [0, bound). Uses Lemire's nearly-divisionless
  /// unbiased method. bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double next_double() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept;

  /// Exponentially distributed variate with the given rate (mean 1/rate).
  /// rate must be > 0.
  double exponential(double rate) noexcept;

  /// Uniformly random index into a container of the given size (> 0).
  std::size_t index(std::size_t size) noexcept {
    return static_cast<std::size_t>(next_below(size));
  }

  /// Derives an independent child generator (for per-entity streams).
  Rng split() noexcept;

 private:
  std::array<std::uint64_t, 4> state_{};
};

}  // namespace mrca
