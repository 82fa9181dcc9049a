// Deterministic pseudo-random number generation for msprint.
//
// Every stochastic component in the library draws randomness through Rng so
// that simulations, profiling runs and ML training are exactly reproducible
// from a 64-bit seed. The generator is xoshiro256** seeded via SplitMix64,
// which is fast, has a 2^256-1 period and passes BigCrush — more than enough
// for discrete-event simulation.

#ifndef MSPRINT_SRC_COMMON_RNG_H_
#define MSPRINT_SRC_COMMON_RNG_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace msprint {

// SplitMix64 step. Used for seeding and for cheap stateless hashing of seed
// material (e.g. deriving per-replication seeds from a master seed).
uint64_t SplitMix64(uint64_t& state);

// Derives a well-mixed child seed from a parent seed and a stream index.
// Children with distinct indices are statistically independent streams.
uint64_t DeriveSeed(uint64_t parent_seed, uint64_t stream_index);

// xoshiro256** generator. Satisfies the C++ UniformRandomBitGenerator
// concept so it can be used with <random> adaptors when convenient, but the
// library's distributions (see distribution.h) sample from it directly.
class Rng {
 public:
  using result_type = uint64_t;

  // Largest refill block EnableBatchedDraws accepts.
  static constexpr size_t kMaxBatchBlock = 256;

  explicit Rng(uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  // Next raw 64-bit draw. With batching enabled, serves from the refill
  // buffer; the value sequence is identical either way. The unbatched
  // step is inline so that multi-draw callers (the polar-method rejection
  // loop, Lemire retries, back-to-back samples in pre-generation) keep
  // the whole state in registers across consecutive draws.
  uint64_t Next() {
    if (batch_pos_ < batch_len_) {
      return batch_[batch_pos_++];
    }
    if (batch_block_ != 0) {
      return Refill();
    }
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }
  result_type operator()() { return Next(); }

  // Opt-in batched draws for hot simulation loops: refills `block` raw
  // 64-bit outputs from the generator core at once and serves Next() from
  // the buffer. Only the refill granularity changes — the draw sequence
  // is bit-identical to unbatched operation by construction, because the
  // refill loop runs the exact same core step in the exact same order.
  // The tight refill loop breaks the serial dependency between a state
  // update and the consumer's use of the draw, which is what makes it
  // faster.
  void EnableBatchedDraws(size_t block = kMaxBatchBlock);

  // Uniform double in [0, 1). 53 bits of mantissa entropy.
  double NextDouble();

  // Uniform double in (0, 1] — safe to pass to log().
  double NextDoubleOpenZero();

  // Uniform integer in [0, bound) without modulo bias (Lemire's method).
  uint64_t NextBounded(uint64_t bound);

  // Standard normal via polar Box-Muller (caches the second deviate).
  double NextGaussian();

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  // Batched-mode refill: runs the same core step `batch_block_` times
  // into the buffer and serves the first value.
  uint64_t Refill();

  std::array<uint64_t, 4> state_;
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;

  // Batched-draw buffer; inactive (batch_block_ == 0) by default.
  size_t batch_pos_ = 0;
  size_t batch_len_ = 0;
  size_t batch_block_ = 0;
  std::array<uint64_t, kMaxBatchBlock> batch_;
};

}  // namespace msprint

#endif  // MSPRINT_SRC_COMMON_RNG_H_
