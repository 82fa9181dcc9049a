#include "src/common/rng.h"

#include <algorithm>
#include <cmath>

namespace msprint {

namespace {

// One xoshiro256** step over explicit state — the same recurrence as the
// inline path in Rng::Next, over a register-resident local copy, so the
// batched refill emits a bit-identical stream.
inline uint64_t Step(std::array<uint64_t, 4>& s) {
  auto rotl = [](uint64_t x, int k) { return (x << k) | (x >> (64 - k)); };
  const uint64_t result = rotl(s[1] * 5, 7) * 9;
  const uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
  return result;
}

}  // namespace

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t DeriveSeed(uint64_t parent_seed, uint64_t stream_index) {
  uint64_t s = parent_seed ^ (0xA0761D6478BD642FULL * (stream_index + 1));
  // Two SplitMix64 rounds decorrelate adjacent stream indices.
  SplitMix64(s);
  return SplitMix64(s);
}

Rng::Rng(uint64_t seed) {
  uint64_t s = seed;
  for (auto& word : state_) {
    word = SplitMix64(s);
  }
}

uint64_t Rng::Refill() {
  // Run the same core step `block` times into the buffer. The local copy
  // of the state lets the compiler keep it in registers across the
  // (unrollable) loop.
  std::array<uint64_t, 4> s = state_;
  for (size_t i = 0; i < batch_block_; ++i) {
    batch_[i] = Step(s);
  }
  state_ = s;
  batch_len_ = batch_block_;
  batch_pos_ = 1;
  return batch_[0];
}

void Rng::EnableBatchedDraws(size_t block) {
  batch_block_ = std::clamp<size_t>(block, 1, kMaxBatchBlock);
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::NextDoubleOpenZero() {
  // (0,1]: map the 53-bit draw k to (k+1) / 2^53.
  return (static_cast<double>(Next() >> 11) + 1.0) * 0x1.0p-53;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  if (bound == 0) {
    return 0;
  }
  // Lemire's nearly-divisionless method.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t low = static_cast<uint64_t>(m);
  if (low < bound) {
    const uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u, v, s;
  do {
    u = 2.0 * NextDouble() - 1.0;
    v = 2.0 * NextDouble() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_gaussian_ = v * factor;
  has_cached_gaussian_ = true;
  return u * factor;
}

}  // namespace msprint
