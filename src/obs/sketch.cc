#include "src/obs/sketch.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "src/obs/metrics.h"
#include "src/obs/wire.h"

namespace msprint {
namespace obs {
namespace {

constexpr uint32_t kSketchMagic = 0x314B5351;  // "QSK1"
constexpr uint8_t kSketchVersion = 1;

}  // namespace

QuantileSketch::QuantileSketch(double relative_accuracy)
    : relative_accuracy_(relative_accuracy) {
  if (!std::isfinite(relative_accuracy) || relative_accuracy <= 0.0 ||
      relative_accuracy >= 1.0) {
    throw std::invalid_argument(
        "QuantileSketch: relative_accuracy must lie in (0, 1)");
  }
  gamma_ = (1.0 + relative_accuracy) / (1.0 - relative_accuracy);
  inv_log_gamma_ = 1.0 / std::log(gamma_);
}

bool QuantileSketch::Insert(double value) {
  if (!std::isfinite(value) || value < 0.0) {
    ++rejected_;
    return false;
  }
  if (value < kMinTracked) {
    ++zero_count_;
  } else {
    const int32_t index =
        static_cast<int32_t>(std::ceil(std::log(value) * inv_log_gamma_));
    ++buckets_[index];
  }
  ++count_;
  if (!has_bounds_) {
    has_bounds_ = true;
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  return true;
}

void QuantileSketch::Merge(const QuantileSketch& other) {
  // Compare bit patterns, not values: a sketch deserialized from bytes
  // must merge with one built in-process from the same accuracy literal.
  uint64_t mine;
  uint64_t theirs;
  static_assert(sizeof(mine) == sizeof(relative_accuracy_), "f64 width");
  std::memcpy(&mine, &relative_accuracy_, sizeof(mine));
  std::memcpy(&theirs, &other.relative_accuracy_, sizeof(theirs));
  if (mine != theirs) {
    throw std::invalid_argument(
        "QuantileSketch::Merge: relative_accuracy mismatch");
  }
  for (const auto& [index, bucket_count] : other.buckets_) {
    buckets_[index] += bucket_count;
  }
  zero_count_ += other.zero_count_;
  count_ += other.count_;
  rejected_ += other.rejected_;
  if (other.has_bounds_) {
    if (!has_bounds_) {
      has_bounds_ = true;
      min_ = other.min_;
      max_ = other.max_;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
  }
}

double QuantileSketch::Quantile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  const uint64_t target = QuantileRankTarget(count_, q);
  uint64_t cumulative = zero_count_;
  if (cumulative >= target) {
    return min_;
  }
  for (const auto& [index, bucket_count] : buckets_) {
    cumulative += bucket_count;
    if (cumulative >= target) {
      // Midpoint representative of the log bucket
      // (gamma^(i-1), gamma^i]: 2 * gamma^i / (gamma + 1).
      const double representative =
          2.0 * std::pow(gamma_, static_cast<double>(index)) / (gamma_ + 1.0);
      return std::min(std::max(representative, min_), max_);
    }
  }
  return max_;
}

bool QuantileSketch::IsFresh(double relative_accuracy) const {
  return count_ == 0 && zero_count_ == 0 && rejected_ == 0 && !has_bounds_ &&
         buckets_.empty() && std::bit_cast<uint64_t>(min_) == 0 &&
         std::bit_cast<uint64_t>(max_) == 0 &&
         std::bit_cast<uint64_t>(relative_accuracy_) ==
             std::bit_cast<uint64_t>(relative_accuracy);
}

std::string QuantileSketch::Serialize() const {
  std::string out;
  wire::PutU32(out, kSketchMagic);
  out.push_back(static_cast<char>(kSketchVersion));
  wire::PutF64(out, relative_accuracy_);
  wire::PutU64(out, count_);
  wire::PutU64(out, zero_count_);
  wire::PutU64(out, rejected_);
  wire::PutBool(out, has_bounds_);
  wire::PutF64(out, min_);
  wire::PutF64(out, max_);
  wire::PutU64(out, buckets_.size());
  for (const auto& [index, bucket_count] : buckets_) {
    wire::PutI32(out, index);
    wire::PutU64(out, bucket_count);
  }
  return out;
}

QuantileSketch QuantileSketch::Deserialize(std::string_view bytes) {
  wire::Cursor cursor(bytes);
  if (cursor.GetU32() != kSketchMagic) {
    throw std::invalid_argument("QuantileSketch: bad magic");
  }
  if (cursor.GetU8() != kSketchVersion) {
    throw std::invalid_argument("QuantileSketch: unsupported version");
  }
  const double accuracy = cursor.GetFiniteF64("QuantileSketch accuracy");
  if (accuracy <= 0.0 || accuracy >= 1.0) {
    throw std::invalid_argument(
        "QuantileSketch: relative_accuracy out of range");
  }
  QuantileSketch sketch(accuracy);
  sketch.count_ = cursor.GetU64();
  sketch.zero_count_ = cursor.GetU64();
  sketch.rejected_ = cursor.GetU64();
  sketch.has_bounds_ = cursor.GetBool();
  sketch.min_ = cursor.GetF64();
  sketch.max_ = cursor.GetF64();
  if (sketch.has_bounds_) {
    if (!std::isfinite(sketch.min_) || !std::isfinite(sketch.max_) ||
        sketch.min_ < 0.0 || sketch.min_ > sketch.max_) {
      throw std::invalid_argument("QuantileSketch: invalid bounds");
    }
  } else if (sketch.min_ != 0.0 || sketch.max_ != 0.0 ||
             sketch.count_ != 0) {
    throw std::invalid_argument(
        "QuantileSketch: nonzero state without bounds");
  }
  const uint64_t num_buckets = cursor.GetCount(12, "QuantileSketch buckets");
  uint64_t bucket_total = 0;
  int32_t previous_index = 0;
  for (uint64_t i = 0; i < num_buckets; ++i) {
    const int32_t index = cursor.GetI32();
    const uint64_t bucket_count = cursor.GetU64();
    if (i > 0 && index <= previous_index) {
      throw std::invalid_argument("QuantileSketch: bucket order violated");
    }
    if (bucket_count == 0) {
      throw std::invalid_argument("QuantileSketch: empty bucket encoded");
    }
    previous_index = index;
    if (bucket_total > UINT64_MAX - bucket_count) {
      throw std::invalid_argument("QuantileSketch: bucket count overflow");
    }
    bucket_total += bucket_count;
    sketch.buckets_.emplace_hint(sketch.buckets_.end(), index, bucket_count);
  }
  if (bucket_total > UINT64_MAX - sketch.zero_count_ ||
      bucket_total + sketch.zero_count_ != sketch.count_) {
    throw std::invalid_argument(
        "QuantileSketch: bucket totals disagree with count");
  }
  cursor.ExpectEnd();
  return sketch;
}

}  // namespace obs
}  // namespace msprint
