#include "src/obs/sketch.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "src/common/stats.h"
#include "src/persist/persist.h"

namespace msprint {
namespace obs {
namespace {

constexpr uint32_t kSketchMagic = 0x314B5351;  // "QSK1"
constexpr uint8_t kSketchVersion = 1;

[[noreturn]] void Malformed(const char* what) {
  throw persist::PersistError(persist::ErrorCode::kFormat,
                              std::string("QuantileSketch: ") + what);
}

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
  persist::Writer w;
  w.PutU32(kSketchMagic);
  w.PutU8(kSketchVersion);
  w.PutF64(relative_accuracy_);
  w.PutU64(count_);
  w.PutU64(zero_count_);
  w.PutU64(rejected_);
  w.PutBool(has_bounds_);
  w.PutF64(min_);
  w.PutF64(max_);
  w.PutU64(buckets_.size());
  for (const auto& [index, bucket_count] : buckets_) {
    w.PutU32(static_cast<uint32_t>(index));
    w.PutU64(bucket_count);
  }
  return w.Take();
}

QuantileSketch QuantileSketch::Deserialize(std::string_view bytes) {
  persist::Reader r(bytes);
  if (r.GetU32() != kSketchMagic) {
    Malformed("bad magic");
  }
  if (r.GetU8() != kSketchVersion) {
    Malformed("unsupported version");
  }
  const double accuracy = r.GetFiniteF64("QuantileSketch accuracy");
  if (accuracy <= 0.0 || accuracy >= 1.0) {
    Malformed("relative_accuracy out of range");
  }
  QuantileSketch sketch(accuracy);
  sketch.count_ = r.GetU64();
  sketch.zero_count_ = r.GetU64();
  sketch.rejected_ = r.GetU64();
  sketch.has_bounds_ = r.GetBool();
  sketch.min_ = r.GetF64();
  sketch.max_ = r.GetF64();
  if (sketch.has_bounds_) {
    if (!std::isfinite(sketch.min_) || !std::isfinite(sketch.max_) ||
        sketch.min_ < 0.0 || sketch.min_ > sketch.max_) {
      Malformed("invalid bounds");
    }
  } else if (sketch.min_ != 0.0 || sketch.max_ != 0.0 ||
             sketch.count_ != 0) {
    Malformed("nonzero state without bounds");
  }
  const uint64_t num_buckets = r.GetCount(12, "QuantileSketch buckets");
  uint64_t bucket_total = 0;
  int32_t previous_index = 0;
  for (uint64_t i = 0; i < num_buckets; ++i) {
    const int32_t index = static_cast<int32_t>(r.GetU32());
    const uint64_t bucket_count = r.GetU64();
    if (i > 0 && index <= previous_index) {
      Malformed("bucket order violated");
    }
    if (bucket_count == 0) {
      Malformed("empty bucket encoded");
    }
    previous_index = index;
    if (bucket_total > UINT64_MAX - bucket_count) {
      Malformed("bucket count overflow");
    }
    bucket_total += bucket_count;
    sketch.buckets_.emplace_hint(sketch.buckets_.end(), index, bucket_count);
  }
  if (bucket_total > UINT64_MAX - sketch.zero_count_ ||
      bucket_total + sketch.zero_count_ != sketch.count_) {
    Malformed("bucket totals disagree with count");
  }
  r.ExpectEnd();
  return sketch;
}

}  // namespace obs
}  // namespace msprint
