#include "src/core/event_queue.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace msprint {
namespace {

constexpr size_t kInitialBuckets = 128;  // power of two
constexpr size_t kMaxBuckets = 1 << 20;  // resize ceiling
constexpr double kMinWidth = 1e-9;

// Virtual bucket numbers are clamped here so the double->uint64 cast is
// always defined. Everything at or beyond the clamp collapses into one
// far-future bucket; ordering inside a bucket is by key, so the clamp
// never reorders events.
constexpr double kMaxVirtual = 9.0e18;

}  // namespace

EventQueue::EventQueue(double width_hint) {
  width_ = std::isfinite(width_hint) && width_hint > kMinWidth ? width_hint
                                                               : 1.0;
  flat_.reserve(kFlatThreshold + 1);
}

uint64_t EventQueue::VirtualBucket(double time) const {
  const double q = time / width_;
  if (!(q > 0.0)) {
    return 0;  // t <= 0 maps to the first bucket
  }
  if (q >= kMaxVirtual) {
    return static_cast<uint64_t>(kMaxVirtual);
  }
  return static_cast<uint64_t>(q);
}

void EventQueue::PushCalendar(EventRecord record) {
  const uint64_t vb = VirtualBucket(record.time());
  buckets_[vb & mask_].push_back({record, vb});
  ++size_;
  if (vb < cursor_) {
    // Inserted behind the scan position: rewind so the new event cannot
    // be skipped for a whole calendar year.
    cursor_ = vb;
  }
  if (size_ > 2 * (mask_ + 1) && (mask_ + 1) < kMaxBuckets) {
    Rebuild(2 * (mask_ + 1));
  }
}

EventRecord EventQueue::PopMinCalendar() {
  const size_t bucket_count = mask_ + 1;

  // Scan one calendar day: at most one full lap over the physical buckets.
  for (size_t lap = 0; lap < bucket_count; ++lap) {
    std::vector<CalendarSlot>& bucket = buckets_[cursor_ & mask_];
    size_t best = bucket.size();
    for (size_t i = 0; i < bucket.size(); ++i) {
      if (bucket[i].vbucket != cursor_) {
        continue;  // same physical bucket, different day
      }
      if (best == bucket.size() ||
          bucket[i].record.key < bucket[best].record.key) {
        best = i;
      }
    }
    if (best != bucket.size()) {
      const EventRecord record = bucket[best].record;
      bucket[best] = bucket.back();
      bucket.pop_back();
      --size_;
      return record;
    }
    ++cursor_;
  }

  // A whole year was empty: the next event is more than bucket_count days
  // ahead. Find the global minimum directly and jump the calendar to it.
  const CalendarSlot* min_slot = nullptr;
  for (const auto& bucket : buckets_) {
    for (const CalendarSlot& slot : bucket) {
      if (min_slot == nullptr || slot.record.key < min_slot->record.key) {
        min_slot = &slot;
      }
    }
  }
  assert(min_slot != nullptr);
  cursor_ = min_slot->vbucket;
  const EventRecord result = min_slot->record;
  std::vector<CalendarSlot>& bucket = buckets_[cursor_ & mask_];
  const size_t index = static_cast<size_t>(min_slot - bucket.data());
  bucket[index] = bucket.back();
  bucket.pop_back();
  --size_;
  return result;
}

std::vector<EventQueue::CalendarSlot> EventQueue::Drain() {
  std::vector<CalendarSlot> all;
  all.reserve(size_);
  if (calendar_) {
    for (auto& bucket : buckets_) {
      all.insert(all.end(), bucket.begin(), bucket.end());
      bucket.clear();
    }
  } else {
    for (const EventRecord& record : flat_) {
      all.push_back({record, 0});  // vbucket recomputed on reinsertion
    }
    flat_.clear();
  }
  return all;
}

double EventQueue::EstimateWidth(
    const std::vector<CalendarSlot>& slots) const {
  if (slots.size() < 2) {
    return width_;
  }
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const CalendarSlot& slot : slots) {
    const double t = slot.record.time();
    lo = std::min(lo, t);
    hi = std::max(hi, t);
  }
  if (!(hi > lo)) {
    return width_;  // all events simultaneous: any width works
  }
  // Aim for ~2 average inter-event gaps per bucket (Brown's heuristic
  // keeps bucket occupancy near one while tolerating mild clustering).
  return std::max(kMinWidth,
                  2.0 * (hi - lo) / static_cast<double>(slots.size()));
}

void EventQueue::EnterCalendarMode() {
  std::vector<CalendarSlot> all = Drain();
  calendar_ = true;
  width_ = EstimateWidth(all);
  size_t bucket_count = kInitialBuckets;
  while (bucket_count < all.size() && bucket_count < kMaxBuckets) {
    bucket_count *= 2;
  }
  buckets_.resize(bucket_count);
  mask_ = bucket_count - 1;
  uint64_t min_vb = std::numeric_limits<uint64_t>::max();
  for (CalendarSlot& slot : all) {
    slot.vbucket = VirtualBucket(slot.record.time());
    min_vb = std::min(min_vb, slot.vbucket);
    buckets_[slot.vbucket & mask_].push_back(slot);  // seq survives
  }
  cursor_ = all.empty() ? 0 : min_vb;
}

void EventQueue::Rebuild(size_t bucket_count) {
  std::vector<CalendarSlot> all = Drain();
  buckets_.resize(bucket_count);
  mask_ = bucket_count - 1;
  width_ = EstimateWidth(all);
  uint64_t min_vb = std::numeric_limits<uint64_t>::max();
  for (CalendarSlot& slot : all) {
    slot.vbucket = VirtualBucket(slot.record.time());
    min_vb = std::min(min_vb, slot.vbucket);
    buckets_[slot.vbucket & mask_].push_back(slot);
  }
  cursor_ = all.empty() ? 0 : min_vb;
}

}  // namespace msprint
