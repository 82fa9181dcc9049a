// Shared discrete-event queue for the two event engines (queue simulator,
// ground-truth testbed).
//
// This replaces the per-engine `std::priority_queue<Event>` heaps with a
// two-mode structure:
//
//   * Flat mode (small event sets). Events live in one unordered vector;
//     PopMin is a linear min-scan with swap-removal. The engines' live
//     event sets are tiny — one pending arrival plus at most a departure
//     and a timeout per busy slot — and at that size a linear scan beats
//     both a binary heap (pointer chasing, allocation) and calendar
//     buckets (bucket-advance bookkeeping).
//
//   * Calendar mode (Brown, CACM '88), entered automatically once the
//     set outgrows the flat threshold: events hash into a power-of-two
//     bucket array by `floor(time / width)`, pops scan the current
//     bucket "day" and advance one bucket at a time, and the structure
//     resizes so buckets stay near one event each — amortized O(1)
//     push/pop at sizes where the heap's O(log n) and the flat scan's
//     O(n) both lose. Each calendar slot caches its virtual bucket
//     number so day scans compare integers instead of re-dividing
//     timestamps.
//
// Ordering contract (both modes). Events pop in nondecreasing
// (time, seq) order, where `seq` is the insertion sequence number
// assigned by Push. Two events with bit-identical timestamps therefore
// pop in insertion order. The old heaps compared `time` only, leaving
// same-timestamp order to the whim of the binary-heap layout; every
// engine now inherits the explicit tiebreak instead. Mode switches,
// bucket resizes and calendar rollovers are pure functions of the event
// multiset and insertion sequence, so a run's pop sequence is identical
// across platforms.
//
// Representation. The (time, seq, type) triple is packed into one
// 128-bit integer key: the IEEE-754 bit pattern of a non-negative double
// orders exactly like the double itself, so `(bits(time) << 64) |
// (seq << 3) | type` makes "earlier event" a single unsigned compare —
// a 32-byte record and a one-branch min-scan, matching the footprint of
// the heap entries it replaced. Timestamps must be finite and
// non-negative (simulation clocks start at zero); Push normalizes -0.0
// to +0.0 so the bit-pattern trick cannot misorder the two zeros.
//
// Thread-compatibility: one EventQueue per engine run, no sharing.

#ifndef MSPRINT_SRC_CORE_EVENT_QUEUE_H_
#define MSPRINT_SRC_CORE_EVENT_QUEUE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace msprint {

// One scheduled event. `type` is the engine's own enum cast to a 3-bit
// code; `query` and `stamp` are opaque payload (the engines use them for
// the query index and the supersession stamp).
struct EventRecord {
  unsigned __int128 key = 0;  // (time bits << 64) | (seq << 3) | type
  uint64_t query = 0;
  uint64_t stamp = 0;

  double time() const {
    const uint64_t bits = static_cast<uint64_t>(key >> 64);
    double t;
    std::memcpy(&t, &bits, sizeof(t));
    return t;
  }
  uint32_t type() const { return static_cast<uint32_t>(key) & 7u; }
  uint64_t seq() const { return (static_cast<uint64_t>(key) >> 3); }
};

class EventQueue {
 public:
  // `width_hint` seeds the calendar bucket width (seconds per bucket);
  // pass the expected inter-event gap (e.g. the mean interarrival time)
  // when known. The queue re-estimates width on every resize, so the
  // hint only matters for the first few events after a mode switch.
  explicit EventQueue(double width_hint = 1.0);

  // Flat-mode push/pop are inline: the engines sit in flat mode for
  // their whole run, and an out-of-line call per event would cost as
  // much as the min-scan itself (the old std::priority_queue was
  // all-header too). `type` must fit in 3 bits.
  void Push(double time, uint32_t type, uint64_t query, uint64_t stamp) {
    assert(time >= 0.0);
    assert(type < 8u);
    EventRecord record;
    record.key = MakeKey(time + 0.0, next_seq_++, type);
    record.query = query;
    record.stamp = stamp;
    if (!calendar_) {
      flat_.push_back(record);
      ++size_;
      if (size_ > kFlatThreshold) {
        EnterCalendarMode();
      }
      return;
    }
    PushCalendar(record);
  }

  // Removes and returns the minimum event by (time, seq).
  // Precondition: !empty().
  EventRecord PopMin() {
    assert(size_ > 0);
    return calendar_ ? PopMinCalendar() : PopMinFlat();
  }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  // Flat mode serves up to this many events; beyond it the queue
  // migrates to calendar buckets. The engines' steady-state sets (a
  // pending arrival plus a departure/timeout pair per busy slot, and the
  // testbed's breaker schedule) stay well under this, so they never
  // leave the scan-friendly flat path.
  static constexpr size_t kFlatThreshold = 32;

 private:
  // A calendar bucket entry: the record plus its virtual bucket number,
  // computed once on insertion so day scans never divide.
  struct CalendarSlot {
    EventRecord record;
    uint64_t vbucket;
  };

  static unsigned __int128 MakeKey(double time, uint64_t seq, uint32_t type) {
    uint64_t bits;
    std::memcpy(&bits, &time, sizeof(bits));
    return (static_cast<unsigned __int128>(bits) << 64) | (seq << 3) | type;
  }

  // Virtual bucket number: position on the unbounded calendar. The
  // physical bucket is `virtual & mask_`; the "day" is the virtual
  // number itself.
  uint64_t VirtualBucket(double time) const;

  EventRecord PopMinFlat() {
    size_t best = 0;
    const size_t count = flat_.size();
    for (size_t i = 1; i < count; ++i) {
      if (flat_[i].key < flat_[best].key) {
        best = i;
      }
    }
    const EventRecord record = flat_[best];
    flat_[best] = flat_.back();
    flat_.pop_back();
    --size_;
    return record;
  }

  void PushCalendar(EventRecord record);
  EventRecord PopMinCalendar();
  void EnterCalendarMode();
  // Drains every event, re-estimates the width from the drained set, and
  // reinserts into `bucket_count` buckets (seq numbers survive).
  void Rebuild(size_t bucket_count);
  double EstimateWidth(const std::vector<CalendarSlot>& slots) const;
  std::vector<CalendarSlot> Drain();

  // Flat mode storage (calendar_ false).
  std::vector<EventRecord> flat_;

  // Calendar mode storage (calendar_ true).
  std::vector<std::vector<CalendarSlot>> buckets_;
  size_t mask_ = 0;      // bucket_count - 1 (power of two)
  uint64_t cursor_ = 0;  // virtual bucket the day scan resumes from

  bool calendar_ = false;
  double width_ = 1.0;  // seconds per calendar bucket
  size_t size_ = 0;
  uint64_t next_seq_ = 0;
};

}  // namespace msprint

#endif  // MSPRINT_SRC_CORE_EVENT_QUEUE_H_
