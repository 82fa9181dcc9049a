// Correctness of the shared calendar event queue: its pop order must be
// exactly the (time, insertion-seq) total order, regardless of bucket
// widths, resize history, or how far apart events land on the calendar.
// The reference model is a std::priority_queue over (time, seq) — the old
// engines' heap plus the explicit tiebreak the engines now rely on.

#include "src/core/event_queue.h"

#include <gtest/gtest.h>

#include <cmath>
#include <queue>
#include <tuple>
#include <vector>

#include "src/common/rng.h"

namespace msprint {
namespace {

struct RefEvent {
  double time;
  uint64_t seq;
  uint32_t type;
  uint64_t query;
  uint64_t stamp;

  bool operator>(const RefEvent& other) const {
    return std::tie(time, seq) > std::tie(other.time, other.seq);
  }
};

using RefQueue =
    std::priority_queue<RefEvent, std::vector<RefEvent>, std::greater<>>;

void ExpectMatches(const EventRecord& got, const RefEvent& want) {
  ASSERT_EQ(got.time(), want.time);
  ASSERT_EQ(got.seq(), want.seq);
  ASSERT_EQ(got.type(), want.type);
  ASSERT_EQ(got.query, want.query);
  ASSERT_EQ(got.stamp, want.stamp);
}

TEST(EventQueueTest, SameTimestampPopsInInsertionOrder) {
  // The deterministic tiebreak the engines depend on: simultaneous events
  // pop in the order they were pushed, not in heap-layout order.
  EventQueue queue;
  for (uint64_t i = 0; i < 16; ++i) {
    queue.Push(42.0, /*type=*/3, /*query=*/i, /*stamp=*/100 + i);
  }
  for (uint64_t i = 0; i < 16; ++i) {
    const EventRecord record = queue.PopMin();
    EXPECT_EQ(record.time(), 42.0);
    EXPECT_EQ(record.query, i);
    EXPECT_EQ(record.stamp, 100 + i);
  }
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, TiesInterleavedWithDistinctTimes) {
  EventQueue queue;
  queue.Push(5.0, 0, 0, 0);
  queue.Push(3.0, 0, 1, 0);
  queue.Push(5.0, 0, 2, 0);  // ties with query 0; pushed later
  queue.Push(1.0, 0, 3, 0);
  queue.Push(3.0, 0, 4, 0);  // ties with query 1; pushed later

  std::vector<uint64_t> order;
  while (!queue.empty()) {
    order.push_back(queue.PopMin().query);
  }
  EXPECT_EQ(order, (std::vector<uint64_t>{3, 1, 4, 0, 2}));
}

TEST(EventQueueTest, RandomInterleavingsMatchReferenceHeap) {
  // 10k random push/pop interleavings against the reference heap, across
  // several arrival-scale regimes so bucket widths get exercised from
  // sub-second to multi-hour gaps.
  const double scales[] = {0.001, 1.0, 3600.0};
  for (double scale : scales) {
    Rng rng(0xE0E0 + static_cast<uint64_t>(scale * 1000.0));
    EventQueue queue(/*width_hint=*/scale);
    RefQueue reference;
    uint64_t seq = 0;
    double clock = 0.0;  // pops are monotone; pushes land at/after clock

    for (int step = 0; step < 10000; ++step) {
      const bool push = reference.empty() || rng.NextDouble() < 0.55;
      if (push) {
        // Cluster times so ties actually happen: quantize to a small grid
        // with probability 1/4.
        double t = clock + rng.NextDouble() * 20.0 * scale;
        if (rng.NextBounded(4) == 0) {
          t = clock + std::floor(rng.NextDouble() * 4.0) * scale;
        }
        const uint32_t type = static_cast<uint32_t>(rng.NextBounded(3));
        const uint64_t query = rng.Next();
        const uint64_t stamp = rng.Next();
        queue.Push(t, type, query, stamp);
        reference.push({t, seq++, type, query, stamp});
      } else {
        const RefEvent want = reference.top();
        reference.pop();
        ASSERT_FALSE(queue.empty());
        const EventRecord got = queue.PopMin();
        ExpectMatches(got, want);
        clock = want.time;
      }
      ASSERT_EQ(queue.size(), reference.size());
    }
    while (!reference.empty()) {
      const RefEvent want = reference.top();
      reference.pop();
      ExpectMatches(queue.PopMin(), want);
    }
    EXPECT_TRUE(queue.empty());
  }
}

TEST(EventQueueTest, GrowthResizePreservesOrder) {
  // Push far more events than the initial bucket count so the queue
  // rebuilds several times, then drain and check global sortedness plus
  // the seq tiebreak.
  EventQueue queue;
  Rng rng(99);
  for (int i = 0; i < 5000; ++i) {
    queue.Push(std::floor(rng.NextDouble() * 100.0), 0, static_cast<uint64_t>(i),
               0);
  }
  double prev_time = -1.0;
  uint64_t prev_seq = 0;
  bool first = true;
  while (!queue.empty()) {
    const EventRecord record = queue.PopMin();
    if (!first) {
      ASSERT_GE(record.time(), prev_time);
      if (record.time() == prev_time) {
        ASSERT_GT(record.seq(), prev_seq);
      }
    }
    first = false;
    prev_time = record.time();
    prev_seq = record.seq();
  }
}

TEST(EventQueueTest, SparseCalendarRollsOverToDirectSearch) {
  // Events many calendar years apart force the year-lap fallback: with 8
  // initial buckets and width ~1, an event 1e9 seconds ahead is ~1e8 days
  // past the cursor. The pop must still find it (by direct search) and
  // later pops must keep working.
  EventQueue queue(/*width_hint=*/1.0);
  queue.Push(0.5, 0, 1, 0);
  queue.Push(1.0e9, 0, 2, 0);
  queue.Push(3.0e9, 0, 3, 0);
  EXPECT_EQ(queue.PopMin().query, 1u);
  // Push behind the scan cursor after it jumped forward: the queue must
  // rewind rather than lose the event for a year.
  EXPECT_EQ(queue.PopMin().query, 2u);
  queue.Push(2.0e9, 0, 4, 0);
  EXPECT_EQ(queue.PopMin().query, 4u);
  EXPECT_EQ(queue.PopMin().query, 3u);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, ZeroAndIdenticalTimesAllInBucketZero) {
  EventQueue queue(/*width_hint=*/1000.0);
  for (uint64_t i = 0; i < 100; ++i) {
    queue.Push(0.0, 0, i, 0);
  }
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(queue.PopMin().query, i);
  }
}

TEST(EventQueueTest, ExtremeWidthHintsStillOrderCorrectly) {
  // Degenerate hints (zero, negative, NaN, huge) must not break ordering;
  // the queue falls back to a sane width and re-estimates on resize.
  const double hints[] = {0.0, -5.0, std::nan(""), 1e300};
  for (double hint : hints) {
    EventQueue queue(hint);
    RefQueue reference;
    Rng rng(7);
    for (uint64_t i = 0; i < 500; ++i) {
      const double t = rng.NextDouble() * 50.0;
      queue.Push(t, 0, i, 0);
      reference.push({t, i, 0, i, 0});
    }
    while (!reference.empty()) {
      const RefEvent want = reference.top();
      reference.pop();
      ExpectMatches(queue.PopMin(), want);
    }
  }
}

}  // namespace
}  // namespace msprint
