// Sprint budget accounting (Sections 2.1 and 4.1).
//
// The budget is a token bucket denominated in sprint-seconds. The profiler
// expresses budgets as a fraction of the refill window (e.g. AWS T2.small:
// 720 sprint-seconds per hour == 20% of 3600 s), so
//   capacity = budget_fraction * refill_seconds
// and credits accrue continuously at capacity / refill_seconds — i.e. after
// `refill_seconds` without sprinting an empty bucket is full again, matching
// the paper's "after refill time elapses without sprinting, the budget
// reaches full capacity".

#ifndef MSPRINT_SRC_SPRINT_BUDGET_H_
#define MSPRINT_SRC_SPRINT_BUDGET_H_

#include <stdexcept>

#include "src/persist/persist.h"

namespace msprint {

class SprintBudget {
 public:
  // Starts full at time 0.
  SprintBudget(double capacity_seconds, double refill_seconds);

  static SprintBudget FromFraction(double budget_fraction,
                                   double refill_seconds) {
    return SprintBudget(budget_fraction * refill_seconds, refill_seconds);
  }

  // Credits available at `now`. `now` is expected to be monotonically
  // non-decreasing across calls; this is enforced — a backwards `now` is
  // clamped to the latest time seen (and counted in time_regressions())
  // rather than corrupting the accrual state, and non-finite times throw.
  double Available(double now) const;

  // Consumes up to `amount` sprint-seconds at `now`; returns how much was
  // actually granted (0 if the bucket is empty).
  double ConsumeUpTo(double now, double amount);

  // Consumes `amount` even if it overdraws the bucket (level may go
  // negative). Matches the paper's queue-manager semantics: a sprint is
  // granted whenever budget > 0 and the time actually spent sprinting is
  // debited after the query completes (Section 2.1 / Algorithm 1).
  void ConsumeAllowingDebt(double now, double amount);

  double capacity() const { return capacity_; }
  double refill_rate() const { return refill_rate_; }  // credits per second

  // Total credits ever consumed (for accounting/tests).
  double total_consumed() const { return total_consumed_; }

  // Calls that presented a backwards `now` and were clamped to the latest
  // time seen.
  size_t time_regressions() const { return time_regressions_; }

  // Times ConsumeAllowingDebt took the level from non-negative to negative.
  // The model checker (src/mc) asserts this stays 0 on paths that are
  // supposed to gate sprints on a positive budget; testbed and simulator
  // runs publish it as `sprint/budget_overdraw` when they end.
  size_t overdraw_count() const { return overdraw_count_; }

  void Reset(double now);

  // Snapshot/warm-restore of the full accrual state: the token level, the
  // monotonic-clock watermark and the refill rate are stored as exact bit
  // patterns (the rate is NOT recomputed from capacity/refill on load), so
  // a restored bucket accrues bit-identically to the uninterrupted one.
  void Serialize(persist::Writer& w) const;
  static SprintBudget Deserialize(persist::Reader& r);

 private:
  SprintBudget() = default;  // Deserialize fills every field
  // Clamps `now` to the non-decreasing contract and accrues credits.
  void Advance(double now) const;

  double capacity_;
  double refill_rate_;
  mutable double level_;
  mutable double last_update_ = 0.0;
  mutable size_t time_regressions_ = 0;
  double total_consumed_ = 0.0;
  size_t overdraw_count_ = 0;
};

}  // namespace msprint

#endif  // MSPRINT_SRC_SPRINT_BUDGET_H_
