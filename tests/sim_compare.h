// Bitwise comparisons of simulator outputs for the differential tests:
// two runs that must agree exactly compare every double by its bit
// pattern, so a -0.0, a NaN payload or a last-ulp drift all fail.

#ifndef MSPRINT_TESTS_SIM_COMPARE_H_
#define MSPRINT_TESTS_SIM_COMPARE_H_

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "src/obs/span.h"
#include "src/sim/queue_simulator.h"

namespace msprint {

inline uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

inline void ExpectSameResult(const SimResult& a, const SimResult& b) {
  ASSERT_EQ(a.response_times.size(), b.response_times.size());
  for (size_t i = 0; i < a.response_times.size(); ++i) {
    ASSERT_EQ(Bits(a.response_times[i]), Bits(b.response_times[i])) << i;
  }
  EXPECT_EQ(Bits(a.mean_response_time), Bits(b.mean_response_time));
  EXPECT_EQ(Bits(a.mean_queueing_delay), Bits(b.mean_queueing_delay));
  EXPECT_EQ(Bits(a.fraction_sprinted), Bits(b.fraction_sprinted));
  EXPECT_EQ(Bits(a.fraction_timed_out), Bits(b.fraction_timed_out));
  EXPECT_EQ(Bits(a.total_sprint_seconds), Bits(b.total_sprint_seconds));
  EXPECT_EQ(Bits(a.makespan), Bits(b.makespan));
  EXPECT_EQ(a.shed_count, b.shed_count);
  ASSERT_EQ(a.per_class.size(), b.per_class.size());
  for (size_t c = 0; c < a.per_class.size(); ++c) {
    const SimClassStats& x = a.per_class[c];
    const SimClassStats& y = b.per_class[c];
    EXPECT_EQ(x.completed, y.completed);
    EXPECT_EQ(Bits(x.mean_response_time), Bits(y.mean_response_time));
    EXPECT_EQ(Bits(x.mean_queueing_delay), Bits(y.mean_queueing_delay));
    EXPECT_EQ(Bits(x.fraction_sprinted), Bits(y.fraction_sprinted));
  }
}

inline void ExpectSameTrace(const std::vector<SimQuery>& a,
                     const std::vector<SimQuery>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(Bits(a[i].arrival), Bits(b[i].arrival)) << i;
    ASSERT_EQ(Bits(a[i].service_time), Bits(b[i].service_time)) << i;
    ASSERT_EQ(Bits(a[i].start), Bits(b[i].start)) << i;
    ASSERT_EQ(Bits(a[i].depart), Bits(b[i].depart)) << i;
    ASSERT_EQ(Bits(a[i].sprint_seconds), Bits(b[i].sprint_seconds)) << i;
    ASSERT_EQ(a[i].timed_out, b[i].timed_out) << i;
    ASSERT_EQ(a[i].sprinted, b[i].sprinted) << i;
    ASSERT_EQ(a[i].shed, b[i].shed) << i;
  }
}

inline void ExpectSameSpans(const std::vector<obs::QuerySpan>& a,
                     const std::vector<obs::QuerySpan>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].id, b[i].id);
    ASSERT_EQ(a[i].klass, b[i].klass);
    ASSERT_EQ(a[i].arrival, b[i].arrival);
    ASSERT_EQ(a[i].start, b[i].start);
    ASSERT_EQ(a[i].depart, b[i].depart);
    ASSERT_EQ(a[i].sprint_begin, b[i].sprint_begin);
    ASSERT_EQ(a[i].components, b[i].components);
    ASSERT_EQ(a[i].num_phases, b[i].num_phases);
    ASSERT_EQ(a[i].sprinted, b[i].sprinted);
    ASSERT_EQ(a[i].timed_out, b[i].timed_out);
    ASSERT_EQ(a[i].sprint_aborted, b[i].sprint_aborted);
  }
}

}  // namespace msprint

#endif  // MSPRINT_TESTS_SIM_COMPARE_H_
