// Aggregation layer over per-query spans: per-component breakdown
// histograms in the MetricsRegistry taxonomy, critical-path summary
// (which component dominates each query), top-K slowest queries with full
// span trees, and a byte-stable text report (`msprint explain`).
//
// The report's machine lines reuse the metrics export grammar
// (`counter|gauge|hist <name> ...`), so `msprint obs-diff` can compare two
// explain reports with the same parser it uses for stats exports; human-
// oriented lines (header, span trees) are `#`-prefixed comments the diff
// engine ignores. Exported names live under a caller-chosen prefix
// (default "span") and are append-only, like every obs taxonomy.
//
// The attribution identity (component sum == response ticks) is *checked*
// here — violations are counted and reported — but never repaired: the
// exactness guarantee comes from span construction, not from this layer.

#ifndef MSPRINT_SRC_OBS_ATTRIB_H_
#define MSPRINT_SRC_OBS_ATTRIB_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"

namespace msprint {
namespace obs {

struct AttributionOptions {
  // How many of the slowest queries keep their full span tree in the
  // report. Ties on response time break toward the lower query id.
  size_t top_k = 5;
};

// Aggregate over one component across all attributed queries.
struct ComponentAggregate {
  int64_t total_ticks = 0;  // signed sum across queries
  int64_t min_ticks = 0;    // 0 when no queries
  int64_t max_ticks = 0;
  // Queries whose largest component this is (ties break toward the lower
  // component index, so every query is counted exactly once).
  uint64_t critical = 0;
  // Magnitude histograms in seconds: time the component *added* (positive
  // values) and time it *saved* (absolute value of negative values — in
  // practice only kSprintDelta saves time).
  LogHistogram added_seconds;
  LogHistogram saved_seconds;
};

struct AttributionReport {
  uint64_t num_queries = 0;
  uint64_t sprinted = 0;
  uint64_t timed_out = 0;
  uint64_t sprint_aborted = 0;
  // Queries violating the additive identity. Exactness by construction
  // means this stays 0; a nonzero value is a bug surfaced, not smoothed.
  uint64_t identity_violations = 0;
  int64_t total_response_ticks = 0;
  int64_t max_response_ticks = 0;
  ComponentAggregate components[kNumSpanComponents];
  std::vector<QuerySpan> slowest;  // descending response, size <= top_k
};

AttributionReport Attribute(const std::vector<QuerySpan>& spans,
                            const AttributionOptions& options = {});

// Renders one query's span tree as `#`-comment lines (prefix + two-space
// indentation per level). Byte-stable.
std::string FormatSpanTree(const QuerySpan& span);

// Byte-stable full report: `#` header, counter/gauge/hist machine lines
// under `prefix`, critical-path summary, and the top-K span trees.
std::string FormatAttribution(const AttributionReport& report,
                              const std::string& prefix = "span");

// Byte-stable single-object JSON rendering of the same report for
// programmatic consumers (`msprint explain --format json`): counts, total
// and max response seconds, one object per component (total/min/max
// seconds, critical count, fraction of total response), and the top-K
// slowest spans with their signed components. Component names follow the
// append-only span taxonomy.
std::string FormatAttributionJson(const AttributionReport& report);

}  // namespace obs
}  // namespace msprint

#endif  // MSPRINT_SRC_OBS_ATTRIB_H_
