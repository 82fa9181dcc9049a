// Deterministic metrics registry: counters, gauges and log-bucketed
// histograms, sharded per thread so hot paths record lock-free (one
// relaxed atomic RMW), with shards merged in slot order at export time.
//
// Determinism contract (the PR-1 invariant extended to telemetry): *same
// seed => byte-identical exported snapshot for any MSPRINT_THREADS / pool
// size*. That holds because every aggregate is an order-independent
// reduction — integer counter sums, integer histogram bucket counts, exact
// min/max — and because gauges are only ever Set from serial deterministic
// code. Nothing measured with a wall clock belongs in a registry: every
// metric is part of the export that CI diffs byte for byte.
//
// Lookup by name takes the registry mutex; hot call sites should fetch
// their Counter*/Histogram* handles once (they are stable for the life of
// the registry) and record through the handle.

#ifndef MSPRINT_SRC_OBS_METRICS_H_
#define MSPRINT_SRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/stats.h"

namespace msprint {
namespace obs {

// Byte-stable decimal rendering of a double: the bytes of printf's
// %.17g (bit-exact round trip), produced by std::to_chars.
std::string StableDouble(double value);
// Appends StableDouble(value) to `out` without a temporary string.
void AppendStableDouble(std::string& out, double value);

// Monotonic counter, sharded across padded atomic cells.
class Counter {
 public:
  void Add(uint64_t n = 1);
  void Increment() { Add(1); }
  uint64_t Value() const;

 private:
  friend class MetricsRegistry;
  explicit Counter(size_t shards) : cells_(shards) {}

  std::vector<std::atomic<uint64_t>> cells_;  // size is a power of two
};

// Last-value gauge. Gauges must only be Set from serial deterministic
// code (concurrent Set order is scheduling-dependent).
class Gauge {
 public:
  void Set(double value);
  double Value() const;

 private:
  friend class MetricsRegistry;
  Gauge() = default;

  std::atomic<double> value_{0.0};
};

// Sharded log-bucketed histogram: per-shard atomic bucket counts (the
// bucket math is LogHistogram's), global atomic min/max via CAS. All
// reductions are order-independent, so the merged summary is deterministic
// even when samples arrive from racing workers.
class Histogram {
 public:
  // Records one sample; NaN / negative / non-finite values are rejected
  // (counted separately), mirroring LogHistogram::Record.
  void Record(double value);

  // Adds every sample of `local` at once, as Record on each of them in
  // their order would: a run fills a local LogHistogram and publishes it
  // once, not per sample.
  void RecordAll(const LogHistogram& local);

  // Merges every shard (in slot order) into a summarizable LogHistogram.
  LogHistogram Merged() const;

 private:
  friend class MetricsRegistry;
  explicit Histogram(size_t shards);

  const size_t shards_;                         // power of two
  std::vector<std::atomic<uint64_t>> buckets_;  // shards_ * NumBuckets()
  std::vector<std::atomic<uint64_t>> rejected_;  // per shard
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> min_bits_;  // bit pattern of the running min
  std::atomic<uint64_t> max_bits_;  // bit pattern of the running max
};

// One exported histogram: scalar summary (quantiles from
// LogHistogram::ApproxQuantile) plus the non-empty buckets.
struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;
  uint64_t rejected = 0;
  double min = 0.0;
  double max = 0.0;
  double approx_mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  std::vector<std::pair<size_t, uint64_t>> nonzero_buckets;
};

// Summarizes a LogHistogram into an exported HistogramSnapshot — the same
// summary Snapshot() computes for registry histograms. Reused by the span
// attribution layer so its `hist` lines render byte-identically to
// registry exports (and parse under the same obs-diff grammar).
HistogramSnapshot SummarizeLogHistogram(std::string name,
                                        const LogHistogram& histogram);

// A point-in-time export of a registry, sorted by metric name. Rendering
// is byte-stable: identical metric values produce identical bytes.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;

  // One line per metric, `counter|gauge|hist <name> ...`, sorted by name.
  std::string ToText() const;
  // Single JSON object {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string ToJson() const;
};

class MetricsRegistry {
 public:
  // `shards` is rounded up to a power of two; 0 picks one from the
  // hardware concurrency (clamped to [8, 64]).
  explicit MetricsRegistry(size_t shards = 0);

  // Find-or-create by name. The returned pointer is stable for the life of
  // the registry. Names should be `subsystem/metric_name` with characters
  // safe to embed in JSON unescaped ([a-z0-9_/.-]).
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  // Exports every metric, sorted by name.
  MetricsSnapshot Snapshot() const;

  size_t shards() const { return shards_; }

 private:
  const size_t shards_;
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace msprint

#endif  // MSPRINT_SRC_OBS_METRICS_H_
