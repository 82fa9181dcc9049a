// Helpers of the end-to-end benchmark: wall clock, percentiles with their
// sample counts, in-memory spans with self time, pool-efficiency
// arithmetic, peak-RSS reading, CPU rotation, result collection and
// failure tallies.
// Nothing here depends on msprint; the workloads in pipeline.cc,
// advise.cc and storm.cc call into the library and record through these.

#ifndef MSPRINT_PERFBENCH_BENCH_UTIL_H_
#define MSPRINT_PERFBENCH_BENCH_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// Seconds on the steady clock since an arbitrary fixed origin.
double Now();

// Linear-interpolation quantile (q in [0, 1]) of `values`; NaN when empty.
double Percentile(std::vector<double> values, double q);

// Samples strictly beyond the q-quantile of n samples. A percentile is
// reported only when at least ten samples lie beyond it.
size_t SamplesBeyond(size_t n, double q);

double Median(std::vector<double> values);

// Busy seconds summed over items, divided by the seconds the pool could
// have worked (wall * threads). 1 means every thread was busy throughout.
double PoolEfficiency(double busy_seconds, double wall_seconds,
                      size_t threads);

// Peak resident set size in MiB: VmHWM from /proc/self/status, falling
// back to getrusage when that file is unreadable.
double PeakRssMb();
// Parses the VmHWM line (kB) out of a /proc/<pid>/status text; negative
// when absent.
double ParseVmHwmKb(std::string_view status);

// Pins the calling thread to each CPU it may run on in turn, so serial
// work samples every CPU of a shared machine rather than whichever one the
// scheduler left it on. Restores the thread's CPU set on destruction.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  // Moves the calling thread to the next allowed CPU; returns its index.
  int PinNext();
  const std::vector<int>& cpus() const { return cpus_; }

 private:
  std::vector<int> cpus_;  // the thread's CPU set at construction
  size_t next_ = 0;
};

// ------------------------------------------------------------------ spans

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: a root span
  uint64_t item = 0;    // shared by every span of one workload item
  std::string name;
  double start = 0.0;
  double end = 0.0;
  double Duration() const { return end - start; }
};

// Spans recorded around the benchmark's own calls into the library. Kept
// in memory and written out once the run ends. Safe to use from pool
// workers; parents are passed explicitly rather than inferred per thread.
// A disabled tracer records nothing and hands out id 0.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  uint64_t Begin(std::string_view name, uint64_t parent, uint64_t item);
  void End(uint64_t id);
  std::vector<SpanRecord> Spans() const;
  // One JSON object per span, in id order.
  std::string ToJsonl() const;

 private:
  const bool enabled_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  // guarded by mutex_; id = index + 1
};

// Scoped span: begins on construction, ends on destruction.
class Span {
 public:
  Span(Tracer& tracer, std::string_view name, uint64_t parent = 0,
       uint64_t item = 0)
      : tracer_(tracer), id_(tracer.Begin(name, parent, item)) {}
  ~Span() { tracer_.End(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  const uint64_t id_;
};

// A span's duration minus the part of its interval that its children
// cover. Overlapping children (pool work) are merged before subtracting,
// and each child is clipped to the parent's interval.
double SelfTime(const SpanRecord& span,
                const std::vector<SpanRecord>& children);

struct SpanSummary {
  size_t count = 0;
  double total_seconds = 0.0;
  double self_seconds = 0.0;
  std::vector<double> durations;
};

// Per span name: count, total and self time, and every duration.
std::map<std::string, SpanSummary> SummarizeSpans(
    const std::vector<SpanRecord>& spans);

// ---------------------------------------------------------------- results

struct Metric {
  double value = 0.0;
  std::string unit;
};

// Every metric a run measured, by name, plus its failure tally. Serial
// use only: pool work gathers into slots first and is checked afterwards.
class Results {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  void Count(const std::string& name, uint64_t value) {
    Set(name, static_cast<double>(value), "count");
  }
  bool Has(const std::string& name) const;
  double Get(const std::string& name) const;

  // Records one checked operation; a false `ok` counts as a failure and
  // prints `what` to stderr.
  void Check(bool ok, const std::string& what);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  // {"correct":...,"attempted":...,"failed":...,"metrics":{...}} with
  // every value at full precision.
  std::string ToJson() const;

 private:
  std::map<std::string, Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// `value` with all 17 significant digits (JSON has no NaN/Inf, so those
// render as null and run.py refuses them).
std::string JsonNumber(double value);

}  // namespace perfbench

#endif  // MSPRINT_PERFBENCH_BENCH_UTIL_H_
