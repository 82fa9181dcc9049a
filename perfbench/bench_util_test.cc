// Tests of the benchmark's own helpers: percentiles and their sample
// counts, span self time, pool-efficiency arithmetic, RSS reading and the
// result line. Exits non-zero on the first failed expectation.

#include <sched.h>

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "perfbench/bench_util.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAILED: " << what << "\n";
  }
}

void ExpectNear(double actual, double expected, const std::string& what) {
  Expect(std::abs(actual - expected) <= 1e-12 * (1.0 + std::abs(expected)),
         what + ": got " + std::to_string(actual) + ", want " +
             std::to_string(expected));
}

using perfbench::SpanRecord;

SpanRecord MakeSpan(uint64_t id, uint64_t parent, double start, double end) {
  SpanRecord span;
  span.id = id;
  span.parent = parent;
  span.name = "s";
  span.name += std::to_string(id);
  span.start = start;
  span.end = end;
  return span;
}

void TestPercentile() {
  using perfbench::Percentile;
  ExpectNear(Percentile({3, 1, 2}, 0.5), 2.0, "median of three");
  ExpectNear(Percentile({1, 2, 3, 4}, 0.5), 2.5, "median interpolates");
  ExpectNear(Percentile({0, 10}, 0.9), 9.0, "p90 interpolates");
  ExpectNear(Percentile({5}, 0.9), 5.0, "single sample");
  ExpectNear(Percentile({1, 2, 3}, 1.5), 3.0, "q clamps to 1");
  Expect(std::isnan(Percentile({}, 0.5)), "empty is NaN");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) {
    hundred.push_back(i);
  }
  ExpectNear(Percentile(hundred, 0.9), 90.1, "p90 of 1..100");
  Expect(perfbench::SamplesBeyond(100, 0.9) == 10, "10 beyond p90 of 100");
  Expect(perfbench::SamplesBeyond(99, 0.9) == 9, "9 beyond p90 of 99");
  Expect(perfbench::SamplesBeyond(2000, 0.99) == 20, "20 beyond p99 of 2000");
}

void TestSelfTime() {
  const SpanRecord parent = MakeSpan(1, 0, 0.0, 10.0);
  ExpectNear(perfbench::SelfTime(parent, {}), 10.0, "no children");
  // Serial children [1,3] and [5,6] cover 3 s.
  ExpectNear(perfbench::SelfTime(parent, {MakeSpan(2, 1, 1, 3),
                                          MakeSpan(3, 1, 5, 6)}),
             7.0, "serial children");
  // Pool children overlap: [1,4] and [2,5] cover [1,5].
  ExpectNear(perfbench::SelfTime(parent, {MakeSpan(2, 1, 2, 5),
                                          MakeSpan(3, 1, 1, 4)}),
             6.0, "overlapping children merge");
  // A child running past the parent is clipped to it.
  ExpectNear(perfbench::SelfTime(parent, {MakeSpan(2, 1, 8, 12)}), 8.0,
             "child clipped to parent");
  // Nested spans: self time excludes only direct children.
  const auto summary = perfbench::SummarizeSpans(
      {parent, MakeSpan(2, 1, 1, 9), MakeSpan(3, 2, 2, 4)});
  ExpectNear(summary.at("s1").self_seconds, 2.0, "root self");
  ExpectNear(summary.at("s2").self_seconds, 6.0, "middle self");
  ExpectNear(summary.at("s3").self_seconds, 2.0, "leaf self");
  Expect(summary.at("s2").count == 1, "count per name");
}

void TestTracer() {
  perfbench::Tracer off(false);
  {
    perfbench::Span span(off, "x");
    Expect(span.id() == 0, "disabled tracer hands out id 0");
  }
  Expect(off.Spans().empty(), "disabled tracer records nothing");

  perfbench::Tracer on(true);
  uint64_t outer_id = 0;
  {
    perfbench::Span outer(on, "outer", 0, 7);
    outer_id = outer.id();
    perfbench::Span inner(on, "inner", outer.id(), 7);
  }
  const auto spans = on.Spans();
  Expect(spans.size() == 2, "two spans recorded");
  Expect(spans[1].parent == outer_id && spans[1].item == 7,
         "parent and item kept");
  Expect(spans[0].end >= spans[1].end && spans[1].end >= spans[1].start,
         "spans closed in order");
  Expect(on.ToJsonl().find("\"name\":\"inner\"") != std::string::npos,
         "jsonl carries names");
}

void TestPoolEfficiency() {
  using perfbench::PoolEfficiency;
  ExpectNear(PoolEfficiency(8.0, 2.0, 4), 1.0, "fully busy pool");
  ExpectNear(PoolEfficiency(4.0, 2.0, 4), 0.5, "half busy pool");
  ExpectNear(PoolEfficiency(1.0, 0.0, 4), 0.0, "zero wall");
  ExpectNear(PoolEfficiency(1.0, 1.0, 0), 0.0, "zero threads");
}

void TestRss() {
  const std::string status =
      "Name:\tperfbench\nVmPeak:\t  200000 kB\nVmHWM:\t   51200 kB\n"
      "VmRSS:\t   40000 kB\n";
  ExpectNear(perfbench::ParseVmHwmKb(status), 51200.0, "VmHWM parsed");
  Expect(perfbench::ParseVmHwmKb("VmRSS:\t1 kB\n") < 0, "missing VmHWM");
  Expect(perfbench::ParseVmHwmKb("VmHWM:\tjunk\n") < 0, "malformed VmHWM");
  const double rss = perfbench::PeakRssMb();
  Expect(rss > 0.0 && rss < 1e6, "own peak RSS is plausible");
}

void TestCpuRotation() {
  {
    perfbench::CpuRotation rotation;
    Expect(!rotation.cpus().empty(), "allowed CPUs read");
    for (size_t i = 0; i < 2 * rotation.cpus().size(); ++i) {
      const int cpu = rotation.PinNext();
      Expect(cpu == rotation.cpus()[i % rotation.cpus().size()],
             "rotation visits the allowed CPUs in order");
      Expect(sched_getcpu() == cpu, "thread runs on the pinned CPU");
    }
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  sched_getaffinity(0, sizeof(set), &set);
  Expect(static_cast<size_t>(CPU_COUNT(&set)) ==
             perfbench::CpuRotation().cpus().size(),
         "CPU set restored");
}

void TestResults() {
  perfbench::Results results;
  results.Set("latency_ms", 1.25, "ms");
  results.Count("hits", 3);
  results.Check(true, "ok");
  Expect(results.ToJson() ==
             "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{"
             "\"hits\":{\"value\":3,\"unit\":\"count\"},"
             "\"latency_ms\":{\"value\":1.25,\"unit\":\"ms\"}}}",
         "result line");
  results.Check(false, "expected failure (test)");
  Expect(results.failed() == 1 && results.attempted() == 2,
         "failures tallied");
  Expect(perfbench::JsonNumber(0.1) == "0.10000000000000001",
         "full precision");
  Expect(perfbench::JsonNumber(std::nan("")) == "null", "NaN renders null");
}

}  // namespace

int main() {
  TestPercentile();
  TestSelfTime();
  TestTracer();
  TestPoolEfficiency();
  TestRss();
  TestCpuRotation();
  TestResults();
  if (failures != 0) {
    std::cerr << failures << " expectation(s) failed\n";
    return EXIT_FAILURE;
  }
  std::cout << "perfbench_util_test: all passed\n";
  return EXIT_SUCCESS;
}
