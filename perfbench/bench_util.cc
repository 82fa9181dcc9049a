#include "perfbench/bench_util.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <unordered_map>

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return std::nan("");
  }
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

size_t SamplesBeyond(size_t n, double q) {
  // The epsilon keeps n * (1 - 0.9) == 9.999... from flooring to 9.
  return static_cast<size_t>(std::floor(
      static_cast<double>(n) * (1.0 - std::clamp(q, 0.0, 1.0)) + 1e-9));
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double PoolEfficiency(double busy_seconds, double wall_seconds,
                      size_t threads) {
  if (wall_seconds <= 0.0 || threads == 0) {
    return 0.0;
  }
  return busy_seconds / (wall_seconds * static_cast<double>(threads));
}

double ParseVmHwmKb(std::string_view status) {
  constexpr std::string_view kKey = "VmHWM:";
  size_t pos = 0;
  while (pos < status.size()) {
    const size_t eol = std::min(status.find('\n', pos), status.size());
    const std::string_view line = status.substr(pos, eol - pos);
    if (line.substr(0, kKey.size()) == kKey) {
      const std::string rest(line.substr(kKey.size()));
      char* end = nullptr;
      const double kb = std::strtod(rest.c_str(), &end);
      return end == rest.c_str() ? -1.0 : kb;
    }
    pos = eol + 1;
  }
  return -1.0;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  if (in) {
    std::ostringstream text;
    text << in.rdbuf();
    const double kb = ParseVmHwmKb(text.str());
    if (kb > 0.0) {
      return kb / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: kB
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus_.push_back(cpu);
      }
    }
  }
}

CpuRotation::~CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus_) {
    CPU_SET(cpu, &set);
  }
  if (!cpus_.empty()) {
    sched_setaffinity(0, sizeof(set), &set);
  }
}

int CpuRotation::PinNext() {
  if (cpus_.empty()) {
    return -1;
  }
  const int cpu = cpus_[next_++ % cpus_.size()];
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

// ------------------------------------------------------------------ spans

uint64_t Tracer::Begin(std::string_view name, uint64_t parent,
                       uint64_t item) {
  if (!enabled_) {
    return 0;
  }
  SpanRecord span;
  span.parent = parent;
  span.item = item;
  span.name = std::string(name);
  span.start = Now();
  std::lock_guard<std::mutex> lock(mutex_);
  span.id = spans_.size() + 1;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::End(uint64_t id) {
  if (id == 0) {
    return;
  }
  const double end = Now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].end = end;
}

std::vector<SpanRecord> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::string Tracer::ToJsonl() const {
  std::ostringstream out;
  for (const SpanRecord& span : Spans()) {
    out << "{\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"item\":" << span.item << ",\"name\":\"" << span.name
        << "\",\"start\":" << JsonNumber(span.start)
        << ",\"end\":" << JsonNumber(span.end) << "}\n";
  }
  return out.str();
}

double SelfTime(const SpanRecord& span,
                const std::vector<SpanRecord>& children) {
  std::vector<std::pair<double, double>> covered;
  covered.reserve(children.size());
  for (const SpanRecord& child : children) {
    const double lo = std::max(child.start, span.start);
    const double hi = std::min(child.end, span.end);
    if (hi > lo) {
      covered.emplace_back(lo, hi);
    }
  }
  std::sort(covered.begin(), covered.end());
  double busy = 0.0;
  double cursor = span.start;
  for (const auto& [lo, hi] : covered) {
    const double from = std::max(lo, cursor);
    if (hi > from) {
      busy += hi - from;
      cursor = hi;
    }
  }
  return span.Duration() - busy;
}

std::map<std::string, SpanSummary> SummarizeSpans(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, std::vector<SpanRecord>> children;
  for (const SpanRecord& span : spans) {
    if (span.parent != 0) {
      children[span.parent].push_back(span);
    }
  }
  std::map<std::string, SpanSummary> summary;
  for (const SpanRecord& span : spans) {
    SpanSummary& entry = summary[span.name];
    const auto it = children.find(span.id);
    ++entry.count;
    entry.total_seconds += span.Duration();
    entry.self_seconds += it == children.end()
                              ? span.Duration()
                              : SelfTime(span, it->second);
    entry.durations.push_back(span.Duration());
  }
  return summary;
}

// ---------------------------------------------------------------- results

void Results::Set(const std::string& name, double value,
                  const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

bool Results::Has(const std::string& name) const {
  return metrics_.count(name) > 0;
}

double Results::Get(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? std::nan("") : it->second.value;
}

void Results::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "check failed: " << what << "\n";
  }
}

std::string Results::ToJson() const {
  std::ostringstream out;
  out << "{\"correct\":" << (failed_ == 0 ? "true" : "false")
      << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
      << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    out << (first ? "" : ",") << "\"" << name << "\":{\"value\":"
        << JsonNumber(metric.value) << ",\"unit\":\"" << metric.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace perfbench
