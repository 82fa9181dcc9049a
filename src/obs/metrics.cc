#include "src/obs/metrics.h"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

namespace msprint {
namespace obs {

namespace {

// Stable per-thread shard slot: threads take increasing ids on first use
// and map onto shards by masking. Which thread lands on which shard is
// scheduling-dependent, but every stable aggregate is an order-independent
// reduction over shards, so exports do not care.
size_t ThreadSlot() {
  static std::atomic<size_t> next{0};
  thread_local const size_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

size_t RoundUpPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

size_t ResolveShards(size_t requested) {
  if (requested == 0) {
    const unsigned hardware = std::thread::hardware_concurrency();
    requested = std::clamp<size_t>(hardware == 0 ? 8 : hardware, 8, 64);
  }
  return RoundUpPowerOfTwo(requested);
}

uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsDouble(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// CAS-min/max on a double stored as bits. Works for the non-negative
// values histograms accept; the reduction is order-independent.
void AtomicMinDouble(std::atomic<uint64_t>& slot, double v) {
  uint64_t observed = slot.load(std::memory_order_relaxed);
  while (v < BitsDouble(observed) &&
         !slot.compare_exchange_weak(observed, DoubleBits(v),
                                     std::memory_order_relaxed)) {
  }
}

void AtomicMaxDouble(std::atomic<uint64_t>& slot, double v) {
  uint64_t observed = slot.load(std::memory_order_relaxed);
  while (v > BitsDouble(observed) &&
         !slot.compare_exchange_weak(observed, DoubleBits(v),
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace

// to_chars with a precision formats exactly as printf does with the
// matching conversion (general, precision 17 is %.17g), without printf's
// format parsing and locale machinery.
void AppendStableDouble(std::string& out, double value) {
  char buf[40];
  const std::to_chars_result result = std::to_chars(
      buf, buf + sizeof(buf), value, std::chars_format::general, 17);
  out.append(buf, result.ptr);
}

std::string StableDouble(double value) {
  std::string out;
  AppendStableDouble(out, value);
  return out;
}

// ---------------------------------------------------------------- Counter

void Counter::Add(uint64_t n) {
  cells_[ThreadSlot() & (cells_.size() - 1)].fetch_add(
      n, std::memory_order_relaxed);
}

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const auto& cell : cells_) {
    total += cell.load(std::memory_order_relaxed);
  }
  return total;
}

// ------------------------------------------------------------------ Gauge

void Gauge::Set(double value) {
  value_.store(value, std::memory_order_relaxed);
}

double Gauge::Value() const { return value_.load(std::memory_order_relaxed); }

// -------------------------------------------------------------- Histogram

Histogram::Histogram(size_t shards)
    : shards_(shards),
      buckets_(shards * LogHistogram::NumBuckets()),
      rejected_(shards),
      min_bits_(DoubleBits(std::numeric_limits<double>::infinity())),
      max_bits_(DoubleBits(-std::numeric_limits<double>::infinity())) {}

void Histogram::Record(double value) {
  const size_t shard = ThreadSlot() & (shards_ - 1);
  if (!std::isfinite(value) || value < 0.0) {
    rejected_[shard].fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buckets_[shard * LogHistogram::NumBuckets() + LogHistogram::BucketIndex(
               value)]
      .fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicMinDouble(min_bits_, value);
  AtomicMaxDouble(max_bits_, value);
}

LogHistogram Histogram::Merged() const {
  LogHistogram merged;
  for (size_t bucket = 0; bucket < LogHistogram::NumBuckets(); ++bucket) {
    uint64_t total = 0;
    for (size_t shard = 0; shard < shards_; ++shard) {
      total += buckets_[shard * LogHistogram::NumBuckets() + bucket].load(
          std::memory_order_relaxed);
    }
    if (total > 0) {
      merged.InjectBucketCount(bucket, total);
    }
  }
  uint64_t rejected = 0;
  for (const auto& cell : rejected_) {
    rejected += cell.load(std::memory_order_relaxed);
  }
  merged.InjectRejected(rejected);
  if (merged.count() > 0) {
    merged.InjectBounds(BitsDouble(min_bits_.load(std::memory_order_relaxed)),
                        BitsDouble(max_bits_.load(std::memory_order_relaxed)));
  }
  return merged;
}

HistogramSnapshot SummarizeLogHistogram(std::string name,
                                        const LogHistogram& histogram) {
  HistogramSnapshot h;
  h.name = std::move(name);
  h.count = histogram.count();
  h.rejected = histogram.rejected();
  h.min = histogram.min();
  h.max = histogram.max();
  h.approx_mean = histogram.ApproxMean();
  for (size_t i = 0; i < histogram.buckets().size(); ++i) {
    if (histogram.buckets()[i] > 0) {
      h.nonzero_buckets.emplace_back(i, histogram.buckets()[i]);
    }
  }
  h.p50 = histogram.ApproxQuantile(0.50);
  h.p90 = histogram.ApproxQuantile(0.90);
  h.p99 = histogram.ApproxQuantile(0.99);
  return h;
}

// --------------------------------------------------------------- Registry

MetricsRegistry::MetricsRegistry(size_t shards)
    : shards_(ResolveShards(shards)) {}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot.reset(new Counter(shards_));
  }
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) {
    slot.reset(new Gauge());
  }
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot.reset(new Histogram(shards_));
  }
  return *slot;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.emplace_back(name, counter->Value());
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.emplace_back(name, gauge->Value());
  }
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms.push_back(
        SummarizeLogHistogram(name, histogram->Merged()));
  }
  return snapshot;
}

// --------------------------------------------------------------- exports

std::string MetricsSnapshot::ToText() const {
  std::string out;
  char buf[128];
  for (const auto& [name, value] : counters) {
    std::snprintf(buf, sizeof(buf), "counter %s %" PRIu64 "\n", name.c_str(),
                  value);
    out += buf;
  }
  for (const auto& [name, value] : gauges) {
    out += "gauge " + name + " " + StableDouble(value) + "\n";
  }
  for (const HistogramSnapshot& h : histograms) {
    std::snprintf(buf, sizeof(buf), "hist %s count=%" PRIu64
                  " rejected=%" PRIu64,
                  h.name.c_str(), h.count, h.rejected);
    out += buf;
    out += " min=" + StableDouble(h.min) + " max=" + StableDouble(h.max) +
           " mean~" + StableDouble(h.approx_mean) + " p50~" +
           StableDouble(h.p50) + " p90~" + StableDouble(h.p90) + " p99~" +
           StableDouble(h.p99) + " buckets=";
    for (size_t i = 0; i < h.nonzero_buckets.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%zu:%" PRIu64, i == 0 ? "" : ",",
                    h.nonzero_buckets[i].first, h.nonzero_buckets[i].second);
      out += buf;
    }
    out += "\n";
  }
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"counters\":{";
  char buf[96];
  for (size_t i = 0; i < counters.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%" PRIu64,
                  i == 0 ? "" : ",", counters[i].first.c_str(),
                  counters[i].second);
    out += buf;
  }
  out += "},\"gauges\":{";
  for (size_t i = 0; i < gauges.size(); ++i) {
    out += (i == 0 ? "\"" : ",\"") + gauges[i].first + "\":" +
           StableDouble(gauges[i].second);
  }
  out += "},\"histograms\":{";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSnapshot& h = histograms[i];
    out += (i == 0 ? "\"" : ",\"") + h.name + "\":{";
    std::snprintf(buf, sizeof(buf), "\"count\":%" PRIu64
                  ",\"rejected\":%" PRIu64, h.count, h.rejected);
    out += buf;
    out += ",\"min\":" + StableDouble(h.min) + ",\"max\":" +
           StableDouble(h.max) + ",\"approx_mean\":" +
           StableDouble(h.approx_mean) + ",\"p50\":" + StableDouble(h.p50) +
           ",\"p90\":" + StableDouble(h.p90) + ",\"p99\":" +
           StableDouble(h.p99) + ",\"buckets\":{";
    for (size_t b = 0; b < h.nonzero_buckets.size(); ++b) {
      std::snprintf(buf, sizeof(buf), "%s\"%zu\":%" PRIu64,
                    b == 0 ? "" : ",", h.nonzero_buckets[b].first,
                    h.nonzero_buckets[b].second);
      out += buf;
    }
    out += "}}";
  }
  out += "}}";
  return out;
}

}  // namespace obs
}  // namespace msprint
