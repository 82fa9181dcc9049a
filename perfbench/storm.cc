// Storm path: the serving path under overload — the testbed event loop
// with retries, abandonment and admission — run once detached and once
// with every obs sink attached through one ObsSession, the attached pass
// rendering the attribution, timeline and snapshot reports as
// `msprint explain` / `msprint slo` / `msprint stats` do. No simulation,
// ML or calibration.

#include <cmath>
#include <iostream>

#include "perfbench/paths.h"
#include "src/common/checksum.h"
#include "src/obs/attrib.h"
#include "src/obs/obs.h"
#include "src/obs/slo.h"

namespace perfbench {
namespace {

using namespace msprint;

bool SameSide(const robust::StormSideStats& a,
              const robust::StormSideStats& b) {
  return a.goodput == b.goodput && a.badput == b.badput && a.shed == b.shed &&
         a.abandoned == b.abandoned && a.retries == b.retries &&
         a.served == b.served && a.goodput_per_second == b.goodput_per_second &&
         a.mean_response_time == b.mean_response_time &&
         a.makespan == b.makespan;
}

struct Sinks {
  obs::MetricsRegistry metrics;
  obs::FlightRecorder recorder;
  obs::SpanCollector spans;
  obs::SloPipeline slo;
};

class StormPath final : public Path {
 public:
  StormPath(Context& ctx, std::vector<StormScenario> scenarios,
            size_t seeds_per_batch)
      : ctx_(ctx),
        scenarios_(std::move(scenarios)),
        seeds_per_batch_(seeds_per_batch) {}

  double RunItem(bool traced) override {
    Tracer& tracer = traced ? *ctx_.tracer : off_;
    Results& results = *ctx_.results;
    const uint64_t item = ctx_.NextItem();
    const bool first = batches_ == 0;
    Span batch(tracer, "storm.batch", 0, item);
    uint64_t attempts = 0;
    double detached_s = 0.0, attached_s = 0.0;
    uint32_t digest = 0;
    for (const StormScenario& scenario : scenarios_) {
      for (size_t s = 0; s < seeds_per_batch_; ++s) {
        robust::StormConfig storm = scenario.config;
        storm.seed = DeriveSeed(ctx_.seed, batches_ * seeds_per_batch_ + s);
        for (const bool hardened : {false, true}) {
          const TestbedConfig config =
              robust::MakeStormTestbedConfig(storm, hardened);
          RunTrace detached;
          const double t0 = Now();
          {
            Span span(tracer, "testbed.run", batch.id(), item);
            detached = Testbed::Run(config);
          }
          const double t1 = Now();
          Sinks sinks;
          RunTrace attached;
          std::string report;
          {
            Span span(tracer, "obs.attached", batch.id(), item);
            {
              Span run(tracer, "testbed.run_observed", span.id(), item);
              obs::ObsSession session(&sinks.metrics, &sinks.recorder,
                                      &sinks.spans, &sinks.slo);
              attached = Testbed::Run(config);
            }
            const double r0 = Now();
            {
              Span render(tracer, "obs.render", span.id(), item);
              report = obs::FormatAttribution(
                           obs::Attribute(sinks.spans.TakeSpans(), {})) +
                       sinks.slo.FormatTimeline() + sinks.slo.FormatSummary() +
                       sinks.metrics.Snapshot().ToText();
            }
            if (traced) {
              report_ms_.push_back((Now() - r0) * 1e3);
            }
          }
          const double t2 = Now();
          const robust::StormSideStats side =
              robust::SummarizeStormSide(detached);
          results.Check(SameSide(side, robust::SummarizeStormSide(attached)),
                        "attached storm summary differs from detached (" +
                            scenario.name + ")");
          digest = Crc32(report, digest);
          const uint64_t n = detached.queries.size();
          attempts += n;
          detached_s += t1 - t0;
          attached_s += t2 - t1;
          if (traced) {
            RunMatched(config, t1 - t0);
          }
          if (first) {
            CountSide(side, n);
          }
        }
      }
    }
    if (first) {
      first_digest_ = digest;
    }
    if (!traced) {
      serve_qps_.push_back(static_cast<double>(attempts) / detached_s);
      observed_qps_.push_back(static_cast<double>(attempts) / attached_s);
    } else {
      traced_attempts_ += attempts;
      traced_detached_s_ += detached_s;
      traced_attached_s_ += attached_s;
    }
    ++batches_;
    return detached_s + attached_s;
  }

  void Finish() override {
    Results& results = *ctx_.results;
    std::cout << "digest storm first-batch reports crc32 " << std::hex
              << first_digest_ << std::dec << " (" << scenarios_.size()
              << " scenarios x 2 sides x " << seeds_per_batch_ << " seeds)\n";
    if (!serve_qps_.empty()) {
      results.Set("serve_qps", Median(serve_qps_), "1/s");
      results.Set("observed_qps", Median(observed_qps_), "1/s");
      std::cout << "storm batches " << serve_qps_.size() << "\n";
    }
    // Exact counts over the first batch (the same seeds on every run).
    results.Count("robust.attempts", attempts_);
    results.Count("robust.requests", requests_);
    results.Count("robust.shed", shed_);
    results.Count("robust.retries", retries_);
    results.Count("robust.abandoned", abandoned_);
    results.Count("robust.goodput", goodput_);
    const double requests = static_cast<double>(requests_);
    results.Set("robust.attempts_per_request",
                static_cast<double>(attempts_) / requests, "ratio");
    results.Set("robust.shed_ratio",
                static_cast<double>(shed_) / static_cast<double>(attempts_),
                "ratio");
    results.Set("robust.goodput_ratio", static_cast<double>(goodput_) / requests,
                "ratio");
    if (ctx_.tracer->enabled() && traced_attempts_ > 0) {
      const double n = static_cast<double>(traced_attempts_);
      results.Set("testbed.ns_per_attempt", traced_detached_s_ * 1e9 / n, "ns");
      results.Set("obs.metrics_ns_per_attempt",
                  (metrics_s_ - matched_detached_s_) * 1e9 / n, "ns");
      results.Set("obs.spans_ns_per_attempt",
                  (spans_s_ - matched_detached_s_) * 1e9 / n, "ns");
      results.Set("obs.slo_ns_per_attempt",
                  (slo_s_ - matched_detached_s_) * 1e9 / n, "ns");
      results.Set("obs.report_ms", Median(report_ms_), "ms");
      results.Set("obs.overhead", traced_attached_s_ / traced_detached_s_ - 1.0,
                  "ratio");
      std::cout << "storm per-attempt costs over " << traced_attempts_
                << " traced attempts\n";
    }
  }

 private:
  // Matched runs of the same storm with one sink attached at a time; each
  // sink's cost is its run minus the detached run of the same storm.
  void RunMatched(const TestbedConfig& config, double detached_s) {
    Sinks sinks;
    double t0 = Now();
    {
      obs::ObsSession session(&sinks.metrics, nullptr);
      (void)Testbed::Run(config);
    }
    double t1 = Now();
    metrics_s_ += t1 - t0;
    {
      obs::ObsSession session(nullptr, nullptr, &sinks.spans);
      (void)Testbed::Run(config);
    }
    double t2 = Now();
    spans_s_ += t2 - t1;
    {
      obs::ObsSession session(nullptr, nullptr, nullptr, &sinks.slo);
      (void)Testbed::Run(config);
    }
    slo_s_ += Now() - t2;
    matched_detached_s_ += detached_s;
  }

  void CountSide(const robust::StormSideStats& side, uint64_t attempts) {
    attempts_ += attempts;
    requests_ += side.goodput + side.badput;
    shed_ += side.shed;
    retries_ += side.retries;
    abandoned_ += side.abandoned;
    goodput_ += side.goodput;
  }

  Context& ctx_;
  Tracer off_{false};
  const std::vector<StormScenario> scenarios_;
  const size_t seeds_per_batch_;
  uint64_t batches_ = 0;
  uint32_t first_digest_ = 0;
  std::vector<double> serve_qps_, observed_qps_, report_ms_;
  uint64_t attempts_ = 0, requests_ = 0, shed_ = 0, retries_ = 0,
           abandoned_ = 0, goodput_ = 0;
  uint64_t traced_attempts_ = 0;
  double traced_detached_s_ = 0.0, traced_attached_s_ = 0.0;
  double metrics_s_ = 0.0, spans_s_ = 0.0, slo_s_ = 0.0,
         matched_detached_s_ = 0.0;
};

}  // namespace

std::unique_ptr<Path> MakeStormPath(Context& ctx,
                                    std::vector<StormScenario> scenarios,
                                    size_t seeds_per_batch) {
  return std::make_unique<StormPath>(ctx, std::move(scenarios),
                                     seeds_per_batch);
}

}  // namespace perfbench
