// Advise path: model queries against a trained hybrid model. Nearly all of
// its time is simulator replications behind the forest, on fresh inputs
// (no reuse across a bisection), with no testbed, profiler or obs.
//
// One round: (a) a closed loop with one client — each prediction is sent
// after the previous one returned; (b) the same inputs as one pooled
// batch; (c) one ExploreTimeout with the CLI's defaults.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>

#include "perfbench/paths.h"
#include "src/common/thread_pool.h"
#include "src/core/effective_rate.h"
#include "src/explore/explorer.h"

namespace perfbench {
namespace {

using namespace msprint;

// `msprint explore` defaults: 200 iterations, one chain.
constexpr size_t kExploreIterations = 200;
// Explorations whose steps and acceptances are reported as exact counts.
constexpr size_t kCountedExplorations = 2;
// Inputs each per-layer probe replays.
constexpr size_t kProbeInputs = 16;

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

class AdvisePath final : public Path {
 public:
  AdvisePath(Context& ctx, const WorkloadProfile& profile,
             const HybridModel& model, const std::vector<ModelInput>& inputs,
             size_t per_round)
      : ctx_(ctx),
        profile_(profile),
        model_(model),
        inputs_(inputs),
        per_round_(per_round) {}

  double RunItem(bool traced) override {
    Tracer& tracer = traced ? *ctx_.tracer : off_;
    Results& results = *ctx_.results;
    const uint64_t item = ctx_.NextItem();
    std::vector<ModelInput> batch;
    for (size_t i = 0; i < per_round_; ++i) {
      batch.push_back(inputs_[(rounds_ * per_round_ + i) % inputs_.size()]);
    }
    const double start = Now();
    Span round(tracer, "advise.round", 0, item);

    // (a) closed loop, one client.
    std::vector<double> closed(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      Span span(tracer, "core.predict", round.id(), item);
      const double t0 = Now();
      closed[i] = model_.PredictResponseTime(profile_, batch[i]);
      (traced ? traced_latency_ms_ : latency_ms_).push_back((Now() - t0) * 1e3);
      results.Check(std::isfinite(closed[i]), "non-finite prediction");
    }

    // (b) the same inputs through the pool. Traced rounds issue the batch's
    // own ParallelFor so each prediction gets a span.
    const double t0 = Now();
    std::vector<double> pooled;
    {
      Span span(tracer, "common.batch", round.id(), item);
      if (traced) {
        pooled.assign(batch.size(), 0.0);
        ThreadPool::Global().ParallelFor(batch.size(), [&](size_t i) {
          Span one(tracer, "core.predict_pooled", span.id(), item);
          pooled[i] = model_.PredictResponseTime(profile_, batch[i]);
        });
      } else {
        pooled = model_.PredictResponseTimeBatch(profile_, batch);
      }
    }
    const double batch_s = Now() - t0;
    if (!traced) {
      batch_rate_.push_back(static_cast<double>(batch.size()) / batch_s);
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      results.Check(BitEqual(pooled[i], closed[i]),
                    "batch prediction differs from the closed-loop one");
    }

    // (c) one exploration from this round's first input.
    ModelInput base = batch.front();
    ExploreConfig config;
    config.max_iterations = kExploreIterations;
    const double t1 = Now();
    ExploreResult result;
    {
      Span span(tracer, "explore.explore", round.id(), item);
      result = ExploreTimeout(model_, profile_, base, config);
    }
    const double explore_s = Now() - t1;
    if (!traced) {
      explore_s_.push_back(explore_s);
    }
    results.Check(std::isfinite(result.best_response_time) &&
                      !result.trajectory.empty(),
                  "exploration found no finite policy");
    if (rounds_ < kCountedExplorations) {
      steps_ += result.trajectory.size();
      for (const ExploreStep& step : result.trajectory) {
        accepted_ += step.accepted;
      }
    }
    all_explore_ms_per_step_.push_back(
        explore_s * 1e3 / static_cast<double>(result.trajectory.size()));
    ++rounds_;
    return Now() - start;
  }

  void Finish() override {
    Results& results = *ctx_.results;
    if (!latency_ms_.empty()) {
      results.Set("predict_p50_ms", Percentile(latency_ms_, 0.5), "ms");
      results.Set("predict_p90_ms", Percentile(latency_ms_, 0.9), "ms");
      results.Set("predictions_per_s", Median(batch_rate_), "1/s");
      results.Set("explore_s", Median(explore_s_), "s");
      std::cout << "predict percentiles over " << latency_ms_.size()
                << " closed-loop predictions ("
                << SamplesBeyond(latency_ms_.size(), 0.9)
                << " beyond p90); " << batch_rate_.size()
                << " batches of " << per_round_ << "; "
                << explore_s_.size() << " explorations\n";
    }
    results.Count("explore.steps", steps_);
    results.Count("explore.accepted", accepted_);
    results.Set("explore.accept_ratio",
                static_cast<double>(accepted_) / static_cast<double>(steps_),
                "ratio");
    if (ctx_.tracer->enabled()) {
      ReportSpans();
      RunProbes();
    }
  }

 private:
  void ReportSpans() {
    Results& results = *ctx_.results;
    const auto summary = SummarizeSpans(ctx_.tracer->Spans());
    if (summary.count("common.batch") != 0) {
      results.Set(
          "common.pool_efficiency.batch",
          PoolEfficiency(summary.at("core.predict_pooled").total_seconds,
                         summary.at("common.batch").total_seconds,
                         ctx_.threads),
          "ratio");
    }
    results.Set("explore.step_ms", Median(all_explore_ms_per_step_), "ms");
  }

  // Matched probes splitting one prediction into its parts: the forest
  // lookup, building the service distribution, and one simulator
  // replication on the prediction's BuildSimConfig. The rest of the
  // closed-loop median is reported as the residual share.
  void RunProbes() {
    Results& results = *ctx_.results;
    Span probe(*ctx_.tracer, "probe.advise", 0, ctx_.NextItem());
    const size_t n = std::min(kProbeInputs, inputs_.size());
    const double mu_qph = profile_.service_rate_per_second * kSecondsPerHour;
    const double mu_m_qph = profile_.marginal_rate_per_second * kSecondsPerHour;

    std::vector<double> forest_us, build_us, replication_ms;
    for (size_t i = 0; i < n; ++i) {
      const double t0 = Now();
      const double mu_e_qph = model_.PredictEffectiveRateQph(profile_, inputs_[i]);
      const double t1 = Now();
      const EmpiricalDistribution service(profile_.service_time_samples);
      const double t2 = Now();
      // HybridModel's clamp of the forest's rate to the search bounds.
      const double speedup =
          std::clamp(mu_e_qph / mu_qph, 0.5, 1.5 * mu_m_qph / mu_qph);
      const PredictionSimConfig sim;
      const SimConfig config =
          BuildSimConfig(profile_, inputs_[i], service, speedup,
                         sim.num_queries, sim.warmup, DeriveSeed(sim.seed, 0));
      const double t3 = Now();
      (void)SimulateQueue(config);
      const double t4 = Now();
      forest_us.push_back((t1 - t0) * 1e6);
      build_us.push_back((t2 - t1) * 1e6);
      replication_ms.push_back((t4 - t3) * 1e3);
    }
    const double forest = Median(forest_us);
    const double build = Median(build_us);
    const double replication = Median(replication_ms);
    results.Set("ml.forest_predict_us", forest, "us");
    results.Set("sim.service_dist_build_us", build, "us");
    results.Set("sim.replication_ms", replication, "ms");

    std::vector<double> latency = latency_ms_;
    latency.insert(latency.end(), traced_latency_ms_.begin(),
                   traced_latency_ms_.end());
    const double p50 = Percentile(latency, 0.5);
    const double replications =
        static_cast<double>(PredictionSimConfig{}.replications);
    results.Set("core.predict_other_share",
                1.0 - (forest / 1e3 + build / 1e3 + replications * replication) /
                          p50,
                "ratio");
  }

  Context& ctx_;
  Tracer off_{false};
  const WorkloadProfile& profile_;
  const HybridModel& model_;
  const std::vector<ModelInput>& inputs_;
  const size_t per_round_;
  size_t rounds_ = 0;
  std::vector<double> latency_ms_, traced_latency_ms_;
  std::vector<double> batch_rate_, explore_s_, all_explore_ms_per_step_;
  uint64_t steps_ = 0, accepted_ = 0;
};

}  // namespace

std::unique_ptr<Path> MakeAdvisePath(Context& ctx,
                                     const msprint::WorkloadProfile& profile,
                                     const msprint::HybridModel& model,
                                     const std::vector<msprint::ModelInput>& inputs,
                                     size_t per_round) {
  return std::make_unique<AdvisePath>(ctx, profile, model, inputs, per_round);
}

}  // namespace perfbench
