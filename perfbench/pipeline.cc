// Pipeline path: the batch job users wait on longest. Profiling runs the
// testbed over the grid on the pool; calibration bisects the simulator per
// row on the pool; training fits the forest. It never enters explore or
// obs.

#include <algorithm>
#include <array>
#include <cmath>
#include <iostream>
#include <optional>
#include <sstream>

#include "perfbench/paths.h"
#include "src/common/checksum.h"
#include "src/common/thread_pool.h"
#include "src/core/effective_rate.h"
#include "src/core/evaluation.h"
#include "src/profiler/profile_io.h"

namespace perfbench {
namespace {

using namespace msprint;

// CLI defaults of `msprint profile` (--queries 8000, warmup a tenth,
// --seed 42) and `msprint profile --mix-with KNN` (interference 0.8).
constexpr size_t kQueriesPerRun = 8000;
constexpr uint64_t kProfileSeed = 42;
constexpr double kTrainFraction = 0.8;
// Held-out rows scored per profile: this many pinned 80/20 splits.
constexpr size_t kScoringSplits = 5;
// Rows each per-layer probe replays.
constexpr size_t kProbeRows = 8;

// Where the pre-generation probe stores its draws so they are not elided.
volatile double pregen_sink = 0.0;

struct Mix {
  const char* name;
  QueryMix mix;
};

std::array<Mix, 2> Mixes() {
  return {Mix{"Jacobi", QueryMix::Single(WorkloadId::kJacobi)},
          Mix{"Jacobi+KNN",
              QueryMix::Uniform({WorkloadId::kJacobi, WorkloadId::kKnn}, 0.8)}};
}

// Testbed query executions ProfileWorkload performs: the unsprinted and
// full-sprint rate runs plus each grid point's replications (3, doubled
// at >= 0.7 utilization and quadrupled at >= 0.9, as profiler.cc does).
uint64_t QueriesSimulated(const WorkloadProfile& profile,
                          const ProfilerConfig& config) {
  uint64_t queries = std::max<size_t>(config.queries_per_run, 2000) +
                     config.queries_per_run;
  for (const ProfileRow& row : profile.rows) {
    const size_t reps = config.replications_per_point *
                        (row.utilization >= 0.9   ? 4
                         : row.utilization >= 0.7 ? 2
                                                  : 1);
    queries += reps * config.queries_per_run;
  }
  return queries;
}

class PipelinePath final : public Path {
 public:
  PipelinePath(Context& ctx, size_t grid_points) : ctx_(ctx) {
    profiler_.sample_grid_points = grid_points;
    profiler_.queries_per_run = kQueriesPerRun;
    profiler_.warmup_queries = kQueriesPerRun / 10;
    profiler_.seed = kProfileSeed;
  }

  double RunItem(bool traced) override {
    Tracer& tracer = traced ? *ctx_.tracer : off_;
    const uint64_t item = ctx_.NextItem();
    const auto mixes = Mixes();
    std::array<WorkloadProfile, 2> uncalibrated;
    double profile_s = 0.0;
    double calibrate_s = 0.0;
    const double start = Now();
    {
      Span pass(tracer, "pipeline.pass", 0, item);
      for (size_t m = 0; m < mixes.size(); ++m) {
        const double t0 = Now();
        {
          Span span(tracer, "profiler.profile", pass.id(), item);
          profiles_[m] = ProfileWorkload(mixes[m].mix, Platform(), profiler_);
        }
        uncalibrated[m] = profiles_[m];
        const double t1 = Now();
        {
          Span span(tracer, "core.calibrate", pass.id(), item);
          if (traced) {
            CalibrateRows(profiles_[m], span.id(), item);
          } else {
            CalibrateProfile(profiles_[m], calibration_);
          }
        }
        const double t2 = Now();
        {
          Span span(tracer, "ml.train", pass.id(), item);
          Rng rng(SplitSeed(m, 0));
          ProfileSplit split =
              SplitProfileRows(profiles_[m], kTrainFraction, rng);
          (void)HybridModel::Train({&split.train});
        }
        profile_s += t1 - t0;
        calibrate_s += t2 - t1;
      }
    }
    const double pass_s = Now() - start;
    if (!traced) {
      pipeline_s_.push_back(pass_s);
      profile_s_.push_back(profile_s);
      calibrate_s_.push_back(calibrate_s);
    }
    // Every pass profiles the same pinned grid, so each calibrated profile
    // must match the first CalibrateProfile result byte for byte — and a
    // traced pass, which calibrates row by row, must match it too.
    for (size_t m = 0; m < mixes.size(); ++m) {
      if (!reference_[m].has_value()) {
        if (traced) {
          Span span(*ctx_.tracer, "check.reference_calibration", 0, item);
          CalibrateProfile(uncalibrated[m], calibration_);
          reference_[m] = ProfileDigest(uncalibrated[m]);
        } else {
          reference_[m] = ProfileDigest(profiles_[m]);
        }
      }
      ctx_.results->Check(
          ProfileDigest(profiles_[m]) == *reference_[m],
          std::string("calibrated profile of ") + mixes[m].name +
              (traced ? " (per-row CalibrateEffectiveSpeedup)" : "") +
              " differs from CalibrateProfile's");
    }
    return pass_s;
  }

  void Finish() override {
    Results& results = *ctx_.results;
    const auto mixes = Mixes();
    for (size_t m = 0; m < mixes.size(); ++m) {
      std::cout << "digest profile " << mixes[m].name << " rows "
                << profiles_[m].rows.size() << " crc32 " << std::hex
                << ProfileDigest(profiles_[m]) << std::dec << "\n";
    }
    if (!pipeline_s_.empty()) {
      results.Set("pipeline_s", Median(pipeline_s_), "s");
      results.Set("profile_s", Median(profile_s_), "s");
      results.Set("calibrate_s", Median(calibrate_s_), "s");
      std::cout << "pipeline passes " << pipeline_s_.size() << " (grid "
                << profiler_.sample_grid_points << " x 2 mixes)\n";
    }
    results.Set("model_error_p50", ScoreHeldOutRows(), "ratio");
    ReportRowCounts();
    if (ctx_.tracer->enabled()) {
      ReportSpans();
      RunProbes();
    }
  }

 private:
  static SprintPolicy Platform() {
    SprintPolicy platform;
    platform.mechanism = MechanismId::kDvfs;
    return platform;
  }

  // Splits are pinned like the grid, so the held-out error is one number
  // per code version: any change means the model's semantics changed.
  static uint64_t SplitSeed(size_t mix, size_t split) {
    return DeriveSeed(kProfileSeed, 0x5917 + mix * 64 + split);
  }

  // CalibrateProfile's loop, issued by the benchmark so each row gets a
  // span: the same ParallelFor over CalibrateEffectiveSpeedup.
  void CalibrateRows(WorkloadProfile& profile, uint64_t parent,
                     uint64_t item) {
    const EmpiricalDistribution service(profile.service_time_samples);
    ThreadPool::Global().ParallelFor(profile.rows.size(), [&](size_t i) {
      Span row(*ctx_.tracer, "core.calibrate_row", parent, item);
      profile.rows[i].effective_speedup = CalibrateEffectiveSpeedup(
          profile, profile.rows[i], service, calibration_);
    });
  }

  // Median absolute relative error of the hybrid model on held-out rows,
  // over kScoringSplits pinned 80/20 splits per profile (the first is the
  // split the timed pass trained on). Every prediction is checked finite.
  double ScoreHeldOutRows() {
    std::vector<double> errors;
    for (size_t m = 0; m < profiles_.size(); ++m) {
      for (size_t k = 0; k < kScoringSplits; ++k) {
        Rng rng(SplitSeed(m, k));
        const ProfileSplit split =
            SplitProfileRows(profiles_[m], kTrainFraction, rng);
        const HybridModel model = HybridModel::Train({&split.train});
        std::vector<ModelInput> inputs;
        for (const ProfileRow& row : split.test_rows) {
          inputs.push_back(ModelInput::FromRow(row));
        }
        const std::vector<double> predicted =
            model.PredictResponseTimeBatch(profiles_[m], inputs);
        for (size_t i = 0; i < predicted.size(); ++i) {
          const bool finite = std::isfinite(predicted[i]);
          ctx_.results->Check(finite, "non-finite held-out prediction");
          if (finite) {
            errors.push_back(
                AbsoluteRelativeError(predicted[i],
                                      split.test_rows[i]
                                          .observed_mean_response_time));
          }
        }
      }
    }
    std::cout << "model_error_p50 over " << errors.size()
              << " held-out predictions\n";
    return Median(errors);
  }

  // Calibration outcome of every row, read from the calibrated profiles:
  // accepted at the marginal speedup, clamped at either search bound, or
  // bisected.
  void ReportRowCounts() {
    uint64_t rows = 0, marginal = 0, lo = 0, hi = 0, queries = 0;
    for (const WorkloadProfile& profile : profiles_) {
      const double m = std::max(1.0, profile.MarginalSpeedup());
      for (const ProfileRow& row : profile.rows) {
        ++rows;
        marginal += row.effective_speedup == m;
        lo += row.effective_speedup == calibration_.min_speedup;
        hi += row.effective_speedup == m * calibration_.max_speedup_factor;
      }
      queries += QueriesSimulated(profile, profiler_);
    }
    Results& results = *ctx_.results;
    results.Count("core.rows", rows);
    results.Count("core.rows_at_marginal", marginal);
    results.Count("core.rows_clamped_lo", lo);
    results.Count("core.rows_clamped_hi", hi);
    results.Count("core.rows_bisected", rows - marginal - lo - hi);
    results.Count("profiler.queries_simulated", queries);
  }

  void ReportSpans() {
    const auto summary = SummarizeSpans(ctx_.tracer->Spans());
    Results& results = *ctx_.results;
    if (summary.count("core.calibrate_row") == 0) {
      return;
    }
    std::vector<double> row_ms;
    for (double d : summary.at("core.calibrate_row").durations) {
      row_ms.push_back(d * 1e3);
    }
    results.Set("core.calibrate_row_ms.p50", Median(row_ms), "ms");
    results.Set("core.calibrate_row_ms.max",
                *std::max_element(row_ms.begin(), row_ms.end()), "ms");
    std::cout << "calibrate row times over " << row_ms.size()
              << " traced rows\n";
    // Busy row time over what the pool could have done while the traced
    // calibrate spans that parented those rows were open.
    results.Set("common.pool_efficiency.calibrate",
                PoolEfficiency(summary.at("core.calibrate_row").total_seconds,
                               summary.at("core.calibrate").total_seconds,
                               ctx_.threads),
                "ratio");
    std::vector<double> train_ms;
    for (double d : summary.at("ml.train").durations) {
      train_ms.push_back(d * 1e3);
    }
    results.Set("ml.train_ms", Median(train_ms), "ms");
  }

  // Matched probes on the last calibrated Jacobi profile: serial testbed
  // runs of a few grid rows, the simulator evaluation calibration repeats
  // per bisection step, and the share of a simulation spent drawing its
  // samples.
  void RunProbes() {
    Results& results = *ctx_.results;
    const WorkloadProfile& profile = profiles_[0];
    const size_t rows = std::min(kProbeRows, profile.rows.size());
    Span probe(*ctx_.tracer, "probe.pipeline", 0, ctx_.NextItem());

    uint64_t queries = 0;
    double testbed_s = 0.0;
    for (size_t i = 0; i < rows; ++i) {
      const ProfileRow& row = profile.rows[i];
      TestbedConfig run;
      run.mix = profile.mix;
      run.policy = profile.platform;
      run.policy.timeout_seconds = row.timeout_seconds;
      run.policy.refill_seconds = row.refill_seconds;
      run.policy.budget_fraction = row.budget_fraction;
      run.utilization = row.utilization;
      run.arrival_kind = row.arrival_kind;
      run.num_queries = profiler_.queries_per_run;
      run.warmup_queries = profiler_.warmup_queries;
      run.seed = DeriveSeed(ctx_.seed, i);
      const double t0 = Now();
      (void)Testbed::Run(run);
      testbed_s += Now() - t0;
      queries += run.num_queries;
    }
    results.Set("testbed.ns_per_query",
                testbed_s * 1e9 / static_cast<double>(queries), "ns");
    results.Count("testbed.probe_queries", queries);

    const EmpiricalDistribution service(profile.service_time_samples);
    const double marginal = std::max(1.0, profile.MarginalSpeedup());
    std::vector<double> eval_ms;
    double sim_s = 0.0, pregen_s = 0.0;
    for (size_t i = 0; i < rows; ++i) {
      const ModelInput input = ModelInput::FromRow(profile.rows[i]);
      const double t0 = Now();
      (void)SimulatedResponseTime(profile, input, service, marginal,
                                  calibration_);
      eval_ms.push_back((Now() - t0) * 1e3);

      const SimConfig sim = BuildSimConfig(
          profile, input, service, marginal, calibration_.sim_queries,
          calibration_.sim_warmup, DeriveSeed(calibration_.seed, 0));
      const double t1 = Now();
      (void)SimulateQueue(sim);
      const double t2 = Now();
      Rng rng(sim.seed);
      const auto interarrival =
          MakeDistribution(sim.arrival_kind, 1.0 / sim.arrival_rate_per_second);
      double t = 0.0, work = 0.0;
      for (size_t q = 0; q < sim.num_queries; ++q) {
        t += interarrival->Sample(rng);
        work += service.Sample(rng);
      }
      const double t3 = Now();
      pregen_sink = t + work;
      sim_s += t2 - t1;
      pregen_s += t3 - t2;
    }
    const double eval = Median(eval_ms);
    results.Set("sim.eval_ms", eval, "ms");
    results.Set("sim.pregen_share", pregen_s / sim_s, "ratio");
    if (results.Has("core.calibrate_row_ms.p50")) {
      results.Set("core.evals_per_row",
                  results.Get("core.calibrate_row_ms.p50") / eval,
                  "evals_derived");
    }
  }

  Context& ctx_;
  Tracer off_{false};
  ProfilerConfig profiler_;
  CalibrationConfig calibration_;
  std::array<WorkloadProfile, 2> profiles_;
  std::array<std::optional<uint32_t>, 2> reference_;
  std::vector<double> pipeline_s_, profile_s_, calibrate_s_;
};

}  // namespace

uint32_t ProfileDigest(const msprint::WorkloadProfile& profile) {
  std::ostringstream text;
  msprint::SaveProfile(profile, text);
  return msprint::Crc32(text.str());
}

std::unique_ptr<Path> MakePipelinePath(Context& ctx, size_t grid_points) {
  return std::make_unique<PipelinePath>(ctx, grid_points);
}

}  // namespace perfbench
