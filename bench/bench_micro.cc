// Google-benchmark microbenchmarks for the library's hot primitives: the
// event-driven simulator (per-query cost), the Algorithm 1 tick loop, the
// ground-truth testbed, random-forest fit/predict, ANN prediction, the
// effective-rate calibration search for a row and for a whole profile, one
// hybrid prediction and one exploration (the model-query path), and the
// observability layer's idle and attached overhead (the CI obs job gates
// BM_ObsIdleHotPath against BM_TestbedRun's per-query cost).
//
// The main runs the usual benchmark CLI, then writes BENCH_micro.json with
// nanoseconds-per-iteration for every benchmark that ran, so the overhead
// gate and cross-commit comparisons read one machine-parseable artifact.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/core/effective_rate.h"
#include "src/core/event_queue.h"
#include "src/core/models.h"
#include "src/explore/explorer.h"
#include "src/ml/neural_net.h"
#include "src/common/thread_pool.h"
#include "src/obs/obs.h"
#include "src/obs/sketch.h"
#include "src/obs/slo.h"
#include "src/obs/whatif/whatif.h"
#include "src/sim/tick_simulator.h"
#include "src/testbed/testbed.h"

namespace msprint {
namespace {

SimConfig MicroSimConfig(const Distribution& service, size_t queries) {
  SimConfig config;
  config.arrival_rate_per_second = 0.8 / 70.0;
  config.service = &service;
  config.sprint_speedup = 1.4;
  config.timeout_seconds = 80.0;
  config.budget_capacity_seconds = 40.0;
  config.budget_refill_seconds = 200.0;
  config.num_queries = queries;
  config.seed = 11;
  return config;
}

void BM_SimRun(benchmark::State& state) {
  const LognormalDistribution service(70.0, 0.2);
  const SimConfig config =
      MicroSimConfig(service, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SimulateQueue(config).mean_response_time);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimRun)->Arg(1000)->Arg(10000)->Arg(100000);

// BM_SimRun's config on two slots: one slot runs as the single-slot
// recursion, so this keeps the event loop's own number.
void BM_SimRunEventLoop(benchmark::State& state) {
  const LognormalDistribution service(70.0, 0.2);
  SimConfig config =
      MicroSimConfig(service, static_cast<size_t>(state.range(0)));
  config.slots = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SimulateQueue(config).mean_response_time);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimRunEventLoop)->Arg(10000);

// Event-queue microbenchmarks: a sim-shaped churn (hold `live` events,
// alternate push/pop with jittered times) at the two operating points —
// flat mode (live set like the engines': a handful of events) and calendar
// mode (hundreds of events, past the flat threshold) — plus the
// std::priority_queue the engines used before, as the reference.
void BM_EventQueueChurn(benchmark::State& state) {
  const size_t live = static_cast<size_t>(state.range(0));
  Rng rng(17);
  EventQueue queue(/*width_hint=*/1.0);
  double clock = 0.0;
  for (size_t i = 0; i < live; ++i) {
    queue.Push(clock + rng.NextDouble() * 10.0, 0, i, 0);
  }
  for (auto _ : state) {
    const EventRecord ev = queue.PopMin();
    clock = ev.time();
    queue.Push(clock + rng.NextDouble() * 10.0, 0, ev.query, 0);
    benchmark::DoNotOptimize(clock);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueChurn)->Arg(6)->Arg(48)->Arg(512)->Arg(4096);

void BM_HeapChurnReference(benchmark::State& state) {
  struct Event {
    double time;
    uint64_t query;
    bool operator>(const Event& other) const { return time > other.time; }
  };
  const size_t live = static_cast<size_t>(state.range(0));
  Rng rng(17);
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue;
  double clock = 0.0;
  for (size_t i = 0; i < live; ++i) {
    queue.push({clock + rng.NextDouble() * 10.0, i});
  }
  for (auto _ : state) {
    const Event ev = queue.top();
    queue.pop();
    clock = ev.time;
    queue.push({clock + rng.NextDouble() * 10.0, ev.query});
    benchmark::DoNotOptimize(clock);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HeapChurnReference)->Arg(6)->Arg(48)->Arg(512)->Arg(4096);

void BM_TickSimulator(benchmark::State& state) {
  const LognormalDistribution service(70.0, 0.2);
  TickSimConfig config;
  config.base = MicroSimConfig(service, static_cast<size_t>(state.range(0)));
  config.tick_seconds = 1e-3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SimulateQueueTicked(config).mean_response_time);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TickSimulator)->Arg(200)->Arg(1000);

void BM_TestbedRun(benchmark::State& state) {
  TestbedConfig config;
  config.mix = QueryMix::Single(WorkloadId::kJacobi);
  config.policy.mechanism = MechanismId::kDvfs;
  config.utilization = 0.8;
  config.num_queries = static_cast<size_t>(state.range(0));
  config.warmup_queries = config.num_queries / 10;
  config.seed = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Testbed::Run(config).mean_response_time);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TestbedRun)->Arg(1000)->Arg(10000);

// BM_TestbedRun's config with a queue cap of num_queries + 1, which sheds
// nothing but routes the run through the event loop: one slot without
// admission runs as the single-slot recursion, so this keeps the event
// loop's own number.
void BM_TestbedRunEventLoop(benchmark::State& state) {
  TestbedConfig config;
  config.mix = QueryMix::Single(WorkloadId::kJacobi);
  config.policy.mechanism = MechanismId::kDvfs;
  config.utilization = 0.8;
  config.num_queries = static_cast<size_t>(state.range(0));
  config.warmup_queries = config.num_queries / 10;
  config.seed = 3;
  config.admission.policy = robust::AdmissionPolicy::kQueueCap;
  config.admission.queue_cap = config.num_queries + 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Testbed::Run(config).mean_response_time);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TestbedRunEventLoop)->Arg(1000);

// One whatif fan-out on the serial pool: a base run plus two knob
// experiments over a 300-query testbed (span collection on for every
// run). Bounds the full counterfactual loop — perturb, rerun, summarize
// spans, predict, rank — at roughly 3x an instrumented testbed run of the
// same size.
void BM_WhatifExperiment(benchmark::State& state) {
  whatif::Scenario scenario;
  scenario.engine = whatif::Engine::kTestbed;
  scenario.testbed.mix = QueryMix::Single(WorkloadId::kJacobi);
  scenario.testbed.policy.mechanism = MechanismId::kDvfs;
  scenario.testbed.utilization = 0.8;
  scenario.testbed.num_queries = 300;
  scenario.testbed.warmup_queries = 30;
  scenario.testbed.seed = 3;
  const whatif::Plan plan = whatif::PlanExperiments(
      scenario, {whatif::Knob::kServiceRate, whatif::Knob::kSprintTimeout},
      {1.0});
  ThreadPool serial(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        whatif::RunWhatif(scenario, plan, &serial).BestRelativeGain());
  }
  state.SetItemsProcessed(state.iterations() *
                          (plan.experiments.size() + 1) *
                          scenario.testbed.num_queries);
}
BENCHMARK(BM_WhatifExperiment);

Dataset SyntheticDataset(size_t rows) {
  Dataset data(ModelFeatureNames());
  Rng rng(5);
  for (size_t i = 0; i < rows; ++i) {
    const double util = 0.3 + 0.65 * rng.NextDouble();
    const double timeout = 200.0 * rng.NextDouble();
    const double budget = 0.1 + 0.7 * rng.NextDouble();
    const double mu = 51.0;
    const double mu_m = 74.0;
    data.Add({util * mu, mu, mu_m, util, 0.0, timeout, 200.0, budget},
             mu_m * (0.8 + 0.2 * rng.NextDouble()) - 10.0 * util);
  }
  return data;
}

void BM_RandomForestFit(benchmark::State& state) {
  const Dataset data = SyntheticDataset(static_cast<size_t>(state.range(0)));
  RandomForestConfig config;
  config.anchor_feature = MarginalRateFeatureIndex();
  for (auto _ : state) {
    benchmark::DoNotOptimize(RandomForest::Fit(data, config).TreeCount());
  }
}
BENCHMARK(BM_RandomForestFit)->Arg(100)->Arg(500);

void BM_RandomForestPredict(benchmark::State& state) {
  const Dataset data = SyntheticDataset(500);
  RandomForestConfig config;
  config.anchor_feature = MarginalRateFeatureIndex();
  const RandomForest forest = RandomForest::Fit(data, config);
  const std::vector<double> features = {40.0, 51.0, 74.0, 0.8,
                                        0.0,  90.0, 200.0, 0.4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.Predict(features));
  }
}
BENCHMARK(BM_RandomForestPredict);

void BM_NeuralNetPredict(benchmark::State& state) {
  const Dataset data = SyntheticDataset(200);
  NeuralNetConfig config;
  config.hidden_layers = {64, 64, 64};
  config.epochs = 20;
  const NeuralNet net = NeuralNet::Fit(data, config);
  const std::vector<double> features = {40.0, 51.0, 74.0, 0.8,
                                        0.0,  90.0, 200.0, 0.4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.Predict(features));
  }
}
BENCHMARK(BM_NeuralNetPredict);

// One bundle of the idle instrumentation a single testbed query pays (queue
// depth gauge, per-query counters, a latency observation, and two recorder
// events) with NO ObsSession attached. Each helper must compile down to a
// relaxed atomic load plus a never-taken branch; the CI obs job gates this
// bundle below 2% of BM_TestbedRun's per-query cost.
void BM_ObsIdleHotPath(benchmark::State& state) {
  for (auto _ : state) {
    obs::Count("testbed/queries");
    obs::Count("testbed/sprinted");
    obs::Count("testbed/timed_out");
    obs::Observe("testbed/response_time_seconds", 1.25);
    obs::Observe("testbed/queueing_delay_seconds", 0.25);
    obs::Observe("testbed/processing_time_seconds", 1.0);
    obs::SetGauge("testbed/queue_depth", 3.0);
    obs::Emit(100.0, obs::EventKind::kQueueArrival, obs::Subsystem::kTestbed,
              obs::Severity::kDebug, 7);
    obs::Emit(101.25, obs::EventKind::kQueueDeparture,
              obs::Subsystem::kTestbed, obs::Severity::kDebug, 7, 1.25);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ObsIdleHotPath);

// The same testbed run as BM_TestbedRun but with a live metrics registry
// and flight recorder attached — the enabled-mode cost of full
// instrumentation, for comparison against the idle baseline.
void BM_TestbedRunObserved(benchmark::State& state) {
  TestbedConfig config;
  config.mix = QueryMix::Single(WorkloadId::kJacobi);
  config.policy.mechanism = MechanismId::kDvfs;
  config.utilization = 0.8;
  config.num_queries = static_cast<size_t>(state.range(0));
  config.warmup_queries = config.num_queries / 10;
  config.seed = 3;
  for (auto _ : state) {
    obs::MetricsRegistry metrics;
    obs::FlightRecorder recorder;
    obs::ObsSession session(&metrics, &recorder);
    benchmark::DoNotOptimize(Testbed::Run(config).mean_response_time);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TestbedRunObserved)->Arg(1000);

// The marginal cost a testbed query pays when a span collector IS attached:
// filling SpanInputs, quantizing the milestone chain into ticks
// (BuildQuerySpan) and appending to the pre-reserved batch. This is the
// enabled-path analogue of BM_ObsIdleHotPath; the CI obs job gates it below
// 2% of BM_TestbedRun's per-query cost.
void BM_SpanRecordHotPath(benchmark::State& state) {
  std::vector<obs::QuerySpan> spans;
  spans.reserve(1024);
  const double fractions[3] = {0.25, 0.5, 0.25};
  uint64_t id = 0;
  for (auto _ : state) {
    if (spans.size() == spans.capacity()) {
      spans.clear();
    }
    obs::SpanInputs in;
    in.id = id++;
    in.klass = 2;
    in.arrival = 100.0;
    in.start = 101.5;
    in.depart = 104.25;
    in.service_time = 2.5;
    in.load_factor = 1.05;
    in.fault_multiplier = 1.0;
    in.toggle_seconds = 0.0005;
    in.sprint_begin = 102.0;
    in.sprinted = true;
    in.phase_fractions = fractions;
    in.num_phases = 3;
    spans.push_back(obs::BuildQuerySpan(in));
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SpanRecordHotPath);

// BM_TestbedRunObserved plus an attached span collector: every post-warmup
// query additionally records a full attribution span. The delta against
// BM_TestbedRun bounds the whole-run span overhead.
void BM_TestbedRunWithSpans(benchmark::State& state) {
  TestbedConfig config;
  config.mix = QueryMix::Single(WorkloadId::kJacobi);
  config.policy.mechanism = MechanismId::kDvfs;
  config.utilization = 0.8;
  config.num_queries = static_cast<size_t>(state.range(0));
  config.warmup_queries = config.num_queries / 10;
  config.seed = 3;
  for (auto _ : state) {
    obs::SpanCollector spans;
    obs::ObsSession session(nullptr, nullptr, &spans);
    benchmark::DoNotOptimize(Testbed::Run(config).mean_response_time);
    benchmark::DoNotOptimize(spans.recorded());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TestbedRunWithSpans)->Arg(1000);

// One DDSketch insert — the per-response cost the SLO pipeline adds to
// the testbed's serial event loop (log + map upsert). The CI obs job
// gates the whole SLO bundle below 2% of BM_TestbedRun's per-query cost.
void BM_SketchInsert(benchmark::State& state) {
  // Pre-generate pseudo-random latencies so the RNG is outside the
  // measured loop; cycle through a power-of-two window of them.
  std::vector<double> values(4096);
  Rng rng(17);
  const LognormalDistribution latency(70.0, 0.6);
  for (double& v : values) {
    v = latency.Sample(rng);
  }
  obs::QuantileSketch sketch(0.01);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch.Insert(values[i++ & 4095]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SketchInsert);

// One SLO pipeline feed step with advancing sim time: the arrival +
// response + window-roll path a served query pays when `msprint slo` (or
// the storm A/B) is watching. Window rolls amortize across feeds.
void BM_WindowRoll(benchmark::State& state) {
  std::vector<double> values(4096);
  Rng rng(23);
  const LognormalDistribution latency(70.0, 0.6);
  for (double& v : values) {
    v = latency.Sample(rng);
  }
  obs::SloConfig config;
  config.window_seconds = 5.0;
  config.timeline_capacity = 256;
  obs::SloObjective objective;
  objective.signal = obs::SloSignal::kP99;
  objective.op = obs::SloOp::kLt;
  objective.threshold = 200.0;
  objective.budget = 0.1;
  config.objectives.push_back(objective);
  obs::SloPipeline pipeline(config);
  double now = 0.0;
  size_t i = 0;
  for (auto _ : state) {
    now += 1.25;  // four feeds per 5 s window
    pipeline.OnArrival(now);
    pipeline.OnResponse(now, values[i++ & 4095], true);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WindowRoll);

// The storm-shaped feed: default 5 s windows and capacity, no objectives,
// and sim time advancing about 14 windows per served attempt, as on an
// overload storm, so nearly every window closes empty. BM_WindowRoll
// never crosses an empty window.
void BM_WindowRollSparse(benchmark::State& state) {
  std::vector<double> values(4096);
  Rng rng(29);
  const LognormalDistribution latency(70.0, 0.6);
  for (double& v : values) {
    v = latency.Sample(rng);
  }
  obs::SloPipeline pipeline{obs::SloConfig()};
  double now = 0.0;
  size_t i = 0;
  for (auto _ : state) {
    now += 70.0;  // 14 windows of 5 s
    pipeline.OnArrival(now);
    pipeline.OnResponse(now, values[i++ & 4095], true);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WindowRollSparse);

void BM_CalibrationSearch(benchmark::State& state) {
  WorkloadProfile profile;
  profile.service_rate_per_second = 1.0 / 70.0;
  profile.marginal_rate_per_second = 1.45 / 70.0;
  Rng rng(7);
  const LognormalDistribution jitter(70.0, 0.2);
  for (int i = 0; i < 500; ++i) {
    profile.service_time_samples.push_back(jitter.Sample(rng));
  }
  ProfileRow row;
  row.utilization = 0.75;
  row.timeout_seconds = 80.0;
  row.refill_seconds = 200.0;
  row.budget_fraction = 0.4;
  row.observed_mean_response_time = 180.0;
  const EmpiricalDistribution service(profile.service_time_samples);
  CalibrationConfig config;
  config.sim_queries = 4000;
  config.sim_warmup = 400;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        CalibrateEffectiveSpeedup(profile, row, service, config));
  }
}
BENCHMARK(BM_CalibrationSearch);

// A whole profile's calibration on the shared pool: 32 rows over four
// (utilization, arrival kind) draw keys, so rows share draws in chunks.
// Each observation is the simulator's mean at speedup 1.2, jittered by up
// to 10%, so most rows bisect. No baseline entry gates it.
void BM_CalibrateProfile(benchmark::State& state) {
  WorkloadProfile profile;
  profile.service_rate_per_second = 1.0 / 70.0;
  profile.marginal_rate_per_second = 1.45 / 70.0;
  Rng rng(7);
  const LognormalDistribution jitter(70.0, 0.2);
  for (int i = 0; i < 500; ++i) {
    profile.service_time_samples.push_back(jitter.Sample(rng));
  }
  const EmpiricalDistribution service(profile.service_time_samples);
  CalibrationConfig config;
  config.sim_queries = 4000;
  config.sim_warmup = 400;
  for (double utilization : {0.5, 0.75}) {
    for (DistributionKind kind :
         {DistributionKind::kExponential, DistributionKind::kPareto}) {
      for (double timeout : {20.0, 40.0, 80.0, 160.0}) {
        for (double budget : {0.2, 0.6}) {
          ProfileRow row;
          row.utilization = utilization;
          row.arrival_kind = kind;
          row.timeout_seconds = timeout;
          row.refill_seconds = 200.0;
          row.budget_fraction = budget;
          row.observed_mean_response_time =
              SimulatedResponseTime(profile, ModelInput::FromRow(row),
                                    service, 1.2, config) *
              (0.9 + 0.2 * rng.NextDouble());
          profile.rows.push_back(row);
        }
      }
    }
  }
  for (auto _ : state) {
    WorkloadProfile calibrated = profile;
    benchmark::DoNotOptimize(CalibrateProfile(calibrated, config));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(profile.rows.size()));
}
BENCHMARK(BM_CalibrateProfile)->Unit(benchmark::kMillisecond);

// A small fixed profile for the model-query path: 500 service samples and
// a 3x3x2 grid of rows whose effective speedups are set by formula, so the
// forest trains without a calibration run.
WorkloadProfile ModelQueryProfile() {
  WorkloadProfile profile;
  profile.service_rate_per_second = 1.0 / 70.0;
  profile.marginal_rate_per_second = 1.45 / 70.0;
  Rng rng(7);
  const LognormalDistribution jitter(70.0, 0.2);
  for (int i = 0; i < 500; ++i) {
    profile.service_time_samples.push_back(jitter.Sample(rng));
  }
  for (double utilization : {0.4, 0.6, 0.8}) {
    for (double timeout : {20.0, 80.0, 160.0}) {
      for (double budget : {0.2, 0.6}) {
        ProfileRow row;
        row.utilization = utilization;
        row.timeout_seconds = timeout;
        row.refill_seconds = 200.0;
        row.budget_fraction = budget;
        row.effective_speedup = 1.0 + 0.5 * budget - 0.2 * utilization;
        profile.rows.push_back(row);
      }
    }
  }
  return profile;
}

ModelInput ModelQueryInput() {
  ModelInput input;
  input.utilization = 0.75;
  input.timeout_seconds = 80.0;
  input.budget_fraction = 0.4;
  return input;
}

// One hybrid prediction at the default PredictionSimConfig: the forest
// lookup, then two 20,000-query replications drawn and replayed.
void BM_HybridPredict(benchmark::State& state) {
  const WorkloadProfile profile = ModelQueryProfile();
  const HybridModel model = HybridModel::Train({&profile});
  const ModelInput input = ModelQueryInput();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.PredictResponseTime(profile, input));
  }
}
BENCHMARK(BM_HybridPredict)->Unit(benchmark::kMillisecond);

// One exploration with `msprint explore`'s settings: 200 iterations, one
// chain, on the same model.
void BM_ExploreTimeout(benchmark::State& state) {
  const WorkloadProfile profile = ModelQueryProfile();
  const HybridModel model = HybridModel::Train({&profile});
  const ModelInput base = ModelQueryInput();
  ExploreConfig config;
  config.max_iterations = 200;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ExploreTimeout(model, profile, base, config).best_response_time);
  }
}
BENCHMARK(BM_ExploreTimeout)->Unit(benchmark::kMillisecond);

// Console reporter that also captures per-iteration timings so main can
// write them to BENCH_micro.json after the run. In --json-only mode the
// console half is suppressed and the artifact is the sole output — CI's
// perf job runs that way so its logs carry only the regression-gate table.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit CapturingReporter(bool json_only) : json_only_(json_only) {}

  bool ReportContext(const Context& context) override {
    return json_only_ ? true : benchmark::ConsoleReporter::ReportContext(context);
  }

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.iterations == 0 ||
          run.run_type != Run::RT_Iteration) {
        continue;
      }
      captured_.emplace_back(run.benchmark_name(),
                             run.real_accumulated_time /
                                 static_cast<double>(run.iterations) * 1e9);
    }
    if (!json_only_) {
      benchmark::ConsoleReporter::ReportRuns(runs);
    }
  }

  const std::vector<std::pair<std::string, double>>& captured() const {
    return captured_;
  }

 private:
  bool json_only_;
  std::vector<std::pair<std::string, double>> captured_;
};

}  // namespace
}  // namespace msprint

int main(int argc, char** argv) {
  // --json-only is ours, not google-benchmark's: strip it before
  // Initialize so ReportUnrecognizedArguments does not reject it.
  bool json_only = false;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json-only") {
      json_only = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  msprint::CapturingReporter reporter(json_only);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  msprint::bench::BenchReport report("micro");
  for (const auto& [name, ns_per_iter] : reporter.captured()) {
    report.Scalar(name + "_ns_per_iter", ns_per_iter);
  }
  report.Write();
  return 0;
}
