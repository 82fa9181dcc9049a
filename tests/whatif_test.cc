// Tests for the causal what-if profiler (src/obs/whatif; DESIGN.md §16):
// knob registry and plan validation, the first-order-prediction-equals-
// exact-rerun property on interference-free workloads, bounded model
// error under contention, byte-identical reports across pool sizes, a
// pinned measured gain on the committed storm scenario, SLO columns equal
// to a live-fed pipeline's, and the bit-exact persistence round trip with
// its corruption harness.

#include "src/obs/whatif/whatif.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/distribution.h"
#include "src/common/thread_pool.h"
#include "src/obs/obs.h"
#include "src/persist/persist.h"
#include "src/robust/storm.h"

namespace msprint {
namespace whatif {
namespace {

TEST(WhatifKnobTest, NamesRoundTrip) {
  for (size_t i = 0; i < kNumKnobs; ++i) {
    const Knob knob = static_cast<Knob>(i);
    Knob parsed;
    ASSERT_TRUE(ParseKnob(ToString(knob), &parsed)) << ToString(knob);
    EXPECT_EQ(parsed, knob);
  }
  Knob out;
  EXPECT_FALSE(ParseKnob("turbo-button", &out));
  EXPECT_FALSE(ParseKnob("", &out));
}

Scenario SmallTestbedScenario() {
  Scenario scenario;
  scenario.engine = Engine::kTestbed;
  scenario.testbed.num_queries = 400;
  scenario.testbed.warmup_queries = 40;
  scenario.testbed.seed = 7;
  scenario.testbed.utilization = 0.6;
  return scenario;
}

// Objectives on signals only a live feed carries (queue depth at dispatch,
// budget level at response) and on p99, at 600 s windows.
obs::SloConfig LiveSignalObjectives() {
  obs::SloConfig slo;
  slo.window_seconds = 600.0;
  const auto add = [&](obs::SloSignal signal, obs::SloOp op,
                       double threshold) {
    obs::SloObjective objective;
    objective.signal = signal;
    objective.op = op;
    objective.threshold = threshold;
    objective.budget = 0.05;
    slo.objectives.push_back(objective);
  };
  add(obs::SloSignal::kQueueDepth, obs::SloOp::kLt, 3.0);
  add(obs::SloSignal::kBudgetLevel, obs::SloOp::kGt, 0.0);
  add(obs::SloSignal::kP99, obs::SloOp::kLt, 400.0);
  return slo;
}

TEST(WhatifPlanTest, CrossesKnobsWithDeltasKnobMajor) {
  const Scenario scenario = SmallTestbedScenario();
  const Plan plan = PlanExperiments(
      scenario, {Knob::kServiceRate, Knob::kSprintRate}, {-0.5, 1.0});
  ASSERT_EQ(plan.experiments.size(), 4u);
  EXPECT_EQ(plan.experiments[0].knob, Knob::kServiceRate);
  EXPECT_EQ(plan.experiments[0].delta, -0.5);
  EXPECT_EQ(plan.experiments[1].knob, Knob::kServiceRate);
  EXPECT_EQ(plan.experiments[1].delta, 1.0);
  EXPECT_EQ(plan.experiments[2].knob, Knob::kSprintRate);
  EXPECT_EQ(plan.experiments[3].knob, Knob::kSprintRate);
  EXPECT_TRUE(plan.skipped.empty());
}

TEST(WhatifPlanTest, RecordsInapplicableKnobsAsSkipped) {
  // No retries, no breaker trips, no admission, no SLO objectives: those
  // knobs cannot affect the scenario and must be planned around.
  const Scenario scenario = SmallTestbedScenario();
  const Plan plan = PlanExperiments(scenario, AllKnobs(), {0.25});
  ASSERT_EQ(plan.skipped.size(), 4u);
  EXPECT_EQ(plan.skipped[0], Knob::kBreakerCooldown);
  EXPECT_EQ(plan.skipped[1], Knob::kRetryBackoff);
  EXPECT_EQ(plan.skipped[2], Knob::kAdmission);
  EXPECT_EQ(plan.skipped[3], Knob::kSloWindow);
  EXPECT_EQ(plan.experiments.size(), 4u);  // the four applicable knobs
}

TEST(WhatifPlanTest, RejectsInvalidDeltas) {
  const Scenario scenario = SmallTestbedScenario();
  const std::vector<Knob> knobs = {Knob::kServiceRate};
  EXPECT_THROW(PlanExperiments(scenario, knobs, {0.0}),
               std::invalid_argument);
  EXPECT_THROW(PlanExperiments(scenario, knobs, {-1.0}),
               std::invalid_argument);
  EXPECT_THROW(PlanExperiments(scenario, knobs, {-1.5}),
               std::invalid_argument);
  EXPECT_THROW(
      PlanExperiments(scenario, knobs,
                      {std::numeric_limits<double>::infinity()}),
      std::invalid_argument);
  EXPECT_THROW(
      PlanExperiments(scenario, knobs,
                      {std::numeric_limits<double>::quiet_NaN()}),
      std::invalid_argument);
  EXPECT_THROW(PlanExperiments(scenario, knobs, {}), std::invalid_argument);
  EXPECT_THROW(PlanExperiments(scenario, {}, {0.25}),
               std::invalid_argument);
}

// The simulator feeds no SLO pipeline, so a simulated scenario cannot
// carry objectives.
TEST(WhatifPlanTest, RefusesObjectivesOnSimScenario) {
  const DeterministicDistribution service(1.0);
  Scenario scenario;
  scenario.engine = Engine::kSim;
  scenario.sim.service = &service;
  EXPECT_NO_THROW(PlanExperiments(scenario, {Knob::kServiceRate}, {1.0}));
  scenario.slo = LiveSignalObjectives();
  EXPECT_FALSE(Applicable(scenario, Knob::kSloWindow));
  EXPECT_THROW(PlanExperiments(scenario, {Knob::kServiceRate}, {1.0}),
               std::invalid_argument);
}

// An interference-free workload: single slot, arrivals spaced far apart
// (no queueing), deterministic dyadic service times, no sprinting, no
// faults. The span decomposition has only a service component, and every
// quantity involved is exactly representable, so the first-order span
// prediction must equal the exact counterfactual rerun BIT FOR BIT.
Scenario InterferenceFreeScenario(const std::vector<double>* arrivals,
                                  const Distribution* service) {
  Scenario scenario;
  scenario.engine = Engine::kSim;
  scenario.sim.arrival_trace = arrivals;
  scenario.sim.service = service;
  scenario.sim.sprint_speedup = 1.0;
  scenario.sim.timeout_seconds = 1e9;  // never sprint
  scenario.sim.slots = 1;
  scenario.sim.num_queries = arrivals->size();
  scenario.sim.warmup_queries = 0;
  scenario.sim.seed = 3;
  return scenario;
}

TEST(WhatifPropertyTest, PredictionExactOnInterferenceFreeWorkload) {
  std::vector<double> arrivals;
  for (int i = 0; i < 8; ++i) {
    arrivals.push_back(10.0 * i);
  }
  const DeterministicDistribution service(0.25);  // dyadic: exact ticks
  const Scenario scenario = InterferenceFreeScenario(&arrivals, &service);

  // Dyadic deltas keep 1/(1+δ) and the scaled service times exactly
  // representable, so no rounding enters either path.
  const Plan plan =
      PlanExperiments(scenario, {Knob::kServiceRate}, {1.0, -0.5, 3.0});
  const Report report = RunWhatif(scenario, plan);

  ASSERT_EQ(report.base.queries, 8u);
  EXPECT_EQ(report.base.mean_response_seconds, 0.25);
  ASSERT_EQ(report.experiments.size(), 3u);
  for (const ExperimentResult& r : report.experiments) {
    // Bitwise equality, not EXPECT_NEAR: the exactness claim is the
    // point of the whole design.
    EXPECT_EQ(r.predicted_mean_seconds, r.measured_mean_seconds)
        << "delta=" << r.delta;
    EXPECT_EQ(r.error_seconds, 0.0) << "delta=" << r.delta;
  }
  // δ=+1 is a 2x service speedup: mean must halve exactly.
  EXPECT_EQ(report.experiments[0].measured_mean_seconds, 0.125);
  // δ=-0.5 halves the rate: mean doubles exactly.
  EXPECT_EQ(report.experiments[1].measured_mean_seconds, 0.5);
}

TEST(WhatifPropertyTest, PredictionBoundedOnContendedWorkload) {
  // Under queueing the linear span model ignores the second-order effect
  // (shorter service also drains the queue), so it cannot match exactly —
  // but it must stay on the right side and within the base mean.
  Scenario scenario = SmallTestbedScenario();
  const Plan plan = PlanExperiments(scenario, {Knob::kServiceRate}, {1.0});
  const Report report = RunWhatif(scenario, plan);
  ASSERT_EQ(report.experiments.size(), 1u);
  const ExperimentResult& r = report.experiments[0];
  const double base_mean = report.base.mean_response_seconds;
  ASSERT_GT(base_mean, 0.0);
  // Doubling the service rate must help, and the prediction must
  // overestimate the mean (it misses the queue-drain effect).
  EXPECT_GT(r.gain_seconds, 0.0);
  EXPECT_GT(r.error_seconds, 0.0);
  EXPECT_LT(std::fabs(r.error_seconds), base_mean);
  EXPECT_GT(report.BestRelativeGain(), 0.0);
}

TEST(WhatifDeterminismTest, ReportBytesIdenticalAcrossPoolSizes) {
  Scenario scenario = SmallTestbedScenario();
  scenario.testbed.num_queries = 300;
  ThreadPool serial(1);
  ThreadPool wide(4);
  // Without objectives, then with a worker-local pipeline on every rerun.
  for (const bool with_objectives : {false, true}) {
    if (with_objectives) {
      scenario.slo = LiveSignalObjectives();
    }
    const Plan plan = PlanExperiments(
        scenario,
        {Knob::kServiceRate, Knob::kToggleLatency, Knob::kSprintRate,
         Knob::kSloWindow},
        {-0.5, 1.0});
    SCOPED_TRACE(with_objectives ? "with objectives" : "without objectives");
    const std::string a = FormatReport(RunWhatif(scenario, plan, &serial));
    const std::string b = FormatReport(RunWhatif(scenario, plan, &wide));
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.find("whatif/base/slo_alerts") != std::string::npos,
              with_objectives);
    const std::string ja =
        FormatReportJsonl(RunWhatif(scenario, plan, &serial));
    const std::string jb = FormatReportJsonl(RunWhatif(scenario, plan, &wide));
    EXPECT_EQ(ja, jb);
  }
}

// The committed storm scenario (bench/storms/default.storm) under the
// hardened server: a 2x service-rate speedup must buy a large, stable
// fraction of the mean response time. The range is generous on purpose —
// it pins the causal direction and magnitude, not the exact value.
TEST(WhatifStormTest, PinnedServiceRateGainOnCommittedStorm) {
  const std::string path =
      std::string(MSPRINT_SOURCE_DIR) + "/bench/storms/default.storm";
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr) << path;
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);

  robust::StormConfig storm = robust::ParseStormConfig(text);
  storm.queries = 800;  // keep the test fast; the shape survives
  Scenario scenario;
  scenario.engine = Engine::kTestbed;
  scenario.testbed = robust::MakeStormTestbedConfig(storm, /*hardened=*/true);

  const Plan plan = PlanExperiments(scenario, {Knob::kServiceRate}, {1.0});
  const Report report = RunWhatif(scenario, plan);
  ASSERT_EQ(report.experiments.size(), 1u);
  const double relative_gain = report.BestRelativeGain();
  EXPECT_GT(relative_gain, 0.30);
  EXPECT_LT(relative_gain, 0.95);
  // Ranking must surface the knob that was measured.
  ASSERT_EQ(report.ranking.size(), 1u);
  EXPECT_EQ(report.ranking[0].knob, Knob::kServiceRate);
}

TEST(WhatifSloTest, ObjectivesEvaluatedPerExperiment) {
  Scenario scenario = SmallTestbedScenario();
  scenario.slo.emplace();
  scenario.slo->window_seconds = 200.0;
  obs::SloObjective objective;
  objective.signal = obs::SloSignal::kP99;
  objective.op = obs::SloOp::kLt;
  objective.threshold = 1.0;  // unreachably tight: every window is bad
  objective.budget = 0.01;
  scenario.slo->objectives.push_back(objective);
  ASSERT_TRUE(Applicable(scenario, Knob::kSloWindow));
  const Plan plan = PlanExperiments(
      scenario, {Knob::kServiceRate, Knob::kSloWindow}, {1.0});
  const Report report = RunWhatif(scenario, plan);
  EXPECT_TRUE(report.evaluate_slo);
  EXPECT_GT(report.base.slo_bad_windows, 0u);
  EXPECT_TRUE(report.base.slo_burned_through);
  const std::string text = FormatReport(report);
  EXPECT_NE(text.find("whatif/base/slo_alerts"), std::string::npos);
}

// whatif's SLO columns come from the live feed `msprint slo` reads: for the
// base and every experiment they equal those of a direct run of the
// perturbed config with a pipeline built from the perturbed objectives
// attached. The scenario is `msprint whatif --workload Jacobi --seed 7
// --queries 1200`. Queue depth, budget level, warmup attempts and denied
// sprints' timeouts reach a pipeline only through the live feed.
TEST(WhatifSloTest, ColumnsEqualDirectRunWithPipelineAttached) {
  Scenario scenario;
  scenario.testbed.utilization = 0.6;
  scenario.testbed.num_queries = 1200;
  scenario.testbed.warmup_queries = 120;
  scenario.testbed.seed = 7;
  scenario.slo = LiveSignalObjectives();
  const Plan plan = PlanExperiments(
      scenario,
      {Knob::kServiceRate, Knob::kSprintTimeout, Knob::kSloWindow},
      {-0.5, 1.0});
  ASSERT_EQ(plan.experiments.size(), 6u);
  const Report report = RunWhatif(scenario, plan);

  for (size_t i = 0; i <= plan.experiments.size(); ++i) {
    Scenario direct = scenario;
    if (i > 0) {
      ApplyKnob(direct, plan.experiments[i - 1].knob,
                plan.experiments[i - 1].delta);
    }
    obs::SloPipeline pipeline(*direct.slo);
    {
      obs::ObsSession session(nullptr, nullptr, nullptr, &pipeline);
      (void)Testbed::Run(direct.testbed);
    }
    uint64_t bad_windows = 0;
    for (const obs::SloObjectiveState& state : pipeline.objective_states()) {
      bad_windows += state.bad_windows;
    }
    const Measurement& m =
        i == 0 ? report.base : report.experiments[i - 1].measured;
    SCOPED_TRACE(::testing::Message() << "slot " << i);
    EXPECT_EQ(m.slo_alerts_fired, pipeline.AlertsFired());
    EXPECT_EQ(m.slo_bad_windows, bad_windows);
    EXPECT_EQ(m.slo_burned_through, pipeline.BurnedThrough());
    if (i == 0) {
      EXPECT_GT(pipeline.AlertsFired(), 0u);
      EXPECT_GT(bad_windows, 0u);
    }
  }
}

Report SmallReport() {
  Scenario scenario = SmallTestbedScenario();
  scenario.testbed.num_queries = 300;
  const Plan plan = PlanExperiments(
      scenario, {Knob::kServiceRate, Knob::kSprintTimeout}, {-0.5, 1.0});
  return RunWhatif(scenario, plan);
}

TEST(WhatifPersistTest, RoundTripReformatsByteIdentically) {
  const Report report = SmallReport();
  const std::string bytes = SerializeReport(report);
  const Report loaded = ParseReport(bytes);
  EXPECT_EQ(FormatReport(loaded), FormatReport(report));
  EXPECT_EQ(FormatReportJsonl(loaded), FormatReportJsonl(report));
  EXPECT_EQ(loaded.BestRelativeGain(), report.BestRelativeGain());

  const std::string path = ::testing::TempDir() + "/whatif_report.bin";
  SaveReportToFile(path, report);
  const Report from_file = LoadReportFromFile(path);
  EXPECT_EQ(FormatReport(from_file), FormatReport(report));
}

// Corruption harness: every single-bit flip and every truncation of the
// sealed record must raise PersistError — never crash, never parse into a
// silently different report.
TEST(WhatifPersistTest, EveryBitFlipFailsClosed) {
  const Report report = SmallReport();
  const std::string bytes = SerializeReport(report);
  ASSERT_FALSE(bytes.empty());
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutant = bytes;
      mutant[i] = static_cast<char>(mutant[i] ^ (1 << bit));
      EXPECT_THROW(ParseReport(mutant), persist::PersistError)
          << "byte " << i << " bit " << bit;
    }
  }
}

TEST(WhatifPersistTest, EveryTruncationFailsClosed) {
  const Report report = SmallReport();
  const std::string bytes = SerializeReport(report);
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(ParseReport(bytes.substr(0, len)), persist::PersistError)
        << "truncated to " << len;
  }
}

}  // namespace
}  // namespace whatif
}  // namespace msprint
