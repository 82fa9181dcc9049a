// msprint command-line tool: drive the pipeline without writing C++.
// `msprint help` lists every verb with its flags; the exit codes are
// defined in src/common/exit_codes.h.

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/exit_codes.h"
#include "src/common/fileio.h"
#include "src/core/analytic_model.h"
#include "src/core/effective_rate.h"
#include "src/explore/explorer.h"
#include "src/mc/mc.h"
#include "src/obs/attrib.h"
#include "src/obs/diff.h"
#include "src/obs/export.h"
#include "src/obs/obs.h"
#include "src/obs/slo.h"
#include "src/obs/whatif/whatif.h"
#include "src/online/advisor.h"
#include "src/persist/checkpoint.h"
#include "src/profiler/profile_io.h"
#include "src/robust/storm.h"
#include "src/testbed/testbed.h"

namespace msprint {
namespace {

// A malformed flag value. Printed as `flag <name>: <reason>` with exit
// code 2 (usage error), distinct from runtime failures (exit 1).
class FlagError : public std::runtime_error {
 public:
  FlagError(const std::string& name, const std::string& reason)
      : std::runtime_error("flag " + name + ": " + reason) {}
};

// Strict numeric parsing: the whole value must be one finite number.
// std::stod alone accepts "0.75abc" and stoul silently wraps "-3" to a
// huge size_t — both have bitten real invocations.
double ParseDoubleFlag(const std::string& name, const std::string& text) {
  size_t consumed = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &consumed);
  } catch (const std::exception&) {
    throw FlagError(name, "expected a number, got '" + text + "'");
  }
  if (consumed != text.size()) {
    throw FlagError(name, "trailing garbage in '" + text + "'");
  }
  if (!std::isfinite(value)) {
    throw FlagError(name, "must be finite, got '" + text + "'");
  }
  return value;
}

size_t ParseSizeFlag(const std::string& name, const std::string& text) {
  if (text.empty()) {
    throw FlagError(name, "empty value");
  }
  for (const char c : text) {
    if (c < '0' || c > '9') {
      throw FlagError(name,
                      "expected a non-negative integer, got '" + text + "'");
    }
  }
  try {
    size_t consumed = 0;
    const unsigned long long value = std::stoull(text, &consumed);
    return static_cast<size_t>(value);
  } catch (const std::exception&) {
    throw FlagError(name, "out of range: '" + text + "'");
  }
}

// The flags a verb reads besides --threads: up to four lists of
// space-separated names, so that a list several verbs share is written
// once.
using FlagLists = std::array<std::string_view, 4>;

// True when the space-separated `list` contains `name`.
bool Names(std::string_view list, std::string_view name) {
  for (size_t begin = 0; begin < list.size();) {
    const size_t end = std::min(list.find(' ', begin), list.size());
    if (list.substr(begin, end - begin) == name) {
      return true;
    }
    begin = end + 1;
  }
  return false;
}

class Flags {
 public:
  // Every flag takes a value: `--name value`.
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        // A stray positional is a bad invocation (exit 2), not a runtime
        // failure — same contract as every other malformed flag.
        throw FlagError(arg, "expected a --flag argument");
      }
      arg = arg.substr(2);
      if (i + 1 >= argc) {
        throw FlagError(arg, "missing value");
      }
      values_[arg] = argv[++i];
    }
  }

  std::string GetString(const std::string& name) const {
    const auto it = values_.find(name);
    if (it == values_.end()) {
      throw FlagError(name, "required flag is missing");
    }
    return it->second;
  }

  std::string GetString(const std::string& name,
                        const std::string& fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }

  double GetDouble(const std::string& name) const {
    return ParseDoubleFlag(name, GetString(name));
  }

  double GetDouble(const std::string& name, double fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback
                               : ParseDoubleFlag(name, it->second);
  }

  size_t GetSize(const std::string& name, size_t fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : ParseSizeFlag(name, it->second);
  }

  bool Has(const std::string& name) const { return values_.count(name) > 0; }

  // Throws for the first given flag, other than --threads, that no list
  // in `known` names.
  void RefuseOthers(const FlagLists& known, const std::string& verb) const {
    for (const auto& entry : values_) {
      const bool listed = std::any_of(
          known.begin(), known.end(),
          [&](std::string_view list) { return Names(list, entry.first); });
      if (!listed && entry.first != "threads") {
        throw FlagError(entry.first, "not a flag of msprint " + verb);
      }
    }
  }

  // Throws the missing-flag error for the first of `names` not given.
  void Require(std::initializer_list<std::string> names) const {
    for (const std::string& name : names) {
      GetString(name);
    }
  }

 private:
  std::map<std::string, std::string> values_;
};

// Converts a value parser's failure into a FlagError so a bad flag VALUE
// (unknown workload name, malformed .storm/.slo file contents, ...) exits
// 2 like every other usage error, instead of drifting to exit 1. A
// missing/unreadable FILE stays a runtime failure — wrap only the parse,
// not the read.
template <typename Fn>
auto ParseFlagValue(const std::string& name, Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const FlagError&) {
    throw;
  } catch (const std::exception& error) {
    throw FlagError(name, error.what());
  }
}

WorkloadId WorkloadIdFlag(const Flags& flags, const std::string& name,
                          const std::string& fallback) {
  const std::string text =
      fallback.empty() ? flags.GetString(name) : flags.GetString(name, fallback);
  return ParseFlagValue(name, [&] { return ParseWorkloadId(text); });
}

MechanismId MechanismIdFlag(const Flags& flags, const std::string& name,
                            const std::string& fallback) {
  const std::string text = flags.GetString(name, fallback);
  return ParseFlagValue(name, [&] { return ParseMechanismId(text); });
}

DistributionKind ArrivalKindFlag(const Flags& flags) {
  const std::string text = flags.GetString("arrival", "exponential");
  return ParseFlagValue("arrival",
                        [&] { return ParseDistributionKind(text); });
}

// A count flag whose given value must be at least 1: a run with no query
// has nothing to measure, and an exploration without iterations or chains,
// or a prediction simulating no query, has nothing to return. `fallback`
// applies when the flag is absent.
size_t CountFlag(const Flags& flags, const std::string& name,
                 size_t fallback) {
  const size_t count = flags.GetSize(name, fallback);
  if (flags.Has(name) && count == 0) {
    throw FlagError(name, "must be at least 1");
  }
  return count;
}

// A number flag that must be positive or, with `allow_zero`, not
// negative; `fallback` applies when the flag is absent.
double PositiveFlag(const Flags& flags, const std::string& name,
                    double fallback, bool allow_zero = false) {
  const double value = flags.GetDouble(name, fallback);
  if (allow_zero ? value < 0.0 : value <= 0.0) {
    throw FlagError(name, std::string(allow_zero ? "must not be negative"
                                                 : "must be positive") +
                              ", got '" + flags.GetString(name) + "'");
  }
  return value;
}

// The flags ModelInputFromFlags reads.
constexpr std::string_view kModelInputFlags =
    "utilization timeout budget refill";

// The model input that --utilization, --timeout, --budget and --refill
// describe; absent flags keep ModelInput's defaults, or `utilization`.
// Every verb reads them here, before any profile, so that a value no model
// can take is a usage error rather than a failure after training:
// --utilization must be positive, --budget not negative and --refill
// positive.
ModelInput ModelInputFromFlags(const Flags& flags,
                               double utilization = ModelInput{}.utilization) {
  ModelInput input;
  input.utilization = PositiveFlag(flags, "utilization", utilization);
  input.timeout_seconds = flags.GetDouble("timeout", input.timeout_seconds);
  input.budget_fraction = PositiveFlag(flags, "budget", input.budget_fraction,
                                       /*allow_zero=*/true);
  input.refill_seconds = PositiveFlag(flags, "refill", input.refill_seconds);
  return input;
}

// A flag that names one of `choices`, such as the renderings a verb's
// --format offers; the first is the default.
std::string ChoiceFlag(const Flags& flags, const std::string& name,
                       const std::vector<std::string>& choices) {
  const std::string value = flags.GetString(name, choices.front());
  if (std::find(choices.begin(), choices.end(), value) != choices.end()) {
    return value;
  }
  std::string names;
  for (const std::string& choice : choices) {
    names += (names.empty() ? "" : "|") + choice;
  }
  throw FlagError(name, "expected " + names + ", got '" + value + "'");
}

std::string ReadFileOrThrow(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int CmdCatalog(const Flags&) {
  std::cout << "Workloads (Table 1C):\n";
  for (WorkloadId id : AllWorkloads()) {
    const auto& spec = WorkloadCatalog::Get().spec(id);
    std::cout << "  " << spec.name << " — " << spec.description << " ("
              << spec.sustained_qph_dvfs << " / " << spec.burst_qph_dvfs
              << " qph on DVFS)\n";
  }
  std::cout << "\nMechanisms (Table 1B):\n";
  for (MechanismId id : {MechanismId::kDvfs, MechanismId::kCoreScale,
                         MechanismId::kEc2Dvfs, MechanismId::kCpuThrottle}) {
    std::cout << "  " << MakeMechanism(id)->Describe() << "\n";
  }
  return 0;
}

int CmdProfile(const Flags& flags) {
  SprintPolicy platform;
  platform.mechanism = MechanismIdFlag(flags, "mechanism", "DVFS");
  platform.throttle_fraction = flags.GetDouble("throttle", 0.2);
  platform.sprint_cpu_fraction = flags.GetDouble("sprint-cpu", 1.0);

  QueryMix mix = QueryMix::Single(WorkloadIdFlag(flags, "workload", ""));
  if (flags.Has("mix-with")) {
    // Two-workload mix with a default interference factor.
    mix = QueryMix::Uniform(
        {WorkloadIdFlag(flags, "workload", ""),
         WorkloadIdFlag(flags, "mix-with", "")},
        flags.GetDouble("interference", 0.8));
  }

  ProfilerConfig config;
  config.sample_grid_points = flags.GetSize("grid", 280);
  config.queries_per_run = CountFlag(flags, "queries", 8000);
  config.warmup_queries = config.queries_per_run / 10;
  config.seed = flags.GetSize("seed", 42);
  config.pool_size = flags.GetSize("threads", 0);  // 0: shared pool

  std::cout << "profiling " << mix.Describe() << " on "
            << ToString(platform.mechanism) << "...\n";
  const WorkloadProfile profile = ProfileWorkload(mix, platform, config);
  std::cout << "  mu = "
            << profile.service_rate_per_second * kSecondsPerHour
            << " qph, mu_m = "
            << profile.marginal_rate_per_second * kSecondsPerHour
            << " qph, rows = " << profile.rows.size()
            << ", virtual profiling hours = "
            << profile.total_profiling_hours << "\n";
  SaveProfileToFile(profile, flags.GetString("out"));
  std::cout << "saved to " << flags.GetString("out") << "\n";
  return 0;
}

int CmdCalibrate(const Flags& flags) {
  WorkloadProfile profile =
      LoadProfileFromFile(flags.GetString("profile"));
  CalibrationConfig config;
  std::cout << "calibrating " << profile.rows.size() << " rows...\n";
  CalibrateProfile(profile, config);
  SaveProfileToFile(profile, flags.GetString("out"));
  std::cout << "saved to " << flags.GetString("out") << "\n";
  return 0;
}

int CmdPredict(const Flags& flags) {
  ModelInput input = ModelInputFromFlags(flags);
  input.arrival_kind = ArrivalKindFlag(flags);
  const std::string which =
      ChoiceFlag(flags, "model", {"hybrid", "noml", "analytic"});
  std::optional<double> percentile;
  if (flags.Has("percentile")) {
    percentile = flags.GetDouble("percentile");
    if (!(*percentile >= 0.0 && *percentile <= 1.0)) {
      throw FlagError("percentile", "must be in [0, 1], got '" +
                                        flags.GetString("percentile") + "'");
    }
    if (which == "analytic") {
      throw FlagError("percentile", "supported with --model hybrid|noml only");
    }
  }
  const WorkloadProfile profile =
      LoadProfileFromFile(flags.GetString("profile"));
  flags.Require({"utilization", "budget"});

  std::unique_ptr<PerformanceModel> model;
  std::unique_ptr<HybridModel> hybrid;  // owns percentile-capable model
  if (which == "hybrid") {
    hybrid = std::make_unique<HybridModel>(HybridModel::Train({&profile}));
  } else if (which == "noml") {
    model = std::make_unique<NoMlModel>();
  } else {
    model = std::make_unique<AnalyticModel>();
  }

  if (percentile.has_value()) {
    const double q = *percentile;
    const double value =
        hybrid != nullptr
            ? hybrid->PredictResponseTimePercentile(profile, input, q)
            : NoMlModel().PredictResponseTimePercentile(profile, input, q);
    std::cout << "p" << q * 100 << " response time: " << value << " s\n";
    return 0;
  }
  const double rt = hybrid != nullptr
                        ? hybrid->PredictResponseTime(profile, input)
                        : model->PredictResponseTime(profile, input);
  std::cout << "expected mean response time (" << which << "): " << rt
            << " s\n";
  return 0;
}

// Replays a recorded arrival trace through the timeout-aware simulator at
// the hybrid model's effective sprint rate — "what would response time
// have been" for a past workload under a hypothetical policy.
int CmdReplay(const Flags& flags) {
  // The trace's own arrival rate sets the utilization below.
  ModelInput input = ModelInputFromFlags(flags);
  const WorkloadProfile profile =
      LoadProfileFromFile(flags.GetString("profile"));
  const std::vector<double> trace =
      LoadArrivalTraceFromFile(flags.GetString("trace"));
  flags.Require({"budget"});

  // Estimate the trace's utilization for the model input.
  const double span = trace.back() - trace.front();
  const double arrival_rate =
      span > 0.0 ? static_cast<double>(trace.size() - 1) / span : 0.0;
  input.utilization = std::clamp(
      arrival_rate / profile.service_rate_per_second, 0.05, 0.98);

  const HybridModel model = HybridModel::Train({&profile});
  const double mu_e_qph = model.PredictEffectiveRateQph(profile, input);
  const double speedup = std::max(
      1.0, mu_e_qph / (profile.service_rate_per_second * kSecondsPerHour));

  const EmpiricalDistribution service(profile.service_time_samples);
  SimConfig sim = BuildSimConfig(profile, input, service, speedup,
                                 trace.size(), 0, 97);
  sim.arrival_trace = &trace;
  const SimResult result = SimulateQueue(sim);
  std::cout << "replayed " << trace.size() << " recorded arrivals ("
            << arrival_rate * kSecondsPerHour << " qph, estimated "
            << input.utilization * 100 << "% utilization)\n"
            << "  effective sprint rate: " << mu_e_qph << " qph (speedup "
            << speedup << "X)\n"
            << "  mean response time:   " << result.mean_response_time
            << " s\n"
            << "  p99 response time:    "
            << result.PercentileResponseTime(0.99) << " s\n"
            << "  sprinted fraction:    "
            << result.fraction_sprinted * 100 << "%\n";
  return 0;
}

int CmdExplore(const Flags& flags) {
  ExploreConfig config;
  config.max_iterations = CountFlag(flags, "iterations", 200);
  ModelInput base = ModelInputFromFlags(flags);
  base.arrival_kind = ArrivalKindFlag(flags);
  const WorkloadProfile profile =
      LoadProfileFromFile(flags.GetString("profile"));
  flags.Require({"utilization", "budget"});

  const HybridModel model = HybridModel::Train({&profile});
  const ExploreResult result = ExploreTimeout(model, profile, base, config);
  std::cout << "best timeout: " << result.best_timeout_seconds
            << " s (expected mean response time "
            << result.best_response_time << " s; explored "
            << result.trajectory.size() << " policies)\n";
  return 0;
}

// The flags TestbedConfigFromFlags reads, besides kModelInputFlags.
constexpr std::string_view kTestbedFlags =
    "workload mechanism queries seed fault-seed toggle-fail breaker-trips "
    "breaker-cooldown outliers outlier-multiplier flash-crowds "
    "crowd-duration crowd-intensity";

// The seeded testbed run, under a deterministic fault storm, that `faults`
// and the testbed forms of the observing verbs share.
TestbedConfig TestbedConfigFromFlags(const Flags& flags) {
  TestbedConfig config;
  config.mix = QueryMix::Single(WorkloadIdFlag(flags, "workload", "Jacobi"));
  config.policy.mechanism = MechanismIdFlag(flags, "mechanism", "DVFS");
  const ModelInput input = ModelInputFromFlags(flags, /*utilization=*/0.6);
  config.utilization = input.utilization;
  config.policy.timeout_seconds = input.timeout_seconds;
  config.policy.budget_fraction = input.budget_fraction;
  config.policy.refill_seconds = input.refill_seconds;
  config.num_queries = CountFlag(flags, "queries", 2000);
  config.warmup_queries = config.num_queries / 10;
  config.seed = flags.GetSize("seed", 1);

  config.faults.seed = flags.GetSize("fault-seed", 0);  // 0: from --seed
  config.faults.toggle_failure_probability =
      flags.GetDouble("toggle-fail", 0.0);
  config.faults.breaker_trips_per_hour =
      flags.GetDouble("breaker-trips", 0.0);
  config.faults.breaker_cooldown_seconds =
      flags.GetDouble("breaker-cooldown", 120.0);
  config.faults.outlier_probability = flags.GetDouble("outliers", 0.0);
  config.faults.outlier_multiplier =
      flags.GetDouble("outlier-multiplier", 8.0);
  config.faults.flash_crowds_per_hour =
      flags.GetDouble("flash-crowds", 0.0);
  config.faults.flash_crowd_duration_seconds =
      flags.GetDouble("crowd-duration", 60.0);
  config.faults.flash_crowd_intensity =
      flags.GetDouble("crowd-intensity", 3.0);
  return config;
}

// Replays a model-checker trace (tests/golden/mc_traces/*.trace) through
// the ladder harness and prints the breaker faults it fired plus the
// invariant verdict — the `msprint faults` side of the counterexample
// pipeline. Exit 4 when the recorded invariant violation reproduces.
int ReplayMcTraceAsFaults(const std::string& path) {
  const std::string text = ReadFileOrThrow(path);
  const mc::TraceFile trace =
      ParseFlagValue("mc-trace", [&] { return mc::ParseTraceFile(text); });
  mc::McConfig config;
  config.bug = trace.bug;
  config.overload_alphabet = trace.overload;
  mc::LadderHarness harness(config);
  std::optional<mc::Violation> violation;
  size_t applied = 0;
  for (const mc::Action& action : trace.actions) {
    violation = harness.Apply(action);
    ++applied;
    if (violation.has_value()) {
      break;
    }
  }
  std::cout << FormatFaultTrace(harness.fault_trace());
  std::cout << "# mc-trace " << path << "\n"
            << "# injected-bug " << mc::ToString(trace.bug) << "\n"
            << "# actions " << applied << "/" << trace.actions.size()
            << ", rung " << ToString(harness.advisor().rung())
            << ", budget " << obs::StableDouble(harness.budget().Available(
                                  harness.clock_seconds()))
            << "\n";
  if (violation.has_value()) {
    std::cout << "# violation " << violation->invariant << ": "
              << violation->detail << "\n";
    return kExitMcViolation;
  }
  std::cout << "# violation none\n";
  return kExitOk;
}

// Runs the testbed under the fault storm the flags describe and prints the
// fault trace. Two invocations with identical flags print identical
// traces, so a replay can be audited with diff.
int CmdFaults(const Flags& flags) {
  if (flags.Has("mc-trace")) {
    return ReplayMcTraceAsFaults(flags.GetString("mc-trace"));
  }
  const TestbedConfig config = TestbedConfigFromFlags(flags);

  // Observe the storm run too: the metrics snapshot and warn-level event
  // tail below are byte-stable, so the CI replay diff that guards the
  // fault trace also guards the observability exports.
  obs::MetricsRegistry metrics;
  obs::FlightRecorder recorder;
  recorder.SetMinSeverityAll(obs::Severity::kWarn);
  RunTrace trace;
  {
    obs::ObsSession session(&metrics, &recorder);
    trace = Testbed::Run(config);
  }
  std::cout << FormatFaultTrace(trace.fault_trace);

  size_t per_kind[8] = {};
  for (const FaultEvent& event : trace.fault_trace) {
    ++per_kind[static_cast<size_t>(event.kind)];
  }
  std::cout << "# faults: " << trace.fault_trace.size();
  for (size_t k = 0; k < 8; ++k) {
    if (per_kind[k] > 0) {
      std::cout << " " << ToString(static_cast<FaultKind>(k)) << "="
                << per_kind[k];
    }
  }
  std::cout << "\n# mean response time: " << trace.mean_response_time
            << " s, sprinted " << trace.fraction_sprinted * 100
            << "%, sprint-seconds " << trace.total_sprint_seconds
            << ", makespan " << trace.makespan << " s\n";
  std::cout << "# obs-metrics\n" << metrics.Snapshot().ToText();
  std::cout << "# obs-events\n" << recorder.FormatTail();
  return 0;
}

// ------------------------------------------------- checkpoint / restore

// One step of the deterministic advisor drive. Every random draw comes
// from Rng(DeriveSeed(state.seed, state.step)) — a pure function of the
// drive cursor — so a run that was checkpointed and restored replays the
// exact event sequence an uninterrupted run would have seen. Step lines go
// to stdout at full precision (setprecision 17) so resumed output can be
// byte-diffed against the tail of an uninterrupted run; all narration goes
// to stderr.
void DriveStep(OnlineAdvisor& advisor, SprintBudget& budget,
               persist::DriveState& state, std::ostream* out) {
  Rng rng(DeriveSeed(state.seed, state.step));
  const double dt = 2.0 + 8.0 * rng.NextDouble();
  state.clock_seconds += dt;
  advisor.OnArrival(state.clock_seconds);
  const double service_seconds = 30.0 + 20.0 * rng.NextDouble();
  advisor.OnCompletion(state.clock_seconds, service_seconds);

  const auto rec = advisor.Recommend(state.clock_seconds);
  if (rec.has_value()) {
    // Feed the watchdog a noisy observation around the prediction and
    // debit the sprint budget, so both subsystems carry live state into
    // the checkpoint.
    advisor.OnObservedResponseTime(
        state.clock_seconds,
        rec->predicted_response_time * (0.8 + 0.4 * rng.NextDouble()));
    budget.ConsumeUpTo(state.clock_seconds, 0.1 * service_seconds);
  }

  if (out != nullptr) {
    *out << "step " << state.step << " t=" << state.clock_seconds
         << " rate=" << advisor.EstimatedArrivalRate(state.clock_seconds)
         << " budget=" << budget.Available(state.clock_seconds);
    if (rec.has_value()) {
      *out << " rung=" << ToString(rec->rung) << " rev=" << rec->revision
           << " timeout=" << rec->timeout_seconds
           << " predicted=" << rec->predicted_response_time;
    } else {
      *out << " rung=- rev=- timeout=- predicted=-";
    }
    *out << "\n";
  }
  ++state.step;
}

// Drives `steps` deterministic advisor steps. Step lines go to `out` at
// full precision; pass nullptr to run silently (the stats/trace verbs keep
// stdout for their own machine-readable export).
persist::DriveState DriveSteps(OnlineAdvisor& advisor, SprintBudget& budget,
                               persist::DriveState state, size_t steps,
                               std::ostream* out) {
  if (out != nullptr) {
    *out << std::setprecision(17);
  }
  for (size_t i = 0; i < steps; ++i) {
    DriveStep(advisor, budget, state, out);
  }
  return state;
}

// The flags AdvisorConfigFromFlags and AdvisorDrive read, besides
// kModelInputFlags.
constexpr std::string_view kAdvisorFlags =
    "profile seed steps arrival iterations chains rate-window sim-queries";

AdvisorConfig AdvisorConfigFromFlags(const Flags& flags) {
  AdvisorConfig config;
  // The advisor sets the utilization and timeout of each plan itself.
  config.base = ModelInputFromFlags(flags);
  config.base.arrival_kind = ArrivalKindFlag(flags);
  config.explore.max_iterations = CountFlag(flags, "iterations", 80);
  config.explore.num_chains = CountFlag(flags, "chains", 1);
  config.rate_window_seconds = flags.GetDouble("rate-window", 600.0);
  // Re-plans happen on the live path of the drive; keep them cheap.
  const size_t sim_queries = CountFlag(flags, "sim-queries", 2000);
  config.fallback_sim =
      PredictionSimConfig{sim_queries, sim_queries / 10, 1, 97};
  return config;
}

HybridModel TrainAdvisorModel(const WorkloadProfile& profile,
                              const AdvisorConfig& config) {
  std::cerr << "training hybrid model on " << profile.rows.size()
            << " rows...\n";
  return HybridModel::Train({&profile}, {}, config.fallback_sim);
}

// The advisor drive behind `checkpoint` and the --profile forms of
// `stats`, `trace` and `explain`: train the hybrid model on --profile,
// then drive the online advisor --steps deterministic steps from --seed,
// printing the step lines to `steps_out` (nullptr: silently).
struct AdvisorDrive {
  AdvisorDrive(const Flags& flags, std::ostream* steps_out)
      : config(AdvisorConfigFromFlags(flags)),
        profile(LoadProfileFromFile(flags.GetString("profile"))),
        model(TrainAdvisorModel(profile, config)),
        advisor(model, profile, config),
        budget(SprintBudget::FromFraction(config.base.budget_fraction,
                                          config.base.refill_seconds)) {
    state.seed = flags.GetSize("seed", 1);
    state = DriveSteps(advisor, budget, state, flags.GetSize("steps", 40),
                       steps_out);
  }
  // The advisor refers to the drive's own model and profile.
  AdvisorDrive(const AdvisorDrive&) = delete;
  AdvisorDrive& operator=(const AdvisorDrive&) = delete;

  const AdvisorConfig config;
  const WorkloadProfile profile;
  const HybridModel model;
  OnlineAdvisor advisor;
  SprintBudget budget;
  persist::DriveState state;
};

int CmdCheckpoint(const Flags& flags) {
  const std::string out = flags.GetString("out");
  AdvisorDrive drive(flags, &std::cout);
  persist::SaveCheckpointToFile(out, drive.profile, drive.model, drive.config,
                                drive.advisor, drive.budget, drive.state);
  std::cerr << "checkpoint saved to " << out << " at step "
            << drive.state.step << " (rung " << ToString(drive.advisor.rung())
            << ")\n";
  return 0;
}

int CmdRestore(const Flags& flags) {
  persist::LoadedCheckpoint checkpoint =
      persist::LoadCheckpointFromFile(flags.GetString("checkpoint"));
  OnlineAdvisor advisor(checkpoint.model, checkpoint.profile,
                        checkpoint.config);
  persist::RestoreAdvisorState(advisor, checkpoint.advisor_state);
  std::cerr << "restored checkpoint at step " << checkpoint.drive.step
            << " (rung " << ToString(advisor.rung()) << ")\n";

  const persist::DriveState state =
      DriveSteps(advisor, checkpoint.budget, checkpoint.drive,
                 flags.GetSize("steps", 40), &std::cout);
  if (flags.Has("out")) {
    persist::SaveCheckpointToFile(flags.GetString("out"), checkpoint.profile,
                                  checkpoint.model, checkpoint.config,
                                  advisor, checkpoint.budget, state);
    std::cerr << "checkpoint saved to " << flags.GetString("out")
              << " at step " << state.step << "\n";
  }
  return 0;
}

// Runs a seeded workload with an ObsSession attached so the stats/trace
// verbs have telemetry to export. With --profile it trains the hybrid
// model and drives the online advisor (step lines suppressed: stdout
// belongs to the export); otherwise it runs the fault-capable testbed
// with the same flags `msprint faults` takes.
void RunObserved(const Flags& flags, obs::MetricsRegistry& metrics,
                 obs::FlightRecorder& recorder) {
  obs::ObsSession session(&metrics, &recorder);
  if (flags.Has("profile")) {
    const AdvisorDrive drive(flags, /*steps_out=*/nullptr);
  } else {
    (void)Testbed::Run(TestbedConfigFromFlags(flags));
  }
}

int CmdStats(const Flags& flags) {
  const std::string format = ChoiceFlag(flags, "format", {"text", "json"});
  obs::MetricsRegistry metrics;
  obs::FlightRecorder recorder(
      flags.GetSize("capacity", obs::FlightRecorder::kDefaultCapacity));
  RunObserved(flags, metrics, recorder);
  const obs::MetricsSnapshot snapshot = metrics.Snapshot();
  if (format == "text") {
    std::cout << snapshot.ToText();
  } else {
    std::cout << snapshot.ToJson() << "\n";
  }
  return 0;
}

int CmdTrace(const Flags& flags) {
  const std::string format =
      ChoiceFlag(flags, "format", {"text", "jsonl", "chrome"});
  obs::MetricsRegistry metrics;
  obs::FlightRecorder recorder(
      flags.GetSize("capacity", obs::FlightRecorder::kDefaultCapacity));
  if (flags.Has("min-severity")) {
    const std::string severity =
        ChoiceFlag(flags, "min-severity", {"debug", "info", "warn", "error"});
    recorder.SetMinSeverityAll(severity == "debug"  ? obs::Severity::kDebug
                               : severity == "info" ? obs::Severity::kInfo
                               : severity == "warn" ? obs::Severity::kWarn
                                                    : obs::Severity::kError);
  }
  RunObserved(flags, metrics, recorder);
  if (format == "text") {
    std::cout << recorder.FormatTail();
  } else if (format == "jsonl") {
    std::cout << obs::EventsToJsonl(recorder.Events());
  } else {
    std::cout << obs::EventsToChromeTrace(recorder.Events());
  }
  return 0;
}

// Attribution for a seeded run: collect spans from the serial testbed (or
// the simulator under the advisor's recommended policy) and print the
// byte-stable attribution report or a Chrome trace of nested spans.
int CmdExplain(const Flags& flags) {
  obs::AttributionOptions options;
  options.top_k = flags.GetSize("top", 5);
  const std::string format =
      ChoiceFlag(flags, "format", {"text", "chrome", "json"});

  obs::SpanCollector collector;
  std::string policy_comment;
  if (flags.Has("profile")) {
    // Train, drive the advisor to a standing recommendation, then replay
    // the recommended policy through the timeout-aware simulator, whose
    // spans go straight to the collector.
    const size_t sim_queries = CountFlag(flags, "queries", 2000);
    AdvisorDrive drive(flags, /*steps_out=*/nullptr);
    const auto rec = drive.advisor.Recommend(drive.state.clock_seconds);

    ModelInput input = drive.config.base;
    input.utilization = flags.GetDouble("utilization", 0.6);
    if (rec.has_value()) {
      input.timeout_seconds = rec->timeout_seconds;
    }
    const WorkloadProfile& profile = drive.profile;
    const double mu_e_qph =
        drive.model.PredictEffectiveRateQph(profile, input);
    const double speedup = std::max(
        1.0, mu_e_qph / (profile.service_rate_per_second * kSecondsPerHour));
    const EmpiricalDistribution service(profile.service_time_samples);
    SimConfig sim =
        BuildSimConfig(profile, input, service, speedup, sim_queries,
                       sim_queries / 10, drive.state.seed);
    sim.span_sink = &collector;
    (void)SimulateQueue(sim);
    policy_comment =
        "# policy rung=" +
        (rec.has_value() ? std::string(ToString(rec->rung)) : "-") +
        " timeout=" + obs::StableDouble(input.timeout_seconds) +
        " speedup=" + obs::StableDouble(speedup) + "\n";
  } else {
    const obs::Sinks sinks{&collector, nullptr};
    TestbedConfig config = TestbedConfigFromFlags(flags);
    config.sinks = &sinks;
    (void)Testbed::Run(config);
  }

  const std::vector<obs::QuerySpan> spans = collector.TakeSpans();
  if (format == "chrome") {
    std::cout << obs::SpansToChromeTrace(spans);
    return 0;
  }
  const obs::AttributionReport report = obs::Attribute(spans, options);
  if (format == "json") {
    // One byte-stable JSON object; the `#` policy comment line has no
    // place inside JSON, so the json rendering carries the report alone.
    std::cout << obs::FormatAttributionJson(report) << "\n";
    return kExitOk;
  }
  std::cout << policy_comment << obs::FormatAttribution(report);
  return kExitOk;
}

// A verb invoked without its positional operands: main prints the verb's
// synopsis, the first line of its usage, and exits 2.
struct OperandError {};

// One verb: its name, its usage for `help` (the flags, then a summary;
// continuation lines are indented under the first), the flags its handler
// reads, and its handler, which gets the verb and the whole command line.
struct Verb {
  const char* name;
  const char* usage;
  FlagLists flags;
  int (*run)(const Verb& verb, int argc, char** argv);
};

// Refuses the flags `verb` does not read, and sizes the shared pool from
// --threads before any stage touches ThreadPool::Global().
void ApplyVerbFlags(const Verb& verb, const Flags& flags) {
  flags.RefuseOthers(verb.flags, verb.name);
  if (flags.Has("threads")) {
    ThreadPool::SetGlobalSize(flags.GetSize("threads", 0));
  }
}

// The two export files to compare are positional operands, ahead of the
// threshold flags.
int CmdObsDiff(const Verb& verb, int argc, char** argv) {
  if (argc < 4 || std::string_view(argv[2]).rfind("--", 0) == 0 ||
      std::string_view(argv[3]).rfind("--", 0) == 0) {
    throw OperandError();
  }
  const std::string path_a = argv[2];
  const std::string path_b = argv[3];
  const Flags flags(argc, argv, 4);
  ApplyVerbFlags(verb, flags);
  obs::DiffOptions options;
  options.max_rel = flags.GetDouble("max-rel", options.max_rel);
  options.approx_rel = flags.GetDouble("approx-rel", options.approx_rel);
  options.abs_eps = flags.GetDouble("abs-eps", options.abs_eps);
  const obs::DiffResult result = obs::DiffExports(
      ReadFileOrThrow(path_a), ReadFileOrThrow(path_b), options);
  std::cout << result.report;
  return result.breached() ? kExitObsDiffBreach : kExitOk;
}

// ------------------------------------------------ bounded model checking

mc::InjectedBug ParseInjectedBugFlag(const Flags& flags) {
  std::vector<std::string> names;
  for (const mc::InjectedBug bug : mc::kAllInjectedBugs) {
    names.push_back(mc::ToString(bug));
  }
  return *mc::InjectedBugFromName(ChoiceFlag(flags, "inject-bug", names));
}

bool ParseAlphabetFlag(const Flags& flags, bool fallback) {
  if (!flags.Has("alphabet")) {
    return fallback;
  }
  return ChoiceFlag(flags, "alphabet", {"default", "overload"}) == "overload";
}

int CmdMc(const Flags& flags) {
  // Replay mode: reproduce a recorded trace and re-assert the invariants.
  // The trace's own `# injected-bug` header decides the harness defect;
  // --inject-bug overrides it (e.g. `none` to prove the fixed system
  // replays the same actions cleanly).
  if (flags.Has("replay")) {
    const std::string path = flags.GetString("replay");
    const std::string text = ReadFileOrThrow(path);
    mc::TraceFile trace =
        ParseFlagValue("replay", [&] { return mc::ParseTraceFile(text); });
    mc::McConfig config;
    config.seed = flags.GetSize("seed", config.seed);
    config.bug = flags.Has("inject-bug") ? ParseInjectedBugFlag(flags)
                                         : trace.bug;
    // The trace's own header decides the alphabet (and thus whether the
    // harness runs with the shed rung); --alphabet overrides it.
    config.overload_alphabet = ParseAlphabetFlag(flags, trace.overload);
    const auto violation = mc::ReplayTrace(config, trace.actions);
    std::cout << "# msprint mc replay v1\n"
              << "trace " << path << "\n"
              << "actions " << trace.actions.size() << "\n"
              << "injected-bug " << mc::ToString(config.bug) << "\n"
              << "expected-invariant " << trace.invariant << "\n";
    if (violation.has_value()) {
      std::cout << "violation " << violation->invariant << "\n"
                << "violation-detail " << violation->detail << "\n";
      return kExitMcViolation;
    }
    std::cout << "violation none\n";
    return kExitOk;
  }

  mc::McConfig config;
  config.horizon = flags.GetSize("horizon", config.horizon);
  config.seed = flags.GetSize("seed", config.seed);
  config.max_transitions =
      flags.GetSize("max-transitions", config.max_transitions);
  config.bug = ParseInjectedBugFlag(flags);
  config.overload_alphabet = ParseAlphabetFlag(flags, false);

  const mc::McReport report = mc::RunBoundedCheck(config);
  std::cout << mc::FormatReport(report);

  if (flags.Has("export")) {
    const std::string dir = flags.GetString("export");
    std::filesystem::create_directories(dir);
    if (report.violation.has_value()) {
      mc::TraceFile trace{report.counterexample, config.bug,
                          report.violation->invariant,
                          config.overload_alphabet};
      const std::string path =
          dir + "/counterexample_" + report.violation->invariant + ".trace";
      AtomicWriteFile(path, mc::FormatTraceFile(trace));
      std::cerr << "exported " << path << "\n";
    }
    for (const auto& [name, actions] : report.frontier) {
      mc::TraceFile trace{actions, config.bug, "none",
                          config.overload_alphabet};
      const std::string path = dir + "/frontier_" + name + ".trace";
      AtomicWriteFile(path, mc::FormatTraceFile(trace));
      std::cerr << "exported " << path << "\n";
    }
  }
  return report.violation.has_value() ? kExitMcViolation : kExitOk;
}

// ------------------------------------------------------ overload storms

// The storm scenario in the .storm file named by `file_flag` (the default
// scenario when the flag is absent), with the --seed and --queries
// overrides applied. Committed .storm files stay the source of truth for
// the CI replays; the overrides are for sweeps.
robust::StormConfig StormConfigFromFlags(const Flags& flags,
                                         const std::string& file_flag) {
  robust::StormConfig config;
  if (flags.Has(file_flag)) {
    const std::string text = ReadFileOrThrow(flags.GetString(file_flag));
    config = ParseFlagValue(
        file_flag, [&] { return robust::ParseStormConfig(text); });
  }
  config.seed = flags.GetSize("seed", config.seed);
  config.queries = CountFlag(flags, "queries", config.queries);
  return config;
}

// The flags StormSideFromFlags reads.
constexpr std::string_view kStormSideFlags = "storm side seed queries";

// One side (--side hardened|baseline) of the --storm scenario: the
// testbed run of the slo, watch and whatif verbs.
TestbedConfig StormSideFromFlags(const Flags& flags) {
  const robust::StormConfig storm = StormConfigFromFlags(flags, "storm");
  return robust::MakeStormTestbedConfig(
      storm, ChoiceFlag(flags, "side", {"hardened", "baseline"}) == "hardened");
}

// Replays one metastable-failure storm A/B (DESIGN.md §14): the same
// deterministic storm against the unprotected baseline and the hardened
// (admission control + retry budgets) server. --require-ratio gates the
// hardened/baseline goodput ratio — the CI overload-stress job replays
// committed .storm configs through it.
int CmdStorm(const Flags& flags) {
  const robust::StormConfig config = StormConfigFromFlags(flags, "config");
  const robust::StormReport report = robust::RunStormAB(config);
  const std::string text = robust::FormatStormReport(report);
  std::cout << text;
  if (flags.Has("out")) {
    AtomicWriteFile(flags.GetString("out"), text);
  }
  if (flags.Has("require-ratio")) {
    const double required = flags.GetDouble("require-ratio");
    if (!(report.goodput_ratio >= required)) {
      std::cerr << "storm: goodput ratio "
                << obs::StableDouble(report.goodput_ratio)
                << " below required " << obs::StableDouble(required) << "\n";
      return kExitStormGate;
    }
  }
  return kExitOk;
}

// --------------------------------------------- streaming SLO telemetry

// Shared driver of the `slo` and `watch` verbs (DESIGN.md §15): runs the
// fault-capable testbed (the same flags `msprint faults` takes, or one
// side of a committed .storm scenario via --storm) with an SloPipeline
// attached, then prints the byte-stable window timeline (or the watch
// rendering) followed by the summary. Exits 6 when any objective burned
// through its lifetime error budget.
int RunSloCommand(const Flags& flags, bool watch) {
  const std::string format =
      watch ? std::string() : ChoiceFlag(flags, "format", {"text", "jsonl"});
  obs::SloConfig slo_config;
  if (flags.Has("objectives")) {
    const std::string text = ReadFileOrThrow(flags.GetString("objectives"));
    slo_config = ParseFlagValue(
        "objectives", [&] { return obs::ParseSloObjectives(text); });
  }
  // Quick overrides; committed objectives files stay the source of truth.
  slo_config.window_seconds =
      PositiveFlag(flags, "window", slo_config.window_seconds);
  slo_config.timeline_capacity =
      CountFlag(flags, "capacity", slo_config.timeline_capacity);

  TestbedConfig config = flags.Has("storm") ? StormSideFromFlags(flags)
                                             : TestbedConfigFromFlags(flags);
  obs::SloPipeline pipeline(slo_config);
  const obs::Sinks sinks{nullptr, &pipeline};
  config.sinks = &sinks;
  (void)Testbed::Run(config);  // Run() finishes the pipeline.

  std::string timeline;
  if (watch) {
    timeline = pipeline.FormatWatch();
  } else if (format == "text") {
    timeline = pipeline.FormatTimeline();
  } else {
    timeline = pipeline.FormatTimelineJsonl();
  }
  std::cout << timeline << pipeline.FormatSummary();
  if (flags.Has("out")) {
    AtomicWriteFile(flags.GetString("out"),
                    timeline + pipeline.FormatSummary());
  }
  if (pipeline.BurnedThrough()) {
    std::cerr << "slo: error budget burned through\n";
    return kExitSloBurnThrough;
  }
  return kExitOk;
}

int CmdSlo(const Flags& flags) { return RunSloCommand(flags, /*watch=*/false); }

int CmdWatch(const Flags& flags) { return RunSloCommand(flags, /*watch=*/true); }

// ------------------------------------------------ causal what-if profiler

std::vector<std::string> SplitCommaList(const std::string& text) {
  std::vector<std::string> items;
  size_t begin = 0;
  while (begin <= text.size()) {
    const size_t comma = text.find(',', begin);
    const size_t end = comma == std::string::npos ? text.size() : comma;
    if (end > begin) {
      items.push_back(text.substr(begin, end - begin));
    }
    if (comma == std::string::npos) {
      break;
    }
    begin = comma + 1;
  }
  return items;
}

// Shared report print + --save/--out/--require-gain tail of the whatif
// verb (used both for fresh runs and for --load of a persisted report).
int EmitWhatifReport(const whatif::Report& report, const Flags& flags,
                     const std::string& format) {
  const std::string text = format == "text" ? whatif::FormatReport(report)
                                            : whatif::FormatReportJsonl(report);
  std::cout << text;
  if (flags.Has("out")) {
    AtomicWriteFile(flags.GetString("out"), text);
  }
  if (flags.Has("save")) {
    whatif::SaveReportToFile(flags.GetString("save"), report);
  }
  if (flags.Has("require-gain")) {
    const double required = flags.GetDouble("require-gain");
    const double best = report.BestRelativeGain();
    if (!(best >= required)) {
      std::cerr << "whatif: best relative gain " << obs::StableDouble(best)
                << " below required " << obs::StableDouble(required) << "\n";
      return kExitWhatifNoGain;
    }
  }
  return kExitOk;
}

int CmdWhatif(const Flags& flags) {
  const std::string format = ChoiceFlag(flags, "format", {"text", "jsonl"});
  if (flags.Has("load")) {
    // Re-render (and optionally re-gate) a persisted report; derived
    // columns are recomputed from the stored measurements, so the output
    // is byte-identical to the run that saved it.
    return EmitWhatifReport(
        whatif::LoadReportFromFile(flags.GetString("load")), flags, format);
  }

  whatif::Scenario scenario;
  scenario.testbed = flags.Has("storm") ? StormSideFromFlags(flags)
                                        : TestbedConfigFromFlags(flags);
  if (flags.Has("objectives")) {
    const std::string text = ReadFileOrThrow(flags.GetString("objectives"));
    scenario.slo = ParseFlagValue(
        "objectives", [&] { return obs::ParseSloObjectives(text); });
  }

  std::vector<whatif::Knob> knobs;
  if (flags.Has("knobs")) {
    for (const std::string& name : SplitCommaList(flags.GetString("knobs"))) {
      whatif::Knob knob;
      if (!whatif::ParseKnob(name, &knob)) {
        throw FlagError("knobs", "unknown knob '" + name + "'");
      }
      knobs.push_back(knob);
    }
    if (knobs.empty()) {
      throw FlagError("knobs", "empty knob list");
    }
  } else {
    knobs = whatif::AllKnobs();
  }
  std::vector<double> deltas;
  for (const std::string& item :
       SplitCommaList(flags.GetString("deltas", "-0.5,0.25,1"))) {
    deltas.push_back(ParseDoubleFlag("deltas", item));
  }

  const whatif::Plan plan = ParseFlagValue(
      "deltas",
      [&] { return whatif::PlanExperiments(scenario, knobs, deltas); });
  for (const whatif::Knob knob : plan.skipped) {
    std::cerr << "whatif: knob " << whatif::ToString(knob)
              << " not applicable to this scenario, skipped\n";
  }
  if (plan.experiments.empty()) {
    throw FlagError("knobs", "no requested knob applies to this scenario");
  }
  return EmitWhatifReport(whatif::RunWhatif(scenario, plan), flags, format);
}

// Parses a verb's --flags, applies them (ApplyVerbFlags), and runs the
// verb.
template <int (*handler)(const Flags&)>
int WithFlags(const Verb& verb, int argc, char** argv) {
  const Flags flags(argc, argv, 2);
  ApplyVerbFlags(verb, flags);
  return handler(flags);
}

void PrintUsage(std::ostream& out);

int CmdHelp(const Verb&, int, char**) {
  PrintUsage(std::cout);
  return kExitOk;
}

// Every verb, in `help` order. Dispatch, `help` and the usage errors all
// read this table.
constexpr Verb kVerbs[] = {
    {"catalog", "                    list workloads and mechanisms", {},
     WithFlags<CmdCatalog>},
    {"profile", "--workload W --out F [--mechanism M --grid N ...]",
     {"workload mix-with interference mechanism throttle sprint-cpu grid "
      "queries seed out"},
     WithFlags<CmdProfile>},
    {"calibrate", "--profile F --out F [--threads N]", {"profile out"},
     WithFlags<CmdCalibrate>},
    {"predict", "--profile F --utilization U --budget B [--timeout T\n"
                "--refill R --model hybrid|noml|analytic --percentile Q]",
     {"profile arrival model percentile", kModelInputFlags},
     WithFlags<CmdPredict>},
    {"explore", "--profile F --utilization U --budget B [--refill R\n"
                "--iterations N]",
     {"profile arrival iterations", kModelInputFlags}, WithFlags<CmdExplore>},
    {"replay", "--profile F --trace F --budget B [--timeout T\n"
               "--refill R]   (what-if on a recorded arrival trace)",
     {"profile trace", kModelInputFlags}, WithFlags<CmdReplay>},
    {"faults", "[--workload W --seed N --toggle-fail P --breaker-trips R\n"
               "--breaker-cooldown S --outliers P --flash-crowds R ...]\n"
               "(deterministic fault-storm run; prints the fault trace)",
     {"mc-trace", kTestbedFlags, kModelInputFlags}, WithFlags<CmdFaults>},
    {"checkpoint", "--profile F --out F [--steps N --seed S --budget B\n"
                   "--refill R]   (drive the advisor, save a checkpoint)",
     {"out", kAdvisorFlags, kModelInputFlags}, WithFlags<CmdCheckpoint>},
    {"restore", "--checkpoint F [--steps N --out F]\n"
                "(warm-restart the advisor and continue the drive)",
     {"checkpoint steps out"}, WithFlags<CmdRestore>},
    {"stats", "[--profile F | --workload W] [--format text|json\n"
              "--steps N --seed S ...]   (deterministic metrics\n"
              "snapshot of a seeded observed run)",
     {"format capacity", kAdvisorFlags, kTestbedFlags, kModelInputFlags},
     WithFlags<CmdStats>},
    {"trace", "[--profile F | --workload W] [--format text|jsonl|chrome\n"
              "--min-severity S --capacity N ...]   (sim-time flight\n"
              "recorder export of the same run)",
     {"format capacity min-severity", kAdvisorFlags, kTestbedFlags,
      kModelInputFlags},
     WithFlags<CmdTrace>},
    {"explain", "[--profile F | --workload W] [--top K\n"
                "--format text|chrome|json ...]   (exact per-query\n"
                "latency attribution: signed span components summing\n"
                "bit-for-bit to each response time, top-K slowest span\n"
                "trees)",
     {"top format", kAdvisorFlags, kTestbedFlags, kModelInputFlags},
     WithFlags<CmdExplain>},
    {"obs-diff", "<a> <b> [--max-rel X --approx-rel X --abs-eps X]\n"
                 "(compare two exports; exit 3 on threshold breach)",
     {"max-rel approx-rel abs-eps"}, CmdObsDiff},
    {"mc", "[--horizon N --seed S --max-transitions N\n"
           "--alphabet default|overload\n"
           "--inject-bug none|budget-debt|breaker-signal-drop|\n"
           "             shed-signal-drop\n"
           "--export DIR | --replay FILE]\n"
           "(bounded model checking of the advisor ladder:\n"
           "exhaustive DFS with fingerprint dedup; minimized\n"
           "counterexample + exit 4 on invariant violation;\n"
           "--replay re-runs a recorded trace; --alphabet overload\n"
           "adds shed/retry-storm actions and the shed rung)",
     {"horizon seed max-transitions alphabet inject-bug export replay"},
     WithFlags<CmdMc>},
    {"storm", "[--config F.storm --seed S --queries N --out F\n"
              "--require-ratio X]\n"
              "(metastable-failure A/B bench: the same deterministic\n"
              "retry storm against the unprotected baseline and the\n"
              "admission-controlled hardened server; exit 5 when the\n"
              "hardened/baseline goodput ratio falls below X)",
     {"config seed queries out require-ratio"}, WithFlags<CmdStorm>},
    {"slo", "[--objectives F.slo --window S --capacity N\n"
            "--format text|jsonl --out F\n"
            "--storm F.storm --side hardened|baseline | <faults\n"
            "flags>]   (streaming SLO telemetry of a seeded run:\n"
            "byte-stable per-window timeline — quantile sketches,\n"
            "goodput, shed, queue depth, sprint engages, budget —\n"
            "plus burn-rate alert + anomaly summary; exit 6 when an\n"
            "objective burns through its lifetime error budget)",
     {"format objectives window capacity out", kStormSideFlags, kTestbedFlags,
      kModelInputFlags},
     WithFlags<CmdSlo>},
    {"watch", "[same flags as slo]   (render the same run as a\n"
              "terminal-friendly per-window p99 bar chart with alert\n"
              "markers; same exit-6 burn-through contract)",
     {"objectives window capacity out", kStormSideFlags, kTestbedFlags,
      kModelInputFlags},
     WithFlags<CmdWatch>},
    {"whatif", "[--storm F.storm --side hardened|baseline | <faults\n"
               "flags>] [--knobs k1,k2,... --deltas d1,d2,...\n"
               "--objectives F.slo --save F --load F\n"
               "--format text|jsonl --out F --require-gain X]\n"
               "(causal what-if profiler: exact counterfactual reruns\n"
               "of the same seeded scenario under a knob x delta grid\n"
               "— toggle-latency, service-rate, sprint-rate,\n"
               "sprint-timeout, breaker-cooldown, retry-backoff,\n"
               "admission, slo-window — reporting per experiment the\n"
               "first-order span prediction, the measured delta and\n"
               "the model error, with knobs ranked by marginal gain\n"
               "per unit virtual speedup; byte-identical for any\n"
               "--threads; exit 7 when --require-gain X is unmet)",
     {"knobs deltas objectives save load format out require-gain",
      kStormSideFlags, kTestbedFlags, kModelInputFlags},
     WithFlags<CmdWhatif>},
    {"help", "                    print this message", {}, CmdHelp},
};

void PrintUsage(std::ostream& out) {
  constexpr size_t kNameWidth = 9;
  out << "usage: msprint <command> [--flags]\n"
         "commands:\n";
  for (const Verb& verb : kVerbs) {
    std::string name = verb.name;
    name.resize(std::max(name.size(), kNameWidth), ' ');
    out << "  " << name << ' ';
    for (const char* c = verb.usage; *c != '\0'; ++c) {
      out << *c;
      if (*c == '\n') {
        out << std::string(kNameWidth + 3, ' ');
      }
    }
    out << "\n";
  }
  out << "exit codes: 0 success, 1 runtime failure, 2 usage error,\n"
         "            3 obs-diff threshold breach, 4 mc invariant violation,\n"
         "            5 storm goodput-ratio gate breach,\n"
         "            6 slo error-budget burn-through,\n"
         "            7 whatif required-gain unmet\n";
}

}  // namespace
}  // namespace msprint

int main(int argc, char** argv) {
  using namespace msprint;
  if (argc < 2) {
    PrintUsage(std::cerr);
    return kExitUsage;
  }
  std::string_view command = argv[1];
  if (command == "--help" || command == "-h") {
    command = "help";
  }
  const Verb* verb = std::find_if(
      std::begin(kVerbs), std::end(kVerbs),
      [&](const Verb& v) { return command == v.name; });
  if (verb == std::end(kVerbs)) {
    std::cerr << "unknown command: " << command << "\n";
    PrintUsage(std::cerr);
    return kExitUsage;
  }
  try {
    return verb->run(*verb, argc, argv);
  } catch (const OperandError&) {
    const std::string_view usage = verb->usage;
    std::cerr << "usage: msprint " << verb->name << " "
              << usage.substr(0, usage.find('\n')) << "\n";
    return kExitUsage;
  } catch (const FlagError& error) {
    // Bad invocation, not a runtime failure: usage exit code.
    std::cerr << error.what() << "\n";
    return kExitUsage;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return kExitRuntime;
  }
}
