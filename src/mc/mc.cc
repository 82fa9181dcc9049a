#include "src/mc/mc.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "src/obs/metrics.h"
#include "src/persist/persist.h"

namespace msprint {
namespace mc {

namespace {

// Sprint-seconds one granted sprint debits from the budget. Capacity 6
// with refill window 120 s means three ungated polls drain the bucket —
// small enough that budget bugs surface within the default horizon.
constexpr double kSprintCost = 3.0;
constexpr double kBudgetCapacitySeconds = 6.0;
constexpr double kBudgetRefillSeconds = 120.0;

// Fallback response time fed to the watchdog before any plan was served
// (the advisor ignores observations until it has a prediction anyway).
constexpr double kDefaultResponseSeconds = 50.0;

const char* ActionName(ActionKind kind) {
  switch (kind) {
    case ActionKind::kArrival:
      return "arrival";
    case ActionKind::kCompletion:
      return "completion";
    case ActionKind::kObserve:
      return "observe";
    case ActionKind::kWait:
      return "wait";
    case ActionKind::kBreakerTrip:
      return "breaker";
    case ActionKind::kModelToggle:
      return "model-toggle";
    case ActionKind::kPoll:
      return "poll";
    case ActionKind::kShed:
      return "shed";
    case ActionKind::kRetryBurst:
      return "retry-burst";
  }
  std::abort();  // unreachable: the switch above is exhaustive
}

bool ActionHasValue(ActionKind kind) {
  return kind != ActionKind::kModelToggle && kind != ActionKind::kPoll;
}

// The advisor configuration the checker explores. Thresholds are shrunk
// so every interesting regime — first plan, watchdog transitions, backoff
// lapses, lockouts — is reachable within a handful of actions, keeping
// minimal counterexamples inside the default horizon.
AdvisorConfig McAdvisorConfig(uint64_t seed) {
  AdvisorConfig config;
  config.rate_window_seconds = 400.0;
  config.min_signal_events = 2;
  config.explore.max_iterations = 6;
  config.explore.seed = seed;
  config.explore.num_chains = 1;
  config.health_window_count = 4;
  config.health_min_observations = 2;
  config.replan_max_attempts = 1;
  config.replan_backoff_seconds = 30.0;
  config.fallback_sim = {48, 8, 1, 97};
  return config;
}

WorkloadProfile McProfile() {
  WorkloadProfile profile;
  profile.service_rate_per_second = 0.1;  // one query per 10 s
  profile.marginal_rate_per_second = 0.15;
  profile.service_time_samples.assign(100, 10.0);
  return profile;
}

}  // namespace

// ------------------------------------------------------------- actions

std::string FormatAction(const Action& action) {
  std::string line = ActionName(action.kind);
  if (ActionHasValue(action.kind)) {
    line += ' ';
    line += obs::StableDouble(action.value);
  }
  return line;
}

Action ParseAction(const std::string& line) {
  std::istringstream in(line);
  std::string name;
  in >> name;
  static constexpr ActionKind kKinds[] = {
      ActionKind::kArrival,  ActionKind::kCompletion, ActionKind::kObserve,
      ActionKind::kWait,     ActionKind::kBreakerTrip,
      ActionKind::kModelToggle, ActionKind::kPoll,    ActionKind::kShed,
      ActionKind::kRetryBurst,
  };
  for (const ActionKind kind : kKinds) {
    if (name != ActionName(kind)) {
      continue;
    }
    Action action;
    action.kind = kind;
    std::string rest;
    if (ActionHasValue(kind)) {
      if (!(in >> action.value) || !std::isfinite(action.value)) {
        throw std::runtime_error("mc action '" + name +
                                 "' needs one finite value: " + line);
      }
    }
    if (in >> rest) {
      throw std::runtime_error("trailing tokens in mc action: " + line);
    }
    return action;
  }
  throw std::runtime_error("unknown mc action: " + line);
}

std::vector<Action> DefaultAlphabet() {
  // Order matters: the DFS explores in exactly this order, so the
  // alphabet is part of the deterministic-report contract.
  return {
      {ActionKind::kArrival, 5.0},       // normal telemetry
      {ActionKind::kArrival, 0.0},       // duplicated timestamp
      {ActionKind::kArrival, -10.0},     // stale / reordered delivery
      {ActionKind::kCompletion, 10.0},   // normal service sample
      {ActionKind::kCompletion, -1.0},   // corrupt service sample
      {ActionKind::kObserve, 1.0},       // model looks healthy
      {ActionKind::kObserve, 6.0},       // model looks broken
      {ActionKind::kObserve, -1.0},      // corrupt observation
      {ActionKind::kWait, 35.0},         // lapses the 30 s replan backoff
      {ActionKind::kBreakerTrip, 60.0},  // breaker trips now
      {ActionKind::kModelToggle, 0.0},   // hybrid model fails / recovers
      {ActionKind::kPoll, 0.0},          // the serving layer acts
  };
}

std::vector<Action> OverloadAlphabet() {
  // Appended after the default twelve, never interleaved: the shared
  // prefix keeps default-alphabet traces meaningful under either
  // alphabet, and the order remains part of the deterministic-report
  // contract.
  std::vector<Action> alphabet = DefaultAlphabet();
  alphabet.push_back({ActionKind::kShed, 4.0});        // shed burst reported
  alphabet.push_back({ActionKind::kShed, -1.0});       // corrupt shed report
  alphabet.push_back({ActionKind::kRetryBurst, 3.0});  // same-instant retries
  return alphabet;
}

// ------------------------------------------------------- injected bugs

std::string ToString(InjectedBug bug) {
  switch (bug) {
    case InjectedBug::kNone:
      return "none";
    case InjectedBug::kBudgetDebt:
      return "budget-debt";
    case InjectedBug::kBreakerSignalDrop:
      return "breaker-signal-drop";
    case InjectedBug::kShedSignalDrop:
      return "shed-signal-drop";
  }
  std::abort();  // unreachable: the switch above is exhaustive
}

std::optional<InjectedBug> InjectedBugFromName(const std::string& name) {
  for (const InjectedBug bug : kAllInjectedBugs) {
    if (name == ToString(bug)) {
      return bug;
    }
  }
  return std::nullopt;
}

// -------------------------------------------------------- trace files

std::string FormatTraceFile(const TraceFile& trace) {
  std::string out = "# msprint mc trace v1\n";
  out += "# injected-bug " + ToString(trace.bug) + "\n";
  out += "# invariant " + trace.invariant + "\n";
  // Written only for overload traces, so legacy trace files round-trip
  // byte-identically (absence parses as the default alphabet).
  if (trace.overload) {
    out += "# alphabet overload\n";
  }
  for (const Action& action : trace.actions) {
    out += FormatAction(action);
    out += '\n';
  }
  return out;
}

TraceFile ParseTraceFile(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  size_t line_number = 0;
  TraceFile trace;
  bool saw_magic = false;
  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    if (line.empty()) {
      continue;
    }
    if (line_number == 1) {
      if (line != "# msprint mc trace v1") {
        throw std::runtime_error("not an mc trace (bad header line)");
      }
      saw_magic = true;
      continue;
    }
    if (line[0] == '#') {
      std::istringstream header(line.substr(1));
      std::string key;
      header >> key;
      if (key == "injected-bug") {
        std::string name;
        header >> name;
        const auto bug = InjectedBugFromName(name);
        if (!bug.has_value()) {
          throw std::runtime_error("line " + std::to_string(line_number) +
                                   ": unknown injected bug '" + name + "'");
        }
        trace.bug = *bug;
      } else if (key == "invariant") {
        std::string name;
        header >> name;
        if (name.empty()) {
          throw std::runtime_error("line " + std::to_string(line_number) +
                                   ": empty invariant header");
        }
        trace.invariant = name;
      } else if (key == "alphabet") {
        std::string name;
        header >> name;
        if (name == "overload") {
          trace.overload = true;
        } else if (name != "default") {
          throw std::runtime_error("line " + std::to_string(line_number) +
                                   ": unknown alphabet '" + name + "'");
        }
      }
      continue;  // other comment lines are free-form
    }
    try {
      trace.actions.push_back(ParseAction(line));
    } catch (const std::exception& error) {
      throw std::runtime_error("line " + std::to_string(line_number) + ": " +
                               error.what());
    }
  }
  if (!saw_magic) {
    throw std::runtime_error("not an mc trace (empty input)");
  }
  return trace;
}

// ---------------------------------------------------------- the system

// Deterministic closed-form stand-in for the trained hybrid model (same
// shape the online tests use: best timeout shifts with utilization), with
// a switch that makes every prediction throw — the checker's handle on
// "the model backend went away mid-replan".
struct LadderHarness::Model final : public PerformanceModel {
  bool broken = false;

  std::string name() const override { return "McAdversarial"; }
  double PredictResponseTime(const WorkloadProfile&,
                             const ModelInput& input) const override {
    if (broken) {
      throw std::runtime_error("mc: hybrid model marked broken");
    }
    const double best = 200.0 * (1.0 - input.utilization);
    const double d = input.timeout_seconds - best;
    return 50.0 + 0.01 * d * d;
  }
};

namespace {

AdvisorConfig HarnessAdvisorConfig(const McConfig& config) {
  AdvisorConfig advisor_config = McAdvisorConfig(config.seed);
  if (config.overload_alphabet) {
    advisor_config.enable_shed_rung = true;
    // Shrunk so a kWait 35 lapses the window: the DFS reaches both the
    // in-window and the lapsed regime inside the default horizon.
    advisor_config.overload_shed_window_seconds = 30.0;
  }
  return advisor_config;
}

}  // namespace

LadderHarness::LadderHarness(const McConfig& config)
    : config_(config),
      advisor_config_(HarnessAdvisorConfig(config)),
      model_(std::make_unique<Model>()),
      profile_(McProfile()),
      advisor_(std::make_unique<OnlineAdvisor>(*model_, profile_,
                                               advisor_config_)),
      budget_(kBudgetCapacitySeconds, kBudgetRefillSeconds),
      injector_(nullptr) {}

LadderHarness::~LadderHarness() = default;

bool LadderHarness::breaker_locked_out() const {
  return injector_.BreakerActive(clock_);
}

const FaultTrace& LadderHarness::fault_trace() const {
  return injector_.trace();
}

std::optional<Violation> LadderHarness::Apply(const Action& action) {
  switch (action.kind) {
    case ActionKind::kArrival: {
      // dt > 0 is a fresh arrival advancing the clock; dt == 0 a
      // duplicated timestamp; dt < 0 a stale delivery the estimator must
      // clamp (the clock never moves backwards).
      const double t = clock_ + action.value;
      if (action.value > 0.0) {
        clock_ = t;
      }
      advisor_->OnArrival(t);
      return std::nullopt;
    }
    case ActionKind::kCompletion:
      advisor_->OnCompletion(clock_, action.value);
      return std::nullopt;
    case ActionKind::kObserve: {
      // factor >= 0 scales the last served prediction (6x looks like a
      // broken model); factor < 0 is sent raw as a corrupt observation.
      const double base = last_served_predicted_ > 0.0
                              ? last_served_predicted_
                              : kDefaultResponseSeconds;
      const double response =
          action.value < 0.0 ? -1.0 : action.value * base;
      advisor_->OnObservedResponseTime(clock_, response);
      return std::nullopt;
    }
    case ActionKind::kWait:
      clock_ += std::max(0.0, action.value);
      return std::nullopt;
    case ActionKind::kBreakerTrip:
      injector_.ForceBreakerLockout(clock_, action.value);
      if (config_.bug != InjectedBug::kBreakerSignalDrop) {
        advisor_->OnBreakerTrip(clock_, action.value);
      }
      return std::nullopt;
    case ActionKind::kModelToggle:
      model_->broken = !model_->broken;
      return std::nullopt;
    case ActionKind::kPoll:
      return Poll();
    case ActionKind::kShed: {
      // value = shed count the serving layer reports; < 0 is a corrupt
      // report dropped on the floor. The ground-truth window is recorded
      // here, independently of whether the signal survives the (possibly
      // bug-injected) path to the advisor.
      const size_t count =
          action.value > 0.0 ? static_cast<size_t>(action.value) : 0;
      if (advisor_config_.enable_shed_rung && count > 0) {
        overload_truth_until_ =
            std::max(overload_truth_until_,
                     clock_ + advisor_config_.overload_shed_window_seconds);
      }
      if (config_.bug != InjectedBug::kShedSignalDrop) {
        advisor_->OnShed(clock_, count);
      }
      return std::nullopt;
    }
    case ActionKind::kRetryBurst: {
      // A retry storm: N retries hammer the telemetry path at the same
      // instant (duplicate timestamps; the clock does not move).
      const int burst =
          action.value > 0.0
              ? static_cast<int>(std::min(action.value, 64.0))
              : 0;
      for (int i = 0; i < burst; ++i) {
        advisor_->OnArrival(clock_);
      }
      return std::nullopt;
    }
  }
  std::abort();  // unreachable: the switch above is exhaustive
}

std::optional<Violation> LadderHarness::Poll() {
  const AdvisorRung rung_before = advisor_->rung();
  const size_t replans_before = advisor_->replan_count();
  const size_t failures_before = advisor_->replan_failure_count();
  const double backoff_before = advisor_->backoff_until();
  const size_t health_before = advisor_->health_observation_count();

  const auto rec = advisor_->Recommend(clock_);
  const bool locked_out = injector_.BreakerActive(clock_);
  if (locked_out) {
    ++lockout_poll_count_;
  }

  // backoff-respected: a re-plan (successful or failed) strictly before
  // the pending deadline breaks the retry contract. A poll at exactly the
  // deadline is the earliest legal retry.
  if (advisor_->replan_count() + advisor_->replan_failure_count() >
          replans_before + failures_before &&
      clock_ < backoff_before) {
    return Violation{
        "backoff-respected",
        "re-planned at t=" + obs::StableDouble(clock_) +
            " before the backoff deadline t=" +
            obs::StableDouble(backoff_before)};
  }

  const AdvisorRung rung_after = advisor_->rung();

  // fresh-samples-before-transition: a watchdog move (rung changed with
  // no replan failure, which is the separate backoff-demotion path)
  // requires a refilled health window.
  if (rung_after != rung_before &&
      advisor_->replan_failure_count() == failures_before &&
      health_before < advisor_config_.health_min_observations) {
    return Violation{
        "fresh-samples-before-transition",
        std::string("watchdog moved ") + ToString(rung_before) + " -> " +
            ToString(rung_after) + " on " +
            std::to_string(health_before) + " fresh samples (needs " +
            std::to_string(advisor_config_.health_min_observations) + ")"};
  }

  // no-flap-in-refractory: one poll moves the ladder at most one rung.
  const int step = std::abs(static_cast<int>(rung_after) -
                            static_cast<int>(rung_before));
  if (step > 1) {
    return Violation{"no-flap-in-refractory",
                     std::string("ladder flapped ") + ToString(rung_before) +
                         " -> " + ToString(rung_after) + " in one poll"};
  }

  if (!rec.has_value()) {
    if (served_once_) {
      return Violation{"finite-policy-served",
                       "advisor served a policy earlier but returned "
                       "nothing at t=" +
                           obs::StableDouble(clock_)};
    }
    return std::nullopt;  // still warming up: legal
  }
  served_once_ = true;
  // Timeout 0 ("sprint immediately") is inside the explorer's legal range
  // (timeout_min_seconds = 0) — only negative or non-finite policies are
  // violations.
  if (!(std::isfinite(rec->timeout_seconds) && rec->timeout_seconds >= 0.0 &&
        std::isfinite(rec->predicted_response_time) &&
        rec->predicted_response_time >= 0.0)) {
    return Violation{
        "finite-policy-served",
        "non-finite policy: timeout=" +
            obs::StableDouble(rec->timeout_seconds) + " predicted=" +
            obs::StableDouble(rec->predicted_response_time)};
  }
  last_served_predicted_ = rec->predicted_response_time;

  // shed-window-honored: the harness knows (ground truth) that shed
  // pressure was reported inside the overload window, so whatever path
  // the signal took, the served recommendation must carry the shed
  // directive. Strict <, mirroring the advisor's own window comparison:
  // a serve at exactly the deadline legally stops shedding.
  if (clock_ < overload_truth_until_ && !rec->shed_enabled) {
    return Violation{
        "shed-window-honored",
        "recommendation without the shed directive served at t=" +
            obs::StableDouble(clock_) +
            " inside the overload window ending t=" +
            obs::StableDouble(overload_truth_until_)};
  }

  // The serving layer sprints when the policy says sprinting pays off
  // (any timeout below the sprint-disabled static one) and the advisor
  // did not flag a lockout override.
  const bool sprints = rec->timeout_seconds <
                           advisor_config_.static_timeout_seconds &&
                       !rec->sprint_locked_out;
  // no-sprint-on-shed-rung: the last-resort rung plans the conservative
  // never-sprint policy; a sprinting recommendation from it means the
  // ladder is lying about its own bottom rung.
  if (sprints && rec->rung == AdvisorRung::kShedding) {
    return Violation{"no-sprint-on-shed-rung",
                     "sprinting recommendation (timeout=" +
                         obs::StableDouble(rec->timeout_seconds) +
                         ") served from the shedding rung at t=" +
                         obs::StableDouble(clock_)};
  }
  if (sprints && locked_out) {
    return Violation{"no-sprint-while-locked-out",
                     "sprinting recommendation (timeout=" +
                         obs::StableDouble(rec->timeout_seconds) +
                         ") served during an active breaker lockout at t=" +
                         obs::StableDouble(clock_)};
  }
  if (sprints) {
    if (config_.bug == InjectedBug::kBudgetDebt) {
      // The injected defect: debit without a solvency check.
      budget_.ConsumeAllowingDebt(clock_, kSprintCost);
    } else {
      budget_.ConsumeUpTo(clock_, kSprintCost);
    }
  }
  if (budget_.Available(clock_) < 0.0 || budget_.overdraw_count() > 0) {
    return Violation{"budget-non-negative",
                     "budget level " +
                         obs::StableDouble(budget_.Available(clock_)) +
                         " after " +
                         std::to_string(budget_.overdraw_count()) +
                         " overdraw(s) at t=" + obs::StableDouble(clock_)};
  }
  return std::nullopt;
}

std::string LadderHarness::SaveState() const {
  // lockout_poll_count_ is a search statistic, not machine state: keeping
  // it out of the snapshot keeps the fingerprint semantic (two states
  // that behave identically dedup even if reached by different paths).
  persist::Writer w;
  w.PutF64(clock_);
  w.PutBool(model_->broken);
  w.PutBool(served_once_);
  w.PutF64(last_served_predicted_);
  w.PutF64(injector_.forced_lockout_until());
  w.PutF64(overload_truth_until_);
  persist::Writer advisor_w;
  advisor_->SaveState(advisor_w);
  w.PutString(advisor_w.bytes());
  persist::Writer budget_w;
  budget_.Serialize(budget_w);
  w.PutString(budget_w.bytes());
  return w.Take();
}

void LadderHarness::RestoreState(const std::string& bytes) {
  persist::Reader r(bytes);
  const double clock = r.GetFiniteF64("mc clock");
  const bool broken = r.GetBool();
  const bool served_once = r.GetBool();
  const double last_predicted = r.GetFiniteF64("mc last served prediction");
  const double lockout_until = r.GetFiniteF64("mc forced lockout deadline");
  const double overload_truth_until =
      r.GetFiniteF64("mc overload ground-truth deadline");
  const std::string advisor_bytes = r.GetString();
  const std::string budget_bytes = r.GetString();
  r.ExpectEnd();

  persist::Reader advisor_r(advisor_bytes);
  advisor_->RestoreState(advisor_r);  // all-or-nothing on its own payload
  persist::Reader budget_r(budget_bytes);
  SprintBudget budget = SprintBudget::Deserialize(budget_r);
  budget_r.ExpectEnd();

  clock_ = clock;
  model_->broken = broken;
  served_once_ = served_once;
  last_served_predicted_ = last_predicted;
  overload_truth_until_ = overload_truth_until;
  budget_ = budget;
  injector_ = FaultInjector(nullptr);
  if (lockout_until > 0.0) {
    injector_.ForceBreakerLockout(lockout_until, 0.0);
  }
}

uint64_t LadderHarness::Fingerprint() const {
  return persist::Fingerprint64(SaveState());
}

// -------------------------------------------------------------- checker

namespace {

// Fixed frontier slots, in report order. Each keeps the first trace (in
// DFS order) that strictly improves its criterion, so the frontier is
// deterministic.
constexpr const char* kFrontierNames[] = {
    "deepest",        "reach-simulator",      "reach-static",
    "max-transitions", "max-budget-drain",    "lockout-poll",
    "reach-shedding",
};
constexpr size_t kFrontierCount =
    sizeof(kFrontierNames) / sizeof(kFrontierNames[0]);

struct Search {
  explicit Search(const McConfig& config) : harness(config) {
    report.config = config;
  }

  LadderHarness harness;
  std::vector<Action> alphabet;
  std::unordered_map<uint64_t, size_t> visited;  // fp -> best remaining
  McReport report;
  Trace path;
  bool stop = false;

  Trace frontier[kFrontierCount];
  bool frontier_set[kFrontierCount] = {};
  size_t best_depth = 0;
  size_t best_rung_transitions = 0;
  double best_budget_drain = 0.0;
  size_t seen_lockout_polls = 0;

  void Capture(size_t slot) {
    frontier[slot] = path;
    frontier_set[slot] = true;
  }

  void UpdateCoverage() {
    const OnlineAdvisor& advisor = harness.advisor();
    if (path.size() > best_depth) {
      best_depth = path.size();
      Capture(0);
    }
    if (advisor.rung() == AdvisorRung::kSimulator &&
        !report.reached_simulator) {
      report.reached_simulator = true;
      Capture(1);
    }
    if (advisor.rung() == AdvisorRung::kStatic && !report.reached_static) {
      report.reached_static = true;
      Capture(2);
    }
    if (advisor.rung() == AdvisorRung::kShedding &&
        !report.reached_shedding) {
      report.reached_shedding = true;
      Capture(6);
    }
    if (advisor.rung_transition_count() > best_rung_transitions) {
      best_rung_transitions = advisor.rung_transition_count();
      report.max_rung_transitions = best_rung_transitions;
      Capture(3);
    }
    if (harness.budget().total_consumed() > best_budget_drain) {
      best_budget_drain = harness.budget().total_consumed();
      report.max_budget_consumed = best_budget_drain;
      Capture(4);
    }
    if (harness.lockout_poll_count() > seen_lockout_polls) {
      seen_lockout_polls = harness.lockout_poll_count();
      report.lockout_polls = seen_lockout_polls;
      if (!frontier_set[5]) {
        Capture(5);
      }
    }
  }
};

void Dfs(Search& s, const std::string& state_bytes, size_t depth) {
  if (s.stop || depth >= s.report.config.horizon) {
    return;
  }
  for (const Action& action : s.alphabet) {
    if (s.stop) {
      return;
    }
    if (s.report.transitions >= s.report.config.max_transitions) {
      s.report.truncated = true;
      s.stop = true;
      return;
    }
    s.harness.RestoreState(state_bytes);
    s.path.push_back(action);
    const auto violation = s.harness.Apply(action);
    ++s.report.transitions;
    s.report.max_depth = std::max(s.report.max_depth, depth + 1);
    s.UpdateCoverage();
    if (violation.has_value()) {
      s.report.violation = violation;
      s.report.counterexample = s.path;
      s.stop = true;
      s.path.pop_back();
      return;
    }
    const uint64_t fingerprint = s.harness.Fingerprint();
    const size_t remaining = s.report.config.horizon - (depth + 1);
    const auto it = s.visited.find(fingerprint);
    if (it != s.visited.end() && it->second >= remaining) {
      // Already explored from this state with at least as much depth
      // remaining: nothing new can be reached through it.
      ++s.report.dedup_hits;
    } else {
      if (it == s.visited.end()) {
        s.visited.emplace(fingerprint, remaining);
        ++s.report.states;
      } else {
        it->second = remaining;
      }
      if (remaining > 0) {
        Dfs(s, s.harness.SaveState(), depth + 1);
      }
    }
    s.path.pop_back();
  }
}

}  // namespace

std::optional<Violation> ReplayTrace(const McConfig& config,
                                     const Trace& trace) {
  LadderHarness harness(config);
  for (const Action& action : trace) {
    const auto violation = harness.Apply(action);
    if (violation.has_value()) {
      return violation;
    }
  }
  return std::nullopt;
}

Trace MinimizeCounterexample(const McConfig& config, const Trace& trace,
                             const std::string& invariant) {
  Trace best = trace;
  bool improved = true;
  while (improved) {
    improved = false;
    for (size_t skip = 0; skip < best.size(); ++skip) {
      Trace candidate;
      candidate.reserve(best.size() - 1);
      for (size_t i = 0; i < best.size(); ++i) {
        if (i != skip) {
          candidate.push_back(best[i]);
        }
      }
      const auto violation = ReplayTrace(config, candidate);
      if (violation.has_value() && violation->invariant == invariant) {
        best = std::move(candidate);
        improved = true;
        break;  // restart: earlier deletions may have become possible
      }
    }
  }
  return best;
}

McReport RunBoundedCheck(const McConfig& config) {
  Search s(config);
  s.alphabet = config.overload_alphabet ? OverloadAlphabet()
                                        : DefaultAlphabet();
  s.report.alphabet_size = s.alphabet.size();
  const std::string root = s.harness.SaveState();
  s.visited.emplace(s.harness.Fingerprint(), config.horizon);
  s.report.states = 1;
  Dfs(s, root, 0);
  if (s.report.violation.has_value()) {
    s.report.counterexample = MinimizeCounterexample(
        config, s.report.counterexample, s.report.violation->invariant);
  }
  for (size_t i = 0; i < kFrontierCount; ++i) {
    if (s.frontier_set[i]) {
      s.report.frontier.emplace_back(kFrontierNames[i],
                                     std::move(s.frontier[i]));
    }
  }
  return s.report;
}

std::string FormatReport(const McReport& report) {
  std::string out = "# msprint mc report v1\n";
  out += "horizon " + std::to_string(report.config.horizon) + "\n";
  out += "seed " + std::to_string(report.config.seed) + "\n";
  out += "injected-bug " + ToString(report.config.bug) + "\n";
  out += "overload-alphabet " +
         std::string(report.config.overload_alphabet ? "1" : "0") + "\n";
  out += "alphabet " + std::to_string(report.alphabet_size) + "\n";
  out += "states " + std::to_string(report.states) + "\n";
  out += "transitions " + std::to_string(report.transitions) + "\n";
  out += "dedup-hits " + std::to_string(report.dedup_hits) + "\n";
  out += "truncated " + std::string(report.truncated ? "1" : "0") + "\n";
  out += "max-depth " + std::to_string(report.max_depth) + "\n";
  out += "reached-simulator " +
         std::string(report.reached_simulator ? "1" : "0") + "\n";
  out += "reached-static " + std::string(report.reached_static ? "1" : "0") +
         "\n";
  out += "reached-shedding " +
         std::string(report.reached_shedding ? "1" : "0") + "\n";
  out += "max-rung-transitions " +
         std::to_string(report.max_rung_transitions) + "\n";
  out += "max-budget-consumed " +
         obs::StableDouble(report.max_budget_consumed) + "\n";
  out += "lockout-polls " + std::to_string(report.lockout_polls) + "\n";
  for (const auto& [name, trace] : report.frontier) {
    out += "frontier " + name + " " + std::to_string(trace.size()) + "\n";
  }
  out += "violations " +
         std::string(report.violation.has_value() ? "1" : "0") + "\n";
  if (report.violation.has_value()) {
    out += "violation " + report.violation->invariant + "\n";
    out += "violation-detail " + report.violation->detail + "\n";
    out += "counterexample-length " +
           std::to_string(report.counterexample.size()) + "\n";
    out += "counterexample:\n";
    for (const Action& action : report.counterexample) {
      out += "  " + FormatAction(action) + "\n";
    }
  }
  return out;
}

}  // namespace mc
}  // namespace msprint
