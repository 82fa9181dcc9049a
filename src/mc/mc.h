// Bounded model checking of the self-healing advisor ladder (ROADMAP
// item 5; DESIGN.md §13).
//
// The online loop is the one place where rare orderings hide bugs: the
// model-health watchdog, the replan backoff, the recommendation
// hysteresis, the breaker lockout and the sprint budget all interleave on
// the same poll path. This module drives that machine — OnlineAdvisor +
// SprintBudget + the FaultInjector breaker-lockout mechanism — as an
// explicit transition system and enumerates every action sequence up to a
// depth bound, asserting the ladder invariants at each step:
//
//   no-sprint-while-locked-out      a poll during an active breaker
//                                   lockout never yields a sprinting
//                                   recommendation;
//   finite-policy-served            once the advisor has served a policy
//                                   it always serves one, and it is
//                                   finite (positive timeout, non-negative
//                                   prediction);
//   budget-non-negative             the sprint budget never goes into
//                                   debt on the gated consumption path;
//   fresh-samples-before-transition the watchdog never moves the ladder
//                                   before health_min_observations fresh
//                                   samples accumulated;
//   backoff-respected               no re-plan fires strictly before the
//                                   retry-backoff deadline (a poll at
//                                   exactly the deadline is legal);
//   no-flap-in-refractory           one poll moves the ladder at most one
//                                   rung;
//   shed-window-honored             every recommendation served while the
//                                   ground-truth overload window is open
//                                   carries the shed directive (overload
//                                   alphabet only);
//   no-sprint-on-shed-rung          the last-resort kShedding rung never
//                                   serves a sprinting recommendation
//                                   (overload alphabet only).
//
// The search is a serial DFS (byte-identical reports for any
// MSPRINT_THREADS) with state dedup: every state is fingerprinted via
// persist::Fingerprint64 over the harness's bit-exact SaveState bytes,
// and a state is re-expanded only when revisited with more remaining
// depth than before. Counterexamples are minimized by greedy action
// deletion and exported as deterministic replayable trace files that
// `msprint mc --replay` and the fault-stress CI consume — every
// counterexample the checker ever finds becomes a permanent regression
// test (tests/golden/mc_traces/).

#ifndef MSPRINT_SRC_MC_MC_H_
#define MSPRINT_SRC_MC_MC_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/fault/fault.h"
#include "src/online/advisor.h"
#include "src/sprint/budget.h"

namespace msprint {
namespace mc {

// ------------------------------------------------------------- actions

// The nondeterministic inputs the live system faces, discretized into an
// alphabet the checker enumerates exhaustively.
enum class ActionKind {
  kArrival,      // value = dt: telemetry arrival at clock+dt. dt > 0
                 // advances the clock; dt == 0 is a duplicate timestamp;
                 // dt < 0 is a stale/reordered delivery (clock unchanged).
  kCompletion,   // value = service seconds (< 0: corrupt sample)
  kObserve,      // value = factor on the last served prediction
                 // (< 0: corrupt observation, sent as raw -1.0)
  kWait,         // value = dt: the clock advances with no events
  kBreakerTrip,  // value = cooldown seconds: breaker trips now
  kModelToggle,  // the hybrid model flips between healthy and throwing
  kPoll,         // the serving layer asks Recommend() and acts on it
  // Overload-robustness actions (DESIGN.md §14); enumerated only when
  // McConfig::overload_alphabet is set. Appended so the numeric values of
  // the legacy kinds — and every committed trace — stay valid.
  kShed,         // value = queries the serving layer turned away since
                 // the last report (< 0: corrupt report, dropped)
  kRetryBurst,   // value = retries hammering the telemetry path at the
                 // same instant (duplicate timestamps, clock unchanged)
};

struct Action {
  ActionKind kind = ActionKind::kPoll;
  double value = 0.0;
};

using Trace = std::vector<Action>;

// One-line byte-stable rendering ("arrival 5", "poll", …) and its inverse.
// ParseAction throws std::runtime_error on malformed input.
std::string FormatAction(const Action& action);
Action ParseAction(const std::string& line);

// The default alphabet: adversarial timestamps, corrupt values, breaker
// trips, model failures and polls. Deterministic and order-stable — the
// DFS explores actions in exactly this order.
std::vector<Action> DefaultAlphabet();

// DefaultAlphabet plus the overload actions (shed reports, corrupt shed
// reports, same-instant retry bursts). Strictly appended, never
// interleaved: the shared prefix keeps every default-alphabet trace
// meaningful under either alphabet.
std::vector<Action> OverloadAlphabet();

// ------------------------------------------------------- injected bugs

// Deliberate defects the checker must catch; used by tests and CI to
// prove the find → minimize → replay pipeline end to end. kNone is the
// shipped system (expected clean).
enum class InjectedBug {
  kNone,
  kBudgetDebt,         // the serving layer debits the budget without a
                       // solvency check (ConsumeAllowingDebt, ungated)
  kBreakerSignalDrop,  // breaker trips never reach the advisor, so it
                       // keeps recommending sprints into the lockout
  kShedSignalDrop,     // shed reports never reach the advisor, so it
                       // keeps serving shed-free recommendations while
                       // the door is on fire (overload alphabet only)
};

inline constexpr InjectedBug kAllInjectedBugs[] = {
    InjectedBug::kNone, InjectedBug::kBudgetDebt,
    InjectedBug::kBreakerSignalDrop, InjectedBug::kShedSignalDrop};

std::string ToString(InjectedBug bug);
// Inverse of ToString over kAllInjectedBugs; nullopt for unknown names.
std::optional<InjectedBug> InjectedBugFromName(const std::string& name);

// -------------------------------------------------------- trace files

// A replayable counterexample (or frontier) trace. The injected bug is
// recorded so a replay reproduces the violation; replaying with the bug
// stripped (kNone) must be clean — that is what the golden-corpus ctest
// asserts.
struct TraceFile {
  Trace actions;
  InjectedBug bug = InjectedBug::kNone;
  // Violated invariant name, or "none" for frontier traces.
  std::string invariant = "none";
  // True when the trace was recorded against the overload alphabet (shed
  // rung enabled); replays must run the harness the same way. Absent from
  // older trace files, which parse as false.
  bool overload = false;
};

std::string FormatTraceFile(const TraceFile& trace);
// Throws std::runtime_error on malformed input (with a line number).
TraceFile ParseTraceFile(const std::string& text);

// ---------------------------------------------------------- the system

struct McConfig {
  size_t horizon = 5;          // DFS depth bound (actions per path)
  uint64_t seed = 21;          // explorer seed inside the advisor
  size_t max_transitions = 4000000;  // exploration cap; hit => truncated
  InjectedBug bug = InjectedBug::kNone;
  // Enumerate OverloadAlphabet() and enable the advisor's kShedding rung
  // (plus the shed-window/shed-rung invariants). Off: the legacy
  // three-rung machine, bit-compatible with every existing trace.
  bool overload_alphabet = false;
};

struct Violation {
  std::string invariant;  // stable name from the list above
  std::string detail;     // human-readable context
};

// The advisor + budget + breaker-lockout machine under test, exposed as
// an explicit transition system with bit-exact snapshot/restore (built on
// the same persist serialization the checkpoint layer uses) and
// fingerprinting for state dedup.
class LadderHarness {
 public:
  explicit LadderHarness(const McConfig& config);
  ~LadderHarness();
  LadderHarness(const LadderHarness&) = delete;
  LadderHarness& operator=(const LadderHarness&) = delete;

  // Applies one action; returns the first invariant violation it causes.
  std::optional<Violation> Apply(const Action& action);

  // Bit-exact snapshot of the full machine state (clock, model health,
  // advisor, budget, lockout window). Restore is all-or-nothing.
  std::string SaveState() const;
  void RestoreState(const std::string& bytes);
  uint64_t Fingerprint() const;

  const OnlineAdvisor& advisor() const { return *advisor_; }
  const SprintBudget& budget() const { return budget_; }
  double clock_seconds() const { return clock_; }
  size_t lockout_poll_count() const { return lockout_poll_count_; }
  bool breaker_locked_out() const;
  // Faults recorded by the breaker-lockout mechanism during a linear
  // replay (the `msprint faults --mc-trace` path).
  const FaultTrace& fault_trace() const;

 private:
  std::optional<Violation> Poll();

  McConfig config_;
  AdvisorConfig advisor_config_;
  struct Model;
  std::unique_ptr<Model> model_;
  WorkloadProfile profile_;
  std::unique_ptr<OnlineAdvisor> advisor_;
  SprintBudget budget_;
  FaultInjector injector_;

  double clock_ = 0.0;
  bool served_once_ = false;
  double last_served_predicted_ = 0.0;
  size_t lockout_poll_count_ = 0;
  // Ground truth for shed-window-honored: the harness records when shed
  // pressure was reported independently of whether the signal reached the
  // advisor (the injected kShedSignalDrop defect drops it en route).
  double overload_truth_until_ = 0.0;
};

// -------------------------------------------------------------- checker

struct McReport {
  McConfig config;
  size_t alphabet_size = 0;
  size_t states = 0;       // distinct states entered (incl. the initial)
  size_t transitions = 0;  // actions applied during the search
  size_t dedup_hits = 0;   // expansions skipped via fingerprint dedup
  size_t max_depth = 0;    // deepest path actually explored
  bool truncated = false;  // max_transitions cap hit
  // Coverage of the interesting corners, for the frontier summary.
  bool reached_simulator = false;
  bool reached_static = false;
  bool reached_shedding = false;  // overload alphabet only
  size_t max_rung_transitions = 0;
  double max_budget_consumed = 0.0;
  size_t lockout_polls = 0;

  std::optional<Violation> violation;
  Trace counterexample;  // minimized; empty when no violation

  // Named frontier traces (deepest path, first reach-static path, …);
  // exported alongside counterexamples by `msprint mc --export`.
  std::vector<std::pair<std::string, Trace>> frontier;
};

// Exhaustive bounded DFS from the initial state. Serial and
// deterministic: the same config yields a byte-identical report for any
// MSPRINT_THREADS. Stops at the first invariant violation (then
// minimizes it).
McReport RunBoundedCheck(const McConfig& config);

// Replays `trace` on a fresh harness; returns the first violation.
std::optional<Violation> ReplayTrace(const McConfig& config,
                                     const Trace& trace);

// Greedy action-deletion minimization: repeatedly drops any action whose
// removal still reproduces a violation of the same invariant, to a
// 1-minimal trace.
Trace MinimizeCounterexample(const McConfig& config, const Trace& trace,
                             const std::string& invariant);

// Byte-stable "mc report v1" rendering.
std::string FormatReport(const McReport& report);

}  // namespace mc
}  // namespace msprint

#endif  // MSPRINT_SRC_MC_MC_H_
