// Online policy advisor: closes the loop Section 5 sketches. It watches
// the live arrival stream through sliding-window estimators, applies the
// trained hybrid model to the *estimated* (noisy) conditions, and
// re-recommends a timeout policy whenever conditions drift from the last
// recommendation point.
//
// The advisor is built to survive a hostile telemetry path (dropped,
// duplicated and out-of-order events — see src/fault) and a model that
// stops matching reality (breaker storms, unprofiled load). Defences:
//   * estimators run with TimestampPolicy::kClamp, so corrupt event feeds
//     degrade estimates instead of throwing;
//   * a model-health watchdog tracks predicted-vs-observed response-time
//     error over a sliding window (feed it with OnObservedResponseTime);
//   * a graceful-degradation ladder with three rungs:
//       kHybrid    — the trained hybrid model (normal operation),
//       kSimulator — the first-principles queue simulator at the marginal
//                    sprint rate (no learned component),
//       kStatic    — a conservative sprint-disabled policy that cannot
//                    exceed the sprint budget;
//     the watchdog demotes a rung when windowed error exceeds
//     degrade_error_threshold and promotes (probationally) when it falls
//     below recover_error_threshold; each transition clears the health
//     window, so a further move needs health_min_observations fresh
//     samples — that bounds flapping;
//   * re-planning retries with backoff: a model that throws is retried up
//     to replan_max_attempts times, then the advisor demotes itself one
//     rung and keeps the standing recommendation until the backoff lapses;
//   * hysteresis: a fresh plan replaces the standing recommendation only
//     when the best timeout moved materially (or the rung changed), so
//     noisy estimates cannot make the recommendation flap;
//   * breaker awareness: OnBreakerTrip opens a lockout window during which
//     every served recommendation has sprinting disabled (the standing
//     plan is kept and resumes once the lockout lapses), so the advisor
//     can never tell the serving layer to sprint into a tripped breaker.
//
// The ladder invariants the design promises (never serve a sprinting
// policy while breaker-locked-out, always serve a finite policy once one
// exists, no watchdog transition before health_min_observations fresh
// samples, no replan before the backoff deadline) are self-checked on the
// production code paths: a violation increments the always-on
// `advisor/invariant_breach` obs counters (see CheckLadderInvariant in
// advisor.cc). src/mc additionally model-checks the same invariants by
// exhaustive interleaving enumeration (DESIGN.md section 13).

#ifndef MSPRINT_SRC_ONLINE_ADVISOR_H_
#define MSPRINT_SRC_ONLINE_ADVISOR_H_

#include <deque>
#include <optional>
#include <string>

#include "src/explore/explorer.h"
#include "src/online/estimator.h"

namespace msprint {

// Degradation-ladder rungs, best first. kShedding exists only when
// AdvisorConfig::enable_shed_rung is set: one rung below kStatic, it keeps
// the sprint-disabled static policy AND tells the serving layer to turn on
// admission control — the last resort when even the conservative policy
// cannot keep the queue from collapsing (DESIGN.md §14).
enum class AdvisorRung {
  kHybrid = 0,
  kSimulator = 1,
  kStatic = 2,
  kShedding = 3,
};

std::string ToString(AdvisorRung rung);

struct AdvisorConfig {
  double rate_window_seconds = 600.0;
  size_t service_window_count = 200;
  // Recommend() serves nothing until this many arrivals are in the rate
  // window — below it the utilization estimate is noise. The model checker
  // shrinks this to keep its bounded horizons short.
  size_t min_signal_events = 5;
  // Page-Hinkley parameters on normalized utilization observations.
  double drift_delta = 0.01;
  double drift_threshold = 0.5;
  // Re-recommendation is also forced when utilization moves this far from
  // the last recommendation point (absolute).
  double utilization_slack = 0.08;
  // Explorer settings for each recommendation. Set explore.num_chains > 1
  // to run each re-plan as parallel annealing chains — the recommendation
  // stays deterministic for any pool size.
  ExploreConfig explore;
  // Policy knobs held fixed (budget, refill, arrival kind).
  ModelInput base;

  // Pool for re-planning chains and batched prediction (nullptr: the
  // shared global pool).
  ThreadPool* pool = nullptr;

  // --- model-health watchdog / degradation ladder ---
  // Windowed mean relative error |observed - predicted| / predicted over
  // the last health_window_count observations; the watchdog acts only once
  // health_min_observations have accumulated since the last transition.
  size_t health_window_count = 32;
  size_t health_min_observations = 8;
  double degrade_error_threshold = 0.75;
  double recover_error_threshold = 0.25;

  // --- re-planning retry with backoff ---
  size_t replan_max_attempts = 3;
  double replan_backoff_seconds = 30.0;

  // --- recommendation hysteresis ---
  // A fresh plan on the same rung is absorbed (no revision bump) when its
  // best timeout is within this fraction of the standing one.
  double timeout_hysteresis_fraction = 0.05;

  // Timeout published on the static rung: effectively "never sprint".
  double static_timeout_seconds = 1e15;

  // --- overload / shed awareness (DESIGN.md §14) ---
  // Opt-in: adds the kShedding rung below kStatic and the OnShed overload
  // overlay. Off by default, which keeps the three-rung ladder behaviour
  // (transitions, recommendations, invariants) exactly as before.
  bool enable_shed_rung = false;
  // After OnShed reports shed pressure, every recommendation served within
  // this window carries shed_enabled — the serving layer keeps admission
  // control on (possibly alongside sprinting) while the door is hot.
  double overload_shed_window_seconds = 120.0;

  // Simulation effort for the kSimulator/kStatic fallback predictions;
  // smaller than offline defaults because re-plans happen on the live path.
  PredictionSimConfig fallback_sim{4000, 400, 1, 97};
};

struct Recommendation {
  double timeout_seconds = 0.0;
  double predicted_response_time = 0.0;
  double at_utilization = 0.0;
  size_t revision = 0;  // increments every time the advisor re-plans
  // Ladder rung the recommendation was planned on.
  AdvisorRung rung = AdvisorRung::kHybrid;
  // True when a breaker lockout overrode the standing plan's timeout to
  // the sprint-disabled one for this serve. Set at serve time, never
  // stored: the standing plan resumes as soon as the lockout lapses.
  bool sprint_locked_out = false;
  // True when the serving layer should run admission control for this
  // serve: the ladder sits on kShedding (shed instead of sprint), or an
  // OnShed overload window is open (shed alongside the standing plan —
  // possibly both shed AND sprint). Like sprint_locked_out, computed at
  // serve time and never stored.
  bool shed_enabled = false;
};

class OnlineAdvisor {
 public:
  // `model` and `profile` must outlive the advisor.
  OnlineAdvisor(const PerformanceModel& model,
                const WorkloadProfile& profile, AdvisorConfig config);

  // Event feed from the live system. Tolerant of out-of-order, duplicated
  // and corrupt events (clamped/ignored, never throws).
  void OnArrival(double now);
  void OnCompletion(double now, double processing_seconds);

  // Feeds the model-health watchdog one end-to-end observed response time
  // to compare against the standing recommendation's prediction.
  void OnObservedResponseTime(double now, double response_seconds);

  // Reports shed pressure from the serving layer: `count` queries were
  // turned away at the door since the last report. With enable_shed_rung
  // set this opens (or extends) the overload window — recommendations
  // served inside it carry shed_enabled — and feeds the watchdog's view of
  // overload. A no-op when the shed rung is disabled or inputs are
  // corrupt; never throws.
  void OnShed(double now, size_t count);

  // Reports a circuit-breaker trip: sprinting is locked out until
  // `now + cooldown_seconds`. While the lockout is active Recommend()
  // serves the standing plan with sprinting disabled (timeout overridden
  // to static_timeout_seconds, sprint_locked_out set). Non-finite or
  // negative cooldowns are ignored; overlapping trips extend the window.
  void OnBreakerTrip(double now, double cooldown_seconds);

  // Current estimated conditions.
  double EstimatedArrivalRate(double now) const;
  double EstimatedUtilization(double now) const;

  // Windowed mean relative prediction error seen by the watchdog (0 until
  // observations accumulate).
  double ModelHealthError() const;

  // Returns the standing recommendation, re-planning first if conditions
  // drifted or the watchdog moved the ladder. Returns nullopt until enough
  // observations have accumulated. Never throws on model failure: broken
  // models demote the ladder instead.
  std::optional<Recommendation> Recommend(double now);

  size_t replan_count() const { return replan_count_; }
  AdvisorRung rung() const { return rung_; }
  size_t rung_transition_count() const { return rung_transition_count_; }
  size_t replan_failure_count() const { return replan_failure_count_; }
  // Deadline of the pending retry backoff (0 before any failure). A poll
  // at exactly the deadline retries; only now < backoff_until() waits.
  double backoff_until() const { return backoff_until_; }
  // End of the active breaker lockout window (0 when never tripped).
  double breaker_lockout_until() const { return breaker_lockout_until_; }
  // End of the active overload (shed) window (0 when never reported).
  double overload_until() const { return overload_until_; }
  // Fresh watchdog samples accumulated since the last ladder transition.
  size_t health_observation_count() const { return health_errors_.size(); }

  // Snapshots the advisor's full mutable state: estimator windows, drift
  // accumulators, the watchdog error window, the standing recommendation,
  // the ladder rung, and the replan/backoff bookkeeping. The model, the
  // profile and the config are not included — the checkpoint layer
  // (src/persist/checkpoint.h) persists those alongside. Round trips are
  // bit-exact, so a warm-restarted advisor emits the same recommendation
  // stream as one that never stopped.
  void SaveState(persist::Writer& w) const;
  // Restores a snapshot written by SaveState. Everything is parsed and
  // validated into temporaries before any member is touched, so a
  // malformed snapshot throws persist::PersistError and leaves the advisor
  // exactly as it was.
  void RestoreState(persist::Reader& r);

 private:
  bool ShouldReplan(double utilization);
  void UpdateRung(double now);
  const PerformanceModel& ActiveModel() const;
  void Replan(double now, double utilization);
  // Applies the breaker-lockout overlay to the standing recommendation and
  // runs the always-on ladder-invariant self-checks before serving it.
  std::optional<Recommendation> Serve(double now) const;

  const PerformanceModel& model_;
  const WorkloadProfile& profile_;
  AdvisorConfig config_;
  NoMlModel fallback_model_;  // kSimulator/kStatic rungs
  SlidingWindowRateEstimator rate_estimator_;
  ServiceTimeEstimator service_estimator_;
  DriftDetector drift_;
  std::optional<Recommendation> current_;
  size_t replan_count_ = 0;

  AdvisorRung rung_ = AdvisorRung::kHybrid;
  size_t rung_transition_count_ = 0;
  std::deque<double> health_errors_;
  double health_error_sum_ = 0.0;
  bool pending_replan_ = false;
  double backoff_until_ = 0.0;
  size_t replan_failure_count_ = 0;
  double breaker_lockout_until_ = 0.0;
  double overload_until_ = 0.0;
};

}  // namespace msprint

#endif  // MSPRINT_SRC_ONLINE_ADVISOR_H_
