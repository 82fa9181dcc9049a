#include "src/online/advisor.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "src/obs/obs.h"

namespace msprint {

namespace {

// One rung down/up the ladder. The kShedding rung below kStatic exists
// only when the config opts in (`shed_rung`).
AdvisorRung Demoted(AdvisorRung rung, bool shed_rung) {
  switch (rung) {
    case AdvisorRung::kHybrid:
      return AdvisorRung::kSimulator;
    case AdvisorRung::kSimulator:
      return AdvisorRung::kStatic;
    case AdvisorRung::kStatic:
      return shed_rung ? AdvisorRung::kShedding : AdvisorRung::kStatic;
    case AdvisorRung::kShedding:
      return AdvisorRung::kShedding;
  }
  std::abort();  // unreachable: the switch above covers every rung
}

AdvisorRung Promoted(AdvisorRung rung) {
  switch (rung) {
    case AdvisorRung::kHybrid:
    case AdvisorRung::kSimulator:
      return AdvisorRung::kHybrid;
    case AdvisorRung::kStatic:
      return AdvisorRung::kSimulator;
    case AdvisorRung::kShedding:
      return AdvisorRung::kStatic;
  }
  std::abort();  // unreachable: the switch above covers every rung
}

// Always-on ladder-invariant self-check: the production paths assert the
// invariants the model checker (src/mc) verifies exhaustively, so a breach
// that somehow reaches production is counted instead of passing silently.
// `name` is a stable per-invariant suffix under advisor/invariant_breach/.
void CheckLadderInvariant(bool holds, const char* name) {
  if (holds) {
    return;
  }
  obs::Count("advisor/invariant_breach");
  obs::Count(name);
}

}  // namespace

std::string ToString(AdvisorRung rung) {
  // Exhaustive by design: no default, so -Werror (-Wswitch) flags a future
  // fourth rung at every call site that must learn about it.
  switch (rung) {
    case AdvisorRung::kHybrid:
      return "hybrid";
    case AdvisorRung::kSimulator:
      return "simulator";
    case AdvisorRung::kStatic:
      return "static";
    case AdvisorRung::kShedding:
      return "shedding";
  }
  std::abort();  // unreachable: the switch above covers every rung
}

OnlineAdvisor::OnlineAdvisor(const PerformanceModel& model,
                             const WorkloadProfile& profile,
                             AdvisorConfig config)
    : model_(model),
      profile_(profile),
      config_(config),
      fallback_model_(config.fallback_sim),
      rate_estimator_(config.rate_window_seconds, TimestampPolicy::kClamp),
      service_estimator_(config.service_window_count),
      drift_(config.drift_delta, config.drift_threshold) {}

void OnlineAdvisor::OnArrival(double now) { rate_estimator_.OnArrival(now); }

void OnlineAdvisor::OnCompletion(double now, double processing_seconds) {
  (void)now;
  service_estimator_.OnCompletion(processing_seconds);
}

void OnlineAdvisor::OnObservedResponseTime(double now,
                                           double response_seconds) {
  (void)now;
  if (!current_.has_value() || !std::isfinite(response_seconds) ||
      response_seconds < 0.0) {
    return;
  }
  const double predicted = std::max(1e-9, current_->predicted_response_time);
  const double error = std::abs(response_seconds - predicted) / predicted;
  obs::Observe("online/watchdog_error", error);
  health_errors_.push_back(error);
  health_error_sum_ += error;
  while (health_errors_.size() > config_.health_window_count) {
    health_error_sum_ -= health_errors_.front();
    health_errors_.pop_front();
  }
}

void OnlineAdvisor::OnShed(double now, size_t count) {
  if (!config_.enable_shed_rung || count == 0 || !std::isfinite(now)) {
    return;  // overlay is opt-in; corrupt reports must not open windows
  }
  overload_until_ =
      std::max(overload_until_, now + config_.overload_shed_window_seconds);
  obs::Count("online/sheds_reported", count);
  obs::Emit(now, obs::EventKind::kQueryShed, obs::Subsystem::kOnline,
            obs::Severity::kWarn, count,
            config_.overload_shed_window_seconds);
}

void OnlineAdvisor::OnBreakerTrip(double now, double cooldown_seconds) {
  if (!std::isfinite(now) || !std::isfinite(cooldown_seconds) ||
      cooldown_seconds < 0.0) {
    return;  // corrupt trip telemetry must not poison the lockout window
  }
  breaker_lockout_until_ =
      std::max(breaker_lockout_until_, now + cooldown_seconds);
  obs::Count("online/breaker_lockouts");
  obs::Emit(now, obs::EventKind::kBreakerTrip, obs::Subsystem::kOnline,
            obs::Severity::kWarn, 0, cooldown_seconds);
}

double OnlineAdvisor::EstimatedArrivalRate(double now) const {
  return rate_estimator_.RatePerSecond(now);
}

double OnlineAdvisor::EstimatedUtilization(double now) const {
  // Prefer the live service-time estimate; fall back to the profiled rate
  // until completions accumulate.
  const double service_rate = service_estimator_.count() >= 10
                                  ? service_estimator_.RatePerSecond()
                                  : profile_.service_rate_per_second;
  if (service_rate <= 0.0) {
    return 0.0;
  }
  return EstimatedArrivalRate(now) / service_rate;
}

double OnlineAdvisor::ModelHealthError() const {
  return health_errors_.empty()
             ? 0.0
             : health_error_sum_ /
                   static_cast<double>(health_errors_.size());
}

bool OnlineAdvisor::ShouldReplan(double utilization) {
  // Either the drift detector fires on the utilization stream, or we moved
  // beyond the slack band around the last planning point.
  const bool drifted = drift_.Observe(utilization);
  if (!current_.has_value()) {
    return true;
  }
  return drifted || std::abs(utilization - current_->at_utilization) >
                        config_.utilization_slack;
}

void OnlineAdvisor::UpdateRung(double now) {
  if (health_errors_.size() < config_.health_min_observations) {
    return;
  }
  const double error = ModelHealthError();
  const AdvisorRung bottom = config_.enable_shed_rung
                                 ? AdvisorRung::kShedding
                                 : AdvisorRung::kStatic;
  AdvisorRung next = rung_;
  if (error > config_.degrade_error_threshold && rung_ != bottom) {
    next = Demoted(rung_, config_.enable_shed_rung);
  } else if (error < config_.recover_error_threshold &&
             rung_ != AdvisorRung::kHybrid) {
    // Probational promotion: the richer model gets another chance; if it
    // still misbehaves the watchdog demotes again once the health window
    // refills.
    next = Promoted(rung_);
  }
  if (next == rung_) {
    return;
  }
  // The window is cleared on every transition, so a further move needs
  // health_min_observations fresh samples — the guard above enforces it;
  // the self-check keeps a future edit from silently weakening it.
  CheckLadderInvariant(
      health_errors_.size() >= config_.health_min_observations,
      "advisor/invariant_breach/transition_without_fresh_samples");
  const bool demotion = next > rung_;
  rung_ = next;
  ++rung_transition_count_;
  obs::Count("online/rung_transitions");
  obs::Emit(now, obs::EventKind::kRungTransition, obs::Subsystem::kOnline,
            demotion ? obs::Severity::kWarn : obs::Severity::kInfo,
            static_cast<uint64_t>(next), error);
  health_errors_.clear();
  health_error_sum_ = 0.0;
  pending_replan_ = true;
}

const PerformanceModel& OnlineAdvisor::ActiveModel() const {
  return rung_ == AdvisorRung::kHybrid
             ? model_
             : static_cast<const PerformanceModel&>(fallback_model_);
}

void OnlineAdvisor::Replan(double now, double utilization) {
  // Recommend() must not re-plan before the backoff deadline lapses (a
  // poll at exactly the deadline is the earliest legal retry).
  CheckLadderInvariant(now >= backoff_until_,
                       "advisor/invariant_breach/replan_during_backoff");
  ModelInput input = config_.base;
  // Clamp into the trained domain; the model cannot extrapolate past a
  // saturated queue (Section 5).
  input.utilization = std::clamp(utilization, 0.05, 0.95);

  Recommendation recommendation;
  recommendation.rung = rung_;
  recommendation.at_utilization = input.utilization;

  if (rung_ >= AdvisorRung::kStatic) {
    // Conservative floor (kStatic and kShedding): sprinting disabled
    // outright, so the policy can never overdraw the sprint budget no
    // matter how wrong the models are. On kShedding the serve-time
    // overlay additionally turns admission control on.
    recommendation.timeout_seconds = config_.static_timeout_seconds;
    input.timeout_seconds = config_.static_timeout_seconds;
    try {
      recommendation.predicted_response_time =
          fallback_model_.PredictResponseTime(profile_, input);
    } catch (const std::exception&) {
      recommendation.predicted_response_time = 0.0;
    }
    ++replan_count_;
    recommendation.revision = replan_count_;
    pending_replan_ = false;
    current_ = recommendation;
    obs::Count("online/replans");
    obs::Emit(now, obs::EventKind::kReplan, obs::Subsystem::kOnline,
              obs::Severity::kInfo, recommendation.revision,
              recommendation.timeout_seconds);
    return;
  }

  // kHybrid / kSimulator: anneal with the active model, retrying a model
  // that throws before demoting a rung.
  for (size_t attempt = 0; attempt < config_.replan_max_attempts; ++attempt) {
    try {
      const ExploreResult explored =
          ExploreTimeout(ActiveModel(), profile_, input, config_.explore,
                         config_.pool);
      ++replan_count_;
      pending_replan_ = false;
      // Hysteresis: absorb a plan that barely moved instead of flapping
      // the published recommendation.
      if (current_.has_value() && current_->rung == rung_) {
        const double delta =
            std::abs(explored.best_timeout_seconds -
                     current_->timeout_seconds);
        if (delta <= config_.timeout_hysteresis_fraction *
                         std::max(current_->timeout_seconds, 1.0)) {
          current_->at_utilization = input.utilization;
          obs::Count("online/replans_absorbed");
          return;
        }
      }
      recommendation.timeout_seconds = explored.best_timeout_seconds;
      recommendation.predicted_response_time = explored.best_response_time;
      recommendation.revision = replan_count_;
      current_ = recommendation;
      obs::Count("online/replans");
      obs::Emit(now, obs::EventKind::kReplan, obs::Subsystem::kOnline,
                obs::Severity::kInfo, recommendation.revision,
                recommendation.timeout_seconds);
      return;
    } catch (const std::exception&) {
      ++replan_failure_count_;
      obs::Count("online/replan_failures");
    }
  }
  // Every attempt failed: demote one rung, back off, and keep the standing
  // recommendation until the next Recommend() after the backoff.
  rung_ = Demoted(rung_, config_.enable_shed_rung);
  ++rung_transition_count_;
  obs::Count("online/rung_transitions");
  obs::Emit(now, obs::EventKind::kReplanFailure, obs::Subsystem::kOnline,
            obs::Severity::kError, static_cast<uint64_t>(rung_),
            config_.replan_backoff_seconds);
  health_errors_.clear();
  health_error_sum_ = 0.0;
  pending_replan_ = true;
  backoff_until_ = now + config_.replan_backoff_seconds;
}

std::optional<Recommendation> OnlineAdvisor::Serve(double now) const {
  if (!current_.has_value()) {
    return std::nullopt;
  }
  Recommendation served = *current_;
  if (now < breaker_lockout_until_ &&
      served.timeout_seconds < config_.static_timeout_seconds) {
    // Breaker lockout overlay: keep the standing plan but disable
    // sprinting until the lockout lapses. The override is computed at
    // serve time and never stored, so the plan resumes by itself.
    served.timeout_seconds = config_.static_timeout_seconds;
    served.sprint_locked_out = true;
    obs::Count("online/lockout_overrides");
  }
  if (served.rung == AdvisorRung::kShedding ||
      (config_.enable_shed_rung && now < overload_until_)) {
    // Shed overlay: on the kShedding rung the plan itself is the
    // sprint-disabled static policy (shed INSTEAD of sprint); inside an
    // overload window the standing plan is kept, so the serving layer may
    // shed AND sprint at once. Computed at serve time, never stored.
    served.shed_enabled = true;
    obs::Count("online/shed_serves");
  }
  CheckLadderInvariant(
      !(now < breaker_lockout_until_ &&
        served.timeout_seconds < config_.static_timeout_seconds),
      "advisor/invariant_breach/sprint_while_locked_out");
  // The shed rung may never sprint: its plan is always the static policy.
  CheckLadderInvariant(
      !(served.rung == AdvisorRung::kShedding &&
        served.timeout_seconds < config_.static_timeout_seconds),
      "advisor/invariant_breach/sprint_on_shed_rung");
  // Timeout 0 is legal (the explorer's range starts at 0: sprint
  // immediately); negative or non-finite policies are breaches.
  CheckLadderInvariant(
      std::isfinite(served.timeout_seconds) && served.timeout_seconds >= 0.0 &&
          std::isfinite(served.predicted_response_time) &&
          served.predicted_response_time >= 0.0,
      "advisor/invariant_breach/non_finite_policy");
  return served;
}

std::optional<Recommendation> OnlineAdvisor::Recommend(double now) {
  const double utilization = EstimatedUtilization(now);
  if (rate_estimator_.EventsInWindow(now) < config_.min_signal_events) {
    return Serve(now);  // not enough signal yet
  }
  UpdateRung(now);
  // Always feed the drift detector, even when a ladder move already forced
  // a re-plan, so the utilization stream stays continuous.
  const bool drift_replan = ShouldReplan(utilization);
  if (!pending_replan_ && !drift_replan) {
    return Serve(now);
  }
  // Boundary pinned by tests: a poll at exactly the deadline retries
  // (now == backoff_until_ re-plans); only a strictly earlier poll waits.
  if (now < backoff_until_) {
    pending_replan_ = true;  // retry once the backoff lapses
    return Serve(now);
  }
  Replan(now, utilization);
  return Serve(now);
}

// --------------------------------------------------------------- snapshot

void OnlineAdvisor::SaveState(persist::Writer& w) const {
  rate_estimator_.Serialize(w);
  service_estimator_.Serialize(w);
  drift_.Serialize(w);

  w.PutBool(current_.has_value());
  if (current_.has_value()) {
    w.PutF64(current_->timeout_seconds);
    w.PutF64(current_->predicted_response_time);
    w.PutF64(current_->at_utilization);
    w.PutU64(current_->revision);
    w.PutU8(static_cast<uint8_t>(current_->rung));
  }
  w.PutU64(replan_count_);

  w.PutU8(static_cast<uint8_t>(rung_));
  w.PutU64(rung_transition_count_);
  w.PutF64(health_error_sum_);
  w.PutU64(health_errors_.size());
  for (const double e : health_errors_) {
    w.PutF64(e);
  }
  w.PutBool(pending_replan_);
  w.PutF64(backoff_until_);
  w.PutU64(replan_failure_count_);
  w.PutF64(breaker_lockout_until_);
  w.PutF64(overload_until_);
}

namespace {

AdvisorRung RungFromByte(uint8_t byte) {
  if (byte > static_cast<uint8_t>(AdvisorRung::kShedding)) {
    throw persist::PersistError(persist::ErrorCode::kFormat,
                                "advisor rung byte out of range");
  }
  return static_cast<AdvisorRung>(byte);
}

}  // namespace

void OnlineAdvisor::RestoreState(persist::Reader& r) {
  using persist::ErrorCode;
  using persist::PersistError;

  // Parse the whole snapshot into temporaries first; nothing below the
  // commit point can throw, so a malformed snapshot cannot leave the
  // advisor half-restored.
  SlidingWindowRateEstimator rate = SlidingWindowRateEstimator::Deserialize(r);
  ServiceTimeEstimator service = ServiceTimeEstimator::Deserialize(r);
  DriftDetector drift = DriftDetector::Deserialize(r);

  std::optional<Recommendation> current;
  if (r.GetBool()) {
    Recommendation rec;
    rec.timeout_seconds = r.GetFiniteF64("recommendation timeout");
    rec.predicted_response_time =
        r.GetFiniteF64("recommendation predicted response time");
    rec.at_utilization = r.GetFiniteF64("recommendation utilization");
    rec.revision = static_cast<size_t>(r.GetU64());
    rec.rung = RungFromByte(r.GetU8());
    current = rec;
  }
  const uint64_t replan_count = r.GetU64();

  const AdvisorRung rung = RungFromByte(r.GetU8());
  const uint64_t rung_transitions = r.GetU64();
  const double health_error_sum = r.GetFiniteF64("watchdog error sum");
  const uint64_t health_count = r.GetCount(sizeof(double), "watchdog error");
  if (health_count > config_.health_window_count) {
    throw PersistError(ErrorCode::kFormat,
                       "watchdog window larger than configured");
  }
  std::deque<double> health_errors;
  for (uint64_t i = 0; i < health_count; ++i) {
    const double e = r.GetFiniteF64("watchdog error");
    if (e < 0.0) {
      throw PersistError(ErrorCode::kFormat,
                         "watchdog error must be non-negative");
    }
    health_errors.push_back(e);
  }
  const bool pending_replan = r.GetBool();
  const double backoff_until = r.GetFiniteF64("replan backoff deadline");
  const uint64_t replan_failures = r.GetU64();
  const double breaker_lockout_until =
      r.GetFiniteF64("breaker lockout deadline");
  const double overload_until = r.GetFiniteF64("overload window deadline");
  // The snapshot is always the whole payload; trailing bytes mean a
  // writer/reader mismatch. Checked before the commit point so even that
  // leaves the advisor untouched.
  r.ExpectEnd();

  // Commit.
  rate_estimator_ = std::move(rate);
  service_estimator_ = std::move(service);
  drift_ = std::move(drift);
  current_ = current;
  replan_count_ = static_cast<size_t>(replan_count);
  rung_ = rung;
  rung_transition_count_ = static_cast<size_t>(rung_transitions);
  health_error_sum_ = health_error_sum;
  health_errors_ = std::move(health_errors);
  pending_replan_ = pending_replan;
  backoff_until_ = backoff_until;
  replan_failure_count_ = static_cast<size_t>(replan_failures);
  breaker_lockout_until_ = breaker_lockout_until;
  overload_until_ = overload_until;
}

}  // namespace msprint
