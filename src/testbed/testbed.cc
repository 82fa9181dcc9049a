#include "src/testbed/testbed.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>

#include "src/core/event_queue.h"
#include "src/core/run_arena.h"
#include "src/obs/obs.h"
#include "src/obs/slo.h"

namespace msprint {

namespace {

constexpr double kBudgetEpsilon = 1e-9;

// Load-dependent dispatch overhead: a busy server pays scheduler and cache
// pressure costs that grow (sub-linearly, capped) with queue depth. This is
// one of the runtime dynamics invisible to the predictive simulator.
// Kept small enough that the highest profiled utilization (95%) remains a
// stable queue: 0.95 * (1 + 0.0015 * 10) < 1.
constexpr double kLoadOverheadPerQueuedQuery = 0.0015;
constexpr size_t kLoadOverheadCap = 10;

double LoadOverheadFactor(size_t queue_length) {
  return 1.0 + kLoadOverheadPerQueuedQuery *
                   static_cast<double>(std::min(queue_length,
                                                kLoadOverheadCap));
}

enum class EventType : uint32_t { kArrival, kDeparture, kTimeout,
                                  kBreakerTrip, kAbandon };

// The timeout instant of a query whose timeout interrupt never fires.
constexpr double kNever = std::numeric_limits<double>::infinity();

// Per-workload run constants, built by the generation loop the first time
// it samples the workload and read again at every dispatch and sprint.
// Everything here is a pure function of (config, workload id) — the spec,
// the mix-inflated mean service time, the lognormal jitter shape (whose
// construction runs log/exp) and the whole-phase speedups below — so
// caching is bit-exact: same inputs, same values, and no RNG draws move.
struct WorkloadConstants {
  const WorkloadSpec* spec = nullptr;
  double mean_service = 0.0;
  std::optional<LognormalDistribution> jitter;
  // Entry p: the speedup of phase p sprinted from its start (see
  // SprintedRemaining).
  std::vector<double> whole_phase_speedup;
};

// The mechanism's speedup over the stretch [begin, end) of one phase.
// Instantaneous speedup is constant within a phase; query the curve at the
// stretch's midpoint.
double MidpointSpeedup(const WorkloadSpec& spec,
                       const SprintMechanism& mechanism, double begin,
                       double end) {
  return mechanism.InstantSpeedup(spec, std::min(0.5 * (begin + end), 0.999));
}

// Testbed::SprintedRemainingSeconds. A phase that starts at or after
// `progress` is sprinted whole, so its midpoint does not depend on the
// query: when `whole_phase_speedup` is given, it supplies those speedups
// and only the phase containing `progress` asks the mechanism. Every term
// keeps its operands and the sum its order.
double SprintedRemaining(const WorkloadSpec& spec,
                         const SprintMechanism& mechanism,
                         const double* whole_phase_speedup, double progress,
                         double sustained_total) {
  progress = std::clamp(progress, 0.0, 1.0);
  double remaining = 0.0;
  double phase_start = 0.0;
  for (size_t p = 0; p < spec.phases.size(); ++p) {
    const double phase_end = phase_start + spec.phases[p].work_fraction;
    if (phase_end > progress) {
      const double begin = std::max(phase_start, progress);
      const double work = phase_end - begin;  // fraction of total work
      const double speedup =
          whole_phase_speedup != nullptr && phase_start >= progress
              ? whole_phase_speedup[p]
              : MidpointSpeedup(spec, mechanism, begin, phase_end);
      remaining += work * sustained_total / speedup;
    }
    phase_start = phase_end;
  }
  return remaining;
}

}  // namespace

std::vector<double> RunTrace::ResponseTimes() const {
  std::vector<double> out;
  out.reserve(queries.size());
  for (const auto& q : queries) {
    out.push_back(q.ResponseTime());
  }
  return out;
}

double RunTrace::MedianResponseTime() const { return Median(ResponseTimes()); }

double RunTrace::PercentileResponseTime(double q) const {
  if (std::isnan(q)) {
    throw std::invalid_argument(
        "PercentileResponseTime: quantile fraction must not be NaN");
  }
  if (queries.empty()) {
    return 0.0;
  }
  return Quantile(ResponseTimes(), std::clamp(q, 0.0, 1.0));
}

double Testbed::SustainedRatePerSecond(const QueryMix& mix,
                                       const SprintPolicy& policy) {
  const auto mechanism = MakePolicyMechanism(policy);
  const auto& catalog = WorkloadCatalog::Get();
  double total_weight = 0.0;
  double weighted_service = 0.0;
  for (const auto& component : mix.components()) {
    const auto& spec = catalog.spec(component.workload);
    weighted_service += component.weight *
                        mix.MemberMeanServiceSeconds(component.workload) *
                        mechanism->SustainedServiceMultiplier(spec);
    total_weight += component.weight;
  }
  return total_weight / weighted_service;
}

double Testbed::SprintedRemainingSeconds(const WorkloadSpec& spec,
                                         const SprintMechanism& mechanism,
                                         double progress,
                                         double sustained_total) {
  return SprintedRemaining(spec, mechanism, nullptr, progress,
                           sustained_total);
}

namespace {

// One run. `allow_one_slot` is false only when the one-slot recursion
// hands a run over to the event loop.
RunTrace RunOnce(const TestbedConfig& config, bool allow_one_slot) {
  if (config.num_queries == 0 || config.slots < 1 ||
      config.utilization <= 0.0) {
    throw std::invalid_argument("invalid TestbedConfig");
  }

  const auto mechanism = MakePolicyMechanism(config.policy);
  const auto& catalog = WorkloadCatalog::Get();

  // Whatif perturbation hooks. toggle_latency is charged at every engage
  // and abort site below; the scale's 1.0 default is a bitwise identity.
  const double toggle_latency =
      mechanism->ToggleLatencySeconds() * config.toggle_latency_scale;
  // Sprinted remaining time with the sprint_boost hook applied: the time a
  // sprint saves (sustained remaining minus the mechanism's sprinted
  // remaining) is scaled by the boost. Gated on != 1.0 because
  // `a - (a - b)` is not bitwise `b` in floating point.
  auto sprinted_remaining = [&](const WorkloadConstants& workload,
                                double progress, double sustained_total) {
    double remaining = SprintedRemaining(
        *workload.spec, *mechanism, workload.whole_phase_speedup.data(),
        progress, sustained_total);
    if (config.sprint_boost != 1.0) {
      const double sustained_remaining =
          (1.0 - std::clamp(progress, 0.0, 1.0)) * sustained_total;
      remaining = std::max(
          0.0, sustained_remaining -
                   (sustained_remaining - remaining) * config.sprint_boost);
    }
    return remaining;
  };

  Rng rng(config.seed);
  // The generation loop consumes the whole stream up front; batched
  // refills amortize the generator state updates without changing draws.
  rng.EnableBatchedDraws();

  // Generate the query stream: workload draws, arrivals, service times.
  const double arrival_rate =
      config.utilization *
      Testbed::SustainedRatePerSecond(config.mix, config.policy);
  const auto interarrival =
      MakeDistribution(config.arrival_kind, 1.0 / arrival_rate);

  const size_t n = config.num_queries;

  // Fault schedule. The window horizon is a function of the config alone
  // (not of the sampled arrivals), so the schedule is reproducible; trips
  // past the horizon simply never exist.
  const double fault_horizon =
      2.0 * static_cast<double>(n) / arrival_rate + 1000.0;
  const FaultPlan fault_plan =
      FaultPlan::Generate(config.faults, config.seed, fault_horizon);
  FaultInjector injector(&fault_plan);
  // FaultPlanConfig::Enabled() runs nine tests; a run asks once. With no
  // plan the injector never breaks, fails a toggle or inflates a service.
  const bool faults_enabled = fault_plan.enabled();
  for (const TimeWindow& window : fault_plan.flash_crowd_windows()) {
    obs::Emit(window.begin, obs::EventKind::kFlashCrowd,
              obs::Subsystem::kFault, obs::Severity::kInfo, 0,
              config.faults.flash_crowd_intensity,
              window.end - window.begin);
  }

  // Retries append extra attempt records past the n originals. Capacity
  // is reserved up front so the per-query arrays never move: every
  // logical request spawns at most max_attempts attempt records.
  const size_t capacity =
      config.retry.enabled ? n * config.retry.max_attempts : n;

  // The attempt records and the arena block below outlive the run: the
  // next run on this thread reuses them, so back-to-back runs stay on
  // pages already faulted in (DESIGN.md §12). Both are reset before use.
  thread_local std::vector<Query> queries;
  queries.assign(n, Query());
  queries.reserve(capacity);
  // Built lazily per sampled workload; indexed by WorkloadId value.
  std::array<WorkloadConstants, 16> workloads;
  {
    // Outside crowd windows the intensity is 1, and x / 1.0 is x.
    const bool crowds = !fault_plan.flash_crowd_windows().empty();
    double t = 0.0;
    for (size_t i = 0; i < n; ++i) {
      Query& q = queries[i];
      q.id = i;
      q.request_id = i;
      q.workload = config.mix.SampleWorkload(rng);
      // Flash crowds compress interarrival gaps by the crowd intensity.
      const double gap = interarrival->Sample(rng);
      t += crowds ? gap / fault_plan.ArrivalIntensityAt(t) : gap;
      q.arrival = t;
      WorkloadConstants& cached = workloads[static_cast<size_t>(q.workload)];
      if (cached.spec == nullptr) {
        cached.spec = &catalog.spec(q.workload);
        cached.mean_service =
            config.mix.MemberMeanServiceSeconds(q.workload) *
            mechanism->SustainedServiceMultiplier(*cached.spec);
        cached.jitter.emplace(cached.mean_service,
                              std::max(0.05, cached.spec->service_cov));
        double phase_start = 0.0;
        for (const PhaseSpec& phase : cached.spec->phases) {
          const double phase_end = phase_start + phase.work_fraction;
          cached.whole_phase_speedup.push_back(MidpointSpeedup(
              *cached.spec, *mechanism, phase_start, phase_end));
          phase_start = phase_end;
        }
      }
      q.service_time =
          std::max(1e-6, cached.jitter->Sample(rng)) *
          config.service_time_scale;
      q.size = q.service_time / cached.mean_service;
    }
  }

  // Cached metric handles: the per-query paths below are the hottest code
  // in the repo, so pay the registry lookup once per run, not per query.
  // The event loop is serial and `now` is simulated time, so emitting
  // flight-recorder events here preserves the determinism contract.
  obs::MetricsRegistry* metrics = obs::ActiveMetrics();
  obs::Histogram* h_queue_depth =
      metrics ? &metrics->GetHistogram("testbed/queue_depth_at_dispatch")
              : nullptr;
  // Streaming SLO pipeline, fed at the same serial points as the flight
  // recorder. One cached pointer: the idle cost is a null check per site.
  obs::SloPipeline* slo = obs::ActiveSlo();

  const double timeout = config.disable_sprinting
                             ? std::numeric_limits<double>::infinity()
                             : config.policy.timeout_seconds;
  SprintBudget budget(config.policy.BudgetCapacitySeconds(),
                      config.policy.refill_seconds);

  // Overload-robustness layer: the admission controller decides per
  // arrival, the retry model re-arrives shed/abandoned attempts. Both are
  // serial deterministic state machines (DESIGN.md §14).
  robust::AdmissionController admission(config.admission, config.slots);
  robust::RetryModel retry(config.retry,
                           DeriveSeed(config.seed, 0x4E712Au));

  // Same-timestamp events pop in push order — the EventQueue (time, seq)
  // contract; arrival-before-breaker and departure-before-timeout races
  // at equal timestamps resolve by insertion order.
  EventQueue events(/*width_hint=*/1.0 / arrival_rate);
  // Every ancillary per-query array comes out of one arena reservation;
  // the FIFO is a monotone index ring (each attempt enqueues at most
  // once), so the event loop below does zero heap traffic.
  thread_local RunArena arena;
  arena.Reserve(RunArena::BytesFor<uint64_t>(capacity) +
                RunArena::BytesFor<double>(capacity) * 5 +
                RunArena::BytesFor<uint8_t>(capacity) * 2 +
                RunArena::BytesFor<size_t>(capacity));
  uint64_t* stamps = arena.Allocate<uint64_t>(capacity);
  // Effective sustained duration including load overhead, set at dispatch.
  double* effective_service = arena.Allocate<double>(capacity);
  // Span attribution bookkeeping: the multiplicative pieces of the
  // effective service time and the toggle latency each query paid, kept
  // per query so the post-run span sweep can decompose response times
  // exactly (see src/obs/span.h).
  double* span_load_factor = arena.Allocate<double>(capacity, 1.0);
  double* span_fault_multiplier = arena.Allocate<double>(capacity, 1.0);
  double* span_toggle_seconds = arena.Allocate<double>(capacity);
  // Sprint-abort bookkeeping: which queries are currently executing, which
  // had their sprint aborted by a breaker trip, and how much sustained-rate
  // work remained when the sprint engaged.
  uint8_t* executing = arena.Allocate<uint8_t>(capacity);
  uint8_t* sprint_aborted = arena.Allocate<uint8_t>(capacity);
  double* sustained_remaining_at_sprint = arena.Allocate<double>(capacity);
  size_t* fifo = arena.AllocateUninit<size_t>(capacity);
  size_t fifo_head = 0;
  size_t fifo_tail = 0;
  // Queries waiting for a slot. Equal to fifo_tail - fifo_head (shed
  // attempts never enqueue; abandoned attempts stay queued because the
  // server cannot tell the client left).
  size_t queued_count = 0;
  int free_slots = config.slots;
  size_t next_arrival = 0;
  // Attempts whose fate is settled: departed, or shed. Abandoned attempts
  // resolve at departure — the server still does the (wasted) work. The
  // run ends when every spawned attempt resolved.
  size_t resolved = 0;
  uint64_t stamp_counter = 0;

  // The one-slot recursion below serves runs with one slot that shed,
  // retry and fault nothing, and that no sink observes while they run:
  // a recursion that hands a run back to the event loop must not have
  // recorded anything yet. Spans are built after the run, so a span sink
  // may be attached.
  const bool one_slot =
      allow_one_slot && config.slots == 1 && !config.admission.Enabled() &&
      !config.retry.enabled && !faults_enabled && metrics == nullptr &&
      slo == nullptr && obs::ActiveRecorder() == nullptr;

  auto schedule_departure = [&](size_t qi, double when) {
    stamps[qi] = ++stamp_counter;
    queries[qi].depart = when;
    if (!one_slot) {
      events.Push(when, static_cast<uint32_t>(EventType::kDeparture), qi,
                  stamps[qi]);
    }
  };

  // A sprint may engage only when no breaker lockout covers `now`, budget
  // remains, and the toggle actually succeeds (checked last so the trace
  // records toggle failures only for sprints that would otherwise start).
  auto sprint_allowed = [&](size_t qi, double now) {
    if (faults_enabled && injector.BreakerActive(now)) {
      obs::Count("fault/breaker_lockout_denials");
      return false;
    }
    if (budget.Available(now) <= kBudgetEpsilon) {
      return false;
    }
    if (faults_enabled && injector.SprintToggleFails(qi, now)) {
      obs::Emit(now, obs::EventKind::kToggleFailure, obs::Subsystem::kFault,
                obs::Severity::kWarn, qi);
      return false;
    }
    return true;
  };

  // Starts query `qi` at `now` with `queue_len_at_dispatch` queries still
  // waiting. Returns the instant its timeout interrupt fires, or kNever
  // when none fires before its departure.
  auto dispatch = [&](size_t qi, double now, size_t queue_len_at_dispatch) {
    Query& q = queries[qi];
    const WorkloadConstants& workload =
        workloads[static_cast<size_t>(q.workload)];
    q.start = now;
    executing[qi] = 1;
    if (h_queue_depth != nullptr) {
      h_queue_depth->Record(static_cast<double>(queue_len_at_dispatch));
    }
    if (slo != nullptr) {
      slo->OnQueueDepth(now, static_cast<double>(queue_len_at_dispatch));
    }
    if (config.admission.Enabled()) {
      admission.OnDispatch(now, now - q.arrival);  // CoDel sojourn feed
    }
    // Same association order as `service * load * fault` so the span
    // sweep's counterfactual milestones reproduce this double exactly.
    span_load_factor[qi] = LoadOverheadFactor(queue_len_at_dispatch);
    span_fault_multiplier[qi] =
        faults_enabled ? injector.ServiceMultiplier(qi, now) : 1.0;
    effective_service[qi] =
        q.service_time * span_load_factor[qi] * span_fault_multiplier[qi];

    if (config.force_full_sprint) {
      // Marginal-rate profiling: the mechanism is engaged before dispatch,
      // so the full execution runs sprinted and no toggle cost is paid.
      q.timed_out = true;
      q.sprinted = true;
      q.sprint_begin = now;
      schedule_departure(
          qi, now + sprinted_remaining(workload, 0.0, effective_service[qi]));
      return kNever;
    }

    const double timeout_at = q.arrival + timeout;
    if (timeout_at <= now) {
      q.timed_out = true;
      if (sprint_allowed(qi, now)) {
        q.sprinted = true;
        q.sprint_begin = now;
        obs::Emit(now, obs::EventKind::kSprintEngage, obs::Subsystem::kTestbed,
                  obs::Severity::kInfo, qi, effective_service[qi]);
        if (slo != nullptr) {
          slo->OnSprintEngage(now);
        }
        sustained_remaining_at_sprint[qi] = effective_service[qi];
        // Sprint engages as the query starts; the toggle happens during
        // dispatch and is cheaper than a mid-flight toggle, but not free.
        span_toggle_seconds[qi] = 0.5 * toggle_latency;
        const double duration =
            0.5 * toggle_latency +
            sprinted_remaining(workload, 0.0, effective_service[qi]);
        schedule_departure(qi, now + duration);
        return kNever;
      }
    }
    schedule_departure(qi, now + effective_service[qi]);
    return timeout_at > now && timeout_at < q.depart ? timeout_at : kNever;
  };

  // The timeout interrupt of in-service query `qi` fires at `now`: the
  // query is timed out and sprints through the rest of its work when
  // allowed, after a full mid-flight toggle.
  auto on_timeout = [&](size_t qi, double now) {
    Query& q = queries[qi];
    q.timed_out = true;
    obs::Emit(now, obs::EventKind::kQueryTimeout, obs::Subsystem::kTestbed,
              obs::Severity::kDebug, qi, timeout);
    if (slo != nullptr) {
      slo->OnTimeout(now);
    }
    if (!sprint_allowed(qi, now)) {
      return;
    }
    q.sprinted = true;
    q.sprint_begin = now;
    obs::Emit(now, obs::EventKind::kSprintEngage, obs::Subsystem::kTestbed,
              obs::Severity::kInfo, qi, effective_service[qi]);
    if (slo != nullptr) {
      slo->OnSprintEngage(now);
    }
    const double progress = (now - q.start) / effective_service[qi];
    sustained_remaining_at_sprint[qi] =
        (1.0 - std::clamp(progress, 0.0, 1.0)) * effective_service[qi];
    span_toggle_seconds[qi] = toggle_latency;
    const double duration =
        toggle_latency +
        sprinted_remaining(workloads[static_cast<size_t>(q.workload)],
                           progress, effective_service[qi]);
    schedule_departure(qi, now + duration);
  };

  auto complete = [&](size_t qi, double now) {
    Query& q = queries[qi];
    // Aborted sprints were already debited when the breaker tripped.
    if (q.sprinted && !sprint_aborted[qi]) {
      q.sprint_seconds = now - q.sprint_begin;
      if (!config.force_full_sprint) {
        budget.ConsumeAllowingDebt(now, q.sprint_seconds);
      }
    }
    executing[qi] = 0;
    ++free_slots;
    if (config.admission.Enabled()) {
      admission.OnServiceSample(now - q.start);
    }
    if (retry.enabled() && q.Served()) {
      retry.OnSuccess(q.request_id);
    }
  };

  // Recent shed pressure, feeding the retry model's adaptive throttle.
  auto shed_fraction = [&]() {
    const size_t decided = admission.admitted_count() + admission.shed_count();
    return decided == 0 ? 0.0
                        : static_cast<double>(admission.shed_count()) /
                              static_cast<double>(decided);
  };

  // Consults the retry model after attempt `qi` failed (shed or
  // abandoned); spawns the next attempt record and schedules its
  // re-arrival. Returns true when a retry was scheduled.
  auto spawn_retry = [&](size_t qi, double now) {
    const Query& failed = queries[qi];
    const double delay = retry.NextRetryDelay(
        failed.request_id, failed.attempt, shed_fraction());
    if (delay < 0.0) {
      return false;
    }
    const size_t ri = queries.size();
    Query next;
    next.id = ri;
    next.request_id = failed.request_id;
    next.workload = failed.workload;
    next.size = failed.size;
    next.service_time = failed.service_time;  // the client retries the work
    next.attempt = failed.attempt + 1;
    next.first_arrival =
        failed.first_arrival >= 0.0 ? failed.first_arrival : failed.arrival;
    next.arrival = now + delay;
    queries.push_back(next);  // never reallocates: capacity reserved
    events.Push(next.arrival, static_cast<uint32_t>(EventType::kArrival),
                ri, 0);
    obs::Emit(now, obs::EventKind::kQueryRetry, obs::Subsystem::kTestbed,
              obs::Severity::kInfo, ri, delay);
    return true;
  };

  // A breaker trip aborts every in-flight sprint: the mechanism powers
  // down immediately (full mid-flight toggle latency) and the remaining
  // work finishes at the sustained rate. Remaining work is prorated by the
  // fraction of the sprinted stretch already elapsed.
  auto abort_inflight_sprints = [&](double now) {
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      Query& q = queries[qi];
      if (!executing[qi] || !q.sprinted || sprint_aborted[qi] ||
          q.depart <= now) {
        continue;
      }
      const double elapsed = now - q.sprint_begin;
      const double sprint_total = q.depart - q.sprint_begin;
      const double done_fraction =
          sprint_total > 0.0 ? std::clamp(elapsed / sprint_total, 0.0, 1.0)
                             : 1.0;
      const double remaining_sustained =
          (1.0 - done_fraction) * sustained_remaining_at_sprint[qi];
      sprint_aborted[qi] = 1;
      q.sprint_seconds = elapsed;
      span_toggle_seconds[qi] += toggle_latency;
      budget.ConsumeAllowingDebt(now, elapsed);
      schedule_departure(qi, now + toggle_latency + remaining_sustained);
      injector.RecordSprintAbort(qi, now);
      obs::Emit(now, obs::EventKind::kSprintAbort, obs::Subsystem::kTestbed,
                obs::Severity::kWarn, qi, elapsed);
      if (slo != nullptr) {
        slo->OnSprintAbort(now);
      }
    }
  };

  if (one_slot) {
    // FIFO order is index order, so query i dispatches at
    // max(arrival_i, depart_{i-1}) and the run is a recursion over the
    // generated queries that calls the event loop's own handlers in the
    // order the loop calls them (DESIGN.md §12). The queue length at
    // dispatch is the number of later arrivals strictly before the
    // dispatch instant, counted by a pointer that only moves forward.
    double depart = -std::numeric_limits<double>::infinity();
    size_t later = 0;
    for (size_t i = 0; i < n; ++i) {
      // `+ 0.0` maps a -0.0 arrival to the +0.0 the event queue stores.
      const double now = std::max(queries[i].arrival + 0.0, depart);
      later = std::max(later, i + 1);
      while (later < n && queries[later].arrival < now) {
        ++later;
      }
      if (later < n && queries[later].arrival == now) {
        // Whether an arrival at the dispatch instant is already queued
        // depends on the event queue's push order. Nothing has been
        // recorded yet, so the event loop replays the run.
        return RunOnce(config, /*allow_one_slot=*/false);
      }
      const double timeout_at = dispatch(i, now, later - i - 1);
      if (timeout_at != kNever) {
        on_timeout(i, timeout_at);
      }
      depart = queries[i].depart;
      complete(i, depart);
    }
  } else {
    events.Push(queries[0].arrival,
                static_cast<uint32_t>(EventType::kArrival), 0, 0);
    if (!config.force_full_sprint && !config.disable_sprinting) {
      for (const TimeWindow& window : fault_plan.breaker_windows()) {
        events.Push(window.begin,
                    static_cast<uint32_t>(EventType::kBreakerTrip), 0, 0);
      }
    }
  }

  // The recursion pushes no event: only the event loop runs here.
  while (!events.empty()) {
    const EventRecord ev = events.PopMin();
    const double now = ev.time();
    const size_t evq = static_cast<size_t>(ev.query);

    switch (static_cast<EventType>(ev.type())) {
      case EventType::kArrival: {
        // Only original arrivals advance the pre-generated chain; retry
        // re-arrivals (evq >= n) were scheduled explicitly.
        if (evq < n && ++next_arrival < n) {
          events.Push(queries[next_arrival].arrival,
                      static_cast<uint32_t>(EventType::kArrival),
                      next_arrival, 0);
        }
        if (config.admission.Enabled() &&
            !admission.Admit(now, queued_count, timeout)) {
          // Shed at the door: the attempt resolves immediately; the
          // client may schedule a retry attempt.
          queries[evq].shed = true;
          ++resolved;
          obs::Emit(now, obs::EventKind::kQueryShed,
                    obs::Subsystem::kTestbed, obs::Severity::kWarn, evq,
                    static_cast<double>(queued_count));
          if (slo != nullptr) {
            slo->OnShed(now);
          }
          if (retry.enabled()) {
            spawn_retry(evq, now);
          }
          break;
        }
        fifo[fifo_tail++] = evq;
        ++queued_count;
        obs::Emit(now, obs::EventKind::kQueueArrival,
                  obs::Subsystem::kTestbed, obs::Severity::kDebug, evq,
                  static_cast<double>(queued_count));
        if (slo != nullptr) {
          slo->OnArrival(now);
        }
        if (retry.enabled() && config.retry.abandon_wait_seconds > 0.0) {
          events.Push(now + config.retry.abandon_wait_seconds,
                      static_cast<uint32_t>(EventType::kAbandon), evq, 0);
        }
        break;
      }
      case EventType::kDeparture: {
        if (stamps[evq] != ev.stamp) {
          break;
        }
        complete(evq, now);
        ++resolved;
        obs::Emit(now, obs::EventKind::kQueueDeparture,
                  obs::Subsystem::kTestbed, obs::Severity::kDebug, evq,
                  queries[evq].ResponseTime());
        if (slo != nullptr) {
          slo->OnResponse(now, queries[evq].ResponseTime(),
                          queries[evq].Served());
          slo->OnBudgetLevel(now, budget.Available(now));
        }
        break;
      }
      case EventType::kAbandon: {
        Query& q = queries[evq];
        if (q.start >= 0.0 || q.shed || q.abandoned) {
          break;  // already dispatched (or already off the queue)
        }
        // The client gives up waiting and may retry; the server cannot
        // tell, so the stale attempt stays queued and its eventual
        // service is pure badput — the metastable amplification loop.
        q.abandoned = true;
        obs::Emit(now, obs::EventKind::kQueryAbandon,
                  obs::Subsystem::kTestbed, obs::Severity::kWarn, evq,
                  now - q.arrival);
        spawn_retry(evq, now);
        break;
      }
      case EventType::kTimeout: {
        const Query& q = queries[evq];
        if (stamps[evq] != ev.stamp || q.sprinted || q.depart <= now) {
          break;
        }
        on_timeout(evq, now);
        break;
      }
      case EventType::kBreakerTrip: {
        injector.RecordBreakerTrip(now,
                                   config.faults.breaker_cooldown_seconds);
        obs::Emit(now, obs::EventKind::kBreakerTrip, obs::Subsystem::kFault,
                  obs::Severity::kWarn, 0,
                  config.faults.breaker_cooldown_seconds);
        abort_inflight_sprints(now);
        break;
      }
    }

    while (free_slots > 0 && fifo_head != fifo_tail) {
      const size_t qi = fifo[fifo_head++];
      --queued_count;
      --free_slots;
      const double timeout_at =
          dispatch(qi, std::max(now, queries[qi].arrival), queued_count);
      if (timeout_at != kNever) {
        events.Push(timeout_at, static_cast<uint32_t>(EventType::kTimeout),
                    qi, stamps[qi]);
      }
    }

    // Once every attempt resolved, only breaker trips (and stale abandon
    // timers) remain in the queue; events after the run's end never fire.
    if (resolved == queries.size()) {
      break;
    }
  }

  // Aggregate post-warmup. The slice covers every attempt spawned at or
  // after the first post-warmup original — including shed and abandoned
  // attempts and every retry (retries always append past index n).
  RunTrace trace;
  const size_t first = std::min(config.warmup_queries, n);
  trace.queries.assign(queries.begin() + static_cast<long>(first),
                       queries.end());
  StreamingStats rt, qd, pt, upt;
  obs::Histogram* h_response =
      metrics ? &metrics->GetHistogram("testbed/response_time_seconds")
              : nullptr;
  obs::Histogram* h_queueing =
      metrics ? &metrics->GetHistogram("testbed/queueing_delay_seconds")
              : nullptr;
  obs::Histogram* h_processing =
      metrics ? &metrics->GetHistogram("testbed/processing_time_seconds")
              : nullptr;
  size_t sprinted = 0;
  size_t timed_out = 0;
  size_t completed = 0;
  // Which post-warmup logical requests had a client-successful attempt.
  std::vector<uint8_t> request_good(n >= first ? n - first : 0, 0);
  for (const auto& q : trace.queries) {
    if (q.shed) {
      ++trace.shed_count;
      if (q.attempt > 1) {
        ++trace.retry_count;
      }
      continue;  // never served: no response-time sample exists
    }
    if (q.attempt > 1) {
      ++trace.retry_count;
    }
    if (q.abandoned) {
      ++trace.abandoned_count;
    } else {
      ++trace.served_count;
      if (q.request_id >= first && q.request_id < n) {
        request_good[q.request_id - first] = 1;
      }
    }
    ++completed;
    rt.Add(q.ResponseTime());
    qd.Add(q.QueueingDelay());
    pt.Add(q.ProcessingTime());
    if (h_response != nullptr) {
      h_response->Record(q.ResponseTime());
      h_queueing->Record(q.QueueingDelay());
      h_processing->Record(q.ProcessingTime());
    }
    if (q.sprinted) {
      ++sprinted;
      trace.total_sprint_seconds += q.sprint_seconds;
    } else {
      upt.Add(q.ProcessingTime());
    }
    if (q.timed_out) {
      ++timed_out;
    }
    trace.makespan = std::max(trace.makespan, q.depart);
  }
  for (const uint8_t good : request_good) {
    if (good) {
      ++trace.goodput_count;
    } else {
      ++trace.badput_count;
    }
  }
  trace.goodput_per_second =
      trace.makespan > 0.0
          ? static_cast<double>(trace.goodput_count) / trace.makespan
          : 0.0;
  if (slo != nullptr) {
    slo->Finish(trace.makespan);
  }
  if (metrics != nullptr) {
    metrics->GetCounter("testbed/runs").Increment();
    metrics->GetCounter("testbed/queries").Add(trace.queries.size());
    metrics->GetCounter("testbed/sprinted").Add(sprinted);
    metrics->GetCounter("testbed/timed_out").Add(timed_out);
    if (config.admission.Enabled() || config.retry.enabled) {
      metrics->GetCounter("robust/shed").Add(trace.shed_count);
      metrics->GetCounter("robust/abandoned").Add(trace.abandoned_count);
      metrics->GetCounter("robust/retries").Add(trace.retry_count);
      metrics->GetCounter("robust/goodput").Add(trace.goodput_count);
      metrics->GetCounter("robust/badput").Add(trace.badput_count);
      metrics->GetCounter("robust/retries_exhausted")
          .Add(retry.retries_exhausted());
      metrics->GetCounter("robust/retries_throttled")
          .Add(retry.retries_throttled());
    }
  }
  const double count = static_cast<double>(completed);
  trace.mean_response_time = rt.mean();
  trace.mean_queueing_delay = qd.mean();
  trace.mean_processing_time = pt.mean();
  trace.mean_unsprinted_processing_time =
      upt.count() > 0 ? upt.mean() : pt.mean();
  trace.fraction_sprinted = count > 0 ? sprinted / count : 0.0;
  trace.fraction_timed_out = count > 0 ? timed_out / count : 0.0;
  trace.fault_trace = injector.TakeTrace();

  // Span sweep: when a collector is attached, decompose every post-warmup
  // query (the same slice as trace.queries, in id order) into exact causal
  // components. Serial code, sim-time stamps, one batch append — the run
  // pays nothing when no collector is attached.
  obs::SpanCollector* span_sink =
      config.span_sink != nullptr ? config.span_sink : obs::ActiveSpans();
  if (span_sink != nullptr) {
    // Per-workload phase fractions, fetched once; SpanInputs keep stable
    // pointers into this cache so the whole sweep can quantize in one
    // batch call.
    std::array<std::array<double, obs::kMaxSpanPhases>, 16> fractions{};
    std::array<size_t, 16> num_phases{};
    std::array<bool, 16> cached{};
    std::vector<obs::SpanInputs> inputs;
    inputs.reserve(queries.size() - first);
    for (size_t qi = first; qi < queries.size(); ++qi) {
      const Query& q = queries[qi];
      if (q.shed) {
        continue;  // never dispatched: there is no latency to attribute
      }
      const size_t w = static_cast<size_t>(q.workload);
      if (!cached[w]) {
        const auto& phases = catalog.spec(q.workload).phases;
        num_phases[w] = std::min(phases.size(), obs::kMaxSpanPhases);
        for (size_t p = 0; p < num_phases[w]; ++p) {
          fractions[w][p] = phases[p].work_fraction;
        }
        cached[w] = true;
      }
      obs::SpanInputs in;
      in.id = q.id;
      in.klass = static_cast<uint32_t>(q.workload);
      in.arrival = q.arrival;
      in.start = q.start;
      in.depart = q.depart;
      in.service_time = q.service_time;
      in.load_factor = span_load_factor[qi];
      in.fault_multiplier = span_fault_multiplier[qi];
      in.toggle_seconds = span_toggle_seconds[qi];
      in.sprint_begin = q.sprinted ? q.sprint_begin : -1.0;
      in.first_arrival = q.first_arrival;
      in.sprinted = q.sprinted;
      in.timed_out = q.timed_out;
      in.sprint_aborted = sprint_aborted[qi] != 0;
      in.phase_fractions = fractions[w].data();
      in.num_phases = num_phases[w];
      inputs.push_back(in);
    }
    span_sink->RecordBatch(obs::BuildQuerySpanBatch(inputs));
  }
  return trace;
}

}  // namespace

RunTrace Testbed::Run(const TestbedConfig& config) {
  return RunOnce(config, /*allow_one_slot=*/true);
}

}  // namespace msprint
