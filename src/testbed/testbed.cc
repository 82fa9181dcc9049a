#include "src/testbed/testbed.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>

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

// WorkloadId values index per-workload tables.
constexpr size_t kWorkloadIds = 16;

// A workload's mean service time inside the config's mix on the policy's
// platform: the scale of its service-time draws and the unit of a query's
// `size`.
double MeanServiceSeconds(const TestbedConfig& config,
                          const SprintMechanism& mechanism, WorkloadId id) {
  return config.mix.MemberMeanServiceSeconds(id) *
         mechanism.SustainedServiceMultiplier(WorkloadCatalog::Get().spec(id));
}

// Per-workload run constants, built once per workload of the mix and read
// at every dispatch, sprint and span. Everything here is a pure function of
// (config, workload id) — the spec, the mix-inflated mean service time,
// the mechanism's phase speedups and the phase fractions a span splits —
// so holding them is bit-exact: same inputs, same values.
struct WorkloadConstants {
  const WorkloadSpec* spec = nullptr;
  double mean_service = 0.0;
  // Entry p: the speedup while sprinting in phase p
  // (SprintMechanism::PhaseSpeedups).
  std::vector<double> phase_speedup;
  // Stable for the run, so span inputs point into it.
  std::array<double, obs::kMaxSpanPhases> phase_fractions{};
  size_t num_phases = 0;
};

// One attempt: what its draws fix and what running it decides. The
// one-slot recursion holds one in locals per query; the event loop keeps
// one per attempt its run spawned (retries append past index n), with
// `id` its index. The handlers in RunOnce write it; the reports and the
// span sweep read it.
struct Attempt {
  uint64_t id = 0;
  uint64_t request_id = 0;  // the original attempt's id
  WorkloadId workload = WorkloadId::kJacobi;
  uint32_t attempt = 1;
  double arrival = 0.0;
  double first_arrival = -1.0;  // -1: this IS the first attempt
  double size = 1.0;
  double service_time = 0.0;
  double start = -1.0;
  double depart = -1.0;
  double sprint_begin = -1.0;
  double sprint_seconds = 0.0;
  // Effective sustained duration including load overhead, set at dispatch.
  double effective_service = 0.0;
  // Span attribution: the multiplicative pieces of the effective service
  // time and the toggle latency paid, so the span sweep can decompose the
  // response time exactly (see src/obs/span.h).
  double load_factor = 1.0;
  double fault_multiplier = 1.0;
  double toggle_seconds = 0.0;
  // Sustained-rate work left when the sprint engaged, for breaker aborts.
  double sustained_remaining_at_sprint = 0.0;
  uint64_t stamp = 0;  // of the live departure event
  bool timed_out = false;
  bool sprinted = false;
  bool shed = false;
  bool abandoned = false;
  bool sprint_aborted = false;

  bool Served() const { return !shed && !abandoned && depart >= 0.0; }
  double ResponseTime() const { return depart - arrival; }
};

// Testbed::SprintedRemainingSeconds over a phase table. Instantaneous
// speedup is constant within a phase, so each remaining stretch
// [begin, phase_end) runs at the speedup of the phase that holds its
// midpoint, clamped to 0.999 and found by PhaseIndexAt's accumulation.
double SprintedRemaining(const WorkloadSpec& spec,
                         const std::vector<double>& phase_speedup,
                         double progress, double sustained_total) {
  progress = std::clamp(progress, 0.0, 1.0);
  double remaining = 0.0;
  double phase_start = 0.0;
  for (size_t p = 0; p < spec.phases.size(); ++p) {
    const double phase_end = phase_start + spec.phases[p].work_fraction;
    if (phase_end > progress) {
      const double begin = std::max(phase_start, progress);
      const double work = phase_end - begin;  // fraction of total work
      const double midpoint = std::min(0.5 * (begin + phase_end), 0.999);
      remaining += work * sustained_total /
                   phase_speedup[PhaseIndexAt(spec, midpoint)];
    }
    phase_start = phase_end;
  }
  return remaining;
}

// What Testbed::Run reports, fed every post-warmup attempt in index order:
// the trace's records, which it builds, and aggregates and, when `latency`
// points at a registry's run-local histograms, the response, queueing and
// processing times. The slice covers every attempt spawned at or after the
// first post-warmup original, shed and abandoned attempts and every retry
// (retries always append past index n) included.
class TraceReport {
 public:
  TraceReport(size_t n, size_t first, LogHistogram* latency)
      : n_(n), first_(first), latency_(latency), request_good_(n - first) {}

  // Room for the `attempts` records to come, reserved once: the recursion
  // feeds the n - first originals, the event loop every attempt its run
  // spawned.
  void Reserve(size_t attempts) { trace_.queries.reserve(attempts); }

  void Add(const Attempt& a) {
    const Query& q = trace_.queries.emplace_back(
        Query{.id = a.id, .workload = a.workload, .arrival = a.arrival,
              .size = a.size, .service_time = a.service_time,
              .start = a.start, .depart = a.depart, .timed_out = a.timed_out,
              .sprinted = a.sprinted, .sprint_begin = a.sprint_begin,
              .sprint_seconds = a.sprint_seconds, .shed = a.shed,
              .abandoned = a.abandoned, .attempt = a.attempt,
              .request_id = a.request_id, .first_arrival = a.first_arrival});
    if (q.attempt > 1) {
      ++trace_.retry_count;
    }
    if (q.shed) {
      ++trace_.shed_count;
      return;  // never served: no response-time sample exists
    }
    if (q.abandoned) {
      ++trace_.abandoned_count;
    } else {
      ++trace_.served_count;
      if (q.request_id >= first_ && q.request_id < n_) {
        request_good_[q.request_id - first_] = 1;
      }
    }
    rt_.Add(q.ResponseTime());
    qd_.Add(q.QueueingDelay());
    pt_.Add(q.ProcessingTime());
    if (latency_ != nullptr) {
      latency_[0].Record(q.ResponseTime());
      latency_[1].Record(q.QueueingDelay());
      latency_[2].Record(q.ProcessingTime());
    }
    if (q.sprinted) {
      ++sprinted_;
      trace_.total_sprint_seconds += q.sprint_seconds;
    } else {
      upt_.Add(q.ProcessingTime());
    }
    if (q.timed_out) {
      ++timed_out_;
    }
    trace_.makespan = std::max(trace_.makespan, q.depart);
  }

  RunTrace Finish() {
    // Which post-warmup logical requests had a client-successful attempt.
    for (const uint8_t good : request_good_) {
      ++(good ? trace_.goodput_count : trace_.badput_count);
    }
    trace_.goodput_per_second =
        trace_.makespan > 0.0
            ? static_cast<double>(trace_.goodput_count) / trace_.makespan
            : 0.0;
    const double count = static_cast<double>(rt_.count());
    trace_.mean_response_time = rt_.mean();
    trace_.mean_queueing_delay = qd_.mean();
    trace_.mean_processing_time = pt_.mean();
    trace_.mean_unsprinted_processing_time =
        upt_.count() > 0 ? upt_.mean() : pt_.mean();
    trace_.fraction_sprinted = count > 0 ? sprinted_ / count : 0.0;
    trace_.fraction_timed_out = count > 0 ? timed_out_ / count : 0.0;
    return std::move(trace_);
  }

  size_t sprinted() const { return sprinted_; }
  size_t timed_out() const { return timed_out_; }

 private:
  const size_t n_;
  const size_t first_;
  LogHistogram* const latency_;
  RunTrace trace_;
  StreamingStats rt_, qd_, pt_, upt_;
  size_t sprinted_ = 0;
  size_t timed_out_ = 0;
  std::vector<uint8_t> request_good_;
};

// What Testbed::Summarize reports, fed like TraceReport: the response
// times of the attempts that were not shed, their mean by
// StreamingStats::Add's Welford step in the same order (so it keeps the
// trace's bits), the sprinted and timed-out counts and the makespan. Of an
// attempt it reads only those: Summarize runs without a registry, so there
// is no latency to record and no record to build.
class SummaryReport {
 public:
  SummaryReport(size_t /*n*/, size_t /*first*/, LogHistogram* /*latency*/) {}

  void Reserve(size_t attempts) { responses_.reserve(attempts); }

  void Add(const Attempt& q) {
    if (q.shed) {
      return;
    }
    responses_.push_back(q.ResponseTime());
    mean_ += (responses_.back() - mean_) /
             static_cast<double>(responses_.size());
    sprinted_ += q.sprinted;
    timed_out_ += q.timed_out;
    makespan_ = std::max(makespan_, q.depart);
  }

  RunSummary Finish() {
    const double count = static_cast<double>(responses_.size());
    RunSummary summary;
    summary.mean_response_time = mean_;
    summary.fraction_sprinted = count > 0 ? sprinted_ / count : 0.0;
    summary.fraction_timed_out = count > 0 ? timed_out_ / count : 0.0;
    summary.makespan = makespan_;
    if (!responses_.empty()) {
      summary.median_response_time = Median(std::move(responses_));
    }
    return summary;
  }

 private:
  std::vector<double> responses_;
  double mean_ = 0.0;
  size_t sprinted_ = 0;
  size_t timed_out_ = 0;
  double makespan_ = 0.0;
};

}  // namespace

std::vector<double> RunTrace::ResponseTimes() const {
  std::vector<double> out;
  out.reserve(queries.size() - shed_count);
  for (const auto& q : queries) {
    if (!q.shed) {
      out.push_back(q.ResponseTime());
    }
  }
  return out;
}

double RunTrace::PercentileResponseTime(double q) const {
  if (std::isnan(q)) {
    throw std::invalid_argument(
        "PercentileResponseTime: quantile fraction must not be NaN");
  }
  std::vector<double> times = ResponseTimes();
  if (times.empty()) {
    return 0.0;
  }
  return Quantile(std::move(times), std::clamp(q, 0.0, 1.0));
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
  return SprintedRemaining(spec, mechanism.PhaseSpeedups(spec), progress,
                           sustained_total);
}

namespace {

void CheckConfig(const TestbedConfig& config) {
  if (config.num_queries == 0 || config.slots < 1 ||
      config.utilization <= 0.0) {
    throw std::invalid_argument("invalid TestbedConfig");
  }
}

double ArrivalRate(const TestbedConfig& config) {
  return config.utilization *
         Testbed::SustainedRatePerSecond(config.mix, config.policy);
}

// The run's fault schedule. The window horizon is a function of the config
// alone (not of the sampled arrivals), so the schedule is reproducible;
// trips past the horizon simply never exist.
FaultPlan PlanFaults(const TestbedConfig& config, double arrival_rate) {
  return FaultPlan::Generate(
      config.faults, config.seed,
      2.0 * static_cast<double>(config.num_queries) / arrival_rate + 1000.0);
}

// Testbed::Draw into `draws`, whose columns keep their capacity.
void DrawInto(const TestbedConfig& config, SimDraws& draws) {
  CheckConfig(config);
  const auto mechanism = MakePolicyMechanism(config.policy);
  const double arrival_rate = ArrivalRate(config);
  const FaultPlan fault_plan = PlanFaults(config, arrival_rate);
  // Each workload's service-time jitter, whose construction runs log/exp.
  std::array<std::optional<LognormalDistribution>, kWorkloadIds> jitter;
  for (const QueryMix::Component& c : config.mix.components()) {
    jitter[static_cast<size_t>(c.workload)].emplace(
        MeanServiceSeconds(config, *mechanism, c.workload),
        std::max(0.05, WorkloadCatalog::Get().spec(c.workload).service_cov));
  }
  const size_t n = config.num_queries;
  const bool classes = config.mix.components().size() > 1;
  draws.arrival.resize(n);
  draws.service_time.resize(n);
  draws.klass.resize(classes ? n : 0);

  Rng rng(config.seed);
  // Drawing consumes the whole stream up front; batched refills amortize
  // the generator state updates without changing draws.
  rng.EnableBatchedDraws();
  const auto interarrival =
      MakeDistribution(config.arrival_kind, 1.0 / arrival_rate);
  // Outside crowd windows the intensity is 1, and x / 1.0 is x.
  const bool crowds = !fault_plan.flash_crowd_windows().empty();
  double t = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const WorkloadId workload = config.mix.SampleWorkload(rng);
    // Flash crowds compress interarrival gaps by the crowd intensity.
    const double gap = interarrival->Sample(rng);
    t += crowds ? gap / fault_plan.ArrivalIntensityAt(t) : gap;
    draws.arrival[i] = t;
    if (classes) {
      draws.klass[i] = static_cast<uint32_t>(workload);
    }
    draws.service_time[i] =
        std::max(1e-6, jitter[static_cast<size_t>(workload)]->Sample(rng)) *
        config.service_time_scale;
  }
}

// Throws unless `draws` fit `config`: every column num_queries long, and a
// class column exactly when the mix has two or more workloads, holding
// workloads of the mix.
void CheckDraws(const TestbedConfig& config, const SimDraws& draws) {
  CheckConfig(config);
  const size_t n = config.num_queries;
  std::array<bool, kWorkloadIds> in_mix{};
  for (const QueryMix::Component& c : config.mix.components()) {
    in_mix[static_cast<size_t>(c.workload)] = true;
  }
  const bool klass_fits =
      config.mix.components().size() > 1
          ? draws.klass.size() == n &&
                std::all_of(draws.klass.begin(), draws.klass.end(),
                            [&](uint32_t c) {
                              return c < kWorkloadIds && in_mix[c];
                            })
          : draws.klass.empty();
  if (draws.arrival.size() != n || draws.service_time.size() != n ||
      !klass_fits) {
    throw std::invalid_argument("SimDraws do not fit this TestbedConfig");
  }
}

// One run of `draws` recording into `sinks`, reported through a
// TraceReport (Run) or a SummaryReport (Summarize, which attaches no
// registry). `allow_one_slot` is false only when the one-slot recursion
// hands a run over to the event loop.
template <typename Report>
auto RunOnce(const TestbedConfig& config, const SimDraws& draws,
             const obs::Sinks& sinks, bool allow_one_slot)
    -> decltype(std::declval<Report>().Finish()) {
  const auto mechanism = MakePolicyMechanism(config.policy);

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
        *workload.spec, workload.phase_speedup, progress, sustained_total);
    if (config.sprint_boost != 1.0) {
      const double sustained_remaining =
          (1.0 - std::clamp(progress, 0.0, 1.0)) * sustained_total;
      remaining = std::max(
          0.0, sustained_remaining -
                   (sustained_remaining - remaining) * config.sprint_boost);
    }
    return remaining;
  };

  const double arrival_rate = ArrivalRate(config);
  const size_t n = config.num_queries;
  const FaultPlan fault_plan = PlanFaults(config, arrival_rate);
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

  // Indexed by WorkloadId value.
  std::array<WorkloadConstants, kWorkloadIds> workloads;
  for (const QueryMix::Component& c : config.mix.components()) {
    WorkloadConstants& w = workloads[static_cast<size_t>(c.workload)];
    w.spec = &WorkloadCatalog::Get().spec(c.workload);
    w.mean_service = MeanServiceSeconds(config, *mechanism, c.workload);
    w.phase_speedup = mechanism->PhaseSpeedups(*w.spec);
    w.num_phases = std::min(w.spec->phases.size(), obs::kMaxSpanPhases);
    for (size_t p = 0; p < w.num_phases; ++p) {
      w.phase_fractions[p] = w.spec->phases[p].work_fraction;
    }
  }
  const WorkloadId only_workload = config.mix.components().front().workload;
  // Query i as its draws fix it, before it runs.
  auto drawn = [&](size_t i) {
    Attempt q;
    q.id = i;
    q.request_id = i;
    q.workload = draws.klass.empty() ? only_workload
                                     : static_cast<WorkloadId>(draws.klass[i]);
    q.arrival = draws.arrival[i];
    q.service_time = draws.service_time[i];
    q.size = q.service_time /
             workloads[static_cast<size_t>(q.workload)].mean_service;
    return q;
  };

  // Run metrics: the per-query paths below are the hottest code in the
  // repo, so with a registry attached they record into run-local
  // histograms (queue depth at dispatch, then response, queueing and
  // processing times) and counts that reach the registry once, after the
  // run. The event loop is serial and `now` is simulated time, so
  // emitting flight-recorder events here preserves the determinism
  // contract.
  obs::MetricsRegistry* const metrics =
      std::is_same_v<Report, TraceReport> ? obs::ActiveMetrics() : nullptr;
  std::optional<std::array<LogHistogram, 4>> histograms;
  if (metrics != nullptr) {
    histograms.emplace();
  }
  // Fed every post-warmup attempt in index order: by the recursion as each
  // completes, by the event loop after it ends. So are the span inputs,
  // of the attempts that were not shed, when a collector is attached.
  const size_t first = std::min(config.warmup_queries, n);
  Report report(n, first, histograms ? &(*histograms)[1] : nullptr);
  std::vector<obs::SpanInputs> span_inputs;
  auto reserve = [&](size_t attempts) {
    report.Reserve(attempts);
    if (sinks.spans != nullptr) {
      span_inputs.reserve(attempts);
    }
  };
  auto feed = [&](const Attempt& q) {
    report.Add(q);
    if (sinks.spans == nullptr || q.shed) {
      return;  // a shed attempt never ran: no latency to attribute
    }
    const WorkloadConstants& w = workloads[static_cast<size_t>(q.workload)];
    span_inputs.push_back(
        {.id = q.id, .klass = static_cast<uint32_t>(q.workload),
         .arrival = q.arrival, .start = q.start, .depart = q.depart,
         .service_time = q.service_time, .load_factor = q.load_factor,
         .fault_multiplier = q.fault_multiplier,
         .toggle_seconds = q.toggle_seconds,
         .sprint_begin = q.sprinted ? q.sprint_begin : -1.0,
         .first_arrival = q.first_arrival, .sprinted = q.sprinted,
         .timed_out = q.timed_out, .sprint_aborted = q.sprint_aborted,
         .phase_fractions = w.phase_fractions.data(),
         .num_phases = w.num_phases});
  };
  uint64_t lockout_denials = 0;
  // Streaming SLO pipeline, fed at the same serial points as the flight
  // recorder. One cached pointer: the idle cost is a null check per site.
  obs::SloPipeline* const slo = sinks.slo;

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

  // The one-slot recursion below serves runs with one slot that shed,
  // retry and fault nothing, and that no sink observes while they run:
  // a recursion that hands a run back to the event loop must not have
  // recorded anything yet. Spans are built after the run, so a span sink
  // may be attached. With no recorder attached, the handlers skip their
  // flight-recorder events on it.
  const bool one_slot =
      allow_one_slot && config.slots == 1 && !config.admission.Enabled() &&
      !config.retry.enabled && !faults_enabled && metrics == nullptr &&
      slo == nullptr && obs::ActiveRecorder() == nullptr;

  // Same-timestamp events pop in push order — the EventQueue (time, seq)
  // contract; arrival-before-breaker and departure-before-timeout races
  // at equal timestamps resolve by insertion order.
  EventQueue events(/*width_hint=*/1.0 / arrival_rate);
  // The event loop's attempt records, built from the draws, and one arena
  // block with an in-service flag per attempt (the breaker's abort sweep
  // scans it) and the FIFO, a monotone index ring (each attempt enqueues
  // at most once), so the loop below does zero heap traffic. Retries
  // append records past the n originals; capacity is reserved up front so
  // the records never move: every logical request spawns at most
  // max_attempts attempts. Both outlive the run: the next event-loop run
  // on this thread reuses them, so back-to-back runs stay on pages
  // already faulted in (DESIGN.md §12). The recursion touches neither.
  thread_local std::vector<Attempt> attempts;
  thread_local RunArena arena;
  uint8_t* executing = nullptr;
  size_t* fifo = nullptr;
  if (!one_slot) {
    const size_t capacity =
        config.retry.enabled ? n * config.retry.max_attempts : n;
    attempts.clear();
    attempts.reserve(capacity);
    for (size_t i = 0; i < n; ++i) {
      attempts.push_back(drawn(i));
    }
    arena.Reserve(RunArena::BytesFor<uint8_t>(capacity) +
                  RunArena::BytesFor<size_t>(capacity));
    executing = arena.Allocate<uint8_t>(capacity);
    fifo = arena.AllocateUninit<size_t>(capacity);
  }
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

  auto schedule_departure = [&](Attempt& q, double when) {
    q.stamp = ++stamp_counter;
    q.depart = when;
    if (!one_slot) {
      events.Push(when, static_cast<uint32_t>(EventType::kDeparture), q.id,
                  q.stamp);
    }
  };

  // A sprint may engage only when no breaker lockout covers `now`, budget
  // remains, and the toggle actually succeeds (checked last so the trace
  // records toggle failures only for sprints that would otherwise start).
  auto sprint_allowed = [&](const Attempt& q, double now) {
    if (faults_enabled && injector.BreakerActive(now)) {
      ++lockout_denials;
      return false;
    }
    if (budget.Available(now) <= kBudgetEpsilon) {
      return false;
    }
    if (faults_enabled && injector.SprintToggleFails(q.id, now)) {
      obs::Emit(now, obs::EventKind::kToggleFailure, obs::Subsystem::kFault,
                obs::Severity::kWarn, q.id);
      return false;
    }
    return true;
  };

  // Starts attempt `q` at `now` with `queue_len_at_dispatch` queries still
  // waiting. Returns the instant its timeout interrupt fires, or kNever
  // when none fires before its departure. Both engines call it, so the
  // compiler would keep it (and on_timeout) out of line; both are forced
  // inline for the recursion, which every profile grid run takes.
  auto dispatch = [&](Attempt& q, double now,
                      size_t queue_len_at_dispatch)
                      __attribute__((always_inline)) {
    const WorkloadConstants& workload =
        workloads[static_cast<size_t>(q.workload)];
    q.start = now;
    if (histograms) {
      (*histograms)[0].Record(static_cast<double>(queue_len_at_dispatch));
    }
    if (slo != nullptr) {
      slo->OnQueueDepth(now, static_cast<double>(queue_len_at_dispatch));
    }
    if (config.admission.Enabled()) {
      admission.OnDispatch(now, now - q.arrival);  // CoDel sojourn feed
    }
    // Same association order as `service * load * fault` so the span
    // sweep's counterfactual milestones reproduce this double exactly.
    q.load_factor = LoadOverheadFactor(queue_len_at_dispatch);
    q.fault_multiplier =
        faults_enabled ? injector.ServiceMultiplier(q.id, now) : 1.0;
    q.effective_service = q.service_time * q.load_factor * q.fault_multiplier;

    if (config.force_full_sprint) {
      // Marginal-rate profiling: the mechanism is engaged before dispatch,
      // so the full execution runs sprinted and no toggle cost is paid.
      q.timed_out = true;
      q.sprinted = true;
      q.sprint_begin = now;
      schedule_departure(
          q, now + sprinted_remaining(workload, 0.0, q.effective_service));
      return kNever;
    }

    const double timeout_at = q.arrival + timeout;
    if (timeout_at <= now) {
      q.timed_out = true;
      if (sprint_allowed(q, now)) {
        q.sprinted = true;
        q.sprint_begin = now;
        if (!one_slot) {
          obs::Emit(now, obs::EventKind::kSprintEngage,
                    obs::Subsystem::kTestbed, obs::Severity::kInfo, q.id,
                    q.effective_service);
        }
        if (slo != nullptr) {
          slo->OnSprintEngage(now);
        }
        q.sustained_remaining_at_sprint = q.effective_service;
        // Sprint engages as the query starts; the toggle happens during
        // dispatch and is cheaper than a mid-flight toggle, but not free.
        q.toggle_seconds = 0.5 * toggle_latency;
        const double duration =
            0.5 * toggle_latency +
            sprinted_remaining(workload, 0.0, q.effective_service);
        schedule_departure(q, now + duration);
        return kNever;
      }
    }
    schedule_departure(q, now + q.effective_service);
    return timeout_at > now && timeout_at < q.depart ? timeout_at : kNever;
  };

  // The timeout interrupt of in-service attempt `q` fires at `now`: it is
  // timed out and sprints through the rest of its work when allowed, after
  // a full mid-flight toggle.
  auto on_timeout = [&](Attempt& q, double now)
                        __attribute__((always_inline)) {
    q.timed_out = true;
    if (!one_slot) {
      obs::Emit(now, obs::EventKind::kQueryTimeout, obs::Subsystem::kTestbed,
                obs::Severity::kDebug, q.id, timeout);
    }
    if (slo != nullptr) {
      slo->OnTimeout(now);
    }
    if (!sprint_allowed(q, now)) {
      return;
    }
    q.sprinted = true;
    q.sprint_begin = now;
    if (!one_slot) {
      obs::Emit(now, obs::EventKind::kSprintEngage, obs::Subsystem::kTestbed,
                obs::Severity::kInfo, q.id, q.effective_service);
    }
    if (slo != nullptr) {
      slo->OnSprintEngage(now);
    }
    const double progress = (now - q.start) / q.effective_service;
    q.sustained_remaining_at_sprint =
        (1.0 - std::clamp(progress, 0.0, 1.0)) * q.effective_service;
    q.toggle_seconds = toggle_latency;
    const double duration =
        toggle_latency +
        sprinted_remaining(workloads[static_cast<size_t>(q.workload)],
                           progress, q.effective_service);
    schedule_departure(q, now + duration);
  };

  auto complete = [&](Attempt& q, double now) {
    // Aborted sprints were already debited when the breaker tripped.
    if (q.sprinted && !q.sprint_aborted) {
      q.sprint_seconds = now - q.sprint_begin;
      if (!config.force_full_sprint) {
        budget.ConsumeAllowingDebt(now, q.sprint_seconds);
      }
    }
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
    const Attempt& failed = attempts[qi];
    const double delay = retry.NextRetryDelay(
        failed.request_id, failed.attempt, shed_fraction());
    if (delay < 0.0) {
      return false;
    }
    const size_t ri = attempts.size();
    Attempt next;
    next.id = ri;
    next.request_id = failed.request_id;
    next.workload = failed.workload;
    next.size = failed.size;
    next.service_time = failed.service_time;  // the client retries the work
    next.attempt = failed.attempt + 1;
    next.first_arrival =
        failed.first_arrival >= 0.0 ? failed.first_arrival : failed.arrival;
    next.arrival = now + delay;
    attempts.push_back(next);  // never reallocates: capacity reserved
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
    for (size_t qi = 0; qi < attempts.size(); ++qi) {
      Attempt& q = attempts[qi];
      if (!executing[qi] || !q.sprinted || q.sprint_aborted ||
          q.depart <= now) {
        continue;
      }
      const double elapsed = now - q.sprint_begin;
      const double sprint_total = q.depart - q.sprint_begin;
      const double done_fraction =
          sprint_total > 0.0 ? std::clamp(elapsed / sprint_total, 0.0, 1.0)
                             : 1.0;
      const double remaining_sustained =
          (1.0 - done_fraction) * q.sustained_remaining_at_sprint;
      q.sprint_aborted = true;
      q.sprint_seconds = elapsed;
      q.toggle_seconds += toggle_latency;
      budget.ConsumeAllowingDebt(now, elapsed);
      schedule_departure(q, now + toggle_latency + remaining_sustained);
      injector.RecordSprintAbort(q.id, now);
      obs::Emit(now, obs::EventKind::kSprintAbort, obs::Subsystem::kTestbed,
                obs::Severity::kWarn, q.id, elapsed);
      if (slo != nullptr) {
        slo->OnSprintAbort(now);
      }
    }
  };

  if (one_slot) {
    // FIFO order is index order, so query i dispatches at
    // max(arrival_i, depart_{i-1}) and the run is a recursion over the
    // draws that calls the event loop's own handlers, in the order the
    // loop calls them, on one attempt held in locals (DESIGN.md §12). The
    // queue length at dispatch is the number of later arrivals strictly
    // before the dispatch instant, counted by a pointer that only moves
    // forward.
    reserve(n - first);
    const double* arrival = draws.arrival.data();
    double depart = -std::numeric_limits<double>::infinity();
    size_t later = 0;
    for (size_t i = 0; i < n; ++i) {
      Attempt q = drawn(i);
      // `+ 0.0` maps a -0.0 arrival to the +0.0 the event queue stores.
      const double now = std::max(q.arrival + 0.0, depart);
      later = std::max(later, i + 1);
      while (later < n && arrival[later] < now) {
        ++later;
      }
      if (later < n && arrival[later] == now) {
        // Whether an arrival at the dispatch instant is already queued
        // depends on the event queue's push order. Nothing has been
        // recorded yet, so the event loop replays the same draws into a
        // fresh report: this one's partial tallies are dropped.
        return RunOnce<Report>(config, draws, sinks,
                               /*allow_one_slot=*/false);
      }
      const double timeout_at = dispatch(q, now, later - i - 1);
      if (timeout_at != kNever) {
        on_timeout(q, timeout_at);
      }
      depart = q.depart;
      complete(q, depart);
      if (i >= first) {
        feed(q);
      }
    }
  } else {
    events.Push(attempts[0].arrival,
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
          events.Push(attempts[next_arrival].arrival,
                      static_cast<uint32_t>(EventType::kArrival),
                      next_arrival, 0);
        }
        if (config.admission.Enabled() &&
            !admission.Admit(now, queued_count, timeout)) {
          // Shed at the door: the attempt resolves immediately; the
          // client may schedule a retry attempt.
          attempts[evq].shed = true;
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
        Attempt& q = attempts[evq];
        if (q.stamp != ev.stamp) {
          break;
        }
        executing[evq] = 0;
        complete(q, now);
        ++resolved;
        obs::Emit(now, obs::EventKind::kQueueDeparture,
                  obs::Subsystem::kTestbed, obs::Severity::kDebug, evq,
                  q.ResponseTime());
        if (slo != nullptr) {
          slo->OnResponse(now, q.ResponseTime(), q.Served());
          slo->OnBudgetLevel(now, budget.Available(now));
        }
        break;
      }
      case EventType::kAbandon: {
        Attempt& q = attempts[evq];
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
        Attempt& q = attempts[evq];
        if (q.stamp != ev.stamp || q.sprinted || q.depart <= now) {
          break;
        }
        on_timeout(q, now);
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
      Attempt& q = attempts[qi];
      --queued_count;
      --free_slots;
      executing[qi] = 1;
      const double timeout_at =
          dispatch(q, std::max(now, q.arrival), queued_count);
      if (timeout_at != kNever) {
        events.Push(timeout_at, static_cast<uint32_t>(EventType::kTimeout),
                    q.id, q.stamp);
      }
    }

    // Once every attempt resolved, only breaker trips (and stale abandon
    // timers) remain in the queue; events after the run's end never fire.
    if (resolved == attempts.size()) {
      break;
    }
  }

  if (!one_slot) {
    reserve(attempts.size() - first);
    for (size_t qi = first; qi < attempts.size(); ++qi) {
      feed(attempts[qi]);
    }
  }
  auto result = report.Finish();
  if (slo != nullptr) {
    slo->Finish(result.makespan);
  }
  if constexpr (std::is_same_v<Report, TraceReport>) {
    if (metrics != nullptr) {
      const char* const names[] = {
          "testbed/queue_depth_at_dispatch", "testbed/response_time_seconds",
          "testbed/queueing_delay_seconds", "testbed/processing_time_seconds"};
      for (size_t i = 0; i < histograms->size(); ++i) {
        metrics->GetHistogram(names[i]).RecordAll((*histograms)[i]);
      }
      // Counted only when nonzero, so each counter appears in an export
      // exactly when some run counted it.
      if (budget.overdraw_count() > 0) {
        metrics->GetCounter("sprint/budget_overdraw")
            .Add(budget.overdraw_count());
      }
      if (lockout_denials > 0) {
        metrics->GetCounter("fault/breaker_lockout_denials")
            .Add(lockout_denials);
      }
      metrics->GetCounter("testbed/runs").Increment();
      metrics->GetCounter("testbed/queries").Add(result.queries.size());
      metrics->GetCounter("testbed/sprinted").Add(report.sprinted());
      metrics->GetCounter("testbed/timed_out").Add(report.timed_out());
      if (config.admission.Enabled() || config.retry.enabled) {
        metrics->GetCounter("robust/shed").Add(result.shed_count);
        metrics->GetCounter("robust/abandoned").Add(result.abandoned_count);
        metrics->GetCounter("robust/retries").Add(result.retry_count);
        metrics->GetCounter("robust/goodput").Add(result.goodput_count);
        metrics->GetCounter("robust/badput").Add(result.badput_count);
        metrics->GetCounter("robust/retries_exhausted")
            .Add(retry.retries_exhausted());
        metrics->GetCounter("robust/retries_throttled")
            .Add(retry.retries_throttled());
      }
    }
    result.fault_trace = injector.TakeTrace();
  }

  // Spans: every post-warmup attempt that ran (the same slice as
  // trace.queries, in id order) decomposed into exact causal components.
  // Serial code, sim-time stamps, one batch append — the run pays nothing
  // when no collector is attached.
  if (sinks.spans != nullptr) {
    sinks.spans->RecordBatch(obs::BuildQuerySpanBatch(span_inputs));
  }
  return result;
}

// The config's sinks when set, else the session's; every SLO hook, the
// one-slot gate and the span sweep read this one value.
obs::Sinks RunSinks(const TestbedConfig& config) {
  return config.sinks != nullptr
             ? *config.sinks
             : obs::Sinks{obs::ActiveSpans(), obs::ActiveSlo()};
}

// Run(config) and Summarize(config) draw into per-thread columns, which the
// next run on the thread reuses as the event loop reuses its records. A run
// starts no other run, so nothing redraws them while one reads them.
const SimDraws& DrawOnThisThread(const TestbedConfig& config) {
  thread_local SimDraws draws;
  DrawInto(config, draws);
  return draws;
}

}  // namespace

SimDraws Testbed::Draw(const TestbedConfig& config) {
  SimDraws draws;
  DrawInto(config, draws);
  return draws;
}

RunTrace Testbed::Run(const TestbedConfig& config) {
  return Run(config, DrawOnThisThread(config));
}

RunTrace Testbed::Run(const TestbedConfig& config, const SimDraws& draws) {
  CheckDraws(config, draws);
  return RunOnce<TraceReport>(config, draws, RunSinks(config),
                              /*allow_one_slot=*/true);
}

RunSummary Testbed::Summarize(const TestbedConfig& config) {
  return Summarize(config, DrawOnThisThread(config));
}

RunSummary Testbed::Summarize(const TestbedConfig& config,
                              const SimDraws& draws) {
  // A registry reads the trace's tallies (the latency histograms and the
  // overload counts), so a run it observes builds the trace and reads the
  // summary off it; the two give the same bits.
  if (obs::ActiveMetrics() != nullptr) {
    const RunTrace trace = Run(config, draws);
    return {trace.mean_response_time, trace.PercentileResponseTime(0.5),
            trace.fraction_sprinted, trace.fraction_timed_out,
            trace.makespan};
  }
  CheckDraws(config, draws);
  return RunOnce<SummaryReport>(config, draws, RunSinks(config),
                                /*allow_one_slot=*/true);
}

}  // namespace msprint
