#include "src/sim/queue_simulator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>

#include "src/common/thread_pool.h"
#include "src/core/event_queue.h"
#include "src/core/run_arena.h"
#include "src/obs/obs.h"

namespace msprint {

double SimResult::MedianResponseTime() const {
  return Median(response_times);
}

double SimResult::PercentileResponseTime(double q) const {
  if (std::isnan(q)) {
    throw std::invalid_argument(
        "PercentileResponseTime: quantile fraction must not be NaN");
  }
  if (response_times.empty()) {
    return 0.0;
  }
  return Quantile(response_times, std::clamp(q, 0.0, 1.0));
}

namespace {

constexpr double kBudgetEpsilon = 1e-9;

enum class EventType : uint32_t { kArrival, kDeparture, kTimeout };

// Validates `config` and returns its query classes. An empty
// SimConfig::classes is one class built from the top-level fields, stored
// in `single`.
std::span<const SimClass> ResolveClasses(const SimConfig& config,
                                         SimClass& single) {
  single = {1.0, config.service, config.timeout_seconds,
            config.sprint_speedup};
  const std::span<const SimClass> classes =
      config.classes.empty() ? std::span<const SimClass>(&single, 1)
                             : std::span<const SimClass>(config.classes);
  for (const SimClass& klass : classes) {
    if (klass.service == nullptr) {
      throw std::invalid_argument("SimConfig.service must be set");
    }
    if (klass.sprint_speedup <= 0.0 || klass.arrival_weight <= 0.0) {
      throw std::invalid_argument("invalid SimConfig");
    }
  }
  if (config.num_queries == 0 || config.slots < 1 ||
      config.arrival_rate_per_second <= 0.0) {
    throw std::invalid_argument("invalid SimConfig");
  }
  return classes;
}

// Queries a config runs: num_queries, clamped to the trace length.
size_t QueryCount(const SimConfig& config) {
  if (config.arrival_trace == nullptr) {
    return config.num_queries;
  }
  if (config.arrival_trace->empty()) {
    throw std::invalid_argument("arrival trace is empty");
  }
  return std::min(config.num_queries, config.arrival_trace->size());
}

// One query's outcome, as either engine reports it.
struct QueryRecord {
  uint32_t klass = 0;
  double arrival = 0.0;
  double service_time = 0.0;
  double start = 0.0;
  double depart = 0.0;
  double sprint_begin = -1.0;
  double sprint_seconds = 0.0;
  bool timed_out = false;
  bool sprinted = false;
  bool shed = false;
};

// Everything a run reports, fed one query at a time in index order: the
// post-warmup statistics, the spans for SimConfig::span_sink and the
// per-query trace. Both engines report through it, so their results
// cannot drift apart.
class RunReport {
 public:
  RunReport(const SimConfig& config, size_t n, size_t num_classes,
            std::vector<SimQuery>* trace_out)
      : config_(config),
        n_(n),
        first_(std::min(config.warmup_queries, n)),
        trace_out_(trace_out),
        tallies_(num_classes > 1 ? num_classes : 0) {
    result_.response_times.reserve(n - first_);
    if (config.span_sink != nullptr) {
      spans_.reserve(n - first_);
    }
    if (trace_out != nullptr) {
      trace_out->resize(n);
    }
  }

  void Add(size_t i, const QueryRecord& q) {
    if (trace_out_ != nullptr) {
      SimQuery& out = (*trace_out_)[i];
      out.arrival = q.arrival;
      out.service_time = q.service_time;
      out.start = q.start;
      out.depart = q.depart;
      out.timed_out = q.timed_out;
      out.sprinted = q.sprinted;
      out.shed = q.shed;
      out.sprint_seconds = q.sprint_seconds;
    }
    if (i < first_) {
      return;
    }
    if (q.shed) {
      ++result_.shed_count;  // never ran: no response time to report
      return;
    }
    ++served_;
    const double response = q.depart - q.arrival;
    const double queueing = q.start - q.arrival;
    result_.response_times.push_back(response);
    rt_stats_.Add(response);
    qd_stats_.Add(queueing);
    if (q.sprinted) {
      ++sprinted_;
      result_.total_sprint_seconds += q.sprint_seconds;
    }
    if (q.timed_out) {
      ++timed_out_;
    }
    result_.makespan = std::max(result_.makespan, q.depart);
    if (!tallies_.empty()) {
      ClassTally& tally = tallies_[q.klass];
      tally.rt.Add(response);
      tally.qd.Add(queueing);
      tally.sprinted += q.sprinted;
    }
    if (config_.span_sink != nullptr) {
      obs::SpanInputs in;
      in.id = i;
      in.arrival = q.arrival;
      in.start = q.start;
      in.depart = q.depart;
      // The simulator models no phases, interference or faults: the whole
      // decomposition is queue wait + service + sprint delta.
      in.service_time = q.service_time;
      in.sprint_begin = q.sprinted ? q.sprint_begin : -1.0;
      in.sprinted = q.sprinted;
      in.timed_out = q.timed_out;
      spans_.push_back(in);
    }
  }

  SimResult Finish() {
    // Fractions are over *served* queries; with admission disabled this is
    // exactly the historical n - first denominator.
    const double count = static_cast<double>(served_);
    result_.mean_response_time = rt_stats_.mean();
    result_.mean_queueing_delay = qd_stats_.mean();
    result_.fraction_sprinted = count > 0.0 ? sprinted_ / count : 0.0;
    result_.fraction_timed_out = count > 0.0 ? timed_out_ / count : 0.0;
    for (const ClassTally& tally : tallies_) {
      const size_t completed = tally.rt.count();
      result_.per_class.push_back(
          {completed, tally.rt.mean(), tally.qd.mean(),
           completed > 0 ? static_cast<double>(tally.sprinted) /
                               static_cast<double>(completed)
                         : 0.0});
    }

    // Counters only: simulations run on pool workers (replications, SA
    // chains), and the flight recorder is reserved for serial paths.
    // Sharded counter sums are order-independent, so this stays
    // deterministic.
    obs::Count("sim/runs");
    obs::Count("sim/queries", n_ - first_);
    obs::Count("sim/sprinted", sprinted_);
    obs::Count("sim/timed_out", timed_out_);
    if (config_.admission.Enabled()) {
      obs::Count("sim/shed", result_.shed_count);
    }

    // Spans go only to the explicit sink, never to the global session, so
    // a run on a pool worker cannot race a serial collector.
    if (config_.span_sink != nullptr) {
      config_.span_sink->RecordBatch(obs::BuildQuerySpanBatch(spans_));
    }
    return std::move(result_);
  }

 private:
  // Per-class accumulators, kept only when there are two or more classes.
  struct ClassTally {
    StreamingStats rt;
    StreamingStats qd;
    size_t sprinted = 0;
  };

  const SimConfig& config_;
  const size_t n_;
  const size_t first_;
  std::vector<SimQuery>* const trace_out_;
  SimResult result_;
  StreamingStats rt_stats_;
  StreamingStats qd_stats_;
  size_t served_ = 0;
  size_t sprinted_ = 0;
  size_t timed_out_ = 0;
  std::vector<ClassTally> tallies_;
  std::vector<obs::SpanInputs> spans_;
};

// One slot, admission off: FIFO order is index order, so query i starts
// at max(arrival_i, depart_{i-1}), the Lindley recursion. Every double
// matches the event loop because the recursion makes the loop's budget
// calls in its order and with its operands. In the loop, each event of
// query i (dispatch, the in-service timeout, the departure) pops before
// query i+1 is dispatched, which happens at i+1's arrival once the server
// is idle or at i's departure after it completes. So per query:
// Available(start) when the timeout fired while queued, else
// Available(timeout_at) when it fires before the departure, then the
// sprint's debit at the departure.
void RunSingleSlot(std::span<const SimClass> classes, const SimDraws& draws,
                   SprintBudget& budget, RunReport& report) {
  const size_t n = draws.arrival.size();
  const bool multi_class = !draws.klass.empty();
  double depart = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < n; ++i) {
    QueryRecord q;
    q.klass = multi_class ? draws.klass[i] : 0;
    q.arrival = draws.arrival[i];
    q.service_time = draws.service_time[i];
    const SimClass& klass = classes[q.klass];
    // `+ 0.0` maps a -0.0 arrival to the +0.0 the event queue stores.
    q.start = std::max(depart, q.arrival + 0.0);
    const double timeout_at = q.arrival + klass.timeout_seconds;
    if (timeout_at <= q.start) {
      q.timed_out = true;
      if (budget.Available(q.start) > kBudgetEpsilon) {
        // Whole execution sprints (the marginal-rate case of Section 2).
        q.sprinted = true;
        q.sprint_begin = q.start;
      }
    }
    q.depart = q.start + (q.sprinted ? q.service_time / klass.sprint_speedup
                                     : q.service_time);
    if (!q.timed_out && timeout_at < q.depart) {
      q.timed_out = true;
      if (budget.Available(timeout_at) > kBudgetEpsilon) {
        // Equation 1: remaining work finishes at the sprint speedup.
        q.sprinted = true;
        q.sprint_begin = timeout_at;
        q.depart = timeout_at + (q.depart - timeout_at) / klass.sprint_speedup;
      }
    }
    if (q.sprinted) {
      q.sprint_seconds = q.depart - q.sprint_begin;
      budget.ConsumeAllowingDebt(q.depart, q.sprint_seconds);
    }
    depart = q.depart;
    report.Add(i, q);
  }
}

// Struct-of-arrays query state, carved out of the per-run arena. The hot
// loop touches only the columns an event actually needs, instead of
// dragging a whole SimQuery record through the cache per access.
struct QueryColumns {
  double* start;
  double* depart;
  double* sprint_begin;
  double* sprint_seconds;
  uint64_t* stamps;
  uint8_t* timed_out;
  uint8_t* sprinted;
  uint8_t* shed;
};

// The general G/G/k engine: arrivals, departures and in-flight timeouts
// through the shared EventQueue, with admission control when enabled.
void RunEventLoop(const SimConfig& config, std::span<const SimClass> classes,
                  const SimDraws& draws, SprintBudget& budget,
                  robust::AdmissionController& admission,
                  RunReport& report) {
  const size_t n = draws.arrival.size();
  const double* arrival = draws.arrival.data();
  const double* service_time = draws.service_time.data();
  const uint32_t* klass_of = draws.klass.empty() ? nullptr : draws.klass.data();

  // One block reservation covers every per-run array; the event loop
  // below allocates nothing.
  RunArena arena;
  arena.Reserve(RunArena::BytesFor<double>(n) * 4 +
                RunArena::BytesFor<uint64_t>(n) +
                RunArena::BytesFor<uint8_t>(n) * 3 +
                RunArena::BytesFor<size_t>(n));
  QueryColumns q;
  q.start = arena.Allocate<double>(n);
  q.depart = arena.Allocate<double>(n);
  q.sprint_begin = arena.Allocate<double>(n, -1.0);
  q.sprint_seconds = arena.Allocate<double>(n);
  q.stamps = arena.Allocate<uint64_t>(n);
  q.timed_out = arena.Allocate<uint8_t>(n);
  q.sprinted = arena.Allocate<uint8_t>(n);
  q.shed = arena.Allocate<uint8_t>(n);
  // FIFO ring: every query enqueues exactly once, so a monotone index
  // pair over an n-slot array replaces the old std::deque (and its
  // per-node heap churn).
  size_t* fifo = arena.AllocateUninit<size_t>(n);  // written before read
  size_t fifo_head = 0;
  size_t fifo_tail = 0;

  // The class of a query: the only class unless the column exists.
  auto class_of = [&](size_t query) -> const SimClass& {
    return classes[klass_of != nullptr ? klass_of[query] : 0];
  };

  // Same-timestamp events pop in push order (the EventQueue (time, seq)
  // contract); each engine action below relies on that explicit tiebreak.
  EventQueue events(/*width_hint=*/1.0 / config.arrival_rate_per_second);
  int free_slots = config.slots;
  size_t next_arrival = 0;
  uint64_t stamp_counter = 0;

  events.Push(arrival[0], static_cast<uint32_t>(EventType::kArrival), 0, 0);

  auto schedule_departure = [&](size_t query, double when) {
    q.stamps[query] = ++stamp_counter;
    q.depart[query] = when;
    events.Push(when, static_cast<uint32_t>(EventType::kDeparture), query,
                q.stamps[query]);
  };

  auto dispatch = [&](size_t query, double now) {
    if (config.admission.Enabled()) {
      admission.OnDispatch(now, now - arrival[query]);
    }
    const SimClass& klass = class_of(query);
    q.start[query] = now;
    const double timeout_at = arrival[query] + klass.timeout_seconds;
    const bool timeout_already_fired = timeout_at <= now;
    if (timeout_already_fired) {
      q.timed_out[query] = 1;
      if (budget.Available(now) > kBudgetEpsilon) {
        // Whole execution sprints (the marginal-rate case of Section 2).
        q.sprinted[query] = 1;
        q.sprint_begin[query] = now;
        schedule_departure(query,
                           now + service_time[query] / klass.sprint_speedup);
        return;
      }
    }
    schedule_departure(query, now + service_time[query]);
    if (!timeout_already_fired) {
      // Timeout may fire mid-execution; schedule the interrupt.
      if (timeout_at < q.depart[query]) {
        events.Push(timeout_at, static_cast<uint32_t>(EventType::kTimeout),
                    query, q.stamps[query]);
      }
    }
  };

  auto complete = [&](size_t query, double now) {
    if (config.admission.Enabled()) {
      admission.OnServiceSample(now - q.start[query]);
    }
    if (q.sprinted[query]) {
      q.sprint_seconds[query] = now - q.sprint_begin[query];
      budget.ConsumeAllowingDebt(now, q.sprint_seconds[query]);
    }
    ++free_slots;
  };

  while (!events.empty()) {
    const EventRecord ev = events.PopMin();
    const double now = ev.time();
    const size_t query = static_cast<size_t>(ev.query);

    switch (static_cast<EventType>(ev.type())) {
      case EventType::kArrival: {
        if (config.admission.Enabled() &&
            !admission.Admit(now, fifo_tail - fifo_head,
                             class_of(query).timeout_seconds)) {
          q.shed[query] = 1;  // turned away: never enqueues, never runs
        } else {
          fifo[fifo_tail++] = query;
        }
        if (++next_arrival < n) {
          events.Push(arrival[next_arrival],
                      static_cast<uint32_t>(EventType::kArrival),
                      next_arrival, 0);
        }
        break;
      }
      case EventType::kDeparture: {
        if (q.stamps[query] != ev.stamp) {
          break;  // superseded by a sprint reschedule
        }
        complete(query, now);
        break;
      }
      case EventType::kTimeout: {
        // Only meaningful if the query is still executing un-sprinted with
        // the same departure schedule it had when the interrupt was set.
        if (q.stamps[query] != ev.stamp || q.sprinted[query] ||
            q.depart[query] <= now) {
          break;
        }
        q.timed_out[query] = 1;
        if (budget.Available(now) > kBudgetEpsilon) {
          // Equation 1: remaining work finishes at the sprint speedup.
          q.sprinted[query] = 1;
          q.sprint_begin[query] = now;
          const double remaining = q.depart[query] - now;
          schedule_departure(
              query, now + remaining / class_of(query).sprint_speedup);
        }
        break;
      }
    }

    // Dispatch from the FIFO head while slots are open.
    while (free_slots > 0 && fifo_head != fifo_tail) {
      const size_t next = fifo[fifo_head++];
      --free_slots;
      dispatch(next, std::max(now, arrival[next]));
    }
  }

  for (size_t i = 0; i < n; ++i) {
    QueryRecord record;
    record.klass = klass_of != nullptr ? klass_of[i] : 0;
    record.arrival = arrival[i];
    record.service_time = service_time[i];
    record.start = q.start[i];
    record.depart = q.depart[i];
    record.sprint_begin = q.sprint_begin[i];
    record.sprint_seconds = q.sprint_seconds[i];
    record.timed_out = q.timed_out[i] != 0;
    record.sprinted = q.sprinted[i] != 0;
    record.shed = q.shed[i] != 0;
    report.Add(i, record);
  }
}

}  // namespace

SimDraws DrawSimQueries(const SimConfig& config) {
  SimClass single;
  const std::span<const SimClass> classes = ResolveClasses(config, single);
  const size_t n = QueryCount(config);
  double total_weight = 0.0;
  for (const SimClass& klass : classes) {
    total_weight += klass.arrival_weight;
  }

  Rng rng(config.seed);
  // Sampling consumes the whole stream up front; batched refills amortize
  // the generator state updates without changing a single draw.
  rng.EnableBatchedDraws();

  SimDraws draws;
  draws.arrival.resize(n);
  draws.service_time.resize(n);
  if (classes.size() > 1) {
    draws.klass.resize(n);
  }

  // Draws query i's class (by arrival weight, when there is a choice) and
  // then its service time.
  auto draw_class_and_service = [&](size_t i) {
    uint32_t c = 0;
    if (classes.size() > 1) {
      double u = rng.NextDouble() * total_weight;
      while (c + 1 < classes.size() &&
             (u -= classes[c].arrival_weight) >= 0.0) {
        ++c;
      }
      draws.klass[i] = c;
    }
    draws.service_time[i] =
        std::max(1e-9, classes[c].service->Sample(rng)) *
        config.service_time_scale;
  };

  if (config.arrival_trace != nullptr) {
    const auto& trace = *config.arrival_trace;
    for (size_t i = 0; i < n; ++i) {
      if (i > 0 && trace[i] < trace[i - 1]) {
        throw std::invalid_argument("arrival trace must be ascending");
      }
      draws.arrival[i] = trace[i];
      draw_class_and_service(i);
    }
  } else {
    const auto interarrival = MakeDistribution(
        config.arrival_kind, 1.0 / config.arrival_rate_per_second);
    double t = 0.0;
    for (size_t i = 0; i < n; ++i) {
      t += interarrival->Sample(rng);
      draws.arrival[i] = t;
      draw_class_and_service(i);
    }
  }
  return draws;
}

SimResult SimulateQueue(const SimConfig& config, const SimDraws& draws,
                        std::vector<SimQuery>* trace_out) {
  SimClass single;
  const std::span<const SimClass> classes = ResolveClasses(config, single);
  const size_t n = QueryCount(config);
  const bool klass_fits =
      classes.size() > 1
          ? draws.klass.size() == n &&
                std::all_of(draws.klass.begin(), draws.klass.end(),
                            [&](uint32_t c) { return c < classes.size(); })
          : draws.klass.empty();
  if (draws.arrival.size() != n || draws.service_time.size() != n ||
      !klass_fits) {
    throw std::invalid_argument("SimDraws do not fit this SimConfig");
  }

  SprintBudget budget(config.budget_capacity_seconds,
                      config.budget_refill_seconds);
  // Built on both paths so an invalid admission config throws on both.
  robust::AdmissionController admission(config.admission, config.slots);
  RunReport report(config, n, classes.size(), trace_out);
  if (config.slots == 1 && !config.admission.Enabled()) {
    RunSingleSlot(classes, draws, budget, report);
  } else {
    RunEventLoop(config, classes, draws, budget, admission, report);
  }
  return report.Finish();
}

SimResult SimulateQueue(const SimConfig& config,
                        std::vector<SimQuery>* trace_out) {
  return SimulateQueue(config, DrawSimQueries(config), trace_out);
}

ReplicatedResult SimulateReplicated(const SimConfig& config,
                                    size_t replications, ThreadPool* pool) {
  if (replications == 0) {
    throw std::invalid_argument("need at least one replication");
  }
  std::vector<double> means(replications, 0.0);
  ResolvePool(pool).ParallelFor(replications, [&](size_t r) {
    SimConfig rep = config;
    rep.seed = DeriveSeed(config.seed, r);
    means[r] = SimulateQueue(rep).mean_response_time;
  });
  StreamingStats stats;
  for (double m : means) {
    stats.Add(m);
  }
  ReplicatedResult out;
  out.mean_response_time = stats.mean();
  out.coefficient_of_variation = stats.cov();
  out.replication_means = std::move(means);
  return out;
}

}  // namespace msprint
