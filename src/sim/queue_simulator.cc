#include "src/sim/queue_simulator.h"

#include <algorithm>
#include <cmath>
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

// Struct-of-arrays query state, carved out of the per-run arena. The hot
// loop touches only the columns an event actually needs, instead of
// dragging a whole SimQuery record through the cache per access.
struct QueryColumns {
  uint32_t* klass;  // null unless there are two or more classes
  double* arrival;
  double* service_time;
  double* start;
  double* depart;
  double* sprint_begin;
  double* sprint_seconds;
  uint64_t* stamps;
  uint8_t* timed_out;
  uint8_t* sprinted;
  uint8_t* shed;
};

}  // namespace

SimResult SimulateQueue(const SimConfig& config,
                        std::vector<SimQuery>* trace_out) {
  // An empty class list is one class built from the top-level fields.
  const SimClass single{1.0, config.service, config.timeout_seconds,
                        config.sprint_speedup};
  const SimClass* classes =
      config.classes.empty() ? &single : config.classes.data();
  const size_t num_classes = std::max<size_t>(1, config.classes.size());
  double total_weight = 0.0;
  for (size_t c = 0; c < num_classes; ++c) {
    if (classes[c].service == nullptr) {
      throw std::invalid_argument("SimConfig.service must be set");
    }
    if (classes[c].sprint_speedup <= 0.0 || classes[c].arrival_weight <= 0.0) {
      throw std::invalid_argument("invalid SimConfig");
    }
    total_weight += classes[c].arrival_weight;
  }
  if (config.num_queries == 0 || config.slots < 1 ||
      config.arrival_rate_per_second <= 0.0) {
    throw std::invalid_argument("invalid SimConfig");
  }

  Rng rng(config.seed);
  // Arrival/service sampling consumes the whole stream up front; batched
  // refills amortize the generator state updates without changing a
  // single draw.
  rng.EnableBatchedDraws();

  size_t n = config.num_queries;
  if (config.arrival_trace != nullptr) {
    if (config.arrival_trace->empty()) {
      throw std::invalid_argument("arrival trace is empty");
    }
    n = std::min(n, config.arrival_trace->size());
  }

  // One block reservation covers every per-run array; the event loop
  // below allocates nothing.
  const bool multi_class = num_classes > 1;
  RunArena arena;
  arena.Reserve(RunArena::BytesFor<double>(n) * 6 +
                RunArena::BytesFor<uint64_t>(n) +
                (multi_class ? RunArena::BytesFor<uint32_t>(n) : 0) +
                RunArena::BytesFor<uint8_t>(n) * 3 +
                RunArena::BytesFor<size_t>(n));
  QueryColumns q;
  q.klass = multi_class ? arena.AllocateUninit<uint32_t>(n) : nullptr;
  q.arrival = arena.AllocateUninit<double>(n);      // pre-gen writes all
  q.service_time = arena.AllocateUninit<double>(n);  // pre-gen writes all
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
    return classes[q.klass != nullptr ? q.klass[query] : 0];
  };

  // Draws query i's class (by arrival weight, when there is a choice) and
  // then its service time.
  auto draw_class_and_service = [&](size_t i) {
    if (q.klass != nullptr) {
      double u = rng.NextDouble() * total_weight;
      uint32_t c = 0;
      while (c + 1 < num_classes && (u -= classes[c].arrival_weight) >= 0.0) {
        ++c;
      }
      q.klass[i] = c;
    }
    q.service_time[i] = std::max(1e-9, class_of(i).service->Sample(rng)) *
                        config.service_time_scale;
  };

  // Pre-generate arrivals and service times, as Algorithm 1 does ("these
  // properties are set before simulation begins").
  if (config.arrival_trace != nullptr) {
    const auto& trace = *config.arrival_trace;
    for (size_t i = 0; i < n; ++i) {
      if (i > 0 && trace[i] < trace[i - 1]) {
        throw std::invalid_argument("arrival trace must be ascending");
      }
      q.arrival[i] = trace[i];
      draw_class_and_service(i);
    }
  } else {
    const auto interarrival = MakeDistribution(
        config.arrival_kind, 1.0 / config.arrival_rate_per_second);
    double t = 0.0;
    for (size_t i = 0; i < n; ++i) {
      t += interarrival->Sample(rng);
      q.arrival[i] = t;
      draw_class_and_service(i);
    }
  }

  SprintBudget budget(config.budget_capacity_seconds,
                      config.budget_refill_seconds);
  robust::AdmissionController admission(config.admission, config.slots);

  // Same-timestamp events pop in push order (the EventQueue (time, seq)
  // contract); each engine action below relies on that explicit tiebreak.
  EventQueue events(/*width_hint=*/1.0 / config.arrival_rate_per_second);
  int free_slots = config.slots;
  size_t next_arrival = 0;
  uint64_t stamp_counter = 0;

  events.Push(q.arrival[0], static_cast<uint32_t>(EventType::kArrival), 0, 0);

  auto schedule_departure = [&](size_t query, double when) {
    q.stamps[query] = ++stamp_counter;
    q.depart[query] = when;
    events.Push(when, static_cast<uint32_t>(EventType::kDeparture), query,
                q.stamps[query]);
  };

  auto dispatch = [&](size_t query, double now) {
    if (config.admission.Enabled()) {
      admission.OnDispatch(now, now - q.arrival[query]);
    }
    const SimClass& klass = class_of(query);
    q.start[query] = now;
    const double timeout_at = q.arrival[query] + klass.timeout_seconds;
    const bool timeout_already_fired = timeout_at <= now;
    if (timeout_already_fired) {
      q.timed_out[query] = 1;
      if (budget.Available(now) > kBudgetEpsilon) {
        // Whole execution sprints (the marginal-rate case of Section 2).
        q.sprinted[query] = 1;
        q.sprint_begin[query] = now;
        schedule_departure(query,
                           now + q.service_time[query] / klass.sprint_speedup);
        return;
      }
    }
    schedule_departure(query, now + q.service_time[query]);
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
          events.Push(q.arrival[next_arrival],
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
      dispatch(next, std::max(now, q.arrival[next]));
    }
  }

  // Aggregate post-warmup statistics.
  SimResult result;
  const size_t first = std::min(config.warmup_queries, n);
  result.response_times.reserve(n - first);
  StreamingStats rt_stats;
  StreamingStats qd_stats;
  size_t sprinted = 0;
  size_t timed_out = 0;
  size_t served = 0;
  // Per-class accumulators, kept only when there are two or more classes.
  struct ClassTally {
    StreamingStats rt;
    StreamingStats qd;
    size_t sprinted = 0;
  };
  std::vector<ClassTally> tallies(multi_class ? num_classes : 0);
  for (size_t i = first; i < n; ++i) {
    if (q.shed[i]) {
      ++result.shed_count;  // never ran: no response time to report
      continue;
    }
    ++served;
    const double response = q.depart[i] - q.arrival[i];
    const double queueing = q.start[i] - q.arrival[i];
    result.response_times.push_back(response);
    rt_stats.Add(response);
    qd_stats.Add(queueing);
    if (q.sprinted[i]) {
      ++sprinted;
      result.total_sprint_seconds += q.sprint_seconds[i];
    }
    if (q.timed_out[i]) {
      ++timed_out;
    }
    result.makespan = std::max(result.makespan, q.depart[i]);
    if (multi_class) {
      ClassTally& tally = tallies[q.klass[i]];
      tally.rt.Add(response);
      tally.qd.Add(queueing);
      tally.sprinted += q.sprinted[i];
    }
  }
  // Fractions are over *served* queries; with admission disabled this is
  // exactly the historical n - first denominator.
  const double count = static_cast<double>(served);
  result.mean_response_time = rt_stats.mean();
  result.mean_queueing_delay = qd_stats.mean();
  result.fraction_sprinted = count > 0.0 ? sprinted / count : 0.0;
  result.fraction_timed_out = count > 0.0 ? timed_out / count : 0.0;
  for (const ClassTally& tally : tallies) {
    const size_t completed = tally.rt.count();
    result.per_class.push_back(
        {completed, tally.rt.mean(), tally.qd.mean(),
         completed > 0 ? static_cast<double>(tally.sprinted) /
                             static_cast<double>(completed)
                       : 0.0});
  }

  // Counters only: simulations run on pool workers (replications, SA
  // chains), and the flight recorder is reserved for serial paths. Sharded
  // counter sums are order-independent, so this stays deterministic.
  obs::Count("sim/runs");
  obs::Count("sim/queries", n - first);
  obs::Count("sim/sprinted", sprinted);
  obs::Count("sim/timed_out", timed_out);
  if (config.admission.Enabled()) {
    obs::Count("sim/shed", result.shed_count);
  }

  // Spans go only to the explicit sink, never to the global session, so
  // a run on a pool worker cannot race a serial collector.
  if (config.span_sink != nullptr) {
    std::vector<obs::SpanInputs> inputs;
    inputs.reserve(n - first);
    for (size_t i = first; i < n; ++i) {
      if (q.shed[i]) {
        continue;  // no milestones: the query never entered the system
      }
      obs::SpanInputs in;
      in.id = i;
      in.arrival = q.arrival[i];
      in.start = q.start[i];
      in.depart = q.depart[i];
      // The simulator models no phases, interference or faults: the whole
      // decomposition is queue wait + service + sprint delta.
      in.service_time = q.service_time[i];
      in.sprint_begin = q.sprinted[i] ? q.sprint_begin[i] : -1.0;
      in.sprinted = q.sprinted[i] != 0;
      in.timed_out = q.timed_out[i] != 0;
      inputs.push_back(in);
    }
    config.span_sink->RecordBatch(obs::BuildQuerySpanBatch(inputs));
  }

  if (trace_out != nullptr) {
    trace_out->resize(n);
    for (size_t i = 0; i < n; ++i) {
      SimQuery& out = (*trace_out)[i];
      out.arrival = q.arrival[i];
      out.service_time = q.service_time[i];
      out.start = q.start[i];
      out.depart = q.depart[i];
      out.timed_out = q.timed_out[i] != 0;
      out.sprinted = q.sprinted[i] != 0;
      out.shed = q.shed[i] != 0;
      out.sprint_seconds = q.sprint_seconds[i];
    }
  }
  return result;
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
