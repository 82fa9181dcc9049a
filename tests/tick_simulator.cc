#include "tests/tick_simulator.h"

#include <cmath>
#include <cstdint>
#include <deque>
#include <stdexcept>

namespace msprint {

namespace {
constexpr double kBudgetEpsilon = 1e-9;
}  // namespace

SimResult SimulateQueueTicked(const TickSimConfig& config,
                              std::vector<SimQuery>* trace_out) {
  const SimConfig& base = config.base;
  if (base.service == nullptr || base.slots != 1 || base.num_queries == 0 ||
      !base.classes.empty()) {
    throw std::invalid_argument("tick simulator requires G/G/1 config");
  }
  const double tick = config.tick_seconds;
  if (tick <= 0.0) {
    throw std::invalid_argument("tick must be > 0");
  }

  Rng rng(base.seed);

  // Identical draw order to SimulateQueue so both see the same inputs.
  const size_t n = base.num_queries;
  std::vector<SimQuery> queries(n);
  std::vector<int64_t> arrival_ticks(n);
  std::vector<int64_t> service_ticks(n);
  {
    const auto interarrival =
        MakeDistribution(base.arrival_kind, 1.0 / base.arrival_rate_per_second);
    double t = 0.0;
    for (size_t i = 0; i < n; ++i) {
      t += interarrival->Sample(rng);
      queries[i].arrival = t;
      queries[i].service_time = std::max(1e-9, base.service->Sample(rng));
      arrival_ticks[i] = static_cast<int64_t>(std::ceil(t / tick));
      service_ticks[i] = std::max<int64_t>(
          1, static_cast<int64_t>(std::llround(queries[i].service_time / tick)));
    }
  }

  const int64_t timeout_ticks =
      static_cast<int64_t>(std::llround(base.timeout_seconds / tick));

  SprintBudget budget(base.budget_capacity_seconds,
                      base.budget_refill_seconds);

  // Algorithm 1 state: the FIFO queue holds waiting queries; the head of
  // the queue is the executing query once dispatched (slots drops to 0).
  std::deque<size_t> queue;
  std::vector<int64_t> start_tick(n, -1);
  std::vector<int64_t> depart_tick(n, -1);
  std::vector<int64_t> sprint_begin_tick(n, -1);
  int slots = 1;
  size_t next_arrival = 0;
  size_t completed = 0;
  int64_t clock = 0;

  while (completed < n) {
    // Add new arrivals to the queue.
    while (next_arrival < n && arrival_ticks[next_arrival] == clock) {
      queue.push_back(next_arrival);
      ++next_arrival;
    }

    // Dispatch from queue to execution engine.
    if (slots == 1 && !queue.empty()) {
      const size_t q = queue.front();
      start_tick[q] = clock;
      // Queued-timeout case: the interrupt fired while the query waited, so
      // sprinting engages at dispatch if there is budget.
      if (timeout_ticks <= clock - arrival_ticks[q]) {
        queries[q].timed_out = true;
        if (budget.Available(clock * tick) > kBudgetEpsilon) {
          queries[q].sprinted = true;
          sprint_begin_tick[q] = clock;
          const int64_t sprinted_service = std::max<int64_t>(
              1, static_cast<int64_t>(std::llround(
                     static_cast<double>(service_ticks[q]) /
                     base.sprint_speedup)));
          depart_tick[q] = clock + sprinted_service;
        } else {
          depart_tick[q] = clock + service_ticks[q];
        }
      } else {
        depart_tick[q] = clock + service_ticks[q];
      }
      slots = 0;
    }

    if (!queue.empty()) {
      const size_t head = queue.front();
      // Check for timeouts on the executing query.
      if (start_tick[head] >= 0 && !queries[head].sprinted &&
          clock == arrival_ticks[head] + timeout_ticks &&
          clock < depart_tick[head]) {
        queries[head].timed_out = true;
        if (budget.Available(clock * tick) > kBudgetEpsilon) {
          queries[head].sprinted = true;
          sprint_begin_tick[head] = clock;
          const double remaining =
              static_cast<double>(depart_tick[head] - clock);
          depart_tick[head] =
              clock + std::max<int64_t>(1, static_cast<int64_t>(std::llround(
                                               remaining /
                                               base.sprint_speedup)));
        }
      }
      // Check for query completion.
      if (start_tick[head] >= 0 && clock == depart_tick[head]) {
        if (queries[head].sprinted) {
          const double sprint_seconds =
              (depart_tick[head] - sprint_begin_tick[head]) * tick;
          queries[head].sprint_seconds = sprint_seconds;
          budget.ConsumeAllowingDebt(clock * tick, sprint_seconds);
        }
        queue.pop_front();
        slots = 1;
        ++completed;
      }
    }

    ++clock;
  }

  SimResult result;
  const size_t first = std::min(base.warmup_queries, n);
  StreamingStats rt_stats;
  StreamingStats qd_stats;
  size_t sprinted = 0;
  size_t timed_out = 0;
  for (size_t i = 0; i < n; ++i) {
    queries[i].arrival = arrival_ticks[i] * tick;
    queries[i].start = start_tick[i] * tick;
    queries[i].depart = depart_tick[i] * tick;
  }
  for (size_t i = first; i < n; ++i) {
    const SimQuery& q = queries[i];
    result.response_times.push_back(q.ResponseTime());
    rt_stats.Add(q.ResponseTime());
    qd_stats.Add(q.QueueingDelay());
    if (q.sprinted) {
      ++sprinted;
      result.total_sprint_seconds += q.sprint_seconds;
    }
    if (q.timed_out) {
      ++timed_out;
    }
    result.makespan = std::max(result.makespan, q.depart);
  }
  const double count = static_cast<double>(n - first);
  result.mean_response_time = rt_stats.mean();
  result.mean_queueing_delay = qd_stats.mean();
  result.fraction_sprinted = sprinted / count;
  result.fraction_timed_out = timed_out / count;

  if (trace_out != nullptr) {
    *trace_out = std::move(queries);
  }
  return result;
}

}  // namespace msprint
