// Timeout-aware first-principles queue simulator (Section 2.2, Algorithm 1).
//
// This is the predictive half of the hybrid model: a G/G/k FIFO queue whose
// only model of sprinting is Equation 1's linear speedup on remaining work
// at a single rate (the effective sprint rate). It deliberately knows
// nothing about workload phases, sprint-toggle latency or interference —
// those runtime dynamics live in the ground-truth testbed and are absorbed
// into the effective sprint rate by the random decision forest.
//
// Unlike Algorithm 1's microsecond tick loop, this implementation is
// event-driven (arrivals, departures, in-flight timeouts), which preserves
// the algorithm's externally visible semantics exactly while running orders
// of magnitude faster — what makes the paper's ">900 predictions per
// minute" practical. One slot with admission off (every model-facing
// simulation) skips the event queue altogether: query i starts at
// max(arrival_i, depart_{i-1}), computed with the event loop's exact
// operations. A literal tick-loop shim (tests/tick_simulator.h) is kept
// for conformance testing.
//
// The same loop runs the Section 5 extension: "only small modifications to
// the simulator are needed to support multiple sprint rates and timeouts".
// Query classes (SimConfig::classes) carry their own arrival weight,
// service time, timeout and sprint speedup and share one FIFO queue, the
// slots and one sprint budget.

#ifndef MSPRINT_SRC_SIM_QUEUE_SIMULATOR_H_
#define MSPRINT_SRC_SIM_QUEUE_SIMULATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/distribution.h"
#include "src/common/stats.h"
#include "src/core/sim_draws.h"
#include "src/robust/admission.h"
#include "src/sprint/budget.h"

namespace msprint {

namespace obs {
class SpanCollector;
}  // namespace obs

// One query class of a multi-class run. A class's timeout counts from
// arrival; if it fires while the query is queued, the whole execution
// sprints at the class speedup (budget permitting); if it fires
// mid-execution, the remaining work finishes at the class speedup.
struct SimClass {
  double arrival_weight = 1.0;            // share of the arrival stream
  const Distribution* service = nullptr;  // sustained-rate service time
  double timeout_seconds = 60.0;
  double sprint_speedup = 1.0;            // mu_e / mu for this class
};

// Everything the predictive simulator needs to know. Note there is no
// workload or mechanism here: the simulator sees only rates, a timeout and
// a budget, exactly as in Figure 2's "timeout-aware queue simulator" box.
struct SimConfig {
  // Arrival process. When `arrival_trace` is set, the recorded timestamps
  // (seconds, ascending) are replayed verbatim instead of sampling the
  // arrival distribution — the paper's "what-if questions for past ...
  // workloads" applied to an actual recorded trace. num_queries is then
  // clamped to the trace length.
  double arrival_rate_per_second = 0.01;
  DistributionKind arrival_kind = DistributionKind::kExponential;
  const std::vector<double>* arrival_trace = nullptr;

  // Service process at the sustained rate. Owned by the caller; must
  // outlive the simulation. Typically an EmpiricalDistribution resampling
  // profiled service times (Section 2.2) or an analytic stand-in.
  const Distribution* service = nullptr;

  // Effective (or marginal, for the No-ML baseline) sprint speedup:
  // mu_e / mu >= 1. A sprinting query's remaining work completes this much
  // faster (Equation 1).
  double sprint_speedup = 1.0;

  // Policy knobs.
  double timeout_seconds = 60.0;
  double budget_capacity_seconds = 40.0;
  double budget_refill_seconds = 200.0;

  // Execution engine slots (k of G/G/k).
  int slots = 1;

  // Horizon.
  size_t num_queries = 10000;
  size_t warmup_queries = 0;  // excluded from the reported statistics

  uint64_t seed = 1;

  // Admission control on the simulated arrival path (DESIGN.md §14). The
  // default admits everything — the historical behaviour, bit-exact.
  // Shed queries never enqueue, never run and are excluded from the
  // response-time statistics (counted in SimResult::shed_count).
  robust::AdmissionConfig admission;

  // Counterfactual perturbation hook (src/obs/whatif; DESIGN.md §16):
  // multiplies every sampled service time. The 1.0 default is a bitwise
  // identity, so unperturbed configs replay byte-identically.
  double service_time_scale = 1.0;

  // When set, every served post-warmup query is recorded here as an
  // attribution span (DESIGN.md §11). This is the simulator's only sink:
  // it never reads the process-global ObsSession's span collector or SLO
  // pipeline, so runs on pool workers stay race-free.
  obs::SpanCollector* span_sink = nullptr;

  // Query classes. Empty means one class built from `service`,
  // `timeout_seconds` and `sprint_speedup` above; otherwise those three
  // are ignored. With two or more classes each query's class is drawn by
  // arrival weight between its interarrival and service draws; one class
  // draws no class variate, so it replays the empty list bit for bit.
  std::vector<SimClass> classes;
};

// Per-query record emitted by a simulation.
struct SimQuery {
  double arrival = 0.0;
  double service_time = 0.0;  // at sustained rate
  double start = 0.0;
  double depart = 0.0;
  bool timed_out = false;
  bool sprinted = false;
  bool shed = false;  // turned away by the admission controller
  double sprint_seconds = 0.0;

  double ResponseTime() const { return depart - arrival; }
  double QueueingDelay() const { return start - arrival; }
};

// Post-warmup statistics of one query class, over its served queries.
struct SimClassStats {
  size_t completed = 0;
  double mean_response_time = 0.0;
  double mean_queueing_delay = 0.0;
  double fraction_sprinted = 0.0;
};

struct SimResult {
  std::vector<double> response_times;  // post-warmup
  double mean_response_time = 0.0;
  double mean_queueing_delay = 0.0;
  double fraction_sprinted = 0.0;
  double fraction_timed_out = 0.0;
  double total_sprint_seconds = 0.0;
  double makespan = 0.0;  // departure time of the last query
  size_t shed_count = 0;  // post-warmup arrivals the controller turned away
  // One entry per class when SimConfig::classes holds two or more; empty
  // otherwise, since the fields above then describe the one class.
  std::vector<SimClassStats> per_class;

  double MedianResponseTime() const;
  double PercentileResponseTime(double q) const;
};

// Draws `config`'s arrival, class and service columns (SimDraws, in
// src/core/sim_draws.h), exactly as SimulateQueue(config) does, with
// service_time_scale applied. They depend on the seed, the arrival process
// or trace, each class's weight and service, service_time_scale and
// num_queries — never on speedups, timeouts, the budget or slots — so one
// draw can be replayed under any of those (common random numbers, as
// calibration's bisection does).
SimDraws DrawSimQueries(const SimConfig& config);

// Runs one replication on pre-drawn inputs; bit-identical to
// SimulateQueue(config) when `draws` is DrawSimQueries(config). Throws
// std::invalid_argument when the draws do not fit `config`: a column of
// the wrong length, or a class index with no class. Also exposes the raw
// per-query trace when `trace_out` is non-null (used by tests and the
// Fig 1 timeline bench).
//
// One slot with admission off runs as an exact Lindley recursion; any
// other config runs the event loop (DESIGN.md §12).
SimResult SimulateQueue(const SimConfig& config, const SimDraws& draws,
                        std::vector<SimQuery>* trace_out = nullptr);

// Draws and runs one replication.
SimResult SimulateQueue(const SimConfig& config,
                        std::vector<SimQuery>* trace_out = nullptr);

// SimulateQueue(config, draws).mean_response_time bit for bit, with the
// same counters and the same throws, for callers that read nothing else:
// one slot with admission off replays the recursion into the mean alone,
// with no per-query response times and no other statistics. Any other
// config, or one with a span sink, runs SimulateQueue and reads its mean.
double SimulateQueueMean(const SimConfig& config, const SimDraws& draws);

}  // namespace msprint

#endif  // MSPRINT_SRC_SIM_QUEUE_SIMULATOR_H_
