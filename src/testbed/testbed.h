// Ground-truth sprinting server (substitute for the paper's physical
// testbeds; see DESIGN.md Section 1).
//
// The testbed implements the full profiling target of Figure 3: a query
// generator (arrival process + query mix), a FIFO queue manager that
// timestamps queries, schedules timeout interrupts and debits the sprint
// budget, and an execution engine with a configurable number of slots.
//
// Crucially, the testbed models the runtime dynamics that the paper's
// predictive simulator does NOT (Section 2.3's "unaccounted runtime
// factors"):
//   1. where in the query's execution the sprint begins — speedup follows
//      the workload's phase profile (SprintMechanism::PhaseSpeedups, one
//      table per run and workload);
//   2. queueing delay caused by toggling the sprinting mechanism — a
//      toggle latency is charged when a sprint engages mid-flight;
//   3. load-dependent overhead — dispatch costs grow mildly with queue
//      length (cache/scheduler pressure on a busy server).
// The gap between this machine and the first-principles simulator is what
// the random decision forest learns as the effective sprint rate.
//
// A run first draws its query stream (Testbed::Draw) into the simulator's
// draw type, SimDraws, and then runs on those columns. A run with one
// slot, no admission, no retries and a fault plan that injects nothing,
// with no metrics registry or flight recorder in the session and no SLO
// pipeline among its sinks (a span collector may be), executes as an exact
// recursion over the draws, one query at a time in locals, instead of
// through the event queue. Every profiler run takes it, and so do
// fault-free `explain --workload` runs and `whatif --workload` runs without
// objectives; storms, admission, retries, faults, run-time telemetry and
// more than one slot take the event loop, the only path that keeps
// per-attempt records. Both paths produce the same bits (DESIGN.md §12).
// Either feeds one per-query report in index order: Run's builds the whole
// RunTrace, Summarize's only what a profile row reads.

#ifndef MSPRINT_SRC_TESTBED_TESTBED_H_
#define MSPRINT_SRC_TESTBED_TESTBED_H_

#include <cstdint>
#include <vector>

#include "src/common/distribution.h"
#include "src/common/stats.h"
#include "src/core/sim_draws.h"
#include "src/fault/fault.h"
#include "src/robust/admission.h"
#include "src/robust/retry.h"
#include "src/sprint/budget.h"
#include "src/sprint/policy.h"
#include "src/workload/workload.h"

namespace msprint {

namespace obs {
struct Sinks;
}  // namespace obs

// One profiling run's configuration (the "workload conditions" half of the
// model inputs).
struct TestbedConfig {
  QueryMix mix = QueryMix::Single(WorkloadId::kJacobi);
  SprintPolicy policy;

  // Arrival rate as a fraction of the mix's sustained service rate on the
  // policy's platform (queuing utilization; the paper's centroids are
  // 30/50/75/95%).
  double utilization = 0.5;
  DistributionKind arrival_kind = DistributionKind::kExponential;

  int slots = 1;
  size_t num_queries = 2000;
  size_t warmup_queries = 200;
  uint64_t seed = 1;

  // Disables sprinting entirely (profiles the pure sustained baseline).
  bool disable_sprinting = false;

  // Forces every query to sprint for its entire execution with unlimited
  // budget — how the profiler measures the marginal sprint rate
  // ("timeouts trigger before the queue manager dispatches queries, i.e.,
  // the whole execution is sprinted", Section 2).
  bool force_full_sprint = false;

  // Fault schedule for the run. Defaults inject nothing; every configured
  // fault fires at a reproducible simulated time derived from the run seed
  // (or faults.seed when set), so storms replay byte-identically.
  FaultPlanConfig faults;

  // Overload-robustness layer (src/robust; DESIGN.md §14). Defaults admit
  // everything and never retry — the historical arrival path, bit-exact.
  robust::AdmissionConfig admission;
  robust::RetryConfig retry;

  // Counterfactual perturbation hooks (src/obs/whatif; DESIGN.md §16).
  // The defaults are exact identities — `x * 1.0` is bitwise `x`, and
  // sprint_boost gates its rewrite on `!= 1.0` — so an unperturbed config
  // replays byte-identically to a config without these fields.
  //
  // Multiplies every sampled sustained service time (a service-rate
  // perturbation of 1/scale).
  double service_time_scale = 1.0;
  // Multiplies the mechanism's toggle latency everywhere it is charged.
  double toggle_latency_scale = 1.0;
  // Multiplies the wall-clock time each engaged sprint *saves* (sustained
  // remaining minus sprinted remaining); 2.0 means sprints recover twice
  // the time, 0.5 half. Clamped so a boosted sprint never finishes in
  // negative time.
  double sprint_boost = 1.0;

  // The run's span collector and SLO pipeline. When set, the run records
  // into these alone, so a run on a pool worker never touches the global
  // ObsSession; unset, it falls back to the session's. Metrics and the
  // flight recorder are always the session's.
  const obs::Sinks* sinks = nullptr;
};

// Everything a run captures (Section 2.1: "response time, service time and
// queuing delay for each query execution"). A profile's grid rows read
// only its RunSummary.
struct RunTrace {
  std::vector<Query> queries;  // post-warmup

  double mean_response_time = 0.0;
  double mean_queueing_delay = 0.0;
  double mean_processing_time = 0.0;
  double fraction_sprinted = 0.0;
  double fraction_timed_out = 0.0;
  double total_sprint_seconds = 0.0;
  double makespan = 0.0;

  // Mean processing time over queries that never sprinted; its inverse is
  // the profiled service rate mu.
  double mean_unsprinted_processing_time = 0.0;

  // Overload-robustness accounting over the post-warmup slice. `queries`
  // then contains every attempt — served, shed and abandoned — and
  // retries appear as extra attempts of the same request_id. Goodput is
  // logical requests (originals) with at least one served attempt;
  // goodput_per_second normalizes by the post-warmup makespan.
  size_t shed_count = 0;
  size_t abandoned_count = 0;
  size_t retry_count = 0;      // attempts beyond each request's first
  size_t served_count = 0;     // attempts that completed service
  size_t goodput_count = 0;    // logical requests with a served attempt
  size_t badput_count = 0;     // logical requests with none
  double goodput_per_second = 0.0;

  // Faults that fired during the run (including warmup), in simulated-time
  // order. Empty when TestbedConfig::faults injects nothing.
  FaultTrace fault_trace;

  // Response times of the attempts that were not shed, in `queries`
  // order: the sample mean_response_time averages. A shed attempt never
  // ran, so it has none.
  std::vector<double> ResponseTimes() const;
  // Quantile of ResponseTimes(). q is clamped to [0, 1] (so q=0 is the
  // minimum and q=1 the maximum); a NaN q throws std::invalid_argument; a
  // trace with no such attempt returns 0.0.
  double PercentileResponseTime(double q) const;
};

// What a profile row reads of one run (Section 2.1, Figure 3), over the
// same post-warmup attempts as RunTrace and with the same bits as its
// fields: mean_response_time, PercentileResponseTime(0.5),
// fraction_sprinted, fraction_timed_out and makespan.
struct RunSummary {
  double mean_response_time = 0.0;
  double median_response_time = 0.0;
  double fraction_sprinted = 0.0;
  double fraction_timed_out = 0.0;
  double makespan = 0.0;
};

// The ground-truth server. Stateless between runs; each Run() is an
// independent replay of the workload mix under the given conditions.
class Testbed {
 public:
  // Draws `config`'s query stream as Run(config) does: per query the
  // workload (the class column, a WorkloadId value, left empty for a
  // one-workload mix), the arrival (flash crowds applied) and the
  // sustained service time (service_time_scale applied). The draws depend
  // on the seed, the mix, the mechanism the policy selects, the
  // utilization and arrival kind, the flash crowds, service_time_scale and
  // num_queries, never on the timeout, the budget, slots, admission,
  // retries or the other whatif hooks, so one draw replays under any of
  // those.
  static SimDraws Draw(const TestbedConfig& config);

  // Executes one run and returns the captured trace: Draw, then replay.
  static RunTrace Run(const TestbedConfig& config);
  // Replays `draws`, bit-identical to Run(config) when they are
  // Draw(config). Throws std::invalid_argument before any work when they
  // do not fit `config`: a column whose length is not num_queries, a class
  // column on a one-workload mix or none on a mix, or a class that is not
  // a workload of the mix.
  static RunTrace Run(const TestbedConfig& config, const SimDraws& draws);

  // Executes the same run as Run, recording into the same sinks, and
  // returns only its summary: without a metrics registry in the session it
  // builds no per-query record.
  static RunSummary Summarize(const TestbedConfig& config);
  // Summarize on `draws`, with Run's replay contract.
  static RunSummary Summarize(const TestbedConfig& config,
                              const SimDraws& draws);

  // Sustained service rate (queries/second) of `mix` on the platform that
  // `policy` selects — the normalization base for utilization and budget.
  static double SustainedRatePerSecond(const QueryMix& mix,
                                       const SprintPolicy& policy);

  // Remaining wall-clock time to finish a query that has completed
  // `progress` (fraction of work, in [0,1)) when sprinting starts now and
  // runs to completion. Sums the remaining stretch of each phase at the
  // speedup of the phase holding the stretch's midpoint (clamped to
  // 0.999). `sustained_total` is the query's full duration at the
  // sustained rate. Builds the mechanism's phase table and runs the code a
  // run does; exposed for unit tests.
  static double SprintedRemainingSeconds(const WorkloadSpec& spec,
                                         const SprintMechanism& mechanism,
                                         double progress,
                                         double sustained_total);
};

}  // namespace msprint

#endif  // MSPRINT_SRC_TESTBED_TESTBED_H_
