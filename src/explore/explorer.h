// Sprinting-policy space exploration (Section 4.2) and the baseline
// policies it is compared against (Section 4.3).
//
// The explorer runs simulated annealing over timeout settings, querying a
// PerformanceModel for the expected response time of each candidate
// (Equation 4), with the acceptance probability and Z-cooling schedule of
// Equation 5. Because predictions come from the model, thousands of
// policies can be compared without touching the live system.

#ifndef MSPRINT_SRC_EXPLORE_EXPLORER_H_
#define MSPRINT_SRC_EXPLORE_EXPLORER_H_

#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/evaluation.h"
#include "src/core/models.h"

namespace msprint {

struct ExploreConfig {
  double timeout_min_seconds = 0.0;
  double timeout_max_seconds = 300.0;
  // Neighbors are drawn uniformly from [t - range, t + range] (the paper
  // uses t_o - 100 .. t_o + 100).
  double neighbor_range_seconds = 100.0;
  size_t max_iterations = 300;
  // Equation 5's Z: starts at 1 and decays 10% per 100 settings explored.
  double initial_z = 1.0;
  double z_decay = 0.9;
  size_t z_decay_period = 100;
  uint64_t seed = 1234;
  // Independent annealing chains sharing the max_iterations budget: each
  // chain runs max_iterations / num_chains steps with its own RNG stream
  // and the best chain wins (ties broken by chain index, so the merge is
  // deterministic). Chain 0 uses `seed` directly, which makes num_chains=1
  // bit-identical to the original single-chain annealer.
  size_t num_chains = 1;
};

struct ExploreStep {
  double timeout_seconds;
  double predicted_response_time;
  bool accepted;
};

struct ExploreResult {
  double best_timeout_seconds = 0.0;
  double best_response_time = 0.0;
  std::vector<ExploreStep> trajectory;
};

// MINRT (Equation 4): finds the timeout minimizing the model's expected
// response time, holding the rest of `base` fixed. The model is prepared
// once around `base` (PerformanceModel::Prepare), so a simulating model
// draws its replications once and replays them at every step, on the
// shared pool (inline when the step's chain is itself one of its tasks).
// Chains run concurrently on `pool` (nullptr: the shared global pool) and
// share the prepared predictor read-only; the result is identical for any
// pool size. The returned trajectory concatenates the chains' steps in
// chain order. Non-finite model predictions are treated as infinitely bad
// candidates, so a partially broken model degrades the search instead of
// derailing it. Throws std::invalid_argument, naming the field, before any
// prediction when `config` has no iterations, no chains, a zero
// z_decay_period or a timeout range whose maximum lies below its minimum.
ExploreResult ExploreTimeout(const PerformanceModel& model,
                             const WorkloadProfile& profile,
                             const ModelInput& base,
                             const ExploreConfig& config,
                             ThreadPool* pool = nullptr);

// Joint budget+timeout search used by "model-driven budgeting/sprinting"
// (Section 4.4): for each candidate budget fraction, optionally optimizes
// the timeout, and returns the cheapest (smallest-budget) policy whose
// predicted response time meets `slo_response_time`. The budget does not
// enter the simulator's draws, so the model is prepared once for every
// fraction. With `optimize_timeout`, `explore_config` is checked as
// ExploreTimeout checks it.
struct BudgetSearchResult {
  bool feasible = false;
  double budget_fraction = 0.0;
  double timeout_seconds = 0.0;
  double predicted_response_time = 0.0;
};
BudgetSearchResult FindCheapestPolicyMeetingSlo(
    const PerformanceModel& model, const WorkloadProfile& profile,
    const ModelInput& base, const std::vector<double>& budget_fractions,
    double slo_response_time, bool optimize_timeout,
    const ExploreConfig& explore_config, ThreadPool* pool = nullptr);

// ------------------------------------------------------- Baseline policies

// Few-to-Many adaptation (Haque et al.), per Section 4.3: profiles marginal
// sprint rates offline, then picks the LARGEST timeout that still exhausts
// the sprinting budget — sprint the slowest queries, as many as the budget
// allows. Exhaustion is an offline expected-demand check from the profiled
// service-time distribution: with timeout t, a query is expected to spend
// (S - t)+ / speedup sprint-seconds, so the budget is exhausted while
//   lambda * E[(S - t)+] / speedup >= refill rate.
// The returned timeout is the largest t where that still holds.
double FewToManyTimeout(const WorkloadProfile& profile,
                        const ModelInput& base,
                        double timeout_max_seconds = 300.0,
                        double step_seconds = 5.0);

// Adrenaline adaptation (Hsu et al.), per Section 4.3: timeout at the 85th
// percentile of the non-sprinting response-time distribution.
double AdrenalineTimeout(const WorkloadProfile& profile,
                         const ModelInput& base, double percentile = 0.85,
                         uint64_t seed = 78);

}  // namespace msprint

#endif  // MSPRINT_SRC_EXPLORE_EXPLORER_H_
