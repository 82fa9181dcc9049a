#include "src/explore/explorer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "src/obs/obs.h"

namespace msprint {

namespace {

// Throws std::invalid_argument naming the first field of `config` that no
// exploration can run with.
void CheckExploreConfig(const ExploreConfig& config) {
  auto reject = [](const char* rule) {
    throw std::invalid_argument(std::string("ExploreConfig.") + rule);
  };
  if (config.max_iterations == 0) {
    reject("max_iterations must be at least 1");
  }
  if (config.num_chains == 0) {
    reject("num_chains must be at least 1");
  }
  if (config.z_decay_period == 0) {
    reject("z_decay_period must be at least 1");
  }
  if (!(config.timeout_max_seconds >= config.timeout_min_seconds)) {
    reject("timeout_max_seconds must not be below timeout_min_seconds");
  }
}

// One annealing chain: the original serial algorithm, parameterized on its
// own seed and iteration budget.
ExploreResult RunChain(const PerformanceModel::Predictor& predictor,
                       const ModelInput& base, const ExploreConfig& config,
                       uint64_t seed, size_t max_iterations) {
  Rng rng(seed);
  auto predict = [&](double timeout) {
    ModelInput input = base;
    input.timeout_seconds = timeout;
    const double rt = predictor(input);
    // A NaN prediction would poison best-so-far tracking permanently (NaN
    // comparisons are all false); treat any non-finite prediction as an
    // infinitely bad candidate instead.
    return std::isfinite(rt) ? rt : std::numeric_limits<double>::infinity();
  };
  auto random_timeout = [&]() {
    return config.timeout_min_seconds +
           (config.timeout_max_seconds - config.timeout_min_seconds) *
               rng.NextDouble();
  };

  ExploreResult result;

  // Step 1: random initial timeout t_o.
  double current_timeout = random_timeout();
  double current_rt = predict(current_timeout);
  result.best_timeout_seconds = current_timeout;
  result.best_response_time = current_rt;
  result.trajectory.push_back({current_timeout, current_rt, true});

  double z = config.initial_z;
  for (size_t iter = 1; iter < max_iterations; ++iter) {
    // Step 2: neighboring timeout t_n from [t_o - range, t_o + range].
    const double neighbor = std::clamp(
        current_timeout +
            (2.0 * rng.NextDouble() - 1.0) * config.neighbor_range_seconds,
        config.timeout_min_seconds, config.timeout_max_seconds);
    const double neighbor_rt = predict(neighbor);

    // Step 3: accept improvements outright; otherwise accept with
    // probability exp((RT_o - RT_n) / Z)  (Equation 5).
    bool accept = neighbor_rt < current_rt;
    if (!accept) {
      const double probability =
          std::exp((current_rt - neighbor_rt) / std::max(1e-9, z));
      accept = rng.NextDouble() < probability;
    }
    result.trajectory.push_back({neighbor, neighbor_rt, accept});
    // Counters only: chains run on pool workers, where flight-recorder
    // events would be scheduling-ordered. Events come post-merge below.
    if (accept) {
      obs::Count("explore/accepted");
      current_timeout = neighbor;
      current_rt = neighbor_rt;
    } else {
      obs::Count("explore/rejected");
    }
    if (current_rt < result.best_response_time) {
      result.best_response_time = current_rt;
      result.best_timeout_seconds = current_timeout;
    }
    // Z decreases 10% per z_decay_period settings explored.
    if (iter % config.z_decay_period == 0) {
      z *= config.z_decay;
    }
  }
  return result;
}

// ExploreTimeout's search for a `config` already checked, on a
// `predictor` prepared for `base`'s conditions.
ExploreResult Explore(const PerformanceModel::Predictor& predictor,
                      const ModelInput& base, const ExploreConfig& config,
                      ThreadPool* pool) {
  const size_t chains = config.num_chains;
  obs::Count("explore/explorations");
  if (chains == 1) {
    ExploreResult result = RunChain(predictor, base, config, config.seed,
                                    config.max_iterations);
    obs::Emit(0.0, obs::EventKind::kExploreDone, obs::Subsystem::kExplore,
              obs::Severity::kInfo, 1, result.best_timeout_seconds);
    return result;
  }
  // Chains split the evaluation budget, so wall-clock shrinks with cores
  // while the number of model queries stays put.
  const size_t per_chain = std::max<size_t>(1, config.max_iterations / chains);
  std::vector<ExploreResult> results(chains);
  ResolvePool(pool).ParallelFor(
      chains,
      [&](size_t c) {
        const uint64_t seed =
            c == 0 ? config.seed : DeriveSeed(config.seed, c);
        results[c] = RunChain(predictor, base, config, seed, per_chain);
      },
      /*grain=*/1);

  size_t best = 0;
  for (size_t c = 1; c < chains; ++c) {
    if (results[c].best_response_time < results[best].best_response_time) {
      best = c;
    }
  }
  ExploreResult merged;
  merged.best_timeout_seconds = results[best].best_timeout_seconds;
  merged.best_response_time = results[best].best_response_time;
  for (size_t c = 0; c < chains; ++c) {
    const auto& chain = results[c];
    merged.trajectory.insert(merged.trajectory.end(),
                             chain.trajectory.begin(),
                             chain.trajectory.end());
    // Emitted here, after the deterministic slot-order merge — never from
    // inside the racing chains themselves.
    obs::Emit(0.0, obs::EventKind::kChainStep, obs::Subsystem::kExplore,
              obs::Severity::kDebug, c, chain.best_response_time);
  }
  obs::Emit(0.0, obs::EventKind::kExploreDone, obs::Subsystem::kExplore,
            obs::Severity::kInfo, chains, merged.best_timeout_seconds);
  return merged;
}

}  // namespace

ExploreResult ExploreTimeout(const PerformanceModel& model,
                             const WorkloadProfile& profile,
                             const ModelInput& base,
                             const ExploreConfig& config, ThreadPool* pool) {
  CheckExploreConfig(config);
  // Prepared before the chains fan out; they share it read-only.
  return Explore(model.Prepare(profile, base), base, config, pool);
}

BudgetSearchResult FindCheapestPolicyMeetingSlo(
    const PerformanceModel& model, const WorkloadProfile& profile,
    const ModelInput& base, const std::vector<double>& budget_fractions,
    double slo_response_time, bool optimize_timeout,
    const ExploreConfig& explore_config, ThreadPool* pool) {
  if (optimize_timeout) {
    CheckExploreConfig(explore_config);
  }
  std::vector<double> fractions = budget_fractions;
  std::sort(fractions.begin(), fractions.end());
  // The budget does not enter the simulator's draws, so one prepared
  // predictor serves every fraction and every timeout.
  const PerformanceModel::Predictor predictor = model.Prepare(profile, base);

  BudgetSearchResult best;
  for (double fraction : fractions) {
    ModelInput input = base;
    input.budget_fraction = fraction;
    double timeout = base.timeout_seconds;
    double rt;
    if (optimize_timeout) {
      const ExploreResult explored =
          Explore(predictor, input, explore_config, pool);
      timeout = explored.best_timeout_seconds;
      rt = explored.best_response_time;
    } else {
      rt = predictor(input);
    }
    if (rt <= slo_response_time) {
      best.feasible = true;
      best.budget_fraction = fraction;
      best.timeout_seconds = timeout;
      best.predicted_response_time = rt;
      return best;  // fractions ascend; first hit is cheapest
    }
  }
  return best;
}

double FewToManyTimeout(const WorkloadProfile& profile,
                        const ModelInput& base, double timeout_max_seconds,
                        double step_seconds) {
  const double speedup = std::max(1.0, profile.MarginalSpeedup());
  const double lambda =
      base.utilization * profile.service_rate_per_second;
  // Refill rate of the token bucket, in sprint-seconds per second.
  const double supply = base.budget_fraction;
  const auto& samples = profile.service_time_samples;

  auto sprint_demand = [&](double timeout) {
    // Expected sprint-seconds per query with timeout t: the work past the
    // timeout runs at the sprint rate, costing (S - t)+ / speedup credits.
    double expectation = 0.0;
    for (double s : samples) {
      expectation += std::max(0.0, s - timeout);
    }
    expectation /= static_cast<double>(samples.size());
    return lambda * expectation / speedup;
  };

  // Demand shrinks as the timeout grows; return the largest timeout whose
  // expected demand still exhausts the refill.
  for (double timeout = timeout_max_seconds; timeout >= 0.0;
       timeout -= step_seconds) {
    if (sprint_demand(timeout) >= supply) {
      return timeout;
    }
  }
  return 0.0;
}

double AdrenalineTimeout(const WorkloadProfile& profile,
                         const ModelInput& base, double percentile,
                         uint64_t seed) {
  // Adrenaline sets its boost threshold from the latency distribution of
  // normal (unthrottled, non-sprinting) operation: queries that outlive
  // the 85th percentile of ordinary response times get boosted. Ordinary
  // operation corresponds to executions at the marginal (full-machine)
  // rate with the queue-manager sprinting disabled.
  const EmpiricalDistribution service(profile.service_time_samples);
  ModelInput input = base;
  input.timeout_seconds = 0.0;  // every execution runs at the full rate
  SimConfig config =
      BuildSimConfig(profile, input, service,
                     std::max(1.0, profile.MarginalSpeedup()), 6000, 600,
                     seed);
  config.budget_capacity_seconds = 1e12;  // the full rate is the baseline
  config.budget_refill_seconds = 1.0;
  const SimResult result = SimulateQueue(config);
  return result.PercentileResponseTime(percentile);
}

}  // namespace msprint
