#include "src/core/effective_rate.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/common/thread_pool.h"

namespace msprint {

SimConfig BuildSimConfig(const WorkloadProfile& profile,
                         const ModelInput& input,
                         const Distribution& service, double speedup,
                         size_t num_queries, size_t warmup, uint64_t seed) {
  SimConfig config;
  config.arrival_rate_per_second =
      input.utilization * profile.service_rate_per_second;
  config.arrival_kind = input.arrival_kind;
  config.service = &service;
  config.sprint_speedup = std::max(0.05, speedup);
  config.timeout_seconds = input.timeout_seconds;
  config.budget_capacity_seconds =
      input.budget_fraction * input.refill_seconds;
  config.budget_refill_seconds = input.refill_seconds;
  config.slots = 1;
  config.num_queries = num_queries;
  config.warmup_queries = warmup;
  config.seed = seed;
  return config;
}

namespace {

// Replication `rep`'s configuration: the seed depends on the replication
// index only (common random numbers).
SimConfig ReplicationConfig(const WorkloadProfile& profile,
                            const ModelInput& input,
                            const Distribution& service, double speedup,
                            const PredictionSimConfig& sim, size_t rep) {
  return BuildSimConfig(profile, input, service, speedup, sim.num_queries,
                        sim.warmup, DeriveSeed(sim.seed, rep));
}

// Runs every replication r on the shared pool and merges the slots in
// index order: `mean_of(r)`, replication r's mean response time, into one
// StreamingStats, or `run(r)`'s response times into one concatenation for
// the quantile. A slot keeps only what its merge reads.
double MeanOfReplications(size_t replications,
                          const std::function<double(size_t)>& mean_of) {
  std::vector<double> means(replications);
  ThreadPool::Global().ParallelFor(
      replications, [&](size_t r) { means[r] = mean_of(r); });
  StreamingStats stats;
  for (double mean : means) {
    stats.Add(mean);
  }
  return stats.mean();
}

double PooledPercentile(size_t replications,
                        const std::function<SimResult(size_t)>& run,
                        double quantile) {
  std::vector<std::vector<double>> times(replications);
  ThreadPool::Global().ParallelFor(replications, [&](size_t r) {
    times[r] = std::move(run(r).response_times);
  });
  std::vector<double> pooled;
  for (const std::vector<double>& replication : times) {
    pooled.insert(pooled.end(), replication.begin(), replication.end());
  }
  return Quantile(std::move(pooled), quantile);
}

// Calibration's simulation settings. Throws std::invalid_argument, naming
// the field, on settings no simulation can run: with no post-warmup query
// or no replication every mean reads 0, and the search would silently
// clamp each row to min_speedup.
PredictionSimConfig SimSettings(const CalibrationConfig& config) {
  const PredictionSimConfig sim{config.sim_queries, config.sim_warmup,
                                config.sim_replications, config.seed};
  if (const char* problem = PredictionSimProblem(sim)) {
    throw std::invalid_argument(
        std::string("CalibrationConfig sim settings: ") + problem);
  }
  return sim;
}

}  // namespace

const char* PredictionSimProblem(const PredictionSimConfig& sim) {
  if (sim.num_queries == 0) {
    return "num_queries must be at least 1";
  }
  if (sim.replications == 0) {
    return "replications must be at least 1";
  }
  if (sim.warmup >= sim.num_queries) {
    return "warmup must be below num_queries";
  }
  return nullptr;
}

double SimulatedResponseTime(const WorkloadProfile& profile,
                             const ModelInput& input,
                             const Distribution& service, double speedup,
                             const PredictionSimConfig& sim) {
  return MeanOfReplications(sim.replications, [&](size_t r) {
    const SimConfig config =
        ReplicationConfig(profile, input, service, speedup, sim, r);
    return SimulateQueueMean(config, DrawSimQueries(config));
  });
}

double SimulatedPercentile(const WorkloadProfile& profile,
                           const ModelInput& input,
                           const Distribution& service, double speedup,
                           const PredictionSimConfig& sim, double quantile) {
  return PooledPercentile(
      sim.replications,
      [&](size_t r) {
        return SimulateQueue(
            ReplicationConfig(profile, input, service, speedup, sim, r));
      },
      quantile);
}

double SimulatedResponseTime(const WorkloadProfile& profile,
                             const ModelInput& input,
                             const Distribution& service, double speedup,
                             const CalibrationConfig& config) {
  return SimulatedResponseTime(profile, input, service, speedup,
                               SimSettings(config));
}

void CheckSameConditions(const ModelInput& base, const ModelInput& input) {
  if (input.utilization != base.utilization ||
      input.arrival_kind != base.arrival_kind) {
    throw std::invalid_argument(
        "the input changes the prepared utilization or arrival kind");
  }
}

SimReplications::SimReplications(const WorkloadProfile& profile,
                                 const ModelInput& base,
                                 const Distribution& service,
                                 const PredictionSimConfig& sim)
    : profile_(&profile), service_(&service), base_(base), sim_(sim) {
  Draw();
}

SimReplications::SimReplications(const WorkloadProfile& profile,
                                 const ModelInput& base,
                                 const PredictionSimConfig& sim)
    : profile_(&profile),
      owned_service_(std::make_unique<const EmpiricalDistribution>(
          profile.service_time_samples)),
      service_(owned_service_.get()),
      base_(base),
      sim_(sim) {
  Draw();
}

void SimReplications::Draw() {
  // The draws never depend on the speedup; any value serves.
  draws_.resize(sim_.replications);
  ThreadPool::Global().ParallelFor(draws_.size(), [&](size_t r) {
    draws_[r] = DrawSimQueries(
        ReplicationConfig(*profile_, base_, *service_, 1.0, sim_, r));
  });
}

double SimReplications::MeanResponseTime(const ModelInput& input,
                                         double speedup) const {
  CheckSameConditions(base_, input);
  return MeanOfReplications(draws_.size(), [&](size_t r) {
    return SimulateQueueMean(
        ReplicationConfig(*profile_, input, *service_, speedup, sim_, r),
        draws_[r]);
  });
}

namespace {

// Throws unless `row` has the positive observed mean that Equation 2's
// relative error divides by; a zero or negative mean would silently clamp
// the row to a search bound.
void CheckObservedMean(const ProfileRow& row) {
  if (!(row.observed_mean_response_time > 0.0)) {
    throw std::invalid_argument(
        "CalibrateEffectiveSpeedup: observed mean response time must be "
        "positive");
  }
}

// Equation 2's search for one checked row, replaying `replications`, which
// were drawn for the row's utilization and arrival kind.
double SearchEffectiveSpeedup(const WorkloadProfile& profile,
                              const ProfileRow& row,
                              const SimReplications& replications,
                              const CalibrationConfig& config) {
  const ModelInput input = ModelInput::FromRow(row);
  const double observed = row.observed_mean_response_time;
  const double marginal = std::max(1.0, profile.MarginalSpeedup());

  auto error_at = [&](double speedup) {
    const double rt = replications.MeanResponseTime(input, speedup);
    return (rt - observed) / observed;  // >0: sim too slow -> raise speedup
  };

  // Equation 2 prefers the smallest change from mu_m: accept the marginal
  // rate outright when it is already within tolerance.
  const double err_marginal = error_at(marginal);
  if (std::abs(err_marginal) <= config.tolerance) {
    return marginal;
  }

  double lo = config.min_speedup;
  double hi = marginal * config.max_speedup_factor;
  // Response time decreases in speedup. err(lo) should be >= 0 (sim slow
  // or equal) and err(hi) <= 0; clamp when the observed value is outside
  // the achievable range.
  const double err_lo = error_at(lo);
  if (err_lo <= 0.0) {
    // Even with no sprinting the simulator is slower than the observation;
    // the closest admissible speedup is the lower bound.
    return lo;
  }
  const double err_hi = error_at(hi);
  if (err_hi >= 0.0) {
    return hi;
  }

  for (size_t iter = 0; iter < config.bisection_iterations; ++iter) {
    const double mid = 0.5 * (lo + hi);
    const double err = error_at(mid);
    if (std::abs(err) <= config.tolerance) {
      return mid;
    }
    if (err > 0.0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

// The most rows of one draw key that CalibrateProfile calibrates on one
// draw. Larger chunks draw less often but leave fewer chunks to spread
// over the pool: at 4 threads, 4 rows beat 8 on 280- and 40-row profiles,
// and at 1 thread they lost under 10%.
constexpr size_t kRowsPerDraw = 4;

}  // namespace

double CalibrateEffectiveSpeedup(const WorkloadProfile& profile,
                                 const ProfileRow& row,
                                 const Distribution& service,
                                 const CalibrationConfig& config) {
  const PredictionSimConfig sim = SimSettings(config);
  CheckObservedMean(row);
  const SimReplications replications(profile, ModelInput::FromRow(row),
                                     service, sim);
  return SearchEffectiveSpeedup(profile, row, replications, config);
}

size_t CalibrateProfile(WorkloadProfile& profile,
                        const CalibrationConfig& config, ThreadPool* pool) {
  const PredictionSimConfig sim = SimSettings(config);
  std::vector<ProfileRow>& rows = profile.rows;
  for (const ProfileRow& row : rows) {
    CheckObservedMean(row);
  }
  const EmpiricalDistribution service(profile.service_time_samples);

  // A draw depends only on the utilization and the arrival kind
  // (CheckSameConditions). Order the rows by that key, comparing the
  // utilization's bits so that a NaN cannot break the order, and cut each
  // key's run into chunks of at most kRowsPerDraw rows. The chunks depend
  // only on the rows, never on the pool.
  auto key = [&](size_t i) {
    return std::pair(std::bit_cast<uint64_t>(rows[i].utilization),
                     rows[i].arrival_kind);
  };
  std::vector<size_t> order(rows.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return key(a) < key(b); });
  // Chunk c is order[chunk_begin[c], chunk_begin[c + 1]).
  std::vector<size_t> chunk_begin;
  for (size_t k = 0; k < order.size(); ++k) {
    if (k == 0 || key(order[k]) != key(order[k - 1]) ||
        k - chunk_begin.back() == kRowsPerDraw) {
      chunk_begin.push_back(k);
    }
  }
  chunk_begin.push_back(order.size());

  // A participant holds one chunk's draws at a time, as it held one row's
  // before, and each row's search replays exactly the draws it would make
  // alone, so every row keeps its bits.
  ResolvePool(pool).ParallelFor(
      chunk_begin.size() - 1,
      [&](size_t c) {
        const SimReplications replications(
            profile, ModelInput::FromRow(rows[order[chunk_begin[c]]]),
            service, sim);
        for (size_t k = chunk_begin[c]; k < chunk_begin[c + 1]; ++k) {
          ProfileRow& row = rows[order[k]];
          row.effective_speedup =
              SearchEffectiveSpeedup(profile, row, replications, config);
        }
      },
      /*grain=*/1);
  return rows.size();
}

}  // namespace msprint
