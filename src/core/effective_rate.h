// Effective sprint rate calibration (Section 2.3, Equation 2).
//
// The effective sprint rate mu_e is the sprint rate that, fed to the
// timeout-aware queue simulator, makes the simulator's response time agree
// with the response time observed on the real system — the smallest
// absolute adjustment to the marginal rate mu_m that achieves tolerable
// error. It amortizes every runtime dynamic the simulator does not model
// (mid-execution sprint starts, toggle latency, queue state) into a single
// rate per (conditions, policy) point.

#ifndef MSPRINT_SRC_CORE_EFFECTIVE_RATE_H_
#define MSPRINT_SRC_CORE_EFFECTIVE_RATE_H_

#include <memory>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/model_input.h"
#include "src/sim/queue_simulator.h"

namespace msprint {

struct CalibrationConfig {
  // Relative response-time tolerance T of Equation 2.
  double tolerance = 0.01;
  // Search bounds on the effective speedup mu_e / mu, relative to the
  // marginal speedup. Equation 2's adjustment x may be negative, so the
  // effective rate can drop below the service rate (a sprint that slows
  // things down at runtime, e.g. via toggling costs on a saturated queue).
  double min_speedup = 0.5;
  double max_speedup_factor = 1.5;  // upper bound: factor * marginal speedup
  size_t bisection_iterations = 24;
  size_t sim_queries = 20000;
  size_t sim_warmup = 2000;
  size_t sim_replications = 2;
  uint64_t seed = 97;
};

// Simulation settings used when a response time comes from the queue
// simulator: `replications` runs of `num_queries` queries, the first
// `warmup` of each excluded. Defaults mirror CalibrationConfig —
// predictions reuse the same simulator component (and random streams)
// that calibration aligned against the observations.
struct PredictionSimConfig {
  size_t num_queries = 20000;
  size_t warmup = 2000;
  size_t replications = 2;
  uint64_t seed = 97;
};

// Why `sim` cannot give a simulated response time, or nullptr when it can:
// with no post-warmup query or no replication every mean reads 0. The one
// rule the models' constructors, the model reader and calibration (on its
// sim_* fields) apply.
const char* PredictionSimProblem(const PredictionSimConfig& sim);

// Builds the simulator configuration for (profile, input) at the given
// sprint speedup. `service` must outlive the returned config.
SimConfig BuildSimConfig(const WorkloadProfile& profile,
                         const ModelInput& input,
                         const Distribution& service, double speedup,
                         size_t num_queries, size_t warmup, uint64_t seed);

// Replicated simulation (DESIGN.md §12). A simulated response time is the
// mean over `sim.replications` common-random-number replications, or for
// a tail the quantile of their pooled response times. Replication r is
// seeded DeriveSeed(sim.seed, r) whatever the speedup or policy, so
// response time is monotone in the speedup rather than jittered by
// resampling. Replications run on ThreadPool::Global(): replication r
// writes only slot r and the slots merge in index order, so every value is
// the same for any pool size, whether the call fans out at top level or
// runs inline, nested in a pool task.

// Draw-then-replay, once. Each replication draws and runs in one task, so
// a thread holds one replication's draws at a time, as
// SimulateQueue(config) does.
double SimulatedResponseTime(const WorkloadProfile& profile,
                             const ModelInput& input,
                             const Distribution& service, double speedup,
                             const PredictionSimConfig& sim);
double SimulatedPercentile(const WorkloadProfile& profile,
                           const ModelInput& input,
                           const Distribution& service, double speedup,
                           const PredictionSimConfig& sim, double quantile);

// Calibration's settings: the same mean at `config`'s sim_* fields.
// Throws std::invalid_argument on sim_* settings that PredictionSimProblem
// rejects.
double SimulatedResponseTime(const WorkloadProfile& profile,
                             const ModelInput& input,
                             const Distribution& service, double speedup,
                             const CalibrationConfig& config);

// Throws std::invalid_argument when `input` changes `base`'s utilization
// or arrival kind, the two conditions a simulator draw depends on.
void CheckSameConditions(const ModelInput& base, const ModelInput& input);

// A base input's replications, drawn once, as Algorithm 1 draws a run
// ("before simulation begins"), and replayed at any speedup, timeout,
// budget and refill. A const value may be replayed from several threads
// at once.
class SimReplications {
 public:
  // Draws `base`'s replications, sampling service times from `service`.
  // `profile` and `service` must outlive the value.
  SimReplications(const WorkloadProfile& profile, const ModelInput& base,
                  const Distribution& service,
                  const PredictionSimConfig& sim);
  // The same, sampling the profile's service-time samples through an
  // EmpiricalDistribution the value holds. `profile` must outlive it.
  SimReplications(const WorkloadProfile& profile, const ModelInput& base,
                  const PredictionSimConfig& sim);

  // Bit for bit SimulatedResponseTime(profile, input, service, speedup,
  // sim). Throws (CheckSameConditions) for an `input` that changes the
  // base's utilization or arrival kind, rather than replay the draws under
  // the wrong arrival process.
  double MeanResponseTime(const ModelInput& input, double speedup) const;

 private:
  void Draw();

  const WorkloadProfile* profile_;
  std::unique_ptr<const EmpiricalDistribution> owned_service_;
  const Distribution* service_;
  ModelInput base_;
  PredictionSimConfig sim_;
  std::vector<SimDraws> draws_;
};

// Equation 2: returns the effective speedup mu_e / mu for one profiled
// observation. Monotonicity of response time in the sprint speedup makes a
// bisection search equivalent to the paper's increment/decrement walk, just
// faster. Throws std::invalid_argument, before any simulation runs, on
// sim_* settings that PredictionSimProblem rejects or a row whose observed
// mean is not positive.
double CalibrateEffectiveSpeedup(const WorkloadProfile& profile,
                                 const ProfileRow& row,
                                 const Distribution& service,
                                 const CalibrationConfig& config);

// Runs calibration for every row of `profile` in place, each row exactly
// as CalibrateEffectiveSpeedup would, and returns the number of rows
// calibrated. Rows that share a utilization and an arrival kind share
// their draws: each fixed chunk of such rows is drawn once and fanned out
// across `pool` (nullptr: the shared global pool), so the calibrated
// profile is identical for any pool size. Throws as
// CalibrateEffectiveSpeedup does, for any row, before any simulation runs.
size_t CalibrateProfile(WorkloadProfile& profile,
                        const CalibrationConfig& config,
                        ThreadPool* pool = nullptr);

}  // namespace msprint

#endif  // MSPRINT_SRC_CORE_EFFECTIVE_RATE_H_
