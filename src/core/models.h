// The three performance-modeling approaches of Table 1(A):
//
//   Hybrid  — the paper's contribution: a random decision forest predicts
//             the effective sprint rate from workload conditions and policy
//             parameters, and the timeout-aware queue simulator turns that
//             rate into a response-time prediction.
//   ANN     — direct mapping: a from-scratch multi-layer neural network
//             maps the same inputs straight to response time.
//   No-ML   — the simulator alone, fed the marginal sprint rate.
//
// All three share the PerformanceModel interface so the explorer and the
// evaluation harness are model-agnostic.

#ifndef MSPRINT_SRC_CORE_MODELS_H_
#define MSPRINT_SRC_CORE_MODELS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/effective_rate.h"
#include "src/core/model_input.h"
#include "src/ml/neural_net.h"
#include "src/ml/random_forest.h"

namespace msprint {

// Persistence for the simulation settings (PredictionSimConfig, in
// effective_rate.h) embedded in saved models; the seed round-trips
// exactly, so a restored model replays the same simulation streams.
// Loading rejects the settings HybridModel::Train and NoMlModel reject:
// zero queries or replications, or a warmup that leaves no query.
void SerializePredictionSimConfig(const PredictionSimConfig& sim,
                                  persist::Writer& w);
PredictionSimConfig DeserializePredictionSimConfig(persist::Reader& r);

class PerformanceModel {
 public:
  virtual ~PerformanceModel() = default;

  virtual std::string name() const = 0;

  // Expected mean response time for `input` on the workload that `profile`
  // characterizes. Implementations must be safe to call concurrently on a
  // const model — batched prediction and the multi-chain explorer rely on
  // that.
  virtual double PredictResponseTime(const WorkloadProfile& profile,
                                     const ModelInput& input) const = 0;

  // A prepared prediction: PredictResponseTime(profile, input) bit for bit,
  // for inputs that keep the prepared base's utilization and arrival kind.
  // It throws std::invalid_argument for an input that changes either. The
  // caller owns it; it reads the model and `profile`, which must outlive
  // it, and may be called from several threads at once.
  using Predictor = std::function<double(const ModelInput&)>;

  // Prepares predictions around `base` for a caller that holds the
  // conditions fixed and varies only the policy — the explorer's timeouts,
  // the budget search's fractions. Models that simulate draw `base`'s
  // replications here, once, and replay them at every call (DESIGN.md
  // §12); the default forwards each call to PredictResponseTime.
  virtual Predictor Prepare(const WorkloadProfile& profile,
                            const ModelInput& base) const;

  // Predicts every input in one call, fanning out across `pool` (nullptr:
  // the shared global pool). Inputs are independent, so the batch equals
  // calling PredictResponseTime in a loop for any pool size.
  std::vector<double> PredictResponseTimeBatch(
      const WorkloadProfile& profile, const std::vector<ModelInput>& inputs,
      ThreadPool* pool = nullptr) const;
};

// ----------------------------------------------------------------- No-ML

class NoMlModel final : public PerformanceModel {
 public:
  // Throws std::invalid_argument for settings the model reader rejects.
  explicit NoMlModel(PredictionSimConfig sim = {});

  std::string name() const override { return "No-ML"; }
  double PredictResponseTime(const WorkloadProfile& profile,
                             const ModelInput& input) const override;
  Predictor Prepare(const WorkloadProfile& profile,
                    const ModelInput& base) const override;

  // Tail prediction: the q-quantile of the simulated response-time
  // distribution at the marginal sprint rate.
  double PredictResponseTimePercentile(const WorkloadProfile& profile,
                                       const ModelInput& input,
                                       double quantile) const;

 private:
  PredictionSimConfig sim_;
};

// ---------------------------------------------------------------- Hybrid

class HybridModel final : public PerformanceModel {
 public:
  // Trains the forest on the calibrated rows of `profiles` (each row's
  // effective_speedup must already be set by CalibrateProfile). Trees grow
  // concurrently on `pool` (nullptr: the shared global pool). Throws
  // std::invalid_argument for `sim` settings the model reader rejects.
  static HybridModel Train(
      const std::vector<const WorkloadProfile*>& profiles,
      RandomForestConfig forest_config = {}, PredictionSimConfig sim = {},
      ThreadPool* pool = nullptr);

  std::string name() const override { return "Hybrid"; }
  double PredictResponseTime(const WorkloadProfile& profile,
                             const ModelInput& input) const override;
  Predictor Prepare(const WorkloadProfile& profile,
                    const ModelInput& base) const override;

  // The forest's raw effective-rate prediction (qph), for inspection.
  double PredictEffectiveRateQph(const WorkloadProfile& profile,
                                 const ModelInput& input) const;

  // Tail prediction: the q-quantile of the simulated response-time
  // distribution at the learned effective sprint rate. Sprinting "shrinks
  // the tail" (Section 4.4); this exposes that directly.
  double PredictResponseTimePercentile(const WorkloadProfile& profile,
                                       const ModelInput& input,
                                       double quantile) const;

  // Appends the trained model to `w`; round trips are bit-exact, so a
  // restored model predicts byte-identically.
  void Serialize(persist::Writer& w) const;
  // Rebuilds a model written by Serialize, revalidating the forest against
  // the canonical feature vocabulary (ModelFeatureNames). Throws
  // persist::PersistError on malformed input.
  static HybridModel Deserialize(persist::Reader& r);

 private:
  HybridModel(RandomForest forest, PredictionSimConfig sim)
      : forest_(std::move(forest)), sim_(sim) {}

  // The forest's rate as a speedup, clamped to what the simulator supports.
  double SprintSpeedup(const WorkloadProfile& profile,
                       const ModelInput& input) const;

  RandomForest forest_;
  PredictionSimConfig sim_;
};

// ------------------------------------------------------------ ANN direct

class AnnDirectModel final : public PerformanceModel {
 public:
  static AnnDirectModel Train(
      const std::vector<const WorkloadProfile*>& profiles,
      NeuralNetConfig net_config = {});

  std::string name() const override { return "ANN"; }
  double PredictResponseTime(const WorkloadProfile& profile,
                             const ModelInput& input) const override;

  // Appends the trained model to `w`; round trips are bit-exact.
  void Serialize(persist::Writer& w) const;
  // Rebuilds a model written by Serialize; the network's input width must
  // match the canonical feature vocabulary. Throws persist::PersistError.
  static AnnDirectModel Deserialize(persist::Reader& r);

 private:
  explicit AnnDirectModel(NeuralNet net) : net_(std::move(net)) {}

  NeuralNet net_;
};

// Builds the training dataset used by both learned models. Exposed for
// tests and ablation benches: target_effective_rate selects the hybrid
// target (mu_e, qph) vs the ANN target (observed response time, seconds).
Dataset BuildTrainingDataset(
    const std::vector<const WorkloadProfile*>& profiles,
    bool target_effective_rate);

}  // namespace msprint

#endif  // MSPRINT_SRC_CORE_MODELS_H_
