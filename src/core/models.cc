#include "src/core/models.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

namespace msprint {

namespace {

void CheckPredictionSim(const PredictionSimConfig& sim) {
  if (const char* problem = PredictionSimProblem(sim)) {
    throw std::invalid_argument(std::string("PredictionSimConfig.") +
                                problem);
  }
}

}  // namespace

PerformanceModel::Predictor PerformanceModel::Prepare(
    const WorkloadProfile& profile, const ModelInput& base) const {
  return [this, &profile, base](const ModelInput& input) {
    CheckSameConditions(base, input);
    return PredictResponseTime(profile, input);
  };
}

std::vector<double> PerformanceModel::PredictResponseTimeBatch(
    const WorkloadProfile& profile, const std::vector<ModelInput>& inputs,
    ThreadPool* pool) const {
  std::vector<double> out(inputs.size(), 0.0);
  ResolvePool(pool).ParallelFor(inputs.size(), [&](size_t i) {
    out[i] = PredictResponseTime(profile, inputs[i]);
  });
  return out;
}

Dataset BuildTrainingDataset(
    const std::vector<const WorkloadProfile*>& profiles,
    bool target_effective_rate) {
  Dataset data(ModelFeatureNames());
  for (const WorkloadProfile* profile : profiles) {
    const double mu_qph =
        profile->service_rate_per_second * kSecondsPerHour;
    for (const ProfileRow& row : profile->rows) {
      const ModelInput input = ModelInput::FromRow(row);
      const double target = target_effective_rate
                                ? row.effective_speedup * mu_qph
                                : row.observed_mean_response_time;
      data.Add(EncodeFeatures(*profile, input), target);
    }
  }
  return data;
}

// ------------------------------------------------------------------- No-ML

NoMlModel::NoMlModel(PredictionSimConfig sim) : sim_(sim) {
  CheckPredictionSim(sim_);
}

double NoMlModel::PredictResponseTime(const WorkloadProfile& profile,
                                      const ModelInput& input) const {
  const EmpiricalDistribution service(profile.service_time_samples);
  return SimulatedResponseTime(profile, input, service,
                               profile.MarginalSpeedup(), sim_);
}

PerformanceModel::Predictor NoMlModel::Prepare(const WorkloadProfile& profile,
                                               const ModelInput& base) const {
  auto replications =
      std::make_shared<const SimReplications>(profile, base, sim_);
  return [&profile, replications](const ModelInput& input) {
    return replications->MeanResponseTime(input, profile.MarginalSpeedup());
  };
}

double NoMlModel::PredictResponseTimePercentile(
    const WorkloadProfile& profile, const ModelInput& input,
    double quantile) const {
  const EmpiricalDistribution service(profile.service_time_samples);
  return SimulatedPercentile(profile, input, service,
                             profile.MarginalSpeedup(), sim_, quantile);
}

// ------------------------------------------------------------------ Hybrid

HybridModel HybridModel::Train(
    const std::vector<const WorkloadProfile*>& profiles,
    RandomForestConfig forest_config, PredictionSimConfig sim,
    ThreadPool* pool) {
  CheckPredictionSim(sim);
  const Dataset data =
      BuildTrainingDataset(profiles, /*target_effective_rate=*/true);
  if (data.NumRows() == 0) {
    throw std::invalid_argument("no calibrated rows to train on");
  }
  forest_config.anchor_feature = MarginalRateFeatureIndex();
  return HybridModel(RandomForest::Fit(data, forest_config, pool), sim);
}

double HybridModel::PredictEffectiveRateQph(const WorkloadProfile& profile,
                                            const ModelInput& input) const {
  return forest_.Predict(EncodeFeatures(profile, input));
}

double HybridModel::SprintSpeedup(const WorkloadProfile& profile,
                                  const ModelInput& input) const {
  const double mu_qph = profile.service_rate_per_second * kSecondsPerHour;
  const double mu_m_qph = profile.marginal_rate_per_second * kSecondsPerHour;
  // The simulator cannot extrapolate beyond the rates it supports
  // (Section 5): clamp to [0.5 * mu, 1.5 * mu_m].
  return std::clamp(PredictEffectiveRateQph(profile, input) / mu_qph, 0.5,
                    1.5 * mu_m_qph / mu_qph);
}

double HybridModel::PredictResponseTime(const WorkloadProfile& profile,
                                        const ModelInput& input) const {
  const EmpiricalDistribution service(profile.service_time_samples);
  return SimulatedResponseTime(profile, input, service,
                               SprintSpeedup(profile, input), sim_);
}

PerformanceModel::Predictor HybridModel::Prepare(
    const WorkloadProfile& profile, const ModelInput& base) const {
  auto replications =
      std::make_shared<const SimReplications>(profile, base, sim_);
  return [this, &profile, replications](const ModelInput& input) {
    return replications->MeanResponseTime(input,
                                          SprintSpeedup(profile, input));
  };
}

double HybridModel::PredictResponseTimePercentile(
    const WorkloadProfile& profile, const ModelInput& input,
    double quantile) const {
  const EmpiricalDistribution service(profile.service_time_samples);
  return SimulatedPercentile(profile, input, service,
                             SprintSpeedup(profile, input), sim_, quantile);
}

// -------------------------------------------------------------- ANN direct

AnnDirectModel AnnDirectModel::Train(
    const std::vector<const WorkloadProfile*>& profiles,
    NeuralNetConfig net_config) {
  const Dataset data =
      BuildTrainingDataset(profiles, /*target_effective_rate=*/false);
  if (data.NumRows() == 0) {
    throw std::invalid_argument("no rows to train on");
  }
  return AnnDirectModel(NeuralNet::Fit(data, net_config));
}

double AnnDirectModel::PredictResponseTime(const WorkloadProfile& profile,
                                           const ModelInput& input) const {
  // Response times are positive; the net's linear output is not guaranteed
  // to be. Floor at a millisecond.
  return std::max(1e-3, net_.Predict(EncodeFeatures(profile, input)));
}

// ------------------------------------------------------------- persistence

void SerializePredictionSimConfig(const PredictionSimConfig& sim,
                                  persist::Writer& w) {
  w.PutU64(sim.num_queries);
  w.PutU64(sim.warmup);
  w.PutU64(sim.replications);
  w.PutU64(sim.seed);
}

PredictionSimConfig DeserializePredictionSimConfig(persist::Reader& r) {
  PredictionSimConfig sim;
  sim.num_queries = static_cast<size_t>(r.GetU64());
  sim.warmup = static_cast<size_t>(r.GetU64());
  sim.replications = static_cast<size_t>(r.GetU64());
  sim.seed = r.GetU64();
  if (PredictionSimProblem(sim) != nullptr) {
    throw persist::PersistError(persist::ErrorCode::kFormat,
                                "implausible prediction-sim settings");
  }
  return sim;
}

void HybridModel::Serialize(persist::Writer& w) const {
  forest_.Serialize(w);
  SerializePredictionSimConfig(sim_, w);
}

HybridModel HybridModel::Deserialize(persist::Reader& r) {
  RandomForest forest =
      RandomForest::Deserialize(r, ModelFeatureNames().size());
  const PredictionSimConfig sim = DeserializePredictionSimConfig(r);
  return HybridModel(std::move(forest), sim);
}

void AnnDirectModel::Serialize(persist::Writer& w) const {
  net_.Serialize(w);
}

AnnDirectModel AnnDirectModel::Deserialize(persist::Reader& r) {
  NeuralNet net = NeuralNet::Deserialize(r);
  if (net.input_width() != ModelFeatureNames().size()) {
    throw persist::PersistError(
        persist::ErrorCode::kFormat,
        "network input width does not match the feature vocabulary");
  }
  return AnnDirectModel(std::move(net));
}

}  // namespace msprint
