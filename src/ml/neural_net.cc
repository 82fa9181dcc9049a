#include "src/ml/neural_net.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "src/common/rng.h"

namespace msprint {

namespace {

double Tanh(double x) { return std::tanh(x); }
double TanhDerivFromOutput(double y) { return 1.0 - y * y; }

}  // namespace

std::vector<double> NeuralNet::Forward(
    const std::vector<double>& input,
    std::vector<std::vector<double>>* activations) const {
  std::vector<double> current = input;
  if (activations != nullptr) {
    activations->clear();
    activations->push_back(current);
  }
  for (size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    std::vector<double> next(layer.out, 0.0);
    for (size_t o = 0; o < layer.out; ++o) {
      double acc = layer.bias[o];
      const double* w = &layer.weights[o * layer.in];
      for (size_t i = 0; i < layer.in; ++i) {
        acc += w[i] * current[i];
      }
      // Hidden layers are tanh; the final layer is linear.
      next[o] = (l + 1 == layers_.size()) ? acc : Tanh(acc);
    }
    current = std::move(next);
    if (activations != nullptr) {
      activations->push_back(current);
    }
  }
  return current;
}

NeuralNet NeuralNet::Fit(const Dataset& data, const NeuralNetConfig& config) {
  if (data.NumRows() == 0) {
    throw std::invalid_argument("cannot fit ANN on empty dataset");
  }
  NeuralNet net;
  net.standardization_ = data.ComputeStandardization();
  const auto& std_info = net.standardization_;

  Rng rng(config.seed);

  // Build layers: features -> hidden... -> 1.
  std::vector<size_t> sizes;
  sizes.push_back(data.NumFeatures());
  for (size_t h : config.hidden_layers) {
    sizes.push_back(h);
  }
  sizes.push_back(1);
  for (size_t l = 0; l + 1 < sizes.size(); ++l) {
    Layer layer;
    layer.in = sizes[l];
    layer.out = sizes[l + 1];
    layer.weights.resize(layer.in * layer.out);
    layer.bias.assign(layer.out, 0.0);
    const double scale =
        std::sqrt(2.0 / static_cast<double>(layer.in + layer.out));
    for (auto& w : layer.weights) {
      w = rng.NextGaussian() * scale;
    }
    net.layers_.push_back(std::move(layer));
  }

  // Standardize the training set once.
  const size_t n = data.NumRows();
  const size_t f = data.NumFeatures();
  std::vector<std::vector<double>> inputs(n, std::vector<double>(f));
  std::vector<double> targets(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < f; ++j) {
      inputs[i][j] =
          (data.Row(i)[j] - std_info.feature_mean[j]) / std_info.feature_std[j];
    }
    targets[i] = (data.Target(i) - std_info.target_mean) /
                 std_info.target_std;
  }

  // Momentum buffers.
  std::vector<std::vector<double>> weight_velocity(net.layers_.size());
  std::vector<std::vector<double>> bias_velocity(net.layers_.size());
  for (size_t l = 0; l < net.layers_.size(); ++l) {
    weight_velocity[l].assign(net.layers_[l].weights.size(), 0.0);
    bias_velocity[l].assign(net.layers_[l].bias.size(), 0.0);
  }

  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  std::vector<std::vector<double>> activations;
  std::vector<std::vector<double>> deltas(net.layers_.size());

  double epoch_mse = 0.0;
  for (size_t epoch = 0; epoch < config.epochs; ++epoch) {
    // Shuffle.
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextBounded(i)]);
    }
    epoch_mse = 0.0;
    const size_t batch = std::max<size_t>(1, config.batch_size);
    for (size_t pos = 0; pos < n; pos += batch) {
      const size_t end = std::min(n, pos + batch);
      // Gradient accumulators for the batch.
      std::vector<std::vector<double>> grad_w(net.layers_.size());
      std::vector<std::vector<double>> grad_b(net.layers_.size());
      for (size_t l = 0; l < net.layers_.size(); ++l) {
        grad_w[l].assign(net.layers_[l].weights.size(), 0.0);
        grad_b[l].assign(net.layers_[l].bias.size(), 0.0);
      }
      for (size_t bi = pos; bi < end; ++bi) {
        const size_t i = order[bi];
        const auto output = net.Forward(inputs[i], &activations);
        const double err = output[0] - targets[i];
        epoch_mse += err * err;

        // Backprop. deltas[l] is dLoss/d(pre-activation of layer l output).
        for (size_t l = net.layers_.size(); l-- > 0;) {
          const Layer& layer = net.layers_[l];
          deltas[l].assign(layer.out, 0.0);
          if (l + 1 == net.layers_.size()) {
            deltas[l][0] = err;  // linear output
          } else {
            const Layer& above = net.layers_[l + 1];
            for (size_t o = 0; o < layer.out; ++o) {
              double acc = 0.0;
              for (size_t k = 0; k < above.out; ++k) {
                acc += above.weights[k * above.in + o] * deltas[l + 1][k];
              }
              deltas[l][o] =
                  acc * TanhDerivFromOutput(activations[l + 1][o]);
            }
          }
          const auto& input = activations[l];
          for (size_t o = 0; o < layer.out; ++o) {
            const double d = deltas[l][o];
            grad_b[l][o] += d;
            double* gw = &grad_w[l][o * layer.in];
            for (size_t k = 0; k < layer.in; ++k) {
              gw[k] += d * input[k];
            }
          }
        }
      }
      // Apply batch update with momentum and L2.
      const double inv_batch = 1.0 / static_cast<double>(end - pos);
      for (size_t l = 0; l < net.layers_.size(); ++l) {
        Layer& layer = net.layers_[l];
        for (size_t w = 0; w < layer.weights.size(); ++w) {
          const double g =
              grad_w[l][w] * inv_batch + config.l2 * layer.weights[w];
          weight_velocity[l][w] =
              config.momentum * weight_velocity[l][w] -
              config.learning_rate * g;
          layer.weights[w] += weight_velocity[l][w];
        }
        for (size_t b = 0; b < layer.bias.size(); ++b) {
          const double g = grad_b[l][b] * inv_batch;
          bias_velocity[l][b] = config.momentum * bias_velocity[l][b] -
                                config.learning_rate * g;
          layer.bias[b] += bias_velocity[l][b];
        }
      }
    }
    epoch_mse /= static_cast<double>(n);
  }
  net.final_training_mse_ = epoch_mse;
  return net;
}

double NeuralNet::Predict(const std::vector<double>& features) const {
  if (features.size() != standardization_.feature_mean.size()) {
    throw std::invalid_argument("feature width mismatch in ANN Predict");
  }
  std::vector<double> input(features.size());
  for (size_t j = 0; j < features.size(); ++j) {
    input[j] = (features[j] - standardization_.feature_mean[j]) /
               standardization_.feature_std[j];
  }
  const auto output = Forward(input, nullptr);
  return output[0] * standardization_.target_std +
         standardization_.target_mean;
}

void NeuralNet::Serialize(persist::Writer& w) const {
  w.PutU64(layers_.size());
  for (const Layer& layer : layers_) {
    w.PutU64(layer.in);
    w.PutU64(layer.out);
    w.PutDoubles(layer.weights);
    w.PutDoubles(layer.bias);
  }
  SerializeStandardization(standardization_, w);
  w.PutF64(final_training_mse_);
}

NeuralNet NeuralNet::Deserialize(persist::Reader& r) {
  using persist::ErrorCode;
  using persist::PersistError;

  NeuralNet net;
  // Each layer carries at least its two width fields and two counts.
  const uint64_t num_layers = r.GetCount(8 + 8 + 8 + 8, "network layer");
  if (num_layers == 0) {
    throw PersistError(ErrorCode::kFormat, "network with zero layers");
  }
  net.layers_.reserve(static_cast<size_t>(num_layers));
  for (uint64_t l = 0; l < num_layers; ++l) {
    Layer layer;
    layer.in = static_cast<size_t>(r.GetU64());
    layer.out = static_cast<size_t>(r.GetU64());
    layer.weights = r.GetDoubles();
    layer.bias = r.GetDoubles();
    if (layer.in == 0 || layer.out == 0 ||
        layer.weights.size() != layer.in * layer.out ||
        layer.bias.size() != layer.out) {
      throw PersistError(ErrorCode::kFormat,
                         "layer weight/bias shape mismatch");
    }
    if (!net.layers_.empty() && layer.in != net.layers_.back().out) {
      throw PersistError(ErrorCode::kFormat,
                         "layer input width breaks the chain");
    }
    net.layers_.push_back(std::move(layer));
  }
  if (net.layers_.back().out != 1) {
    throw PersistError(ErrorCode::kFormat,
                       "network output layer must be scalar");
  }
  net.standardization_ = DeserializeStandardization(r);
  if (net.standardization_.feature_mean.size() != net.layers_.front().in) {
    throw PersistError(ErrorCode::kFormat,
                       "standardization width does not match input layer");
  }
  net.final_training_mse_ = r.GetFiniteF64("network training mse");
  return net;
}

}  // namespace msprint
