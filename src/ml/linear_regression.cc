#include "src/ml/linear_regression.h"

#include <cmath>
#include <stdexcept>

namespace msprint {

LineFit FitLine(const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() != y.size() || x.empty()) {
    throw std::invalid_argument("mismatched simple-regression inputs");
  }
  const double n = static_cast<double>(x.size());
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
  }
  const double denom = n * sxx - sx * sx;
  if (std::abs(denom) < 1e-12) {
    return {0.0, sy / n};
  }
  const double slope = (n * sxy - sx * sy) / denom;
  return {slope, (sy - slope * sx) / n};
}

}  // namespace msprint
