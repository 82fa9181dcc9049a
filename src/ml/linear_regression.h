// One-variable least squares: the leaf model of the regression trees
// (Section 2.4: "when all feature settings are exhausted, we create a leaf
// node by using linear regression on the remaining samples"). A leaf
// regresses the target on its anchor feature alone, so a line is all the
// trees fit; they store its slope and intercept themselves.

#ifndef MSPRINT_SRC_ML_LINEAR_REGRESSION_H_
#define MSPRINT_SRC_ML_LINEAR_REGRESSION_H_

#include <vector>

namespace msprint {

struct LineFit {
  double slope = 0.0;
  double intercept = 0.0;
};

// Fits y ~ slope * x + intercept from parallel, nonempty vectors. A
// constant x fits slope 0 and the mean of y. Throws std::invalid_argument
// on mismatched or empty inputs.
LineFit FitLine(const std::vector<double>& x, const std::vector<double>& y);

}  // namespace msprint

#endif  // MSPRINT_SRC_ML_LINEAR_REGRESSION_H_
