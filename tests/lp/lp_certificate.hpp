// LP answer certificates for the dense engine, checked from the standard
// form and the engine's public accessors alone.
//
// The engine solves  min c'x  s.t.  A x = 0,  l <= x <= u  with
// A = [A_s | I] (see lp/standard_form.hpp) under its WORKING bounds.
//
//   * certify_optimal: x is primal feasible (row residuals |A x| and bound
//     violations), the reduced costs d are those of one dual vector y
//     (y_i = c_{n+i} - d_{n+i} from the logical columns, then
//     |c_j - y'A_j - d_j| on every structural column), every d_j has the
//     sign its column's position allows (x_j > l_j => d_j <= 0 and
//     x_j < u_j => d_j >= 0: dual feasibility plus complementary
//     slackness), and c'x equals objective_value().  Together these prove
//     x optimal: any feasible x' has c'x' = d'x' >= d'x = c'x.
//   * certify_infeasible: some row y of basis_inverse() is a Farkas row:
//     y'A x ranges over an interval that excludes 0 for every x in the
//     box, so A x = 0 has no solution there.
//
// Tolerances are relative to the magnitudes summed, so the checks hold
// an engine to its own kFeasTol / kDualTol accuracy, not to exactness.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "lp/simplex.hpp"
#include "lp/standard_form.hpp"
#include "lp/types.hpp"

namespace gmm::lp::certificate {

/// Absolute slack for a quantity built from terms of total magnitude
/// `scale`.
inline double slack(double tol, double scale) { return tol * (1.0 + scale); }

/// Slack around one bound; an infinite bound needs none.
inline double bound_slack(double tol, double bound) {
  return std::isfinite(bound) ? slack(tol, std::abs(bound)) : 0.0;
}

inline ::testing::AssertionResult certify_optimal(
    const StandardForm& sf, const DenseTableauBackend& engine,
    double tol = 1e-6) {
  const Index m = sf.num_rows;
  const Index n = sf.num_cols();
  std::vector<double> x(static_cast<std::size_t>(n));
  for (Index j = 0; j < n; ++j) x[j] = engine.column_value(j);

  // Primal: bounds, then A x = 0 row by row.
  for (Index j = 0; j < n; ++j) {
    const double lb = engine.column_lb(j);
    const double ub = engine.column_ub(j);
    if (lb - x[j] > bound_slack(tol, lb) || x[j] - ub > bound_slack(tol, ub)) {
      return ::testing::AssertionFailure()
             << "column " << j << " = " << x[j] << " outside [" << lb << ", "
             << ub << "]";
    }
  }
  std::vector<double> activity(static_cast<std::size_t>(m), 0.0);
  std::vector<double> magnitude(static_cast<std::size_t>(m), 0.0);
  for (Index j = 0; j < sf.num_structural; ++j) {
    for (std::size_t k = sf.col_start[j]; k < sf.col_start[j + 1]; ++k) {
      activity[sf.row_index[k]] += sf.value[k] * x[j];
      magnitude[sf.row_index[k]] += std::abs(sf.value[k] * x[j]);
    }
  }
  for (Index i = 0; i < m; ++i) {
    const double logical = x[sf.num_structural + i];
    const double residual = activity[i] + logical;
    if (std::abs(residual) > slack(tol, magnitude[i] + std::abs(logical))) {
      return ::testing::AssertionFailure()
             << "row " << i << " residual " << residual;
    }
  }

  // Dual: y from the logical columns (A_{n+i} = e_i), then every
  // structural reduced cost must be c_j - y'A_j.
  std::vector<double> y(static_cast<std::size_t>(m));
  for (Index i = 0; i < m; ++i) {
    const Index logical = sf.num_structural + i;
    y[i] = sf.cost[logical] - engine.reduced_cost(logical);
  }
  for (Index j = 0; j < sf.num_structural; ++j) {
    double priced = sf.cost[j];
    double scale = std::abs(sf.cost[j]);
    for (std::size_t k = sf.col_start[j]; k < sf.col_start[j + 1]; ++k) {
      priced -= y[sf.row_index[k]] * sf.value[k];
      scale += std::abs(y[sf.row_index[k]] * sf.value[k]);
    }
    const double d = engine.reduced_cost(j);
    if (std::abs(priced - d) > slack(tol, scale)) {
      return ::testing::AssertionFailure()
             << "column " << j << ": reduced cost " << d
             << " but c_j - y'A_j = " << priced;
    }
  }

  // Sign-correct reduced costs: a column that can still decrease must not
  // gain from decreasing, one that can still increase must not gain from
  // increasing.
  for (Index j = 0; j < n; ++j) {
    const double d = engine.reduced_cost(j);
    const double lb = engine.column_lb(j);
    const double ub = engine.column_ub(j);
    const bool above_lb = x[j] > lb + bound_slack(tol, lb);
    const bool below_ub = x[j] < ub - bound_slack(tol, ub);
    if ((above_lb && d > tol) || (below_ub && d < -tol)) {
      return ::testing::AssertionFailure()
             << "column " << j << " = " << x[j] << " in [" << lb << ", " << ub
             << "] has reduced cost " << d;
    }
  }

  double objective = 0.0;
  double scale = 0.0;
  for (Index j = 0; j < n; ++j) {
    objective += sf.cost[j] * x[j];
    scale += std::abs(sf.cost[j] * x[j]);
  }
  if (std::abs(objective - engine.objective_value()) > slack(1e-9, scale)) {
    return ::testing::AssertionFailure()
           << "c'x = " << objective << " but objective_value() = "
           << engine.objective_value();
  }
  return ::testing::AssertionSuccess();
}

inline ::testing::AssertionResult certify_infeasible(
    const StandardForm& sf, const DenseTableauBackend& engine,
    double tol = 1e-6) {
  const Index m = sf.num_rows;
  const Index n = sf.num_cols();
  const std::vector<double>& binv = engine.basis_inverse();
  std::vector<double> alpha(static_cast<std::size_t>(n));
  for (Index r = 0; r < m; ++r) {
    const double* y = binv.data() + static_cast<std::size_t>(r) * m;
    for (Index j = 0; j < sf.num_structural; ++j) {
      double a = 0.0;
      for (std::size_t k = sf.col_start[j]; k < sf.col_start[j + 1]; ++k) {
        a += y[sf.row_index[k]] * sf.value[k];
      }
      alpha[j] = a;
    }
    for (Index i = 0; i < m; ++i) alpha[sf.num_structural + i] = y[i];

    // Range of y'A x over the box.  Entries at round-off level carry no
    // information and would turn an infinite bound into an infinite range.
    double low = 0.0;
    double high = 0.0;
    double scale = 0.0;
    for (Index j = 0; j < n; ++j) {
      const double a = alpha[j];
      if (std::abs(a) <= kPivotTol) continue;
      const double at_lb = a * engine.column_lb(j);
      const double at_ub = a * engine.column_ub(j);
      low += std::min(at_lb, at_ub);
      high += std::max(at_lb, at_ub);
      if (std::isfinite(at_lb)) scale += std::abs(at_lb);
      if (std::isfinite(at_ub)) scale += std::abs(at_ub);
    }
    if (low > slack(tol, scale) || high < -slack(tol, scale)) {
      return ::testing::AssertionSuccess();
    }
  }
  return ::testing::AssertionFailure()
         << "no row of the basis inverse is a Farkas row";
}

}  // namespace gmm::lp::certificate
