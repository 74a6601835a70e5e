#include "lp/simplex.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "lp/solver.hpp"
#include "support/rng.hpp"

namespace gmm::lp {
namespace {

TEST(Simplex, UnconstrainedBoundsOnly) {
  // min -x with x in [0,5]: optimum x=5.  Zero rows exercises the m=0 path.
  Model m;
  m.add_variable(0, 5, -1.0);
  const LpResult r = solve_lp(m, {.simplex = {}, .use_presolve = false});
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_DOUBLE_EQ(r.objective, -5.0);
  EXPECT_DOUBLE_EQ(r.x[0], 5.0);
}

TEST(Simplex, SingleConstraint) {
  // min x s.t. x >= 3, x in [0,10].
  Model m;
  const Index x = m.add_variable(0, 10, 1.0);
  m.add_constraint(LinExpr(x, 1.0), Sense::kGreaterEqual, 3);
  const LpResult r = solve_lp(m, {.simplex = {}, .use_presolve = false});
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, 3.0, 1e-9);
  EXPECT_NEAR(r.x[0], 3.0, 1e-9);
}

TEST(Simplex, ClassicTwoVariable) {
  // max 3x + 4y s.t. x + 2y <= 14, 3x - y >= 0, x - y <= 2
  // => optimum at (6, 4) with value 34.
  Model m;
  const Index x = m.add_variable(0, kInf, -3.0);
  const Index y = m.add_variable(0, kInf, -4.0);
  // Note: -4y cost with infinite upper bound would break the dual start,
  // so give generous finite bounds (they do not bind at the optimum).
  m.set_var_bounds(x, 0, 1000);
  m.set_var_bounds(y, 0, 1000);
  LinExpr c1;
  c1.add(x, 1.0);
  c1.add(y, 2.0);
  m.add_constraint(c1, Sense::kLessEqual, 14);
  LinExpr c2;
  c2.add(x, 3.0);
  c2.add(y, -1.0);
  m.add_constraint(c2, Sense::kGreaterEqual, 0);
  LinExpr c3;
  c3.add(x, 1.0);
  c3.add(y, -1.0);
  m.add_constraint(c3, Sense::kLessEqual, 2);
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, -34.0, 1e-7);
  EXPECT_NEAR(r.x[x], 6.0, 1e-7);
  EXPECT_NEAR(r.x[y], 4.0, 1e-7);
}

TEST(Simplex, EqualityConstraint) {
  // min x s.t. x + y = 10, x in [0,10], y in [0,4] => x = 6.
  Model m;
  const Index x = m.add_variable(0, 10, 1.0);
  const Index y = m.add_variable(0, 4, 0.0);
  LinExpr e;
  e.add(x, 1.0);
  e.add(y, 1.0);
  m.add_constraint(e, Sense::kEqual, 10);
  const LpResult r = solve_lp(m, {.simplex = {}, .use_presolve = false});
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, 6.0, 1e-8);
  EXPECT_NEAR(r.x[x], 6.0, 1e-8);
  EXPECT_NEAR(r.x[y], 4.0, 1e-8);
}

TEST(Simplex, InfeasibleByConflictingRows) {
  Model m;
  const Index x = m.add_variable(0, 10, 1.0);
  m.add_constraint(LinExpr(x, 1.0), Sense::kGreaterEqual, 5);
  m.add_constraint(LinExpr(x, 1.0), Sense::kLessEqual, 3);
  const LpResult no_presolve =
      solve_lp(m, {.simplex = {}, .use_presolve = false});
  EXPECT_EQ(no_presolve.status, SolveStatus::kInfeasible);
  const LpResult with_presolve = solve_lp(m);
  EXPECT_EQ(with_presolve.status, SolveStatus::kInfeasible);
}

TEST(Simplex, InfeasibleMultiVariable) {
  // x + y >= 10 with x,y in [0,4]: max activity 8.
  Model m;
  const Index x = m.add_variable(0, 4, 1.0);
  const Index y = m.add_variable(0, 4, 1.0);
  LinExpr e;
  e.add(x, 1.0);
  e.add(y, 1.0);
  m.add_constraint(e, Sense::kGreaterEqual, 10);
  const LpResult r = solve_lp(m, {.simplex = {}, .use_presolve = false});
  EXPECT_EQ(r.status, SolveStatus::kInfeasible);
}

TEST(Simplex, NegativeLowerBounds) {
  // min x + y s.t. x + y >= -3, x,y in [-5,5] => objective -3.
  Model m;
  const Index x = m.add_variable(-5, 5, 1.0);
  const Index y = m.add_variable(-5, 5, 1.0);
  LinExpr e;
  e.add(x, 1.0);
  e.add(y, 1.0);
  m.add_constraint(e, Sense::kGreaterEqual, -3);
  const LpResult r = solve_lp(m, {.simplex = {}, .use_presolve = false});
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, -3.0, 1e-8);
}

TEST(Simplex, DegenerateVertexStillSolves) {
  // Several constraints meet at the optimum (0,0) redundantly.
  Model m;
  const Index x = m.add_variable(0, 10, 1.0);
  const Index y = m.add_variable(0, 10, 1.0);
  for (int i = 1; i <= 5; ++i) {
    LinExpr e;
    e.add(x, static_cast<double>(i));
    e.add(y, 1.0);
    m.add_constraint(e, Sense::kGreaterEqual, 0);
  }
  const LpResult r = solve_lp(m, {.simplex = {}, .use_presolve = false});
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, 0.0, 1e-9);
}

// ---- property test: fractional knapsack has a closed-form optimum -----

double greedy_fractional_knapsack(const std::vector<double>& value,
                                  const std::vector<double>& weight,
                                  double capacity) {
  std::vector<std::size_t> order(value.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return value[a] / weight[a] > value[b] / weight[b];
  });
  double total = 0.0;
  for (const std::size_t i : order) {
    const double take = std::min(1.0, capacity / weight[i]);
    total += take * value[i];
    capacity -= take * weight[i];
    if (capacity <= 0) break;
  }
  return total;
}

class FractionalKnapsackTest : public ::testing::TestWithParam<int> {};

TEST_P(FractionalKnapsackTest, MatchesGreedyOptimum) {
  support::Rng rng(1000 + GetParam());
  const int n = static_cast<int>(rng.uniform_int(3, 40));
  std::vector<double> value(n), weight(n);
  double total_weight = 0;
  for (int i = 0; i < n; ++i) {
    value[i] = static_cast<double>(rng.uniform_int(1, 100));
    weight[i] = static_cast<double>(rng.uniform_int(1, 50));
    total_weight += weight[i];
  }
  const double capacity = total_weight * rng.uniform_real() * 0.8 + 1.0;

  Model m;
  LinExpr wsum;
  for (int i = 0; i < n; ++i) {
    const Index xi = m.add_variable(0, 1, -value[i]);
    wsum.add(xi, weight[i]);
  }
  m.add_constraint(wsum, Sense::kLessEqual, capacity);
  const LpResult r = solve_lp(m, {.simplex = {}, .use_presolve = false});
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  const double expected = greedy_fractional_knapsack(value, weight, capacity);
  EXPECT_NEAR(-r.objective, expected, 1e-6 * std::max(1.0, expected));
}

INSTANTIATE_TEST_SUITE_P(Sweep, FractionalKnapsackTest,
                         ::testing::Range(0, 25));

// ---- property test: random feasible LPs satisfy optimality conditions --

class RandomLpTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomLpTest, OptimalSolutionIsFeasibleAndObjectiveConsistent) {
  support::Rng rng(77 + GetParam());
  const int n = static_cast<int>(rng.uniform_int(2, 25));
  const int rows = static_cast<int>(rng.uniform_int(1, 20));
  Model m;
  for (int j = 0; j < n; ++j) {
    const double lb = static_cast<double>(rng.uniform_int(-5, 0));
    const double ub = lb + static_cast<double>(rng.uniform_int(1, 10));
    const double c = static_cast<double>(rng.uniform_int(-10, 10));
    m.add_variable(lb, ub, c);
  }
  // Rows are built to be feasible at the all-zero-ish midpoint: activity
  // range always contains the midpoint activity.
  std::vector<double> mid(n);
  for (int j = 0; j < n; ++j) mid[j] = (m.var_lb(j) + m.var_ub(j)) / 2;
  for (int i = 0; i < rows; ++i) {
    LinExpr e;
    double mid_activity = 0;
    for (int j = 0; j < n; ++j) {
      if (rng.bernoulli(0.4)) {
        const double a = static_cast<double>(rng.uniform_int(-5, 5));
        if (a != 0) {
          e.add(j, a);
          mid_activity += a * mid[j];
        }
      }
    }
    if (e.empty()) continue;
    const double slackness = static_cast<double>(rng.uniform_int(0, 20));
    if (rng.bernoulli(0.5)) {
      m.add_constraint(e, Sense::kLessEqual, mid_activity + slackness);
    } else {
      m.add_constraint(e, Sense::kGreaterEqual, mid_activity - slackness);
    }
  }
  const LpResult r = solve_lp(m, {.simplex = {}, .use_presolve = false});
  ASSERT_EQ(r.status, SolveStatus::kOptimal) << "seed " << GetParam();
  // The reported solution must be primal feasible and match the objective.
  Model relaxed(m);
  EXPECT_TRUE(relaxed.is_feasible(r.x, 1e-5));
  EXPECT_NEAR(relaxed.objective_value(r.x), r.objective,
              1e-6 * std::max(1.0, std::abs(r.objective)));
  // The midpoint is feasible by construction, so optimum <= its objective.
  EXPECT_LE(r.objective, relaxed.objective_value(mid) + 1e-6);
  // Presolve must not change the optimum.
  const LpResult rp = solve_lp(m);
  ASSERT_EQ(rp.status, SolveStatus::kOptimal);
  EXPECT_NEAR(rp.objective, r.objective,
              1e-5 * std::max(1.0, std::abs(r.objective)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomLpTest, ::testing::Range(0, 40));

TEST(Simplex, BasisSnapshotRoundTrip) {
  Model m;
  const Index x = m.add_variable(0, 10, 1.0);
  const Index y = m.add_variable(0, 4, 0.0);
  LinExpr e;
  e.add(x, 1.0);
  e.add(y, 1.0);
  m.add_constraint(e, Sense::kEqual, 10);
  const StandardForm sf = StandardForm::build(m);
  DenseTableauBackend engine(sf);
  ASSERT_EQ(engine.solve({}), SolveStatus::kOptimal);
  const double obj = engine.objective_value();
  const Basis basis = engine.snapshot_basis();

  DenseTableauBackend other(sf);
  other.load_basis(basis);
  ASSERT_EQ(other.solve({}), SolveStatus::kOptimal);
  EXPECT_NEAR(other.objective_value(), obj, 1e-9);
  // A warm start from the optimal basis needs no pivots.
  EXPECT_EQ(other.stats().iterations, 0);
}

TEST(Simplex, BoundChangeWarmRestart) {
  // Solve, tighten a bound, re-solve warm: must match a cold solve.
  Model m;
  const Index x = m.add_variable(0, 10, -2.0);
  const Index y = m.add_variable(0, 10, -1.0);
  LinExpr e;
  e.add(x, 1.0);
  e.add(y, 1.0);
  m.add_constraint(e, Sense::kLessEqual, 12);
  const StandardForm sf = StandardForm::build(m);
  DenseTableauBackend engine(sf);
  ASSERT_EQ(engine.solve({}), SolveStatus::kOptimal);
  EXPECT_NEAR(engine.objective_value(), -22.0, 1e-9);  // x=10, y=2

  engine.set_column_bounds(x, 0, 4);  // force x <= 4
  engine.refresh_basic_solution();
  ASSERT_EQ(engine.solve({}), SolveStatus::kOptimal);
  EXPECT_NEAR(engine.objective_value(), -16.0, 1e-9);  // x=4, y=8

  Model m2;
  m2.add_variable(0, 4, -2.0);
  m2.add_variable(0, 10, -1.0);
  LinExpr e2;
  e2.add(0, 1.0);
  e2.add(1, 1.0);
  m2.add_constraint(e2, Sense::kLessEqual, 12);
  const LpResult cold = solve_lp(m2, {.simplex = {}, .use_presolve = false});
  EXPECT_NEAR(cold.objective, -16.0, 1e-9);
}

// ---- refactorization: B * B^{-1} = I on random bases --------------------

/// ||B * B^{-1} - I||_inf (largest absolute row sum) over the engine's
/// current basis, with B assembled from the standard form's columns.
double inverse_residual(const StandardForm& sf,
                        const DenseTableauBackend& engine) {
  const Index m = sf.num_rows;
  const std::vector<Index> basic = engine.snapshot_basis().basic_in_row;
  const std::vector<double>& inv = engine.basis_inverse();
  std::vector<double> product(static_cast<std::size_t>(m) * m, 0.0);
  for (Index c = 0; c < m; ++c) {
    // Column c of B times row c of B^{-1}.
    const double* inv_row = inv.data() + static_cast<std::size_t>(c) * m;
    const auto add = [&](Index i, double a) {
      double* out = product.data() + static_cast<std::size_t>(i) * m;
      for (Index k = 0; k < m; ++k) out[k] += a * inv_row[k];
    };
    const Index j = basic[c];
    if (sf.is_logical(j)) {
      add(sf.logical_row(j), 1.0);
    } else {
      for (std::size_t p = sf.col_start[j]; p < sf.col_start[j + 1]; ++p) {
        add(sf.row_index[p], sf.value[p]);
      }
    }
  }
  double norm = 0.0;
  for (Index i = 0; i < m; ++i) {
    double row_sum = 0.0;
    for (Index k = 0; k < m; ++k) {
      row_sum += std::abs(product[static_cast<std::size_t>(i) * m + k] -
                          (i == k ? 1.0 : 0.0));
    }
    norm = std::max(norm, row_sum);
  }
  return norm;
}

TEST(Simplex, RefactorizedInverseTimesBasisIsIdentity) {
  // Random bases over random sparse LPs, many of them singular: the last
  // structural column duplicates column 0, and half the draws put both in
  // the basis.  Zero costs keep load_basis's dual repair out of the way,
  // so the engine holds exactly the drawn basis or refactorize()'s
  // repair of it.
  int repaired = 0;
  int intact = 0;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    support::Rng rng(seed);
    const int rows = static_cast<int>(rng.uniform_int(8, 30));
    const int vars = static_cast<int>(rng.uniform_int(rows, 2 * rows));
    Model model;
    for (int j = 0; j <= vars; ++j) model.add_variable(0, 10, 0.0);
    for (int i = 0; i < rows; ++i) {
      LinExpr e;
      for (int j = 0; j < vars; ++j) {
        const double a = static_cast<double>(rng.uniform_int(-5, 5));
        if (a == 0 || !rng.bernoulli(0.4)) continue;
        e.add(j, a);
        if (j == 0) e.add(vars, a);  // the twin of column 0
      }
      if (e.empty()) e.add(static_cast<Index>(rng.uniform_int(0, vars)), 1.0);
      model.add_constraint(e, Sense::kLessEqual, 100);
    }
    const StandardForm sf = StandardForm::build(model);
    const Index m = sf.num_rows;
    const Index n = sf.num_cols();

    // More than m/4 structural columns, so load_basis cannot reach the
    // basis by column swaps from the logical start and refactorizes.
    std::vector<Index> structurals(static_cast<std::size_t>(vars + 1));
    std::iota(structurals.begin(), structurals.end(), 0);
    rng.shuffle(structurals);
    if (rng.bernoulli(0.5)) {
      std::swap(*std::find(structurals.begin(), structurals.end(), 0),
                structurals[0]);
      std::swap(*std::find(structurals.begin(), structurals.end(), vars),
                structurals[1]);
    }
    const auto num_structural =
        static_cast<Index>(rng.uniform_int(m / 4 + 1, m));
    std::vector<Index> logicals(static_cast<std::size_t>(m));
    std::iota(logicals.begin(), logicals.end(), sf.num_structural);
    rng.shuffle(logicals);
    Basis basis;
    basis.basic_in_row.assign(structurals.begin(),
                              structurals.begin() + num_structural);
    basis.basic_in_row.insert(basis.basic_in_row.end(), logicals.begin(),
                              logicals.begin() + (m - num_structural));
    rng.shuffle(basis.basic_in_row);
    basis.status.assign(static_cast<std::size_t>(n), VStat::kAtLower);
    for (const Index j : basis.basic_in_row) basis.status[j] = VStat::kBasic;

    DenseTableauBackend engine(sf);
    engine.load_basis(basis);
    ASSERT_EQ(engine.stats().refactorizations, 1) << "seed " << seed;
    if (engine.snapshot_basis().basic_in_row == basis.basic_in_row) {
      ++intact;
    } else {
      ++repaired;
    }
    EXPECT_LE(inverse_residual(sf, engine), 1e-9) << "seed " << seed;
  }
  // Both kinds of basis must actually have been exercised.
  EXPECT_GT(repaired, 10);
  EXPECT_GT(intact, 10);
}

}  // namespace
}  // namespace gmm::lp
