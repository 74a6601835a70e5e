// The lu.refactor:singular fault point on the LP engine.  Armed, the next
// refactorization reads its first structural basis column as all zeros,
// so the basis repair evicts that column for a logical — the path a
// genuinely dependent column takes.  The repair moves the duals, so the
// engine must restore dual feasibility before the dual simplex resumes;
// the solve then has to reach the same optimum as an unarmed one, and
// certify it.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "ilp/mip_solver.hpp"
#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "lp/standard_form.hpp"
#include "lp_certificate.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"

namespace gmm::lp {
namespace {

bool close(double a, double b) {
  return std::abs(a - b) <= 1e-9 * (1.0 + std::abs(b));
}

/// Random packing model: columns in [0, 10] with negative costs and <=
/// rows at a third of their box maximum, so the LP optimum is
/// fractional.  Continuous columns get tie-free costs (a unique LP
/// optimum); integer ones get integer costs (an integer objective).
Model packing_model(int vars, int rows, std::uint64_t seed, VarType type) {
  support::Rng rng(seed);
  Model model;
  for (int j = 0; j < vars; ++j) {
    double cost =
        -static_cast<double>(rng.uniform_int(100, 1000)) - rng.uniform_real();
    if (type == VarType::kInteger) cost = std::round(cost / 100);
    model.add_variable(0, 10, cost, type);
  }
  for (int i = 0; i < rows; ++i) {
    LinExpr expr;
    double box_max = 0;
    for (int j = 0; j < vars; ++j) {
      if (!rng.bernoulli(0.3)) continue;
      const double a = static_cast<double>(rng.uniform_int(1, 9));
      expr.add(j, a);
      box_max += 10 * a;
    }
    model.add_constraint(expr, Sense::kLessEqual, std::floor(box_max / 3));
  }
  return model;
}

class DenseRefactorFault : public ::testing::Test {
 protected:
  void TearDown() override { support::global_faults().disarm(); }

  static void arm_once() {
    std::string error;
    ASSERT_TRUE(support::global_faults().arm(
        "seed=1,lu.refactor:singular@once", error))
        << error;
  }

  static std::int64_t fires() { return support::global_faults().total_fires(); }
};

TEST_F(DenseRefactorFault, RepairedBasisReoptimizesToTheSameVertex) {
  // Solve to the optimum, then re-solve with a refactorization forced at
  // once and the fault armed: the repair evicts a basic column sitting
  // strictly inside its bounds, so the unique optimum is lost and the
  // dual simplex has to pivot back to it.
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Model model = packing_model(24, 12, seed, VarType::kContinuous);
    const StandardForm sf = StandardForm::build(model);
    DenseTableauBackend engine(sf);
    ASSERT_EQ(engine.solve({}), SolveStatus::kOptimal) << "seed " << seed;
    EXPECT_TRUE(certificate::certify_optimal(sf, engine)) << "seed " << seed;
    const double objective = engine.objective_value();
    const std::vector<double> x = engine.structural_solution();

    Index evicted = kInvalidIndex;
    for (const Index j : engine.snapshot_basis().basic_in_row) {
      if (!sf.is_logical(j)) {
        evicted = j;
        break;
      }
    }
    if (evicted == kInvalidIndex) continue;
    const double value = x[static_cast<std::size_t>(evicted)];
    if (value < 1e-6 || value > 10.0 - 1e-6) continue;  // degenerate

    arm_once();
    const std::int64_t pivots_before = engine.stats().iterations;
    ASSERT_EQ(engine.solve({.refactor_interval = 0}), SolveStatus::kOptimal)
        << "seed " << seed;
    EXPECT_EQ(fires(), 1) << "seed " << seed;
    EXPECT_TRUE(certificate::certify_optimal(sf, engine)) << "seed " << seed;
    EXPECT_GT(engine.stats().iterations, pivots_before)
        << "seed " << seed << ": the repair did not move the basis";
    EXPECT_EQ(engine.column_status(evicted), VStat::kBasic)
        << "seed " << seed;
    EXPECT_PRED2(close, engine.objective_value(), objective)
        << "seed " << seed;
    const std::vector<double> after = engine.structural_solution();
    for (std::size_t j = 0; j < x.size(); ++j) {
      EXPECT_NEAR(after[j], x[j], 1e-7) << "seed " << seed << ", column " << j;
    }
    support::global_faults().disarm();
    ++checked;
  }
  EXPECT_GE(checked, 30);
}

TEST_F(DenseRefactorFault, ArmedMipSolveProvesTheUnarmedOptimum) {
  // A dense branch & bound with frequent refactorizations: the one
  // sabotaged refactorization lands somewhere in the search, and the
  // proved optimum must not move.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Model model = packing_model(20, 10, seed * 7919, VarType::kInteger);
    ilp::MipOptions options;
    options.rel_gap = 0.0;
    options.abs_gap = 0.5;  // exact: the objectives are integers
    options.simplex.refactor_interval = 8;
    const ilp::MipResult clean = ilp::solve_mip(model, options);
    ASSERT_EQ(clean.status, SolveStatus::kOptimal) << "seed " << seed;

    arm_once();
    const ilp::MipResult armed = ilp::solve_mip(model, options);
    EXPECT_EQ(fires(), 1) << "seed " << seed;
    ASSERT_EQ(armed.status, SolveStatus::kOptimal) << "seed " << seed;
    EXPECT_PRED2(close, armed.objective, clean.objective) << "seed " << seed;
    EXPECT_TRUE(model.is_feasible(armed.x, 1e-6)) << "seed " << seed;
    support::global_faults().disarm();
  }
}

}  // namespace
}  // namespace gmm::lp
