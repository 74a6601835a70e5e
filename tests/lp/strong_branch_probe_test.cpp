// The strong-branch probe round trip at the LP engine level.  Reliability
// branching probes a branch-and-bound node by
//
//   snapshot -> bound change -> capped dual solve -> bound restore ->
//   load_basis(snapshot)
//
// and then branches from the node as if no probe had run.  Over seeded
// random bounded MIP nodes, every probe must leave the engine where it
// found it: the same basic set and statuses, the objective and every
// structural value within 1e-9 (relative), and a re-solve that needs no
// pivot.  Probes run back to back at one node, as in the search; the
// engine reaches the snapshot by column swaps or, after a long probe, by
// refactorization.  The final re-solve's optimum is certified.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "lp/standard_form.hpp"
#include "lp_certificate.hpp"
#include "support/rng.hpp"

namespace gmm::lp {
namespace {

constexpr int kSeeds = 150;
// Pivot caps per probe; the search uses 30.
constexpr std::int64_t kCaps[] = {1, 5, 30};

/// Random bounded MIP relaxation: integer columns in [0, 10], rows
/// a'x + t = rhs with an explicit slack t in [0, 30] (so every column is
/// boxed), feasible at the box midpoint.
Model random_mip(int vars, int rows, std::uint64_t seed) {
  support::Rng rng(seed);
  Model model;
  for (int j = 0; j < vars; ++j) {
    model.add_variable(0, 10, static_cast<double>(rng.uniform_int(-10, 10)),
                       VarType::kInteger);
  }
  for (int i = 0; i < rows; ++i) {
    LinExpr expr;
    double mid = 0;
    for (int j = 0; j < vars; ++j) {
      const double a = static_cast<double>(rng.uniform_int(-5, 5));
      if (a == 0 || !rng.bernoulli(0.3)) continue;
      expr.add(j, a);
      mid += 5 * a;
    }
    expr.add(model.add_variable(0, 30, 0.0), 1.0);
    model.add_constraint(expr, Sense::kEqual,
                         mid + static_cast<double>(rng.uniform_int(0, 30)));
  }
  return model;
}

struct NodeState {
  Basis basis;
  double objective = 0.0;
  std::vector<double> x;
};

NodeState capture(const DenseTableauBackend& engine) {
  return {engine.snapshot_basis(), engine.objective_value(),
          engine.structural_solution()};
}

void expect_restored(const NodeState& node, const DenseTableauBackend& engine,
                     const std::string& where) {
  const Basis basis = engine.snapshot_basis();
  EXPECT_EQ(basis.basic_in_row, node.basis.basic_in_row) << where;
  EXPECT_EQ(basis.status, node.basis.status) << where;
  const auto close = [](double a, double b) {
    return std::abs(a - b) <= 1e-9 * (1.0 + std::abs(b));
  };
  EXPECT_PRED2(close, engine.objective_value(), node.objective) << where;
  const std::vector<double> x = engine.structural_solution();
  ASSERT_EQ(x.size(), node.x.size()) << where;
  for (std::size_t j = 0; j < x.size(); ++j) {
    EXPECT_PRED2(close, x[j], node.x[j]) << where << ", column " << j;
  }
}

/// One probe: tighten `j` to [lb, ub], dual-solve for at most `cap`
/// pivots, restore the node's bounds and basis.
SolveStatus probe(DenseTableauBackend& engine, const Basis& node_basis, Index j,
                  double lb, double ub, std::int64_t cap) {
  const double node_lb = engine.column_lb(j);
  const double node_ub = engine.column_ub(j);
  engine.set_column_bounds(j, lb, ub);
  if (engine.column_status(j) != VStat::kBasic) {
    engine.refresh_basic_solution();
  }
  const SolveStatus status = engine.solve({.iteration_limit = cap});
  engine.set_column_bounds(j, node_lb, node_ub);
  engine.load_basis(node_basis);
  return status;
}

TEST(StrongBranchProbe, RestoreIsExactOnDenseEngine) {
  int probes = 0;
  int capped = 0;
  int infeasible = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    support::Rng rng(seed + 5'000'000);
    const int rows = static_cast<int>(rng.uniform_int(4, 40));
    const int vars = static_cast<int>(rng.uniform_int(rows, 2 * rows));
    const Model model = random_mip(vars, rows, seed * 8191);
    const StandardForm sf = StandardForm::build(model);
    DenseTableauBackend engine(sf);

    // The node: up to three earlier branchings, each a sub-box of a
    // random integer column.
    const int depth = static_cast<int>(rng.uniform_int(0, 3));
    for (int k = 0; k < depth; ++k) {
      const Index j = static_cast<Index>(rng.uniform_int(0, vars - 1));
      const double lb = static_cast<double>(rng.uniform_int(0, 5));
      engine.set_column_bounds(
          j, lb, lb + static_cast<double>(rng.uniform_int(0, 5)));
    }
    engine.refresh_basic_solution();
    if (engine.solve({}) != SolveStatus::kOptimal) continue;

    const NodeState node = capture(engine);
    for (Index j = 0; j < vars; ++j) {
      const double value = node.x[static_cast<std::size_t>(j)];
      if (std::abs(value - std::round(value)) < 1e-6) continue;
      const double floor_v = std::floor(value);
      for (const bool up : {false, true}) {
        const std::int64_t cap = kCaps[rng.uniform_int(0, 2)];
        const SolveStatus status =
            up ? probe(engine, node.basis, j, floor_v + 1.0, 10.0, cap)
               : probe(engine, node.basis, j, 0.0, floor_v, cap);
        ++probes;
        capped += status == SolveStatus::kIterationLimit ? 1 : 0;
        infeasible += status == SolveStatus::kInfeasible ? 1 : 0;
        expect_restored(node, engine,
                        "seed " + std::to_string(seed) + ", column " +
                            std::to_string(j) + (up ? " up" : " down") +
                            ", cap " + std::to_string(cap));
      }
    }
    // Back on the node's optimum: nothing left to pivot.
    const std::int64_t before = engine.stats().iterations;
    ASSERT_EQ(engine.solve({}), SolveStatus::kOptimal) << "seed " << seed;
    EXPECT_EQ(engine.stats().iterations, before) << "seed " << seed;
    EXPECT_TRUE(certificate::certify_optimal(sf, engine)) << "seed " << seed;
  }
  // The corpus exercises capped, infeasible and completed probes.
  EXPECT_GT(probes, 300);
  EXPECT_GT(capped, 0);
  EXPECT_GT(infeasible, 0);
  EXPECT_GT(probes - capped - infeasible, 0);
}

}  // namespace
}  // namespace gmm::lp
