// Reliability branching in the branch & bound: candidates whose
// pseudocosts are not yet reliable are strong-branched by capped dual
// probes before the branching column is chosen.  Every cap counts pivots
// or candidates, never time, so a 1-thread search must stay bitwise
// reproducible with the probes in it.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <string>

#include "ilp/mip_solver.hpp"
#include "support/rng.hpp"

namespace gmm::ilp {
namespace {

using lp::LinExpr;
using lp::Model;
using lp::SolveStatus;

/// Random packing MIP: integer columns in [0, 10] with negative costs
/// and <= rows at a third of their box maximum, so the LP optimum is
/// fractional and the search branches.
Model packing_mip(int vars, int rows, std::uint64_t seed) {
  support::Rng rng(seed);
  Model model;
  for (int j = 0; j < vars; ++j) {
    model.add_variable(0, 10, static_cast<double>(rng.uniform_int(-10, -1)),
                       lp::VarType::kInteger);
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
    model.add_constraint(expr, lp::Sense::kLessEqual, std::floor(box_max / 3));
  }
  return model;
}

struct TracedRun {
  MipResult result;
  std::int64_t progress = 0;  // nodes + strong-branch probe LPs
};

TracedRun solve(const Model& model) {
  MipOptions options;
  options.rel_gap = 0.0;
  options.abs_gap = 0.5;  // exact: the objectives are integers
  options.progress = std::make_shared<std::atomic<std::int64_t>>(0);
  TracedRun run{solve_mip(model, options), 0};
  run.progress = options.progress->load();
  return run;
}

TEST(ReliabilityBranching, SerialRunsAreBitwiseIdentical) {
  std::int64_t probes = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Model model = packing_mip(24, 10, seed * 4099);
    const TracedRun a = solve(model);
    const TracedRun b = solve(model);
    const std::string where = "seed " + std::to_string(seed);
    ASSERT_EQ(a.result.status, SolveStatus::kOptimal) << where;
    EXPECT_EQ(a.result.objective, b.result.objective) << where;
    EXPECT_EQ(a.result.x, b.result.x) << where;
    EXPECT_EQ(a.result.nodes, b.result.nodes) << where;
    EXPECT_EQ(a.result.lp_iterations, b.result.lp_iterations) << where;
    EXPECT_EQ(a.result.simplex_refactorizations,
              b.result.simplex_refactorizations)
        << where;
    EXPECT_EQ(a.result.basis.loaded, b.result.basis.loaded) << where;
    EXPECT_EQ(a.progress, b.progress) << where;
    probes += a.progress - a.result.nodes;
  }
  // The corpus really strong-branches.
  EXPECT_GT(probes, 100);
}

}  // namespace
}  // namespace gmm::ilp
