// Certificate property tests for the LP engine (300 seeds per property):
// every answer it gives is checked by an LP certificate (see
// lp_certificate.hpp), not by agreement with a second engine.
//
//   1. Random bounded LPs solve to kOptimal with an optimality
//      certificate.  The generator deliberately produces DEGENERATE
//      instances (rows tight at the optimum with ties) and REDUNDANT rows
//      (duplicated constraints, which make the basis matrix
//      rank-deficient enough to exercise singular-basis repair).  A state
//      one pivot short of the optimum, at a different objective, must
//      fail the certificate, so the checker is not vacuous.
//   2. Possibly-infeasible instances (a random equality pair can
//      contradict) are either certified optimal or proved infeasible by a
//      Farkas row; every contradictory pair must come back kInfeasible.
//   3. The branch & bound hot path: solve, tighten one bound, refresh,
//      re-solve warm; the answer after the bound change is certified.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "lp/standard_form.hpp"
#include "lp_certificate.hpp"
#include "support/rng.hpp"

namespace gmm::lp {
namespace {

using certificate::certify_infeasible;
using certificate::certify_optimal;

constexpr int kSeeds = 300;

/// Random bounded LP with adversarial structure: integer data (exact
/// ties), rows tight at the box midpoint with probability 1/3 (primal
/// degeneracy), and each row duplicated with probability 1/5 (redundant
/// rows -> dependent basis columns).  Always feasible and bounded.
Model random_lp(int vars, int rows, std::uint64_t seed) {
  support::Rng rng(seed);
  Model model;
  for (int j = 0; j < vars; ++j) {
    model.add_variable(0, 10, static_cast<double>(rng.uniform_int(-10, 10)));
  }
  for (int i = 0; i < rows; ++i) {
    LinExpr expr;
    double mid = 0;
    for (int j = 0; j < vars; ++j) {
      if (rng.bernoulli(0.4)) {
        const double a = static_cast<double>(rng.uniform_int(-5, 5));
        if (a != 0) {
          expr.add(j, a);
          mid += 5 * a;
        }
      }
    }
    if (expr.empty()) {
      expr.add(static_cast<Index>(rng.uniform_int(0, vars - 1)), 1.0);
      mid = 5.0;
    }
    const double slack =
        rng.bernoulli(1.0 / 3.0)
            ? 0.0  // tight at the midpoint: degenerate vertex candidates
            : static_cast<double>(rng.uniform_int(1, 30));
    model.add_constraint(expr, Sense::kLessEqual, mid + slack);
    if (rng.bernoulli(0.2)) {
      model.add_constraint(expr, Sense::kLessEqual, mid + slack);  // redundant
    }
  }
  return model;
}

/// Like random_lp but with a pair of equality rows over the same
/// expression whose right-hand sides differ with probability 1/2 —
/// an exactly-contradictory (infeasible) system when they do, which
/// `contradictory` reports.
Model random_maybe_infeasible_lp(int vars, std::uint64_t seed,
                                 bool& contradictory) {
  support::Rng rng(seed);
  Model model = random_lp(vars, static_cast<int>(rng.uniform_int(1, 6)),
                          seed ^ 0x9e3779b97f4a7c15ull);
  LinExpr expr;
  for (int j = 0; j < vars; ++j) {
    expr.add(j, static_cast<double>(rng.uniform_int(1, 3)));
  }
  const double rhs = static_cast<double>(rng.uniform_int(1, 20 * vars));
  model.add_constraint(expr, Sense::kEqual, rhs);
  const double rhs2 = rng.bernoulli(0.5)
                          ? rhs
                          : rhs + static_cast<double>(rng.uniform_int(1, 5));
  model.add_constraint(expr, Sense::kEqual, rhs2);
  contradictory = rhs2 != rhs;
  return model;
}

struct Dims {
  int vars = 0;
  int rows = 0;
};

Dims random_dims(support::Rng& rng) {
  return {static_cast<int>(rng.uniform_int(2, 14)),
          static_cast<int>(rng.uniform_int(1, 10))};
}

/// An optimum must carry an optimality certificate and an infeasible
/// answer a Farkas row; any other status is a failure.
::testing::AssertionResult certify_answer(const StandardForm& sf,
                                          const DenseTableauBackend& engine,
                                          SolveStatus status) {
  if (status == SolveStatus::kOptimal) return certify_optimal(sf, engine);
  if (status == SolveStatus::kInfeasible) {
    return certify_infeasible(sf, engine);
  }
  return ::testing::AssertionFailure() << "status " << to_string(status);
}

TEST(LpCertificateProperty, RandomLpsAreCertifiedOptimal) {
  int off_optimum = 0;  // capped states at a different objective
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    support::Rng rng(seed);
    const Dims dims = random_dims(rng);
    const Model model = random_lp(dims.vars, dims.rows, seed * 7919);
    const StandardForm sf = StandardForm::build(model);

    DenseTableauBackend engine(sf);
    ASSERT_EQ(engine.solve({}), SolveStatus::kOptimal) << "seed " << seed;
    EXPECT_TRUE(certify_optimal(sf, engine)) << "seed " << seed;

    const std::int64_t pivots = engine.stats().iterations;
    if (pivots == 0) continue;
    DenseTableauBackend capped(sf);
    ASSERT_EQ(capped.solve({.iteration_limit = pivots - 1}),
              SolveStatus::kIterationLimit)
        << "seed " << seed;
    const double optimum = engine.objective_value();
    if (std::abs(capped.objective_value() - optimum) >
        1e-7 * (1.0 + std::abs(optimum))) {
      EXPECT_FALSE(certify_optimal(sf, capped)) << "seed " << seed;
      ++off_optimum;
    }
  }
  EXPECT_GT(off_optimum, 0);
}

TEST(LpCertificateProperty, MaybeInfeasibleLpsAreCertifiedOrFarkasProved) {
  int contradictions = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    support::Rng rng(seed + 2'000'000);
    const int vars = static_cast<int>(rng.uniform_int(2, 10));
    bool contradictory = false;
    const Model model =
        random_maybe_infeasible_lp(vars, seed * 104729, contradictory);
    const StandardForm sf = StandardForm::build(model);

    DenseTableauBackend engine(sf);
    const SolveStatus status = engine.solve({});
    if (contradictory) {
      ++contradictions;
      EXPECT_EQ(status, SolveStatus::kInfeasible) << "seed " << seed;
    }
    EXPECT_TRUE(certify_answer(sf, engine, status)) << "seed " << seed;
  }
  EXPECT_GT(contradictions, 0);
}

TEST(LpCertificateProperty, BranchStyleWarmRestartIsCertified) {
  // The branch & bound hot path: solve, tighten one bound, refresh,
  // re-solve warm.  The child is certified optimal or proved infeasible.
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    support::Rng rng(seed + 6'000'000);
    const Dims dims = random_dims(rng);
    const Model model = random_lp(dims.vars, dims.rows, seed * 32452843);
    const StandardForm sf = StandardForm::build(model);

    DenseTableauBackend engine(sf);
    ASSERT_EQ(engine.solve({}), SolveStatus::kOptimal) << "seed " << seed;

    const Index j = static_cast<Index>(rng.uniform_int(0, dims.vars - 1));
    const bool up = rng.bernoulli(0.5);
    engine.set_column_bounds(j, up ? 6.0 : 0.0, up ? 10.0 : 4.0);
    engine.refresh_basic_solution();
    EXPECT_TRUE(certify_answer(sf, engine, engine.solve({})))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace gmm::lp
