// Property tests for Basis snapshot/load on randomized LPs (300 seeds
// per property):
//
//   1. load_basis(snapshot_basis()) of a solved engine into a fresh one
//      re-solves to the cold objective in (nearly) zero dual pivots —
//      the warm-start contract the branch & bound's basis cache rests on.
//   2. A parent-optimal basis restored under ONE tightened bound (the
//      branch & bound pop path) reaches exactly the cold solve's
//      status and objective.
//   3. A basis snapshot from a DIFFERENT random LP of compatible shape
//      still converges to the right objective: load_basis repairs dual
//      feasibility (flipping wrong-side nonbasic columns, falling back
//      to the logical basis when no repair exists), so a foreign basis
//      can cost pivots, never correctness.
//   4. An engine that reaches a snapshot by column swaps from the basis
//      it holds ends in the same state as a fresh engine that
//      refactorizes the snapshot — also when a swap pivot is too small
//      and the swap path hands over to refactorization, and when the
//      snapshot is corrupted and the dual repair runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "lp/standard_form.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"

namespace gmm::lp {
namespace {

constexpr int kSeeds = 300;

/// Random bounded LP: every variable carries finite bounds on both
/// sides, so the dual-simplex cold start and the load-time status
/// repair always have a bound to sit on.  Always feasible (the box
/// midpoint satisfies every row by construction) and bounded (box).
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
      // Keep the row count (and with it the standard-form shape) a pure
      // function of (vars, rows): pad with a guaranteed-slack row.
      expr.add(static_cast<Index>(rng.uniform_int(0, vars - 1)), 1.0);
      mid = 5.0;
    }
    model.add_constraint(expr, Sense::kLessEqual,
                         mid + static_cast<double>(rng.uniform_int(0, 30)));
  }
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

TEST(BasisRoundtripProperty, SnapshotLoadReSolvesToColdObjective) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    support::Rng rng(seed);
    const Dims dims = random_dims(rng);
    const Model model = random_lp(dims.vars, dims.rows, seed * 7919);
    const StandardForm sf = StandardForm::build(model);

    DenseTableauBackend cold(sf);
    ASSERT_EQ(cold.solve({}), SolveStatus::kOptimal) << "seed " << seed;
    const double cold_obj = cold.objective_value();
    const Basis snapshot = cold.snapshot_basis();

    DenseTableauBackend warm(sf);
    warm.load_basis(snapshot);
    ASSERT_EQ(warm.solve({}), SolveStatus::kOptimal) << "seed " << seed;
    EXPECT_NEAR(warm.objective_value(), cold_obj,
                1e-7 * (1.0 + std::abs(cold_obj)))
        << "seed " << seed;
    // An optimal basis restored under unchanged bounds is primal AND
    // dual feasible: the re-solve must not need to pivot.
    EXPECT_EQ(warm.stats().iterations, 0) << "seed " << seed;
  }
}

TEST(BasisRoundtripProperty, ParentBasisUnderBranchBoundMatchesColdSolve) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    support::Rng rng(seed + 1'000'000);
    const Dims dims = random_dims(rng);
    const Model model = random_lp(dims.vars, dims.rows, seed * 104729);
    const StandardForm sf = StandardForm::build(model);

    DenseTableauBackend parent(sf);
    ASSERT_EQ(parent.solve({}), SolveStatus::kOptimal) << "seed " << seed;
    const Basis snapshot = parent.snapshot_basis();

    // One branching-style bound change on a random structural column.
    const Index j = static_cast<Index>(rng.uniform_int(0, dims.vars - 1));
    const double value = parent.column_value(j);
    const bool down = rng.bernoulli(0.5);
    const double lb = down ? 0.0 : std::min(10.0, std::ceil(value + 0.5));
    const double ub = down ? std::max(0.0, std::floor(value - 0.5)) : 10.0;
    if (lb > ub) continue;  // degenerate draw; branching never produces it

    const auto solve_with_bounds = [&](DenseTableauBackend& engine,
                                       const Basis* warm) {
      engine.set_column_bounds(j, lb, ub);
      if (warm != nullptr) {
        engine.load_basis(*warm);
      } else {
        engine.refresh_basic_solution();
      }
      return engine.solve({});
    };

    DenseTableauBackend cold(sf);
    const SolveStatus cold_status = solve_with_bounds(cold, nullptr);
    DenseTableauBackend warm(sf);
    const SolveStatus warm_status = solve_with_bounds(warm, &snapshot);

    ASSERT_EQ(warm_status, cold_status) << "seed " << seed;
    if (cold_status == SolveStatus::kOptimal) {
      EXPECT_NEAR(warm.objective_value(), cold.objective_value(),
                  1e-7 * (1.0 + std::abs(cold.objective_value())))
          << "seed " << seed;
    } else {
      // The tightened box can make the LP infeasible; both paths must
      // agree on that verdict, not just on objectives.
      ASSERT_EQ(cold_status, SolveStatus::kInfeasible) << "seed " << seed;
    }
  }
}

TEST(BasisRoundtripProperty, ForeignBasisOfCompatibleShapeNeverWrong) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    support::Rng rng(seed + 2'000'000);
    const Dims dims = random_dims(rng);
    // Two DIFFERENT LPs of identical shape (same vars/rows => same
    // standard-form column count, so load_basis accepts the snapshot).
    const Model donor_model = random_lp(dims.vars, dims.rows, seed * 31);
    const Model target_model = random_lp(dims.vars, dims.rows, seed * 37 + 1);
    const StandardForm donor_sf = StandardForm::build(donor_model);
    const StandardForm target_sf = StandardForm::build(target_model);

    DenseTableauBackend donor(donor_sf);
    ASSERT_EQ(donor.solve({}), SolveStatus::kOptimal) << "seed " << seed;
    const Basis foreign = donor.snapshot_basis();

    DenseTableauBackend cold(target_sf);
    ASSERT_EQ(cold.solve({}), SolveStatus::kOptimal) << "seed " << seed;
    const double cold_obj = cold.objective_value();

    DenseTableauBackend warm(target_sf);
    warm.load_basis(foreign);
    SolveStatus status = warm.solve({});
    if (status != SolveStatus::kOptimal) {
      // Graceful degradation: a foreign basis may be numerically hopeless
      // (singular beyond repair); the engine must still recover through
      // the same cold restart the branch & bound uses.
      warm.reset_to_logical_basis();
      status = warm.solve({});
    }
    ASSERT_EQ(status, SolveStatus::kOptimal) << "seed " << seed;
    EXPECT_NEAR(warm.objective_value(), cold_obj,
                1e-7 * (1.0 + std::abs(cold_obj)))
        << "seed " << seed;
  }
}

/// Random LP whose every column is boxed: row i reads a'x + t_i = rhs_i
/// with an explicit slack t_i in [0, 30], so the logical columns are
/// fixed and load_basis's dual repair can always flip a wrong-side
/// column instead of falling back to the logical basis.  With `twin`,
/// the last structural column duplicates column 0.  Feasible at the box
/// midpoint.
Model random_boxed_lp(int vars, int rows, std::uint64_t seed, bool twin) {
  support::Rng rng(seed);
  Model model;
  for (int j = 0; j < vars; ++j) {
    model.add_variable(0, 10, static_cast<double>(rng.uniform_int(-10, 10)));
  }
  if (twin) model.add_variable(0, 10, 1.0);
  for (int i = 0; i < rows; ++i) {
    LinExpr expr;
    double mid = 0;
    for (int j = 0; j < vars; ++j) {
      const double a = static_cast<double>(rng.uniform_int(-5, 5));
      if (a == 0 || !rng.bernoulli(0.3)) continue;
      expr.add(j, a);
      if (twin && j == 0) expr.add(vars, a);
      mid += 5 * a;
    }
    expr.add(model.add_variable(0, 30, 0.0), 1.0);
    model.add_constraint(expr, Sense::kEqual,
                         mid + static_cast<double>(rng.uniform_int(0, 30)));
  }
  return model;
}

/// Status a column takes when a test evicts it from a basis.
VStat evicted_status(const StandardForm& sf, Index j) {
  return sf.lb[j] == sf.ub[j] ? VStat::kFixed : VStat::kAtLower;
}

/// `base` with the column basic in row rows[i] replaced by entering[i].
Basis exchange(const StandardForm& sf, Basis base,
               const std::vector<Index>& rows,
               const std::vector<Index>& entering) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    Index& slot = base.basic_in_row[rows[i]];
    base.status[slot] = evicted_status(sf, slot);
    slot = entering[i];
    base.status[slot] = VStat::kBasic;
  }
  return base;
}

/// Loads `basis` by refactorization: a zero-iteration solve records a
/// refactor_interval of 0, which leaves load_basis no budget for swaps.
void load_refactorized(DenseTableauBackend& engine, const Basis& basis) {
  SimplexOptions no_swaps;
  no_swaps.iteration_limit = 0;
  no_swaps.refactor_interval = 0;
  engine.solve(no_swaps);
  engine.load_basis(basis);
}

/// Both engines hold the same basis, and agree within 1e-9 (relative) on
/// the objective, every column value (x_B included) and every reduced
/// cost.
void expect_same_state(const StandardForm& sf, const DenseTableauBackend& a,
                       const DenseTableauBackend& b, const std::string& where) {
  const Basis basis_a = a.snapshot_basis();
  const Basis basis_b = b.snapshot_basis();
  EXPECT_EQ(basis_a.basic_in_row, basis_b.basic_in_row) << where;
  EXPECT_EQ(basis_a.status, basis_b.status) << where;
  const auto close = [](double x, double y) {
    return std::abs(x - y) <= 1e-9 * (1.0 + std::abs(y));
  };
  EXPECT_PRED2(close, a.objective_value(), b.objective_value()) << where;
  for (Index j = 0; j < sf.num_cols(); ++j) {
    EXPECT_PRED2(close, a.column_value(j), b.column_value(j))
        << where << ", column " << j;
    EXPECT_PRED2(close, a.reduced_cost(j), b.reduced_cost(j))
        << where << ", column " << j;
  }
}

/// Every nonbasic column sits on the bound its reduced cost prefers —
/// the entry contract load_basis's dual repair restores.
void expect_dual_feasible(const StandardForm& sf,
                          const DenseTableauBackend& engine,
                          const std::string& where) {
  for (Index j = 0; j < sf.num_cols(); ++j) {
    const double d = engine.reduced_cost(j);
    switch (engine.column_status(j)) {
      case VStat::kAtLower:
        EXPECT_GE(d, -kDualTol) << where << ", column " << j;
        break;
      case VStat::kAtUpper:
        EXPECT_LE(d, kDualTol) << where << ", column " << j;
        break;
      default:
        break;
    }
  }
}

/// Arms lp.basis_load:corrupt for its lifetime (or does nothing).
class CorruptLoads {
 public:
  explicit CorruptLoads(bool on) : on_(on) {
    std::string error;
    if (on_) {
      EXPECT_TRUE(support::global_faults().arm("lp.basis_load:corrupt", error))
          << error;
    }
  }
  ~CorruptLoads() {
    if (on_) support::global_faults().disarm();
  }
  CorruptLoads(const CorruptLoads&) = delete;
  CorruptLoads& operator=(const CorruptLoads&) = delete;

 private:
  bool on_;
};

TEST(BasisRoundtripProperty, SwapLoadMatchesRefactorizedLoad) {
  int swap_loads = 0;
  int fallback_loads = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    support::Rng rng(seed + 3'000'000);
    const int rows = static_cast<int>(rng.uniform_int(16, 40));
    const int vars = static_cast<int>(rng.uniform_int(rows, 2 * rows));
    const Model model = random_boxed_lp(vars, rows, seed * 7727, false);
    const StandardForm sf = StandardForm::build(model);
    const Index m = sf.num_rows;

    DenseTableauBackend solved(sf);
    ASSERT_EQ(solved.solve({}), SolveStatus::kOptimal) << "seed " << seed;
    const Basis target = solved.snapshot_basis();
    std::vector<Index> nonbasic;
    for (Index j = 0; j < sf.num_cols(); ++j) {
      if (target.status[j] != VStat::kBasic && sf.lb[j] < sf.ub[j]) {
        nonbasic.push_back(j);
      }
    }

    for (const Index k : {Index{1}, Index{2}, std::max<Index>(1, m / 8),
                          m / 4 + 1}) {
      for (const bool corrupt : {false, true}) {
        const std::string where = "seed " + std::to_string(seed) + ", k " +
                                  std::to_string(k) +
                                  (corrupt ? ", corrupted" : "");
        // An engine holding a nonsingular basis k columns away from the
        // target: redraw until refactorize() leaves the basis unrepaired.
        DenseTableauBackend swapped(sf);
        bool held = false;
        for (int attempt = 0; attempt < 20 && !held; ++attempt) {
          std::vector<Index> rows_out(static_cast<std::size_t>(m));
          std::iota(rows_out.begin(), rows_out.end(), 0);
          rng.shuffle(rows_out);
          rows_out.resize(static_cast<std::size_t>(k));
          std::vector<Index> entering(nonbasic);
          rng.shuffle(entering);
          entering.resize(static_cast<std::size_t>(k));
          const Basis away = exchange(sf, target, rows_out, entering);
          load_refactorized(swapped, away);
          held = swapped.snapshot_basis().basic_in_row == away.basic_in_row;
        }
        ASSERT_TRUE(held) << where;

        DenseTableauBackend reference(sf);
        const std::int64_t swapped_before = swapped.stats().refactorizations;
        const std::int64_t reference_before =
            reference.stats().refactorizations;
        {
          const CorruptLoads faults(corrupt);
          // The default refactor_interval again, for the swap budget.
          swapped.solve(SimplexOptions{.iteration_limit = 0});
          swapped.load_basis(target);
          load_refactorized(reference, target);
        }
        EXPECT_EQ(reference.stats().refactorizations, reference_before + 1)
            << where;
        const bool by_swaps = k <= m / 4;
        EXPECT_EQ(swapped.stats().refactorizations,
                  swapped_before + (by_swaps ? 0 : 1))
            << where;
        ++(by_swaps ? swap_loads : fallback_loads);
        expect_same_state(sf, swapped, reference, where);
        expect_dual_feasible(sf, swapped, where);
      }
    }
  }
  EXPECT_GT(swap_loads, 0);
  EXPECT_GT(fallback_loads, 0);
}

TEST(BasisRoundtripProperty, TinySwapPivotFallsBackToRefactorization) {
  // The target brings in a twin of a column the held basis already has:
  // its FTRAN is a unit vector on the twin's row, zero on the only row
  // that may leave, so no swap pivot clears the tolerance.  load_basis
  // must refactorize (repairing the now-singular basis) and match a
  // fresh engine that refactorizes the same snapshot.
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    support::Rng rng(seed + 4'000'000);
    const int rows = static_cast<int>(rng.uniform_int(4, 20));
    const int vars = static_cast<int>(rng.uniform_int(2, 2 * rows));
    const Model model = random_boxed_lp(vars, rows, seed * 6007, true);
    const StandardForm sf = StandardForm::build(model);
    const Index twin = vars;
    if (sf.col_start[1] == sf.col_start[0]) continue;  // column 0 is empty
    const Index r0 = sf.row_index[sf.col_start[0]];  // column 0 is nonzero
    const Index r1 = (r0 + 1) % sf.num_rows;

    DenseTableauBackend swapped(sf);
    const Basis logical = swapped.snapshot_basis();
    const Basis held = exchange(sf, logical, {r0}, {0});
    const Basis target = exchange(sf, held, {r1}, {twin});
    swapped.load_basis(held);
    ASSERT_EQ(swapped.snapshot_basis().basic_in_row, held.basic_in_row)
        << "seed " << seed;
    const std::int64_t before = swapped.stats().refactorizations;
    swapped.load_basis(target);
    EXPECT_EQ(swapped.stats().refactorizations, before + 1)
        << "seed " << seed;
    EXPECT_NE(swapped.snapshot_basis().basic_in_row, target.basic_in_row)
        << "seed " << seed << ": the singular target was not repaired";

    DenseTableauBackend reference(sf);
    load_refactorized(reference, target);
    expect_same_state(sf, swapped, reference, "seed " + std::to_string(seed));
    ++checked;
  }
  EXPECT_GT(checked, 20);
}

}  // namespace
}  // namespace gmm::lp
