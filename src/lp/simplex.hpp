// Bounded-variable revised simplex with an explicit basis inverse: the
// one LP engine behind solve_lp() and every branch-and-bound node.
//
// The engine implements the DUAL simplex as its workhorse.  Rationale: in
// this project every LP is either (a) a fresh relaxation whose variables
// all carry a finite bound on the side their cost prefers — so the
// all-logical basis with cost-sign-chosen nonbasic bounds is dual feasible
// by construction — or (b) a branch-and-bound child, where only variable
// BOUNDS changed relative to an optimal parent basis; since reduced costs
// do not depend on bounds, the parent basis stays dual feasible and a few
// dual pivots restore primal feasibility.  A primal phase-1 is therefore
// never needed on this project's models.
//
// Numerical strategy: dense explicit B^{-1} (row-major) with product-form
// row updates per pivot, periodic Gauss-Jordan refactorization with
// partial pivoting and singular-basis repair, Harris-style two-pass dual
// ratio test picking the largest eligible pivot magnitude.  The
// Gauss-Jordan pass skips already-eliminated columns and the exact zeros
// of B^{-1}'s pivot rows, so it costs far less than m^3 on sparse bases.
//
// Complexity per pivot: O(m^2) for the inverse/x_B row updates plus
// O(nnz(A)) for the pivot row — for the largest complete-formulation model
// in this project (m ~ 2.5e3, nnz ~ 2e5) a few milliseconds.
//
// Warm loads: a branch-and-bound snapshot is usually a handful of basis
// columns away from the basis the engine already holds, so load_basis
// walks there by column swaps instead of refactorizing.  Each swap is an
// FTRAN plus the same product-form update a pivot applies, O(m^2), and
// counts against refactor_interval like a pivot; a final O(m^2) row
// permutation puts B^{-1} in the snapshot's row order.  load_basis
// refactorizes instead when the k differing columns exceed m/4 (where
// k swaps stop being cheaper than one Gauss-Jordan pass), when the
// swaps would cross refactor_interval, or when a swap finds no leaving
// row with |pivot| above 1e-7.
#pragma once

#include <cstdint>
#include <vector>

#include "lp/basis.hpp"
#include "lp/standard_form.hpp"
#include "lp/types.hpp"

namespace gmm::lp {

struct SimplexOptions {
  std::int64_t iteration_limit = 200'000;
  double time_limit_seconds = kInf;  // wall clock for one solve() call
  int refactor_interval = 128;       // pivots between refactorizations
  /// Degenerate-pivot streak (zero dual step in the ratio test) after
  /// which the engine falls back to Bland's smallest-index anti-cycling
  /// rules until a real step happens.  The effective threshold is
  /// max(stall_threshold, m/2) so large models are not punished for
  /// ordinary degeneracy.
  int stall_threshold = 200;
};

struct SimplexStats {
  std::int64_t iterations = 0;        // dual pivots, cumulative
  std::int64_t refactorizations = 0;  // basis (re)factorizations, cumulative
};

class DenseTableauBackend {
 public:
  /// The engine keeps a reference to `sf`; it must outlive the engine.
  explicit DenseTableauBackend(const StandardForm& sf);

  // ---- bounds (branch & bound interface) ----------------------------
  /// Override the working bounds of a column.  Call refresh_basic_solution()
  /// after a batch of changes that touched a nonbasic column and before
  /// solve(); a basic column's bounds do not enter x_B.
  void set_column_bounds(Index j, double lb, double ub);
  /// Restore all working bounds from the standard form.
  void reset_bounds();
  [[nodiscard]] double column_lb(Index j) const { return lb_[j]; }
  [[nodiscard]] double column_ub(Index j) const { return ub_[j]; }

  // ---- basis management ---------------------------------------------
  /// All logicals basic; structurals nonbasic at the bound their cost
  /// prefers.  Dual feasible for any model where each structural variable
  /// has a finite bound on the side its cost pushes toward.
  void reset_to_logical_basis();
  /// Restore a snapshot taken on the same standard form (asserts the
  /// shapes match), by column swaps from the held basis when few columns
  /// differ and by refactorization otherwise (see the header comment).
  /// Nonbasic statuses are normalized against the current working
  /// bounds, then repaired to DUAL feasibility: columns sitting on
  /// the bound their reduced cost argues against are flipped to the other
  /// finite bound, and if any column admits no such repair (or the basis
  /// is singular beyond refactorize()'s row repair) the engine degrades to
  /// the all-logical cold basis — loading a foreign or stale basis can
  /// cost pivots, never correctness.
  void load_basis(const Basis& basis);
  [[nodiscard]] Basis snapshot_basis() const;

  /// Recompute x_B and nonbasic values from the current bounds + basis.
  void refresh_basic_solution();

  // ---- solving -------------------------------------------------------
  /// Run dual simplex to optimality (primal feasibility).  The basis must
  /// already be dual feasible, which holds in all supported entry paths.
  SolveStatus solve(const SimplexOptions& options);

  // ---- solution access ------------------------------------------------
  [[nodiscard]] double objective_value() const;
  /// Value of any column (structural or logical) at the current basis.
  [[nodiscard]] double column_value(Index j) const;
  /// Values of the structural columns only.
  [[nodiscard]] std::vector<double> structural_solution() const;
  /// Reduced cost of a column (valid after solve()).
  [[nodiscard]] double reduced_cost(Index j) const { return d_[j]; }
  [[nodiscard]] VStat column_status(Index j) const {
    return stat_[j];
  }
  [[nodiscard]] const SimplexStats& stats() const { return stats_; }
  /// The explicit basis inverse, m x m row-major; row i belongs to the
  /// column basic in row i.  Read by the factorization tests.
  [[nodiscard]] const std::vector<double>& basis_inverse() const {
    return binv_;
  }

 private:
  // Dense pivot-row / FTRAN helpers.
  void ftran(Index j, std::vector<double>& w) const;  // w = B^{-1} A_j
  double column_dot(const double* rho, Index j) const;  // rho . A_j

  /// Rebuild B^{-1} from the basic columns.  Repairs a singular basis by
  /// swapping dependent columns for logicals; true when it did.
  bool refactorize();
  /// refactorize() inside solve(): rebuilds x_B and the duals, and after a
  /// repair restores dual feasibility first (as load_basis does).
  void refactorize_in_solve();
  /// Flip nonbasic columns whose reduced cost argues against their bound
  /// to the other finite bound; false when some column admits no flip.
  [[nodiscard]] bool flip_to_dual_feasible();
  /// Walk the basis to `target`'s basic set by column swaps on B^{-1},
  /// then reorder its rows to `target`'s.  False (basis_ and B^{-1} left
  /// consistent but not at `target`) when the swaps are too many or a
  /// swap pivot is too small; the caller refactorizes instead.
  bool swap_to_basis(const std::vector<Index>& target);
  /// Product-form update of B^{-1} for the column FTRANed into w_
  /// entering at row r with pivot element `pivot`.
  void update_inverse(Index r, double pivot);
  void compute_duals();
  [[nodiscard]] double nonbasic_value(Index j) const;

  /// One dual pivot: returns false when no leaving row exists (optimal).
  enum class PivotResult { kOptimal, kPivoted, kInfeasible, kNumerical };
  PivotResult dual_pivot();

  const StandardForm& sf_;
  Index m_, n_;  // rows, total columns

  std::vector<double> lb_, ub_;  // working bounds (B&B overrides)
  std::vector<Index> basis_;     // basic column per row
  std::vector<VStat> stat_;      // per-column status
  std::vector<double> binv_;     // m x m row-major explicit inverse
  std::vector<double> xb_;       // values of basic columns per row
  std::vector<double> d_;        // reduced costs per column

  // Scratch buffers reused across pivots.
  std::vector<double> alpha_;          // pivot row across all columns
  std::vector<Index> eligible_;        // candidate entering columns
  std::vector<double> w_;              // FTRAN result
  std::vector<double> work_b_;         // refactorization workspace

  int pivots_since_refactor_ = 0;
  // SimplexOptions::refactor_interval of the latest solve(); load_basis
  // counts its swaps against the same budget.
  int refactor_interval_ = SimplexOptions{}.refactor_interval;
  std::uint32_t tie_rotation_ = 0;  // deterministic tie-break rotation
  // Anti-cycling: after a long streak of degenerate (zero dual step)
  // pivots, switch to Bland's smallest-index rules, which provably
  // terminate; leave the mode on the first non-degenerate pivot.  The
  // streak threshold comes from SimplexOptions::stall_threshold.
  int degenerate_streak_ = 0;
  int stall_threshold_ = 200;
  bool bland_mode_ = false;
  SimplexStats stats_;
};

}  // namespace gmm::lp
