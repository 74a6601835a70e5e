// Pluggable LP engine interface for the bounded-variable dual simplex.
//
// Everything above the LP layer — branch & bound workers, the basis
// warm-start cache, the root cut loop, pipeline retries — talks to an
// LpBackend, never to a concrete engine.  Two implementations exist:
//
//   * DenseTableauBackend (lp/simplex.hpp): the original engine with an
//     explicit dense B^{-1}; per-pivot cost O(m^2 + nnz(A)).  Kept as
//     the differential-testing oracle and the default.
//   * SparseSimplexBackend (lp/sparse_simplex.hpp): sparse revised
//     simplex — LU factorization of the basis with partial pivoting,
//     bounded product-form eta updates between periodic
//     refactorizations, and a row-wise pivot-row computation — so
//     per-pivot cost scales with the nonzeros actually touched.
//
// Both implement the SAME dual-simplex contract (see simplex.hpp's
// header comment for the rationale): any entry path is dual feasible,
// solve() runs dual pivots to primal feasibility, and a Basis snapshot
// taken on one backend loads into the other (the snapshot is pure
// status, no factorization state).
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "lp/basis.hpp"
#include "lp/types.hpp"

namespace gmm::lp {

struct StandardForm;

/// Selectable LP engine implementation (MipOptions::lp_engine, the wire
/// knob "options.lp_engine", mapper_cli --lp-engine).
enum class LpEngine : std::uint8_t { kDense, kSparse };

constexpr const char* to_string(LpEngine engine) {
  switch (engine) {
    case LpEngine::kDense:
      return "dense";
    case LpEngine::kSparse:
      return "sparse";
  }
  return "?";
}

/// Parse "dense" / "sparse"; false on anything else (callers reject, not
/// clamp — an unknown engine name is a client bug, not a preference).
bool parse_lp_engine(std::string_view text, LpEngine& out);

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
  std::int64_t bound_flips = 0;       // cumulative (long-step ratio test)
  /// Arithmetic work proxy: inner-loop multiply-adds the engine actually
  /// performed (inverse/eta updates, pivot rows, triangular solves,
  /// factorizations).  The dense/sparse A/B compares THIS, not wall
  /// time, so "per-pivot cost scales with nonzeros" is measurable on any
  /// machine.
  std::int64_t work_units = 0;
};

/// Abstract bounded-variable dual-simplex engine over one StandardForm.
/// See SimplexEngine's original documentation for the entry contracts;
/// they bind every implementation:
///   * construction leaves the engine on the all-logical basis;
///   * set_column_bounds keeps nonbasic statuses dual feasible; see
///     refresh_basic_solution() for when x_B must be rebuilt before
///     solve();
///   * load_basis normalizes + repairs a snapshot to dual feasibility,
///     degrading to the cold logical basis when no cheap repair exists;
///   * solve() requires a dual-feasible basis and returns kOptimal with
///     primal feasibility restored.
class LpBackend {
 public:
  virtual ~LpBackend() = default;

  // ---- bounds (branch & bound interface) ----------------------------
  virtual void set_column_bounds(Index j, double lb, double ub) = 0;
  virtual void reset_bounds() = 0;
  [[nodiscard]] virtual double column_lb(Index j) const = 0;
  [[nodiscard]] virtual double column_ub(Index j) const = 0;

  // ---- basis management ---------------------------------------------
  virtual void reset_to_logical_basis() = 0;
  virtual void load_basis(const Basis& basis) = 0;
  [[nodiscard]] virtual Basis snapshot_basis() const = 0;
  /// Rebuild x_B from the working bounds.  Needed before solve() only
  /// after a bound change on a NONBASIC column: a basic column's bounds
  /// do not enter x_B (the branch-and-bound dive relies on this, since it
  /// branches on fractional, hence basic, columns).
  virtual void refresh_basic_solution() = 0;

  // ---- solving -------------------------------------------------------
  virtual SolveStatus solve(const SimplexOptions& options) = 0;

  // ---- solution access ------------------------------------------------
  [[nodiscard]] virtual double objective_value() const = 0;
  [[nodiscard]] virtual double column_value(Index j) const = 0;
  [[nodiscard]] virtual std::vector<double> structural_solution() const = 0;
  [[nodiscard]] virtual double reduced_cost(Index j) const = 0;
  [[nodiscard]] virtual VStat column_status(Index j) const = 0;
  [[nodiscard]] virtual const SimplexStats& stats() const = 0;
};

/// Build a backend over `sf` (which must outlive the backend).
std::unique_ptr<LpBackend> make_lp_backend(LpEngine engine,
                                           const StandardForm& sf);

namespace detail {

/// Nonbasic status that keeps a basis DUAL feasible for reduced cost `d`
/// under working bounds [lb, ub] (d >= 0 wants the lower bound, d < 0
/// the upper; one-sided bounds force the side).  Shared by both engines'
/// set_column_bounds so branch-and-bound bound paths behave identically.
VStat dual_feasible_status(double d, double lb, double ub);

/// Normalize one loaded-snapshot status against working bounds: keep the
/// snapshot's status whenever the bound it references still exists.
/// Shared by both engines' load_basis.
VStat normalize_loaded_status(VStat status, double lb, double ub);

}  // namespace detail

}  // namespace gmm::lp
