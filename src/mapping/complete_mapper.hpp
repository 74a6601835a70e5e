// Complete ("flat view") memory mapping — the baseline of Table 3.
//
// The paper's prior work [9] formulates the whole problem as one ILP over
//   Z_dt   (structure -> type),
//   X_dtip (structure -> port p of instance i), and
//   Y_tipc (configuration c chosen for port p of instance i),
// which optimizes and places in a single step and whose size explodes
// with the number of banks, ports and configurations — exactly the three
// complexity columns of Table 3.
//
// This reconstruction keeps that variable structure at instance
// granularity:
//   z[d][t]        binary   — type selection (carries the whole objective);
//   n[d][t][g][i]  integer  — how many fragments of Figure-2 group g of
//                             structure d sit on instance i of type t
//                             (the integer aggregation of X_dtip over the
//                             symmetric ports of an instance);
//   y[t][i][c]     integer  — ports of instance i configured as c (the
//                             aggregation of Y_tipc), present only for
//                             multi-configuration types as in the paper.
// Constraints: uniqueness, fragment completeness, per-instance port and
// capacity limits, and port/configuration consistency.  The objective is
// the same CostTable expression the global mapper uses, so a proven
// optimum of either formulation certifies the other (the paper's
// optimality-preservation claim, checked by the quality-parity bench).
#pragma once

#include "arch/board.hpp"
#include "design/design.hpp"
#include "ilp/mip_solver.hpp"
#include "mapping/cost_model.hpp"
#include "mapping/types.hpp"

namespace gmm::mapping {

struct CompleteOptions {
  ilp::MipOptions mip;
  /// Inject a packing-repair primal heuristic (rounds the LP's Z, runs
  /// the detailed packer, feeds the result back as an incumbent).  Helps
  /// pruning; the formulation size — the paper's point — is unaffected.
  bool use_packing_heuristic = true;
};

/// The complete formulation's former result name, still spelled by
/// perfbench/.  Its placement is decoded from the ILP solution.
using CompleteResult = Outcome;

Outcome map_complete(const design::Design& design, const arch::Board& board,
                     const CostTable& table,
                     const CompleteOptions& options = {});

}  // namespace gmm::mapping
