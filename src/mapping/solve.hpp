// One formulation dispatch, shared by mapper_cli and the mapping service:
// every caller that picks a formulation at run time reaches map_pipeline,
// map_complete and map_sharded through solve(), and gets one Outcome back.
#pragma once

#include "arch/board.hpp"
#include "design/design.hpp"
#include "ilp/mip_solver.hpp"
#include "mapping/types.hpp"

namespace gmm::mapping {

/// Map `design` onto `board` with `formulation`.  `mip` configures every
/// ILP the formulation solves (cancel token, gap, budgets, threads).
/// `thread_budget` caps a sharded solve's fan-out workers x per-candidate
/// B&B threads (ShardOptions::thread_budget; 0 = hardware concurrency);
/// the other formulations ignore it.
Outcome solve(Formulation formulation, const design::Design& design,
              const arch::Board& board, const ilp::MipOptions& mip,
              int thread_budget = 0);

}  // namespace gmm::mapping
