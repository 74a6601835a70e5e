// The paper's full global/detailed pipeline: pre-process, solve the
// global ILP, run detailed mapping, and — if detailed mapping fails
// (possible only on >2-port types, where the Figure-3 port estimate is
// inexact) — add a no-good cut and re-run, exactly as the paper
// prescribes: "the global and detailed mappers need to execute multiple
// times until a solution is found".
//
// The reported timing matches Table 3's accounting: "execution times for
// the global/detailed formulation include all pre-processing steps".
#pragma once

#include "arch/board.hpp"
#include "design/design.hpp"
#include "mapping/detailed_mapper.hpp"
#include "mapping/global_mapper.hpp"

namespace gmm::mapping {

struct PipelineOptions {
  GlobalOptions global;
  DetailedOptions detailed;
  int max_retries = 16;
};

/// The pipeline's former result name, still spelled by perfbench/.
using PipelineResult = Outcome;

Outcome map_pipeline(const design::Design& design, const arch::Board& board,
                     const PipelineOptions& options = {});

}  // namespace gmm::mapping
