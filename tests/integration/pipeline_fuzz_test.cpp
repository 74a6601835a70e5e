// Pipeline fuzzing: random boards (via the totals template) and random
// designs; every outcome must be either a proven status or a validated
// mapping.  This is the broad net behind the targeted unit tests.
#include <gtest/gtest.h>

#include "mapping/pipeline.hpp"
#include "mapping/validate.hpp"
#include "sim/memory_sim.hpp"
#include "support/rng.hpp"
#include "workload/workload_gen.hpp"

namespace gmm {
namespace {

class PipelineFuzz : public ::testing::TestWithParam<int> {};

TEST_P(PipelineFuzz, EveryOutcomeIsSoundAndSimulable) {
  support::Rng rng(12000 + GetParam());

  // Random realizable totals: banks, extra dual-ported banks, configs.
  const std::int64_t banks = rng.uniform_int(4, 60);
  const std::int64_t dual = rng.uniform_int(0, banks);
  const std::int64_t ports = banks + dual;
  const std::int64_t configs = 5 * rng.uniform_int(0, 2 * dual);
  const auto board =
      workload::board_from_totals({banks, ports, configs});
  if (!board.has_value()) GTEST_SKIP() << "unrealizable totals";

  workload::DesignGenOptions options;
  options.num_segments =
      rng.uniform_int(2, std::min<std::int64_t>(ports, 40));
  options.seed = rng.fork_seed();
  options.all_conflicting = rng.bernoulli(0.5);
  options.paper_access_model = rng.bernoulli(0.7);
  const design::Design design = workload::generate_design(*board, options);

  mapping::PipelineOptions pipeline_options;
  pipeline_options.global.mip.time_limit_seconds = 20;
  const mapping::Outcome r =
      mapping::map_pipeline(design, *board, pipeline_options);

  if (r.status == lp::SolveStatus::kOptimal ||
      r.status == lp::SolveStatus::kFeasible) {
    ASSERT_TRUE(r.detailed.success) << r.detailed.failure;
    const auto violations =
        mapping::validate_mapping(design, *board, r.assignment, r.detailed);
    EXPECT_TRUE(violations.empty())
        << "seed " << GetParam() << ": " << violations.front();
    // The mapping must also be simulable end to end.
    sim::TraceOptions trace_options;
    trace_options.seed = options.seed;
    trace_options.max_accesses = 5'000;
    const auto trace = sim::generate_trace(design, trace_options);
    const sim::SimReport report =
        sim::simulate(*board, design, r.detailed, trace);
    EXPECT_EQ(report.accesses, static_cast<std::int64_t>(trace.size()));
  } else {
    // Infeasibility and limits are acceptable; crashes and invalid
    // mappings are not (reaching this line means no assert fired).
    SUCCEED();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PipelineFuzz, ::testing::Range(0, 40));

}  // namespace
}  // namespace gmm
