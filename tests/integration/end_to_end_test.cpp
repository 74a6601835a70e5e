// Cross-module integration: workload generation -> global/detailed and
// complete mapping -> validation -> simulation, on downsized versions of
// the paper's Table-3 points (full-size runs live in bench/).
#include <gtest/gtest.h>

#include "mapping/complete_mapper.hpp"
#include "mapping/greedy_mapper.hpp"
#include "mapping/pipeline.hpp"
#include "mapping/validate.hpp"
#include "sim/memory_sim.hpp"
#include "workload/table3_suite.hpp"

namespace gmm {
namespace {

TEST(EndToEnd, SmallestTable3PointFullPipeline) {
  const workload::Table3Instance instance =
      workload::build_instance(workload::table3_points().front());

  // Global/detailed; zero-gap options so the parity comparison is exact.
  mapping::PipelineOptions pipeline_options;
  pipeline_options.global.mip.rel_gap = 1e-9;
  const mapping::Outcome pipeline = mapping::map_pipeline(
      instance.design, instance.board, pipeline_options);
  ASSERT_EQ(pipeline.status, lp::SolveStatus::kOptimal);
  ASSERT_TRUE(pipeline.detailed.success) << pipeline.detailed.failure;
  EXPECT_TRUE(mapping::validate_mapping(instance.design, instance.board,
                                        pipeline.assignment,
                                        pipeline.detailed)
                  .empty());

  // Complete approach agrees on the objective.
  const mapping::CostTable table(instance.design, instance.board);
  mapping::CompleteOptions complete_options;
  complete_options.mip.rel_gap = 1e-9;
  const mapping::Outcome complete = mapping::map_complete(
      instance.design, instance.board, table, complete_options);
  ASSERT_EQ(complete.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(complete.assignment.objective, pipeline.assignment.objective,
              1e-6 * std::max(1.0, pipeline.assignment.objective));

  // The complete model is the bigger formulation.
  EXPECT_GT(complete.model_size.variables, pipeline.model_size.variables);
  EXPECT_GT(complete.model_size.rows, pipeline.model_size.rows);

  // Simulation runs and the ILP-optimal mapping beats greedy (or ties).
  const std::vector<sim::Access> trace = sim::generate_trace(instance.design);
  const sim::SimReport ilp_sim = sim::simulate(
      instance.board, instance.design, pipeline.detailed, trace);
  EXPECT_EQ(ilp_sim.accesses, static_cast<std::int64_t>(trace.size()));

  const mapping::GreedyResult greedy =
      mapping::map_greedy(instance.design, instance.board, table);
  if (greedy.success) {
    const mapping::DetailedMapping greedy_detail = mapping::map_detailed(
        instance.design, instance.board, table, greedy.assignment);
    if (greedy_detail.success) {
      const sim::SimReport greedy_sim = sim::simulate(
          instance.board, instance.design, greedy_detail, trace);
      EXPECT_LE(ilp_sim.latency_sum, greedy_sim.latency_sum);
    }
  }
}

TEST(EndToEnd, GlobalObjectiveMatchesCostTableRecomputation) {
  const workload::Table3Instance instance =
      workload::build_instance(workload::table3_points()[1]);
  const mapping::Outcome pipeline =
      mapping::map_pipeline(instance.design, instance.board);
  ASSERT_EQ(pipeline.status, lp::SolveStatus::kOptimal);
  const mapping::CostTable table(instance.design, instance.board);
  EXPECT_NEAR(table.assignment_objective(pipeline.assignment.type_of),
              pipeline.assignment.objective,
              1e-6 * std::max(1.0, pipeline.assignment.objective));
}

TEST(EndToEnd, DetailedMappingNeverChangesTheGlobalCost) {
  // The paper's central claim, end to end: re-costing the assignment
  // after detailed mapping gives the identical objective (placement is
  // cost-neutral because instances of a type are interchangeable).
  const workload::Table3Instance instance =
      workload::build_instance(workload::table3_points()[2]);
  const mapping::Outcome pipeline =
      mapping::map_pipeline(instance.design, instance.board);
  ASSERT_EQ(pipeline.status, lp::SolveStatus::kOptimal);
  ASSERT_TRUE(pipeline.detailed.success);
  // Recompute the cost from the *placed fragments'* types.
  const mapping::CostTable table(instance.design, instance.board);
  std::vector<int> placed_types(instance.design.size(), -1);
  for (const mapping::PlacedFragment& f : pipeline.detailed.fragments) {
    if (placed_types[f.ds] < 0) {
      placed_types[f.ds] = static_cast<int>(f.type);
    } else {
      EXPECT_EQ(placed_types[f.ds], static_cast<int>(f.type))
          << "structure split across types";
    }
  }
  EXPECT_NEAR(table.assignment_objective(placed_types),
              pipeline.assignment.objective,
              1e-6 * std::max(1.0, pipeline.assignment.objective));
}

}  // namespace
}  // namespace gmm
