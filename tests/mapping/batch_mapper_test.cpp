// Batched mapping: N independent designs fanned out over one shared pool
// with support::parallel_for + map_pipeline (the shape of mapper_cli's
// batch mode and map_sharded's candidate fan-out) must produce exactly
// the per-design pipeline results, in order.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "mapping/pipeline.hpp"
#include "mapping/validate.hpp"
#include "support/thread_pool.hpp"
#include "workload/workload_gen.hpp"

namespace gmm::mapping {
namespace {

std::vector<design::Design> corpus(const arch::Board& board, int count) {
  std::vector<design::Design> designs;
  for (int i = 0; i < count; ++i) {
    workload::DesignGenOptions gen;
    gen.num_segments = 8 + 2 * i;
    gen.seed = 9000 + static_cast<std::uint64_t>(i);
    designs.push_back(workload::generate_design(board, gen));
  }
  return designs;
}

std::vector<Outcome> map_all(support::ThreadPool& pool,
                             const std::vector<design::Design>& designs,
                             const arch::Board& board) {
  std::vector<Outcome> results(designs.size());
  support::parallel_for(pool, designs.size(), [&](std::size_t i) {
    results[i] = map_pipeline(designs[i], board);
  });
  return results;
}

TEST(BatchMapper, MatchesSerialPipelinePerItem) {
  const auto board =
      workload::board_from_totals({.banks = 16, .ports = 24, .configs = 50});
  ASSERT_TRUE(board.has_value());
  const std::vector<design::Design> designs = corpus(*board, 6);

  support::ThreadPool pool(4);
  const std::vector<Outcome> batch = map_all(pool, designs, *board);
  ASSERT_EQ(batch.size(), designs.size());

  for (std::size_t i = 0; i < designs.size(); ++i) {
    EXPECT_TRUE(batch[i].mapped()) << "item " << i;
    const Outcome serial = map_pipeline(designs[i], *board);
    ASSERT_EQ(batch[i].status, serial.status) << "item " << i;
    EXPECT_NEAR(batch[i].assignment.objective, serial.assignment.objective,
                1e-6 * std::max(1.0, std::abs(serial.assignment.objective)))
        << "item " << i;
    // Every batched mapping must be legal against its own design.
    EXPECT_TRUE(validate_mapping(designs[i], *board, batch[i].assignment,
                                 batch[i].detailed)
                    .empty())
        << "item " << i;
  }
}

TEST(BatchMapper, SharedExternalPoolAcrossBatches) {
  const auto board =
      workload::board_from_totals({.banks = 16, .ports = 24, .configs = 50});
  ASSERT_TRUE(board.has_value());
  const std::vector<design::Design> designs = corpus(*board, 4);
  // One pool, two waves — the serving pattern (pool outlives batches).
  support::ThreadPool pool(3);
  const std::vector<Outcome> first = map_all(pool, designs, *board);
  const std::vector<Outcome> second = map_all(pool, designs, *board);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_TRUE(first[i].mapped()) << "item " << i;
    EXPECT_EQ(first[i].status, second[i].status);
    EXPECT_EQ(first[i].assignment.objective, second[i].assignment.objective);
  }
}

}  // namespace
}  // namespace gmm::mapping
