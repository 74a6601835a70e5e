// Batched mapping driver: N independent designs over one shared pool
// must produce exactly the per-design pipeline results, in order.
#include "mapping/batch_mapper.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "mapping/pipeline.hpp"
#include "mapping/validate.hpp"
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

TEST(BatchMapper, MatchesSerialPipelinePerItem) {
  const auto board =
      workload::board_from_totals({.banks = 16, .ports = 24, .configs = 50});
  ASSERT_TRUE(board.has_value());
  const std::vector<design::Design> designs = corpus(*board, 6);

  std::vector<BatchItem> items;
  for (const design::Design& d : designs) {
    items.push_back({.design = &d, .board = &*board});
  }
  const BatchResult batch = map_batch(items, PipelineOptions{}, 4);
  ASSERT_EQ(batch.results.size(), designs.size());
  EXPECT_TRUE(batch.all_succeeded());

  for (std::size_t i = 0; i < designs.size(); ++i) {
    const Outcome serial = map_pipeline(designs[i], *board);
    ASSERT_EQ(batch.results[i].status, serial.status) << "item " << i;
    EXPECT_NEAR(batch.results[i].assignment.objective,
                serial.assignment.objective,
                1e-6 * std::max(1.0, std::abs(serial.assignment.objective)))
        << "item " << i;
    // Every batched mapping must be legal against its own design.
    EXPECT_TRUE(validate_mapping(designs[i], *board,
                                 batch.results[i].assignment,
                                 batch.results[i].detailed)
                    .empty())
        << "item " << i;
  }
}

TEST(BatchMapper, SharedExternalPoolAcrossBatches) {
  const auto board =
      workload::board_from_totals({.banks = 16, .ports = 24, .configs = 50});
  ASSERT_TRUE(board.has_value());
  const std::vector<design::Design> designs = corpus(*board, 4);
  std::vector<BatchItem> items;
  for (const design::Design& d : designs) {
    items.push_back({.design = &d, .board = &*board});
  }
  // One pool, two waves — the serving pattern (pool outlives batches).
  support::ThreadPool pool(3);
  const BatchResult first = map_batch(pool, items);
  const BatchResult second = map_batch(pool, items);
  ASSERT_EQ(first.results.size(), second.results.size());
  EXPECT_TRUE(first.all_succeeded());
  for (std::size_t i = 0; i < first.results.size(); ++i) {
    EXPECT_EQ(first.results[i].status, second.results[i].status);
    EXPECT_EQ(first.results[i].assignment.objective,
              second.results[i].assignment.objective);
  }
}

TEST(BatchMapper, EmptyBatch) {
  const BatchResult batch = map_batch({}, PipelineOptions{}, 2);
  EXPECT_TRUE(batch.results.empty());
  EXPECT_TRUE(batch.all_succeeded());
  EXPECT_EQ(batch.succeeded, 0u);
}

}  // namespace
}  // namespace gmm::mapping
