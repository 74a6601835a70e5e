// Stress tier (CTest label "stress"; the sanitizer CI lane runs it):
// hammer the ThreadPool-backed serving paths with many small requests
// under randomized cancellation and deadline injection, and assert the
// liveness contracts that matter for a long-lived server —
//
//   * every admitted request terminates with exactly one definite status
//     (no lost, duplicated, or indefinite responses),
//   * the service drains (no hang, no stuck worker),
//   * a parallel_for batch of map_pipeline runs returns a definite
//     per-item status even when its shared token fires mid-batch,
//
// all under ASan+UBSan leak checking in CI.  Schedules are randomized
// but the SEEDS are fixed, so a failure reproduces.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "design/design_io.hpp"
#include "mapping/pipeline.hpp"
#include "service/mapping_service.hpp"
#include "support/cancellation.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "workload/workload_gen.hpp"

namespace gmm::service {
namespace {

arch::Board stress_board() {
  return *workload::board_from_totals({.banks = 23, .ports = 45,
                                       .configs = 100});
}

std::string random_design_text(support::Rng& rng) {
  workload::DesignGenOptions gen;
  gen.num_segments = rng.uniform_int(3, 10);
  gen.seed = rng.next_u64();
  return design::design_to_string(
      workload::generate_design(stress_board(), gen));
}

TEST(ServiceStress, RandomizedCancelAndDeadlineInjection) {
  constexpr int kRequests = 60;
  support::Rng rng(20260729);

  std::mutex mutex;
  std::map<std::string, std::vector<ResponseStatus>> terminal;
  MappingService service(
      {stress_board()}, {.workers = 4, .max_pending = 12},
      [&mutex, &terminal](const Response& r) {
        if (r.method != "map") return;
        const std::scoped_lock lock(mutex);
        terminal[r.id].push_back(r.status);
      });

  // Pre-generate so the submit loop is tight enough to overflow the
  // bounded queue now and then (that path must count too).
  std::vector<Request> requests;
  std::vector<bool> cancel_plan;
  for (int i = 0; i < kRequests; ++i) {
    Request r;
    r.method = Method::kMap;
    r.id = "req" + std::to_string(i);
    r.map.design_text = random_design_text(rng);
    const int profile = static_cast<int>(rng.uniform_int(0, 3));
    if (profile == 1) {
      r.map.deadline_ms = static_cast<double>(rng.uniform_int(0, 25));
    }
    cancel_plan.push_back(profile == 2);
    requests.push_back(std::move(r));
  }

  // A second thread fires cancels while the main thread keeps admitting:
  // cancels race admission, solving, and completion — all must be safe.
  std::atomic<int> submitted{0};
  std::thread canceller([&] {
    support::Rng cancel_rng(7);
    int next = 0;
    while (next < kRequests) {
      const int limit = submitted.load(std::memory_order_acquire);
      for (; next < limit; ++next) {
        if (!cancel_plan[static_cast<std::size_t>(next)]) continue;
        std::this_thread::sleep_for(std::chrono::microseconds(
            cancel_rng.uniform_int(0, 2000)));
        Request cancel;
        cancel.method = Method::kCancel;
        cancel.target = "req" + std::to_string(next);
        service.handle(cancel);
      }
      std::this_thread::yield();
    }
  });

  for (int i = 0; i < kRequests; ++i) {
    service.handle(requests[static_cast<std::size_t>(i)]);
    submitted.store(i + 1, std::memory_order_release);
    if (rng.bernoulli(0.3)) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(rng.uniform_int(0, 3000)));
    }
  }
  canceller.join();
  service.drain();

  // Exactly-once, definite-status accounting.
  const std::scoped_lock lock(mutex);
  std::int64_t rejected = 0;
  for (int i = 0; i < kRequests; ++i) {
    const std::string id = "req" + std::to_string(i);
    ASSERT_TRUE(terminal.contains(id)) << id << " never answered";
    ASSERT_EQ(terminal[id].size(), 1u) << id << " answered twice";
    const ResponseStatus status = terminal[id][0];
    EXPECT_TRUE(status == ResponseStatus::kOk ||
                status == ResponseStatus::kTimeout ||
                status == ResponseStatus::kCancelled ||
                status == ResponseStatus::kRejected)
        << id << " got status " << to_string(status);
    if (status == ResponseStatus::kRejected) ++rejected;
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.accepted + stats.rejected, kRequests);
  EXPECT_EQ(stats.completed, stats.accepted);
  EXPECT_EQ(stats.rejected, rejected);
}

TEST(ServiceStress, RepeatedDrainCyclesStayClean) {
  // Several admit-drain cycles against one service: leftover state from a
  // cycle (a stuck token, a miscounted pending_) would surface here.
  support::Rng rng(99);
  std::atomic<int> answered{0};
  MappingService service({stress_board()}, {.workers = 2},
                         [&answered](const Response& r) {
                           if (r.method == "map") {
                             answered.fetch_add(1,
                                                std::memory_order_relaxed);
                           }
                         });
  int sent = 0;
  for (int cycle = 0; cycle < 4; ++cycle) {
    for (int i = 0; i < 6; ++i) {
      Request r;
      r.method = Method::kMap;
      r.id = "c" + std::to_string(cycle) + "_" + std::to_string(i);
      r.map.design_text = random_design_text(rng);
      if (i % 3 == 1) r.map.deadline_ms = 1.0;
      service.handle(r);
      ++sent;
    }
    service.drain();
    EXPECT_EQ(answered.load(), sent) << "cycle " << cycle;
  }
}

/// Map every design over `pool` (one map_pipeline per design), blocking
/// until the batch completes.
std::vector<mapping::Outcome> map_all(
    support::ThreadPool& pool, const std::vector<design::Design>& designs,
    const arch::Board& board, const mapping::PipelineOptions& options) {
  std::vector<mapping::Outcome> results(designs.size());
  support::parallel_for(pool, designs.size(), [&](std::size_t i) {
    results[i] = mapping::map_pipeline(designs[i], board, options);
  });
  return results;
}

TEST(ServiceStress, MapBatchWithMidBatchCancellation) {
  // The batch driver under the same token plumbing: a shared token fires
  // while the pool is mid-batch.  Every item must come back with a
  // definite status and the batch call must return (wait_idle liveness).
  const arch::Board board = stress_board();
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    support::Rng rng(seed);
    std::vector<design::Design> designs;
    for (int i = 0; i < 24; ++i) {
      workload::DesignGenOptions gen;
      gen.num_segments = rng.uniform_int(3, 8);
      gen.seed = rng.next_u64();
      designs.push_back(workload::generate_design(board, gen));
    }
    auto token = std::make_shared<support::CancelToken>();
    mapping::PipelineOptions options;
    options.global.mip.cancel_token = token;

    support::ThreadPool pool(4);
    std::thread canceller([&token, seed] {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(2 * static_cast<long>(seed)));
      token->cancel();
    });
    const std::vector<mapping::Outcome> batch =
        map_all(pool, designs, board, options);
    canceller.join();

    ASSERT_EQ(batch.size(), designs.size());
    for (const mapping::Outcome& r : batch) {
      EXPECT_TRUE(r.status == lp::SolveStatus::kOptimal ||
                  r.status == lp::SolveStatus::kFeasible ||
                  r.status == lp::SolveStatus::kCancelled)
          << lp::to_string(r.status);
    }
  }
}

TEST(ServiceStress, MapBatchWithSharedDeadline) {
  // Batch-wide deadline: some prefix completes, the rest time out, and
  // the per-item statuses say which is which.
  const arch::Board board = stress_board();
  support::Rng rng(4);
  std::vector<design::Design> designs;
  for (int i = 0; i < 16; ++i) {
    workload::DesignGenOptions gen;
    gen.num_segments = rng.uniform_int(4, 10);
    gen.seed = rng.next_u64();
    designs.push_back(workload::generate_design(board, gen));
  }
  auto token = std::make_shared<support::CancelToken>();
  token->set_deadline_after_seconds(0.005);
  mapping::PipelineOptions options;
  options.global.mip.cancel_token = token;
  support::ThreadPool pool(2);
  const std::vector<mapping::Outcome> batch =
      map_all(pool, designs, board, options);
  ASSERT_EQ(batch.size(), designs.size());
  for (const mapping::Outcome& r : batch) {
    EXPECT_TRUE(r.status == lp::SolveStatus::kOptimal ||
                r.status == lp::SolveStatus::kFeasible ||
                r.status == lp::SolveStatus::kTimeLimit)
        << lp::to_string(r.status);
  }
}

}  // namespace
}  // namespace gmm::service
