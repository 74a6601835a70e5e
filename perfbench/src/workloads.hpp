// The benchmark's workloads.  Each returns the run's result; the caller
// prints it.  See perfbench/config.json for what each workload exercises.
#pragma once

#include <string>

#include "common.hpp"

namespace perfbench {

/// global-batch: the Table-3 corpus mapped sequentially at 1 B&B thread.
RunResult run_batch(const RunParams& params, const std::string& build);

/// serve-mix: open-loop traffic to a real mapper_serve over a Unix socket.
RunResult run_serve(const RunParams& params, const std::string& build,
                    const std::string& server_path);

/// Deterministic permutation of [0, n) drawn from `seed`.
std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed);

/// splitmix64 step: the benchmark's own generator for its inputs.
std::uint64_t next_random(std::uint64_t& state);

}  // namespace perfbench
