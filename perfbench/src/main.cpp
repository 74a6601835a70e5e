// Benchmark driver.  Usually started by perfbench/run.py, which builds it:
//
//   gmm_perfbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//   gmm_perfbench --version      compiler and build type, as JSON
//
// Prints one JSON object as its last stdout line (correct, attempted,
// failed, metrics) and writes the run's detail record, span file and
// effort ledger under DIR.  Exits 1 when any output was wrong.
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_MAPPER_SERVE
#define PERFBENCH_MAPPER_SERVE "mapper_serve"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

bool parse_args(int argc, char** argv, perfbench::RunParams& params) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      params.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      params.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      params.seconds = std::stod(value);
    } else if (flag == "--trace") {
      params.trace = value == "1";
    } else if (flag == "--out") {
      params.out_dir = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && params.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--version") == 0) {
    std::printf("{\"compiler\": \"%s\", \"build_type\": \"%s\"}\n",
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
    return 0;
  }
  perfbench::RunParams params;
  try {
    if (!parse_args(argc, argv, params)) {
      std::fprintf(stderr,
                   "usage: %s --workload NAME --seed N --seconds S "
                   "--trace 0|1 --out DIR\n",
                   argv[0]);
      return 2;
    }
    // Effort counts are comparable only for one binary.
    const std::string build = perfbench::build_id(argv[0]);
    perfbench::RunResult run;
    if (params.workload == "global-batch") {
      run = perfbench::run_batch(params, build);
    } else if (params.workload == "serve-mix") {
      run = perfbench::run_serve(params, build, PERFBENCH_MAPPER_SERVE);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", params.workload.c_str());
      return 2;
    }

    for (const std::string& error : run.errors) {
      std::fprintf(stderr, "WRONG: %s\n", error.c_str());
    }
    const std::string result =
        std::string("{\"correct\": ") + (run.correct() ? "true" : "false") +
        ", \"attempted\": " + std::to_string(run.attempted) +
        ", \"failed\": " + std::to_string(run.failed) +
        ", \"metrics\": " + run.metrics.to_json() + "}";
    std::ofstream detail(params.out_dir + "/detail-" + params.workload + "-" +
                         std::to_string(params.seed) +
                         (params.trace ? "-trace" : "") + ".json");
    detail << "{\"result\": " << result;
    for (const auto& [key, value] : run.detail) {
      detail << ", " << perfbench::json_string(key) << ": " << value;
    }
    detail << ", \"errors\": [";
    for (std::size_t i = 0; i < run.errors.size(); ++i) {
      detail << (i == 0 ? "" : ", ") << perfbench::json_string(run.errors[i]);
    }
    detail << "]}\n";
    std::printf("%s\n", result.c_str());
    std::fflush(stdout);
    return run.correct() ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
}
