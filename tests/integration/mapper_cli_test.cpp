// mapper_cli's command line, exec'd for real (path injected by CMake as
// GMM_MAPPER_CLI_PATH) on the sample data in examples/data.  Every branch
// of the formulation dispatch runs once: global, complete, sharded and
// the batch table.  Retired flags and contradictory combinations must
// fail loudly with the usage line and exit status 2, never be skipped
// over as if they had been honored.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#ifndef GMM_MAPPER_CLI_PATH
#define GMM_MAPPER_CLI_PATH ""
#endif
#ifndef GMM_EXAMPLES_DATA_DIR
#define GMM_EXAMPLES_DATA_DIR ""
#endif

namespace {

struct CliRun {
  int exit_status = -1;
  std::string output;  // stdout and stderr interleaved
};

/// Run mapper_cli on the sample board and `designs` (file names in the
/// sample data directory) plus `flags`.
CliRun run_cli(const std::string& flags,
               const std::vector<std::string>& designs = {"design_fft.txt"}) {
  const std::string data = GMM_EXAMPLES_DATA_DIR;
  std::string command =
      std::string(GMM_MAPPER_CLI_PATH) + " " + data + "/board_xcv300.txt";
  for (const std::string& design : designs) command += " " + data + "/" + design;
  command += " " + flags + " 2>&1";
  CliRun run;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  std::array<char, 4096> buffer{};
  std::size_t got = 0;
  while ((got = std::fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    run.output.append(buffer.data(), got);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) run.exit_status = WEXITSTATUS(status);
  return run;
}

class MapperCli : public ::testing::Test {
 protected:
  void SetUp() override {
    if (std::string(GMM_MAPPER_CLI_PATH).empty()) {
      GTEST_SKIP() << "mapper_cli path not configured";
    }
  }
};

TEST_F(MapperCli, MapsTheSampleDesign) {
  const CliRun run = run_cli("--csv");
  EXPECT_EQ(run.exit_status, 0) << run.output;
  EXPECT_EQ(run.output.find("usage:"), std::string::npos) << run.output;
}

TEST_F(MapperCli, CompleteFormulationPrintsItsObjective) {
  const CliRun run = run_cli("--complete");
  EXPECT_EQ(run.exit_status, 0) << run.output;
  EXPECT_NE(run.output.find("complete mapping of 'fft1k'"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("optimal, objective "), std::string::npos)
      << run.output;
}

TEST_F(MapperCli, DevicesFlagShardsTheBoard) {
  const CliRun run = run_cli("--devices 2");
  EXPECT_EQ(run.exit_status, 0) << run.output;
  EXPECT_NE(run.output.find("sharded over 2 devices"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("sharded mapping of 'fft1k'"), std::string::npos)
      << run.output;
}

TEST_F(MapperCli, SeveralDesignsPrintTheBatchTable) {
  const CliRun run = run_cli("", {"design_fft.txt", "design_filter.txt"});
  EXPECT_EQ(run.exit_status, 0) << run.output;
  EXPECT_NE(run.output.find("B&B nodes"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("2/2 designs mapped"), std::string::npos)
      << run.output;
}

TEST_F(MapperCli, CompleteOnShardedBoardPrintsUsageAndFails) {
  const CliRun run = run_cli("--complete --devices 2");
  EXPECT_EQ(run.exit_status, 2) << run.output;
  EXPECT_NE(run.output.find("usage:"), std::string::npos) << run.output;
}

TEST_F(MapperCli, RemovedPortfolioFlagPrintsUsageAndFails) {
  const CliRun run = run_cli("--portfolio");
  EXPECT_EQ(run.exit_status, 2) << run.output;
  EXPECT_NE(run.output.find("usage:"), std::string::npos) << run.output;
  EXPECT_EQ(run.output.find("--portfolio"), std::string::npos) << run.output;
}

TEST_F(MapperCli, RemovedLanesFlagPrintsUsageAndFails) {
  const CliRun run = run_cli("--lanes 2");
  EXPECT_EQ(run.exit_status, 2) << run.output;
  EXPECT_NE(run.output.find("usage:"), std::string::npos) << run.output;
  EXPECT_EQ(run.output.find("--lanes"), std::string::npos) << run.output;
}

TEST_F(MapperCli, RemovedLpEngineFlagPrintsUsageAndFails) {
  const CliRun run = run_cli("--lp-engine dense");
  EXPECT_EQ(run.exit_status, 2) << run.output;
  EXPECT_NE(run.output.find("usage:"), std::string::npos) << run.output;
  EXPECT_EQ(run.output.find("--lp-engine"), std::string::npos) << run.output;
}

}  // namespace
