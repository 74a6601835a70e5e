// End-to-end jsonl service test: spawns the real mapper_serve binary
// (path injected by CMake as GMM_MAPPER_SERVE_PATH) and drives one full
// client session over its stdin/stdout:
//
//   * a liveness ping,
//   * 8 concurrent mapping requests whose placements and objectives are
//     checked against in-process map_pipeline runs of the same designs,
//   * a stats round-trip whose request accounting and aggregate solver
//     counters must reflect those 8 solves,
//   * a deadline-limited request that must come back "timeout",
//   * a cancelled request that must come back "cancelled",
//   * a graceful shutdown (ack, clean exit code, no hang).
//
// Further sessions pin what pipe mode shares with the socket transport:
// a stdout whose reader goes away cancels the running solve and ends the
// server, and the socket.read/socket.write fault points fire on stdio.
#include <gtest/gtest.h>

#ifndef _WIN32
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#endif

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "arch/arch_io.hpp"
#include "design/design_io.hpp"
#include "mapping/pipeline.hpp"
#include "service/json.hpp"
#include "service/process_client.hpp"
#include "service/protocol.hpp"
#include "workload/workload_gen.hpp"

namespace gmm::service {
namespace {

#ifndef GMM_MAPPER_SERVE_PATH
#define GMM_MAPPER_SERVE_PATH ""
#endif

constexpr double kReadTimeout = 120.0;  // generous: CI boxes can be slow

arch::Board small_board() {
  return *workload::board_from_totals({.banks = 23, .ports = 45,
                                       .configs = 100});
}

arch::Board big_board() {
  return *workload::board_from_totals({.banks = 180, .ports = 265,
                                       .configs = 375});
}

design::Design client_design(int i) {
  workload::DesignGenOptions gen;
  gen.num_segments = 8 + i;
  gen.seed = 1000 + static_cast<std::uint64_t>(i);
  return workload::generate_design(small_board(), gen);
}

/// Reads responses until every id in `wanted` has one (map responses
/// only; acks pass through into `acks`).
bool collect(ProcessClient& client, std::set<std::string> wanted,
             std::map<std::string, Response>& out,
             std::vector<Response>* acks = nullptr) {
  while (!wanted.empty()) {
    const auto line = client.read_line(kReadTimeout);
    if (!line.has_value()) {
      ADD_FAILURE() << "server went silent while waiting for "
                    << wanted.size() << " response(s)";
      return false;
    }
    const JsonParseResult parsed = parse_json(*line);
    EXPECT_TRUE(parsed.ok) << *line;
    if (!parsed.ok) return false;
    Response response;
    EXPECT_TRUE(Response::from_json(parsed.value, response)) << *line;
    if (response.method == "map") {
      EXPECT_TRUE(wanted.contains(response.id))
          << "unexpected/duplicate terminal response " << *line;
      wanted.erase(response.id);
      out.emplace(response.id, std::move(response));
    } else if (acks != nullptr) {
      acks->push_back(std::move(response));
    }
  }
  return true;
}

TEST(ServiceJsonl, FullSessionAgainstRealServer) {
  if (std::string(GMM_MAPPER_SERVE_PATH).empty()) {
    GTEST_SKIP() << "mapper_serve path not configured";
  }
  const std::string board_file = "service_jsonl_test_board.txt";
  {
    std::ofstream out(board_file);
    ASSERT_TRUE(out.good());
    arch::write_board(out, small_board());
  }

  ProcessClient client;
  if (!client.start(GMM_MAPPER_SERVE_PATH,
                    {board_file, "--workers", "4"})) {
    GTEST_SKIP() << "cannot spawn subprocesses on this platform";
  }

  // -- liveness ----------------------------------------------------------
  ASSERT_TRUE(client.send_line(R"({"id":"hello","method":"ping"})"));
  const auto pong = client.read_line(kReadTimeout);
  ASSERT_TRUE(pong.has_value()) << "no ping response";
  EXPECT_NE(pong->find("\"status\":\"ok\""), std::string::npos) << *pong;

  // -- 8 concurrent mapping requests ------------------------------------
  constexpr int kConcurrent = 8;
  std::vector<design::Design> designs;
  std::set<std::string> ids;
  for (int i = 0; i < kConcurrent; ++i) {
    designs.push_back(client_design(i));
    JsonObject request;
    const std::string id = "m" + std::to_string(i);
    request["id"] = id;
    request["method"] = std::string("map");
    request["board"] = small_board().name();
    request["design_text"] = design::design_to_string(designs.back());
    request["threads"] = 1;
    ASSERT_TRUE(client.send_line(Json(std::move(request)).dump()));
    ids.insert(id);
  }
  std::map<std::string, Response> responses;
  ASSERT_TRUE(collect(client, ids, responses));

  const arch::Board board = small_board();
  for (int i = 0; i < kConcurrent; ++i) {
    const Response& r = responses.at("m" + std::to_string(i));
    ASSERT_EQ(r.status, ResponseStatus::kOk) << r.error;
    EXPECT_EQ(r.solve_status, "optimal");
    // Correctness: the served objective matches a local deterministic
    // (1-thread) run of the same pipeline, and every segment is placed
    // on a bank type that exists on the board.
    const mapping::Outcome local =
        mapping::map_pipeline(designs[static_cast<std::size_t>(i)], board);
    ASSERT_EQ(local.status, lp::SolveStatus::kOptimal);
    EXPECT_NEAR(r.objective, local.assignment.objective,
                1e-6 * std::max(1.0, std::abs(local.assignment.objective)));
    std::set<std::string> type_names;
    for (const arch::BankType& t : board.types()) type_names.insert(t.name);
    std::set<std::string> placed;
    for (const PlacementEntry& p : r.placements) {
      placed.insert(p.segment);
      EXPECT_TRUE(type_names.contains(p.type)) << p.type;
      EXPECT_GE(p.ports, 1);
    }
    std::set<std::string> expected;
    for (const auto& ds : designs[static_cast<std::size_t>(i)].structures()) {
      expected.insert(ds.name);
    }
    EXPECT_EQ(placed, expected) << "m" << i;
  }

  // -- stats round-trip --------------------------------------------------
  // All 8 map responses are on the wire, so the counters are settled:
  // 8 accepted, 8 completed, 8 solves, and at least one B&B node each.
  ASSERT_TRUE(client.send_line(R"({"id":"st","method":"stats"})"));
  {
    const auto line = client.read_line(kReadTimeout);
    ASSERT_TRUE(line.has_value()) << "no stats response";
    const JsonParseResult parsed = parse_json(*line);
    ASSERT_TRUE(parsed.ok) << *line;
    Response stats;
    ASSERT_TRUE(Response::from_json(parsed.value, stats)) << *line;
    EXPECT_EQ(stats.id, "st");
    EXPECT_EQ(stats.method, "stats");
    EXPECT_EQ(stats.status, ResponseStatus::kOk);
    ASSERT_TRUE(stats.has_stats) << *line;
    EXPECT_EQ(stats.stats.accepted, kConcurrent);
    EXPECT_EQ(stats.stats.completed, kConcurrent);
    EXPECT_EQ(stats.stats.rejected, 0);
    EXPECT_EQ(stats.stats.solves, kConcurrent);
    EXPECT_GE(stats.stats.nodes, kConcurrent);
    EXPECT_GT(stats.stats.lp_iterations, 0);
    EXPECT_LE(stats.stats.basis.loaded + stats.stats.basis.evicted,
              stats.stats.basis.stored);
  }

  // -- sharded mapping on an inline dual-device board --------------------
  // A deliberately slack design: a split board loses co-location options,
  // so a near-saturating workload would be legitimately unshardable.
  workload::DesignGenOptions shard_gen;
  shard_gen.num_segments = 6;
  shard_gen.seed = 77;
  shard_gen.target_port_utilization = 0.3;
  shard_gen.target_bit_utilization = 0.25;
  const design::Design shard_design =
      workload::generate_design(small_board(), shard_gen);
  {
    const arch::Board dual = arch::split_across_devices(small_board(), 2);
    JsonObject request;
    request["id"] = std::string("sharded");
    request["method"] = std::string("map");
    request["board_text"] = arch::board_to_string(dual);
    request["design_text"] = design::design_to_string(shard_design);
    request["formulation"] = std::string("sharded");
    ASSERT_TRUE(client.send_line(Json(std::move(request)).dump()));
  }
  std::map<std::string, Response> sharded_response;
  ASSERT_TRUE(collect(client, {"sharded"}, sharded_response));
  {
    const Response& r = sharded_response.at("sharded");
    ASSERT_EQ(r.status, ResponseStatus::kOk) << r.error;
    EXPECT_GE(r.shards, 1);
    EXPECT_GE(r.stitch_cost, 0.0);
    std::set<std::string> placed;
    for (const PlacementEntry& p : r.placements) placed.insert(p.segment);
    std::set<std::string> expected;
    for (const auto& ds : shard_design.structures()) {
      expected.insert(ds.name);
    }
    EXPECT_EQ(placed, expected);
  }

  // -- deadline-limited request -> timeout -------------------------------
  // The flat complete formulation of a 64-segment design on the big
  // Table-3 board solves for seconds; 150 ms cannot finish it.
  workload::DesignGenOptions slow_gen;
  slow_gen.num_segments = 64;
  slow_gen.seed = 5;
  const std::string slow_design = design::design_to_string(
      workload::generate_design(big_board(), slow_gen));
  {
    JsonObject request;
    request["id"] = std::string("tardy");
    request["method"] = std::string("map");
    request["board_text"] = arch::board_to_string(big_board());
    request["design_text"] = slow_design;
    request["formulation"] = std::string("complete");
    request["deadline_ms"] = 150;
    ASSERT_TRUE(client.send_line(Json(std::move(request)).dump()));
  }
  std::map<std::string, Response> timeout_response;
  ASSERT_TRUE(collect(client, {"tardy"}, timeout_response));
  EXPECT_EQ(timeout_response.at("tardy").status, ResponseStatus::kTimeout);

  // -- cancelled request -> cancelled ------------------------------------
  {
    JsonObject request;
    request["id"] = std::string("doomed");
    request["method"] = std::string("map");
    request["board_text"] = arch::board_to_string(big_board());
    request["design_text"] = slow_design;
    request["formulation"] = std::string("complete");
    ASSERT_TRUE(client.send_line(Json(std::move(request)).dump()));
    ASSERT_TRUE(client.send_line(
        R"({"id":"c1","method":"cancel","target":"doomed"})"));
  }
  std::map<std::string, Response> cancel_response;
  std::vector<Response> acks;
  ASSERT_TRUE(collect(client, {"doomed"}, cancel_response, &acks));
  EXPECT_EQ(cancel_response.at("doomed").status, ResponseStatus::kCancelled);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].method, "cancel");
  EXPECT_TRUE(acks[0].found);

  // -- graceful shutdown -------------------------------------------------
  ASSERT_TRUE(client.send_line(R"({"method":"shutdown"})"));
  const auto ack = client.read_line(kReadTimeout);
  ASSERT_TRUE(ack.has_value()) << "no shutdown ack";
  EXPECT_NE(ack->find("\"method\":\"shutdown\""), std::string::npos) << *ack;
  client.close_stdin();
  EXPECT_EQ(client.wait_exit(30.0), 0);
}

TEST(ServiceJsonl, MalformedLinesGetErrorResponsesAndEofDrains) {
  if (std::string(GMM_MAPPER_SERVE_PATH).empty()) {
    GTEST_SKIP() << "mapper_serve path not configured";
  }
  ProcessClient client;
  if (!client.start(GMM_MAPPER_SERVE_PATH, {})) {  // no boards loaded
    GTEST_SKIP() << "cannot spawn subprocesses on this platform";
  }
  ASSERT_TRUE(client.send_line("this is not json"));
  ASSERT_TRUE(client.send_line(R"({"id":"x","method":"teleport"})"));
  // No boards and no board_text: a valid request that must fail cleanly.
  ASSERT_TRUE(client.send_line(
      R"({"id":"y","method":"map","design_text":"design d\nsegment a depth 16 width 8\n"})"));
  for (int i = 0; i < 3; ++i) {
    const auto line = client.read_line(kReadTimeout);
    ASSERT_TRUE(line.has_value()) << "missing error response " << i;
    EXPECT_NE(line->find("\"status\":\"error\""), std::string::npos)
        << *line;
  }
  client.close_stdin();  // EOF must drain and exit cleanly
  EXPECT_EQ(client.wait_exit(30.0), 0);
}

#ifndef _WIN32

/// A map request for client_design(i) on the inline small board.
std::string map_line(const std::string& id, int i) {
  JsonObject request;
  request["id"] = id;
  request["method"] = std::string("map");
  request["board_text"] = arch::board_to_string(small_board());
  request["design_text"] = design::design_to_string(client_design(i));
  request["threads"] = 1;
  return Json(std::move(request)).dump();
}

bool write_all(int fd, const std::string& line) {
  const std::string data = line + "\n";
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n =
        ::write(fd, data.data() + written, data.size() - written);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    written += static_cast<std::size_t>(n);
  }
  return true;
}

TEST(ServiceJsonl, ClosedStdoutCancelsTheSolveAndExits) {
  if (std::string(GMM_MAPPER_SERVE_PATH).empty()) {
    GTEST_SKIP() << "mapper_serve path not configured";
  }
  // A raw fork rather than ProcessClient: the test closes the read end of
  // the server's stdout, and the child starts with SIGPIPE at its default
  // so the server has to survive a gone reader on its own.
  ::signal(SIGPIPE, SIG_IGN);  // our own writes to a dead child fail
  int in_pipe[2];
  int out_pipe[2];
  ASSERT_EQ(::pipe(in_pipe), 0);
  ASSERT_EQ(::pipe(out_pipe), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(in_pipe[0], STDIN_FILENO);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    for (const int fd : {in_pipe[0], in_pipe[1], out_pipe[0], out_pipe[1]}) {
      ::close(fd);
    }
    ::signal(SIGPIPE, SIG_DFL);
    // The injected stall holds the solve until something cancels it.
    ::execl(GMM_MAPPER_SERVE_PATH, GMM_MAPPER_SERVE_PATH, "--faults",
            "ilp.node:stall@once", static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);

  ASSERT_TRUE(write_all(in_pipe[1], map_line("stalled", 0)));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));  // solving
  ::close(out_pipe[0]);  // the consumer goes away; stdin stays open
  // The server may notice the closed stdout before this write lands, and
  // be gone already: the ping's answer is what must not be needed.
  write_all(in_pipe[1], R"({"id":"p","method":"ping"})");

  // The drop must cancel the solve, which never ends otherwise.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  int status = 0;
  pid_t done = 0;
  while ((done = ::waitpid(pid, &status, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (done == 0) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, &status, 0);
  }
  ::close(in_pipe[1]);
  ASSERT_EQ(done, pid) << "server still running 5 s after its stdout closed";
  ASSERT_TRUE(WIFEXITED(status))
      << "server killed by signal " << WTERMSIG(status);
  EXPECT_EQ(WEXITSTATUS(status), 1);  // mapper_serve: connection dropped
}

/// One pipe-mode session: send `lines`, close stdin, read every response
/// until EOF.  Returns the responses in wire order with "seconds"
/// stripped; `exit_code` gets the server's exit status.
std::vector<std::string> pipe_session(const std::vector<std::string>& args,
                                      const std::vector<std::string>& lines,
                                      int& exit_code) {
  std::vector<std::string> responses;
  ProcessClient client;
  if (!client.start(GMM_MAPPER_SERVE_PATH, args)) {
    ADD_FAILURE() << "cannot spawn mapper_serve";
    return responses;
  }
  for (const std::string& line : lines) {
    if (!client.send_line(line)) break;  // the server may have dropped us
  }
  client.close_stdin();
  while (const auto line = client.read_line(kReadTimeout)) {
    JsonParseResult parsed = parse_json(*line);
    EXPECT_TRUE(parsed.ok && parsed.value.is_object()) << *line;
    if (!parsed.ok || !parsed.value.is_object()) continue;
    parsed.value.as_object().erase("seconds");
    responses.push_back(parsed.value.dump());
  }
  exit_code = client.wait_exit(30.0);
  return responses;
}

TEST(ServiceJsonl, SocketFaultPointsFireInPipeMode) {
  if (std::string(GMM_MAPPER_SERVE_PATH).empty()) {
    GTEST_SKIP() << "mapper_serve path not configured";
  }
  std::vector<std::string> lines = {R"({"id":"p","method":"ping"})"};
  for (int i = 0; i < 4; ++i) {
    lines.push_back(map_line("m" + std::to_string(i), i));
  }
  lines.emplace_back("this is not json");
  lines.emplace_back(R"({"id":"x","method":"teleport"})");
  lines.emplace_back(R"({"id":"c","method":"cancel","target":"nobody"})");
  lines.emplace_back(R"({"method":"shutdown"})");

  // Short reads and partial writes only re-frame the bytes: the session
  // answers exactly as an unarmed one does, sorted by id, and the
  // shutdown ack still comes after every map's terminal response.
  int clean_exit = -1;
  std::vector<std::string> clean = pipe_session({}, lines, clean_exit);
  EXPECT_EQ(clean_exit, 0);
  ASSERT_EQ(clean.size(), lines.size());
  EXPECT_EQ(clean.back(), R"({"method":"shutdown","status":"ok"})");
  int faulted_exit = -1;
  std::vector<std::string> faulted = pipe_session(
      {"--faults", "seed=7,socket.read:short@0.5,socket.write:partial@0.5"},
      lines, faulted_exit);
  EXPECT_EQ(faulted_exit, 0);
  ASSERT_FALSE(faulted.empty());
  EXPECT_EQ(faulted.back(), clean.back());
  std::sort(clean.begin(), clean.end());
  std::sort(faulted.begin(), faulted.end());
  EXPECT_EQ(faulted, clean);

  // The points do fire on stdin and stdout: an injected reset on either
  // side drops the connection before anything is answered.
  for (const char* spec :
       {"socket.read:econnreset@once", "socket.write:econnreset@once"}) {
    int reset_exit = -1;
    const std::vector<std::string> reset =
        pipe_session({"--faults", spec}, {lines.front()}, reset_exit);
    EXPECT_TRUE(reset.empty()) << spec;
    EXPECT_EQ(reset_exit, 1) << spec;
  }
}

#endif  // _WIN32

}  // namespace
}  // namespace gmm::service
