// Long-lived mapping server speaking the jsonl protocol on stdin/stdout
// or on a listening socket.
//
//   mapper_serve [board-file]... [options]
//
// Options:
//   --workers N        concurrent mapping workers (default 1; 0 = hardware)
//   --queue N          admission bound, queued + in-flight (default 64)
//   --threads N        max B&B workers a request may ask for (default 8)
//   --cache N          solution-cache capacity in entries (default 128;
//                      0 disables the cache entirely)
//   --listen SPEC      serve socket clients instead of stdin/stdout:
//                      a path ("/tmp/gmm.sock") is a Unix-domain socket,
//                      "host:port" is TCP ("localhost:0" = kernel-assigned
//                      port, announced on stdout as a "listening" event)
//   --max-clients N    concurrent socket connections (default 256)
//   --connect SPEC     client bridge: relay stdin jsonl to a listening
//                      server and its responses to stdout (stdin EOF
//                      half-closes; exits when the server closes)
//   --shed-delay-ms N  adaptive overload shedding: reject new requests
//                      when the observed queue delay EWMA exceeds N ms
//                      (default 0 = off; rejections carry retry_after_ms)
//   --watchdog-ms N    stall watchdog window: a running solve whose
//                      progress counter is flat for N ms terminates with
//                      status "stalled" (default 0 = off)
//   --max-inflight N   per-connection in-flight quota, stdin/stdout
//                      included (default 0 = off; excess maps are
//                      rejected at the transport with a retry_after_ms
//                      hint)
//   --faults SPEC      arm the deterministic fault injector (see README
//                      "Operating under failure" for the grammar, e.g.
//                      "seed=7,socket.write:partial@0.05"); without the
//                      flag the GMM_FAULTS environment variable is
//                      consulted; unset/empty leaves every site disarmed
//   --verbose          log at info level (logs go to stderr; stdout
//                      carries only protocol lines)
//
// Each board file becomes a catalog entry requests select with "board";
// the first file is the default.  Requests may instead carry an inline
// "board_text".  See README "Mapping service" for the protocol and
// examples/serve_demo.sh for a scripted session.
//
// Without --listen, stdin/stdout is one connection of the same event loop
// the sockets use (service/socket_server.hpp), with the same framing and
// limits.  Exit codes: 0 after a clean drain (shutdown, or stdin's EOF
// once every response is written); 1 when a board file fails to load,
// the socket cannot be bound, or the stdin/stdout connection is dropped
// (stdout's reader went away, an unterminated line passed 8 MiB, or the
// unwritten backlog passed 64 MiB), in which case its in-flight requests
// are cancelled first; 2 on a usage error.  POSIX-only.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "arch/arch_io.hpp"
#include "service/socket_server.hpp"
#include "support/fault.hpp"
#include "support/log.hpp"
#include "support/string_util.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [board-file]... [--workers N] [--queue N] "
               "[--threads N] [--cache N] [--listen SPEC] [--max-clients N] "
               "[--connect SPEC] [--shed-delay-ms N] [--watchdog-ms N] "
               "[--max-inflight N] [--faults SPEC] [--verbose]\n",
               argv0);
  return 2;
}

bool parse_count(const char* text, std::int64_t max, std::int64_t& out) {
  return gmm::support::parse_int(text, out) && out >= 0 && out <= max;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gmm;
  service::ServiceOptions options;
  service::SocketServerOptions socket_options;
  std::string connect_spec;
  std::string fault_spec;
  bool saw_faults_flag = false;
  std::vector<const char*> board_files;
  for (int i = 1; i < argc; ++i) {
    std::int64_t value = 0;
    if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      if (!parse_count(argv[++i], 1024, value)) return usage(argv[0]);
      options.workers = static_cast<std::size_t>(value);
    } else if (std::strcmp(argv[i], "--queue") == 0 && i + 1 < argc) {
      if (!parse_count(argv[++i], 1'000'000, value) || value == 0) {
        return usage(argv[0]);
      }
      options.max_pending = static_cast<std::size_t>(value);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      if (!parse_count(argv[++i], 1024, value) || value == 0) {
        return usage(argv[0]);
      }
      options.max_threads_per_solve = static_cast<int>(value);
    } else if (std::strcmp(argv[i], "--cache") == 0 && i + 1 < argc) {
      if (!parse_count(argv[++i], 1'000'000, value)) return usage(argv[0]);
      options.cache_capacity = static_cast<std::size_t>(value);
    } else if (std::strcmp(argv[i], "--listen") == 0 && i + 1 < argc) {
      socket_options.listen = argv[++i];
    } else if (std::strcmp(argv[i], "--max-clients") == 0 && i + 1 < argc) {
      if (!parse_count(argv[++i], 65536, value) || value == 0) {
        return usage(argv[0]);
      }
      socket_options.max_clients = static_cast<std::size_t>(value);
    } else if (std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc) {
      connect_spec = argv[++i];
    } else if (std::strcmp(argv[i], "--shed-delay-ms") == 0 && i + 1 < argc) {
      if (!parse_count(argv[++i], 3'600'000, value)) return usage(argv[0]);
      options.shed_queue_delay_ms = static_cast<double>(value);
    } else if (std::strcmp(argv[i], "--watchdog-ms") == 0 && i + 1 < argc) {
      if (!parse_count(argv[++i], 3'600'000, value)) return usage(argv[0]);
      options.watchdog_window_ms = static_cast<double>(value);
    } else if (std::strcmp(argv[i], "--max-inflight") == 0 && i + 1 < argc) {
      if (!parse_count(argv[++i], 1'000'000, value)) return usage(argv[0]);
      socket_options.max_inflight_per_client = static_cast<std::size_t>(value);
    } else if (std::strcmp(argv[i], "--faults") == 0 && i + 1 < argc) {
      fault_spec = argv[++i];
      saw_faults_flag = true;
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      support::set_log_level(support::LogLevel::kInfo);
    } else if (argv[i][0] == '-') {
      return usage(argv[0]);
    } else {
      board_files.push_back(argv[i]);
    }
  }
  if (!connect_spec.empty() && !socket_options.listen.empty()) {
    std::fprintf(stderr, "--connect and --listen are mutually exclusive\n");
    return 2;
  }
  if (!connect_spec.empty()) return service::run_socket_client(connect_spec);

  // Arm the fault injector explicitly, never at static init: --faults
  // wins, then GMM_FAULTS; a malformed spec is a startup error (silently
  // serving without the faults an operator asked for would be worse).
  if (!saw_faults_flag) {
    if (const char* env = std::getenv("GMM_FAULTS")) fault_spec = env;
  }
  if (!fault_spec.empty()) {
    std::string fault_error;
    if (!support::global_faults().arm(fault_spec, fault_error)) {
      std::fprintf(stderr, "bad fault spec: %s\n", fault_error.c_str());
      return 2;
    }
    GMM_LOG(kWarn) << "fault injection armed: "
                   << support::global_faults().spec_string();
  }

  std::vector<arch::Board> boards;
  boards.reserve(board_files.size());
  for (const char* path : board_files) {
    std::ifstream file(path);
    if (!file) {
      std::fprintf(stderr, "cannot open board file %s\n", path);
      return 1;
    }
    arch::BoardParseResult parsed = arch::parse_board(file);
    if (!parsed.ok) {
      std::fprintf(stderr, "%s: %s\n", path, parsed.error.c_str());
      return 1;
    }
    // The catalog is keyed by board name; a duplicate would silently
    // shadow one file behind the other, so refuse to start instead.
    for (const arch::Board& existing : boards) {
      if (existing.name() == parsed.board.name()) {
        std::fprintf(stderr, "%s: duplicate board name '%s'\n", path,
                     parsed.board.name().c_str());
        return 1;
      }
    }
    boards.push_back(std::move(parsed.board));
  }

  return service::run_socket_server(socket_options, std::move(boards),
                                    options);
}
