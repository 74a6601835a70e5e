// serve-mix: a real `mapper_serve --listen` on a Unix socket, driven by
// one process holding at most kServe.connections connections.
//
// The stream mixes exact repeats of a primed set (cache hit: replay and
// verify), traffic-only mutants of primed designs (near miss: remap from
// the cached mapping) and never-seen designs (cold solve and insert,
// later evictions).  Each round sends a segment open loop at the nominal
// rate (request i is due at i / rate whatever earlier requests are doing,
// and its latency counts from that due time), then a closed-loop burst
// that measures how fast the server drains the same mix.  The traced run
// adds a ladder of faster open-loop streams that finds the highest rate
// whose p99 stays within kServe.p99_limit_ms without a growing backlog.
//
// Every answer is checked against in-process references computed through
// the mapping layer directly: map_pipeline for hits and cold solves, and
// for a near miss the remap from the cached mapping of a member of its
// family (the primed design and its mutants).  The traced run also
// replays the first segment's request lines through the stage functions
// below MappingService in process (spans labelled as replays), drives an
// in-process MappingService with the same stream, and measures the ping
// floor.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "arch/arch_io.hpp"
#include "design/conflict_analysis.hpp"
#include "design/design_io.hpp"
#include "layers.hpp"
#include "mapping/cost_model.hpp"
#include "mapping/pipeline.hpp"
#include "mapping/remap.hpp"
#include "mapping/validate.hpp"
#include "service/json.hpp"
#include "service/mapping_service.hpp"
#include "service/process_client.hpp"
#include "service/protocol.hpp"
#include "service/solution_cache.hpp"
#include "trace.hpp"
#include "workload/table3_suite.hpp"
#include "workload/workload_gen.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using gmm::lp::SolveStatus;
using gmm::service::Response;
using gmm::service::ResponseStatus;

enum class Kind { kPrimed, kRepeat, kMutant, kFresh };

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kPrimed: return "primed";
    case Kind::kRepeat: return "repeat";
    case Kind::kMutant: return "mutant";
    case Kind::kFresh: return "fresh";
  }
  return "?";
}

struct DesignEntry {
  gmm::design::Design design;
  std::string text;
  Kind kind = Kind::kFresh;
  int base = -1;  // mutants: index of the primed design they derive from
};

struct Request {
  int design = -1;
  Kind kind = Kind::kFresh;
  std::string id;
  std::string line;
};

/// serve-mix's fixed settings; perfbench/config.json says why each has
/// its value.
struct ServeSettings {
  int board_point = 0;  // Table-3 point whose board the server maps onto
  int segments_min = 0;
  int segments_max = 0;
  int primed = 0;  // designs primed into the cache before measuring
  /// The primed designs are the same in every run, like the batch
  /// corpora: mutants derive from them, so a per-run draw of only a few
  /// dozen bases made each run a harder or easier workload.
  std::uint64_t primed_seed = 0;
  // The request mix: exact repeats of primed designs, traffic-only mutants
  // of them, the rest never-seen designs.
  double share_repeat = 0;
  double share_mutant = 0;
  double nominal_rate = 0;  // requests per second, open loop
  int nominal_requests = 0;  // per round
  int burst_requests = 0;    // per round, closed loop ...
  int burst_window = 0;      // ... with this many in flight
  std::int64_t max_nodes = 0;        // node budget of every request
  std::int64_t prime_max_nodes = 0;  // ... and of the priming requests
  int deadline_ms = 0;
  int workers = 0;
  int queue = 0;
  int connections = 0;
  int setup_repeats = 0;
  int verify_threads = 0;
  // Traced run: ping floor and the max-rate search.
  int ping_requests = 0;
  int probe_requests = 0;
  double rate_step = 0;
  int bisect_steps = 0;
  double ladder_seconds = 0;
  double p99_limit_ms = 0;
};

constexpr ServeSettings kServe{
    .board_point = 2,
    .segments_min = 16,
    .segments_max = 24,
    .primed = 48,
    .primed_seed = 2001,
    .share_repeat = 0.7,
    .share_mutant = 0.2,
    .nominal_rate = 750,
    .nominal_requests = 1500,
    .burst_requests = 1500,
    .burst_window = 8,
    .max_nodes = 50,
    .prime_max_nodes = 500,
    .deadline_ms = 10000,
    .workers = 2,
    .queue = 256,
    .connections = 2,
    .setup_repeats = 3,
    .verify_threads = 2,
    .ping_requests = 1000,
    .probe_requests = 2000,
    .rate_step = 1.3,
    .bisect_steps = 3,
    .ladder_seconds = 10,
    .p99_limit_ms = 20,
};

/// The seeded generator of everything the server receives: the fixed
/// primed designs, then a stream drawn from `seed`.
class Traffic {
 public:
  Traffic(const gmm::arch::Board& board, std::uint64_t seed)
      : board_(board), state_(kServe.primed_seed) {
    for (int i = 0; i < kServe.primed; ++i) add_fresh(Kind::kPrimed);
    state_ = seed;
  }

  /// The next `count` requests: the configured shares exactly, in an
  /// order drawn from the seed.
  std::vector<Request> stream(int count) {
    const auto repeats =
        static_cast<std::size_t>(std::lround(kServe.share_repeat * count));
    const auto mutants =
        static_cast<std::size_t>(std::lround(kServe.share_mutant * count));
    std::vector<Request> out;
    for (const std::size_t i :
         permutation(static_cast<std::size_t>(count), next())) {
      Request request;
      if (i < repeats) {
        request.kind = Kind::kRepeat;
        request.design = static_cast<int>(next() % kServe.primed);
      } else if (i < repeats + mutants) {
        request.kind = Kind::kMutant;
        request.design = add_mutant(static_cast<int>(next() % kServe.primed));
      } else {
        request.kind = Kind::kFresh;
        request.design = add_fresh(Kind::kFresh);
      }
      out.push_back(std::move(request));
    }
    return out;
  }

  [[nodiscard]] const std::vector<DesignEntry>& designs() const {
    return designs_;
  }

 private:
  std::uint64_t next() { return next_random(state_); }

  int add_fresh(Kind kind) {
    gmm::workload::DesignGenOptions gen;
    gen.num_segments =
        kServe.segments_min +
        static_cast<std::int64_t>(
            next() % static_cast<std::uint64_t>(kServe.segments_max -
                                                kServe.segments_min + 1));
    gen.seed = next();
    DesignEntry entry;
    entry.design = gmm::workload::generate_design(board_, gen);
    entry.text = gmm::design::design_to_string(entry.design);
    entry.kind = kind;
    designs_.push_back(std::move(entry));
    return static_cast<int>(designs_.size()) - 1;
  }

  /// Same structures and conflicts, new traffic on one to three of them.
  int add_mutant(int base) {
    const gmm::design::Design& from =
        designs_[static_cast<std::size_t>(base)].design;
    std::vector<gmm::design::DataStructure> structures = from.structures();
    const int changes = 1 + static_cast<int>(next() % 3);
    for (int c = 0; c < changes; ++c) {
      gmm::design::DataStructure& ds =
          structures[static_cast<std::size_t>(next() % structures.size())];
      ds.reads = ds.depth * static_cast<std::int64_t>(2 + next() % 7);
      ds.writes = ds.depth * static_cast<std::int64_t>(1 + next() % 4);
    }
    DesignEntry entry;
    entry.design = gmm::design::Design(from.name());
    for (gmm::design::DataStructure& ds : structures) {
      entry.design.add(std::move(ds));
    }
    for (const auto& [a, b] : from.conflict_pairs()) {
      entry.design.add_conflict(a, b);
    }
    entry.text = gmm::design::design_to_string(entry.design);
    entry.kind = Kind::kMutant;
    entry.base = base;
    designs_.push_back(std::move(entry));
    return static_cast<int>(designs_.size()) - 1;
  }

  const gmm::arch::Board& board_;
  std::uint64_t state_;
  std::vector<DesignEntry> designs_;
};

std::string map_line(const std::string& id, const std::string& design_text,
                     std::int64_t max_nodes) {
  return "{\"v\": 2, \"id\": " + json_string(id) +
         ", \"method\": \"map\", \"design_text\": " + json_string(design_text) +
         ", \"deadline_ms\": " + std::to_string(kServe.deadline_ms) +
         ", \"options\": {\"max_nodes\": " + std::to_string(max_nodes) + "}}";
}

void assign_ids(std::vector<Request>& requests, const Traffic& traffic,
                int& next_id) {
  for (Request& r : requests) {
    r.id = "r" + std::to_string(next_id++);
    const auto d = static_cast<std::size_t>(r.design);
    r.line = map_line(r.id, traffic.designs()[d].text, kServe.max_nodes);
  }
}

/// One response as the client saw it.
struct Shot {
  Clock::time_point scheduled{};
  Clock::time_point sent{};
  Clock::time_point received{};
  bool got = false;
  Response response;
};

std::optional<Response> decode(const std::string& line) {
  const gmm::service::JsonParseResult parsed = gmm::service::parse_json(line);
  Response response;
  if (!parsed.ok || !Response::from_json(parsed.value, response)) {
    return std::nullopt;
  }
  return response;
}

/// Sends `lines` open loop at `rate` over `connections` fresh connections;
/// line i carries id <prefix><first + i>.  Returns one shot per line.
std::vector<Shot> open_loop(const std::string& socket,
                            const std::vector<std::string>& lines,
                            char prefix, int first, double rate,
                            int connections) {
  std::vector<Shot> shots(lines.size());
  std::vector<std::unique_ptr<gmm::service::ProcessClient>> conns;
  for (int c = 0; c < connections; ++c) {
    conns.push_back(std::make_unique<gmm::service::ProcessClient>());
    if (!conns.back()->connect(socket)) return shots;  // all lost
  }
  std::vector<int> expected(static_cast<std::size_t>(connections), 0);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    ++expected[i % static_cast<std::size_t>(connections)];
  }
  std::vector<std::thread> readers;
  for (int c = 0; c < connections; ++c) {
    readers.emplace_back([&, c] {
      gmm::service::ProcessClient& conn = *conns[static_cast<std::size_t>(c)];
      for (int left = expected[static_cast<std::size_t>(c)]; left > 0;) {
        const std::optional<std::string> line = conn.read_line(60.0);
        if (!line.has_value()) return;  // the rest count as lost
        const Clock::time_point now = Clock::now();
        std::optional<Response> response = decode(*line);
        if (!response.has_value() || response->id.size() < 2 ||
            response->id[0] != prefix) {
          continue;
        }
        const long index =
            std::strtol(response->id.c_str() + 1, nullptr, 10) - first;
        if (index < 0 || index >= static_cast<long>(shots.size())) continue;
        Shot& shot = shots[static_cast<std::size_t>(index)];
        shot.received = now;
        shot.got = true;
        shot.response = std::move(*response);
        --left;
      }
    });
  }
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    Shot& shot = shots[i];
    shot.scheduled = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     static_cast<double>(i) / rate));
    std::this_thread::sleep_until(shot.scheduled);
    shot.sent = Clock::now();
    const auto c = i % static_cast<std::size_t>(connections);
    if (!conns[c]->send_line(lines[i])) break;
  }
  for (std::thread& reader : readers) reader.join();
  return shots;
}

/// The service's answer when the request's node budget ran out before any
/// mapping was found.
bool budget_error(const Response& response) {
  return response.status == ResponseStatus::kError &&
         response.error.find("node-limit") != std::string::npos;
}

/// Sends `lines` closed loop: each of `connections` connections keeps
/// window / connections requests in flight and sends the next one as a
/// response arrives.  Line i carries id <prefix><first + i> and goes on
/// connection i % connections.  Returns one shot per line (scheduled =
/// sent) and sets `wall_s` to the time from the first send to the last
/// response.
std::vector<Shot> closed_loop(const std::string& socket,
                              const std::vector<std::string>& lines,
                              char prefix, int first, int window,
                              int connections, double& wall_s) {
  std::vector<Shot> shots(lines.size());
  std::vector<std::unique_ptr<gmm::service::ProcessClient>> conns;
  for (int c = 0; c < connections; ++c) {
    conns.push_back(std::make_unique<gmm::service::ProcessClient>());
    if (!conns.back()->connect(socket)) return shots;  // all lost
  }
  const auto per_conn =
      static_cast<std::size_t>(std::max(1, window / connections));
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < connections; ++c) {
    clients.emplace_back([&, c] {
      gmm::service::ProcessClient& conn = *conns[static_cast<std::size_t>(c)];
      std::vector<std::size_t> mine;
      for (std::size_t i = static_cast<std::size_t>(c); i < lines.size();
           i += static_cast<std::size_t>(connections)) {
        mine.push_back(i);
      }
      std::size_t sent = 0;
      const auto send_next = [&] {
        Shot& shot = shots[mine[sent]];
        shot.scheduled = shot.sent = Clock::now();
        return conn.send_line(lines[mine[sent++]]);
      };
      while (sent < mine.size() && sent < per_conn) {
        if (!send_next()) return;
      }
      for (std::size_t done = 0; done < sent;) {
        const std::optional<std::string> line = conn.read_line(60.0);
        if (!line.has_value()) return;  // the rest count as lost
        const Clock::time_point now = Clock::now();
        std::optional<Response> response = decode(*line);
        if (!response.has_value() || response->id.size() < 2 ||
            response->id[0] != prefix) {
          continue;
        }
        const long index =
            std::strtol(response->id.c_str() + 1, nullptr, 10) - first;
        if (index < 0 || index >= static_cast<long>(shots.size())) continue;
        Shot& shot = shots[static_cast<std::size_t>(index)];
        shot.received = now;
        shot.got = true;
        shot.response = std::move(*response);
        ++done;
        if (sent < mine.size() && !send_next()) return;
      }
    });
  }
  for (std::thread& client : clients) client.join();
  Clock::time_point last = start;
  for (const Shot& shot : shots) {
    if (shot.got) last = std::max(last, shot.received);
  }
  wall_s = ms_between(start, last) / 1e3;
  return shots;
}

/// Latency of every shot from its due time; a shot that did not come back
/// answered (ok, or out of node budget) counts as missing any limit (+inf).
std::vector<double> latencies(const std::vector<Shot>& shots) {
  std::vector<double> out;
  for (const Shot& s : shots) {
    const bool answered = s.got && (s.response.status == ResponseStatus::kOk ||
                                    budget_error(s.response));
    out.push_back(answered ? ms_between(s.scheduled, s.received) : INFINITY);
  }
  return out;
}

struct Server {
  std::unique_ptr<gmm::service::ProcessClient> process;
  std::string socket;
};

std::optional<Response> call(const std::string& socket,
                             const std::string& line) {
  gmm::service::ProcessClient conn;
  if (!conn.connect(socket) || !conn.send_line(line)) return std::nullopt;
  const std::optional<std::string> reply = conn.read_line(60.0);
  if (!reply.has_value()) return std::nullopt;
  return decode(*reply);
}

bool stop_server(Server& server) {
  const std::optional<Response> ack =
      call(server.socket, R"({"method":"shutdown"})");
  const int code = server.process->wait_exit(30.0);
  server.process.reset();
  return ack.has_value() && code == 0;
}

/// Spawns the server, waits for its listening event and primes its cache
/// with the primed designs (one connection, one request at a time).
std::optional<Server> start_server(const std::string& server_path,
                                   const std::string& board_file,
                                   const std::string& socket,
                                   const Traffic& traffic,
                                   std::vector<Response>& primed) {
  Server server;
  server.socket = socket;
  server.process = std::make_unique<gmm::service::ProcessClient>();
  ::unlink(socket.c_str());
  if (!server.process->start(
          server_path, {board_file, "--workers", std::to_string(kServe.workers),
                        "--queue", std::to_string(kServe.queue), "--listen",
                        socket})) {
    return std::nullopt;
  }
  const std::optional<std::string> event = server.process->read_line(60.0);
  if (!event.has_value() || event->find("listening") == std::string::npos) {
    return std::nullopt;
  }
  gmm::service::ProcessClient conn;
  if (!conn.connect(socket)) return std::nullopt;
  primed.clear();
  for (int i = 0; i < kServe.primed; ++i) {
    const std::string id = "w" + std::to_string(i);
    if (!conn.send_line(
            map_line(id, traffic.designs()[static_cast<std::size_t>(i)].text,
                     kServe.prime_max_nodes))) {
      return std::nullopt;
    }
    const std::optional<std::string> reply = conn.read_line(60.0);
    if (!reply.has_value()) return std::nullopt;
    std::optional<Response> response = decode(*reply);
    if (!response.has_value()) return std::nullopt;
    primed.push_back(std::move(*response));
  }
  return server;
}

/// Peak resident set (VmHWM) of the process serving `socket`, in MiB; 0
/// when it cannot be read.  The pid comes from the peer credentials of a
/// connection.  Unlike getrusage(RUSAGE_CHILDREN), this leaves out the
/// benchmark's own resident set that a server forked later inherits.
double server_peak_rss_mb(const std::string& socket) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket.size() >= sizeof addr.sun_path) return 0.0;
  std::memcpy(addr.sun_path, socket.c_str(), socket.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return 0.0;
  ucred peer{};
  socklen_t size = sizeof peer;
  const bool known =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
          0 &&
      ::getsockopt(fd, SOL_SOCKET, SO_PEERCRED, &peer, &size) == 0;
  ::close(fd);
  if (!known) return 0.0;
  std::ifstream status("/proc/" + std::to_string(peer.pid) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

std::optional<gmm::service::ServiceStats> fetch_stats(
    const std::string& socket) {
  const std::optional<Response> response =
      call(socket, R"({"id":"stats","method":"stats"})");
  if (!response.has_value() || !response->has_stats) return std::nullopt;
  return response->stats;
}

// ---- in-process references ---------------------------------------------

/// The reference answer for one design: a cold pipeline solve at 1 thread
/// under the request's node budget (primed designs: the priming budget),
/// and for a mutant also the remap from its primed design's mapping (the
/// near-miss path).  Remaps from other members of a design's family are
/// computed by search_family when an answer needs them.
struct Reference {
  bool done = false;
  bool mapped = false;  // the solve returned a mapping within its budget
  bool ok = false;      // ... and it validated
  double cold = 0.0;
  bool cold_cacheable = false;  // proved: the server caches this solve
  /// Proven lower bound on the design's optimum (the cold search's bound).
  double lower_bound = -INFINITY;
  gmm::mapping::GlobalAssignment assignment;
  gmm::mapping::DetailedMapping detailed;
  std::optional<double> remapped;
  /// Primed designs: the cold solve under the (smaller) request budget,
  /// which is what a repeat gets once the cache has lost the entry, and
  /// its assignment when it was proved (the server then caches it).
  bool request_budget_mapped = true;
  std::optional<double> request_budget_cold;
  std::vector<int> request_budget_type_of;
  std::int64_t remap_nodes = 0;
  Effort effort;
};

gmm::mapping::PipelineOptions pipeline_options(std::int64_t max_nodes) {
  gmm::mapping::PipelineOptions options;
  options.global.mip.node_limit = max_nodes;
  return options;
}

/// The prior assignment and pins of a near miss of `base`, derived the way
/// the service derives them: structures matched through the canonical
/// ranks of fingerprint_request, and those whose parameter hash did not
/// change pinned to their prior type.
void near_miss_inputs(const gmm::design::Design& design,
                      const gmm::design::Design& base_design,
                      const std::vector<int>& base_type_of,
                      const gmm::arch::Board& board, double rel_gap,
                      std::vector<int>& prior, std::vector<std::size_t>& pins,
                      Tracer& tracer, std::int64_t item) {
  gmm::service::RequestFingerprint fp;
  {
    const Scope span(tracer, "service.fingerprint", item, true);
    fp = gmm::service::fingerprint_request(
        design, board, gmm::service::CachedFormulation::kGlobal, rel_gap);
  }
  const gmm::service::RequestFingerprint base_fp =
      gmm::service::fingerprint_request(
          base_design, board, gmm::service::CachedFormulation::kGlobal,
          rel_gap);
  std::vector<int> type_of_by_rank(design.size(), -1);
  for (std::size_t d = 0; d < base_design.size(); ++d) {
    type_of_by_rank[base_fp.structure_rank[d]] = static_cast<int>(
        base_fp.type_rank[static_cast<std::size_t>(base_type_of[d])]);
  }
  std::vector<std::size_t> type_by_rank(board.num_types());
  for (std::size_t t = 0; t < board.num_types(); ++t) {
    type_by_rank[fp.type_rank[t]] = t;
  }
  prior.assign(design.size(), -1);
  pins.clear();
  for (std::size_t d = 0; d < design.size(); ++d) {
    const std::size_t r = fp.structure_rank[d];
    prior[d] = static_cast<int>(
        type_by_rank[static_cast<std::size_t>(type_of_by_rank[r])]);
    if (fp.param_hash_by_rank[r] == base_fp.param_hash_by_rank[r]) {
      pins.push_back(d);
    }
  }
}

/// Cold reference of one design (fills `ref`); spans when traced.
void cold_reference(const gmm::design::Design& design,
                    const gmm::arch::Board& board, std::int64_t max_nodes,
                    Reference& ref, Tracer& tracer, SolveTally& tally,
                    std::int64_t item) {
  gmm::mapping::PipelineResult result;
  {
    const Scope span(tracer, "mapping.pipeline", item, true);
    result =
        gmm::mapping::map_pipeline(design, board, pipeline_options(max_nodes));
  }
  tally.add(result.effort, result.mip, result.retries, 1 + result.retries);
  ref.effort = tally.effort_of_last();
  ref.done = true;
  ref.mapped = (result.status == SolveStatus::kOptimal ||
                result.status == SolveStatus::kFeasible) &&
               result.assignment.complete() && result.detailed.success;
  ref.ok = ref.mapped;
  // A retry's bound holds only under its no-good cuts, so it bounds
  // nothing about the design.
  if (result.retries == 0) ref.lower_bound = result.mip.best_bound;
  if (!ref.ok) return;
  {
    const Scope span(tracer, "mapping.validate", item, true);
    ref.ok = gmm::mapping::validate_mapping(design, board, result.assignment,
                                            result.detailed)
                 .empty();
    const gmm::mapping::CostTable table(design, board);
    ref.cold = table.assignment_objective(result.assignment.type_of);
  }
  ref.cold_cacheable = result.status == SolveStatus::kOptimal &&
                       result.mip.stop_reason == SolveStatus::kOptimal;
  if (ref.lower_bound > ref.cold + 1e-6 * std::max(1.0, std::abs(ref.cold))) {
    ref.ok = false;  // a bound above a feasible objective: no certificate
  }
  ref.assignment = std::move(result.assignment);
  ref.detailed = std::move(result.detailed);
}

/// Objective of the near-miss remap of `design` from a cached mapping
/// (`prior_type_of`) of `prior`, as the service computes it; nullopt when
/// the remap returns no complete assignment.
std::optional<double> remap_from(const gmm::design::Design& design,
                                 const gmm::design::Design& prior,
                                 const std::vector<int>& prior_type_of,
                                 const gmm::arch::Board& board, double penalty,
                                 Tracer& tracer, SolveTally& tally,
                                 std::int64_t item) {
  gmm::mapping::RemapOptions options;
  options.pipeline = pipeline_options(kServe.max_nodes);
  options.migration_penalty = penalty;
  std::vector<int> prior_types;
  near_miss_inputs(design, prior, prior_type_of, board,
                   options.pipeline.global.mip.rel_gap, prior_types,
                   options.pinned_structures, tracer, item);
  gmm::mapping::RemapResult result;
  {
    const Scope span(tracer, "mapping.remap", item, true);
    result = gmm::mapping::remap(design, board, prior_types, options);
  }
  tally.add(result.result.effort, result.result.mip, result.result.retries,
            1 + result.result.retries);
  if (!result.result.assignment.complete()) return std::nullopt;
  return gmm::mapping::CostTable(design, board)
      .assignment_objective(result.result.assignment.type_of);
}

/// Remap reference of a mutant from its primed design's mapping; only when
/// that mapping was proved, so the service has it cached.
void remap_reference(const DesignEntry& entry, const DesignEntry& base,
                     const Reference& base_ref, const gmm::arch::Board& board,
                     double penalty, Reference& ref, Tracer& tracer,
                     SolveTally& tally, std::int64_t item) {
  if (!base_ref.ok || !base_ref.cold_cacheable) return;
  ref.remapped = remap_from(entry.design, base.design,
                            base_ref.assignment.type_of, board, penalty,
                            tracer, tally, item);
  ref.remap_nodes = tally.effort_of_last().nodes;
}

bool matches(double got, double want, double rel_gap) {
  return std::abs(got - want) <=
         rel_gap * std::abs(want) + 1e-6 * std::max(1.0, std::abs(want));
}

/// One answer to check, with the times its request went out and came
/// back.  `timeline` tells the server's answers (0) from the in-process
/// service's (1): each has a cache of its own.
struct Answer {
  int design = -1;
  std::string id;
  bool required = true;  // the ladder's faster streams may be refused
  bool got = false;
  Response response;
  int timeline = 0;
  Clock::time_point sent{};
  Clock::time_point received{};
};

/// Checks ok responses against their design's reference.
///
/// A hit replays a cached proof and a never-seen design is solved cold:
/// both must match the design's cold reference.  A repeat or mutant that
/// misses the cache is solved cold or, when a member of its family (the
/// primed design and its mutants, which share their structure) is cached,
/// remapped from that member's mapping.  Which member that is depends on
/// cache history, so an answer matching neither the cold reference nor
/// the remap from the primed design is held back for search_family.
struct Checker {
  const std::vector<DesignEntry>& table;
  const std::vector<Reference>& refs;
  double rel_gap = 1e-4;
  std::int64_t matched_cold = 0;
  std::int64_t matched_cached = 0;
  std::int64_t matched_remap_primed = 0;
  std::int64_t matched_remap_family = 0;
  std::int64_t budget_exhausted = 0;
  std::vector<double> remap_excess;  // remap answers over the cold optimum

  /// Returns false when the answer is held back for search_family.
  bool check(const Response& response, int design, const std::string& what,
             RunResult& run) {
    const Reference& ref = refs[static_cast<std::size_t>(design)];
    const DesignEntry& entry = table[static_cast<std::size_t>(design)];
    if (response.status != ResponseStatus::kOk) {
      // "No mapping within the request's node budget" is the right answer
      // when the reference, under the same budget, finds none either.
      if (budget_error(response) && ref.done &&
          (!ref.mapped || !ref.request_budget_mapped)) {
        ++budget_exhausted;
      } else {
        run.fail(what + " (" + kind_name(entry.kind) + "): status " +
                 to_string(response.status) + " " + response.error);
      }
      return true;
    }
    if (!response.has_result) {
      run.fail(what + ": ok response without a mapping");
      return true;
    }
    if (ref.mapped && !ref.ok) {
      run.fail(what + ": the in-process reference mapping fails its checks");
      return true;
    }
    if (matches_cold(response.objective, ref) ||
        (response.cached && entry.kind == Kind::kMutant &&
         entry.text == table[static_cast<std::size_t>(entry.base)].text &&
         matches_cold(response.objective,
                      refs[static_cast<std::size_t>(entry.base)]))) {
      // The last case: a mutation that drew its base's traffic again.
      ++(response.cached ? matched_cached : matched_cold);
      return true;
    }
    if (!response.cached && ref.remapped.has_value() &&
        matches(response.objective, *ref.remapped, rel_gap)) {
      ++matched_remap_primed;
      note_remap(response.objective, ref);
      return true;
    }
    if (!response.cached &&
        (entry.kind == Kind::kPrimed || entry.kind == Kind::kMutant)) {
      return false;
    }
    wrong(response, design, what, run);
    return true;
  }

  void note_remap(double objective, const Reference& ref) {
    if (ref.ok) {
      remap_excess.push_back((objective - ref.cold) /
                             std::max(1e-9, std::abs(ref.cold)));
    }
  }

  void wrong(const Response& response, int design, const std::string& what,
             RunResult& run) const {
    const Reference& ref = refs[static_cast<std::size_t>(design)];
    run.fail(what + ": objective " + json_number(response.objective) +
             " but the reference gives " +
             (ref.ok ? json_number(ref.cold) : std::string("no mapping")) +
             (ref.remapped.has_value()
                  ? " (remap " + json_number(*ref.remapped) + ")"
                  : std::string()) +
             (response.cached ? ", cached" : "") + ", " +
             kind_name(table[static_cast<std::size_t>(design)].kind) + ", " +
             std::to_string(response.nodes) + " nodes, " +
             response.solve_status);
  }

 private:
  [[nodiscard]] bool matches_cold(double objective,
                                  const Reference& ref) const {
    return (ref.ok && matches(objective, ref.cold, rel_gap)) ||
           (ref.request_budget_cold.has_value() &&
            matches(objective, *ref.request_budget_cold, rel_gap));
  }
};

/// Settles the answers the checker held back.  Such an answer is right
/// when it matches the remap from a proved member of its family that its
/// server could have cached by then: the primed design's priming solve,
/// or a cold solve of another member whose request was sent before the
/// answer came back.  Candidates are tried latest first, since the cache
/// remaps from the member it inserted last.  Returns the remaps computed.
std::int64_t search_family(const std::vector<std::size_t>& held,
                           const std::vector<Answer>& answers,
                           const gmm::arch::Board& board, double penalty,
                           Checker& checker, RunResult& run) {
  const std::vector<DesignEntry>& table = checker.table;
  const std::vector<Reference>& refs = checker.refs;
  const auto family = [&](int d) {
    const DesignEntry& e = table[static_cast<std::size_t>(d)];
    return e.kind == Kind::kMutant ? e.base : d;
  };
  struct Prior {
    int design = -1;
    const std::vector<int>* type_of = nullptr;
    Clock::time_point available{};
  };
  // Proved cold solves the servers may have inserted, by timeline and
  // family: mutants, and primed designs re-solved under the request budget.
  std::map<std::pair<int, int>, std::vector<Prior>> inserted;
  for (const Answer& a : answers) {
    if (!a.got || a.response.status != ResponseStatus::kOk ||
        a.response.cached) {
      continue;
    }
    const Reference& ref = refs[static_cast<std::size_t>(a.design)];
    const DesignEntry& entry = table[static_cast<std::size_t>(a.design)];
    const std::vector<int>* type_of =
        entry.kind == Kind::kMutant && ref.ok && ref.cold_cacheable
            ? &ref.assignment.type_of
        : entry.kind == Kind::kPrimed && !ref.request_budget_type_of.empty()
            ? &ref.request_budget_type_of
            : nullptr;
    if (type_of != nullptr) {
      inserted[{a.timeline, family(a.design)}].push_back(
          {a.design, type_of, a.sent});
    }
  }

  std::map<int, std::vector<std::size_t>> by_design;
  for (const std::size_t i : held) by_design[answers[i].design].push_back(i);
  const std::vector<std::pair<int, std::vector<std::size_t>>> tasks(
      by_design.begin(), by_design.end());
  std::vector<std::vector<char>> found(tasks.size());
  std::atomic<std::size_t> next{0};
  std::atomic<std::int64_t> remaps{0};
  const auto work = [&] {
    Tracer off(false);
    SolveTally tally;
    for (std::size_t t = next++; t < tasks.size(); t = next++) {
      const int d = tasks[t].first;
      const DesignEntry& entry = table[static_cast<std::size_t>(d)];
      const int base = family(d);
      const Reference& base_ref = refs[static_cast<std::size_t>(base)];
      std::map<const std::vector<int>*, std::optional<double>> memo;
      for (const std::size_t i : tasks[t].second) {
        const Answer& a = answers[i];
        std::vector<Prior> candidates;
        if (base != d && base_ref.ok && base_ref.cold_cacheable) {
          candidates.push_back({base, &base_ref.assignment.type_of,
                                Clock::time_point::min()});
        }
        const auto it = inserted.find({a.timeline, base});
        if (it != inserted.end()) {
          for (const Prior& p : it->second) {
            if (p.design != d && p.available < a.received) {
              candidates.push_back(p);
            }
          }
        }
        std::sort(candidates.begin(), candidates.end(),
                  [](const Prior& x, const Prior& y) {
                    return x.available > y.available;
                  });
        bool ok = false;
        for (const Prior& p : candidates) {
          auto [slot, fresh] = memo.try_emplace(p.type_of);
          if (fresh) {
            slot->second = remap_from(
                entry.design, table[static_cast<std::size_t>(p.design)].design,
                *p.type_of, board, penalty, off, tally, d);
            ++remaps;
          }
          if (slot->second.has_value() &&
              matches(a.response.objective, *slot->second, checker.rel_gap)) {
            ok = true;
            break;
          }
        }
        found[t].push_back(ok ? 1 : 0);
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < kServe.verify_threads; ++t) pool.emplace_back(work);
  work();
  for (std::thread& thread : pool) thread.join();

  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const auto& [d, indices] = tasks[t];
    for (std::size_t k = 0; k < indices.size(); ++k) {
      const Answer& a = answers[indices[k]];
      if (found[t][k]) {
        ++checker.matched_remap_family;
        checker.note_remap(a.response.objective,
                           refs[static_cast<std::size_t>(d)]);
      } else {
        checker.wrong(a.response, d, a.id, run);
      }
    }
  }
  return remaps;
}

/// Computes references for `designs` (primed first: mutants need their
/// base) on verify_threads threads, untraced.
void compute_references(const std::vector<int>& designs,
                        const std::vector<DesignEntry>& table,
                        const gmm::arch::Board& board, double penalty,
                        std::vector<Reference>& refs) {
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    Tracer off(false);
    SolveTally tally;
    for (std::size_t i = next++; i < designs.size(); i = next++) {
      const int d = designs[i];
      Reference& ref = refs[static_cast<std::size_t>(d)];
      const DesignEntry& entry = table[static_cast<std::size_t>(d)];
      if (entry.kind == Kind::kPrimed) {
        // Primed with a generous budget; a repeat the cache lost is solved
        // again under the request's budget.
        cold_reference(entry.design, board, kServe.prime_max_nodes, ref, off,
                       tally, d);
        Reference again;
        cold_reference(entry.design, board, kServe.max_nodes, again, off,
                       tally, d);
        ref.request_budget_mapped = again.mapped;
        if (again.ok) ref.request_budget_cold = again.cold;
        if (again.ok && again.cold_cacheable) {
          ref.request_budget_type_of = std::move(again.assignment.type_of);
        }
        continue;
      }
      cold_reference(entry.design, board, kServe.max_nodes, ref, off, tally, d);
      if (entry.kind == Kind::kMutant) {
        remap_reference(entry, table[static_cast<std::size_t>(entry.base)],
                        refs[static_cast<std::size_t>(entry.base)], board,
                        penalty, ref, off, tally, d);
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < kServe.verify_threads; ++t) pool.emplace_back(work);
  work();
  for (std::thread& thread : pool) thread.join();
}

/// Replays one request line through the stage functions below
/// MappingService, taking the path the server took (hit: replay and
/// verify; near miss: remap; miss: cold solve).  Fills `ref` when the
/// design is new.
void replay_one(const Request& request, const Shot& shot, std::int64_t item,
                const DesignEntry& entry, const DesignEntry* base,
                const Reference* base_ref, const gmm::arch::Board& board,
                double penalty, Reference& ref, Tracer& tracer,
                SolveTally& tally, RunResult& run,
                std::vector<double>& remap_nodes) {
  const double rel_gap = gmm::ilp::MipOptions{}.rel_gap;
  const Scope root(tracer, "replay.request", item, true);
  gmm::service::Request parsed;
  {
    const Scope span(tracer, "service.parse", item, true);
    parsed = gmm::service::parse_request_line(request.line);
  }
  if (parsed.method != gmm::service::Method::kMap) {
    run.fail(request.id + ": request line does not parse: " + parsed.error);
    return;
  }
  gmm::design::DesignParseResult design;
  {
    const Scope span(tracer, "design.parse", item, true);
    design = gmm::design::parse_design_string(parsed.map.design_text);
  }
  if (!design.ok) {
    run.fail(request.id + ": design does not parse: " + design.error);
    return;
  }
  {
    const Scope span(tracer, "design.cliques", item, true);
    if (gmm::design::conflict_cliques(design.design).cliques.empty()) {
      run.fail(request.id + ": no conflict cliques");
    }
  }
  if (entry.kind == Kind::kMutant && !ref.done) {
    // Near miss: fingerprint inside near_miss_inputs, then remap.
    remap_reference(entry, *base, *base_ref, board, penalty, ref, tracer,
                    tally, item);
    if (ref.remapped.has_value()) {
      remap_nodes.push_back(static_cast<double>(ref.remap_nodes));
    }
    Tracer off(false);
    SolveTally unused;
    cold_reference(design.design, board, kServe.max_nodes, ref, off, unused,
                   item);
  } else {
    {
      const Scope span(tracer, "service.fingerprint", item, true);
      (void)gmm::service::fingerprint_request(
          design.design, board, gmm::service::CachedFormulation::kGlobal,
          rel_gap);
    }
    if (shot.got && shot.response.cached && ref.done && ref.ok) {
      // Exact hit: the service replays and re-verifies the mapping.
      const Scope span(tracer, "mapping.validate", item, true);
      if (!gmm::mapping::validate_mapping(design.design, board,
                                          ref.assignment, ref.detailed)
               .empty()) {
        run.fail(request.id + ": cached mapping fails validation");
      }
      const gmm::mapping::CostTable cost(design.design, board);
      (void)cost.assignment_objective(ref.assignment.type_of);
    } else {
      // A miss: a never-seen design, or a repeat whose entry is gone.
      Reference again;
      cold_reference(design.design, board, kServe.max_nodes,
                     ref.done ? again : ref, tracer, tally, item);
    }
  }
  if (shot.got) {
    const Scope span(tracer, "service.serialize", item, true);
    if (shot.response.to_line().empty()) run.fail(request.id + ": empty line");
  }
}

/// Replays the nominal stream in request order on one thread, filling
/// the references of its designs (primed ones must already be done).  In
/// a traced run every request is also replayed untraced on a copy of its
/// reference, back to back with the traced replay, so the pair sees the
/// same machine state; returns (traced - untraced) / untraced summed time.
double replay_stream(const std::vector<Request>& stream,
                     const std::vector<Shot>& shots,
                     const std::vector<DesignEntry>& table,
                     const gmm::arch::Board& board, double penalty,
                     std::vector<Reference>& refs, Tracer& tracer,
                     SolveTally& tally, RunResult& run,
                     std::vector<double>& remap_nodes) {
  double untraced_ms = 0.0, traced_ms = 0.0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto item = static_cast<std::int64_t>(i);
    const auto d = static_cast<std::size_t>(stream[i].design);
    const DesignEntry& entry = table[d];
    Reference& ref = refs[d];
    const auto b = static_cast<std::size_t>(std::max(entry.base, 0));
    const DesignEntry* base = entry.base >= 0 ? &table[b] : nullptr;
    const Reference* base_ref = entry.base >= 0 ? &refs[b] : nullptr;
    // The pair alternates which side runs first, so warm caches favour
    // neither.
    Reference twin = ref;
    const auto untraced = [&] {
      Tracer off(false);
      SolveTally unused_tally;
      RunResult unused_run;
      std::vector<double> unused_nodes;
      const Clock::time_point start = Clock::now();
      replay_one(stream[i], shots[i], item, entry, base, base_ref, board,
                 penalty, twin, off, unused_tally, unused_run,
                 unused_nodes);
      untraced_ms += ms_between(start, Clock::now());
    };
    if (tracer.enabled() && i % 2 == 0) untraced();
    const Clock::time_point start = Clock::now();
    replay_one(stream[i], shots[i], item, entry, base, base_ref, board,
               penalty, ref, tracer, tally, run, remap_nodes);
    traced_ms += ms_between(start, Clock::now());
    if (tracer.enabled() && i % 2 == 1) untraced();
  }
  return untraced_ms > 0.0 ? (traced_ms - untraced_ms) / untraced_ms : 0.0;
}

}  // namespace

RunResult run_serve(const RunParams& params, const std::string& build,
                    const std::string& server_path) {
  RunResult run;
    const double penalty =
      gmm::service::ServiceOptions{}.near_miss_migration_penalty;
  const double rel_gap = gmm::ilp::MipOptions{}.rel_gap;
  const gmm::arch::Board board = gmm::workload::build_instance(
      gmm::workload::table3_points().at(
          static_cast<std::size_t>(kServe.board_point - 1)))
                                     .board;
  const std::string board_file = params.out_dir + "/serve-board.txt";
  {
    std::ofstream out(board_file);
    gmm::arch::write_board(out, board);
  }
  const std::string socket_base =
      params.out_dir + "/s" + std::to_string(::getpid());

  // ---- set-up: generate, spawn, prime ------------------------------------
  // Timed setup_repeats times at the start (the last server is the one
  // measured) and once more after every round with a second server that
  // is stopped again, so set-up is sampled all through the run.
  std::vector<double> setup_s;
  std::vector<std::vector<Response>> primings;  // every set-up's answers
  const auto set_up = [&](std::unique_ptr<Traffic>& traffic) {
    const Clock::time_point start = Clock::now();
    traffic = std::make_unique<Traffic>(board, params.seed);
    primings.emplace_back();
    std::optional<Server> server = start_server(
        server_path, board_file,
        socket_base + "-" + std::to_string(primings.size()) + ".sock",
        *traffic, primings.back());
    if (server.has_value()) {
      setup_s.push_back(seconds_since(start));
    } else {
      run.fail("cannot start and prime " + server_path);
    }
    return server;
  };
  const auto set_up_and_stop = [&] {
    std::unique_ptr<Traffic> traffic;
    std::optional<Server> server = set_up(traffic);
    if (!server.has_value()) return false;
    if (!stop_server(*server)) run.fail("server did not shut down cleanly");
    return true;
  };
  for (int i = 1; i < kServe.setup_repeats; ++i) {
    if (!set_up_and_stop()) return run;
  }
  std::unique_ptr<Traffic> traffic;
  std::optional<Server> server = set_up(traffic);
  if (!server.has_value()) return run;

  // Every answer is checked once references exist.  Required answers must
  // come back (ok, or out of node budget); the ladder's faster streams may
  // also be refused.
  std::vector<Answer> answers;
  int next_id = 0;
  const auto make_stream = [&](int count) {
    std::vector<Request> stream = traffic->stream(count);
    assign_ids(stream, *traffic, next_id);
    return stream;
  };
  const auto lines_of = [](const std::vector<Request>& stream) {
    std::vector<std::string> lines;
    for (const Request& r : stream) lines.push_back(r.line);
    return lines;
  };
  const auto keep = [&](const std::vector<Request>& stream,
                        const std::vector<Shot>& shots, bool required) {
    for (std::size_t i = 0; i < stream.size(); ++i) {
      answers.push_back({stream[i].design, stream[i].id, required,
                         shots[i].got, shots[i].response, 0, shots[i].sent,
                         shots[i].received});
      if (required) ++run.attempted;
    }
  };

  // ---- rounds: a nominal-rate segment, then a closed-loop burst ----------
  // Latency is timed open loop at the nominal rate; the burst measures how
  // fast the server drains the same mix with `burst_window` requests in
  // flight.  Rounds repeat while the run's time lasts; a traced run makes
  // one segment and no burst.
  const std::optional<gmm::service::ServiceStats> before =
      fetch_stats(server->socket);
  std::optional<gmm::service::ServiceStats> after;
  std::vector<Request> first_segment;
  std::vector<Shot> first_shots;
  std::vector<double> round_p50, burst_s, solve_ms, lateness_ms;
  std::int64_t proved = 0, nominal_requests = 0;
  const Clock::time_point measure_start = Clock::now();
  for (int round = 0;; ++round) {
    const std::vector<Request> segment = make_stream(kServe.nominal_requests);
    const std::vector<Shot> shots =
        open_loop(server->socket, lines_of(segment), 'r',
                  std::stoi(segment.front().id.substr(1)), kServe.nominal_rate,
                  kServe.connections);
    round_p50.push_back(quantile(latencies(shots), 0.50));
    for (const Shot& shot : shots) {
      ++nominal_requests;
      lateness_ms.push_back(ms_between(shot.scheduled, shot.sent));
      if (!shot.got || shot.response.status != ResponseStatus::kOk) continue;
      solve_ms.push_back(1e3 * shot.response.seconds);
      if (shot.response.solve_status == "optimal") ++proved;
    }
    keep(segment, shots, true);
    if (round == 0) {
      after = fetch_stats(server->socket);
      first_segment = segment;
      first_shots = shots;
    }
    if (params.trace) break;
    const std::vector<Request> burst = make_stream(kServe.burst_requests);
    double wall_s = 0.0;
    const std::vector<Shot> burst_shots = closed_loop(
        server->socket, lines_of(burst), 'r',
        std::stoi(burst.front().id.substr(1)), kServe.burst_window,
        kServe.connections, wall_s);
    burst_s.push_back(wall_s);
    keep(burst, burst_shots, true);
    if (!set_up_and_stop()) break;
    const double elapsed = seconds_since(measure_start);
    if (elapsed * (round + 2) / (round + 1) > params.seconds) break;
  }
  Tracer tracer(params.trace);
  for (std::size_t i = 0; i < first_shots.size(); ++i) {
    if (first_shots[i].got) {
      tracer.add("socket.request", first_shots[i].scheduled,
                 first_shots[i].received, static_cast<std::int64_t>(i));
    }
  }

  // ---- traced: rate ladder, ping floor, in-process service ---------------
  ServiceLayer layer;
  Tails tails;
  struct Probe {
    double rate = 0.0;
    double p99 = 0.0;
    bool pass = false;
  };
  std::vector<Probe> probes;
  if (params.trace) {
    // A rate passes when its p99 meets the limit and there is no growing
    // backlog: the last tenth of the stream also meets it on average.
    const auto judge = [&](double rate, const std::vector<double>& lat) {
      Probe p;
      p.rate = rate;
      p.p99 = quantile(lat, 0.99);
      const std::vector<double> tail(
          lat.end() - static_cast<long>(lat.size() / 10), lat.end());
      p.pass =
          p.p99 <= kServe.p99_limit_ms && mean(tail) <= kServe.p99_limit_ms;
      return p;
    };
    const auto probe = [&](double rate) {
      const std::vector<Request> stream = make_stream(kServe.probe_requests);
      const std::vector<Shot> shots = open_loop(
          server->socket, lines_of(stream), 'r',
          std::stoi(stream.front().id.substr(1)), rate, kServe.connections);
      keep(stream, shots, false);
      probes.push_back(judge(rate, latencies(shots)));
      return probes.back();
    };
    const Clock::time_point ladder_start = Clock::now();
    const auto time_left = [&] {
      return seconds_since(ladder_start) < kServe.ladder_seconds;
    };
    Probe pass = judge(kServe.nominal_rate, latencies(first_shots));
    std::optional<Probe> fail;
    // Ladder down from the nominal rate while it misses the limit, or up
    // until a rate misses it; then bisect geometrically between the two.
    while (!pass.pass && pass.rate > kServe.nominal_rate / 16.0 &&
           time_left()) {
      fail = pass;
      pass = probe(pass.rate / kServe.rate_step);
    }
    while (!fail.has_value() && time_left()) {
      const Probe p = probe(pass.rate * kServe.rate_step);
      if (p.pass) {
        pass = p;
      } else {
        fail = p;
      }
    }
    for (int b = 0; b < kServe.bisect_steps && fail.has_value() && pass.pass &&
                    time_left();
         ++b) {
      const Probe p = probe(std::sqrt(pass.rate * fail->rate));
      if (p.pass) {
        pass = p;
      } else {
        fail = p;
      }
    }
    tails.max_rate_rps = pass.pass ? pass.rate : 0.0;
    if (pass.pass && fail.has_value() && std::isfinite(fail->p99) &&
        fail->p99 > pass.p99) {
      // Interpolate where p99 crosses the limit, log-linear in the rate.
      const double f = std::clamp(
          (kServe.p99_limit_ms - pass.p99) / (fail->p99 - pass.p99), 0.0, 1.0);
      tails.max_rate_rps = pass.rate * std::pow(fail->rate / pass.rate, f);
    }

    std::vector<std::string> pings;
    for (int i = 0; i < kServe.ping_requests; ++i) {
      pings.push_back("{\"id\": \"p" + std::to_string(i) +
                      "\", \"method\": \"ping\"}");
    }
    const std::vector<Shot> ping_shots = open_loop(
        server->socket, pings, 'p', 0, kServe.nominal_rate, kServe.connections);
    std::vector<double> ping_ms;
    for (const Shot& shot : ping_shots) {
      ping_ms.push_back(shot.got ? ms_between(shot.sent, shot.received)
                                 : INFINITY);
      if (!shot.got) run.fail("ping lost");
    }
    layer.ping_ms_p50 = quantile(ping_ms, 0.50);
    layer.ping_ms_p99 = quantile(ping_ms, 0.99);
  }
  const double server_rss_mb = server_peak_rss_mb(server->socket);
  if (server_rss_mb <= 0.0) run.fail("cannot read the server's peak RSS");
  if (!stop_server(*server)) run.fail("server did not shut down cleanly");

  if (params.trace) {
    // MappingService::handle to sink, same stream, same workers, no socket.
    const std::size_t n = first_segment.size();
    const long first = std::stol(first_segment.front().id.substr(1));
    std::vector<Clock::time_point> handled(n), answered(n);
    std::vector<Response> replies(n);
    std::vector<char> seen(n, 0);
    gmm::service::ServiceOptions options;
    options.workers = static_cast<std::size_t>(kServe.workers);
    gmm::service::MappingService service(
        {board}, options, [&](const Response& response) {
          if (response.id.size() < 2 || response.id[0] != 'r') return;
          const long index =
              std::strtol(response.id.c_str() + 1, nullptr, 10) - first;
          if (index < 0 || index >= static_cast<long>(n)) return;
          answered[static_cast<std::size_t>(index)] = Clock::now();
          replies[static_cast<std::size_t>(index)] = response;
          seen[static_cast<std::size_t>(index)] = 1;
        });
    for (int i = 0; i < kServe.primed; ++i) {
      service.handle(gmm::service::parse_request_line(map_line(
          "w" + std::to_string(i),
          traffic->designs()[static_cast<std::size_t>(i)].text,
          kServe.prime_max_nodes)));
      service.drain();
    }
    std::vector<gmm::service::Request> parsed;
    for (const Request& r : first_segment) {
      parsed.push_back(gmm::service::parse_request_line(r.line));
    }
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(static_cast<double>(i) /
                                                    kServe.nominal_rate)));
      handled[i] = Clock::now();
      service.handle(parsed[i]);
    }
    service.drain();
    std::vector<double> inproc_ms;
    for (std::size_t i = 0; i < n; ++i) {
      answers.push_back({first_segment[i].design,
                         first_segment[i].id + "/inproc", true, seen[i] != 0,
                         std::move(replies[i]), 1, handled[i], answered[i]});
      ++run.attempted;
      inproc_ms.push_back(seen[i] ? ms_between(handled[i], answered[i])
                                  : INFINITY);
      if (seen[i]) {
        tracer.add("service.handle", handled[i], answered[i],
                   static_cast<std::int64_t>(i));
      }
    }
    layer.inproc_ms_p50 = quantile(inproc_ms, 0.50);
    layer.inproc_ms_p99 = quantile(inproc_ms, 0.99);
  }

  // ---- references and checks ---------------------------------------------
  const std::vector<DesignEntry>& table = traffic->designs();
  std::vector<Reference> refs(table.size());
  Checker checker{table, refs, rel_gap};
  std::vector<int> primed_ids;
  for (int i = 0; i < kServe.primed; ++i) primed_ids.push_back(i);
  compute_references(primed_ids, table, board, penalty, refs);
  for (std::size_t k = 0; k < primings.size(); ++k) {
    for (std::size_t i = 0; i < primings[k].size(); ++i) {
      // Nothing of a primed design's family is cached yet when it is
      // primed, so only its cold reference can match.
      ++run.attempted;
      const Response& response = primings[k][i];
      const std::string what =
          "set-up " + std::to_string(k) + " w" + std::to_string(i);
      const int design = static_cast<int>(i);
      if (!checker.check(response, design, what, run)) {
        checker.wrong(response, design, what, run);
      }
    }
  }
  // The stage replay of the first segment fills its references (and, in a
  // traced run, records the replay spans); the rest are computed on
  // verify_threads threads.
  SolveTally tally;
  std::vector<double> remap_nodes;
  const double overhead =
      replay_stream(first_segment, first_shots, table, board, penalty, refs,
                    tracer, tally, run, remap_nodes);
  std::vector<int> pending;
  std::vector<char> queued(table.size(), 0);
  for (const Answer& a : answers) {
    const auto d = static_cast<std::size_t>(a.design);
    if (!refs[d].done && !queued[d]) {
      queued[d] = 1;
      pending.push_back(a.design);
    }
  }
  compute_references(pending, table, board, penalty, refs);
  std::vector<std::size_t> held;
  for (std::size_t i = 0; i < answers.size(); ++i) {
    const Answer& a = answers[i];
    if (!a.got) {
      run.fail(a.id + ": lost");
      continue;
    }
    if (!a.required && a.response.status != ResponseStatus::kOk &&
        !budget_error(a.response)) {
      continue;  // refused at a rate beyond capacity
    }
    if (!checker.check(a.response, a.design, a.id, run)) held.push_back(i);
  }
  const std::int64_t family_remaps =
      search_family(held, answers, board, penalty, checker, run);

  // Exact effort counts of the first segment's references (1 thread):
  // equal to what an earlier run of this build recorded for the same seed.
  std::map<std::string, Effort> counts;
  for (const Request& r : first_segment) {
    counts["serve-mix:" + std::to_string(params.seed) + ":d" +
           std::to_string(r.design)] =
        refs[static_cast<std::size_t>(r.design)].effort;
  }
  for (const std::string& id : check_effort_ledger(
           params.out_dir + "/effort-serve-mix.txt", build, counts)) {
    run.fail(id + ": effort counts differ from an earlier run of this build");
  }

  // Per-request record of the first segment, for looking into the tail.
  {
    std::ofstream out(params.out_dir + "/requests-serve-mix-" +
                      std::to_string(params.seed) + ".jsonl");
    const std::vector<double> lat = latencies(first_shots);
    for (std::size_t i = 0; i < first_segment.size(); ++i) {
      const Shot& shot = first_shots[i];
      out << "{\"id\": " << json_string(first_segment[i].id)
          << ", \"kind\": \"" << kind_name(first_segment[i].kind)
          << "\", \"latency_ms\": " << json_number(lat[i])
          << ", \"lateness_ms\": "
          << json_number(ms_between(shot.scheduled, shot.sent))
          << ", \"solve_ms\": " << json_number(1e3 * shot.response.seconds)
          << ", \"nodes\": " << shot.response.nodes << ", \"cached\": "
          << (shot.response.cached ? "true" : "false") << ", \"status\": \""
          << to_string(shot.response.status) << "\"}\n";
    }
  }

  // Traffic properties of the first segment: intended mix vs what the
  // cache reports.
  std::int64_t intended[3] = {0, 0, 0};
  for (const Request& r : first_segment) {
    ++intended[r.kind == Kind::kRepeat ? 0 : r.kind == Kind::kMutant ? 1 : 2];
  }
  if (before.has_value() && after.has_value()) {
    const auto& b = before->cache;
    const auto& a = after->cache;
    const double total = static_cast<double>(
        (a.hits + a.misses + a.bypasses) - (b.hits + b.misses + b.bypasses));
    if (total > 0) {
      layer.hit_share = static_cast<double>(a.hits - b.hits) / total;
      layer.near_miss_share =
          static_cast<double>(a.near_misses - b.near_misses) / total;
      layer.miss_share =
          static_cast<double>((a.misses - a.near_misses) -
                              (b.misses - b.near_misses)) /
          total;
    }
    layer.evictions = static_cast<double>(a.evictions - b.evictions);
    layer.verify_fails = static_cast<double>(a.verify_fails - b.verify_fails);
    layer.nodes = static_cast<double>(after->nodes - before->nodes);
    const auto& bt = before->transport;
    const auto& at = after->transport;
    const double requests = static_cast<double>(at.requests - bt.requests);
    if (requests > 0) {
      layer.bytes_per_request =
          static_cast<double>((at.bytes_received + at.bytes_sent) -
                              (bt.bytes_received + bt.bytes_sent)) /
          requests;
    }
    if (layer.verify_fails > 0) run.fail("cache replays failed verification");
  } else {
    run.fail("stats method did not answer");
  }
  layer.lateness_ms_p99 = quantile(lateness_ms, 0.99);

  const double segment_n = static_cast<double>(first_segment.size());
  std::ostringstream mix;
  mix << "{\"intended\": {\"hit\": " << json_number(intended[0] / segment_n)
      << ", \"near_miss\": " << json_number(intended[1] / segment_n)
      << ", \"miss\": " << json_number(intended[2] / segment_n)
      << "}, \"measured\": {\"hit\": " << json_number(layer.hit_share)
      << ", \"near_miss\": " << json_number(layer.near_miss_share)
      << ", \"miss\": " << json_number(layer.miss_share)
      << ", \"evictions\": " << json_number(layer.evictions) << "}}";
  run.detail.emplace_back("mix", mix.str());
  const std::vector<double>& excess = checker.remap_excess;
  run.detail.emplace_back(
      "answers_matched",
      "{\"cold\": " + std::to_string(checker.matched_cold) +
          ", \"cached\": " + std::to_string(checker.matched_cached) +
          ", \"remap_from_primed\": " +
          std::to_string(checker.matched_remap_primed) +
          ", \"remap_from_family\": " +
          std::to_string(checker.matched_remap_family) +
          ", \"family_remaps_computed\": " + std::to_string(family_remaps) +
          ", \"budget_exhausted_without_mapping\": " +
          std::to_string(checker.budget_exhausted) +
          ", \"remap_excess_over_cold_mean\": " + json_number(mean(excess)) +
          ", \"remap_excess_over_cold_max\": " +
          json_number(excess.empty()
                          ? 0.0
                          : *std::max_element(excess.begin(), excess.end())) +
          "}");
  std::ostringstream probe_rows;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    probe_rows << (i == 0 ? "" : ", ") << "{\"rate_rps\": "
               << json_number(probes[i].rate) << ", \"p99_ms\": "
               << json_number(probes[i].p99) << ", \"pass\": "
               << (probes[i].pass ? "true" : "false") << "}";
  }
  run.detail.emplace_back("probes", "[" + probe_rows.str() + "]");
  run.detail.emplace_back("rounds", std::to_string(round_p50.size()));
  run.detail.emplace_back("generator_lateness_ms_p99",
                          json_number(layer.lateness_ms_p99));

  if (params.trace) {
    tails.solve_ms_p90 = quantile(solve_ms, 0.90);
    tails.latency_ms_p99 = quantile(latencies(first_shots), 0.99);
    emit_layer_metrics(tracer, tally, layer, tails, mean(remap_nodes),
                       overhead, run.metrics);
    if (!tracer.write(params.out_dir + "/trace-serve-mix-" +
                      std::to_string(params.seed) + ".jsonl")) {
      run.fail("cannot write the span file");
    }
    return run;
  }
  // Each burst drains the same amount of work; the fastest of the run's
  // bursts steps around the slow spells of a shared machine.
  const double batch_s = *std::min_element(burst_s.begin(), burst_s.end());
  run.metrics.set("setup_s", median(setup_s), "s");
  run.detail.emplace_back("setup_s_samples", json_array(setup_s));
  run.metrics.set("batch_s", batch_s, "s");
  run.metrics.set("solve_ms_p50", quantile(solve_ms, 0.50), "ms");
  run.metrics.set("proved_share",
                  static_cast<double>(proved) /
                      static_cast<double>(nominal_requests),
                  "share");
  run.metrics.set("latency_ms_p50", median(round_p50), "ms");
  run.metrics.set("ok_share",
                  static_cast<double>(run.attempted - run.failed) /
                      static_cast<double>(run.attempted),
                  "share");
  run.metrics.set("peak_rss_mb", server_rss_mb, "MB");
  return run;
}

}  // namespace perfbench
