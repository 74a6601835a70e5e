#include "service/mapping_service.hpp"

#include <fstream>
#include <sstream>
#include <utility>

#include <cmath>

#include "arch/arch_io.hpp"
#include "design/design_io.hpp"
#include "mapping/cost_model.hpp"
#include "mapping/remap.hpp"
#include "mapping/solve.hpp"
#include "mapping/validate.hpp"
#include "support/assert.hpp"
#include "support/fault.hpp"
#include "support/log.hpp"
#include "support/timer.hpp"

namespace gmm::service {

namespace {

using lp::SolveStatus;

/// Map a finished pipeline run onto a wire status.  The mip stop_reason
/// disambiguates kFeasible results: an incumbent that survived a cancel
/// or deadline is still reported under the stopping status (with the
/// partial result attached) so clients see WHY their request ended.
ResponseStatus classify(lp::SolveStatus status,
                        const ilp::MipResult& mip) {
  switch (status) {
    case SolveStatus::kOptimal:
      return ResponseStatus::kOk;
    case SolveStatus::kFeasible:
      if (mip.stop_reason == SolveStatus::kCancelled) {
        return ResponseStatus::kCancelled;
      }
      if (mip.stop_reason == SolveStatus::kTimeLimit) {
        return ResponseStatus::kTimeout;
      }
      return ResponseStatus::kOk;
    case SolveStatus::kCancelled:
      return ResponseStatus::kCancelled;
    case SolveStatus::kTimeLimit:
      return ResponseStatus::kTimeout;
    case SolveStatus::kInfeasible:
      return ResponseStatus::kInfeasible;
    default:
      return ResponseStatus::kError;
  }
}

/// An ok response echoing `request`'s id and version.
Response reply(const Request& request, const char* method) {
  Response out;
  out.id = request.id;
  out.method = method;
  out.v = request.version;
  out.status = ResponseStatus::kOk;
  return out;
}

/// Resolve a detailed mapping's fragments into wire placement rows.
void append_placements(Response& response, const design::Design& design,
                       const arch::Board& board,
                       const mapping::DetailedMapping& detailed) {
  response.placements.reserve(detailed.fragments.size());
  for (const mapping::PlacedFragment& f : detailed.fragments) {
    const arch::BankType& type = board.type(f.type);
    PlacementEntry entry;
    entry.segment = design.at(f.ds).name;
    entry.type = type.name;
    entry.instance = f.instance;
    entry.first_port = f.first_port;
    entry.ports = f.ports;
    if (f.config_index >= 0 &&
        f.config_index < static_cast<int>(type.configs.size())) {
      entry.config =
          type.configs[static_cast<std::size_t>(f.config_index)].to_string();
    }
    entry.offset_bits = f.offset_bits;
    entry.block_bits = f.block_bits;
    entry.kind = mapping::to_string(f.kind);
    response.placements.push_back(std::move(entry));
  }
}

/// Replay a cached mapping into `response`: translate it back through
/// `fp`'s canonical permutations, then RE-VERIFY it against THIS
/// request's design and board.  A fingerprint collision (or a poisoned
/// entry) fails here and degrades to a verify-fail miss, never a wrong
/// answer; `response` is untouched then.
bool replay(const RequestFingerprint& fp, const CacheEntry& hit,
            const design::Design& design, const arch::Board& board,
            const support::WallTimer& timer, Response& response) {
  mapping::GlobalAssignment replayed;
  mapping::DetailedMapping mapped;
  bool ok = from_canonical(fp, hit, replayed.type_of, &mapped) &&
            mapping::validate_mapping(design, board, replayed, mapped).empty();
  if (ok) {
    const mapping::CostTable table(design, board);
    replayed.objective = table.assignment_objective(replayed.type_of);
    ok = std::abs(replayed.objective - hit.objective) <=
         1e-6 * std::max(1.0, std::abs(hit.objective));
  }
  // Injected entry corruption: the replay verified fine, but we pretend
  // it did not — driving the exact poison/cold-solve/alert path a
  // genuinely corrupted entry would take.
  if (ok && GMM_FAULT("cache.verify", "corrupt")) ok = false;
  if (!ok) return false;
  response.status = ResponseStatus::kOk;
  response.has_result = true;
  response.cached = true;
  response.solve_status = hit.solve_status;
  response.objective = replayed.objective;
  response.nodes = 0;
  response.seconds = timer.seconds();
  response.retries = hit.retries;
  append_placements(response, design, board, mapped);
  return true;
}

/// Fill a solved request's terminal response from its outcome.
void respond(const mapping::Outcome& outcome, const support::CancelToken& token,
             bool verify_failed, const design::Design& design,
             const arch::Board& board, Response& response) {
  response.status = classify(outcome.status, outcome.mip);
  // A watchdog kill travels through the ordinary cancellation machinery
  // (the solver stops with kCancelled); the token's cause upgrades the
  // wire status so clients can tell "you cancelled it" from "the server
  // killed a wedged solve" — only the latter is worth retrying.
  if (response.status == ResponseStatus::kCancelled && token.stalled()) {
    response.status = ResponseStatus::kStalled;
    response.stop_reason = "stalled";
  }
  // Verify-fail cold solves are explicitly NOT degraded: corruption was
  // detected and the client got a fresh full-fidelity solve.  The marker
  // (plus the verify_fails counter) is what monitoring alerts on.
  if (verify_failed) response.degraded = 0;
  response.retries = outcome.retries;
  response.shards = outcome.shard.shards;
  response.stitch_cost = outcome.shard.stitch_cost;
  // A result payload only when the solve produced a usable mapping —
  // i.e. detailed placement succeeded.  This excludes both a
  // timeout/cancel/infeasible with no incumbent (whose
  // default-constructed objective of 0 would read as a perfect score)
  // and a retry-loop early exit whose stale global assignment never
  // packed (objective without placements).
  if (outcome.detailed.success && outcome.assignment.complete()) {
    response.has_result = true;
    response.solve_status = lp::to_string(outcome.status);
    if (outcome.mip.stop_reason != SolveStatus::kOptimal &&
        response.status != ResponseStatus::kStalled) {
      response.stop_reason = lp::to_string(outcome.mip.stop_reason);
    }
    response.objective = outcome.assignment.objective;
    response.nodes = outcome.effort.bnb_nodes;
    response.seconds = outcome.effort.total_seconds();
  }
  if (response.status == ResponseStatus::kError) {
    response.error =
        "solver failed: " + std::string(lp::to_string(outcome.status));
  }
  // Taxonomy for solve outcomes: timeouts, stalls, and internal solver
  // failures are transient server-side conditions (retryable); cancelled
  // and infeasible are deterministic for this request.
  response.retryable = response.status == ResponseStatus::kTimeout ||
                       response.status == ResponseStatus::kStalled ||
                       response.status == ResponseStatus::kError;
  if (outcome.detailed.success) {
    append_placements(response, design, board, outcome.detailed);
  }
}

}  // namespace

MappingService::MappingService(std::vector<arch::Board> boards,
                               ServiceOptions options, ResponseSink sink)
    : boards_(std::move(boards)),
      options_(options),
      sink_(std::move(sink)),
      cache_(options.cache_capacity) {
  GMM_ASSERT(sink_ != nullptr, "MappingService needs a response sink");
  for (std::size_t i = 0; i < boards_.size(); ++i) {
    board_index_.emplace(boards_[i].name(), i);
  }
  if (options_.watchdog_window_ms > 0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
  pool_ = std::make_unique<support::ThreadPool>(options_.workers);
}

MappingService::~MappingService() {
  drain();
  if (watchdog_.joinable()) {
    {
      const std::scoped_lock lock(mutex_);
      watchdog_stop_ = true;
    }
    watchdog_cv_.notify_all();
    watchdog_.join();
  }
}

void MappingService::watchdog_loop() {
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(options_.watchdog_window_ms));
  // Sampling at a quarter window bounds detection latency by 1.25x the
  // window — comfortably inside the documented 2x-window guarantee even
  // with cancellation latency on top.
  const auto tick = std::max<Clock::duration>(
      window / 4, std::chrono::milliseconds(1));
  std::unique_lock lock(mutex_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(lock, tick, [this] { return watchdog_stop_; });
    if (watchdog_stop_) break;
    const Clock::time_point now = Clock::now();
    for (auto& [id, entry] : active_) {
      if (entry.progress == nullptr) continue;  // still queued
      const std::int64_t value =
          entry.progress->load(std::memory_order_relaxed);
      if (value != entry.last_progress) {
        entry.last_progress = value;
        entry.last_change = now;
        continue;
      }
      if (now - entry.last_change >= window && !entry.token->cancelled()) {
        GMM_LOG(kWarn) << "watchdog: request '" << id
                       << "' made no progress for "
                       << options_.watchdog_window_ms
                       << " ms, force-cancelling as stalled";
        entry.token->cancel_stalled();
      }
    }
  }
}

const arch::Board* MappingService::find_board(const std::string& name) const {
  if (name.empty()) return boards_.empty() ? nullptr : &boards_.front();
  const auto it = board_index_.find(name);
  return it == board_index_.end() ? nullptr : &boards_[it->second];
}

ServiceStats MappingService::stats() const {
  ServiceStats out;
  {
    const std::scoped_lock lock(mutex_);
    out = stats_;
  }
  // Gauges owned by the cache itself (its own lock; read after mutex_ so
  // they can only run AHEAD of the outcome counters, never behind).
  out.cache.insertions = cache_.insertions();
  out.cache.evictions = cache_.evictions();
  out.cache.entries = static_cast<std::int64_t>(cache_.size());
  return out;
}

void MappingService::drain() {
  std::unique_lock lock(mutex_);
  idle_cv_.wait(lock, [this] { return pending_ == 0; });
}

void MappingService::handle(const Request& request) {
  if (request.unknown_fields > 0) {
    const std::scoped_lock lock(mutex_);
    ++stats_.unknown_field_requests;
  }
  switch (request.method) {
    case Method::kMap:
      handle_map(request);
      return;
    case Method::kCancel: {
      Response ack = reply(request, "cancel");
      ack.target = request.target;
      {
        const std::scoped_lock lock(mutex_);
        const auto it = active_.find(request.target);
        ack.found = it != active_.end();
        if (ack.found) it->second.token->cancel();
      }
      sink_(ack);
      return;
    }
    case Method::kPing:
      sink_(reply(request, "ping"));
      return;
    case Method::kStats: {
      Response snapshot = reply(request, "stats");
      snapshot.has_stats = true;
      snapshot.stats = stats();
      sink_(snapshot);
      return;
    }
    case Method::kShutdown:
      // Draining is the serve loop's job (it must stop feeding requests
      // first); acknowledge so a bare service user still gets a reply.
      sink_(reply(request, "shutdown"));
      return;
    case Method::kInvalid: {
      Response err = reply(request, "");
      err.status = ResponseStatus::kError;
      err.error = request.error.empty() ? "invalid request" : request.error;
      sink_(err);
      return;
    }
  }
}

void MappingService::handle_map(const Request& request) {
  Response reject = reply(request, "map");  // kOk marks "admitted" below
  // Out-of-range solver knobs terminate the request here with status
  // "rejected" — never a silent clamp into a quality/effort contract the
  // client did not ask for (the per-solve thread CAP is the exception:
  // that is operator policy, applied in apply_solver_knobs).
  if (!request.reject_reason.empty()) {
    {
      const std::scoped_lock lock(mutex_);
      ++stats_.rejected;
    }
    reject.status = ResponseStatus::kRejected;
    reject.error = request.reject_reason;
    // A knob out of range is a client bug: resubmitting the same request
    // fails the same way, so no backoff hint and not retryable.
    sink_(reject);
    return;
  }
  auto token = std::make_shared<support::CancelToken>();
  const Clock::time_point admitted = Clock::now();
  {
    const std::scoped_lock lock(mutex_);
    // Shed only when this request would actually wait behind others: the
    // EWMA updates at worker pickups, so with an empty queue it is stale
    // evidence — admitting then lets the fresh near-zero pickup delays
    // drag the signal back down (otherwise one overload spike would shed
    // forever).
    const bool shed =
        options_.shed_queue_delay_ms > 0 &&
        queue_delay_ewma_ms_ > options_.shed_queue_delay_ms &&
        pending_ >= pool_->worker_count();
    if (active_.contains(request.id)) {
      // kRejected (not kError) keeps the wire unambiguous: "rejected"
      // always means THIS submission was refused at admission, never
      // that the in-flight solve behind the id failed — so a client
      // correlating by id cannot mistake it for the original request's
      // terminal response.  Does NOT release the original's slot.
      ++stats_.rejected;
      reject.status = ResponseStatus::kRejected;
      reject.error = "duplicate id '" + request.id + "' is still active";
    } else if (GMM_FAULT("service.admission", "reject")) {
      ++stats_.rejected;
      ++stats_.shed_overload;
      reject.status = ResponseStatus::kRejected;
      reject.error = "injected fault: admission shed";
      reject.retryable = true;
      reject.retry_after_ms = std::max<std::int64_t>(
          static_cast<std::int64_t>(queue_delay_ewma_ms_), 10);
    } else if (shed) {
      // Overload: the queue is moving too slowly for new work to meet
      // any reasonable expectation.  Shed now with an honest backoff
      // hint — the observed delay itself is the best estimate of when
      // capacity frees up.
      ++stats_.rejected;
      ++stats_.shed_overload;
      reject.status = ResponseStatus::kRejected;
      reject.error = "shed: observed queue delay " +
                     std::to_string(static_cast<long>(queue_delay_ewma_ms_)) +
                     " ms exceeds " +
                     std::to_string(
                         static_cast<long>(options_.shed_queue_delay_ms)) +
                     " ms";
      reject.retryable = true;
      reject.retry_after_ms = std::min<std::int64_t>(
          std::max<std::int64_t>(
              static_cast<std::int64_t>(queue_delay_ewma_ms_), 10),
          30000);
    } else if (pending_ >= options_.max_pending) {
      ++stats_.rejected;
      reject.status = ResponseStatus::kRejected;
      reject.error = "queue full (" + std::to_string(options_.max_pending) +
                     " pending)";
      reject.retryable = true;
      reject.retry_after_ms = std::max<std::int64_t>(
          static_cast<std::int64_t>(queue_delay_ewma_ms_), 10);
    } else {
      ++stats_.accepted;
      ++pending_;
      ActiveRequest slot;
      slot.token = token;
      active_.emplace(request.id, std::move(slot));
    }
  }
  if (reject.status != ResponseStatus::kOk) {
    sink_(reject);
    return;
  }
  // The deadline clock starts at admission: queue wait counts.
  if (request.map.deadline_ms >= 0) {
    token->set_deadline_after_seconds(request.map.deadline_ms / 1000.0);
  }
  pool_->submit([this, id = request.id, v = request.version,
                 map = request.map, token, admitted] {
    run_map(id, v, map, token, admitted);
  });
}

void MappingService::run_map(const std::string& id, int version,
                             const MapRequest& request,
                             const support::CancelTokenPtr& token,
                             Clock::time_point admitted) {
  Response response;
  response.id = id;
  response.method = "map";
  response.v = version;
  CacheTally cache;  // a bypass unless the lookup below consults the cache

  // ---- queue and progress bookkeeping ----------------------------------
  record_pickup(admitted);
  // A request whose token fired while queued never starts a solve.
  if (token->should_stop()) {
    response.status = token->cancelled() ? ResponseStatus::kCancelled
                                         : ResponseStatus::kTimeout;
    response.retryable = response.status == ResponseStatus::kTimeout;
    return finish(std::move(response), cache);
  }
  const auto progress = watch(id);

  // ---- resolve board and design ----------------------------------------
  Resolved in;
  if (std::string error = resolve(request, in); !error.empty()) {
    response.status = ResponseStatus::kError;
    response.error = std::move(error);
    return finish(std::move(response), cache);
  }
  const design::Design& design = in.design;
  const arch::Board& board = *in.board;
  ilp::MipOptions mip;
  mip.cancel_token = token;
  mip.progress = progress;
  // The one shared mapping from wire knobs onto MipOptions (gap,
  // node/time budgets, basis cache, threads clamped to the server cap).
  apply_solver_knobs(request.knobs, options_.max_threads_per_solve, mip);

  // ---- fingerprint and cache lookup ------------------------------------
  // Sharded solves bypass the cache entirely: their objective includes
  // the stitch transfer term, which the replay verifier cannot recompute
  // from a single-board CostTable.
  const bool cacheable = cache_.enabled() &&
                         request.formulation != mapping::Formulation::kSharded &&
                         !request.knobs.no_cache;
  RequestFingerprint fp;
  std::optional<CacheEntry> prior;  // near-miss seed (global path)
  if (cacheable) {
    cache.bucket = CacheTally::Bucket::kMiss;
    support::WallTimer replay_timer;
    // Keyed on the EFFECTIVE gap after knobs.
    fp = fingerprint_request(design, board, request.formulation, mip.rel_gap);
    if (const std::optional<CacheEntry> hit = cache_.find(fp.full)) {
      if (replay(fp, *hit, design, board, replay_timer, response)) {
        cache.bucket = CacheTally::Bucket::kHit;
        return finish(std::move(response), cache);
      }
      poison(fp.full, id);
      cache.verify_failed = true;
    }
    // Near-miss warm re-solves are a plain-global feature.
    if (request.formulation == mapping::Formulation::kGlobal) {
      prior = cache_.find_structural(fp.structural);
    }
  }

  // ---- solve, or remap from the near-miss seed -------------------------
  mapping::Outcome outcome;
  std::vector<int> prior_type_of;
  if (prior.has_value() && from_canonical(fp, *prior, prior_type_of, nullptr)) {
    // NEAR MISS: same structure/board/contract, different traffic.
    // Re-solve incrementally from the cached assignment — B&B seeded
    // with the prior mapping, traffic-unchanged structures pinned, a
    // small migration term biasing toward stability (remap.hpp).
    mapping::RemapOptions remap_options;
    remap_options.pipeline.global.mip = mip;
    remap_options.pinned_structures = unchanged_structures(fp, *prior);
    remap_options.migration_penalty = options_.near_miss_migration_penalty;
    outcome = mapping::remap(design, board, prior_type_of, remap_options).result;
    cache.near_miss = true;
  } else {
    outcome = mapping::solve(request.formulation, design, board, mip,
                             options_.max_threads_per_solve);
  }
  count_solve(outcome, request.formulation);

  // ---- respond and insert ----------------------------------------------
  respond(outcome, *token, cache.verify_failed, design, board, response);
  // Near-miss results stay out of the cache: their proof is for the
  // pinned model, and the cache only serves unconstrained proofs.
  if (cacheable && !cache.near_miss) remember(fp, outcome);
  finish(std::move(response), cache);
}

void MappingService::record_pickup(Clock::time_point admitted) {
  // Fold this request's observed queue wait into the overload signal.
  // Recorded unconditionally (shedding enabled or not) so the EWMA is
  // warm the moment an operator turns the threshold on.
  const double delay_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - admitted)
          .count();
  const std::scoped_lock lock(mutex_);
  queue_delay_ewma_ms_ = queue_delay_ewma_ms_ == 0.0
                             ? delay_ms
                             : 0.7 * queue_delay_ewma_ms_ + 0.3 * delay_ms;
}

std::shared_ptr<std::atomic<std::int64_t>> MappingService::watch(
    const std::string& id) {
  // From here the solve is RUNNING: register the liveness counter so the
  // watchdog starts judging it.  The registration instant counts as the
  // last progress change, so a fresh solve gets one full window to
  // produce its first node.
  auto progress = std::make_shared<std::atomic<std::int64_t>>(0);
  const std::scoped_lock lock(mutex_);
  const auto it = active_.find(id);
  if (it != active_.end()) {
    it->second.progress = progress;
    it->second.last_progress = 0;
    it->second.last_change = Clock::now();
  }
  return progress;
}

std::string MappingService::resolve(const MapRequest& request,
                                    Resolved& out) const {
  // The board: inline text wins, else the named catalog entry.
  if (!request.board_text.empty()) {
    arch::BoardParseResult parsed =
        arch::parse_board_string(request.board_text);
    if (!parsed.ok) return "board_text: " + parsed.error;
    out.inline_board = std::move(parsed.board);
    out.board = &out.inline_board;
  } else {
    out.board = find_board(request.board_name);
    if (out.board == nullptr) {
      return request.board_name.empty()
                 ? "no boards loaded and no board_text given"
                 : "unknown board '" + request.board_name + "'";
    }
  }
  // The design: inline text or a server-side file.
  std::string file_text;
  if (request.design_text.empty()) {
    std::ifstream file(request.design_path);
    if (!file) return "cannot open '" + request.design_path + "'";
    std::ostringstream content;
    content << file.rdbuf();
    file_text = content.str();
  }
  design::DesignParseResult parsed = design::parse_design_string(
      request.design_text.empty() ? file_text : request.design_text);
  if (!parsed.ok) return "design: " + parsed.error;
  if (parsed.design.size() == 0) return "design has no segments";
  out.design = std::move(parsed.design);
  return {};
}

void MappingService::poison(const Fingerprint& key, const std::string& id) {
  // Left in place, the entry would verify-fail on every future
  // resubmission of this request.
  cache_.erase(key);
  // Alert once per fingerprint — repeated corruption of the same entry
  // (or a hot key being resubmitted) must not storm the log.
  const std::scoped_lock lock(mutex_);
  if (logged_poisoned_.insert(key).second) {
    GMM_LOG(kWarn) << "cache: poisoned entry evicted, fingerprint " << key.hi
                   << ":" << key.lo
                   << " failed replay verification (request '" << id
                   << "'); answering with a cold solve";
  }
}

void MappingService::count_solve(const mapping::Outcome& outcome,
                                 mapping::Formulation formulation) {
  // The aggregate counters count every solve the request triggered —
  // pipeline retries, and for sharded requests the whole candidate
  // fan-out including solves the stitch discarded — while the response's
  // own nodes/seconds fields report only the work behind the returned
  // mapping.
  const bool sharded = formulation == mapping::Formulation::kSharded;
  const mapping::SolveEffort& work =
      sharded ? outcome.total_effort : outcome.effort;
  const std::scoped_lock lock(mutex_);
  ++stats_.solves;
  stats_.nodes += work.bnb_nodes;
  stats_.lp_iterations += work.lp_iterations;
  stats_.refactorizations += work.lp_refactorizations;
  stats_.basis += work.basis;
  if (sharded) {
    ++stats_.sharded_requests;
    stats_.shard_solves += outcome.shard.candidate_solves;
  }
}

void MappingService::remember(const RequestFingerprint& fp,
                              const mapping::Outcome& outcome) {
  // Insert only fully PROVED results: solve status optimal AND the B&B
  // ran to its proof (stop_reason optimal), so node/time budgets never
  // need to join the fingerprint and a replay is exactly what a fresh
  // solve would return.
  if (outcome.status != SolveStatus::kOptimal ||
      outcome.mip.stop_reason != SolveStatus::kOptimal ||
      !outcome.detailed.success || !outcome.assignment.complete()) {
    return;
  }
  CacheEntry entry;
  entry.key = fp.full;
  entry.structural = fp.structural;
  if (!to_canonical(fp, outcome.assignment, outcome.detailed, entry)) return;
  entry.objective = outcome.assignment.objective;
  entry.retries = outcome.retries;
  entry.solve_status = lp::to_string(outcome.status);
  cache_.insert(std::move(entry));
}

void MappingService::finish(Response response, const CacheTally& cache) {
  // Deregister and COUNT before sinking: a cancel racing this completion
  // is acked found:false once the terminal response is (about to be) on
  // the wire — the protocol's "already finished" contract — and a client
  // that has read a terminal response must never see `stats` counters
  // that miss it (stats may run slightly ahead of the wire, never
  // behind).  But decrement pending_ only AFTER the sink: drain()
  // returning must guarantee every terminal response has been fully
  // written, or a shutdown ack could overtake the final result.
  {
    const std::scoped_lock lock(mutex_);
    active_.erase(response.id);
    ++stats_.completed;
    if (response.status == ResponseStatus::kCancelled) ++stats_.cancelled;
    if (response.status == ResponseStatus::kTimeout) ++stats_.timed_out;
    if (response.status == ResponseStatus::kStalled) ++stats_.stalled;
    // Every terminal map response lands in exactly one cache bucket.
    switch (cache.bucket) {
      case CacheTally::Bucket::kBypass:
        ++stats_.cache.bypasses;
        break;
      case CacheTally::Bucket::kHit:
        ++stats_.cache.hits;
        break;
      case CacheTally::Bucket::kMiss:
        ++stats_.cache.misses;
        if (cache.near_miss) ++stats_.cache.near_misses;
        if (cache.verify_failed) ++stats_.cache.verify_fails;
        break;
    }
  }
  sink_(response);
  {
    const std::scoped_lock lock(mutex_);
    --pending_;
  }
  idle_cv_.notify_all();
}

}  // namespace gmm::service
