// global-batch: the paper's Table-3 corpus mapped the way a CAD flow maps
// it — parse the design, analyse its conflicts, map, then check the
// mapping — one instance after another at 1 B&B thread.  After the
// measured passes, the complete formulation checks the paper's
// optimality-preservation claim on part of the corpus.
//
// The corpus is fixed (seed 2001 first, so the paper's rows are always in
// it); --seed only permutes the order the instances run in.  Instance
// hardness swings by orders of magnitude between instance seeds, so a
// corpus re-drawn per run would measure the draw, not the code.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "arch/board.hpp"
#include "design/conflict_analysis.hpp"
#include "design/design_io.hpp"
#include "layers.hpp"
#include "mapping/complete_mapper.hpp"
#include "mapping/cost_model.hpp"
#include "mapping/pipeline.hpp"
#include "mapping/validate.hpp"
#include "trace.hpp"
#include "workload/table3_suite.hpp"
#include "workloads.hpp"

namespace perfbench {

std::uint64_t next_random(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::uint64_t state = seed;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[next_random(state) % i]);
  }
  return order;
}

namespace {

using gmm::lp::SolveStatus;

/// Instance seed `seed` at Table-3 points 1..last_point.
struct CorpusGroup {
  std::uint64_t seed = 0;
  int last_point = 0;
};

/// How a corpus is mapped.
struct BatchSettings {
  bool complete = false;  // map_complete instead of map_pipeline
  std::vector<CorpusGroup> corpus;
  std::int64_t node_budget = 0;  // per instance: the same work every run
  double backstop_s = 0.0;       // wall-clock backstop; firing it fails
};

/// The measured corpus: points 1-9 x instance seeds 2001-2012 (108
/// instances); five exhaust the node budget, point 6 at seed 2001 among
/// them.
BatchSettings global_batch() {
  BatchSettings s;
  for (std::uint64_t seed = 2001; seed <= 2012; ++seed) {
    s.corpus.push_back({seed, 9});
  }
  s.node_budget = 20000;
  s.backstop_s = 20.0;
  return s;
}

/// The optimality check: points 1-7 at seeds 2001 and 2002 through
/// map_complete.  Points 8 and 9 are left out for run time (their root
/// LPs take ~3 s and ~11 s).
BatchSettings complete_check() {
  BatchSettings s;
  s.complete = true;
  s.corpus = {{2001, 7}, {2002, 7}};
  s.node_budget = 20;
  s.backstop_s = 60.0;
  return s;
}

/// Untraced runs sample in this many child processes one after another.
constexpr int kProcesses = 3;

struct Instance {
  std::string id;  // "p<point>s<seed>"
  int point = 0;
  std::uint64_t seed = 0;
  gmm::arch::Board board;
  std::string design_text;  // the input as a CAD flow hands it over
};

/// Generates one input; the design text is checked to parse back before
/// it becomes an input.
Instance make_instance(std::uint64_t seed, int point) {
  gmm::workload::Table3Instance generated = gmm::workload::build_instance(
      gmm::workload::table3_points().at(static_cast<std::size_t>(point - 1)),
      seed);
  std::string text = gmm::design::design_to_string(generated.design);
  const gmm::design::DesignParseResult back =
      gmm::design::parse_design_string(text);
  if (!back.ok || back.design.size() != generated.design.size()) {
    throw std::runtime_error("generated design does not parse back");
  }
  return {"p" + std::to_string(point) + "s" + std::to_string(seed), point,
          seed, std::move(generated.board), std::move(text)};
}

std::vector<Instance> make_corpus(const std::vector<CorpusGroup>& groups) {
  std::vector<Instance> corpus;
  for (const auto& [seed, last_point] : groups) {
    for (int point = 1; point <= last_point; ++point) {
      corpus.push_back(make_instance(seed, point));
    }
  }
  return corpus;
}

struct ItemResult {
  double latency_ms = 0.0;  // parse .. checked mapping
  double solve_ms = 0.0;    // the mapping entry call alone
  bool proved = false;
  double objective = 0.0;
  double gap = 0.0;
  Effort effort;
};

/// Maps one instance end to end; wrong outputs are reported into `run`.
ItemResult map_instance(const Instance& inst, std::int64_t item,
                        const BatchSettings& settings, Tracer& tracer,
                        SolveTally& tally, RunResult& run) {
  ItemResult out;
  const Clock::time_point start = Clock::now();
  const Scope root(tracer, "instance", item);

  gmm::design::DesignParseResult parsed;
  {
    const Scope span(tracer, "design.parse", item);
    parsed = gmm::design::parse_design_string(inst.design_text);
  }
  if (!parsed.ok) {
    run.fail(inst.id + ": design does not parse: " + parsed.error);
    return out;
  }
  const gmm::design::Design& design = parsed.design;
  std::size_t cliques = 0;
  {
    const Scope span(tracer, "design.cliques", item);
    cliques = gmm::design::conflict_cliques(design).cliques.size();
  }
  if (cliques == 0) run.fail(inst.id + ": no conflict cliques");

  gmm::mapping::GlobalAssignment assignment;
  gmm::mapping::DetailedMapping detailed;
  gmm::ilp::MipResult mip;
  SolveStatus status = SolveStatus::kInfeasible;
  std::optional<gmm::mapping::CostTable> table;
  if (settings.complete) {
    {
      const Scope span(tracer, "mapping.cost_table", item);
      table.emplace(design, inst.board);
    }
    gmm::mapping::CompleteOptions options;
    options.mip.node_limit = settings.node_budget;
    options.mip.time_limit_seconds = settings.backstop_s;
    const Clock::time_point solve_start = Clock::now();
    gmm::mapping::CompleteResult result;
    {
      const Scope span(tracer, "mapping.complete", item);
      result = gmm::mapping::map_complete(design, inst.board, *table, options);
    }
    out.solve_ms = ms_between(solve_start, Clock::now());
    tally.add(result.effort, result.mip, 0, 0);
    status = result.status;
    assignment = std::move(result.assignment);
    detailed = std::move(result.detailed);
    mip = std::move(result.mip);
  } else {
    gmm::mapping::PipelineOptions options;
    options.global.mip.node_limit = settings.node_budget;
    options.global.mip.time_limit_seconds = settings.backstop_s;
    const Clock::time_point solve_start = Clock::now();
    gmm::mapping::PipelineResult result;
    {
      const Scope span(tracer, "mapping.pipeline", item);
      result = gmm::mapping::map_pipeline(design, inst.board, options);
    }
    out.solve_ms = ms_between(solve_start, Clock::now());
    tally.add(result.effort, result.mip, result.retries, 1 + result.retries);
    status = result.status;
    assignment = std::move(result.assignment);
    detailed = std::move(result.detailed);
    mip = std::move(result.mip);
  }
  out.effort = tally.effort_of_last();

  std::vector<std::string> violations;
  double recomputed = 0.0;
  const bool mapped = (status == SolveStatus::kOptimal ||
                       status == SolveStatus::kFeasible) &&
                      assignment.complete() && detailed.success;
  if (mapped) {
    const Scope span(tracer, "mapping.validate", item);
    violations = gmm::mapping::validate_mapping(design, inst.board,
                                                assignment, detailed);
    if (!table.has_value()) table.emplace(design, inst.board);
    recomputed = table->assignment_objective(assignment.type_of);
  }
  out.latency_ms = ms_between(start, Clock::now());
  if (!mapped) {
    run.fail(inst.id + ": no mapping (status " +
             gmm::lp::to_string(status) + ")");
    return out;
  }
  if (!violations.empty()) {
    run.fail(inst.id + ": illegal mapping: " + violations.front());
  }
  if (std::abs(recomputed - assignment.objective) >
      1e-6 * std::max(1.0, std::abs(recomputed))) {
    run.fail(inst.id + ": reported objective " +
             json_number(assignment.objective) + " but the cost table gives " +
             json_number(recomputed));
  }
  if (mip.stop_reason == SolveStatus::kTimeLimit) {
    // The wall-clock backstop fired: the work is no longer a fixed
    // amount, so the run's effort counts and timings are not comparable.
    run.fail(inst.id + ": hit the wall-clock backstop before its node budget");
  }
  out.proved = status == SolveStatus::kOptimal;
  out.objective = recomputed;
  out.gap = out.proved ? 0.0 : mip.gap();
  return out;
}

/// Runs measured passes over the corpus while the next pass fits in
/// `seconds`.  Every untraced pass starts by timing the generation of every
/// instance's input, so set-up is sampled all through the run, as the
/// mapping is.  With a tracer it makes one pass in which every instance
/// runs twice back to back, untraced and traced (alternating which goes
/// first), so the pair sees the same machine state; their summed
/// difference is the tracing overhead.
struct Sampler {
  const std::vector<Instance>& corpus;
  const std::vector<std::size_t>& order;
  const BatchSettings& settings;

  /// Time of generating the input of instance `index` again.
  double setup_ms(std::size_t index, RunResult& result) const {
    const Clock::time_point start = Clock::now();
    const Instance again =
        make_instance(corpus[index].seed, corpus[index].point);
    const double ms = ms_between(start, Clock::now());
    if (again.design_text != corpus[index].design_text) {
      result.fail(again.id + ": generating the input is not deterministic");
    }
    return ms;
  }

  void run(double seconds, Tracer* tracer, SolveTally& traced_tally,
           std::vector<std::vector<ItemResult>>& samples,
           std::vector<std::vector<double>>& setup_ms_samples,
           std::vector<ItemResult>& traced, double& untraced_ms,
           double& traced_ms, RunResult& result) const {
    Tracer off(false);
    SolveTally tally;
    const Clock::time_point measure_start = Clock::now();
    while (true) {
      // Timed apart from the mapping, so that no solve starts on caches the
      // generator has just churned.
      for (std::size_t k = 0; tracer == nullptr && k < order.size(); ++k) {
        setup_ms_samples[order[k]].push_back(setup_ms(order[k], result));
      }
      const Clock::time_point start = Clock::now();
      for (std::size_t k = 0; k < order.size(); ++k) {
        const std::size_t index = order[k];
        const auto item = static_cast<std::int64_t>(index);
        std::vector<ItemResult>& mine = samples[index];
        if (tracer != nullptr) {
          const bool traced_first = k % 2 == 1;
          if (traced_first) {
            traced[index] = map_instance(corpus[index], item, settings,
                                         *tracer, traced_tally, result);
          }
          mine.push_back(map_instance(corpus[index], item, settings, off,
                                      tally, result));
          if (!traced_first) {
            traced[index] = map_instance(corpus[index], item, settings,
                                         *tracer, traced_tally, result);
          }
          result.attempted += 2;
          untraced_ms += mine.back().latency_ms;
          traced_ms += traced[index].latency_ms;
          continue;
        }
        mine.push_back(
            map_instance(corpus[index], item, settings, off, tally, result));
        ++result.attempted;
      }
      const double pass_s = seconds_since(start);
      if (tracer != nullptr ||
          seconds_since(measure_start) + pass_s > seconds) {
        return;
      }
    }
  }
};

/// A sampling process hands its samples to the parent through a file:
/// "A attempted failed", "E error", one "S index ..." line per sample and
/// one "G index ms" line per set-up sample.
bool write_samples(const std::string& path,
                   const std::vector<std::vector<ItemResult>>& samples,
                   const std::vector<std::vector<double>>& setup_ms_samples,
                   const RunResult& part) {
  std::ofstream out(path);
  out.precision(17);
  out << "A " << part.attempted << ' ' << part.failed << "\n";
  for (const std::string& error : part.errors) out << "E " << error << "\n";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    for (const ItemResult& r : samples[i]) {
      const Effort& e = r.effort;
      out << "S " << i << ' ' << r.latency_ms << ' ' << r.solve_ms << ' '
          << r.proved << ' ' << r.objective << ' ' << r.gap << ' ' << e.nodes
          << ' ' << e.pivots << ' ' << e.refactorizations << ' '
          << e.cover_cuts << ' ' << e.clique_cuts << ' ' << e.rc_fixed << ' '
          << e.retries << "\n";
    }
    for (const double ms : setup_ms_samples[i]) {
      out << "G " << i << ' ' << ms << "\n";
    }
  }
  return static_cast<bool>(out);
}

bool read_samples(const std::string& path,
                  std::vector<std::vector<ItemResult>>& samples,
                  std::vector<std::vector<double>>& setup_ms_samples,
                  RunResult& run) {
  std::ifstream in(path);
  std::string line;
  bool any = false;
  while (std::getline(in, line)) {
    std::istringstream fields(
        line.substr(std::min<std::size_t>(2, line.size())));
    if (line.rfind("A ", 0) == 0) {
      std::int64_t attempted = 0, failed = 0;
      fields >> attempted >> failed;
      run.attempted += attempted;
      run.failed += failed;
      any = true;
    } else if (line.rfind("E ", 0) == 0) {
      run.errors.push_back(line.substr(2));
    } else if (line.rfind("S ", 0) == 0) {
      std::size_t i = 0;
      ItemResult r;
      Effort& e = r.effort;
      std::string gap;
      fields >> i >> r.latency_ms >> r.solve_ms >> r.proved >> r.objective >>
          gap >> e.nodes >> e.pivots >> e.refactorizations >> e.cover_cuts >>
          e.clique_cuts >> e.rc_fixed >> e.retries;
      if (!fields || i >= samples.size()) return false;
      r.gap = std::strtod(gap.c_str(), nullptr);  // "inf" when no incumbent
      samples[i].push_back(r);
    } else if (line.rfind("G ", 0) == 0) {
      std::size_t i = 0;
      double ms = 0.0;
      fields >> i >> ms;
      if (!fields || i >= setup_ms_samples.size()) return false;
      setup_ms_samples[i].push_back(ms);
    }
  }
  std::remove(path.c_str());
  return any;
}

}  // namespace

RunResult run_batch(const RunParams& params, const std::string& build) {
  RunResult run;
  const BatchSettings settings = global_batch();

  // Set-up: generate and check the corpus.  Its time is measured by the
  // sampler, which generates every instance again in every pass.
  const std::vector<Instance> corpus = make_corpus(settings.corpus);
  const std::vector<std::size_t> order =
      permutation(corpus.size(), params.seed);

  // Untraced runs sample in `processes` child processes one after another,
  // each for an equal share of the run: run time shifts by up to ~10%
  // from one process to the next on a shared machine (memory placement),
  // so samples from several processes give a steadier median.
  const int processes = params.trace ? 1 : kProcesses;
  Tracer tracer(params.trace);
  SolveTally traced_tally;
  std::vector<std::vector<ItemResult>> samples(corpus.size());
  std::vector<std::vector<double>> setup_ms(corpus.size());
  std::vector<ItemResult> traced(corpus.size());
  double untraced_ms = 0.0, traced_ms = 0.0;
  const Sampler sampler{corpus, order, settings};
  if (processes <= 1) {
    sampler.run(params.seconds, params.trace ? &tracer : nullptr,
                traced_tally, samples, setup_ms, traced, untraced_ms,
                traced_ms, run);
  } else {
    for (int p = 0; p < processes; ++p) {
      const std::string path = params.out_dir + "/samples-" +
                               params.workload + "-" + std::to_string(p) +
                               ".txt";
      std::fflush(nullptr);
      const pid_t pid = ::fork();
      if (pid < 0) throw std::runtime_error("fork failed");
      if (pid == 0) {
        RunResult part;
        std::vector<std::vector<ItemResult>> mine(corpus.size());
        std::vector<std::vector<double>> my_setup_ms(corpus.size());
        sampler.run(params.seconds / static_cast<double>(processes), nullptr,
                    traced_tally, mine, my_setup_ms, traced, untraced_ms,
                    traced_ms, part);
        ::_exit(write_samples(path, mine, my_setup_ms, part) ? 0 : 1);
      }
      int status = 0;
      ::waitpid(pid, &status, 0);
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
          !read_samples(path, samples, setup_ms, run)) {
        run.fail("sampling process " + std::to_string(p) + " failed");
      }
    }
  }

  // Exact effort counts: identical in every sample of this run, and equal
  // to what earlier runs of the same build recorded for the same ids.
  std::map<std::string, Effort> counts;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const Effort& first = samples[i].front().effort;
    counts[params.workload + ":" + corpus[i].id] = first;
    bool same = !params.trace || traced[i].effort == first;
    for (const ItemResult& sample : samples[i]) {
      same = same && sample.effort == first;
    }
    if (!same) {
      run.fail(corpus[i].id + ": effort counts differ between samples");
    }
  }
  for (const std::string& id : check_effort_ledger(
           params.out_dir + "/effort-" + params.workload + ".txt", build,
           counts)) {
    run.fail(id + ": effort counts differ from an earlier run of this build");
  }

  // Read before the check below, whose complete models are larger.
  const double peak_rss_mb =
      std::max(peak_rss_mb_self(), peak_rss_mb_children());

  // The paper's optimality-preservation claim, checked after the measured
  // passes and not timed: where the complete ILP and the global pipeline
  // both prove an instance, they prove the same optimum.  A traced run
  // records the check's spans, which give mapping.complete_ms; its solver
  // counts stay out of the measured layers' counts.
  {
    const BatchSettings check = complete_check();
    const double rel_gap = gmm::ilp::MipOptions{}.rel_gap;
    SolveTally check_tally;
    std::int64_t item = static_cast<std::int64_t>(corpus.size());
    for (const Instance& inst : make_corpus(check.corpus)) {
      const ItemResult c =
          map_instance(inst, item++, check, tracer, check_tally, run);
      ++run.attempted;
      const auto it =
          std::find_if(corpus.begin(), corpus.end(),
                       [&](const Instance& g) { return g.id == inst.id; });
      if (it == corpus.end()) throw std::logic_error("check outside corpus");
      const ItemResult& g =
          samples[static_cast<std::size_t>(it - corpus.begin())].front();
      if (!c.proved || !g.proved) continue;
      if (std::abs(g.objective - c.objective) >
          2.0 * rel_gap * std::max(std::abs(g.objective),
                                   std::abs(c.objective)) +
              1e-9) {
        run.fail(inst.id + ": global optimum " + json_number(g.objective) +
                 " differs from complete optimum " + json_number(c.objective));
      }
    }
  }

  // Per instance: its fastest sample, then quantiles over instances; the
  // set's time is the sum of the per-instance times.  A 1-thread solve
  // does the same work every time (the effort counts above prove it), so
  // the slow spells of a shared machine, which last seconds, only add to
  // it; the fastest of samples spread over the run steps around them.
  // Set-up reports the median of its samples.
  std::vector<double> solve_ms, latency_ms;
  std::int64_t proved = 0;
  double batch_ms = 0.0, setup_total_ms = 0.0;
  std::ostringstream rows;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    std::vector<double> s, l;
    for (const ItemResult& sample : samples[i]) {
      s.push_back(sample.solve_ms);
      l.push_back(sample.latency_ms);
    }
    setup_total_ms += median(setup_ms[i]);
    solve_ms.push_back(*std::min_element(s.begin(), s.end()));
    latency_ms.push_back(*std::min_element(l.begin(), l.end()));
    batch_ms += latency_ms.back();
    const ItemResult& r = samples[i].front();
    if (r.proved) ++proved;
    rows << (i == 0 ? "" : ", ") << "{\"id\": " << json_string(corpus[i].id)
         << ", \"samples\": " << samples[i].size()
         << ", \"solve_ms\": " << json_number(solve_ms.back())
         << ", \"proved\": " << (r.proved ? "true" : "false")
         << ", \"gap\": " << json_number(r.gap)
         << ", \"objective\": " << json_number(r.objective)
         << ", \"effort\": " << r.effort.to_json() << "}";
  }
  run.detail.emplace_back("instances", "[" + rows.str() + "]");

  const double n = static_cast<double>(corpus.size());
  if (params.trace) {
    // Tails of the untraced twins.
    const Tails tails{quantile(solve_ms, 0.90), quantile(latency_ms, 0.99),
                      0.0};
    emit_layer_metrics(tracer, traced_tally, ServiceLayer{}, tails, 0.0,
                       (traced_ms - untraced_ms) / untraced_ms, run.metrics);
    if (!tracer.write(params.out_dir + "/trace-" + params.workload + "-" +
                      std::to_string(params.seed) + ".jsonl")) {
      run.fail("cannot write the span file");
    }
    return run;
  }
  const double batch_s = batch_ms / 1e3;
  run.metrics.set("setup_s", setup_total_ms / 1e3, "s");
  run.metrics.set("batch_s", batch_s, "s");
  run.metrics.set("solve_ms_p50", quantile(solve_ms, 0.50), "ms");
  run.metrics.set("proved_share", static_cast<double>(proved) / n, "share");
  run.metrics.set("latency_ms_p50", quantile(latency_ms, 0.50), "ms");
  run.metrics.set("ok_share",
                  static_cast<double>(run.attempted - run.failed) /
                      static_cast<double>(run.attempted),
                  "share");
  run.metrics.set("peak_rss_mb", peak_rss_mb, "MB");
  run.detail.emplace_back("samples", std::to_string(corpus.size()));
  return run;
}

}  // namespace perfbench
