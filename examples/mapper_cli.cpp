// Command-line mapper: the library as a standalone tool.
//
//   mapper_cli <board-file> <design-file>... [options]
//
// Options:
//   --complete     solve the flat (complete) formulation instead of the
//                  global/detailed pipeline (single-design mode only)
//   --devices N    split a single-device board round-robin across N
//                  identical FPGAs and map with the sharded mapper
//                  (single-design mode only); boards whose files already
//                  declare devices shard automatically
//   --csv          machine-readable placement dump instead of tables
//   --map          append the per-instance memory-map report
//   --threads N    branch & bound workers per solve (default 1; 0 = all
//                  hardware threads)
//   --jobs N       map the given designs as one batch over an N-worker
//                  pool (default: one worker per design, capped at the
//                  hardware concurrency); implied when several design
//                  files are given
//
// Reads the text formats of arch_io/design_io (see examples/data/ for
// samples), maps through the mapping::solve() formulation dispatch the
// service shares, and prints the assignment, placements and solve
// statistics.  Batch mode parses the board once and shares it read-only
// across every concurrent pipeline — the serving pattern for many
// mapping requests against one device catalog.  Multi-device boards use
// the sharded formulation (partition -> per-device ILP fan-out -> stitch
// ILP) and report the per-structure device placement plus the stitch
// transfer cost.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "arch/arch_io.hpp"
#include "design/design_io.hpp"
#include "mapping/solve.hpp"
#include "mapping/validate.hpp"
#include "report/placement_report.hpp"
#include "report/text_table.hpp"
#include "support/string_util.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <board-file> <design-file>... [--complete] "
               "[--devices N] [--csv] [--map] [--threads N] [--jobs N]\n",
               argv0);
  return 2;
}

bool parse_count(const char* text, int& out) {
  std::int64_t value = 0;
  if (!gmm::support::parse_int(text, value) || value < 0 || value > 1024) {
    return false;
  }
  out = static_cast<int>(value);
  return true;
}

int report_single(const gmm::arch::Board& board,
                  const gmm::design::Design& design, const char* label,
                  bool csv, bool memory_map, const gmm::mapping::Outcome& r,
                  bool show_devices) {
  using namespace gmm;
  if (r.status != lp::SolveStatus::kOptimal &&
      r.status != lp::SolveStatus::kFeasible) {
    std::fprintf(stderr, "mapping failed: %s\n", lp::to_string(r.status));
    return 1;
  }
  const auto violations =
      mapping::validate_mapping(design, board, r.assignment, r.detailed);
  if (!violations.empty()) {
    std::fprintf(stderr, "mapping produced %zu legality violations!\n",
                 violations.size());
    for (const std::string& v : violations) {
      std::fprintf(stderr, "  %s\n", v.c_str());
    }
    return 1;
  }

  if (csv) {
    std::printf("structure,type,instance,first_port,ports,config,offset_bits,"
                "block_bits,kind\n");
    for (const mapping::PlacedFragment& f : r.detailed.fragments) {
      const arch::BankType& type = board.type(f.type);
      std::printf("%s,%s,%lld,%lld,%lld,%s,%lld,%lld,%s\n",
                  design.at(f.ds).name.c_str(), type.name.c_str(),
                  static_cast<long long>(f.instance),
                  static_cast<long long>(f.first_port),
                  static_cast<long long>(f.ports),
                  type.configs[f.config_index].to_string().c_str(),
                  static_cast<long long>(f.offset_bits),
                  static_cast<long long>(f.block_bits),
                  mapping::to_string(f.kind));
    }
    return 0;
  }

  std::printf("%s mapping of '%s' onto '%s': %s, objective %.0f (%.3fs)\n\n",
              label, design.name().c_str(), board.name().c_str(),
              lp::to_string(r.status), r.assignment.objective,
              r.effort.total_seconds());
  std::vector<std::string> headers = {"Structure", "Depth x Width",
                                      "Bank type", "Fragments"};
  if (show_devices) headers.insert(headers.begin() + 2, "Device");
  report::TextTable table(headers);
  table.set_alignment(0, report::Align::kLeft);
  table.set_alignment(2, report::Align::kLeft);
  if (show_devices) table.set_alignment(3, report::Align::kLeft);
  for (std::size_t d = 0; d < design.size(); ++d) {
    const design::DataStructure& ds = design.at(d);
    std::vector<std::string> row = {
        ds.name, std::to_string(ds.depth) + "x" + std::to_string(ds.width),
        board.type(static_cast<std::size_t>(r.assignment.type_of[d])).name,
        std::to_string(r.detailed.fragment_count(d))};
    if (show_devices) {
      const int dev = r.device_of[d];
      row.insert(row.begin() + 2,
                 dev < 0 ? "-"
                         : board.device(static_cast<std::size_t>(dev)).name);
    }
    table.add_row(row);
  }
  table.print(std::cout);
  if (memory_map) {
    std::printf("\n");
    report::write_placement_report(std::cout, design, board, r.detailed);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gmm;
  bool use_complete = false;
  bool csv = false;
  bool memory_map = false;
  int threads = 1;
  int jobs = 0;  // 0 = auto (one per design, capped at hardware)
  int devices = 0;  // 0 = as declared in the board file
  bool jobs_given = false;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--complete") == 0) {
      use_complete = true;
    } else if (std::strcmp(argv[i], "--devices") == 0 && i + 1 < argc) {
      if (!parse_count(argv[++i], devices) || devices < 1) {
        return usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      csv = true;
    } else if (std::strcmp(argv[i], "--map") == 0) {
      memory_map = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      if (!parse_count(argv[++i], threads)) return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      if (!parse_count(argv[++i], jobs)) return usage(argv[0]);
      jobs_given = true;
    } else if (argv[i][0] == '-') {
      return usage(argv[0]);
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() < 2) return usage(argv[0]);

  std::ifstream board_file(positional[0]);
  if (!board_file) {
    std::fprintf(stderr, "cannot open board file %s\n", positional[0]);
    return 1;
  }
  arch::BoardParseResult parsed_board = arch::parse_board(board_file);
  if (!parsed_board.ok) {
    std::fprintf(stderr, "%s: %s\n", positional[0],
                 parsed_board.error.c_str());
    return 1;
  }
  arch::Board board = std::move(parsed_board.board);
  if (devices > 1) {
    if (board.has_explicit_devices()) {
      std::fprintf(stderr,
                   "--devices only applies to single-device board files "
                   "(%s already declares devices)\n",
                   positional[0]);
      return 1;
    }
    board = arch::split_across_devices(board, devices);
  }

  std::vector<design::Design> designs;
  for (std::size_t i = 1; i < positional.size(); ++i) {
    std::ifstream design_file(positional[i]);
    if (!design_file) {
      std::fprintf(stderr, "cannot open design file %s\n", positional[i]);
      return 1;
    }
    design::DesignParseResult parsed = design::parse_design(design_file);
    if (!parsed.ok) {
      std::fprintf(stderr, "%s: %s\n", positional[i], parsed.error.c_str());
      return 1;
    }
    designs.push_back(std::move(parsed.design));
  }

  ilp::MipOptions mip;
  mip.num_threads = threads;

  // ---- single-design mode ----------------------------------------------
  if (designs.size() == 1 && !jobs_given) {
    const design::Design& design = designs[0];
    if (board.multi_device() && use_complete) {
      std::fprintf(stderr,
                   "--complete is a single-device option; multi-device "
                   "boards use the sharded mapper\n");
      return usage(argv[0]);
    }
    const mapping::Formulation formulation =
        board.multi_device() ? mapping::Formulation::kSharded
        : use_complete       ? mapping::Formulation::kComplete
                             : mapping::Formulation::kGlobal;
    const bool sharded = formulation == mapping::Formulation::kSharded;
    const mapping::Outcome r = mapping::solve(formulation, design, board, mip);
    if (sharded && !csv && r.mapped()) {
      std::printf("sharded over %d devices: %d shards, stitch cost %.0f, "
                  "%lld cut edges, %d repair rounds\n",
                  r.shard.devices, r.shard.shards, r.shard.stitch_cost,
                  static_cast<long long>(r.shard.cut_edges),
                  r.shard.repair_rounds);
    }
    const char* label =
        sharded ? "sharded" : use_complete ? "complete" : "global/detailed";
    return report_single(board, design, label, csv, memory_map, r, sharded);
  }

  // ---- batch mode ------------------------------------------------------
  if (use_complete) {
    std::fprintf(stderr, "--complete is a single-design option\n");
    return usage(argv[0]);
  }
  if (board.multi_device()) {
    std::fprintf(stderr,
                 "batch mode maps each design with the single-device "
                 "pipeline; multi-device boards (--devices) are a "
                 "single-design option\n");
    return usage(argv[0]);
  }
  if (jobs <= 0) {
    jobs = static_cast<int>(
        std::min(designs.size(),
                 static_cast<std::size_t>(
                     std::max(1u, std::thread::hardware_concurrency()))));
  }
  // The board is parsed once and shared read-only by every solve.
  std::vector<mapping::Outcome> results(designs.size());
  support::WallTimer timer;
  {
    support::ThreadPool pool(static_cast<std::size_t>(jobs));
    support::parallel_for(pool, designs.size(), [&](std::size_t i) {
      results[i] = mapping::solve(mapping::Formulation::kGlobal,
                                  designs[i], board, mip);
    });
  }
  const double seconds = timer.seconds();

  std::size_t succeeded = 0;
  report::TextTable table({"Design", "Status", "Objective", "Fragments",
                           "Solve (s)", "B&B nodes"});
  table.set_alignment(0, report::Align::kLeft);
  table.set_alignment(1, report::Align::kLeft);
  for (std::size_t i = 0; i < designs.size(); ++i) {
    const mapping::Outcome& r = results[i];
    const bool ok = r.mapped();
    if (ok) ++succeeded;
    table.add_row({designs[i].name(), lp::to_string(r.status),
                   ok ? std::to_string(static_cast<long long>(
                            r.assignment.objective))
                      : "-",
                   ok ? std::to_string(r.detailed.fragments.size()) : "-",
                   support::format_fixed(r.effort.total_seconds(), 3),
                   std::to_string(static_cast<long long>(r.effort.bnb_nodes))});
  }
  table.print(std::cout);
  std::printf("\n%zu/%zu designs mapped in %.3fs over %d workers "
              "(%.1f designs/s)\n",
              succeeded, results.size(), seconds, jobs,
              seconds > 0 ? static_cast<double>(results.size()) / seconds
                          : 0.0);
  return succeeded == results.size() ? 0 : 1;
}
