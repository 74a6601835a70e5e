#include "mapping/complete_mapper.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "mapping/detailed_mapper.hpp"
#include "support/assert.hpp"
#include "support/log.hpp"
#include "support/timer.hpp"

namespace gmm::mapping {

namespace {

/// Variable bookkeeping for one fragment-count column n[d][t][g][i].
struct CountVar {
  std::size_t d, t, g;
  std::int64_t i;
  lp::Index var;
};

}  // namespace

Outcome map_complete(const design::Design& design, const arch::Board& board,
                     const CostTable& table, const CompleteOptions& options) {
  Outcome result;
  const std::size_t num_ds = design.size();
  const std::size_t num_types = board.num_types();
  if (num_ds == 0) {
    result.status = lp::SolveStatus::kOptimal;
    return result;
  }

  support::WallTimer timer;
  lp::Model model;

  // ---- z variables ------------------------------------------------------
  std::vector<std::vector<lp::Index>> z(
      num_ds, std::vector<lp::Index>(num_types, lp::kInvalidIndex));
  for (std::size_t d = 0; d < num_ds; ++d) {
    bool any = false;
    for (std::size_t t = 0; t < num_types; ++t) {
      if (!table.feasible(d, t)) continue;
      z[d][t] = model.add_binary(table.cost(d, t));
      any = true;
    }
    if (!any) {
      result.status = lp::SolveStatus::kInfeasible;
      return result;
    }
  }

  // ---- n variables (fragment counts per instance) -----------------------
  std::vector<CountVar> count_vars;
  // n_index[d][t] -> first CountVar index of each group, laid out
  // group-major then instance.
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> n_first;
  for (std::size_t d = 0; d < num_ds; ++d) {
    for (std::size_t t = 0; t < num_types; ++t) {
      if (z[d][t] == lp::kInvalidIndex) continue;
      const PlacementPlan& plan = table.plan(d, t);
      n_first[{d, t}] = count_vars.size();
      for (std::size_t g = 0; g < plan.groups.size(); ++g) {
        const FragmentGroup& group = plan.groups[g];
        for (std::int64_t i = 0; i < board.type(t).instances; ++i) {
          const lp::Index var = model.add_variable(
              0.0, static_cast<double>(group.count), 0.0,
              lp::VarType::kInteger);
          count_vars.push_back(CountVar{d, t, g, i, var});
        }
      }
    }
  }

  // ---- y variables (ports per configuration), multi-config types only ---
  std::vector<std::vector<std::vector<lp::Index>>> y(num_types);
  for (std::size_t t = 0; t < num_types; ++t) {
    const arch::BankType& type = board.type(t);
    if (!type.multi_config()) continue;
    y[t].resize(type.instances);
    for (std::int64_t i = 0; i < type.instances; ++i) {
      y[t][i].resize(type.configs.size());
      for (std::size_t c = 0; c < type.configs.size(); ++c) {
        y[t][i][c] = model.add_variable(0.0, static_cast<double>(type.ports),
                                        0.0, lp::VarType::kContinuous);
      }
    }
  }

  // ---- uniqueness ---------------------------------------------------------
  for (std::size_t d = 0; d < num_ds; ++d) {
    lp::LinExpr expr;
    for (std::size_t t = 0; t < num_types; ++t) {
      if (z[d][t] != lp::kInvalidIndex) expr.add(z[d][t], 1.0);
    }
    model.add_constraint(expr, lp::Sense::kEqual, 1.0);
  }

  // ---- fragment completeness: sum_i n = count * z ------------------------
  for (std::size_t d = 0; d < num_ds; ++d) {
    for (std::size_t t = 0; t < num_types; ++t) {
      if (z[d][t] == lp::kInvalidIndex) continue;
      const PlacementPlan& plan = table.plan(d, t);
      const std::size_t first = n_first[{d, t}];
      const std::int64_t instances = board.type(t).instances;
      for (std::size_t g = 0; g < plan.groups.size(); ++g) {
        lp::LinExpr expr;
        for (std::int64_t i = 0; i < instances; ++i) {
          expr.add(count_vars[first + g * instances + i].var, 1.0);
        }
        expr.add(z[d][t], -static_cast<double>(plan.groups[g].count));
        model.add_constraint(expr, lp::Sense::kEqual, 0.0);
      }
    }
  }

  // ---- per-instance port, capacity, configuration rows -------------------
  // Bucket count variables by (t, i) first.
  std::map<std::pair<std::size_t, std::int64_t>, std::vector<std::size_t>>
      by_instance;
  for (std::size_t k = 0; k < count_vars.size(); ++k) {
    by_instance[{count_vars[k].t, count_vars[k].i}].push_back(k);
  }
  for (const auto& [key, members] : by_instance) {
    const auto& [t, i] = key;
    const arch::BankType& type = board.type(t);
    lp::LinExpr ports, bits;
    std::vector<lp::LinExpr> per_config(type.configs.size());
    for (const std::size_t k : members) {
      const CountVar& cv = count_vars[k];
      const FragmentGroup& group = table.plan(cv.d, cv.t).groups[cv.g];
      ports.add(cv.var, static_cast<double>(group.ports_each));
      bits.add(cv.var, static_cast<double>(group.block_bits));
      per_config[group.config_index].add(
          cv.var, static_cast<double>(group.ports_each));
    }
    model.add_constraint(ports, lp::Sense::kLessEqual,
                         static_cast<double>(type.ports));
    model.add_constraint(bits, lp::Sense::kLessEqual,
                         static_cast<double>(type.capacity_bits()));
    if (type.multi_config()) {
      lp::LinExpr y_sum;
      for (std::size_t c = 0; c < type.configs.size(); ++c) {
        if (!per_config[c].empty()) {
          lp::LinExpr link = per_config[c];
          link.add(y[t][i][c], -1.0);
          model.add_constraint(link, lp::Sense::kLessEqual, 0.0);
        }
        y_sum.add(y[t][i][c], 1.0);
      }
      model.add_constraint(y_sum, lp::Sense::kLessEqual,
                           static_cast<double>(type.ports));
    }
  }

  // ---- symmetry breaking: instance i must be loaded >= instance i+1 -----
  for (std::size_t t = 0; t < num_types; ++t) {
    const arch::BankType& type = board.type(t);
    for (std::int64_t i = 0; i + 1 < type.instances; ++i) {
      lp::LinExpr expr;
      for (const std::size_t k : by_instance[{t, i}]) {
        const CountVar& cv = count_vars[k];
        expr.add(cv.var, static_cast<double>(
                             table.plan(cv.d, cv.t).groups[cv.g].ports_each));
      }
      bool next_nonempty = false;
      for (const std::size_t k : by_instance[{t, i + 1}]) {
        const CountVar& cv = count_vars[k];
        expr.add(cv.var, -static_cast<double>(
                             table.plan(cv.d, cv.t).groups[cv.g].ports_each));
        next_nonempty = true;
      }
      if (next_nonempty) {
        model.add_constraint(expr, lp::Sense::kGreaterEqual, 0.0);
      }
    }
  }

  result.model_size.variables = model.num_vars();
  result.model_size.rows = model.num_rows();
  result.model_size.nonzeros =
      static_cast<std::int64_t>(model.num_nonzeros());
  for (lp::Index j = 0; j < model.num_vars(); ++j) {
    if (model.var_type(j) != lp::VarType::kContinuous) {
      ++result.model_size.binaries;
    }
  }
  result.effort.formulate_seconds = timer.seconds();

  // ---- packing-repair primal heuristic ---------------------------------
  ilp::MipOptions mip_options = options.mip;
  if (options.use_packing_heuristic) {
    // Run on every node: once the cost-bearing Z's are integral the
    // packer's incumbent matches the node bound exactly (the objective
    // lives on Z alone), pruning the whole symmetric placement plateau.
    mip_options.heuristic_period = 1;
    // Round the LP's Z to an assignment, run the detailed packer, and
    // encode the placement back into the flat variable space.
    mip_options.primal_heuristic =
        [&, num_ds, num_types](const std::vector<double>& lp_x)
        -> std::optional<std::vector<double>> {
      GlobalAssignment assignment;
      assignment.type_of.assign(num_ds, -1);
      for (std::size_t d = 0; d < num_ds; ++d) {
        double best = -1.0;
        for (std::size_t t = 0; t < num_types; ++t) {
          if (z[d][t] == lp::kInvalidIndex) continue;
          if (lp_x[z[d][t]] > best) {
            best = lp_x[z[d][t]];
            assignment.type_of[d] = static_cast<int>(t);
          }
        }
        if (assignment.type_of[d] < 0) return std::nullopt;
      }
      DetailedOptions packer;
      packer.allow_overlap = false;  // the flat model never shares blocks
      const DetailedMapping packed =
          map_detailed(design, board, table, assignment, packer);
      if (!packed.success) return std::nullopt;

      std::vector<double> x(static_cast<std::size_t>(model.num_vars()), 0.0);
      for (std::size_t d = 0; d < num_ds; ++d) {
        x[z[d][assignment.type_of[d]]] = 1.0;
      }
      // Canonicalize instance order per type by decreasing port load so
      // the symmetry-breaking rows hold.
      for (std::size_t t = 0; t < num_types; ++t) {
        std::map<std::int64_t, std::int64_t> load;  // instance -> ports
        for (const PlacedFragment& f : packed.fragments) {
          if (f.type == t) load[f.instance] += f.ports;
        }
        std::vector<std::pair<std::int64_t, std::int64_t>> order(
            load.begin(), load.end());
        std::sort(order.begin(), order.end(),
                  [](const auto& a, const auto& b) {
                    return a.second > b.second;
                  });
        std::map<std::int64_t, std::int64_t> renumber;
        for (std::size_t rank = 0; rank < order.size(); ++rank) {
          renumber[order[rank].first] = static_cast<std::int64_t>(rank);
        }
        const arch::BankType& type = board.type(t);
        std::vector<std::vector<double>> port_in_config(
            static_cast<std::size_t>(type.instances),
            std::vector<double>(type.configs.size(), 0.0));
        for (const PlacedFragment& f : packed.fragments) {
          if (f.type != t) continue;
          const std::int64_t inst = renumber[f.instance];
          // Locate the fragment's group: kinds are unique within a plan.
          const PlacementPlan& plan = table.plan(f.ds, t);
          const std::size_t first = n_first.at({f.ds, t});
          for (std::size_t g = 0; g < plan.groups.size(); ++g) {
            if (plan.groups[g].kind == f.kind) {
              x[count_vars[first + g * type.instances + inst].var] += 1.0;
              break;
            }
          }
          port_in_config[inst][f.config_index] +=
              static_cast<double>(f.ports);
        }
        if (type.multi_config()) {
          for (std::int64_t i = 0; i < type.instances; ++i) {
            for (std::size_t c = 0; c < type.configs.size(); ++c) {
              x[y[t][i][c]] = port_in_config[i][c];
            }
          }
        }
      }
      return x;
    };
  }

  // ---- solve ---------------------------------------------------------------
  timer.reset();
  result.mip = ilp::solve_mip(model, mip_options);
  result.effort.solve_seconds = timer.seconds();
  result.effort.bnb_nodes = result.mip.nodes;
  result.effort.lp_iterations = result.mip.lp_iterations;
  result.effort.lp_refactorizations = result.mip.simplex_refactorizations;
  result.effort.basis = result.mip.basis;
  result.total_effort = result.effort;
  result.status = result.mip.status;
  if (!result.mip.has_incumbent()) return result;

  // ---- decode the assignment and placement --------------------------------
  result.assignment.type_of.assign(num_ds, -1);
  for (std::size_t d = 0; d < num_ds; ++d) {
    for (std::size_t t = 0; t < num_types; ++t) {
      if (z[d][t] != lp::kInvalidIndex && result.mip.x[z[d][t]] > 0.5) {
        result.assignment.type_of[d] = static_cast<int>(t);
      }
    }
  }
  result.assignment.objective = result.mip.objective;

  // Decode concrete offsets/ports per instance from the counts; the model
  // rows guarantee the per-instance packing succeeds.
  std::map<std::pair<std::size_t, std::int64_t>,
           std::vector<std::pair<std::size_t, std::size_t>>>
      decode;  // (t, i) -> list of (count_var index, multiplicity)
  for (std::size_t k = 0; k < count_vars.size(); ++k) {
    const double v = result.mip.x[count_vars[k].var];
    const auto copies = static_cast<std::int64_t>(std::llround(v));
    if (copies <= 0) continue;
    decode[{count_vars[k].t, count_vars[k].i}].push_back(
        {k, static_cast<std::size_t>(copies)});
  }
  for (const auto& [key, members] : decode) {
    const auto& [t, i] = key;
    const arch::BankType& type = board.type(t);
    // Sort fragments by decreasing block size for buddy placement.
    std::vector<std::pair<const FragmentGroup*, std::size_t>> items;
    for (const auto& [k, copies] : members) {
      const CountVar& cv = count_vars[k];
      const FragmentGroup& group = table.plan(cv.d, cv.t).groups[cv.g];
      for (std::size_t c = 0; c < copies; ++c) items.push_back({&group, cv.d});
    }
    std::stable_sort(items.begin(), items.end(),
                     [](const auto& a, const auto& b) {
                       return a.first->block_bits > b.first->block_bits;
                     });
    std::int64_t next_port = 0;
    std::int64_t next_offset = 0;
    for (const auto& [group, d] : items) {
      // Blocks are powers of two sorted descending, so sequential
      // placement is automatically aligned.
      result.detailed.fragments.push_back(PlacedFragment{
          .ds = d,
          .type = t,
          .instance = i,
          .config_index = group->config_index,
          .kind = group->kind,
          .ports = group->ports_each,
          .first_port = next_port,
          .offset_bits = next_offset,
          .block_bits = group->block_bits,
          .words_covered = group->words_covered,
          .bits_covered = group->bits_covered,
      });
      next_port += group->ports_each;
      next_offset += group->block_bits;
      GMM_ASSERT(next_port <= type.ports,
                 "complete decode exceeded instance ports");
      GMM_ASSERT(next_offset <= type.capacity_bits(),
                 "complete decode exceeded instance capacity");
    }
  }
  result.detailed.success = true;
  return result;
}

}  // namespace gmm::mapping
