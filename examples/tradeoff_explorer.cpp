// Interactive exploration of the DVS / shutdown / processor-count
// trade-off space on a generated task graph: prints the DVS ladder, the
// shutdown breakeven per level, and the full energy-vs-processor-count
// sweep with and without PS (the decision surface LAMPS+PS searches).
//
// Usage: ./tradeoff_explorer [--tasks 300] [--seed 4] [--deadline-factor 2]
//                            [--fine] [--max-procs 24]
// A deadline core::factor_deadline rejects exits 2 before output.
#include <iostream>

#include "core/lamps.hpp"
#include "core/request.hpp"
#include "core/strategy.hpp"
#include "graph/analysis.hpp"
#include "graph/transform.hpp"
#include "power/sleep_model.hpp"
#include "stg/suite.hpp"
#include "util/cli.hpp"
#include "util/errors.hpp"
#include "util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace lamps;

  std::size_t tasks = 300;
  std::size_t variant = 4;
  double factor = 2.0;
  bool fine = false;
  std::size_t max_procs = 24;
  CliParser cli("Explore the DVS/PS/processor-count trade-off on a generated graph");
  cli.add_option("tasks", "graph size (number of tasks)", &tasks);
  cli.add_option("variant", "which suite parameter combination to generate", &variant);
  cli.add_option("deadline-factor", "deadline as a multiple of the CPL", &factor);
  cli.add_flag("fine", "use fine-grain cycles-per-unit (3.1e4 instead of 3.1e6)", &fine);
  cli.add_option("max-procs", "processor counts to sweep", &max_procs);
  if (!cli.parse(argc, argv, std::cerr)) return 1;

  const power::PowerModel model;
  const power::DvsLadder ladder(model);
  const power::SleepModel sleep(model);

  // The instance, checked before any output.
  const auto specs = stg::random_group_specs(tasks, variant + 1);
  const Cycles unit = fine ? stg::kFineGrainCyclesPerUnit : stg::kCoarseGrainCyclesPerUnit;
  const graph::TaskGraph g = graph::scale_weights(stg::generate_random(specs[variant]), unit);
  const core::Problem prob{&g, core::factor_deadline(g, factor, model), &model, &ladder};

  // ---- The operating points available to the schedulers.
  std::cout << "DVS ladder (70 nm technology):\n";
  TextTable lad_table({"Vdd [V]", "f [GHz]", "f/f_max", "P_active [W]", "P_idle [W]",
                       "E/cycle [nJ]", "breakeven [Mcycles]"});
  for (const auto& lvl : ladder.levels()) {
    const double be = sleep.breakeven_cycles(lvl.idle, lvl.f) / 1e6;
    lad_table.row(fmt_fixed(lvl.vdd.value(), 2), fmt_fixed(lvl.f.value() / 1e9, 3),
                  fmt_fixed(lvl.f_norm, 3), fmt_fixed(lvl.active.total().value(), 3),
                  fmt_fixed(lvl.idle.value(), 3),
                  fmt_fixed(lvl.energy_per_cycle.value() * 1e9, 4), fmt_fixed(be, 2));
  }
  lad_table.print(std::cout);
  std::cout << "critical level: " << fmt_fixed(ladder.critical_level().f_norm, 3)
            << " x f_max at " << ladder.critical_level().vdd.value() << " V\n\n";

  // ---- The instance.
  const Cycles cpl = graph::critical_path_length(g);
  std::cout << "Graph " << g.name() << ": " << g.num_tasks() << " tasks, " << g.num_edges()
            << " edges, parallelism " << fmt_fixed(graph::average_parallelism(g), 2)
            << ", CPL " << fmt_fixed(static_cast<double>(cpl) * 1e3 /
                                      model.max_frequency().value(), 3)
            << " ms at f_max, deadline factor " << factor << "\n\n";

  // ---- The decision surface: energy vs processor count, +-PS.
  const auto plain = core::processor_sweep(prob, max_procs, false);
  const auto with_ps = core::processor_sweep(prob, max_procs, true);
  std::cout << "Energy vs processor count (deadline " << factor << " x CPL):\n";
  TextTable sweep({"procs", "makespan [Mcyc]", "E no-PS [mJ]", "E +PS [mJ]", "PS gain"});
  for (std::size_t i = 0; i < plain.size(); ++i) {
    const auto& a = plain[i];
    const auto& b = with_ps[i];
    if (!a.feasible) {
      sweep.row(a.num_procs, fmt_fixed(static_cast<double>(a.makespan) / 1e6, 2),
                "infeasible", "infeasible", "-");
      continue;
    }
    const double gain = 1.0 - b.energy.value() / a.energy.value();
    sweep.row(a.num_procs, fmt_fixed(static_cast<double>(a.makespan) / 1e6, 2),
              fmt_fixed(a.energy.value() * 1e3, 3), fmt_fixed(b.energy.value() * 1e3, 3),
              fmt_percent(gain));
  }
  sweep.print(std::cout);

  // ---- What the strategies actually choose.
  std::cout << "\nStrategy choices:\n";
  TextTable res({"approach", "energy [mJ]", "procs", "f/f_max", "shutdowns"});
  for (const core::StrategyKind k : core::kAllStrategies) {
    const core::StrategyResult r = core::run_strategy(k, prob);
    if (!r.feasible) {
      res.row(core::to_string(k), "infeasible", "-", "-", "-");
      continue;
    }
    const bool is_limit =
        k == core::StrategyKind::kLimitSf || k == core::StrategyKind::kLimitMf;
    res.row(core::to_string(k), fmt_fixed(r.energy().value() * 1e3, 3),
            is_limit ? std::string("N/A") : std::to_string(r.num_procs),
            fmt_fixed(ladder.level(r.level_index).f_norm, 3), r.breakdown.shutdowns);
  }
  res.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const lamps::Error& e) {
    // A rejected deadline maps to its documented exit code, as in stg_workflow.
    std::cerr << "error: " << e.what() << '\n';
    return lamps::exit_code_for(e.code());
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
