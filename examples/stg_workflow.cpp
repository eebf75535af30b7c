// File-based workflow: read a Standard Task Graph (.stg) file, scale it to
// cycles, schedule it with every approach, and emit a full report —
// schedule statistics, Gantt chart, per-state power-trace summary, and
// optional DOT/CSV exports.  This is the "bring your own task graph" entry
// point a downstream user starts from.
//
// Usage: ./stg_workflow --file data/pipeline.stg [--unit 3100000]
//        [--deadline-factor 2] [--dot out.dot] [--trace trace.csv]
// A unit or deadline core::make_service_request rejects exits 2 before output.
#include <fstream>
#include <iostream>

#include "core/multifreq.hpp"
#include "core/request.hpp"
#include "core/strategy.hpp"
#include "graph/analysis.hpp"
#include "graph/io.hpp"
#include "sched/gantt.hpp"
#include "sched/stats.hpp"
#include "sim/power_trace.hpp"
#include "stg/format.hpp"
#include "util/cli.hpp"
#include "util/errors.hpp"
#include "util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace lamps;

  std::string file = "data/pipeline.stg";
  core::RequestSpec spec;  // coarse grain: 1 unit = 1 ms at f_max
  std::string dot_path;
  std::string trace_path;
  CliParser cli("Schedule a .stg task-graph file for minimum energy");
  cli.add_option("file", "input .stg file", &file);
  cli.add_option("unit", "cycles per STG weight unit", &spec.unit);
  cli.add_option("deadline-factor", "deadline as a multiple of the CPL", &spec.deadline_factor);
  cli.add_option("dot", "write the task graph as Graphviz DOT to this path", &dot_path);
  cli.add_option("trace", "write the LAMPS+PS power trace as CSV to this path",
                 &trace_path);
  if (!cli.parse(argc, argv, std::cerr)) return 1;

  const power::PowerModel model;
  const power::DvsLadder ladder(model);
  const core::ServiceRequest req =
      core::make_service_request(stg::read_stg_file(file), spec, model);
  const graph::TaskGraph& g = req.graph;
  const Cycles cpl = graph::critical_path_length(g);

  std::cout << "Loaded " << file << ": " << g.num_tasks() << " tasks, " << g.num_edges()
            << " edges, total work " << g.total_work() << " cycles, CPL " << cpl
            << " cycles, parallelism " << fmt_fixed(graph::average_parallelism(g), 2)
            << "\n\n";

  if (!dot_path.empty()) {
    std::ofstream dot(dot_path);
    if (!dot) {
      std::cerr << "cannot write " << dot_path << '\n';
      return 1;
    }
    graph::write_dot(g, dot);
    std::cout << "DOT written to " << dot_path << "\n\n";
  }

  const core::Problem prob = core::make_problem(req, model, ladder);
  std::cout << "Deadline: " << fmt_fixed(prob.deadline.value() * 1e3, 3) << " ms ("
            << spec.deadline_factor << " x CPL at f_max)\n\n";

  TextTable table({"approach", "energy [mJ]", "procs", "f/f_max", "shutdowns"});
  for (const core::StrategyKind k : core::kAllStrategies) {
    const core::StrategyResult r = core::run_strategy(k, prob);
    if (!r.feasible) {
      table.row(core::to_string(k), "infeasible", "-", "-", "-");
      continue;
    }
    const bool is_limit =
        k == core::StrategyKind::kLimitSf || k == core::StrategyKind::kLimitMf;
    table.row(core::to_string(k), fmt_fixed(r.energy().value() * 1e3, 3),
              is_limit ? std::string("N/A") : std::to_string(r.num_procs),
              fmt_fixed(ladder.level(r.level_index).f_norm, 3), r.breakdown.shutdowns);
  }
  // The per-task DVS extension rides along for comparison.
  const core::MultiFreqResult mf = core::lamps_multifreq(prob);
  if (mf.feasible)
    table.row("LAMPS+MF", fmt_fixed(mf.energy().value() * 1e3, 3),
              std::to_string(mf.num_procs), "per-task", mf.breakdown.shutdowns);
  table.print(std::cout);

  const core::StrategyResult best = core::run_strategy(core::StrategyKind::kLampsPs, prob);
  if (!best.feasible || !best.schedule.has_value()) {
    std::cout << "\nInstance infeasible before the deadline at maximum frequency.\n";
    return 0;
  }
  const auto& lvl = ladder.level(best.level_index);

  std::cout << "\nLAMPS+PS schedule (" << best.num_procs << " processors at "
            << fmt_fixed(lvl.f_norm, 3) << " x f_max):\n";
  sched::GanttOptions gopts;
  gopts.width = 64;
  gopts.horizon = static_cast<Cycles>(prob.deadline.value() * lvl.f.value());
  sched::write_ascii_gantt(*best.schedule, g, std::cout, gopts);

  std::cout << '\n';
  sched::print_stats(sched::compute_stats(*best.schedule, g), std::cout);

  // Power trace of the winning configuration.
  const power::SleepModel sleep(model);
  const sim::PowerTrace trace =
      sim::simulate(*best.schedule, g, lvl, prob.deadline, sleep,
                    energy::PsOptions{true, prob.ps_allow_leading_gaps});
  std::cout << "\nPower-trace summary: exec "
            << fmt_fixed(trace.energy_in_state(sim::ProcState::kExecuting).value() * 1e3, 3)
            << " mJ, idle "
            << fmt_fixed(trace.energy_in_state(sim::ProcState::kPoweredIdle).value() * 1e3,
                         3)
            << " mJ, sleep "
            << fmt_fixed(trace.energy_in_state(sim::ProcState::kSleeping).value() * 1e3, 3)
            << " mJ, " << trace.wakeups << " wakeups ("
            << fmt_fixed(trace.wakeup_energy.value() * 1e3, 3) << " mJ)\n";
  std::cout << "Trace total " << fmt_fixed(trace.total_energy().value() * 1e3, 3)
            << " mJ vs analytic " << fmt_fixed(best.energy().value() * 1e3, 3) << " mJ\n";

  if (!trace_path.empty()) {
    std::ofstream tf(trace_path);
    if (!tf) {
      std::cerr << "cannot write " << trace_path << '\n';
      return 1;
    }
    sim::write_trace_csv(trace, tf);
    std::cout << "Trace written to " << trace_path << '\n';
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const lamps::Error& e) {
    // Rejected input (a malformed file, a unit or deadline out of range)
    // maps to its documented exit code, as in the `lamps` CLI.
    std::cerr << "error: " << e.what() << '\n';
    return lamps::exit_code_for(e.code());
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
