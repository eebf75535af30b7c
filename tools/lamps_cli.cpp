// lamps — command-line front end to the library.
//
// Subcommands:
//   lamps ladder                      print the DVS operating points
//   lamps gen [opts]                  generate a task graph, write .stg
//   lamps schedule [opts]             schedule an .stg file, report energy
//   lamps sweep [opts]                energy vs processor count for a file
//   lamps simulate [opts]             execute a plan under exec-time variability
//   lamps robust [opts]               Monte-Carlo robustness report per strategy
//   lamps pareto [opts]               energy/deadline trade-off curve (CSV)
//   lamps serve [opts]                JSON-lines scheduling daemon (docs/serving.md)
//   lamps top [opts]                  live dashboard over a running daemon's
//                                     admin endpoints (docs/observability.md)
//
// Every subcommand accepts --help.  Output is plain text / CSV so the tool
// composes with shell pipelines.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#include "core/lamps.hpp"
#include "core/multifreq.hpp"
#include "core/request.hpp"
#include "core/strategy.hpp"
#include "graph/analysis.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "power/sleep_model.hpp"
#include "robust/report.hpp"
#include "sched/gantt.hpp"
#include "sched/stats.hpp"
#include "sim/online.hpp"
#include "stg/app_synth.hpp"
#include "stg/format.hpp"
#include "stg/random_gen.hpp"
#include "stg/structured.hpp"
#include "util/cli.hpp"
#include "util/errors.hpp"
#include "util/faultinject.hpp"
#include "util/json_value.hpp"
#include "util/obs_cli.hpp"
#include "util/rng.hpp"
#include "util/signal.hpp"
#include "util/socket.hpp"
#include "util/table.hpp"

namespace {

using namespace lamps;

int cmd_ladder(int argc, const char* const* argv) {
  CliParser cli("Print the discrete DVS operating points of the 70 nm model");
  if (!cli.parse(argc, argv, std::cerr)) return 1;

  const power::PowerModel model;
  const power::DvsLadder ladder(model);
  const power::SleepModel sleep(model);
  TextTable t({"idx", "Vdd [V]", "f [GHz]", "f/f_max", "P_act [W]", "P_idle [W]",
               "E/cyc [nJ]", "breakeven [Mcyc]"});
  for (const auto& lvl : ladder.levels())
    t.row(lvl.index, fmt_fixed(lvl.vdd.value(), 2), fmt_fixed(lvl.f.value() / 1e9, 3),
          fmt_fixed(lvl.f_norm, 3), fmt_fixed(lvl.active.total().value(), 3),
          fmt_fixed(lvl.idle.value(), 3),
          fmt_fixed(lvl.energy_per_cycle.value() * 1e9, 4),
          fmt_fixed(sleep.breakeven_cycles(lvl.idle, lvl.f) / 1e6, 2));
  t.print(std::cout);
  std::cout << "critical level: index " << ladder.critical_level().index << " ("
            << ladder.critical_level().vdd.value() << " V)\n";
  return 0;
}

int cmd_gen(int argc, const char* const* argv) {
  std::string kind = "random";  // random | fpppp | robot | sparse
  std::string method = "layrpred";
  std::size_t tasks = 100;
  std::size_t layers = 0;
  double degree = 2.0;
  std::size_t max_weight = 50;
  std::size_t seed = 1;
  std::string out;
  CliParser cli("Generate a task graph and write it in STG format");
  cli.add_option("kind",
                 "random | fpppp | robot | sparse | gauss | fft | outtree | intree | "
                 "dnc | wavefront",
                 &kind);
  std::size_t size_param = 8;
  cli.add_option("size", "family size parameter (gauss n / fft stages / tree depth / "
                         "wavefront side)", &size_param);
  cli.add_option("method", "random method: sameprob|samepred|layrprob|layrpred", &method);
  cli.add_option("tasks", "number of tasks (random)", &tasks);
  cli.add_option("layers", "layer count, 0 = sqrt(n) (layered methods)", &layers);
  cli.add_option("degree", "average degree", &degree);
  cli.add_option("max-weight", "max task weight (min is 1)", &max_weight);
  cli.add_option("seed", "RNG seed", &seed);
  cli.add_option("out", "output file (default: stdout)", &out);
  if (!cli.parse(argc, argv, std::cerr)) return 1;

  graph::TaskGraph g = [&]() -> graph::TaskGraph {
    if (kind == "fpppp") return stg::synthesize_app_graph(stg::fpppp_spec());
    if (kind == "robot") return stg::synthesize_app_graph(stg::robot_spec());
    if (kind == "sparse") return stg::synthesize_app_graph(stg::sparse_spec());
    if (kind == "gauss") return stg::gaussian_elimination(size_param);
    if (kind == "fft") return stg::fft_butterfly(size_param);
    if (kind == "outtree") return stg::out_tree(size_param);
    if (kind == "intree") return stg::in_tree(size_param);
    if (kind == "dnc") return stg::divide_and_conquer(size_param);
    if (kind == "wavefront") return stg::wavefront(size_param, size_param);
    stg::RandomGraphSpec spec;
    spec.name = "cli-random";
    spec.num_tasks = tasks;
    spec.num_layers = layers;
    spec.avg_degree = degree;
    spec.max_weight = max_weight;
    spec.seed = seed;
    if (method == "sameprob")
      spec.method = stg::GenMethod::kSameProb;
    else if (method == "samepred")
      spec.method = stg::GenMethod::kSamePred;
    else if (method == "layrprob")
      spec.method = stg::GenMethod::kLayrProb;
    else if (method == "layrpred")
      spec.method = stg::GenMethod::kLayrPred;
    else
      throw std::invalid_argument("unknown method: " + method);
    return stg::generate_random(spec);
  }();

  std::cerr << "# " << g.name() << ": " << g.num_tasks() << " tasks, " << g.num_edges()
            << " edges, work " << g.total_work() << ", CPL "
            << graph::critical_path_length(g) << ", parallelism "
            << fmt_fixed(graph::average_parallelism(g), 2) << '\n';
  if (out.empty()) {
    stg::write_stg(g, std::cout);
  } else {
    std::ofstream os(out);
    if (!os) {
      std::cerr << "cannot write " << out << '\n';
      return 1;
    }
    stg::write_stg(g, os);
  }
  return 0;
}

/// The instance subcommands' flags, bound straight to core::RequestSpec
/// (whose builder owns the unit and deadline rules), and what they load.
struct Instance {
  std::string file;
  core::RequestSpec spec;
  const power::PowerModel model;
  const power::DvsLadder ladder{model};
  std::optional<core::ServiceRequest> request;  ///< set by load()

  void register_flags(CliParser& cli, bool deadline_factor = true) {
    cli.add_option("file", "input .stg file", &file);
    cli.add_option("unit", "cycles per STG weight unit", &spec.unit);
    if (deadline_factor)
      cli.add_option("deadline-factor", "deadline as a multiple of the CPL",
                     &spec.deadline_factor);
  }

  /// Builds the checked request and the Problem over it, before the caller
  /// prints anything: rejected input (E_CONFIG) leaves no partial report.
  [[nodiscard]] core::Problem load() {
    if (file.empty()) throw std::invalid_argument("--file is required");
    request = core::make_service_request(stg::read_stg_file(file), spec, model);
    return core::make_problem(*request, model, ladder);
  }
};

int cmd_schedule(int argc, const char* const* argv) {
  Instance inst;
  ObsOptions oo;
  bool gantt = false;
  bool csv = false;
  std::string telemetry_out;
  CliParser cli("Schedule an .stg file with every approach and report energy");
  inst.register_flags(cli);
  cli.add_flag("gantt", "print the LAMPS+PS Gantt chart", &gantt);
  cli.add_flag("csv", "emit CSV instead of a table", &csv);
  cli.add_option("telemetry-out",
                 "write per-strategy search telemetry (probed processor counts, "
                 "verdicts, energy breakdown) as JSON", &telemetry_out);
  oo.register_flags(cli);
  if (!cli.parse(argc, argv, std::cerr)) return 1;

  return run_observed(oo, "cli/schedule", [&]() -> int {
    core::Problem prob = inst.load();
    const power::DvsLadder& ladder = inst.ladder;

    std::vector<obs::SearchTelemetry> records;

    TextTable table({"approach", "energy [mJ]", "procs", "f/f_max", "shutdowns"});
    if (csv) std::cout << "approach,energy_j,procs,f_norm,shutdowns,feasible\n";
    for (const core::StrategyKind k : core::kAllStrategies) {
      obs::SearchTelemetry tel;
      tel.strategy = core::to_string(k);
      prob.telemetry = telemetry_out.empty() ? nullptr : &tel;
      const core::StrategyResult r = core::run_strategy(k, prob);
      prob.telemetry = nullptr;
      if (!telemetry_out.empty()) {
        if (tel.probes.empty()) core::fill_telemetry_summary(tel, r);
        records.push_back(std::move(tel));
      }
      if (csv) {
        std::cout << core::to_string(k) << ',' << (r.feasible ? r.energy().value() : 0.0)
                  << ',' << r.num_procs << ','
                  << (r.feasible ? ladder.level(r.level_index).f_norm : 0.0) << ','
                  << r.breakdown.shutdowns << ',' << (r.feasible ? 1 : 0) << '\n';
        continue;
      }
      if (!r.feasible) {
        table.row(core::to_string(k), "infeasible", "-", "-", "-");
        continue;
      }
      table.row(core::to_string(k), fmt_fixed(r.energy().value() * 1e3, 3),
                std::to_string(r.num_procs),
                fmt_fixed(ladder.level(r.level_index).f_norm, 3), r.breakdown.shutdowns);
    }
    const core::MultiFreqResult mf = core::lamps_multifreq(prob);
    if (csv) {
      std::cout << "LAMPS+MF," << (mf.feasible ? mf.energy().value() : 0.0) << ','
                << mf.num_procs << ",," << mf.breakdown.shutdowns << ','
                << (mf.feasible ? 1 : 0) << '\n';
    } else {
      if (mf.feasible)
        table.row("LAMPS+MF", fmt_fixed(mf.energy().value() * 1e3, 3),
                  std::to_string(mf.num_procs), "per-task", mf.breakdown.shutdowns);
      table.print(std::cout);
    }

    if (gantt) {
      const core::StrategyResult best =
          core::run_strategy(core::StrategyKind::kLampsPs, prob);
      if (best.feasible && best.schedule.has_value()) {
        sched::GanttOptions gopts;
        gopts.horizon = static_cast<Cycles>(prob.deadline.value() *
                                            ladder.level(best.level_index).f.value());
        sched::write_ascii_gantt(*best.schedule, *prob.graph, std::cout, gopts);
        sched::print_stats(sched::compute_stats(*best.schedule, *prob.graph), std::cout);
      }
    }

    if (!telemetry_out.empty()) {
      if (!obs::write_telemetry_file(telemetry_out, records)) {
        std::cerr << "cannot write telemetry " << telemetry_out << '\n';
        return 1;
      }
      std::cerr << "wrote telemetry " << telemetry_out << " (" << records.size()
                << " strategies)\n";
    }
    return 0;
  });
}

int cmd_pareto(int argc, const char* const* argv) {
  Instance inst;
  double min_factor = 1.05;
  double max_factor = 8.0;
  std::size_t steps = 12;
  CliParser cli(
      "Energy/deadline Pareto curve: sweep the deadline and report each "
      "approach's energy (CSV)");
  inst.register_flags(cli, /*deadline_factor=*/false);
  cli.add_option("min-factor", "smallest deadline factor (x CPL)", &min_factor);
  cli.add_option("max-factor", "largest deadline factor (x CPL)", &max_factor);
  cli.add_option("steps", "number of sweep points (log-spaced)", &steps);
  ObsOptions oo;
  oo.register_flags(cli);
  if (!cli.parse(argc, argv, std::cerr)) return 1;
  if (steps < 2 || min_factor <= 0.0 || max_factor <= min_factor) {
    std::cerr << "invalid sweep range\n";
    return 1;
  }

  return run_observed(oo, "cli/pareto", [&]() -> int {
    inst.spec.deadline_factor = min_factor;
    core::Problem prob = inst.load();
    // Every point of the sweep is checked before the first row is printed.
    std::vector<std::pair<double, Seconds>> points;
    const double ratio = max_factor / min_factor;
    for (std::size_t i = 0; i < steps; ++i) {
      const double factor =
          min_factor * std::pow(ratio, static_cast<double>(i) /
                                           static_cast<double>(steps - 1));
      points.emplace_back(factor, core::factor_deadline(*prob.graph, factor, inst.model));
    }

    std::cout << "deadline_factor,deadline_ms";
    for (const core::StrategyKind k : core::kAllStrategies)
      std::cout << ',' << core::to_string(k) << "_mj";
    std::cout << '\n';
    for (const auto& [factor, deadline] : points) {
      prob.deadline = deadline;
      std::cout << fmt_fixed(factor, 3) << ','
                << fmt_fixed(prob.deadline.value() * 1e3, 3);
      for (const core::StrategyKind k : core::kAllStrategies) {
        const core::StrategyResult r = core::run_strategy(k, prob);
        std::cout << ',';
        if (r.feasible) std::cout << fmt_fixed(r.energy().value() * 1e3, 4);
      }
      std::cout << '\n';
    }
    return 0;
  });
}

int cmd_simulate(int argc, const char* const* argv) {
  Instance inst;
  double bcet = 0.7;
  std::size_t runs = 5;
  std::size_t seed = 1;
  CliParser cli(
      "Plan with LAMPS+PS, then execute under BCET/WCET variability with and "
      "without online slack reclamation");
  inst.register_flags(cli);
  cli.add_option("bcet", "BCET/WCET ratio in (0, 1]", &bcet);
  cli.add_option("runs", "number of variability draws", &runs);
  cli.add_option("seed", "base RNG seed", &seed);
  ObsOptions oo;
  oo.register_flags(cli);
  if (!cli.parse(argc, argv, std::cerr)) return 1;

  return run_observed(oo, "cli/simulate", [&]() -> int {
    const core::Problem prob = inst.load();
    const power::SleepModel sleep(inst.model);
    const core::StrategyResult plan = core::lamps_schedule_ps(prob);
    if (!plan.feasible || !plan.schedule.has_value()) {
      std::cerr << "instance infeasible before the deadline\n";
      return 1;
    }
    const auto& lvl = inst.ladder.level(plan.level_index);
    std::cout << "plan: " << plan.num_procs << " procs at " << fmt_fixed(lvl.f_norm, 3)
              << " x f_max, predicted " << fmt_fixed(plan.energy().value() * 1e3, 3)
              << " mJ\n";
    std::cout << "run,seed,static_mj,reclaim_mj,reclaim_vs_static\n";
    for (std::size_t r = 0; r < runs; ++r) {
      sim::OnlineOptions opts;
      opts.bcet_ratio = bcet;
      opts.seed = child_seed(seed, r);
      opts.reclaim = false;
      const auto st = sim::simulate_online(*plan.schedule, *prob.graph, inst.ladder, lvl,
                                           prob.deadline, sleep, opts);
      opts.reclaim = true;
      const auto rc = sim::simulate_online(*plan.schedule, *prob.graph, inst.ladder, lvl,
                                           prob.deadline, sleep, opts);
      std::cout << r << ',' << opts.seed << ','
                << fmt_fixed(st.breakdown.total().value() * 1e3, 3) << ','
                << fmt_fixed(rc.breakdown.total().value() * 1e3, 3) << ','
                << fmt_percent(rc.breakdown.total().value() /
                               st.breakdown.total().value())
                << '\n';
    }
    return 0;
  });
}

int cmd_robust(int argc, const char* const* argv) {
  Instance inst;
  robust::McConfig cfg;
  std::size_t trials = 1000;
  std::size_t seed = 1;
  std::size_t threads = 0;
  std::string jitter_kind = "uniform";
  double wake_latency_us = 0.0;
  std::string csv_path;
  CliParser cli(
      "Monte-Carlo robustness: replay each strategy's schedule under "
      "execution-time jitter, leakage spread and wake faults; report miss "
      "rate and the energy distribution");
  inst.register_flags(cli);
  cli.add_option("trials", "Monte-Carlo trials per strategy", &trials);
  cli.add_option("seed", "master RNG seed (trial t uses child_seed(seed, t))", &seed);
  cli.add_option("threads", "worker threads, 0 = hardware concurrency", &threads);
  cli.add_option("jitter", "execution-time jitter magnitude (relative)",
                 &cfg.perturb.jitter);
  cli.add_option("jitter-kind", "uniform | normal | heavytail", &jitter_kind);
  cli.add_option("leak-spread", "per-processor leakage sigma (relative)",
                 &cfg.perturb.leak_spread);
  cli.add_option("wake-fault-prob", "probability a wakeup misbehaves",
                 &cfg.perturb.wake_fault_prob);
  cli.add_option("wake-fault-scale", "energy/latency multiple of a faulted wakeup",
                 &cfg.perturb.wake_fault_scale);
  cli.add_option("wake-latency", "nominal wake latency [us]", &wake_latency_us);
  cli.add_option("stall-prob", "probability a task stalls transiently",
                 &cfg.perturb.stall_prob);
  cli.add_option("stall-scale", "extra execution of a stalled task (x WCET)",
                 &cfg.perturb.stall_scale);
  cli.add_option("csv", "also write the report to this CSV file", &csv_path);
  ObsOptions oo;
  oo.register_flags(cli);
  if (!cli.parse(argc, argv, std::cerr)) return 1;
  if (trials == 0) {
    std::cerr << "--trials must be >= 1\n";
    return 1;
  }
  cfg.trials = trials;
  cfg.seed = seed;
  cfg.threads = threads;
  cfg.perturb.jitter_kind = robust::jitter_kind_from_name(jitter_kind);
  cfg.perturb.wake_latency = Seconds{wake_latency_us * 1e-6};
  cfg.perturb.validate();

  return run_observed(oo, "cli/robust", [&]() -> int {
    const core::Problem prob = inst.load();

    const auto rows = robust::evaluate_robustness(prob, core::kAllStrategies, cfg);
    robust::print_robustness_report(std::cout, rows, cfg);
    if (!csv_path.empty()) {
      robust::write_robustness_csv(csv_path, rows);
      std::cout << "wrote " << csv_path << '\n';
    }
    return 0;
  });
}

int cmd_sweep(int argc, const char* const* argv) {
  Instance inst;
  ObsOptions oo;
  std::size_t max_procs = 16;
  CliParser cli("Energy vs processor count (Fig 6 style) for an .stg file");
  inst.register_flags(cli);
  cli.add_option("max-procs", "largest processor count", &max_procs);
  oo.register_flags(cli);
  if (!cli.parse(argc, argv, std::cerr)) return 1;

  return run_observed(oo, "cli/sweep", [&]() -> int {
    const core::Problem prob = inst.load();

    std::cout << "procs,makespan_cycles,feasible,energy_nops_j,energy_ps_j\n";
    const auto plain = core::processor_sweep(prob, max_procs, false);
    const auto ps = core::processor_sweep(prob, max_procs, true);
    for (std::size_t i = 0; i < plain.size(); ++i) {
      std::cout << plain[i].num_procs << ',' << plain[i].makespan << ','
                << (plain[i].feasible ? 1 : 0) << ',';
      if (plain[i].feasible) std::cout << plain[i].energy.value();
      std::cout << ',';
      if (ps[i].feasible) std::cout << ps[i].energy.value();
      std::cout << '\n';
    }
    return 0;
  });
}

int cmd_serve(int argc, const char* const* argv) {
  // Same-unit flags bind straight to the config; locals remain only where
  // the flag's unit differs (*-ms flags feed *_s fields) or the field's
  // type is narrower than the parser's.
  net::ServerConfig cfg;
  std::size_t port = cfg.port;
  double slow_ms = cfg.slow_request_s * 1e3;
  double read_timeout_ms = cfg.read_timeout_s * 1e3;
  double write_timeout_ms = cfg.write_timeout_s * 1e3;
  double max_runtime_s = 0.0;
  std::string chaos_spec;
  ObsOptions oo;
  CliParser cli(
      "Run the scheduling daemon: JSON-lines requests over TCP on a single "
      "epoll event loop, answered from a shared worker pool with a "
      "single-flight result cache; SIGTERM/SIGINT drain gracefully "
      "(docs/serving.md)");
  cli.add_option("port", "TCP port, 0 = ephemeral (printed on stdout)", &port);
  cli.add_option("threads", "compute workers, 0 = hardware concurrency", &cfg.threads);
  cli.add_option("max-pending",
                 "admission bound before \"overloaded\" responses, 0 = 4x threads",
                 &cfg.max_pending);
  cli.add_option("cache-capacity", "completed-result LRU entries", &cfg.cache_capacity);
  cli.add_option("bank-capacity",
                 "schedule-bank stores for incremental rescheduling across "
                 "deadlines of one graph, 0 = disable",
                 &cfg.bank_capacity);
  cli.add_option("flight-capacity",
                 "flight-recorder ring slots (per-request phase timelines, "
                 "served by the flightz admin query)", &cfg.flight_capacity);
  cli.add_option("slow-ms",
                 "promote requests slower than this to warn-level span dumps, "
                 "0 = disable", &slow_ms);
  cli.add_option("metrics-interval",
                 "append a metrics snapshot to --metrics-jsonl every this many "
                 "seconds, 0 = off", &cfg.metrics_interval_s);
  cli.add_option("metrics-jsonl", "metrics time-series file (JSON lines, appended)",
                 &cfg.metrics_jsonl);
  cli.add_option("max-runtime-s",
                 "self-drain after this many seconds, 0 = run until signalled "
                 "(CI smoke harnesses)", &max_runtime_s);
  cli.add_option("read-timeout-ms",
                 "close connections whose request line stalls mid-line this "
                 "long, 0 = off", &read_timeout_ms);
  cli.add_option("idle-timeout-s",
                 "reap connections idle (no complete line) this long, 0 = off",
                 &cfg.idle_timeout_s);
  cli.add_option("max-request-bytes",
                 "per-line byte cap; oversize lines get a typed \"too_large\" "
                 "error, 0 = unbounded", &cfg.max_request_bytes);
  cli.add_option("max-write-queue",
                 "per-connection admitted-but-unwritten response bound before "
                 "disconnect, 0 = unbounded", &cfg.max_write_queue);
  cli.add_option("write-timeout-ms",
                 "disconnect peers that accept no response bytes for this "
                 "long, 0 = off", &write_timeout_ms);
  cli.add_option("default-deadline-ms",
                 "wall-clock budget for requests without \"deadline_ms\", "
                 "0 = none", &cfg.default_deadline_ms);
  cli.add_option("listen-backlog",
                 "listen(2) queue depth absorbing event-loop accept bursts",
                 &cfg.listen_backlog);
  cli.add_option("sndbuf-bytes",
                 "SO_SNDBUF for accepted sockets, 0 = kernel default",
                 &cfg.sndbuf_bytes);
  cli.add_option("chaos-spec",
                 "deterministic fault injection, e.g. "
                 "\"seed=42,short_read=0.3,write_reset=0.05\" (falls back to "
                 "the LAMPS_CHAOS env var; docs/serving.md)", &chaos_spec);
  oo.register_flags(cli);
  if (!cli.parse(argc, argv, std::cerr)) return 1;
  if (port > 65535) {
    std::cerr << "--port must be <= 65535\n";
    return 1;
  }
  // Values past INT_MAX already fail to parse into the int fields.
  if (cfg.listen_backlog < 0 || cfg.sndbuf_bytes < 0) {
    std::cerr << "--listen-backlog and --sndbuf-bytes must be in [0, "
              << std::numeric_limits<int>::max() << "]\n";
    return 1;
  }
  cfg.port = static_cast<std::uint16_t>(port);
  cfg.slow_request_s = slow_ms / 1e3;
  cfg.read_timeout_s = read_timeout_ms / 1e3;
  cfg.write_timeout_s = write_timeout_ms / 1e3;

  return run_observed(oo, "cli/serve", [&]() -> int {
    const int signal_fd = install_drain_signal_handlers();
    if (chaos_spec.empty()) {
      if (const char* env = std::getenv("LAMPS_CHAOS"); env != nullptr)
        chaos_spec = env;
    }
    if (!chaos_spec.empty())
      cfg.chaos = std::make_shared<FaultInjector>(parse_fault_spec(chaos_spec));
    net::Server server(cfg);
    server.start();
    // Scripted callers parse this line for the ephemeral port.
    std::cout << "lamps serve: listening on 127.0.0.1:" << server.port() << std::endl;

    const auto started = std::chrono::steady_clock::now();
    while (!drain_signal_pending()) {
      (void)poll_readable(signal_fd, 250);
      if (max_runtime_s > 0.0 &&
          std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
                  .count() >= max_runtime_s) {
        request_drain_signal();
      }
    }
    std::cout << "lamps serve: draining (in-flight requests finish, new "
                 "connections are refused)"
              << std::endl;
    server.request_drain();
    server.wait();

    const auto& reg = obs::Registry::global();
    std::cout << "lamps serve: done — " << reg.counter_value("serve.requests_total")
              << " requests (" << reg.counter_value("serve.requests_ok") << " ok, "
              << reg.counter_value("serve.cache_hits") << " cache hits, "
              << reg.counter_value("serve.singleflight_hits") << " single-flight joins, "
              << reg.counter_value("serve.requests_overloaded") << " shed";
    if (server.chaos() != nullptr)  // the chaos soak's proof that faults fired
      std::cout << ", " << server.chaos()->injected_total() << " faults injected";
    std::cout << ')' << std::endl;
    return 0;
  });
}

// ---------------------------------------------------------------------------
// lamps top — terminal dashboard over a running daemon's admin lane.

/// One scraped histogram: parallel per-bucket upper bounds and counts
/// (counts are per-bucket, not cumulative, matching the registry export).
struct HistSnap {
  std::vector<double> le;  ///< +inf for the overflow bucket
  std::vector<std::uint64_t> counts;
  std::uint64_t total{0};
};

/// Everything one top sample needs, pulled from statsz in one scrape.
struct TopSample {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, HistSnap> hists;
  double uptime_s{0.0};
  bool draining{false};
  std::chrono::steady_clock::time_point taken;
  double scrape_rtt_ms{0.0};
};

JsonValue admin_query(const Socket& sock, LineReader& reader,
                           const std::string& line) {
  if (!sock.send_all(line + "\n"))
    throw InternalError(ErrorCode::kIo, "server closed the connection mid-query");
  std::string resp;
  if (reader.read_line(resp) != LineReader::Status::kLine)
    throw InternalError(ErrorCode::kIo, "no response to admin query '" + line + "'");
  JsonValue doc = JsonValue::parse(resp);
  const JsonValue* ok = doc.get("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool())
    throw InternalError(ErrorCode::kIo, "admin query '" + line + "' failed: " + resp);
  return doc;
}

TopSample scrape_statsz(const Socket& sock, LineReader& reader) {
  TopSample s;
  const auto t0 = std::chrono::steady_clock::now();
  const JsonValue statsz = admin_query(sock, reader, "statsz");
  s.scrape_rtt_ms =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count() * 1e3;
  s.taken = t0;
  s.uptime_s = statsz.get_number("uptime_s", 0.0);
  if (const JsonValue* d = statsz.get("draining"); d != nullptr && d->is_bool())
    s.draining = d->as_bool();

  const JsonValue* metrics = statsz.get("metrics");
  if (metrics == nullptr) return s;
  if (const JsonValue* counters = metrics->get("counters");
      counters != nullptr && counters->is_object()) {
    // The object accessor walks pairs; reparse via known serve.* names is
    // fragile, so lift everything through get() on a fixed name list plus
    // the full object when available.
    for (const char* name :
         {"serve.requests_total", "serve.requests_ok", "serve.requests_bad_request",
          "serve.requests_overloaded", "serve.requests_internal_error",
          "serve.requests_computed", "serve.cache_hits", "serve.cache_misses",
          "serve.singleflight_hits", "serve.slow_requests", "serve.admin_requests",
          "serve.connections_total", "flight.dropped_records"}) {
      if (const JsonValue* v = counters->get(name); v != nullptr && v->is_number())
        s.counters[name] = static_cast<std::uint64_t>(v->as_number());
    }
  }
  if (const JsonValue* hists = metrics->get("histograms");
      hists != nullptr && hists->is_object()) {
    for (const char* name : {"serve.request_seconds", "serve.queue_seconds",
                             "serve.compute_seconds", "serve.write_seconds"}) {
      const JsonValue* h = hists->get(name);
      if (h == nullptr) continue;
      HistSnap snap;
      snap.total = static_cast<std::uint64_t>(h->get_number("count", 0.0));
      if (const JsonValue* buckets = h->get("buckets");
          buckets != nullptr && buckets->is_array()) {
        for (const JsonValue& b : buckets->items()) {
          const JsonValue* le = b.get("le");
          snap.le.push_back(le != nullptr && le->is_number()
                                ? le->as_number()
                                : std::numeric_limits<double>::infinity());
          snap.counts.push_back(static_cast<std::uint64_t>(b.get_number("count", 0.0)));
        }
      }
      s.hists[name] = std::move(snap);
    }
  }
  return s;
}

std::uint64_t counter_delta(const TopSample& cur, const TopSample& prev,
                            const std::string& name) {
  const auto c = cur.counters.find(name);
  if (c == cur.counters.end()) return 0;
  const auto p = prev.counters.find(name);
  const std::uint64_t before = p == prev.counters.end() ? 0 : p->second;
  return c->second > before ? c->second - before : 0;
}

/// Upper-bound estimate of the q-quantile of the observations that landed
/// between two scrapes of one histogram (bucket-wise count deltas).
double delta_quantile(const HistSnap& cur, const HistSnap& prev, double q) {
  if (cur.le.empty()) return 0.0;
  std::uint64_t n = 0;
  std::vector<std::uint64_t> delta(cur.le.size(), 0);
  for (std::size_t i = 0; i < cur.le.size(); ++i) {
    const std::uint64_t before = i < prev.counts.size() ? prev.counts[i] : 0;
    if (cur.counts[i] > before) delta[i] = cur.counts[i] - before;
    n += delta[i];
  }
  if (n == 0) return 0.0;
  const auto target =
      static_cast<std::uint64_t>(std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(n)));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < delta.size(); ++i) {
    cum += delta[i];
    if (cum >= target) return cur.le[i];
  }
  return cur.le.back();
}

std::string fmt_ms(double seconds) {
  std::ostringstream ss;
  if (std::isinf(seconds)) return ">5s";
  ss << std::fixed << std::setprecision(seconds * 1e3 < 10 ? 2 : 1) << seconds * 1e3;
  return ss.str();
}

std::string phase_quantiles(const TopSample& cur, const TopSample& prev,
                            const std::string& hist) {
  const auto c = cur.hists.find(hist);
  if (c == cur.hists.end()) return "-";
  static const HistSnap kEmpty;
  const auto p = prev.hists.find(hist);
  const HistSnap& before = p == prev.hists.end() ? kEmpty : p->second;
  return fmt_ms(delta_quantile(c->second, before, 0.50)) + "/" +
         fmt_ms(delta_quantile(c->second, before, 0.95)) + "/" +
         fmt_ms(delta_quantile(c->second, before, 0.99));
}

void print_top_sample(std::ostream& os, const std::string& host, std::size_t port,
                      const TopSample& cur, const TopSample& prev,
                      const JsonValue& healthz, const JsonValue& cachez,
                      const JsonValue& flightz) {
  const double dt =
      std::max(std::chrono::duration<double>(cur.taken - prev.taken).count(), 1e-9);
  const auto rate = [&](const std::string& name) {
    return static_cast<double>(counter_delta(cur, prev, name)) / dt;
  };

  os << "lamps top — " << host << ':' << port << "   uptime " << std::fixed
     << std::setprecision(1) << cur.uptime_s << "s   "
     << (cur.draining ? "DRAINING" : "accepting") << "   scrape "
     << std::setprecision(2) << cur.scrape_rtt_ms << " ms\n\n";

  os << std::setprecision(1) << "  req/s " << rate("serve.requests_total") << "   ok/s "
     << rate("serve.requests_ok") << "   computed/s " << rate("serve.requests_computed")
     << "   shed/s " << rate("serve.requests_overloaded") << "   errors/s "
     << rate("serve.requests_bad_request") + rate("serve.requests_internal_error")
     << '\n';

  const std::uint64_t hits = counter_delta(cur, prev, "serve.cache_hits") +
                             counter_delta(cur, prev, "serve.singleflight_hits");
  const std::uint64_t lookups = hits + counter_delta(cur, prev, "serve.cache_misses");
  os << "  cache hit " << (lookups > 0 ? 100.0 * static_cast<double>(hits) /
                                             static_cast<double>(lookups)
                                       : 0.0)
     << "% of " << lookups << " lookups   slow "
     << counter_delta(cur, prev, "serve.slow_requests") << "   flight drops "
     << counter_delta(cur, prev, "flight.dropped_records") << '\n';

  os << "  p50/p95/p99 ms   total " << phase_quantiles(cur, prev, "serve.request_seconds")
     << "   queue " << phase_quantiles(cur, prev, "serve.queue_seconds") << "   compute "
     << phase_quantiles(cur, prev, "serve.compute_seconds") << "   write "
     << phase_quantiles(cur, prev, "serve.write_seconds") << '\n';

  const double pool_size = healthz.get_number("pool_size", 0.0);
  const double pool_active = healthz.get_number("pool_active", 0.0);
  os << "  pool " << pool_active << '/' << pool_size << " active, "
     << healthz.get_number("pool_queued", 0.0) << " queued   pending "
     << healthz.get_number("pending", 0.0) << '/' << healthz.get_number("max_pending", 0.0)
     << "   connections " << healthz.get_number("connections", 0.0) << '\n';

  if (const JsonValue* rc = cachez.get("result_cache"); rc != nullptr) {
    os << "  result cache " << rc->get_number("size", 0.0) << '/'
       << rc->get_number("capacity", 0.0);
  }
  if (const JsonValue* bank = cachez.get("schedule_bank"); bank != nullptr) {
    os << "   schedule bank " << bank->get_number("size", 0.0) << '/'
       << bank->get_number("capacity", 0.0) << " (lease hits "
       << bank->get_number("lease_hits", 0.0) << ")";
  }
  os << "\n\n";

  if (const JsonValue* records = flightz.get("records");
      records != nullptr && records->is_array() && !records->items().empty()) {
    os << "  recent flights (newest first):\n  " << std::left << std::setw(8) << "req"
       << std::setw(14) << "outcome" << std::right << std::setw(10) << "total_ms"
       << std::setw(10) << "queue_ms" << std::setw(12) << "compute_ms" << std::setw(9)
       << "bytes" << '\n';
    for (const JsonValue& r : records->items()) {
      os << "  " << std::left << std::setw(8)
         << static_cast<std::uint64_t>(r.get_number("req", 0.0)) << std::setw(14)
         << r.get_string("outcome", "?") << std::right << std::fixed
         << std::setprecision(2) << std::setw(10) << r.get_number("total_ms", 0.0)
         << std::setw(10) << r.get_number("queue_ms", 0.0) << std::setw(12)
         << r.get_number("compute_ms", 0.0) << std::setw(9)
         << static_cast<std::uint64_t>(r.get_number("bytes", 0.0)) << '\n';
    }
  }
  os.flush();
}

int cmd_top(int argc, const char* const* argv) {
  std::size_t port = 0;
  std::string host = "127.0.0.1";
  double interval = 2.0;
  std::size_t samples = 0;
  std::size_t flights = 5;
  bool once = false;
  CliParser cli(
      "Live dashboard over a running `lamps serve`: polls the statsz / "
      "healthz / cachez / flightz admin queries and renders req/s, phase "
      "latency quantiles, cache hit rates and pool saturation "
      "(docs/observability.md)");
  cli.add_option("port", "daemon TCP port (required)", &port);
  cli.add_option("host", "daemon host", &host);
  cli.add_option("interval", "seconds between scrapes", &interval);
  cli.add_option("samples", "stop after this many dashboard frames, 0 = until ^C",
                 &samples);
  cli.add_option("flights", "recent flight-recorder rows to show", &flights);
  cli.add_flag("once",
               "print a single plain-text scrape (no rates; includes "
               "scrape_rtt_ms) and exit", &once);
  if (!cli.parse(argc, argv, std::cerr)) return 1;
  if (port == 0 || port > 65535) {
    std::cerr << "--port is required (1..65535)\n";
    return 1;
  }
  interval = std::max(interval, 0.1);

  const Socket sock = connect_tcp(static_cast<std::uint16_t>(port), host);
  LineReader reader(sock.fd());

  TopSample prev = scrape_statsz(sock, reader);
  if (once) {
    const JsonValue healthz = admin_query(sock, reader, "healthz");
    const JsonValue cachez = admin_query(sock, reader, "cachez");
    const JsonValue flightz = admin_query(
        sock, reader, "{\"cmd\":\"flightz\",\"limit\":" + std::to_string(flights) + "}");
    // Rates need two scrapes; a one-shot prints absolutes against an
    // empty baseline plus the machine-greppable scrape RTT line.
    print_top_sample(std::cout, host, port, prev, TopSample{}, healthz, cachez, flightz);
    std::cout << "scrape_rtt_ms " << std::fixed << std::setprecision(3)
              << prev.scrape_rtt_ms << '\n';
    return 0;
  }

  for (std::size_t frame = 0; samples == 0 || frame < samples; ++frame) {
    std::this_thread::sleep_for(std::chrono::duration<double>(interval));
    TopSample cur = scrape_statsz(sock, reader);
    const JsonValue healthz = admin_query(sock, reader, "healthz");
    const JsonValue cachez = admin_query(sock, reader, "cachez");
    const JsonValue flightz = admin_query(
        sock, reader, "{\"cmd\":\"flightz\",\"limit\":" + std::to_string(flights) + "}");
    std::cout << "\033[2J\033[H";  // clear + home: a live refreshing frame
    print_top_sample(std::cout, host, port, cur, prev, healthz, cachez, flightz);
    const bool draining = cur.draining;
    prev = std::move(cur);
    if (draining) break;
  }
  return 0;
}

void print_root_usage(std::ostream& os) {
  os << "lamps — leakage-aware multiprocessor scheduling toolkit\n\n"
        "Usage: lamps <command> [options]\n\n"
        "Commands:\n"
        "  ladder     print the DVS operating points\n"
        "  gen        generate a task graph, write .stg\n"
        "  schedule   schedule an .stg file, report energy per approach\n"
        "  sweep      energy vs processor count for an .stg file\n"
        "  simulate   execute a LAMPS+PS plan under execution-time variability\n"
        "  robust     Monte-Carlo robustness report (jitter/leakage/wake faults)\n"
        "  pareto     energy/deadline trade-off curve for an .stg file\n"
        "  serve      JSON-lines scheduling daemon over TCP (docs/serving.md)\n"
        "  top        live dashboard over a running daemon's admin endpoints\n\n"
        "Run 'lamps <command> --help' for the command's options.\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_root_usage(std::cerr);
    return 1;
  }
  const std::string_view cmd = argv[1];
  try {
    if (cmd == "ladder") return cmd_ladder(argc - 1, argv + 1);
    if (cmd == "gen") return cmd_gen(argc - 1, argv + 1);
    if (cmd == "schedule") return cmd_schedule(argc - 1, argv + 1);
    if (cmd == "sweep") return cmd_sweep(argc - 1, argv + 1);
    if (cmd == "simulate") return cmd_simulate(argc - 1, argv + 1);
    if (cmd == "robust") return cmd_robust(argc - 1, argv + 1);
    if (cmd == "pareto") return cmd_pareto(argc - 1, argv + 1);
    if (cmd == "serve") return cmd_serve(argc - 1, argv + 1);
    if (cmd == "top") return cmd_top(argc - 1, argv + 1);
    if (cmd == "--help" || cmd == "-h") {
      print_root_usage(std::cout);
      return 0;
    }
  } catch (const lamps::Error& e) {
    // Typed taxonomy errors map to documented exit codes (docs/robustness.md).
    std::cerr << "error: " << e.what() << '\n';
    return lamps::exit_code_for(e.code());
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  std::cerr << "unknown command: " << cmd << "\n\n";
  print_root_usage(std::cerr);
  return 1;
}
