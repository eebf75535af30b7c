// Scheduler-runtime micro-benchmarks (google-benchmark).
//
// Paper section 4.2: "for all benchmarks finding the optimal configuration
// never took more than 20 seconds on a 3 GHz Pentium 4."  These benches
// time (a) a single LS-EDF invocation at several graph sizes and (b) the
// full LAMPS / LAMPS+PS configuration searches on the application graphs,
// verifying the bound holds with generous margin on modern hardware.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <iterator>
#include <vector>

#include "core/incremental.hpp"
#include "core/request.hpp"
#include "core/strategy.hpp"
#include "energy/evaluator.hpp"
#include "energy/gap_profile.hpp"
#include "graph/analysis.hpp"
#include "graph/transform.hpp"
#include "obs/metrics.hpp"
#include "sched/list_scheduler.hpp"
#include "stg/random_gen.hpp"
#include "stg/suite.hpp"

namespace {

using namespace lamps;

// Search-side observability counters reported per iteration next to the
// timings: they flow into --benchmark_out JSON untouched, so
// results/BENCH_scheduler.json records how the ScheduleCache and the
// Graham-bound short-circuits behaved during the timed runs.
constexpr const char* kSearchCounters[] = {
    "schedule_cache.schedule_hit",     "schedule_cache.schedule_miss",
    "schedule_cache.profile_hit",      "schedule_cache.profile_miss",
    "schedule_cache.profile_from_schedule",
    "schedule_cache.store_schedule_hit", "schedule_cache.store_profile_hit",
    "search.graham_shortcircuit_upper", "search.graham_shortcircuit_lower",
    "search.probe_gap_only",           "search.probe_materialized",
    "search.bound_pruned",
};

std::vector<std::uint64_t> snapshot_search_counters() {
  std::vector<std::uint64_t> v;
  v.reserve(std::size(kSearchCounters));
  for (const char* name : kSearchCounters)
    v.push_back(obs::Registry::global().counter_value(name));
  return v;
}

/// Reports the counter deltas between two snapshots, per run.
void report_counter_deltas(benchmark::State& state, const std::vector<std::uint64_t>& before,
                           const std::vector<std::uint64_t>& after, std::size_t runs) {
  if (runs == 0) return;
  for (std::size_t i = 0; i < std::size(kSearchCounters); ++i)
    state.counters[kSearchCounters[i]] = benchmark::Counter(
        static_cast<double>(after[i] - before[i]) / static_cast<double>(runs));
}

void report_search_counters(benchmark::State& state,
                            const std::vector<std::uint64_t>& before) {
  report_counter_deltas(state, before, snapshot_search_counters(),
                        static_cast<std::size_t>(state.iterations()));
}

const power::PowerModel& model() {
  static const power::PowerModel m;
  return m;
}
const power::DvsLadder& ladder() {
  static const power::DvsLadder l{model()};
  return l;
}

graph::TaskGraph random_graph(std::size_t size) {
  auto specs = stg::random_group_specs(size, 3);
  return graph::scale_weights(stg::generate_random(specs[2]),
                              stg::kCoarseGrainCyclesPerUnit);
}

/// The graphs the serving benchmark's cold workload sends: the default
/// RandomGraphSpec, whose ASAP width (~500 at 2000 tasks) is about twice
/// that of random_graph's family, so LAMPS phase 2 spans a long
/// processor-count range and its bound prune carries most of the search.
graph::TaskGraph default_spec_graph(std::size_t size) {
  stg::RandomGraphSpec spec;
  spec.num_tasks = size;
  return graph::scale_weights(stg::generate_random(spec), stg::kCoarseGrainCyclesPerUnit);
}

core::Problem make_problem(const graph::TaskGraph& g, double factor) {
  core::Problem p;
  p.graph = &g;
  p.model = &model();
  p.ladder = &ladder();
  p.deadline = Seconds{static_cast<double>(graph::critical_path_length(g)) /
                       model().max_frequency().value() * factor};
  return p;
}

void BM_ListScheduleEdf(benchmark::State& state) {
  const graph::TaskGraph g = random_graph(static_cast<std::size_t>(state.range(0)));
  const Cycles deadline = 2 * graph::critical_path_length(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::list_schedule_edf(g, 8, deadline));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_tasks()));
}
BENCHMARK(BM_ListScheduleEdf)
    ->Arg(100)->Arg(1000)->Arg(5000)->Arg(50000)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void BM_LampsSearch(benchmark::State& state) {
  const graph::TaskGraph g = random_graph(static_cast<std::size_t>(state.range(0)));
  const core::Problem prob = make_problem(g, 2.0);
  const auto before = snapshot_search_counters();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::lamps_schedule(prob));
  }
  report_search_counters(state, before);
}
BENCHMARK(BM_LampsSearch)->Arg(100)->Arg(1000)->Arg(5000)->Unit(benchmark::kMillisecond);

void BM_LampsPsSearch(benchmark::State& state) {
  const graph::TaskGraph g = random_graph(static_cast<std::size_t>(state.range(0)));
  const core::Problem prob = make_problem(g, 2.0);
  const auto before = snapshot_search_counters();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::lamps_schedule_ps(prob));
  }
  report_search_counters(state, before);
}
BENCHMARK(BM_LampsPsSearch)->Arg(100)->Arg(1000)->Arg(5000)->Unit(benchmark::kMillisecond);

void BM_LampsPsSearchDefaultSpec(benchmark::State& state) {
  const graph::TaskGraph g = default_spec_graph(static_cast<std::size_t>(state.range(0)));
  const core::Problem prob = make_problem(g, 2.0);
  const auto before = snapshot_search_counters();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::lamps_schedule_ps(prob));
  }
  report_search_counters(state, before);
}
BENCHMARK(BM_LampsPsSearchDefaultSpec)->Arg(2000)->Arg(5000)->Unit(benchmark::kMillisecond);

void BM_LampsPsApplicationGraph(benchmark::State& state) {
  const auto apps = stg::application_graphs();
  const graph::TaskGraph g = graph::scale_weights(
      apps[static_cast<std::size_t>(state.range(0))], stg::kCoarseGrainCyclesPerUnit);
  const core::Problem prob = make_problem(g, 2.0);
  const auto before = snapshot_search_counters();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::lamps_schedule_ps(prob));
  }
  report_search_counters(state, before);
  state.SetLabel(g.name());
}
BENCHMARK(BM_LampsPsApplicationGraph)->DenseRange(0, 2)->Unit(benchmark::kMillisecond);

// ---- Paired level-sweep benches: the naive per-level gap walk vs the
// GapProfile (built once per schedule, each level answered from the sorted
// gap lengths).  Both produce bit-identical EnergyBreakdowns — see
// tests/gap_profile_test.cpp — so the pair isolates the representation's
// speedup at identical results.

sched::Schedule sweep_schedule(const graph::TaskGraph& g) {
  const Cycles deadline = 2 * graph::critical_path_length(g);
  return sched::list_schedule_edf(g, 8, deadline);
}

Seconds sweep_horizon(const sched::Schedule& s) {
  // Generous horizon: the makespan at the slowest ladder level plus 10%,
  // so every level of the sweep fits.
  const power::DvsLevel& slowest = ladder().level(0);
  return Seconds{cycles_to_time(s.makespan(), slowest.f).value() * 1.1};
}

void BM_LevelSweepNaive(benchmark::State& state) {
  const graph::TaskGraph g = random_graph(static_cast<std::size_t>(state.range(0)));
  const sched::Schedule s = sweep_schedule(g);
  const Seconds horizon = sweep_horizon(s);
  const power::SleepModel sleep{model()};
  const energy::PsOptions ps{true, true};
  for (auto _ : state) {
    double acc = 0.0;
    for (std::size_t i = 0; i < ladder().size(); ++i)
      acc += energy::evaluate_energy(s, ladder().level(i), horizon, sleep, ps).total().value();
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_LevelSweepNaive)->Arg(1000)->Arg(5000)->Unit(benchmark::kMicrosecond);

void BM_LevelSweepGapProfile(benchmark::State& state) {
  const graph::TaskGraph g = random_graph(static_cast<std::size_t>(state.range(0)));
  const sched::Schedule s = sweep_schedule(g);
  const Seconds horizon = sweep_horizon(s);
  const power::SleepModel sleep{model()};
  const energy::PsOptions ps{true, true};
  for (auto _ : state) {
    const energy::GapProfile prof(s);  // include the build: one per schedule
    double acc = 0.0;
    for (std::size_t i = 0; i < ladder().size(); ++i)
      acc += prof.evaluate(ladder().level(i), horizon, sleep, ps).total().value();
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_LevelSweepGapProfile)->Arg(1000)->Arg(5000)->Unit(benchmark::kMicrosecond);

// ---- Incremental rescheduling: the dominant serve shape is one graph
// asked about at many deadlines.  The pair below times the identical
// request cycle with and without a ScheduleBank; with one, every
// iteration's schedules come from the structure's ProfileStore (the
// warm-up paid the from-scratch cost once per deadline) and only the
// deadline-dependent arithmetic reruns.  Responses are bit-identical
// either way — see tests/incremental_test.cpp.

std::vector<core::ServiceRequest> reschedule_cycle(const graph::TaskGraph& g) {
  std::vector<core::ServiceRequest> reqs;
  for (const double factor : {1.7, 2.0, 2.3, 2.6}) {
    reqs.push_back(core::ServiceRequest{
        g,
        Seconds{static_cast<double>(graph::critical_path_length(g)) /
                model().max_frequency().value() * factor},
        core::StrategyKind::kLampsPs});
  }
  return reqs;
}

/// Times `reqs` round-robin.  The counters cover completed cycles only:
/// the timed loop stops at an iteration count chosen by timing, and a
/// partial cycle would make them depend on where it stopped.
void run_reschedule_cycles(benchmark::State& state,
                           const std::vector<core::ServiceRequest>& reqs,
                           core::ScheduleBank* bank) {
  const auto before = snapshot_search_counters();
  auto at_wrap = before;
  std::size_t i = 0;
  std::size_t cycles = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_service_request(reqs[i], model(), ladder(), bank));
    if (++i == reqs.size()) {
      i = 0;
      ++cycles;
      at_wrap = snapshot_search_counters();
    }
  }
  report_counter_deltas(state, before, at_wrap, cycles * reqs.size());
}

void BM_IncrementalReschedule(benchmark::State& state) {
  const graph::TaskGraph g = random_graph(static_cast<std::size_t>(state.range(0)));
  const std::vector<core::ServiceRequest> reqs = reschedule_cycle(g);
  core::ScheduleBank bank;
  for (const core::ServiceRequest& req : reqs)  // warm the structure's store
    benchmark::DoNotOptimize(core::run_service_request(req, model(), ladder(), &bank));
  run_reschedule_cycles(state, reqs, &bank);
}
BENCHMARK(BM_IncrementalReschedule)->Arg(1000)->Arg(5000)->Unit(benchmark::kMillisecond);

void BM_IncrementalRescheduleScratch(benchmark::State& state) {
  const graph::TaskGraph g = random_graph(static_cast<std::size_t>(state.range(0)));
  run_reschedule_cycles(state, reschedule_cycle(g), nullptr);
}
BENCHMARK(BM_IncrementalRescheduleScratch)
    ->Arg(1000)->Arg(5000)->Unit(benchmark::kMillisecond);

void BM_SnsSearch(benchmark::State& state) {
  const graph::TaskGraph g = random_graph(static_cast<std::size_t>(state.range(0)));
  const core::Problem prob = make_problem(g, 2.0);
  const auto before = snapshot_search_counters();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::schedule_and_stretch(prob));
  }
  report_search_counters(state, before);
}
BENCHMARK(BM_SnsSearch)->Arg(1000)->Arg(5000)->Unit(benchmark::kMillisecond);

}  // namespace
