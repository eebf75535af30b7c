// Exactness of the LAMPS phase-2 bound prune.  Phase 2 evaluates N_max
// first and skips every other processor count whose
// processor_count_energy_bound exceeds that energy.  That is only sound if
// the bound never exceeds the energy the evaluator assigns, and it is only
// invisible if the search still returns the first argmin of the
// exhaustive energy-vs-N curve.  These tests check both over the STG
// corpus (the paper's random groups, the application graphs and the
// structured families) plus fuzzed random graphs, for LAMPS and LAMPS+PS
// at several deadline factors: every result field except
// schedules_computed must be bit-equal to the exhaustive reference.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <random>
#include <string_view>
#include <vector>

#include "core/lamps.hpp"
#include "core/priority_keys.hpp"
#include "core/stretch.hpp"
#include "graph/analysis.hpp"
#include "graph/transform.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "sched/list_scheduler.hpp"
#include "stg/structured.hpp"
#include "stg/suite.hpp"

namespace lamps::core {
namespace {

const power::PowerModel& model() {
  static const power::PowerModel m;
  return m;
}
const power::DvsLadder& ladder() {
  static const power::DvsLadder l{model()};
  return l;
}

Problem make_problem(const graph::TaskGraph& g, double factor) {
  Problem prob;
  prob.graph = &g;
  prob.model = &model();
  prob.ladder = &ladder();
  prob.deadline = Seconds{static_cast<double>(graph::critical_path_length(g)) /
                          model().max_frequency().value() * factor};
  return prob;
}

/// Relative rounding allowed between the bound and the evaluated energy:
/// three orders of magnitude below the prune's 1e-9 margin, so a bound
/// within it can never prune the argmin.
constexpr double kRounding = 1e-12;

struct Tally {
  std::size_t searches{0};
  std::size_t bound_checks{0};
  std::size_t pruned{0};
};

std::uint64_t pruned_counter() {
  return obs::Registry::global().counter_value("search.bound_pruned");
}

/// Runs the pruned search with telemetry, then rebuilds the exhaustive
/// reference over the same [N_min, N_max] (read off the phase-2 probe
/// records) from full schedules and processor_sweep, and compares.
void check_instance(const graph::TaskGraph& g, double factor, bool with_ps, Tally& tally) {
  SCOPED_TRACE(std::string(g.name()) + " factor=" + std::to_string(factor) +
               (with_ps ? " LAMPS+PS" : " LAMPS"));
  Problem prob = make_problem(g, factor);
  obs::SearchTelemetry tel;
  prob.telemetry = &tel;
  const std::uint64_t pruned_before = pruned_counter();
  const StrategyResult r = with_ps ? lamps_schedule_ps(prob) : lamps_schedule(prob);
  const std::uint64_t pruned_delta = pruned_counter() - pruned_before;
  prob.telemetry = nullptr;
  ++tally.searches;

  std::vector<const obs::SearchProbe*> p2;
  for (const obs::SearchProbe& p : tel.probes)
    if (std::string_view(p.phase) == "phase2") p2.push_back(&p);
  if (p2.empty()) {  // phase 1 proved the deadline unreachable
    EXPECT_FALSE(r.feasible);
    EXPECT_EQ(pruned_delta, 0U);
    return;
  }
  const std::size_t n_min = p2.front()->num_procs;
  const std::size_t n_max = p2.back()->num_procs;
  ASSERT_EQ(p2.size(), n_max - n_min + 1) << "one phase-2 record per processor count";

  const std::vector<SweepPoint> sweep = processor_sweep(prob, n_max, with_ps);
  const std::vector<std::int64_t> keys = problem_priority_keys(prob);
  std::optional<std::size_t> best_n;
  ConfigEval best;
  std::size_t pruned = 0;
  for (std::size_t n = n_min; n <= n_max; ++n) {
    const obs::SearchProbe& probe = *p2[n - n_min];
    ASSERT_EQ(probe.num_procs, n);
    const sched::Schedule s = sched::list_schedule(g, n, keys);
    const ConfigEval ev = evaluate_schedule_config(s, prob, with_ps);
    ASSERT_EQ(sweep[n - 1].feasible, ev.feasible);
    const bool was_pruned = std::string_view(probe.action) == "bound-pruned";
    const double lb = processor_count_energy_bound(prob, n, with_ps).value();
    if (was_pruned) {
      ++pruned;
      // The record explains the skip: the bound that beat the incumbent.
      EXPECT_EQ(probe.energy_j, lb);
      EXPECT_EQ(probe.makespan, -1);
      EXPECT_EQ(probe.feasible, -1);
      EXPECT_EQ(probe.level_index, -1);
      EXPECT_FALSE(probe.chosen);
      EXPECT_NE(n, n_max) << "the incumbent itself is never pruned";
    }
    if (!ev.feasible) continue;
    EXPECT_EQ(sweep[n - 1].energy.value(), ev.breakdown.total().value());
    const double e = ev.breakdown.total().value();
    // Without PS the bound is attained whenever the evaluator runs at the
    // level the Graham floor requires: both sides are then one real number
    // summed in two orders, and may differ in the last bits.
    EXPECT_LE(lb, e * (1.0 + kRounding)) << "N=" << n;
    ++tally.bound_checks;
    if (was_pruned) {
      EXPECT_GT(ev.breakdown.total().value(), p2.back()->energy_j) << "N=" << n;
    } else {
      EXPECT_EQ(probe.energy_j, ev.breakdown.total().value()) << "N=" << n;
    }
    if (!best_n || ev.breakdown.total() < best.breakdown.total()) {
      best_n = n;
      best = ev;
    }
  }
  EXPECT_EQ(pruned, pruned_delta);
  tally.pruned += pruned;

  ASSERT_EQ(r.feasible, best_n.has_value());
  if (!best_n) return;
  EXPECT_EQ(r.num_procs, *best_n);
  EXPECT_EQ(r.level_index, best.level_index);
  EXPECT_EQ(r.completion.value(), best.completion.value());
  EXPECT_EQ(r.breakdown.dynamic.value(), best.breakdown.dynamic.value());
  EXPECT_EQ(r.breakdown.leakage.value(), best.breakdown.leakage.value());
  EXPECT_EQ(r.breakdown.intrinsic.value(), best.breakdown.intrinsic.value());
  EXPECT_EQ(r.breakdown.sleep.value(), best.breakdown.sleep.value());
  EXPECT_EQ(r.breakdown.wakeup.value(), best.breakdown.wakeup.value());
  EXPECT_EQ(r.breakdown.transition.value(), best.breakdown.transition.value());
  EXPECT_EQ(r.breakdown.shutdowns, best.breakdown.shutdowns);
  EXPECT_EQ(r.breakdown.total().value(), best.breakdown.total().value());
  EXPECT_TRUE(p2[*best_n - n_min]->chosen);

  ASSERT_TRUE(r.schedule.has_value());
  const sched::Schedule ref = sched::list_schedule(g, *best_n, keys);
  ASSERT_EQ(r.schedule->num_procs(), ref.num_procs());
  for (sched::ProcId p = 0; p < ref.num_procs(); ++p) {
    const auto ra = r.schedule->on_proc(p);
    const auto rb = ref.on_proc(p);
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].task, rb[i].task);
      EXPECT_EQ(ra[i].start, rb[i].start);
      EXPECT_EQ(ra[i].finish, rb[i].finish);
    }
  }
}

constexpr double kFactors[] = {1.02, 1.3, 2.0, 3.5, 8.0};

std::vector<graph::TaskGraph> stg_corpus() {
  std::vector<graph::TaskGraph> out;
  for (const std::size_t size : {50UL, 100UL, 300UL})
    for (graph::TaskGraph& g : stg::make_random_group(size, 4))
      out.push_back(graph::scale_weights(g, stg::kCoarseGrainCyclesPerUnit));
  for (const graph::TaskGraph& g : stg::application_graphs())
    out.push_back(graph::scale_weights(g, stg::kCoarseGrainCyclesPerUnit));
  for (const graph::TaskGraph& g :
       {stg::gaussian_elimination(12, 4, 2), stg::fft_butterfly(4, 3), stg::out_tree(6, 2),
        stg::in_tree(6, 2), stg::divide_and_conquer(5, 1, 6), stg::wavefront(9, 7, 3)})
    out.push_back(graph::scale_weights(g, stg::kFineGrainCyclesPerUnit));
  return out;
}

TEST(BoundPrune, StgCorpusMatchesExhaustiveSweep) {
  Tally tally;
  for (const graph::TaskGraph& g : stg_corpus())
    for (const double factor : kFactors)
      for (const bool with_ps : {false, true}) check_instance(g, factor, with_ps, tally);
  EXPECT_GT(tally.bound_checks, 1000U);
  // The prune must actually fire on this corpus, or the equality above
  // proves nothing about it.
  EXPECT_GT(tally.pruned, 0U);
}

TEST(BoundPrune, FuzzedGraphsMatchExhaustiveSweep) {
  std::mt19937_64 rng(0xb0a7d);
  std::uniform_int_distribution<std::size_t> tasks(2, 400);
  std::uniform_int_distribution<int> method(0, 3);
  std::uniform_int_distribution<int> dist(0, 2);
  std::uniform_real_distribution<double> degree(0.3, 6.0);
  std::uniform_int_distribution<Cycles> max_w(1, 60);
  std::uniform_real_distribution<double> factor(1.0, 10.0);
  Tally tally;
  for (int i = 0; i < 40; ++i) {
    stg::RandomGraphSpec spec;
    spec.name = "fuzz-" + std::to_string(i);
    spec.num_tasks = tasks(rng);
    spec.method = static_cast<stg::GenMethod>(method(rng));
    spec.weight_dist = static_cast<stg::WeightDist>(dist(rng));
    spec.avg_degree = degree(rng);
    spec.max_weight = max_w(rng);
    spec.seed = rng();
    const Cycles unit =
        i % 2 == 0 ? stg::kCoarseGrainCyclesPerUnit : stg::kFineGrainCyclesPerUnit;
    const graph::TaskGraph g = graph::scale_weights(stg::generate_random(spec), unit);
    const double f = factor(rng);
    for (const bool with_ps : {false, true}) check_instance(g, f, with_ps, tally);
  }
  EXPECT_EQ(tally.searches, 80U);
  EXPECT_GT(tally.pruned, 0U);
}

// The graphs the serving benchmark sends (default RandomGraphSpec, wide:
// long phase-2 ranges), at smaller sizes.  Here the prune skips a large
// share of the counts; a weakened bound would show up as a lower share.
TEST(BoundPrune, DefaultSpecGraphsMatchAndPruneWidely) {
  Tally tally;
  for (const std::size_t tasks : {400UL, 1000UL}) {
    for (const std::uint64_t seed : {1U, 2U}) {
      stg::RandomGraphSpec spec;
      spec.name = "default-" + std::to_string(tasks) + "-" + std::to_string(seed);
      spec.num_tasks = tasks;
      spec.seed = seed;
      const graph::TaskGraph g =
          graph::scale_weights(stg::generate_random(spec), stg::kCoarseGrainCyclesPerUnit);
      for (const double factor : {1.3, 2.0, 4.0})
        for (const bool with_ps : {false, true}) check_instance(g, factor, with_ps, tally);
    }
  }
  EXPECT_GT(tally.pruned * 3, tally.bound_checks);
}

// Per-task deadlines need real finish times, so the Graham-bound path and
// with it the prune are off: every phase-2 count is evaluated.
TEST(BoundPrune, ExplicitDeadlineGraphsAreNotPruned) {
  graph::TaskGraph g0 =
      graph::scale_weights(stg::make_random_group(100, 1)[0], stg::kCoarseGrainCyclesPerUnit);
  graph::TaskGraphBuilder b("explicit");
  for (graph::TaskId v = 0; v < g0.num_tasks(); ++v) (void)b.add_task(g0.weight(v));
  for (graph::TaskId v = 0; v < g0.num_tasks(); ++v)
    for (const graph::TaskId s : g0.successors(v)) b.add_edge(v, s);
  const Problem base = make_problem(g0, 4.0);
  b.set_deadline(0, base.deadline);
  const graph::TaskGraph g = b.build();
  ASSERT_TRUE(g.has_explicit_deadlines());

  Problem prob = make_problem(g, 4.0);
  obs::SearchTelemetry tel;
  prob.telemetry = &tel;
  const std::uint64_t before = pruned_counter();
  const StrategyResult r = lamps_schedule_ps(prob);
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(pruned_counter(), before);
  for (const obs::SearchProbe& p : tel.probes)
    EXPECT_NE(std::string_view(p.action), "bound-pruned");
}

}  // namespace
}  // namespace lamps::core
