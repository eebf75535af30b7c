// Branch-and-bound exact solver tests: hand-checkable optima, agreement
// with brute reasoning, Graham-bound relation to LS-EDF, and the exact
// energy baseline under LAMPS results.
#include <gtest/gtest.h>

#include <optional>

#include "core/exact.hpp"
#include "core/strategy.hpp"
#include "core/stretch.hpp"
#include "graph/analysis.hpp"
#include "graph/transform.hpp"
#include "sched/list_scheduler.hpp"
#include "stg/random_gen.hpp"
#include "stg/structured.hpp"

namespace lamps::core {
namespace {

using graph::TaskGraph;
using graph::TaskGraphBuilder;

TEST(Exact, IndependentTasksPackLikeBins) {
  // Weights 4,4,3,3,2 on 2 procs: optimum is 8 (4+4 | 3+3+2).
  TaskGraphBuilder b;
  for (const Cycles w : {4u, 4u, 3u, 3u, 2u}) (void)b.add_task(w);
  const TaskGraph g = b.build();
  const ExactMakespanResult r = exact_min_makespan(g, 2);
  EXPECT_TRUE(r.proven);
  EXPECT_EQ(r.makespan, 8u);
}

TEST(Exact, ChainIsCriticalPathBound) {
  TaskGraphBuilder b;
  graph::TaskId prev = b.add_task(5);
  for (int i = 0; i < 5; ++i) {
    const graph::TaskId next = b.add_task(5);
    b.add_edge(prev, next);
    prev = next;
  }
  const TaskGraph g = b.build();
  for (const std::size_t n : {1u, 2u, 4u}) {
    const ExactMakespanResult r = exact_min_makespan(g, n);
    EXPECT_TRUE(r.proven);
    EXPECT_EQ(r.makespan, 30u);
  }
}

TEST(Exact, KnownAnomalousInstanceWhereEdfIsSuboptimal) {
  // Weights chosen so greedy non-delay EDF misorders: optimum 6 on 2
  // procs for {3, 3, 2, 2, 2}, greedy largest-last can give 7.
  TaskGraphBuilder b;
  for (const Cycles w : {2u, 2u, 2u, 3u, 3u}) (void)b.add_task(w);
  const TaskGraph g = b.build();
  const ExactMakespanResult r = exact_min_makespan(g, 2);
  EXPECT_TRUE(r.proven);
  EXPECT_EQ(r.makespan, 6u);
  // FIFO list scheduling on this order: P0 gets 2+2+3=7.
  sched::PriorityOptions fifo;
  fifo.policy = sched::PriorityPolicy::kFifo;
  const sched::Schedule greedy =
      sched::list_schedule(g, 2, sched::make_priority_keys(g, fifo));
  EXPECT_EQ(greedy.makespan(), 7u);
}

TEST(Exact, Fig4GraphOptimumMatchesPaperDiscussion) {
  TaskGraphBuilder b;
  const auto t1 = b.add_task(2), t2 = b.add_task(6), t3 = b.add_task(4);
  (void)b.add_task(4);
  const auto t5 = b.add_task(2);
  b.add_edge(t1, t2);
  b.add_edge(t1, t3);
  b.add_edge(t2, t5);
  b.add_edge(t3, t5);
  const TaskGraph g = b.build();
  // The CPL (10) is achievable on 2 processors (paper Fig 7a).
  EXPECT_EQ(exact_min_makespan(g, 2).makespan, 10u);
  EXPECT_EQ(exact_min_makespan(g, 1).makespan, 18u);
}

TEST(Exact, EmptyGraphAndErrors) {
  TaskGraphBuilder b;
  const TaskGraph g = b.build();
  const ExactMakespanResult r = exact_min_makespan(g, 3);
  EXPECT_TRUE(r.proven);
  EXPECT_EQ(r.makespan, 0u);
  TaskGraphBuilder b2;
  (void)b2.add_task(1);
  const TaskGraph g2 = b2.build();
  EXPECT_THROW((void)exact_min_makespan(g2, 0), std::invalid_argument);
}

TEST(Exact, BudgetExhaustionReportsUnproven) {
  // Independent weights {3,3,2,2,2} on 2 processors: LPT-style list
  // scheduling (the search's seed incumbent) yields 7 while the optimum is
  // 6, and the root lower bound (work bound = 6) cannot close the gap — so
  // a 1-node budget must return the unproven incumbent.
  TaskGraphBuilder b;
  for (const Cycles w : {3u, 3u, 2u, 2u, 2u}) (void)b.add_task(w);
  const TaskGraph g = b.build();
  ExactOptions opts;
  opts.node_budget = 1;
  const ExactMakespanResult r = exact_min_makespan(g, 2, opts);
  EXPECT_FALSE(r.proven);
  EXPECT_EQ(r.makespan, 7u);
  // With the default budget the same instance is solved and proven.
  const ExactMakespanResult full = exact_min_makespan(g, 2);
  EXPECT_TRUE(full.proven);
  EXPECT_EQ(full.makespan, 6u);
}

// Parameterized: on a sample of small random graphs, LS-EDF stays within
// the Graham bound (2 - 1/m) of the exact optimum, never below it, and
// inside graham_bracket, whose ceilings must not wrap at 2^64.
class ExactVsListScheduler : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExactVsListScheduler, GrahamBoundHolds) {
  stg::RandomGraphSpec spec;
  spec.num_tasks = 9;
  spec.method = GetParam() % 2 == 0 ? stg::GenMethod::kSamePred : stg::GenMethod::kSameProb;
  spec.avg_degree = 1.5;
  spec.max_weight = 12;
  spec.seed = GetParam();
  const TaskGraph g = stg::generate_random(spec);
  for (const std::size_t m : {2u, 3u}) {
    const ExactMakespanResult opt = exact_min_makespan(g, m);
    ASSERT_TRUE(opt.proven);
    const sched::Schedule ls = sched::list_schedule_edf(g, m, 10 * g.total_work());
    EXPECT_GE(ls.makespan(), opt.makespan);
    EXPECT_LE(static_cast<double>(ls.makespan()),
              static_cast<double>(opt.makespan) * (2.0 - 1.0 / static_cast<double>(m)) +
                  1e-9);
    const MakespanBracket bracket =
        graham_bracket(g.total_work(), graph::critical_path_length(g), m);
    EXPECT_LE(bracket.lower, ls.makespan());
    ASSERT_TRUE(bracket.upper.has_value());
    EXPECT_GE(*bracket.upper, ls.makespan());
  }
  // W + (n-1)*CPL = 2^64 - 1 fits, but rounding it up as (s + n - 1) / n
  // would wrap the upper bound to 0.
  const MakespanBracket edge = graham_bracket(~Cycles{0} - 1, 1, 2);
  EXPECT_EQ(edge.lower, (Cycles{1} << 63) - 1);
  EXPECT_EQ(edge.upper, std::optional<Cycles>(Cycles{1} << 63));
}

INSTANTIATE_TEST_SUITE_P(SmallGraphs, ExactVsListScheduler,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(ExactEnergy, LampsNeverBeatsExactOptimum) {
  const power::PowerModel model;
  const power::DvsLadder ladder(model);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    stg::RandomGraphSpec spec;
    spec.num_tasks = 10;
    spec.method = stg::GenMethod::kLayrPred;
    spec.num_layers = 3;
    spec.seed = seed;
    const TaskGraph g =
        graph::scale_weights(stg::generate_random(spec), 3'100'000);
    Problem prob;
    prob.graph = &g;
    prob.model = &model;
    prob.ladder = &ladder;
    prob.deadline = Seconds{static_cast<double>(graph::critical_path_length(g)) /
                            model.max_frequency().value() * 2.0};
    const ExactEnergyResult opt = exact_min_energy(prob, 6);
    const StrategyResult lam = lamps_schedule(prob);
    ASSERT_TRUE(opt.feasible && opt.proven && lam.feasible) << seed;
    EXPECT_GE(lam.energy().value(), opt.energy.value() * (1.0 - 1e-12)) << seed;
    // LAMPS should in fact be close: within 10% on these easy instances.
    EXPECT_LE(lam.energy().value(), opt.energy.value() * 1.10) << seed;
  }
}

TEST(ExactEnergy, InfeasibleWhenDeadlineTooTight) {
  const power::PowerModel model;
  const power::DvsLadder ladder(model);
  const TaskGraph g = graph::scale_weights(stg::out_tree(3, 10), 3'100'000);
  Problem prob;
  prob.graph = &g;
  prob.model = &model;
  prob.ladder = &ladder;
  prob.deadline = Seconds{1e-9};
  EXPECT_FALSE(exact_min_energy(prob, 4).feasible);
}

}  // namespace
}  // namespace lamps::core
