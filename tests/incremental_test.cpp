// Incremental rescheduling must be invisible in results: a ScheduleBank
// reusing deadline-invariant schedules/profiles across requests has to
// produce StrategyResults — placements, energies, and even the
// schedules_computed diagnostic — bit-identical to scheduling every
// request from scratch.  These tests fuzz the dominant serve shapes
// (deadline sweeps over one graph, weight deltas that flip the priority
// order) across every strategy, plus the supporting pieces: the
// structure digest, the bank's LRU, the store-aware ScheduleCache
// accounting, a golden table of schedules_computed, and the workspace's
// shifted-keys ranking fast path.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <random>
#include <sstream>
#include <vector>

#include "core/incremental.hpp"
#include "core/request.hpp"
#include "core/schedule_cache.hpp"
#include "core/strategy.hpp"
#include "graph/analysis.hpp"
#include "graph/task_graph.hpp"
#include "graph/transform.hpp"
#include "obs/metrics.hpp"
#include "power/power_model.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/priorities.hpp"
#include "stg/format.hpp"
#include "stg/random_gen.hpp"
#include "stg/suite.hpp"

namespace lamps::core {
namespace {

graph::TaskGraph random_graph(std::size_t seed, std::size_t tasks) {
  stg::RandomGraphSpec spec;
  spec.name = "inc-test-" + std::to_string(seed);
  spec.num_tasks = tasks;
  spec.seed = seed;
  return stg::generate_random(spec);
}

/// Rebuilds `g` with each weight multiplied by a per-task fuzz factor.
/// Large enough deltas reorder bottom levels, i.e. flip the EDF/bottom-
/// level priority ranking — the hard case for any caching layer.
graph::TaskGraph perturb_weights(const graph::TaskGraph& g, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<Cycles> mul(1, 5);
  graph::TaskGraphBuilder b(std::string(g.name()));
  for (graph::TaskId v = 0; v < g.num_tasks(); ++v)
    b.add_task(g.weight(v) * mul(rng), std::string(g.label(v)));
  for (graph::TaskId v = 0; v < g.num_tasks(); ++v)
    for (const graph::TaskId t : g.successors(v)) b.add_edge(v, t);
  return b.build();
}

ServiceRequest make_request(const graph::TaskGraph& g, const power::PowerModel& model,
                            double deadline_factor, StrategyKind strategy) {
  return ServiceRequest{g,
                        Seconds{deadline_factor *
                                static_cast<double>(graph::critical_path_length(g)) /
                                model.max_frequency().value()},
                        strategy};
}

void expect_identical(const StrategyResult& banked, const StrategyResult& scratch) {
  EXPECT_EQ(banked.feasible, scratch.feasible);
  EXPECT_EQ(banked.num_procs, scratch.num_procs);
  EXPECT_EQ(banked.level_index, scratch.level_index);
  EXPECT_EQ(banked.breakdown.dynamic.value(), scratch.breakdown.dynamic.value());
  EXPECT_EQ(banked.breakdown.leakage.value(), scratch.breakdown.leakage.value());
  EXPECT_EQ(banked.breakdown.intrinsic.value(), scratch.breakdown.intrinsic.value());
  EXPECT_EQ(banked.breakdown.sleep.value(), scratch.breakdown.sleep.value());
  EXPECT_EQ(banked.breakdown.wakeup.value(), scratch.breakdown.wakeup.value());
  EXPECT_EQ(banked.breakdown.shutdowns, scratch.breakdown.shutdowns);
  EXPECT_EQ(banked.completion.value(), scratch.completion.value());
  // The serve responses embed this diagnostic; the byte-exactness gate
  // needs it identical, not merely the energies.
  EXPECT_EQ(banked.schedules_computed, scratch.schedules_computed);
  ASSERT_EQ(banked.schedule.has_value(), scratch.schedule.has_value());
  if (!banked.schedule.has_value()) return;
  const sched::Schedule& a = *banked.schedule;
  const sched::Schedule& b = *scratch.schedule;
  ASSERT_EQ(a.num_procs(), b.num_procs());
  ASSERT_EQ(a.num_tasks(), b.num_tasks());
  EXPECT_EQ(a.makespan(), b.makespan());
  for (sched::ProcId p = 0; p < a.num_procs(); ++p) {
    const auto ra = a.on_proc(p);
    const auto rb = b.on_proc(p);
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].task, rb[i].task);
      EXPECT_EQ(ra[i].start, rb[i].start);
      EXPECT_EQ(ra[i].finish, rb[i].finish);
    }
  }
}

constexpr StrategyKind kAllStrategies[] = {StrategyKind::kSns, StrategyKind::kLamps,
                                           StrategyKind::kSnsPs, StrategyKind::kLampsPs};

TEST(Incremental, DeadlineSweepMatchesScratchBitForBit) {
  const power::PowerModel model;
  const power::DvsLadder ladder(model);
  ScheduleBank bank;
  std::mt19937_64 rng(0x1eaf);
  std::uniform_real_distribution<double> factor(1.02, 3.2);
  for (const std::size_t seed : {11U, 12U}) {
    const graph::TaskGraph g = random_graph(seed, seed == 11U ? 60 : 120);
    for (int round = 0; round < 6; ++round) {
      const double f = factor(rng);
      for (const StrategyKind strategy : kAllStrategies) {
        const ServiceRequest req = make_request(g, model, f, strategy);
        expect_identical(run_service_request(req, model, ladder, &bank),
                         run_service_request(req, model, ladder));
      }
    }
  }
  // One store per (graph structure, policy): both graphs leased theirs.
  EXPECT_EQ(bank.size(), 2U);
}

TEST(Incremental, WeightDeltasWithPriorityFlipsMatchScratch) {
  const power::PowerModel model;
  const power::DvsLadder ladder(model);
  ScheduleBank bank;
  const graph::TaskGraph base = random_graph(21, 48);
  for (std::uint64_t delta_seed = 1; delta_seed <= 4; ++delta_seed) {
    const graph::TaskGraph g = perturb_weights(base, delta_seed);
    for (const double f : {1.4, 2.1}) {
      for (const StrategyKind strategy : kAllStrategies) {
        const ServiceRequest req = make_request(g, model, f, strategy);
        expect_identical(run_service_request(req, model, ladder, &bank),
                         run_service_request(req, model, ladder));
      }
    }
  }
  // Every weight delta is a distinct structure, and artifacts must never
  // leak between structures.
  EXPECT_EQ(bank.size(), 4U);
}

TEST(Incremental, ExplicitDeadlineGraphsBypassTheBank) {
  const power::PowerModel model;
  const power::DvsLadder ladder(model);
  graph::TaskGraphBuilder b("explicit");
  const auto a = b.add_task(40);
  const auto c = b.add_task(60);
  const auto d = b.add_task(50);
  b.add_edge(a, c);
  b.add_edge(a, d);
  b.set_deadline(d, Seconds{1e-6});
  ServiceRequest req{b.build(), Seconds{2e-6}, StrategyKind::kLampsPs};
  ASSERT_TRUE(req.graph.has_explicit_deadlines());

  ScheduleBank bank;
  expect_identical(run_service_request(req, model, ladder, &bank),
                   run_service_request(req, model, ladder));
  // The EDF ranking of an explicit-deadline graph depends on the global
  // deadline, so no store may be leased for it.
  EXPECT_EQ(bank.size(), 0U);
}

TEST(Incremental, StructureDigestIgnoresDeadlineAndStrategyOnly) {
  const power::PowerModel model;
  const graph::TaskGraph g = random_graph(31, 30);
  const ServiceRequest a = make_request(g, model, 1.5, StrategyKind::kLamps);

  ServiceRequest b = a;
  b.deadline = Seconds{a.deadline.value() * 2.0};
  b.strategy = StrategyKind::kSnsPs;
  EXPECT_EQ(service_request_structure_digest(a), service_request_structure_digest(b));
  EXPECT_NE(service_request_digest(a), service_request_digest(b));

  ServiceRequest other_policy = a;
  other_policy.policy = sched::PriorityPolicy::kBottomLevel;
  EXPECT_NE(service_request_structure_digest(a),
            service_request_structure_digest(other_policy));

  ServiceRequest other_weights = a;
  other_weights.graph = perturb_weights(g, 7);
  EXPECT_NE(service_request_structure_digest(a),
            service_request_structure_digest(other_weights));
}

TEST(Incremental, BankEvictsLeastRecentlyLeased) {
  ScheduleBank bank(2);
  (void)bank.lease(1);
  (void)bank.lease(2);
  (void)bank.lease(1);  // refresh 1
  (void)bank.lease(3);  // evicts 2
  EXPECT_EQ(bank.size(), 2U);
  (void)bank.lease(2);  // re-created, evicting 1
  EXPECT_EQ(bank.size(), 2U);
}

TEST(Incremental, StoreBackedCacheCountsLikeCold) {
  const graph::TaskGraph g = random_graph(41, 80);
  const auto keys = sched::make_priority_keys(g, {});
  const auto scheduler_runs = [] {
    const obs::Registry& reg = obs::Registry::global();
    return reg.counter_value("scheduler.runs_full") + reg.counter_value("scheduler.runs_gaps");
  };

  ProfileStore store;
  std::uint64_t runs = scheduler_runs();
  ScheduleCache first(g, keys, &store);
  (void)first.profile_at(2);
  (void)first.at(3);
  (void)first.profile_at(3);  // derived from the held schedule: free
  EXPECT_EQ(first.computed(), 2U);
  EXPECT_EQ(scheduler_runs() - runs, 2U);

  // A later request's cache over the same store runs the scheduler 0
  // times and reports the computed() a cold cache would.
  runs = scheduler_runs();
  ScheduleCache warm(g, keys, &store);
  EXPECT_EQ(warm.profile_at(2).makespan(), first.profile_at(2).makespan());
  (void)warm.at(3);
  EXPECT_EQ(scheduler_runs() - runs, 0U);
  EXPECT_EQ(warm.computed(), 2U);

  ScheduleCache cold(g, keys);
  (void)cold.profile_at(2);
  (void)cold.at(3);
  EXPECT_EQ(cold.computed(), warm.computed());
}

// ---- schedules_computed, pinned -------------------------------------------
//
// The tests above compare banked runs against scratch runs; nothing there
// pins the absolute count.  This table does: for each graph, deadline
// factor and strategy, the schedules_computed the search reports (the
// acquisition rule in core/schedule_cache.hpp).  A change that alters
// how much scheduling work a search performs shows up here; the failure
// message prints the measured table.

// data/pipeline.stg and data/fork_join.stg, embedded so the test does not
// depend on the working directory.
constexpr const char* kPipelineStg =
    "8\n0 0 0\n1 12 1 0\n2 30 1 1\n3 18 1 1\n4 26 1 2\n5 22 2 2 3\n6 14 1 3\n"
    "7 20 3 4 5 6\n8 10 1 7\n9 0 1 8\n";
constexpr const char* kForkJoinStg =
    "8\n0 0 0\n1 5 1 0\n2 40 1 1\n3 35 1 1\n4 30 1 1\n5 25 1 1\n6 20 1 1\n"
    "7 15 1 1\n8 5 6 2 3 4 5 6 7\n9 0 1 8\n";

struct GoldenGraph {
  const char* name;
  graph::TaskGraph graph;
};

std::vector<GoldenGraph> golden_graphs(const power::PowerModel& model) {
  const auto scaled = [](const graph::TaskGraph& g) {
    return graph::scale_weights(g, stg::kCoarseGrainCyclesPerUnit);
  };
  const auto read = [&](const char* text) {
    std::istringstream is(text);
    return scaled(stg::read_stg(is));
  };
  stg::RandomGraphSpec layered;
  layered.num_tasks = 600;
  layered.method = stg::GenMethod::kLayrPred;
  layered.avg_degree = 3.0;
  layered.seed = 62;

  // Per-task deadlines on every fifth task, 2.5x its ASAP finish time.
  const graph::TaskGraph base = scaled(random_graph(63, 150));
  const std::vector<Cycles> top = graph::top_levels(base);
  graph::TaskGraphBuilder b("explicit-deadlines");
  for (graph::TaskId v = 0; v < base.num_tasks(); ++v) b.add_task(base.weight(v));
  for (graph::TaskId v = 0; v < base.num_tasks(); ++v)
    for (const graph::TaskId t : base.successors(v)) b.add_edge(v, t);
  for (graph::TaskId v = 0; v < base.num_tasks(); v += 5)
    b.set_deadline(v, Seconds{2.5 * static_cast<double>(top[v] + base.weight(v)) /
                              model.max_frequency().value()});

  std::vector<GoldenGraph> out;
  out.push_back({"pipeline.stg", read(kPipelineStg)});
  out.push_back({"fork_join.stg", read(kForkJoinStg)});
  out.push_back({"random-300", scaled(random_graph(61, 300))});
  out.push_back({"layrpred-600", scaled(stg::generate_random(layered))});
  out.push_back({"explicit-deadlines", b.build()});
  return out;
}

constexpr double kGoldenFactors[] = {1.2, 2.0, 4.0};

// [graph][deadline factor][strategy in core::kAllStrategies order:
// S&S, LAMPS, S&S+PS, LAMPS+PS, LIMIT-SF, LIMIT-MF].
constexpr std::size_t kGoldenComputed[][3][6] = {
    {{2, 1, 2, 1, 0, 0}, {2, 2, 2, 1, 0, 0}, {2, 2, 2, 2, 0, 0}},
    {{3, 4, 3, 4, 0, 0}, {3, 4, 3, 4, 0, 0}, {3, 5, 3, 3, 0, 0}},
    {{5, 13, 5, 13, 0, 0}, {5, 21, 5, 17, 0, 0}, {5, 28, 5, 22, 0, 0}},
    {{5, 9, 5, 9, 0, 0}, {5, 11, 5, 10, 0, 0}, {5, 10, 5, 10, 0, 0}},
    {{4, 10, 4, 10, 0, 0}, {4, 13, 4, 13, 0, 0}, {4, 18, 4, 18, 0, 0}},
};

TEST(Incremental, SchedulesComputedMatchesGolden) {
  const power::PowerModel model;
  const power::DvsLadder ladder(model);
  ScheduleBank bank;
  const std::vector<GoldenGraph> graphs = golden_graphs(model);
  ASSERT_EQ(graphs.size(), std::size(kGoldenComputed));
  std::ostringstream measured;
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    measured << "    {";
    for (std::size_t fi = 0; fi < std::size(kGoldenFactors); ++fi) {
      measured << (fi == 0 ? "{" : ", {");
      for (std::size_t si = 0; si < core::kAllStrategies.size(); ++si) {
        const ServiceRequest req =
            make_request(graphs[gi].graph, model, kGoldenFactors[fi], core::kAllStrategies[si]);
        const std::size_t scratch = run_service_request(req, model, ladder).schedules_computed;
        EXPECT_EQ(scratch, kGoldenComputed[gi][fi][si])
            << graphs[gi].name << " x" << kGoldenFactors[fi] << " " << to_string(req.strategy);
        // A banked run (warm from the earlier factors) reports the same.
        EXPECT_EQ(run_service_request(req, model, ladder, &bank).schedules_computed, scratch)
            << graphs[gi].name << " x" << kGoldenFactors[fi] << " " << to_string(req.strategy);
        measured << (si == 0 ? "" : ", ") << scratch;
      }
      measured << "}";
    }
    measured << "},\n";
  }
  if (HasFailure()) ADD_FAILURE() << "measured table:\n" << measured.str();
}

TEST(Incremental, ShiftedPriorityKeysReuseTheCachedRanking) {
  const graph::TaskGraph g = random_graph(51, 64);
  const std::vector<std::int64_t> keys = sched::make_priority_keys(g, {});
  std::vector<std::int64_t> shifted(keys.begin(), keys.end());
  for (std::int64_t& k : shifted) k += 12345;  // a new global deadline

  sched::ListScheduleWorkspace ws;
  const sched::Schedule warm_up = sched::list_schedule(g, 4, keys, ws);
  // Same workspace, uniformly shifted keys: the ranking fast path must
  // still produce the exact schedule a fresh workspace computes.
  const sched::Schedule via_shift = sched::list_schedule(g, 4, shifted, ws);
  const sched::Schedule fresh = sched::list_schedule(g, 4, shifted);
  ASSERT_EQ(via_shift.num_tasks(), fresh.num_tasks());
  EXPECT_EQ(via_shift.makespan(), fresh.makespan());
  for (graph::TaskId v = 0; v < g.num_tasks(); ++v) {
    EXPECT_EQ(via_shift.placement(v).proc, fresh.placement(v).proc);
    EXPECT_EQ(via_shift.placement(v).start, fresh.placement(v).start);
  }
  EXPECT_EQ(warm_up.makespan(), sched::list_schedule(g, 4, keys).makespan());
}

}  // namespace
}  // namespace lamps::core
