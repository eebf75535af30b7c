// Task-graph substrate tests: builder validation, CSR adjacency, analyses
// (critical path, levels, parallelism), transformations and export.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <string>

#include "graph/analysis.hpp"
#include "graph/io.hpp"
#include "graph/task_graph.hpp"
#include "graph/transform.hpp"
#include "util/json_value.hpp"

namespace lamps::graph {
namespace {

/// The paper's Fig 4a example: T1(2), T2(6), T3(4), T4(4), T5(2);
/// T1->T2, T1->T3, T3->T5, T2->T5 is NOT in the figure — the figure shows
/// T1 feeding T2/T3, T4 independent, and T5 joining T2/T3.
TaskGraph fig4_graph() {
  TaskGraphBuilder b("fig4");
  const TaskId t1 = b.add_task(2, "T1");
  const TaskId t2 = b.add_task(6, "T2");
  const TaskId t3 = b.add_task(4, "T3");
  const TaskId t4 = b.add_task(4, "T4");
  const TaskId t5 = b.add_task(2, "T5");
  b.add_edge(t1, t2);
  b.add_edge(t1, t3);
  b.add_edge(t2, t5);
  b.add_edge(t3, t5);
  (void)t4;
  return b.build();
}

// ---------------------------------------------------------------- build --

TEST(Builder, BasicConstruction) {
  const TaskGraph g = fig4_graph();
  EXPECT_EQ(g.name(), "fig4");
  EXPECT_EQ(g.num_tasks(), 5u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.total_work(), 18u);
  EXPECT_EQ(g.weight(1), 6u);
  EXPECT_EQ(g.label(4), "T5");
}

TEST(Builder, AdjacencyIsConsistent) {
  const TaskGraph g = fig4_graph();
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.in_degree(4), 2u);
  EXPECT_TRUE(has_edge(g, 0, 1));
  EXPECT_TRUE(has_edge(g, 0, 2));
  EXPECT_FALSE(has_edge(g, 1, 0));
  // predecessors mirror successors
  const auto preds = g.predecessors(4);
  EXPECT_EQ(std::vector<TaskId>(preds.begin(), preds.end()), (std::vector<TaskId>{1, 2}));
}

TEST(Builder, SourcesAndSinks) {
  const TaskGraph g = fig4_graph();
  const auto src = g.sources();
  const auto snk = g.sinks();
  EXPECT_EQ(std::vector<TaskId>(src.begin(), src.end()), (std::vector<TaskId>{0, 3}));
  EXPECT_EQ(std::vector<TaskId>(snk.begin(), snk.end()), (std::vector<TaskId>{3, 4}));
}

TEST(Builder, DetectsCycle) {
  TaskGraphBuilder b;
  const TaskId a = b.add_task(1), c = b.add_task(1), d = b.add_task(1);
  b.add_edge(a, c);
  b.add_edge(c, d);
  b.add_edge(d, a);
  EXPECT_THROW((void)b.build(), std::invalid_argument);
}

TEST(Builder, RejectsSelfLoop) {
  TaskGraphBuilder b;
  const TaskId a = b.add_task(1);
  EXPECT_THROW(b.add_edge(a, a), std::invalid_argument);
}

TEST(Builder, RejectsUnknownTasks) {
  TaskGraphBuilder b;
  (void)b.add_task(1);
  EXPECT_THROW(b.add_edge(0, 5), std::out_of_range);
  EXPECT_THROW(b.set_deadline(9, Seconds{1.0}), std::out_of_range);
}

TEST(Builder, CoalescesDuplicateEdges) {
  TaskGraphBuilder b;
  const TaskId a = b.add_task(1), c = b.add_task(1);
  b.add_edge(a, c);
  b.add_edge(a, c);
  b.add_edge(a, c);
  const TaskGraph g = b.build();
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Builder, TopologicalOrderRespectsEdgesAndIsDeterministic) {
  const TaskGraph g = fig4_graph();
  const auto topo = g.topological_order();
  std::vector<std::size_t> pos(g.num_tasks());
  for (std::size_t i = 0; i < topo.size(); ++i) pos[topo[i]] = i;
  for (TaskId v = 0; v < g.num_tasks(); ++v)
    for (const TaskId s : g.successors(v)) EXPECT_LT(pos[v], pos[s]);
  // Kahn with a min-heap: smallest available id first.
  EXPECT_EQ(std::vector<TaskId>(topo.begin(), topo.end()),
            (std::vector<TaskId>{0, 1, 2, 3, 4}));
}

TEST(Builder, ExplicitDeadlines) {
  TaskGraphBuilder b;
  const TaskId a = b.add_task(1), c = b.add_task(1);
  b.set_deadline(c, Seconds{0.25});
  const TaskGraph g = b.build();
  EXPECT_TRUE(g.has_explicit_deadlines());
  EXPECT_FALSE(g.explicit_deadline(a).has_value());
  ASSERT_TRUE(g.explicit_deadline(c).has_value());
  EXPECT_DOUBLE_EQ(g.explicit_deadline(c)->value(), 0.25);
}

TEST(Builder, RejectsNonPositiveDeadline) {
  TaskGraphBuilder b;
  const TaskId a = b.add_task(1);
  EXPECT_THROW(b.set_deadline(a, Seconds{0.0}), std::invalid_argument);
}

TEST(Builder, EmptyGraph) {
  TaskGraphBuilder b;
  const TaskGraph g = b.build();
  EXPECT_EQ(g.num_tasks(), 0u);
  EXPECT_EQ(g.total_work(), 0u);
  EXPECT_EQ(critical_path_length(g), 0u);
  EXPECT_DOUBLE_EQ(average_parallelism(g), 0.0);
}

TEST(Builder, ZeroWeightTasksAllowed) {
  TaskGraphBuilder b;
  const TaskId a = b.add_task(0), c = b.add_task(5);
  b.add_edge(a, c);
  const TaskGraph g = b.build();
  EXPECT_EQ(critical_path_length(g), 5u);
}

// ------------------------------------------------------------- analysis --

TEST(Analysis, Fig4CriticalPath) {
  const TaskGraph g = fig4_graph();
  // T1(2) -> T2(6) -> T5(2) = 10.
  EXPECT_EQ(critical_path_length(g), 10u);
  EXPECT_EQ(critical_path(g), (std::vector<TaskId>{0, 1, 4}));
  EXPECT_NEAR(average_parallelism(g), 18.0 / 10.0, 1e-12);
}

TEST(Analysis, BottomAndTopLevels) {
  const TaskGraph g = fig4_graph();
  const auto bl = bottom_levels(g);
  EXPECT_EQ(bl[0], 10u);  // T1 + T2 + T5
  EXPECT_EQ(bl[1], 8u);   // T2 + T5
  EXPECT_EQ(bl[2], 6u);   // T3 + T5
  EXPECT_EQ(bl[3], 4u);   // T4 alone
  EXPECT_EQ(bl[4], 2u);
  const auto tl = top_levels(g);
  EXPECT_EQ(tl[0], 0u);
  EXPECT_EQ(tl[1], 2u);
  EXPECT_EQ(tl[2], 2u);
  EXPECT_EQ(tl[3], 0u);
  EXPECT_EQ(tl[4], 8u);  // after T2
}

TEST(Analysis, ChainHasParallelismOne) {
  TaskGraphBuilder b;
  TaskId prev = b.add_task(3);
  for (int i = 0; i < 9; ++i) {
    const TaskId next = b.add_task(3);
    b.add_edge(prev, next);
    prev = next;
  }
  const TaskGraph g = b.build();
  EXPECT_EQ(critical_path_length(g), 30u);
  EXPECT_DOUBLE_EQ(average_parallelism(g), 1.0);
  EXPECT_EQ(asap_max_concurrency(g), 1u);
  EXPECT_EQ(critical_path(g).size(), 10u);
}

TEST(Analysis, IndependentTasksHaveFullParallelism) {
  TaskGraphBuilder b;
  for (int i = 0; i < 8; ++i) (void)b.add_task(4);
  const TaskGraph g = b.build();
  EXPECT_EQ(critical_path_length(g), 4u);
  EXPECT_DOUBLE_EQ(average_parallelism(g), 8.0);
  EXPECT_EQ(asap_max_concurrency(g), 8u);
}

TEST(Analysis, AsapConcurrencyFig4) {
  // ASAP: T1,T4 at 0; T2,T3 at 2 (T4 still running until 4): overlap of
  // T2, T3, T4 in [2,4) = 3.
  EXPECT_EQ(asap_max_concurrency(fig4_graph()), 3u);
}

// -------------------------------------------------------------- transform --

TEST(Transform, ScaleWeightsMultipliesWorkAndCpl) {
  const TaskGraph g = fig4_graph();
  const TaskGraph s = scale_weights(g, 1000);
  EXPECT_EQ(s.total_work(), 18'000u);
  EXPECT_EQ(critical_path_length(s), 10'000u);
  EXPECT_EQ(s.num_edges(), g.num_edges());
  EXPECT_EQ(s.label(0), "T1");
}

TEST(Transform, ScaleWeightsOverflowDetected) {
  TaskGraphBuilder b;
  (void)b.add_task(static_cast<Cycles>(1) << 60);
  const TaskGraph g = b.build();
  EXPECT_THROW((void)scale_weights(g, 1 << 10), std::overflow_error);
}

TEST(Transform, RenamedKeepsStructure) {
  const TaskGraph g = renamed(fig4_graph(), "other");
  EXPECT_EQ(g.name(), "other");
  EXPECT_EQ(g.num_edges(), 4u);
}

TEST(Transform, PreservesExplicitDeadlines) {
  TaskGraphBuilder b;
  const TaskId a = b.add_task(1);
  b.set_deadline(a, Seconds{0.5});
  const TaskGraph g = scale_weights(b.build(), 7);
  ASSERT_TRUE(g.explicit_deadline(0).has_value());
  EXPECT_DOUBLE_EQ(g.explicit_deadline(0)->value(), 0.5);
}

/// A seeded random DAG with labels and explicit deadlines on some tasks.
TaskGraph random_labelled_dag(std::uint64_t seed, Cycles max_weight) {
  std::mt19937_64 rng(seed);
  TaskGraphBuilder b("rand-" + std::to_string(seed));
  const std::size_t n = 20 + rng() % 40;
  for (std::size_t v = 0; v < n; ++v) (void)b.add_task(rng() % max_weight, std::to_string(v));
  for (std::size_t e = 0; e < 3 * n; ++e) {
    const auto from = static_cast<TaskId>(rng() % n);
    const auto to = static_cast<TaskId>(rng() % n);
    if (from < to) b.add_edge(from, to);  // ascending ids keep it acyclic
  }
  for (std::size_t v = rng() % 5; v < n; v += 1 + rng() % 5)
    b.set_deadline(static_cast<TaskId>(v), Seconds{1.0 + static_cast<double>(rng() % 1000)});
  return b.build();
}

/// A second builder pass over the same labels, edges and deadlines, with
/// every weight multiplied by `factor`.
TaskGraph rebuilt(const TaskGraph& g, const std::string& name, Cycles factor) {
  TaskGraphBuilder b(name);
  for (TaskId v = 0; v < g.num_tasks(); ++v) (void)b.add_task(g.weight(v) * factor, g.label(v));
  for (TaskId v = 0; v < g.num_tasks(); ++v)
    for (const TaskId s : g.successors(v)) b.add_edge(v, s);
  for (TaskId v = 0; v < g.num_tasks(); ++v)
    if (const auto d = g.explicit_deadline(v)) b.set_deadline(v, *d);
  return b.build();
}

void expect_identical(const TaskGraph& a, const TaskGraph& b) {
  const auto same = [](auto x, auto y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end());
  };
  EXPECT_EQ(a.name(), b.name());
  EXPECT_TRUE(same(a.weights(), b.weights()));
  EXPECT_TRUE(same(a.succ_offsets(), b.succ_offsets()));
  EXPECT_TRUE(same(a.succ_targets(), b.succ_targets()));
  EXPECT_TRUE(same(a.pred_offsets(), b.pred_offsets()));
  EXPECT_TRUE(same(a.pred_targets(), b.pred_targets()));
  EXPECT_TRUE(same(a.topological_order(), b.topological_order()));
  EXPECT_TRUE(same(a.sources(), b.sources()));
  EXPECT_TRUE(same(a.sinks(), b.sinks()));
  EXPECT_EQ(a.total_work(), b.total_work());
  EXPECT_EQ(a.has_explicit_deadlines(), b.has_explicit_deadlines());
  ASSERT_EQ(a.num_tasks(), b.num_tasks());
  for (TaskId v = 0; v < a.num_tasks(); ++v) {
    EXPECT_EQ(a.label(v), b.label(v));
    const auto da = a.explicit_deadline(v);
    const auto db = b.explicit_deadline(v);
    ASSERT_EQ(da.has_value(), db.has_value()) << v;
    if (da.has_value()) {
      EXPECT_EQ(da->value(), db->value()) << v;
    }
  }
}

// The transforms copy the frozen graph and edit the weights, total work or
// name; the result must equal what a full rebuild produces, array for
// array, including a total work that wraps past 2^64 the way the builder's
// sum does.
TEST(Transform, CopyEqualsRebuild) {
  bool wrapped = false;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Cycles max_weight = seed % 3 == 0 ? Cycles{1} << 60 : 1000;
    const TaskGraph g = random_labelled_dag(seed, max_weight);
    ASSERT_TRUE(g.has_explicit_deadlines());
    for (const Cycles factor : {Cycles{1}, Cycles{7}}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " factor " + std::to_string(factor));
      const TaskGraph scaled = scale_weights(g, factor);
      expect_identical(scaled, rebuilt(g, g.name(), factor));
      Cycles sum = 0;
      for (const Cycles w : scaled.weights()) wrapped |= __builtin_add_overflow(sum, w, &sum);
    }
    SCOPED_TRACE("seed " + std::to_string(seed) + " renamed");
    expect_identical(renamed(g, "other"), rebuilt(g, "other", 1));
  }
  EXPECT_TRUE(wrapped) << "no case summed past 2^64";
}

// ---------------------------------------------------------------- export --

TEST(Io, DotContainsNodesAndEdges) {
  const std::string dot = to_dot(fig4_graph());
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("t0 -> t1"), std::string::npos);
  EXPECT_NE(dot.find("T5"), std::string::npos);
}

TEST(Io, JsonContainsTasksEdgesAndEscapes) {
  TaskGraphBuilder b("with \"quote\"");
  const TaskId a = b.add_task(1, "a\"b");
  const TaskId c = b.add_task(2);
  const TaskId d = b.add_task(3, "tab\there\x01");
  b.add_edge(a, c);
  b.add_edge(c, d);
  b.set_deadline(c, Seconds{0.5});
  const std::string json = to_json(b.build());
  EXPECT_NE(json.find("\"with \\\"quote\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"a\\\"b\""), std::string::npos);
  EXPECT_NE(json.find("[0, 1]"), std::string::npos);
  EXPECT_NE(json.find("\"deadline\": 0.5"), std::string::npos);
  // Control bytes are escaped, so a strict parser reads the document back.
  const JsonValue doc = JsonValue::parse(json);
  EXPECT_EQ(doc.get_string("name", ""), "with \"quote\"");
  const auto& tasks = doc.get("tasks")->items();
  ASSERT_EQ(tasks.size(), 3U);
  EXPECT_EQ(tasks[2].get_string("label", ""), "tab\there\x01");
}

}  // namespace
}  // namespace lamps::graph
