// Task-graph substrate tests: builder validation, CSR adjacency, analyses
// (critical path, levels, parallelism), transformations and export.
#include <gtest/gtest.h>

#include <sstream>

#include "graph/analysis.hpp"
#include "graph/io.hpp"
#include "graph/task_graph.hpp"
#include "graph/transform.hpp"
#include "net/jsonv.hpp"

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
  const net::JsonValue doc = net::JsonValue::parse(json);
  EXPECT_EQ(doc.get_string("name", ""), "with \"quote\"");
  const auto& tasks = doc.get("tasks")->items();
  ASSERT_EQ(tasks.size(), 3U);
  EXPECT_EQ(tasks[2].get_string("label", ""), "tab\there\x01");
}

}  // namespace
}  // namespace lamps::graph
