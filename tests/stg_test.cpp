// STG substrate tests: file-format round trips, random-generator
// properties, Table 2 application-graph synthesis, suite registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "graph/analysis.hpp"
#include "stg/app_synth.hpp"
#include "stg/format.hpp"
#include "stg/random_gen.hpp"
#include "stg/suite.hpp"

namespace lamps::stg {
namespace {

using graph::TaskGraph;
using graph::TaskGraphBuilder;
using graph::TaskId;

// ----------------------------------------------------------------- format --

TEST(Format, ParsesMinimalFileWithDummies) {
  // 2 real tasks: 1 -> 2, dummy entry 0 and exit 3.
  const std::string text =
      "2\n"
      "0 0 0\n"
      "1 5 1 0\n"
      "2 7 1 1\n"
      "3 0 1 2\n";
  std::istringstream is(text);
  const TaskGraph g = read_stg(is);
  EXPECT_EQ(g.num_tasks(), 2u);
  EXPECT_EQ(g.weight(0), 5u);
  EXPECT_EQ(g.weight(1), 7u);
  EXPECT_TRUE(graph::has_edge(g, 0, 1));
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Format, KeepDummiesOption) {
  const std::string text =
      "2\n"
      "0 0 0\n"
      "1 5 1 0\n"
      "2 7 1 1\n"
      "3 0 1 2\n";
  std::istringstream is(text);
  ParseOptions opts;
  opts.strip_dummies = false;
  const TaskGraph g = read_stg(is, opts);
  EXPECT_EQ(g.num_tasks(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.weight(0), 0u);
}

TEST(Format, SkipsCommentsAndBlankLines) {
  const std::string text =
      "# a comment\n"
      "1\n"
      "\n"
      "0 0 0\n"
      "# another\n"
      "1 9 1 0\n"
      "2 0 1 1\n";
  std::istringstream is(text);
  const TaskGraph g = read_stg(is);
  EXPECT_EQ(g.num_tasks(), 1u);
  EXPECT_EQ(g.weight(0), 9u);
}

TEST(Format, RejectsMalformedInput) {
  const auto expect_fail = [](const std::string& text) {
    std::istringstream is(text);
    EXPECT_THROW((void)read_stg(is), std::runtime_error) << text;
  };
  expect_fail("");                           // empty
  expect_fail("1\n0 0 0\n1 5 1 0\n");        // missing exit line
  expect_fail("1\n0 0 0\n2 5 1 0\n3 0 0\n"); // non-consecutive ids
  expect_fail("1\n0 0 0\n1 5 2 0\n2 0 0\n"); // missing predecessor id
  expect_fail("1\n0 0 0\n1 -5 0\n2 0 0\n");  // negative weight
}

// CRLF line ends, tab/VT/FF separators, a missing final newline, an
// indented comment and a whitespace-only line each read as the LF form.
TEST(Format, SeparatorsAndLineEndings) {
  const auto read = [](const std::string& text) {
    std::istringstream is(text);
    return read_stg(is);
  };
  const TaskGraph want = read("3\n0 0 0\n1 5 1 0\n2 7 1 0\n3 9 2 1 2\n4 0 1 3\n");
  ASSERT_EQ(want.num_edges(), 2u);
  const std::string variants[] = {
      "3\r\n0 0 0\r\n1 5 1 0\r\n2 7 1 0\r\n3 9 2 1 2\r\n4 0 1 3\r\n",
      "3\n0\t0\t0\n1\v5\f1 0\n2 7\t1\v0\n3\f9 2\t1 2\n4 0 1 3\n",
      "3\n0 0 0\n1 5 1 0\n2 7 1 0\n3 9 2 1 2\n4 0 1 3",
      "3\n0 0 0\n  \t# indented comment\n1 5 1 0\n2 7 1 0\n3 9 2 1 2\n4 0 1 3\n",
      "3\n0 0 0\n1 5 1 0\n \t\v\f\r\n2 7 1 0\n3 9 2 1 2\n4 0 1 3\n",
  };
  for (const std::string& text : variants) {
    SCOPED_TRACE(text);
    const TaskGraph g = read(text);
    ASSERT_EQ(g.num_tasks(), want.num_tasks());
    EXPECT_EQ(g.num_edges(), want.num_edges());
    for (TaskId v = 0; v < g.num_tasks(); ++v) {
      EXPECT_EQ(g.weight(v), want.weight(v));
      const auto a = g.successors(v);
      const auto b = want.successors(v);
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << v;
    }
  }
}

TEST(Format, WriteReadRoundTripPreservesStructure) {
  TaskGraphBuilder b("roundtrip");
  const TaskId a = b.add_task(3), c = b.add_task(4), d = b.add_task(5);
  b.add_edge(a, c);
  b.add_edge(a, d);
  b.add_edge(c, d);
  const TaskGraph g = b.build();

  std::stringstream ss;
  write_stg(g, ss);
  const TaskGraph h = read_stg(ss);
  ASSERT_EQ(h.num_tasks(), g.num_tasks());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  for (TaskId v = 0; v < g.num_tasks(); ++v) EXPECT_EQ(h.weight(v), g.weight(v));
  EXPECT_EQ(graph::critical_path_length(h), graph::critical_path_length(g));
}

TEST(Format, RoundTripOnGeneratedGraph) {
  RandomGraphSpec spec;
  spec.num_tasks = 60;
  spec.method = GenMethod::kLayrPred;
  spec.seed = 5;
  const TaskGraph g = generate_random(spec);
  std::stringstream ss;
  write_stg(g, ss);
  const TaskGraph h = read_stg(ss);
  EXPECT_EQ(h.num_tasks(), g.num_tasks());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  EXPECT_EQ(h.total_work(), g.total_work());
  EXPECT_EQ(graph::critical_path_length(h), graph::critical_path_length(g));
}

// ------------------------------------------------------------- generators --

TEST(RandomGen, DeterministicInSeed) {
  RandomGraphSpec spec;
  spec.num_tasks = 80;
  spec.seed = 42;
  for (const GenMethod m : {GenMethod::kSameProb, GenMethod::kSamePred,
                            GenMethod::kLayrProb, GenMethod::kLayrPred}) {
    spec.method = m;
    const TaskGraph a = generate_random(spec);
    const TaskGraph b = generate_random(spec);
    EXPECT_EQ(a.num_edges(), b.num_edges());
    EXPECT_EQ(a.total_work(), b.total_work());
    EXPECT_EQ(graph::critical_path_length(a), graph::critical_path_length(b));
  }
}

TEST(RandomGen, WeightsWithinBounds) {
  RandomGraphSpec spec;
  spec.num_tasks = 200;
  spec.min_weight = 3;
  spec.max_weight = 17;
  for (const WeightDist d :
       {WeightDist::kUniform, WeightDist::kBimodal, WeightDist::kGeometric}) {
    spec.weight_dist = d;
    const TaskGraph g = generate_random(spec);
    for (TaskId v = 0; v < g.num_tasks(); ++v) {
      EXPECT_GE(g.weight(v), 3u);
      EXPECT_LE(g.weight(v), 17u);
    }
  }
}

TEST(RandomGen, SameProbMatchesTargetDegree) {
  RandomGraphSpec spec;
  spec.num_tasks = 2000;
  spec.method = GenMethod::kSameProb;
  spec.avg_degree = 3.0;
  spec.seed = 7;
  const TaskGraph g = generate_random(spec);
  const double avg_out = static_cast<double>(g.num_edges()) / 2000.0;
  EXPECT_NEAR(avg_out, 3.0, 0.3);
}

TEST(RandomGen, SamePredMatchesTargetDegree) {
  RandomGraphSpec spec;
  spec.num_tasks = 2000;
  spec.method = GenMethod::kSamePred;
  spec.avg_degree = 2.5;
  spec.seed = 8;
  const TaskGraph g = generate_random(spec);
  // Early tasks cannot reach the target (fewer candidates), so allow slack.
  const double avg_in = static_cast<double>(g.num_edges()) / 2000.0;
  EXPECT_NEAR(avg_in, 2.5, 0.3);
}

TEST(RandomGen, LayeredParallelismTracksLayerCount) {
  RandomGraphSpec spec;
  spec.num_tasks = 400;
  spec.method = GenMethod::kLayrPred;
  spec.avg_degree = 2.0;
  spec.seed = 9;

  spec.num_layers = 10;  // wide: ~40 tasks per layer
  const double wide = graph::average_parallelism(generate_random(spec));
  spec.num_layers = 100;  // narrow: ~4 tasks per layer
  const double narrow = graph::average_parallelism(generate_random(spec));
  EXPECT_GT(wide, narrow);
  EXPECT_GT(wide, 5.0);
  EXPECT_LT(narrow, 10.0);
}

TEST(RandomGen, LayrProbProducesAcyclicLayeredGraph) {
  RandomGraphSpec spec;
  spec.num_tasks = 300;
  spec.method = GenMethod::kLayrProb;
  spec.num_layers = 20;
  spec.avg_degree = 2.0;
  spec.seed = 10;
  const TaskGraph g = generate_random(spec);  // build() validates the DAG
  EXPECT_EQ(g.num_tasks(), 300u);
  EXPECT_GT(g.num_edges(), 100u);
}

TEST(RandomGen, SingleTaskGraph) {
  RandomGraphSpec spec;
  spec.num_tasks = 1;
  const TaskGraph g = generate_random(spec);
  EXPECT_EQ(g.num_tasks(), 1u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(RandomGen, RejectsDegenerateSpecs) {
  RandomGraphSpec spec;
  spec.num_tasks = 0;
  EXPECT_THROW((void)generate_random(spec), std::invalid_argument);
  spec.num_tasks = 10;
  spec.min_weight = 5;
  spec.max_weight = 2;
  EXPECT_THROW((void)generate_random(spec), std::invalid_argument);
  spec.min_weight = 0;
  spec.max_weight = 2;
  EXPECT_THROW((void)generate_random(spec), std::invalid_argument);
  spec.min_weight = 1;
  spec.avg_degree = -1.0;
  EXPECT_THROW((void)generate_random(spec), std::invalid_argument);
}

TEST(RandomGen, ExtremeDensitySaturates) {
  RandomGraphSpec spec;
  spec.num_tasks = 20;
  spec.method = GenMethod::kSameProb;
  spec.avg_degree = 1000.0;  // p clamps to 1: complete DAG
  const TaskGraph g = generate_random(spec);
  EXPECT_EQ(g.num_edges(), 20u * 19u / 2u);
  EXPECT_DOUBLE_EQ(graph::average_parallelism(g), 1.0);
}

// ----------------------------------------------------- application graphs --

struct AppCase {
  const char* name;
  AppGraphSpec (*spec)();

  // gtest's default byte dump of this struct would print the pointers,
  // whose addresses change from run to run, into the listed test names.
  friend void PrintTo(const AppCase& c, std::ostream* os) { *os << c.name; }
};

class AppSynthesis : public ::testing::TestWithParam<AppCase> {};

TEST_P(AppSynthesis, MatchesTable2Exactly) {
  const AppGraphSpec spec = GetParam().spec();
  const TaskGraph g = synthesize_app_graph(spec);
  EXPECT_EQ(g.name(), spec.name);
  EXPECT_EQ(g.num_tasks(), spec.nodes);
  EXPECT_EQ(g.num_edges(), spec.edges);
  EXPECT_EQ(g.total_work(), spec.work);
  EXPECT_EQ(graph::critical_path_length(g), spec.cpl);
}

INSTANTIATE_TEST_SUITE_P(Table2, AppSynthesis,
                         ::testing::Values(AppCase{"fpppp", fpppp_spec},
                                           AppCase{"robot", robot_spec},
                                           AppCase{"sparse", sparse_spec}),
                         [](const auto& pinfo) { return std::string(pinfo.param.name); });

TEST(AppSynthesis, ParallelismMatchesPaperDerivedValues) {
  // W/CPL from Table 2: fpppp 6.70, robot 4.51, sparse 15.74.
  EXPECT_NEAR(graph::average_parallelism(synthesize_app_graph(fpppp_spec())), 6.70, 0.01);
  EXPECT_NEAR(graph::average_parallelism(synthesize_app_graph(robot_spec())), 4.51, 0.01);
  EXPECT_NEAR(graph::average_parallelism(synthesize_app_graph(sparse_spec())), 15.74, 0.01);
}

TEST(AppSynthesis, RejectsImpossibleSpec) {
  AppGraphSpec bad;
  bad.name = "bad";
  bad.nodes = 10;
  bad.edges = 9;
  bad.cpl = 5;
  bad.work = 4;  // work < cpl
  EXPECT_THROW((void)synthesize_app_graph(bad), std::invalid_argument);

  bad.work = 100;
  bad.edges = 200;  // more edges than the construction can place on 10 nodes
  EXPECT_THROW((void)synthesize_app_graph(bad), std::invalid_argument);
}

TEST(AppSynthesis, GeneralSpecsSatisfiable) {
  AppGraphSpec spec;
  spec.name = "custom";
  spec.nodes = 40;
  spec.edges = 70;
  spec.cpl = 200;
  spec.work = 900;
  const TaskGraph g = synthesize_app_graph(spec);
  EXPECT_EQ(g.num_tasks(), 40u);
  EXPECT_EQ(g.num_edges(), 70u);
  EXPECT_EQ(g.total_work(), 900u);
  EXPECT_EQ(graph::critical_path_length(g), 200u);
}

// ------------------------------------------------------------------ suite --

TEST(Suite, GroupSpecsAreDeterministicAndStableUnderCount) {
  const auto a = random_group_specs(100, 8);
  const auto b = random_group_specs(100, 8);
  ASSERT_EQ(a.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].name, b[i].name);
  }
  // Prefix stability: a longer suite starts with the same graphs.
  const auto longer = random_group_specs(100, 16);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(longer[i].seed, a[i].seed);
}

TEST(Suite, CyclesAllFourMethods) {
  const auto specs = random_group_specs(50, 8);
  EXPECT_EQ(specs[0].method, GenMethod::kSameProb);
  EXPECT_EQ(specs[1].method, GenMethod::kSamePred);
  EXPECT_EQ(specs[2].method, GenMethod::kLayrProb);
  EXPECT_EQ(specs[3].method, GenMethod::kLayrPred);
  EXPECT_EQ(specs[4].method, GenMethod::kSameProb);
}

TEST(Suite, MakeRandomGroupProducesRequestedSizes) {
  const auto graphs = make_random_group(50, 12);
  ASSERT_EQ(graphs.size(), 12u);
  for (const TaskGraph& g : graphs) {
    EXPECT_EQ(g.num_tasks(), 50u);
    EXPECT_GT(g.total_work(), 0u);
  }
}

TEST(Suite, ParallelismSpreadCoversPaperRange) {
  // Figs 12/13 show parallelism from ~1 to ~50; a reasonable sample of the
  // suite must cover at least 2..25 for 1000-node graphs.
  const auto graphs = make_random_group(1000, 24);
  double lo = 1e9, hi = 0.0;
  for (const TaskGraph& g : graphs) {
    const double p = graph::average_parallelism(g);
    lo = std::min(lo, p);
    hi = std::max(hi, p);
  }
  EXPECT_LT(lo, 3.0);
  EXPECT_GT(hi, 20.0);
}

TEST(Suite, ApplicationGraphsComeInTable2Order) {
  const auto apps = application_graphs();
  ASSERT_EQ(apps.size(), 3u);
  EXPECT_EQ(apps[0].name(), "fpppp");
  EXPECT_EQ(apps[1].name(), "robot");
  EXPECT_EQ(apps[2].name(), "sparse");
}

TEST(Suite, GranularityConstantsMatchPaper) {
  // 1 ms and 10 us at 3.1 GHz.
  EXPECT_EQ(kCoarseGrainCyclesPerUnit, 3'100'000u);
  EXPECT_EQ(kFineGrainCyclesPerUnit, 31'000u);
  EXPECT_EQ(kCoarseGrainCyclesPerUnit / kFineGrainCyclesPerUnit, 100u);
}

TEST(Suite, FigureGroupSizesMatchPaper) {
  EXPECT_EQ(figure_group_sizes(),
            (std::vector<std::size_t>{50, 100, 500, 1000, 2000, 2500, 5000}));
}

}  // namespace
}  // namespace lamps::stg
