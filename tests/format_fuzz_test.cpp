// Property-style round-trip tests for the interchange formats, driven by
// the random generator suite: whatever the suite can produce must survive
// STG write/read and schedule-JSON write/read bit-exactly.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "graph/analysis.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/schedule_io.hpp"
#include "stg/format.hpp"
#include "stg/random_gen.hpp"
#include "stg/structured.hpp"
#include "stg/suite.hpp"
#include "util/errors.hpp"

namespace lamps::stg {
namespace {

using namespace std::string_view_literals;

struct FuzzCase {
  std::size_t num_tasks;
  std::size_t variant;
};

class FormatRoundTrip : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(FormatRoundTrip, StgPreservesStructureAndSchedulability) {
  const FuzzCase fc = GetParam();
  const auto specs = random_group_specs(fc.num_tasks, fc.variant + 1);
  const graph::TaskGraph g = generate_random(specs[fc.variant]);

  std::stringstream ss;
  write_stg(g, ss);
  const graph::TaskGraph h = read_stg(ss);

  ASSERT_EQ(h.num_tasks(), g.num_tasks());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  EXPECT_EQ(h.total_work(), g.total_work());
  EXPECT_EQ(graph::critical_path_length(h), graph::critical_path_length(g));
  for (graph::TaskId v = 0; v < g.num_tasks(); ++v) {
    EXPECT_EQ(h.weight(v), g.weight(v));
    EXPECT_EQ(h.in_degree(v), g.in_degree(v));
    EXPECT_EQ(h.out_degree(v), g.out_degree(v));
  }
  // The round-tripped graph schedules identically (same LS-EDF makespan).
  const Cycles deadline = 4 * graph::critical_path_length(g);
  EXPECT_EQ(sched::list_schedule_edf(h, 4, deadline).makespan(),
            sched::list_schedule_edf(g, 4, deadline).makespan());
}

TEST_P(FormatRoundTrip, ScheduleJsonRoundTripsForThisGraph) {
  const FuzzCase fc = GetParam();
  const auto specs = random_group_specs(fc.num_tasks, fc.variant + 1);
  const graph::TaskGraph g = generate_random(specs[fc.variant]);
  const sched::Schedule s = sched::list_schedule_edf(g, 3, 10 * g.total_work());

  std::stringstream ss;
  sched::write_schedule_json(s, ss);
  const sched::Schedule t = sched::read_schedule_json(ss);
  EXPECT_EQ(t.makespan(), s.makespan());
  EXPECT_EQ(sched::validate_schedule(t, g), "");
}

std::vector<FuzzCase> fuzz_cases() {
  std::vector<FuzzCase> cases;
  for (const std::size_t n : {5UL, 17UL, 64UL, 150UL})
    for (std::size_t v = 0; v < 4; ++v) cases.push_back(FuzzCase{n, v});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(SuiteGraphs, FormatRoundTrip, ::testing::ValuesIn(fuzz_cases()),
                         [](const auto& pinfo) {
                           return "n" + std::to_string(pinfo.param.num_tasks) + "_v" +
                                  std::to_string(pinfo.param.variant);
                         });

TEST(FormatStructured, StructuredFamiliesRoundTrip) {
  for (const graph::TaskGraph& g :
       {gaussian_elimination(8), fft_butterfly(4), out_tree(5), in_tree(5),
        divide_and_conquer(4), wavefront(6, 5)}) {
    std::stringstream ss;
    write_stg(g, ss);
    const graph::TaskGraph h = read_stg(ss);
    EXPECT_EQ(h.num_tasks(), g.num_tasks()) << g.name();
    EXPECT_EQ(h.num_edges(), g.num_edges()) << g.name();
    EXPECT_EQ(graph::critical_path_length(h), graph::critical_path_length(g)) << g.name();
  }
}

TEST(FormatStructured, AppGraphsRoundTrip) {
  for (const graph::TaskGraph& g : application_graphs()) {
    std::stringstream ss;
    write_stg(g, ss);
    const graph::TaskGraph h = read_stg(ss);
    EXPECT_EQ(h.num_edges(), g.num_edges()) << g.name();
    EXPECT_EQ(h.total_work(), g.total_work()) << g.name();
  }
}

// ------------------------------------------------- malformed-input cases --
// Strict-validation cases: every malformed document must be rejected with a
// typed InputError carrying the source name and line, never accepted with
// silently-guessed values and never as an untyped exception.

struct BadStgCase {
  const char* label;
  std::string_view text;  ///< may hold NUL bytes
  ErrorCode code;
  const char* context;           ///< expected Error::context()
  const char* message_fragment;  ///< substring of Error::message()

  // Names the case by its label in test ids, not by its pointer bytes.
  friend void PrintTo(const BadStgCase& c, std::ostream* os) { *os << c.label; }
};

class MalformedStg : public ::testing::TestWithParam<BadStgCase> {};

TEST_P(MalformedStg, RejectedWithTypedErrorAndLineContext) {
  const BadStgCase& c = GetParam();
  std::istringstream is{std::string(c.text)};
  ParseOptions opts;
  opts.name = "bad.stg";
  try {
    (void)read_stg(is, opts);
    FAIL() << c.label << ": malformed input accepted";
  } catch (const InputError& e) {
    EXPECT_EQ(e.code(), c.code) << c.label << ": " << e.what();
    EXPECT_EQ(e.context(), c.context) << c.label << ": " << e.what();
    EXPECT_NE(e.message().find(c.message_fragment), std::string::npos)
        << c.label << ": " << e.what();
  }
}

// A minimal valid document for reference (1 real task):
//   1
//   0 0 0        dummy entry
//   1 5 1 0      the task, hanging off the entry
//   2 0 1 1      dummy exit
INSTANTIATE_TEST_SUITE_P(
    Cases, MalformedStg,
    ::testing::ValuesIn(std::vector<BadStgCase>{
        {"empty_document", "", ErrorCode::kStgParse, "bad.stg", "empty input"},
        {"garbage_count", "xyz\n", ErrorCode::kStgParse, "bad.stg:1",
         "task count is not a non-negative integer"},
        {"count_with_trailing", "1 2 3\n", ErrorCode::kStgParse, "bad.stg:1",
         "header line must hold exactly the task count"},
        {"prefix_number", "1\n0 0 0\n1 12xyz 1 0\n2 0 1 1\n", ErrorCode::kStgParse,
         "bad.stg:3", "not a non-negative integer: '12xyz'"},
        {"negative_weight", "1\n0 0 0\n1 -5 1 0\n2 0 1 1\n", ErrorCode::kStgParse,
         "bad.stg:3", "processing time is negative"},
        {"duplicate_task_id", "2\n0 0 0\n1 5 1 0\n1 5 1 0\n3 0 1 1\n",
         ErrorCode::kStgParse, "bad.stg:4", "task ids must be consecutive"},
        {"non_consecutive_id", "2\n0 0 0\n1 5 1 0\n3 5 1 0\n3 0 1 1\n",
         ErrorCode::kStgParse, "bad.stg:4", "task ids must be consecutive"},
        {"missing_weight", "1\n0 0 0\n1\n2 0 1 1\n", ErrorCode::kStgParse, "bad.stg:3",
         "missing weight/pred-count"},
        {"pred_count_mismatch", "1\n0 0 0\n1 5 2 0\n2 0 1 1\n", ErrorCode::kStgParse,
         "bad.stg:3", "expected 2 predecessor ids, found 1"},
        {"duplicate_pred", "2\n0 0 0\n1 5 1 0\n2 5 2 1 1\n3 0 1 2\n",
         ErrorCode::kStgParse, "bad.stg:4", "duplicate predecessor 1"},
        {"self_predecessor", "1\n0 0 0\n1 5 1 1\n2 0 1 1\n", ErrorCode::kStgParse,
         "bad.stg:3", "lists itself as predecessor"},
        {"dangling_pred", "1\n0 0 0\n1 5 1 7\n2 0 1 1\n", ErrorCode::kStgParse,
         "bad.stg:3", "dangling edge: predecessor 7"},
        {"edge_from_dummy_exit", "2\n0 0 0\n1 5 1 3\n2 5 1 1\n3 0 1 2\n",
         ErrorCode::kStgParse, "bad.stg:3", "edge from dummy exit"},
        {"too_few_lines", "2\n0 0 0\n1 5 1 0\n", ErrorCode::kStgParse, "bad.stg:3",
         "expected 4 task lines"},
        {"too_many_lines", "1\n0 0 0\n1 5 1 0\n2 0 1 1\n3 0 1 2\n", ErrorCode::kStgParse,
         "bad.stg:5", "more task lines than declared"},
        {"dependency_cycle", "2\n0 0 0\n1 5 1 2\n2 5 1 1\n3 0 1 2\n",
         ErrorCode::kGraphStructure, "bad.stg", "cycle"},
        // A '#' starts a comment only as a line's first token.
        {"trailing_hash", "1\n0 0 0\n1 5 1 0 # note\n2 0 1 1\n", ErrorCode::kStgParse,
         "bad.stg:3", "expected 1 predecessor ids, found 3"},
        {"weight_past_2_64", "1\n0 0 0\n1 18446744073709551616 1 0\n2 0 1 1\n",
         ErrorCode::kStgParse, "bad.stg:3", "not a non-negative integer"},
        {"nul_in_token", "1\n0 0 0\n1 5\0" "7 1 0\n2 0 1 1\n"sv, ErrorCode::kStgParse,
         "bad.stg:3", "not a non-negative integer"},
    }),
    [](const auto& pinfo) { return std::string(pinfo.param.label); });

TEST(MalformedStgFile, MissingFileIsTypedConfigError) {
  try {
    (void)read_stg_file("/nonexistent/graph.stg");
    FAIL() << "missing file accepted";
  } catch (const InputError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kConfig);
    EXPECT_EQ(e.context(), "/nonexistent/graph.stg");
  }
}

}  // namespace
}  // namespace lamps::stg
