// Schedule JSON round-trip tests.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sched/list_scheduler.hpp"
#include "sched/schedule_io.hpp"
#include "stg/random_gen.hpp"
#include "util/errors.hpp"

namespace lamps::sched {
namespace {

TEST(ScheduleIo, RoundTripPreservesEverything) {
  stg::RandomGraphSpec spec;
  spec.num_tasks = 40;
  spec.method = stg::GenMethod::kLayrPred;
  spec.seed = 9;
  const graph::TaskGraph g = stg::generate_random(spec);
  const Schedule a = list_schedule_edf(g, 4, 10 * g.total_work());

  std::stringstream ss;
  write_schedule_json(a, ss);
  const Schedule b = read_schedule_json(ss);

  ASSERT_EQ(b.num_procs(), a.num_procs());
  ASSERT_EQ(b.num_tasks(), a.num_tasks());
  EXPECT_EQ(b.makespan(), a.makespan());
  for (graph::TaskId v = 0; v < g.num_tasks(); ++v) {
    EXPECT_EQ(b.placement(v).proc, a.placement(v).proc);
    EXPECT_EQ(b.placement(v).start, a.placement(v).start);
    EXPECT_EQ(b.placement(v).finish, a.placement(v).finish);
  }
  EXPECT_EQ(validate_schedule(b, g), "");
}

TEST(ScheduleIo, EmptyScheduleRoundTrips) {
  const Schedule a(3, 0);
  std::stringstream ss;
  write_schedule_json(a, ss);
  const Schedule b = read_schedule_json(ss);
  EXPECT_EQ(b.num_procs(), 3u);
  EXPECT_EQ(b.num_tasks(), 0u);
  EXPECT_EQ(b.makespan(), 0u);
}

TEST(ScheduleIo, AcceptsReorderedPlacements) {
  std::istringstream is(
      R"({"num_procs": 2, "num_tasks": 2, "placements": [
           {"task": 1, "proc": 0, "start": 5, "finish": 9},
           {"task": 0, "proc": 0, "start": 0, "finish": 5}]})");
  const Schedule s = read_schedule_json(is);
  EXPECT_EQ(s.placement(0).start, 0u);
  EXPECT_EQ(s.placement(1).start, 5u);
}

TEST(ScheduleIo, RejectsMalformedInput) {
  const auto expect_fail = [](const std::string& text) {
    std::istringstream is(text);
    EXPECT_THROW((void)read_schedule_json(is), std::runtime_error) << text;
  };
  expect_fail("");
  expect_fail("{}");  // num_procs missing
  expect_fail(R"({"num_procs": 0, "num_tasks": 0, "placements": []})");
  expect_fail(R"({"num_procs": 1, "bogus": 3})");
  expect_fail(R"({"num_procs": 1, "num_tasks": 1, "placements": [{"task": 0)");
  // Overlapping placements on one processor.
  expect_fail(
      R"({"num_procs": 1, "num_tasks": 2, "placements": [
           {"task": 0, "proc": 0, "start": 0, "finish": 5},
           {"task": 1, "proc": 0, "start": 3, "finish": 6}]})");
  // Duplicate task.
  expect_fail(
      R"({"num_procs": 2, "num_tasks": 1, "placements": [
           {"task": 0, "proc": 0, "start": 0, "finish": 5},
           {"task": 0, "proc": 1, "start": 0, "finish": 5}]})");
}

TEST(ScheduleIo, CyclePositionsPast2To63RoundTrip) {
  constexpr Cycles kStart = (Cycles{1} << 63) + 1;
  Schedule a(2, 2);
  a.place(0, 0, kStart, kStart + 4);
  a.place(1, 1, 3, kStart);
  const std::string json = to_schedule_json(a);
  EXPECT_NE(json.find("\"start\": 9223372036854775809"), std::string::npos);
  std::istringstream is(json);
  const Schedule b = read_schedule_json(is);
  EXPECT_EQ(b.placement(0).start, kStart);
  EXPECT_EQ(b.placement(0).finish, kStart + 4);
  EXPECT_EQ(b.placement(1).finish, kStart);
  EXPECT_EQ(to_schedule_json(b), json);
}

TEST(ScheduleIo, UnknownFieldsAreRejected) {
  for (const char* text :
       {R"({"num_procs": 1, "num_tasks": 0, "placements": [], "extra": 1})",
        R"({"num_procs": 1, "num_tasks": 1, "placements": [
             {"task": 0, "proc": 0, "start": 0, "finish": 5, "energy": 1}]})"}) {
    std::istringstream is(text);
    EXPECT_THROW((void)read_schedule_json(is), std::runtime_error) << text;
  }
}

// Every fault is one error type: InputError with E_JSON_PARSE.  A value
// that is not an integer in [0, 2^64) is refused, not wrapped or truncated.
TEST(ScheduleIo, ValuesOutsideU64AreTypedParseErrors) {
  for (const char* value : {"18446744073709551616", "-1", "1.5", "1e3", "\"7\""}) {
    std::istringstream is(std::string(R"({"num_procs": 1, "num_tasks": 1, "placements": [)") +
                          R"({"task": 0, "proc": 0, "start": )" + value +
                          R"(, "finish": 5}]})");
    try {
      (void)read_schedule_json(is);
      ADD_FAILURE() << "accepted start " << value;
    } catch (const InputError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kJsonParse) << value;
    }
  }
}

TEST(ScheduleIo, ToStringHelper) {
  Schedule s(1, 1);
  s.place(0, 0, 2, 4);
  const std::string json = to_schedule_json(s);
  EXPECT_NE(json.find("\"task\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"start\": 2"), std::string::npos);
}

}  // namespace
}  // namespace lamps::sched
