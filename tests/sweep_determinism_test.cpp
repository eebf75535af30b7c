// Observation-only determinism of the configuration searches: tracing,
// search telemetry, structured logging and the flight recorder must leave
// every result bit-identical (energy fields, chosen processor count,
// level, completion time, placements, and even the invocation count).
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <vector>

#include "core/strategy.hpp"
#include "graph/analysis.hpp"
#include "graph/transform.hpp"
#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
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

void expect_identical_results(const StrategyResult& a, const StrategyResult& b) {
  ASSERT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.num_procs, b.num_procs);
  EXPECT_EQ(a.level_index, b.level_index);
  EXPECT_EQ(a.schedules_computed, b.schedules_computed);
  EXPECT_EQ(a.completion.value(), b.completion.value());
  EXPECT_EQ(a.breakdown.dynamic.value(), b.breakdown.dynamic.value());
  EXPECT_EQ(a.breakdown.leakage.value(), b.breakdown.leakage.value());
  EXPECT_EQ(a.breakdown.intrinsic.value(), b.breakdown.intrinsic.value());
  EXPECT_EQ(a.breakdown.sleep.value(), b.breakdown.sleep.value());
  EXPECT_EQ(a.breakdown.wakeup.value(), b.breakdown.wakeup.value());
  EXPECT_EQ(a.breakdown.shutdowns, b.breakdown.shutdowns);
  ASSERT_EQ(a.schedule.has_value(), b.schedule.has_value());
  if (a.schedule.has_value()) {
    const sched::Schedule& sa = *a.schedule;
    const sched::Schedule& sb = *b.schedule;
    ASSERT_EQ(sa.num_procs(), sb.num_procs());
    ASSERT_EQ(sa.num_tasks(), sb.num_tasks());
    for (sched::ProcId p = 0; p < sa.num_procs(); ++p) {
      const auto ra = sa.on_proc(p);
      const auto rb = sb.on_proc(p);
      ASSERT_EQ(ra.size(), rb.size());
      for (std::size_t i = 0; i < ra.size(); ++i) {
        EXPECT_EQ(ra[i].task, rb[i].task);
        EXPECT_EQ(ra[i].start, rb[i].start);
        EXPECT_EQ(ra[i].finish, rb[i].finish);
      }
    }
  }
}

void expect_identical_telemetry(const obs::SearchTelemetry& a,
                                const obs::SearchTelemetry& b) {
  EXPECT_EQ(a.strategy, b.strategy);
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.chosen_procs, b.chosen_procs);
  EXPECT_EQ(a.chosen_level, b.chosen_level);
  EXPECT_EQ(a.energy_total_j, b.energy_total_j);
  EXPECT_EQ(a.schedules_computed, b.schedules_computed);
  ASSERT_EQ(a.probes.size(), b.probes.size());
  for (std::size_t i = 0; i < a.probes.size(); ++i) {
    EXPECT_EQ(a.probes[i].num_procs, b.probes[i].num_procs);
    EXPECT_STREQ(a.probes[i].phase, b.probes[i].phase);
    EXPECT_STREQ(a.probes[i].action, b.probes[i].action);
    EXPECT_EQ(a.probes[i].makespan, b.probes[i].makespan);
    EXPECT_EQ(a.probes[i].feasible, b.probes[i].feasible);
    EXPECT_EQ(a.probes[i].level_index, b.probes[i].level_index);
    EXPECT_EQ(a.probes[i].energy_j, b.probes[i].energy_j);
    EXPECT_EQ(a.probes[i].chosen, b.probes[i].chosen);
  }
}

// The acceptance bar for the observability layer: spans, metrics and
// telemetry are observation-only, so enabling all of them must leave
// every result bit-identical to the dark run.
TEST(SweepDeterminismTest, ObservabilityOnOffBitIdentical) {
  const auto group = stg::make_random_group(400, 1);
  const graph::TaskGraph g = graph::scale_weights(group[0], stg::kCoarseGrainCyclesPerUnit);
  for (const StrategyKind kind :
       {StrategyKind::kLamps, StrategyKind::kLampsPs, StrategyKind::kSnsPs}) {
    Problem prob = make_problem(g, 2.0);
    const StrategyResult dark = run_strategy(kind, prob);
    std::vector<obs::SearchTelemetry> records;
    for (int run = 0; run < 2; ++run) {
      obs::SearchTelemetry tel;
      tel.strategy = to_string(kind);
      prob.telemetry = &tel;
      obs::set_tracing_enabled(true);
      const StrategyResult observed = run_strategy(kind, prob);
      obs::set_tracing_enabled(false);
      prob.telemetry = nullptr;

      expect_identical_results(dark, observed);
      EXPECT_FALSE(tel.probes.empty());
      records.push_back(std::move(tel));
    }
    // The telemetry record itself is deterministic too.
    expect_identical_telemetry(records[0], records[1]);
  }
  EXPECT_GT(obs::trace_span_count(), 0U);
  obs::clear_trace();
}

// The live telemetry plane extends the same bar: structured logging (with
// a redirected sink and the filter wide open) and an actively-promoting
// flight recorder run *alongside* the search without perturbing a single
// bit of its output.  The log/flight machinery is process-global state
// shared with the serve daemon, so this is the cheap in-process proof of
// the byte-exactness contract the loadgen gate checks over the wire.
TEST(SweepDeterminismTest, LoggingAndFlightRecorderOnOffBitIdentical) {
  const auto group = stg::make_random_group(400, 1);
  const graph::TaskGraph g = graph::scale_weights(group[0], stg::kCoarseGrainCyclesPerUnit);
  for (const StrategyKind kind :
       {StrategyKind::kLamps, StrategyKind::kLampsPs, StrategyKind::kSnsPs}) {
    Problem prob = make_problem(g, 2.0);
    const StrategyResult dark = run_strategy(kind, prob);

    std::ostringstream sink;
    obs::set_log_sink(&sink);
    obs::set_structured_logging(true);
    obs::set_min_severity(obs::LogSeverity::kDebug);
    obs::set_tracing_enabled(true);
    // Threshold far below the record's latency: every record() promotes a
    // warn-level span dump through the structured sink mid-search.
    obs::FlightRecorder flights(16, 1e-9);
    obs::FlightRecord rec;
    rec.request_id = obs::next_request_id();
    rec.digest = 0x5eedULL;
    rec.arrival_ns = 1'000;
    rec.admit_ns = 2'000;
    rec.compute_start_ns = 3'000;
    rec.compute_end_ns = 1'500'000;
    rec.finish_ns = 1'600'000;
    rec.write_ns = 2'001'000;
    rec.response_bytes = 256;
    rec.outcome = obs::FlightOutcome::kComputed;

    flights.record(rec);
    obs::LogEvent(obs::LogSeverity::kInfo, "test.sweep_start")
        .str("strategy", to_string(kind));
    const StrategyResult lit = run_strategy(kind, prob);
    rec.request_id = obs::next_request_id();
    flights.record(rec);

    obs::set_tracing_enabled(false);
    obs::set_min_severity(obs::LogSeverity::kInfo);
    obs::set_structured_logging(false);
    obs::set_log_sink(nullptr);

    expect_identical_results(dark, lit);
    // The observability plane really was live, not silently disabled.
    EXPECT_EQ(flights.total_recorded(), 2U);
    EXPECT_NE(sink.str().find("serve.slow_request"), std::string::npos);
    EXPECT_NE(sink.str().find("test.sweep_start"), std::string::npos);
  }
  obs::clear_trace();
}

}  // namespace
}  // namespace lamps::core
