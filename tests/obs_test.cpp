// Unit tests for the observability layer (src/obs): Chrome trace-event
// export shape, histogram bucket math, metric registry export, concurrent
// counter updates, and the search-telemetry JSON format.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace lamps::obs {
namespace {

/// Replaces the run-dependent numbers ("ts", "dur", "tid") with fixed
/// placeholders so the trace shape can be compared against a golden file.
std::string normalize_trace(const std::string& json) {
  std::string out = std::regex_replace(json, std::regex{R"#("ts":[0-9]+\.[0-9]{3})#"},
                                       "\"ts\":T");
  out = std::regex_replace(out, std::regex{R"#("dur":[0-9]+\.[0-9]{3})#"}, "\"dur\":T");
  out = std::regex_replace(out, std::regex{R"#("tid":[0-9]+)#"}, "\"tid\":N");
  return out;
}

TEST(TraceTest, GoldenChromeTraceShape) {
  set_tracing_enabled(true);
  clear_trace();
  {
    Span outer("golden/outer");
    Span inner("golden/inner");
  }
  set_tracing_enabled(false);
  ASSERT_EQ(trace_span_count(), 2U);

  std::ostringstream ss;
  write_chrome_trace(ss);
  clear_trace();

  // "X" complete events sorted by start time: the enclosing span first
  // (it starts earlier; on a start-time tie the longer duration wins).
  const std::string golden =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"name\":\"golden/outer\",\"cat\":\"lamps\",\"ph\":\"X\",\"pid\":1,"
      "\"tid\":N,\"ts\":T,\"dur\":T},\n"
      "{\"name\":\"golden/inner\",\"cat\":\"lamps\",\"ph\":\"X\",\"pid\":1,"
      "\"tid\":N,\"ts\":T,\"dur\":T}\n"
      "]}\n";
  EXPECT_EQ(normalize_trace(ss.str()), golden);
}

TEST(TraceTest, DisabledTracingRecordsNothing) {
  set_tracing_enabled(false);
  clear_trace();
  {
    Span s("never/recorded");
    Span t("also/never");
  }
  EXPECT_EQ(trace_span_count(), 0U);
}

TEST(TraceTest, SpanOpenAcrossDisableIsStillRecorded) {
  clear_trace();
  set_tracing_enabled(true);
  {
    Span s("closes/after-disable");
    set_tracing_enabled(false);
  }
  EXPECT_EQ(trace_span_count(), 1U);
  clear_trace();
}

TEST(TraceTest, SpansFromMultipleThreadsAreExported) {
  set_tracing_enabled(true);
  clear_trace();
  {
    Span main_span("threads/main");
    std::thread worker([] { Span s("threads/worker"); });
    worker.join();
  }
  set_tracing_enabled(false);
  EXPECT_EQ(trace_span_count(), 2U);

  std::ostringstream ss;
  write_chrome_trace(ss);
  clear_trace();
  const std::string json = ss.str();
  EXPECT_NE(json.find("threads/main"), std::string::npos);
  EXPECT_NE(json.find("threads/worker"), std::string::npos);
}

TEST(HistogramTest, BucketMath) {
  Histogram h({1.0, 2.0, 4.0});
  ASSERT_EQ(h.num_buckets(), 4U);
  // Inclusive upper bounds: v lands in the first bucket with v <= top.
  EXPECT_EQ(h.bucket_index(0.5), 0U);
  EXPECT_EQ(h.bucket_index(1.0), 0U);
  EXPECT_EQ(h.bucket_index(1.5), 1U);
  EXPECT_EQ(h.bucket_index(2.0), 1U);
  EXPECT_EQ(h.bucket_index(4.0), 2U);
  EXPECT_EQ(h.bucket_index(4.5), 3U);  // overflow
  EXPECT_EQ(h.upper_bound(0), 1.0);
  EXPECT_EQ(h.upper_bound(2), 4.0);
  EXPECT_TRUE(std::isinf(h.upper_bound(3)));

  for (const double v : {0.5, 1.5, 3.0, 5.0}) h.observe(v);
  EXPECT_EQ(h.count(), 4U);
  EXPECT_DOUBLE_EQ(h.sum(), 10.0);
  EXPECT_EQ(h.bucket_count(0), 1U);
  EXPECT_EQ(h.bucket_count(1), 1U);
  EXPECT_EQ(h.bucket_count(2), 1U);
  EXPECT_EQ(h.bucket_count(3), 1U);

  EXPECT_EQ(h.quantile_upper_bound(0.25), 1.0);
  EXPECT_EQ(h.quantile_upper_bound(0.5), 2.0);
  EXPECT_EQ(h.quantile_upper_bound(0.75), 4.0);
  EXPECT_TRUE(std::isinf(h.quantile_upper_bound(1.0)));

  h.reset();
  EXPECT_EQ(h.count(), 0U);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.quantile_upper_bound(0.5), 0.0);
}

TEST(HistogramTest, NanGoesToOverflowBucketAndNotIntoSum) {
  Histogram h({1.0, 2.0});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Regression: NaN compares false against every bound, so the old
  // lower_bound classification silently filed it in bucket 0 and poisoned
  // sum() for the rest of the process.
  EXPECT_EQ(h.bucket_index(nan), 2U);
  h.observe(0.5);
  h.observe(nan);
  h.observe(nan);
  EXPECT_EQ(h.count(), 3U);
  EXPECT_EQ(h.bucket_count(0), 1U);
  EXPECT_EQ(h.bucket_count(2), 2U);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5);  // NaN observations are excluded
  EXPECT_FALSE(std::isnan(h.quantile_upper_bound(0.5)));
}

TEST(HistogramTest, InfinitiesCountAtTheEdgesAndFlowIntoSum) {
  Histogram h({1.0, 2.0});
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(h.bucket_index(inf), 2U);
  EXPECT_EQ(h.bucket_index(-inf), 0U);
  h.observe(inf);
  h.observe(-inf);
  EXPECT_EQ(h.count(), 2U);
  EXPECT_EQ(h.bucket_count(0), 1U);
  EXPECT_EQ(h.bucket_count(2), 1U);
  EXPECT_TRUE(std::isnan(h.sum()));  // +inf + -inf; the JSON export emits null
}

TEST(MetricsTest, JsonExportEmitsNullForNonFiniteSum) {
  Registry r;
  Histogram& h = r.histogram("inf.lat", {1.0});
  h.observe(std::numeric_limits<double>::infinity());
  std::ostringstream ss;
  r.write_json(ss);
  EXPECT_NE(ss.str().find("\"sum\": null"), std::string::npos) << ss.str();
}

TEST(HistogramTest, RejectsUnsortedBounds) {
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram::exponential_bounds(0.0, 2.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram::exponential_bounds(1.0, 1.0, 4), std::invalid_argument);
}

TEST(HistogramTest, ExponentialBounds) {
  const std::vector<double> b = Histogram::exponential_bounds(1e-6, 4.0, 3);
  ASSERT_EQ(b.size(), 3U);
  EXPECT_DOUBLE_EQ(b[0], 1e-6);
  EXPECT_DOUBLE_EQ(b[1], 4e-6);
  EXPECT_DOUBLE_EQ(b[2], 1.6e-5);
}

TEST(MetricsTest, ConcurrentCounterIncrements) {
  Counter& c = counter("obs_test.concurrent");
  c.reset();
  Histogram& h = histogram("obs_test.concurrent_hist",
                           Histogram::exponential_bounds(1.0, 2.0, 8));
  h.reset();
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIncsPerThread = 100'000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c, &h, t] {
      for (std::size_t i = 0; i < kIncsPerThread; ++i) {
        c.inc();
        if (i % 100 == 0) h.observe(static_cast<double>(t));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kIncsPerThread);
  EXPECT_EQ(h.count(), kThreads * kIncsPerThread / 100);
}

TEST(MetricsTest, GaugeTracksValueAndHighWater) {
  Gauge g;
  g.set(2);
  g.add(3);
  EXPECT_EQ(g.value(), 5);
  EXPECT_EQ(g.max_value(), 5);
  g.add(-4);
  EXPECT_EQ(g.value(), 1);
  EXPECT_EQ(g.max_value(), 5);
  g.reset();
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(g.max_value(), 0);
}

TEST(MetricsTest, RegistryJsonExport) {
  Registry r;
  r.counter("a.count").inc(3);
  Gauge& g = r.gauge("b.depth");
  g.set(2);
  g.set(1);
  Histogram& h = r.histogram("c.lat", {1.0, 2.0});
  h.observe(0.5);
  h.observe(3.0);

  std::ostringstream ss;
  r.write_json(ss);
  const std::string golden =
      "{\n"
      "  \"counters\": {\n"
      "    \"a.count\": 3\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"b.depth\": {\"value\": 1, \"max\": 2}\n"
      "  },\n"
      "  \"histograms\": {\n"
      "    \"c.lat\": {\"count\": 2, \"sum\": 3.5, \"buckets\": "
      "[{\"le\": 1, \"count\": 1}, {\"le\": 2, \"count\": 0}, "
      "{\"le\": \"inf\", \"count\": 1}]}\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(ss.str(), golden);
}

TEST(MetricsTest, RegistryCsvExport) {
  Registry r;
  r.counter("a.count").inc(3);
  Gauge& g = r.gauge("b.depth");
  g.set(2);
  g.set(1);
  Histogram& h = r.histogram("c.lat", {1.0, 2.0});
  h.observe(0.5);
  h.observe(3.0);

  std::ostringstream ss;
  r.write_csv(ss);
  const std::string golden =
      "kind,name,field,value\n"
      "counter,a.count,value,3\n"
      "gauge,b.depth,value,1\n"
      "gauge,b.depth,max,2\n"
      "histogram,c.lat,count,2\n"
      "histogram,c.lat,sum,3.5\n"
      "histogram,c.lat,le_1,1\n"
      "histogram,c.lat,le_2,0\n"
      "histogram,c.lat,le_inf,1\n";
  EXPECT_EQ(ss.str(), golden);
}

TEST(MetricsTest, CounterValueOfUnknownNameIsZero) {
  const Registry r;
  EXPECT_EQ(r.counter_value("never.registered"), 0U);
}

TEST(TelemetryTest, GoldenJson) {
  SearchTelemetry tel;
  tel.strategy = "LAMPS+PS";
  tel.feasible = true;
  tel.chosen_procs = 3;
  tel.chosen_level = 7;
  tel.energy_total_j = 0.25;
  tel.energy_dynamic_j = 0.125;
  tel.energy_leakage_j = 0.0625;
  tel.energy_intrinsic_j = 0.03125;
  tel.energy_sleep_j = 0.015625;
  tel.energy_wakeup_j = 0.0;
  tel.shutdowns = 2;
  tel.schedules_computed = 5;
  SearchProbe p1;
  p1.num_procs = 4;
  p1.phase = "phase1";
  p1.action = "graham-upper";
  p1.feasible = 1;
  tel.probes.push_back(p1);
  SearchProbe p2;
  p2.num_procs = 3;
  p2.phase = "phase2";
  p2.action = "profile-eval";
  p2.makespan = 1000;
  p2.feasible = 1;
  p2.level_index = 7;
  p2.energy_j = 0.25;
  p2.chosen = true;
  tel.probes.push_back(p2);
  SearchProbe p3;
  p3.num_procs = 4;
  p3.phase = "phase2";
  p3.action = "bound-pruned";
  p3.energy_j = 0.5;  // the lower bound that beat the incumbent
  tel.probes.push_back(p3);

  std::ostringstream ss;
  write_telemetry_json(ss, {tel});
  const std::string golden =
      "[\n"
      "{\"strategy\": \"LAMPS+PS\",\n"
      " \"feasible\": true, \"chosen_procs\": 3, \"chosen_level\": 7,\n"
      " \"energy_j\": {\"total\": 0.25, \"dynamic\": 0.125, \"leakage\": 0.0625, "
      "\"intrinsic\": 0.03125, \"sleep\": 0.015625, \"wakeup\": 0},\n"
      " \"shutdowns\": 2, \"schedules_computed\": 5,\n"
      " \"probes\": [\n"
      "  {\"procs\": 4, \"phase\": \"phase1\", \"action\": \"graham-upper\", "
      "\"makespan\": -1, \"feasible\": 1, \"level\": -1, \"energy_j\": -1, "
      "\"chosen\": false},\n"
      "  {\"procs\": 3, \"phase\": \"phase2\", \"action\": \"profile-eval\", "
      "\"makespan\": 1000, \"feasible\": 1, \"level\": 7, \"energy_j\": 0.25, "
      "\"chosen\": true},\n"
      "  {\"procs\": 4, \"phase\": \"phase2\", \"action\": \"bound-pruned\", "
      "\"makespan\": -1, \"feasible\": -1, \"level\": -1, \"energy_j\": 0.5, "
      "\"chosen\": false}\n"
      " ]}\n"
      "]\n";
  EXPECT_EQ(ss.str(), golden);
}

TEST(MetricsTest, GaugeResetMaxKeepsValueAndReArmsHighWater) {
  Gauge g;
  g.set(7);
  g.set(3);
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(g.max_value(), 7);  // high-water survives the drop

  g.reset_max();
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(g.max_value(), 3);  // re-armed at the *current* level, not 0

  g.set(5);
  EXPECT_EQ(g.max_value(), 5);  // and it keeps tracking new peaks
}

TEST(MetricsTest, CounterSnapshotSeesEveryRegisteredCounter) {
  Counter& a = counter("snaptest.alpha");
  Counter& b = counter("snaptest.beta");
  a.inc(11);
  b.inc(2);
  const std::map<std::string, std::uint64_t> snap =
      Registry::global().counter_snapshot();
  ASSERT_TRUE(snap.count("snaptest.alpha"));
  ASSERT_TRUE(snap.count("snaptest.beta"));
  EXPECT_EQ(snap.at("snaptest.alpha"), a.value());
  EXPECT_EQ(snap.at("snaptest.beta"), b.value());
  EXPECT_EQ(Registry::global().counter_value("snaptest.alpha"), a.value());
  EXPECT_EQ(Registry::global().counter_value("snaptest.never_registered"), 0U);
}

TEST(MetricsTest, CompactJsonIsOneLineAndMatchesThePrettyDocument) {
  counter("compacttest.events").inc(4);
  gauge("compacttest.level").set(9);
  histogram("compacttest.lat", {0.1, 1.0}).observe(0.05);

  std::ostringstream compact;
  Registry::global().write_json_compact(compact);
  const std::string line = compact.str();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_NE(line.find("\"compacttest.events\":4"), std::string::npos);
  EXPECT_NE(line.find("\"compacttest.level\""), std::string::npos);
  EXPECT_NE(line.find("\"compacttest.lat\""), std::string::npos);
  EXPECT_NE(line.find("\"counters\""), std::string::npos);
  EXPECT_NE(line.find("\"gauges\""), std::string::npos);
  EXPECT_NE(line.find("\"histograms\""), std::string::npos);
}

TEST(TraceTest, SpanRingIsBoundedAndCountsDrops) {
  const std::size_t saved = trace_capacity();
  set_trace_capacity(16);
  const std::uint64_t dropped_before =
      Registry::global().counter_value("trace.dropped_spans");

  set_tracing_enabled(true);
  clear_trace();
  for (int i = 0; i < 100; ++i) {
    Span s("bounded-span");
  }
  set_tracing_enabled(false);

  EXPECT_LE(trace_span_count(), 16U);
  const std::uint64_t dropped =
      Registry::global().counter_value("trace.dropped_spans") - dropped_before;
  EXPECT_GE(dropped, 100U - 16U);

  set_trace_capacity(saved);
  clear_trace();
}

}  // namespace
}  // namespace lamps::obs
