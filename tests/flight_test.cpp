// Unit tests for the live-telemetry additions (src/obs): the request
// flight recorder (seqlock ring wraparound, newest-first reads,
// slow-request promotion, the flightz JSON record), the structured
// JSON-lines logger, and the periodic metrics flusher.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight.hpp"
#include "obs/flush.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "util/json_value.hpp"

namespace lamps::obs {
namespace {

/// Restores the process-wide log configuration a test touched.
struct LogGuard {
  ~LogGuard() {
    set_log_sink(nullptr);
    set_structured_logging(false);
    set_min_severity(LogSeverity::kInfo);
  }
};

FlightRecord make_record(std::uint64_t id, std::int64_t base_ns = 1'000) {
  FlightRecord r;
  r.request_id = id;
  r.digest = 0xdeadbeefcafef00dULL;
  r.arrival_ns = base_ns;
  r.admit_ns = base_ns + 10'000;
  r.compute_start_ns = base_ns + 50'000;
  r.compute_end_ns = base_ns + 950'000;
  r.finish_ns = base_ns + 960'000;
  r.write_ns = base_ns + 1'000'000;  // 1 ms arrival -> write
  r.response_bytes = 410;
  r.outcome = FlightOutcome::kComputed;
  return r;
}

TEST(FlightRecorderTest, RingKeepsTheNewestRecordsAfterWraparound) {
  FlightRecorder rec(8);
  for (std::uint64_t i = 1; i <= 20; ++i) rec.record(make_record(i));
  EXPECT_EQ(rec.total_recorded(), 20U);
  EXPECT_EQ(rec.capacity(), 8U);

  const std::vector<FlightRecord> last = rec.last(100);
  ASSERT_EQ(last.size(), 8U);  // the ring holds capacity, not total
  for (std::size_t i = 0; i < last.size(); ++i)
    EXPECT_EQ(last[i].request_id, 20 - i);  // newest first
}

TEST(FlightRecorderTest, LastHonorsTheRequestedCount) {
  FlightRecorder rec(8);
  for (std::uint64_t i = 1; i <= 5; ++i) rec.record(make_record(i));
  const std::vector<FlightRecord> last = rec.last(3);
  ASSERT_EQ(last.size(), 3U);
  EXPECT_EQ(last[0].request_id, 5U);
  EXPECT_EQ(last[2].request_id, 3U);
}

TEST(FlightRecorderTest, ConcurrentWritersLoseNothingButDuplicates) {
  // 4 writers x 500 records through a 64-slot ring: every record() call is
  // accounted for as either resident, overwritten, or counted as dropped —
  // and the reader can always take a consistent snapshot mid-storm.
  const std::uint64_t dropped_before =
      Registry::global().counter_value("flight.dropped_records");
  FlightRecorder rec(64);
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w)
    writers.emplace_back([&rec, w] {
      for (std::uint64_t i = 0; i < 500; ++i)
        rec.record(make_record(static_cast<std::uint64_t>(w) * 1'000 + i));
    });
  for (int i = 0; i < 50; ++i) (void)rec.last(64);  // reads during the storm
  for (auto& t : writers) t.join();

  EXPECT_EQ(rec.total_recorded(), 2'000U);
  const std::vector<FlightRecord> last = rec.last(64);
  EXPECT_LE(last.size(), 64U);
  const std::uint64_t dropped =
      Registry::global().counter_value("flight.dropped_records") - dropped_before;
  // Drops are possible (a writer lapping the ring) but bounded by the
  // records that raced; the snapshot plus drops never exceeds the offered
  // load.
  EXPECT_LE(dropped, 2'000U);
}

TEST(FlightRecorderTest, SlowRequestsArePromotedToStructuredWarnRecords) {
  LogGuard guard;
  Counter& slow = counter("serve.slow_requests");
  const std::uint64_t before = slow.value();

  std::ostringstream sink;
  set_log_sink(&sink);
  FlightRecorder rec(4, /*slow_threshold_s=*/1e-6);
  rec.record(make_record(7));  // 1 ms >> 1 us threshold
  set_log_sink(nullptr);

  EXPECT_EQ(slow.value(), before + 1);
  const std::string line = sink.str();
  ASSERT_FALSE(line.empty());
  const lamps::JsonValue doc =
      lamps::JsonValue::parse(line.substr(0, line.find('\n')));
  EXPECT_EQ(doc.get_string("event", ""), "serve.slow_request");
  EXPECT_EQ(doc.get_string("level", ""), "warn");
  EXPECT_DOUBLE_EQ(doc.get_number("req", 0.0), 7.0);
  EXPECT_NEAR(doc.get_number("total_ms", 0.0), 1.0, 1e-9);
  EXPECT_NEAR(doc.get_number("compute_ms", 0.0), 0.9, 1e-9);
}

TEST(FlightRecorderTest, FastRequestsAreNotPromoted) {
  LogGuard guard;
  Counter& slow = counter("serve.slow_requests");
  const std::uint64_t before = slow.value();

  std::ostringstream sink;
  set_log_sink(&sink);
  FlightRecorder rec(4, /*slow_threshold_s=*/10.0);
  rec.record(make_record(8));
  set_log_sink(nullptr);

  EXPECT_EQ(slow.value(), before);
  EXPECT_TRUE(sink.str().empty());
}

TEST(FlightRecorderTest, WriteJsonIsStrictWithHexDigestAndPhaseBreakdown) {
  std::ostringstream os;
  FlightRecorder::write_json(os, make_record(3));
  const lamps::JsonValue doc = lamps::JsonValue::parse(os.str());
  EXPECT_DOUBLE_EQ(doc.get_number("req", 0.0), 3.0);
  // 64-bit digests do not survive double-typed JSON numbers, so the wire
  // format is a fixed-width hex string.
  EXPECT_EQ(doc.get_string("digest", ""), "deadbeefcafef00d");
  EXPECT_EQ(doc.get_string("outcome", ""), "computed");
  EXPECT_NEAR(doc.get_number("total_ms", 0.0), 1.0, 1e-9);
  EXPECT_NEAR(doc.get_number("queue_ms", 0.0), 0.04, 1e-9);
  EXPECT_NEAR(doc.get_number("compute_ms", 0.0), 0.9, 1e-9);
  EXPECT_NEAR(doc.get_number("write_ms", 0.0), 0.04, 1e-9);
  EXPECT_DOUBLE_EQ(doc.get_number("bytes", 0.0), 410.0);
}

TEST(StructuredLogTest, LogEventEmitsOneValidJsonRecord) {
  LogGuard guard;
  std::ostringstream sink;
  set_log_sink(&sink);
  LogEvent(LogSeverity::kInfo, "test.event")
      .str("text", "quote \" and \\ backslash")
      .u64("n", 42)
      .num("x", 1.5)
      .boolean("flag", true);
  set_log_sink(nullptr);

  const std::string line = sink.str();
  ASSERT_EQ(line.back(), '\n');
  const lamps::JsonValue doc =
      lamps::JsonValue::parse(line.substr(0, line.size() - 1));
  EXPECT_GE(doc.get_number("ts_ns", -1.0), 0.0);
  EXPECT_EQ(doc.get_string("level", ""), "info");
  EXPECT_EQ(doc.get_string("event", ""), "test.event");
  EXPECT_EQ(doc.get_string("text", ""), "quote \" and \\ backslash");
  EXPECT_DOUBLE_EQ(doc.get_number("n", 0.0), 42.0);
  EXPECT_DOUBLE_EQ(doc.get_number("x", 0.0), 1.5);
  EXPECT_TRUE(doc.get("flag")->as_bool());
}

TEST(StructuredLogTest, EventsBelowTheFilterAreFreeAndSilent) {
  LogGuard guard;
  set_min_severity(LogSeverity::kWarn);
  std::ostringstream sink;
  set_log_sink(&sink);
  LogEvent ev(LogSeverity::kInfo, "suppressed.event");
  EXPECT_FALSE(ev.enabled());
  ev.str("k", "never formatted");
  set_log_sink(nullptr);
  EXPECT_TRUE(sink.str().empty());
}

TEST(StructuredLogTest, PlainLinesWrapAsRecordsWhenStructuredLoggingIsOn) {
  LogGuard guard;
  std::ostringstream sink;
  set_log_sink(&sink);

  emit_plain(LogSeverity::kWarn, "plain [text] line");
  EXPECT_EQ(sink.str(), "[warn] plain [text] line\n");

  sink.str({});
  set_structured_logging(true);
  emit_plain(LogSeverity::kWarn, "plain [text] line");
  const std::string line = sink.str();
  const lamps::JsonValue doc =
      lamps::JsonValue::parse(line.substr(0, line.find('\n')));
  EXPECT_EQ(doc.get_string("event", ""), "log");
  EXPECT_EQ(doc.get_string("level", ""), "warn");
  EXPECT_EQ(doc.get_string("msg", ""), "plain [text] line");
}

TEST(StructuredLogTest, RequestIdsAreMonotonicAcrossThreads) {
  const std::uint64_t first = next_request_id();
  std::vector<std::uint64_t> ids(64);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t)
    threads.emplace_back([&ids, t] {
      for (std::size_t i = 0; i < 16; ++i) ids[t * 16 + i] = next_request_id();
    });
  for (auto& t : threads) t.join();
  std::sort(ids.begin(), ids.end());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_GT(ids[i], first);
    if (i > 0) {
      EXPECT_NE(ids[i], ids[i - 1]);  // no duplicates
    }
  }
}

TEST(MetricsFlusherTest, HookReceivesParseableSamplesWithDeltas) {
  const std::string path = testing::TempDir() + "flushtest_deltas.jsonl";
  std::remove(path.c_str());
  Counter& ticks = counter("flushtest.hook_ticks");

  MetricsFlusher::Options opts;
  opts.interval_s = 0.02;
  opts.path = path;
  MetricsFlusher flusher(opts);
  flusher.start();
  ticks.inc(5);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  flusher.stop();  // emits the final sample

  ASSERT_GE(flusher.samples(), 1U);
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  std::remove(path.c_str());
  std::uint64_t delta_sum = 0;
  ASSERT_EQ(lines.size(), flusher.samples());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const lamps::JsonValue doc = lamps::JsonValue::parse(lines[i]);
    EXPECT_DOUBLE_EQ(doc.get_number("seq", -1.0), static_cast<double>(i));
    EXPECT_GE(doc.get_number("ts_ns", -1.0), 0.0);
    ASSERT_NE(doc.get("metrics"), nullptr);
    if (const lamps::JsonValue* deltas = doc.get("deltas");
        deltas != nullptr && deltas->get("flushtest.hook_ticks") != nullptr)
      delta_sum += static_cast<std::uint64_t>(
          deltas->get("flushtest.hook_ticks")->as_number());
  }
  // Whatever the sample timing, the per-sample deltas must add up to
  // exactly what was counted while the flusher ran.
  EXPECT_EQ(delta_sum, 5U);
}

TEST(MetricsFlusherTest, AppendsJsonLinesToAFileAndStopIsIdempotent) {
  const std::string path = testing::TempDir() + "flushtest_series.jsonl";
  std::remove(path.c_str());
  Counter& ticks = counter("flushtest.file_ticks");
  {
    MetricsFlusher::Options opts;
    opts.interval_s = 5.0;  // only the final stop() sample fires in time
    opts.path = path;
    MetricsFlusher flusher(opts);
    flusher.start();
    ticks.inc(3);
    flusher.stop();
    flusher.stop();  // idempotent
    EXPECT_EQ(flusher.samples(), 1U);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t parsed = 0;
  while (std::getline(in, line)) {
    const lamps::JsonValue doc = lamps::JsonValue::parse(line);
    EXPECT_NE(doc.get("metrics"), nullptr);
    ++parsed;
  }
  EXPECT_EQ(parsed, 1U);
  std::remove(path.c_str());
}

TEST(MetricsFlusherTest, UnwritablePathFailsLoudly) {
  MetricsFlusher::Options opts;
  opts.path = "/nonexistent-dir/flush.jsonl";
  MetricsFlusher flusher(opts);
  EXPECT_THROW(flusher.start(), std::runtime_error);
}

}  // namespace
}  // namespace lamps::obs
