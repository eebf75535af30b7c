// Structured JSON-lines logging for the long-running pieces (the serve
// daemon, the load generator, the experiment pipeline).
//
// One log record is one JSON object on one line:
//
//   {"ts_ns":182734091,"level":"info","event":"serve.listening",
//    "port":4500,"threads":8}
//
// `ts_ns` is monotonic nanoseconds on the *trace clock*
// (obs::monotonic_ns(), same epoch as --trace-out spans), so log records,
// spans and metric samples correlate on a single time axis.  Records are
// written atomically under one sink mutex — lines never interleave — and
// filtered by one process-wide level (set_min_severity, the --log-level
// flag), shared with the plain-text lines so the two paths can never
// disagree.
//
// LogEvent is a build-then-emit helper: construct with a severity and an
// event name, chain typed fields, and the record is written when the
// object goes out of scope.  Below the level filter the constructor does
// no formatting at all, so debug-level per-request events are one branch
// when disabled:
//
//   obs::LogEvent(obs::LogSeverity::kDebug, "serve.request")
//       .u64("req", id).str("outcome", "computed");
//
// Plain-text lines (emit_plain) keep their "[level] message" stderr
// format by default; set_structured_logging(true) (--log-json on the
// CLIs) re-routes them through this sink as {"event":"log","msg":...}
// records so *all* diagnostic output becomes machine-parseable.
// docs/observability.md documents the record schema.
#pragma once

#include <cstdint>
#include <optional>
#include <sstream>
#include <string_view>

namespace lamps::obs {

enum class LogSeverity : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

[[nodiscard]] const char* severity_name(LogSeverity s);

/// Process-wide minimum severity (default kInfo).
void set_min_severity(LogSeverity s);
[[nodiscard]] LogSeverity min_severity();

/// When on, emit_plain lines are wrapped as structured records instead of
/// "[level] message" text.  LogEvent always emits JSON.
void set_structured_logging(bool on);
[[nodiscard]] bool structured_logging();

/// Redirects all log output (tests, or a daemon log file).  nullptr
/// restores stderr.  The sink must outlive every log call.
void set_log_sink(std::ostream* sink);

/// Emits a plain "[level] message" line (or its structured wrapping, see
/// set_structured_logging) honoring the level filter.
void emit_plain(LogSeverity s, std::string_view message);

/// Process-wide request-id source for the serve daemon: monotonically
/// increasing from 1, threaded reader -> pool -> writer so every log
/// record and flight-recorder entry of one request shares one id.
[[nodiscard]] std::uint64_t next_request_id();

class LogEvent {
 public:
  LogEvent(LogSeverity severity, std::string_view event);
  ~LogEvent();
  LogEvent(const LogEvent&) = delete;
  LogEvent& operator=(const LogEvent&) = delete;

  /// True when the record passes the level filter (fields will be kept).
  [[nodiscard]] bool enabled() const { return body_.has_value(); }

  LogEvent& str(std::string_view key, std::string_view value);
  LogEvent& num(std::string_view key, double value);
  LogEvent& u64(std::string_view key, std::uint64_t value);
  LogEvent& i64(std::string_view key, std::int64_t value);
  LogEvent& boolean(std::string_view key, bool value);

 private:
  LogSeverity severity_{LogSeverity::kInfo};
  /// The partial record "{"ts_ns":...,"level":...,"event":...  — engaged
  /// only when the event passes the filter.
  std::optional<std::ostringstream> body_;
};

}  // namespace lamps::obs
