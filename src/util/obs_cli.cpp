#include "util/obs_cli.hpp"

#include <stdexcept>
#include <string>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lamps {

void ObsOptions::register_flags(CliParser& cli) {
  cli.add_option("trace-out", "write a Chrome trace-event JSON (chrome://tracing, Perfetto)",
                 &trace_out);
  cli.add_option("metrics-out", "write the metrics registry (.csv = CSV, else JSON)",
                 &metrics_out);
  cli.add_option("log-level", "stderr log level: debug|info|warn|error", &log_level);
  cli.add_flag("log-json", "structured JSON-lines log records instead of plain text",
               &log_json);
}

void ObsOptions::apply() const {
  if (!log_level.empty()) {
    if (log_level == "debug")
      obs::set_min_severity(obs::LogSeverity::kDebug);
    else if (log_level == "info")
      obs::set_min_severity(obs::LogSeverity::kInfo);
    else if (log_level == "warn")
      obs::set_min_severity(obs::LogSeverity::kWarn);
    else if (log_level == "error")
      obs::set_min_severity(obs::LogSeverity::kError);
    else
      throw std::invalid_argument("unknown --log-level: " + log_level +
                                  " (debug|info|warn|error)");
  }
  if (log_json) obs::set_structured_logging(true);
  if (!trace_out.empty()) obs::set_tracing_enabled(true);
}

bool ObsOptions::finish() const {
  // Through the log layer, not a raw stream: under --log-json these lines
  // wrap as structured records, keeping stderr pure JSON end to end.
  bool ok = true;
  if (!trace_out.empty()) {
    obs::set_tracing_enabled(false);
    if (obs::write_chrome_trace_file(trace_out)) {
      obs::emit_plain(obs::LogSeverity::kInfo,
                      "wrote trace " + trace_out + " (" +
                          std::to_string(obs::trace_span_count()) + " spans)");
    } else {
      obs::emit_plain(obs::LogSeverity::kError, "cannot write trace " + trace_out);
      ok = false;
    }
  }
  if (!metrics_out.empty()) {
    if (obs::write_metrics_file(metrics_out)) {
      obs::emit_plain(obs::LogSeverity::kInfo, "wrote metrics " + metrics_out);
    } else {
      obs::emit_plain(obs::LogSeverity::kError, "cannot write metrics " + metrics_out);
      ok = false;
    }
  }
  return ok;
}

int run_observed(const ObsOptions& opts, const char* span_name,
                 const std::function<int()>& body) {
  opts.apply();
  int rc = 0;
  {
    obs::Span root(span_name);
    rc = body();
  }
  if (!opts.finish() && rc == 0) rc = 1;
  return rc;
}

}  // namespace lamps
