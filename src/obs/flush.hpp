// Periodic metrics export: a background thread that appends one compact
// registry snapshot per interval to a JSONL time series.
//
// The offline exporters (--metrics-out) only show the end state of a run;
// a long-running daemon needs the *trajectory* — when did the cache warm
// up, when did the queue back up, when did tail latency spike.  Each
// sample is one line:
//
//   {"ts_ns":<monotonic>,"seq":3,"deltas":{"serve.requests_ok":412,...},
//    "metrics":{...full compact registry...}}
//
// `deltas` carries every counter that moved since the previous sample
// (per-interval rates fall out by dividing by the interval), and gauges'
// high-water marks are re-armed after each sample
// (Registry::reset_gauge_maxes), so each line's gauge `max` is the peak
// *within that interval* while live values are untouched.  `ts_ns` is the
// shared trace clock (obs::monotonic_ns), so samples line up with spans
// and log records.
//
// Samples are appended to a file; with an empty path the flusher still
// samples (and re-arms the gauge maxima) but writes nothing.  stop() emits
// one final sample so the series always covers the full lifetime.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>

namespace lamps::obs {

class MetricsFlusher {
 public:
  struct Options {
    double interval_s{1.0};  ///< clamped to >= 0.01
    std::string path;        ///< JSONL file to append to ("" = none)
  };

  explicit MetricsFlusher(Options opts);
  ~MetricsFlusher();

  MetricsFlusher(const MetricsFlusher&) = delete;
  MetricsFlusher& operator=(const MetricsFlusher&) = delete;

  /// Opens the output and starts the flusher thread.  Throws
  /// std::runtime_error when the path cannot be opened.
  void start();

  /// Emits one final sample, then joins the thread.  Idempotent.
  void stop();

  [[nodiscard]] std::size_t samples() const;

 private:
  void run_loop();
  void emit_sample_locked();

  Options opts_;
  std::ofstream out_;
  std::thread thread_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_{false};
  bool started_{false};
  std::size_t samples_{0};
  std::map<std::string, std::uint64_t> prev_counters_;
};

}  // namespace lamps::obs
