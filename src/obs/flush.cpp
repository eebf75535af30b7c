#include "obs/flush.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace lamps::obs {

MetricsFlusher::MetricsFlusher(Options opts) : opts_(std::move(opts)) {
  opts_.interval_s = std::max(opts_.interval_s, 0.01);
}

MetricsFlusher::~MetricsFlusher() { stop(); }

void MetricsFlusher::start() {
  std::scoped_lock lock(mutex_);
  if (started_) return;
  if (!opts_.path.empty()) {
    out_.open(opts_.path, std::ios::app);
    if (!out_)
      throw std::runtime_error("cannot open metrics time series: " + opts_.path);
  }
  prev_counters_ = Registry::global().counter_snapshot();
  started_ = true;
  stopping_ = false;
  thread_ = std::thread([this] { run_loop(); });
}

void MetricsFlusher::stop() {
  {
    std::scoped_lock lock(mutex_);
    if (!started_ || stopping_) {
      if (thread_.joinable()) thread_.join();
      return;
    }
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  // Final sample after the thread is quiet, so the series always ends
  // with the drained state.
  std::scoped_lock lock(mutex_);
  emit_sample_locked();
  if (out_.is_open()) out_.close();
  started_ = false;
}

std::size_t MetricsFlusher::samples() const {
  std::scoped_lock lock(mutex_);
  return samples_;
}

void MetricsFlusher::run_loop() {
  std::unique_lock lock(mutex_);
  const auto interval = std::chrono::duration<double>(opts_.interval_s);
  while (!stopping_) {
    if (cv_.wait_for(lock, interval, [this] { return stopping_; })) break;
    emit_sample_locked();
  }
}

void MetricsFlusher::emit_sample_locked() {
  Registry& reg = Registry::global();
  std::map<std::string, std::uint64_t> counters = reg.counter_snapshot();

  std::ostringstream os;
  os << "{\"ts_ns\":" << monotonic_ns() << ",\"seq\":" << samples_ << ",\"deltas\":{";
  const char* sep = "";
  for (const auto& [name, value] : counters) {
    const auto it = prev_counters_.find(name);
    const std::uint64_t prev = it == prev_counters_.end() ? 0 : it->second;
    if (value <= prev) continue;  // quiet (or reset) counters stay off the line
    os << sep;
    write_json_string(os, name);
    os << ':' << (value - prev);
    sep = ",";
  }
  os << "},\"metrics\":";
  reg.write_json_compact(os);
  os << '}';
  prev_counters_ = std::move(counters);
  // Each sample's gauge max is the peak within its own interval.
  reg.reset_gauge_maxes();

  if (out_.is_open()) {
    out_ << os.str() << '\n';
    out_.flush();
  }
  ++samples_;
}

}  // namespace lamps::obs
