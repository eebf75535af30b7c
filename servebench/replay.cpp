#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>
#include <stdexcept>

#include "client.hpp"
#include "core/incremental.hpp"
#include "core/request.hpp"
#include "net/protocol.hpp"
#include "net/result_cache.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace servebench {

namespace {

namespace core = lamps::core;
namespace net = lamps::net;

class Tracer {
 public:
  explicit Tracer(std::vector<Span>& spans) : spans_(spans) {}

  /// One span from construction to destruction, nested under the
  /// innermost open span.
  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t), index_(t.spans_.size()), parent_(t.open_) {
      t.spans_.push_back(Span{name, now_ns(), 0, parent_, t.request_, 0});
      t.open_ = static_cast<std::int32_t>(index_);
    }
    ~Scope() {
      t_.spans_[index_].end_ns = now_ns();
      t_.open_ = parent_;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::size_t index_;
    std::int32_t parent_;
  };

  void set_request(std::uint32_t r) { request_ = r; }

 private:
  std::vector<Span>& spans_;
  std::int32_t open_{-1};
  std::uint32_t request_{0};
};

/// The daemon's serving state, at its default capacities.
struct Pipeline {
  lamps::power::PowerModel model;
  lamps::power::DvsLadder ladder{model};
  net::ResultCache cache{net::ServerConfig{}.cache_capacity};
  core::ScheduleBank bank{net::ServerConfig{}.bank_capacity};
};

/// One request line through the calls net::Server::handle_line makes for
/// it, in its order: admin check, parse, digest (flight record), digest
/// (cache key), cache subscribe, and for a leader the compute, the
/// payload and the cache completion that answers it.  Returns the
/// response line; `led` tells whether it computed.
std::string serve_line(const std::string& line, Pipeline& p, Tracer& tr, bool& led) {
  const Tracer::Scope root(tr, "request");
  {
    const Tracer::Scope s(tr, "net::parse_admin_request");
    if (net::parse_admin_request(line).has_value())
      throw std::logic_error("request line parsed as an admin command");
  }
  std::optional<net::ParsedRequest> parsed;
  {
    const Tracer::Scope s(tr, "net::parse_schedule_request");
    parsed.emplace(net::parse_schedule_request(line, p.model));
  }
  std::uint64_t flight_digest = 0;
  std::uint64_t key = 0;
  {
    const Tracer::Scope s(tr, "core::service_request_digest");
    flight_digest = core::service_request_digest(parsed->request);
  }
  {
    const Tracer::Scope s(tr, "core::service_request_digest");
    key = core::service_request_digest(parsed->request);
  }
  if (flight_digest != key) throw std::logic_error("service_request_digest is not stable");

  std::string response;
  const auto t0 = std::chrono::steady_clock::now();
  auto consumer = [&](const std::string& payload, bool cached, const std::string& error) {
    const Tracer::Scope s(tr, "net::ok_response");
    if (!error.empty()) throw std::runtime_error("replay request failed: " + error);
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
            .count();
    response = net::ok_response(parsed->id_json, payload, cached, elapsed_ms);
  };
  bool leader = false;
  {
    const Tracer::Scope s(tr, "net::ResultCache::subscribe");
    leader = p.cache.subscribe(key, consumer);
  }
  led = leader;
  if (!leader) return response;

  std::string payload;
  {
    core::StrategyResult result;
    {
      const Tracer::Scope s(tr, "core::run_service_request");
      result = core::run_service_request(parsed->request, p.model, p.ladder, &p.bank);
    }
    const Tracer::Scope s(tr, "net::result_json");
    payload = net::result_json(result, p.ladder);
  }
  const Tracer::Scope s(tr, "net::ResultCache::complete");
  p.cache.complete(key, payload);
  return response;
}

}  // namespace

ReplayResult replay(Stream& stream, std::size_t timed_requests) {
  ReplayResult out;
  const std::size_t warm = stream.warmup_count();
  out.spans.reserve((warm + timed_requests) * 10);
  out.first_timed_request = warm;
  out.responses.reserve(timed_requests);

  Pipeline pipeline;
  Tracer tracer(out.spans);
  bool led = false;
  for (std::size_t k = 0; k < warm; ++k) {
    tracer.set_request(static_cast<std::uint32_t>(k));
    (void)serve_line(stream.warmup(k).line, pipeline, tracer, led);
  }
  const auto before = lamps::obs::Registry::global().counter_snapshot();
  for (std::size_t i = 0; i < timed_requests; ++i) {
    // Generating the line is the client's work, outside every span.
    const Request req = stream.timed(i);
    tracer.set_request(static_cast<std::uint32_t>(warm + i));
    out.responses.push_back(serve_line(req.line, pipeline, tracer, led));
    out.computed += led ? 1 : 0;
  }
  for (const auto& [name, value] : lamps::obs::Registry::global().counter_snapshot()) {
    const auto it = before.find(name);
    out.counter_delta[name] = value - (it == before.end() ? 0 : it->second);
  }
  return out;
}

std::map<std::string, double> self_ms_by_name(const ReplayResult& r) {
  std::vector<std::int64_t> self(r.spans.size());
  for (std::size_t i = 0; i < r.spans.size(); ++i) {
    const Span& s = r.spans[i];
    self[i] += s.end_ns - s.start_ns;
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
  }
  std::map<std::string, double> ms;
  for (std::size_t i = 0; i < r.spans.size(); ++i)
    if (r.spans[i].request >= r.first_timed_request)
      ms[r.spans[i].name] += static_cast<double>(self[i]) / 1e6;
  return ms;
}

void write_chrome_trace(std::ostream& os, const std::vector<Span>& spans,
                        const std::vector<Span>& client_spans) {
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const auto* list : {&spans, &client_spans})
    for (const Span& s : *list) origin = std::min(origin, s.start_ns);
  os << "{\"traceEvents\":[";
  const char* sep = "";
  for (const auto* list : {&spans, &client_spans}) {
    for (const Span& s : *list) {
      os << sep << "{\"name\":";
      lamps::write_json_string(os, s.name);
      os << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.lane << ",\"ts\":";
      lamps::write_json_double(os, static_cast<double>(s.start_ns - origin) / 1e3);
      os << ",\"dur\":";
      lamps::write_json_double(os, static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      os << ",\"args\":{\"req\":" << s.request << ",\"parent\":" << s.parent << "}}";
      sep = ",\n";
    }
  }
  os << "]}\n";
}

}  // namespace servebench
