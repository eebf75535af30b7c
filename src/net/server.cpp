#include "net/server.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "core/request.hpp"
#include "net/protocol.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/cancel.hpp"
#include "util/errors.hpp"
#include "util/faultinject.hpp"
#include "util/json.hpp"
#include "util/signal.hpp"

namespace lamps::net {

namespace {

struct ServeMetrics {
  obs::Counter& requests_total = obs::counter("serve.requests_total");
  obs::Counter& requests_ok = obs::counter("serve.requests_ok");
  obs::Counter& requests_bad = obs::counter("serve.requests_bad_request");
  obs::Counter& requests_overloaded = obs::counter("serve.requests_overloaded");
  obs::Counter& requests_internal = obs::counter("serve.requests_internal_error");
  obs::Counter& requests_too_large = obs::counter("serve.requests_too_large");
  obs::Counter& requests_deadline = obs::counter("serve.requests_deadline_exceeded");
  obs::Counter& read_timeouts = obs::counter("serve.read_timeouts");
  obs::Counter& idle_reaped = obs::counter("serve.idle_reaped");
  obs::Counter& slow_client_disconnects =
      obs::counter("serve.slow_client_disconnects");
  obs::Counter& write_queue_overflow = obs::counter("serve.write_queue_overflow");
  obs::Counter& admin_requests = obs::counter("serve.admin_requests");
  obs::Counter& connections_total = obs::counter("serve.connections_total");
  obs::Gauge& connections = obs::gauge("serve.connections");
  obs::Gauge& pending = obs::gauge("serve.pending");
  obs::Histogram& latency = obs::histogram(
      "serve.request_seconds",
      {0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0});
  // Phase breakdown of the same requests: admission->worker pickup,
  // worker compute, and payload-resolved->socket-write.  Queue and write
  // waits are often microseconds, so these start two decades lower than
  // serve.request_seconds.
  obs::Histogram& queue_seconds = obs::histogram(
      "serve.queue_seconds",
      {5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0});
  obs::Histogram& compute_seconds = obs::histogram(
      "serve.compute_seconds",
      {5e-5, 1e-4, 5e-4, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.5, 1.0, 5.0});
  obs::Histogram& write_seconds = obs::histogram(
      "serve.write_seconds",
      {5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0});
};

ServeMetrics& metrics() {
  static ServeMetrics m;
  return m;
}

std::int64_t seconds_to_ns(double s) {
  return s > 0.0 ? static_cast<std::int64_t>(s * 1e9) : 0;
}

}  // namespace

/// Per-client state, owned by the event loop (all fields loop-thread
/// only except ResponseSlot, see below).  Pipelined responses are kept
/// strictly in admission order: each admitted request appends a slot to
/// `responses`; whichever thread resolves the request fills the slot's
/// text, flips `ready` (release) and posts a flush; the loop only ever
/// writes the *head* slot, so completion order never reorders the wire.
/// The loop is the single commit point that stamps the write phase and
/// publishes the flight record to the ring.
struct Server::Connection {
  Socket socket;
  int fd{-1};
  std::optional<LineReader> reader;
  std::optional<obs::Span> span;  ///< "serve/connection", accept->close

  /// Filled by compute workers (or inline by the loop for cache hits and
  /// typed errors).  `text` is written before `ready` is released; the
  /// loop reads it only after acquiring `ready`.
  struct ResponseSlot {
    std::atomic<bool> ready{false};
    std::string text;
    std::shared_ptr<obs::FlightRecord> flight;  ///< nullptr: admin, unrecorded
  };

  std::deque<std::shared_ptr<ResponseSlot>> responses;

  // Write side: the head response currently flushing.  `out`/`out_off`
  // hold its unsent tail; the slot stays referenced until committed.
  std::string out;
  std::size_t out_off{0};
  std::shared_ptr<ResponseSlot> out_slot;
  std::int64_t write_start_ns{0};  ///< stall-deadline anchor (cumulative)

  bool reading{true};      ///< EPOLLIN subscribed
  bool want_write{false};  ///< EPOLLOUT subscribed
  bool peer_alive{true};
  bool input_done{false};
  bool closed{false};
  std::int64_t last_progress_ns{0};  ///< any bytes arrived
  std::int64_t last_line_ns{0};      ///< complete lines
  std::uint64_t input_timer{0};
  std::uint64_t write_timer{0};

  [[nodiscard]] std::size_t queued_responses() const {
    return responses.size() + (out_slot != nullptr ? 1 : 0);
  }
};

Server::Server(const ServerConfig& config)
    : config_(config), ladder_(model_), cache_(config.cache_capacity),
      bank_(config.bank_capacity),
      flights_(config.flight_capacity, config.slow_request_s) {
  read_timeout_ns_ = seconds_to_ns(config_.read_timeout_s);
  idle_timeout_ns_ = seconds_to_ns(config_.idle_timeout_s);
  write_timeout_ns_ = seconds_to_ns(config_.write_timeout_s);
}

Server::~Server() {
  request_drain();
  wait();
}

void Server::start() {
  pool_ = std::make_unique<ThreadPool>(config_.threads);
  max_pending_ =
      config_.max_pending > 0 ? config_.max_pending : pool_->num_threads() * 4;
  listener_ = std::make_unique<ListenSocket>(config_.port, config_.listen_backlog);
  listener_->set_nonblocking(true);
  port_ = listener_->port();
  start_ns_ = obs::monotonic_ns();
  {
    // Baseline for healthz interval deltas: counters are process-global,
    // so without this an earlier server's sheds would mark us degraded.
    std::scoped_lock lock(health_mutex_);
    health_prev_ = obs::Registry::global().counter_snapshot();
  }
  if (config_.chaos && config_.chaos->spec().any())
    obs::LogEvent(obs::LogSeverity::kWarn, "serve.chaos_enabled")
        .str("spec", to_string(config_.chaos->spec()));

  if (config_.metrics_interval_s > 0.0) {
    obs::MetricsFlusher::Options fopts;
    fopts.interval_s = config_.metrics_interval_s;
    fopts.path = config_.metrics_jsonl;
    flusher_ = std::make_unique<obs::MetricsFlusher>(std::move(fopts));
    try {
      flusher_->start();
    } catch (const std::runtime_error& e) {
      throw InternalError(ErrorCode::kIo, e.what());
    }
  }

  loop_ = std::make_unique<EventLoop>();
  // Registered before the loop thread exists, so the "loop thread only"
  // contract holds trivially.
  loop_->add_fd(listener_->fd(), /*want_read=*/true, /*want_write=*/false,
                [this](unsigned) { on_accept_ready(); });

  obs::LogEvent(obs::LogSeverity::kInfo, "serve.listening")
      .u64("port", port_)
      .u64("threads", pool_->num_threads())
      .u64("max_pending", max_pending_)
      .u64("flight_capacity", flights_.capacity())
      .num("slow_request_s", flights_.slow_threshold_s());
  loop_thread_ = std::thread([this] { loop_->run(); });
  // request_drain() raced ahead of start(): make sure the drain actually
  // begins now that the loop exists.
  if (draining()) loop_->post([this] { begin_drain(); });
}

void Server::request_drain() {
  if (draining_.exchange(true, std::memory_order_acq_rel)) return;
  obs::LogEvent(obs::LogSeverity::kInfo, "serve.drain_requested")
      .u64("pending", pending_.load(std::memory_order_relaxed));
  if (loop_) loop_->post([this] { begin_drain(); });
}

void Server::wait() {
  // The loop thread exits only once the drain finished: listener closed,
  // every admitted response flushed, every connection closed.
  if (loop_thread_.joinable()) loop_thread_.join();
  if (pool_) pool_->wait_idle();
  // The final flusher sample then captures the fully drained state.
  if (flusher_) flusher_->stop();
}

void Server::begin_drain() {
  if (drain_begun_) return;
  drain_begun_ = true;
  // Refuse new connections from the first moment of the drain.
  if (listener_) {
    loop_->remove_fd(listener_->fd());
    listener_->close();
  }
  // Drain contract: consume only what already reached us.  A final
  // non-blocking read sweep picks up bytes on the wire; once a socket is
  // quiet its input side is done.
  std::vector<ConnPtr> open;
  open.reserve(connections_.size());
  for (const auto& [fd, conn] : connections_) open.push_back(conn);
  for (const ConnPtr& conn : open) {
    if (conn->closed) continue;
    if (!conn->input_done) process_input(conn);
    if (conn->closed) continue;
    stop_input(conn);
    maybe_close(conn);
  }
  if (connections_.empty()) loop_->request_stop();
}

void Server::on_accept_ready() {
  if (drain_begun_ || draining()) return;
  // One accept per event: level-triggered epoll re-reports a non-empty
  // backlog immediately, and every accept() follows exactly one chaos
  // accept_stall decision, however the backlog batches.
  if (FaultInjector* chaos = config_.chaos.get(); chaos != nullptr) {
    const int stall = chaos->accept_stall_ms();
    if (stall > 0) std::this_thread::sleep_for(std::chrono::milliseconds(stall));
  }
  std::optional<Socket> accepted = listener_->accept();
  if (!accepted) return;

  metrics().connections_total.inc();
  metrics().connections.add(1);
  obs::LogEvent(obs::LogSeverity::kDebug, "serve.connection_accepted")
      .i64("open", obs::gauge("serve.connections").value());

  auto conn = std::make_shared<Connection>();
  conn->socket = std::move(*accepted);
  conn->socket.set_fault_injector(config_.chaos.get());
  conn->socket.set_nonblocking(true);
  conn->fd = conn->socket.fd();
  if (config_.sndbuf_bytes > 0)
    ::setsockopt(conn->fd, SOL_SOCKET, SO_SNDBUF, &config_.sndbuf_bytes,
                 sizeof config_.sndbuf_bytes);
  conn->span.emplace("serve/connection");
  conn->reader.emplace(conn->fd, config_.max_request_bytes, config_.chaos.get());
  conn->last_progress_ns = conn->last_line_ns = obs::monotonic_ns();
  connections_[conn->fd] = conn;
  loop_->add_fd(conn->fd, /*want_read=*/true, /*want_write=*/false,
                [this, conn](unsigned events) { on_connection_event(conn, events); });
  schedule_input_timer(conn);
}

void Server::on_connection_event(const ConnPtr& conn, unsigned events) {
  if (conn->closed) return;
  // Flush first: draining the write buffer may re-open read capacity
  // (max_write_queue) and cancels the stall timer before new reads
  // re-anchor clocks.
  if ((events & EventLoop::kWritable) != 0 && conn->want_write)
    flush_connection(conn);
  if (conn->closed) return;
  if ((events & (EventLoop::kReadable | EventLoop::kHangup)) != 0 &&
      conn->reading && !conn->input_done)
    process_input(conn);
}

void Server::process_input(const ConnPtr& conn) {
  LineReader& reader = *conn->reader;
  std::string line;
  for (;;) {
    if (conn->closed || conn->input_done) return;
    const LineReader::Status status = reader.next_line(line);
    if (status == LineReader::Status::kLine) {
      conn->last_line_ns = conn->last_progress_ns = obs::monotonic_ns();
      if (line.empty()) continue;
      if (config_.max_write_queue > 0 &&
          conn->queued_responses() >= config_.max_write_queue) {
        // A client that pipelines faster than it drains responses is
        // bounded here: stop reading, flush what was admitted,
        // disconnect.  Nothing admitted is ever dropped; the line that
        // tripped the bound was never admitted and gets no answer.
        metrics().write_queue_overflow.inc();
        obs::LogEvent(obs::LogSeverity::kWarn, "serve.write_queue_overflow")
            .u64("queued", conn->queued_responses())
            .u64("max_write_queue", config_.max_write_queue);
        stop_input(conn);
        maybe_close(conn);
        return;
      }
      handle_line(conn, line);
      continue;
    }
    if (status == LineReader::Status::kOverflow) {
      // The oversize line never parsed, so it gets the typed error with
      // a null id; the stream already resynced at the next '\n'.
      metrics().requests_total.inc();
      metrics().requests_too_large.inc();
      auto flight = std::make_shared<obs::FlightRecord>();
      flight->request_id = obs::next_request_id();
      flight->arrival_ns = obs::monotonic_ns();
      flight->finish_ns = flight->arrival_ns;
      flight->outcome = obs::FlightOutcome::kTooLarge;
      obs::LogEvent(obs::LogSeverity::kWarn, "serve.request_too_large")
          .u64("req", flight->request_id)
          .u64("max_request_bytes", config_.max_request_bytes);
      enqueue_ready(conn,
                    error_response("null", "too_large",
                                   "request line exceeds max_request_bytes (" +
                                       std::to_string(config_.max_request_bytes) + ")"),
                    std::move(flight));
      if (conn->closed || conn->input_done) return;
      conn->last_line_ns = conn->last_progress_ns = obs::monotonic_ns();
      continue;
    }
    if (status == LineReader::Status::kAgain) {
      const LineReader::Status filled = reader.fill();
      if (filled == LineReader::Status::kAgain) {
        conn->last_progress_ns = obs::monotonic_ns();
        continue;
      }
      if (filled == LineReader::Status::kWouldBlock) {
        // Socket drained; wait for the next EPOLLIN and re-judge the
        // stall clocks from the freshest progress stamps.
        schedule_input_timer(conn);
        return;
      }
      if (filled == LineReader::Status::kError) break;
      continue;  // kEof: loop once more so next_line flushes the final line
    }
    break;  // kEof or kError
  }
  // Input ended (EOF or transport error).  Admitted responses still
  // flush; the connection closes once they have.
  stop_input(conn);
  maybe_close(conn);
}

bool Server::handle_admin_line(const ConnPtr& conn, const std::string& line) {
  std::optional<AdminRequest> admin;
  try {
    admin = parse_admin_request(line);
  } catch (const std::exception& e) {
    // Admin-shaped but broken ({"cmd":"bogus"}): a bad request, but one
    // that never reaches admission.
    metrics().requests_bad.inc();
    enqueue_ready(conn, error_response("null", "bad_request", e.what()), nullptr);
    return true;
  }
  if (!admin.has_value()) return false;

  metrics().admin_requests.inc();
  enqueue_ready(conn, admin_response(*admin), nullptr);
  if (admin->cmd == AdminCommand::kQuit) {
    obs::LogEvent(obs::LogSeverity::kInfo, "serve.quitquitquit");
    request_drain();
    // Bridge to the CLI's signal loop so the process exits like on
    // SIGTERM (no-op when no handler machinery is installed, e.g. tests).
    lamps::request_drain_signal();
  }
  return true;
}

std::string Server::admin_response(const AdminRequest& req) {
  const double uptime_s =
      static_cast<double>(obs::monotonic_ns() - start_ns_) / 1e9;
  std::ostringstream os;
  os << "{\"id\":" << req.id_json << ",\"ok\":true,\"cmd\":\"" << to_string(req.cmd)
     << '"';
  switch (req.cmd) {
    case AdminCommand::kStatsz: {
      // Snapshot *under* the scrape lock (counter reads are lock-free, so
      // the hold is short).  Taken outside, two racing scrapers could
      // each snapshot, then assign out of order — the older snapshot
      // overwrites the newer baseline and the next scrape double-counts
      // its deltas.  Under the lock, baselines are monotonic: summed
      // deltas across any set of scrapers telescope to the counter total.
      std::scoped_lock lock(scrape_mutex_);
      std::map<std::string, std::uint64_t> snapshot =
          obs::Registry::global().counter_snapshot();
      os << ",\"uptime_s\":";
      write_json_double(os, uptime_s);
      os << ",\"scrape_seq\":" << scrape_seq_++
         << ",\"draining\":" << (draining() ? "true" : "false") << ",\"deltas\":{";
      const char* sep = "";
      for (const auto& [name, value] : snapshot) {
        const auto it = last_scrape_.find(name);
        const std::uint64_t prev = it == last_scrape_.end() ? 0 : it->second;
        if (value <= prev) continue;
        os << sep;
        write_json_string(os, name);
        os << ':' << (value - prev);
        sep = ",";
      }
      os << "},\"metrics\":";
      obs::Registry::global().write_json_compact(os);
      last_scrape_ = std::move(snapshot);
      break;
    }
    case AdminCommand::kHealthz: {
      // Degradation is judged over the window since the previous healthz
      // (seeded at start()), so a single ancient shed does not poison the
      // report forever.  Snapshot under the lock for the same baseline-
      // monotonicity reason as statsz.
      std::scoped_lock hlock(health_mutex_);
      std::map<std::string, std::uint64_t> snapshot =
          obs::Registry::global().counter_snapshot();
      const auto delta = [&](const char* name) -> std::uint64_t {
        const auto now_it = snapshot.find(name);
        const std::uint64_t now_v = now_it == snapshot.end() ? 0 : now_it->second;
        const auto prev_it = health_prev_.find(name);
        const std::uint64_t prev_v =
            prev_it == health_prev_.end() ? 0 : prev_it->second;
        return now_v > prev_v ? now_v - prev_v : 0;
      };
      const std::uint64_t d_total = delta("serve.requests_total");
      const std::uint64_t d_shed = delta("serve.requests_overloaded");
      const std::uint64_t d_deadline = delta("serve.requests_deadline_exceeded");
      const std::uint64_t d_idle = delta("serve.idle_reaped");
      const std::uint64_t d_read_to = delta("serve.read_timeouts");
      const std::uint64_t d_slow = delta("serve.slow_client_disconnects");
      const std::uint64_t d_wq = delta("serve.write_queue_overflow");
      health_prev_ = std::move(snapshot);
      const bool degraded =
          d_shed + d_deadline + d_idle + d_read_to + d_slow + d_wq > 0;
      const char* status = draining() ? "draining" : degraded ? "degraded" : "ok";
      const double denom = d_total > 0 ? static_cast<double>(d_total) : 1.0;
      os << ",\"status\":\"" << status << '"'
         << ",\"draining\":" << (draining() ? "true" : "false")
         << ",\"accepting\":" << (draining() ? "false" : "true") << ",\"uptime_s\":";
      write_json_double(os, uptime_s);
      os << ",\"pool_size\":" << pool_->size() << ",\"pool_queued\":" << pool_->queued()
         << ",\"pool_active\":" << pool_->active()
         << ",\"pending\":" << pending_.load(std::memory_order_relaxed)
         << ",\"max_pending\":" << max_pending_
         << ",\"connections\":" << obs::gauge("serve.connections").value()
         << ",\"interval\":{\"requests\":" << d_total << ",\"shed\":" << d_shed
         << ",\"deadline_exceeded\":" << d_deadline << ",\"idle_reaped\":" << d_idle
         << ",\"read_timeouts\":" << d_read_to
         << ",\"slow_client_disconnects\":" << d_slow
         << ",\"write_queue_overflow\":" << d_wq << "},\"shed_rate\":";
      write_json_double(os, static_cast<double>(d_shed) / denom);
      os << ",\"deadline_miss_rate\":";
      write_json_double(os, static_cast<double>(d_deadline) / denom);
      break;
    }
    case AdminCommand::kCachez: {
      const obs::Registry& reg = obs::Registry::global();
      os << ",\"result_cache\":{\"size\":" << cache_.size()
         << ",\"capacity\":" << cache_.capacity()
         << ",\"hits\":" << reg.counter_value("serve.cache_hits")
         << ",\"misses\":" << reg.counter_value("serve.cache_misses")
         << ",\"coalesced\":" << reg.counter_value("serve.singleflight_hits")
         << "},\"schedule_bank\":{\"enabled\":"
         << (config_.bank_capacity != 0 ? "true" : "false")
         << ",\"size\":" << bank_.size() << ",\"capacity\":" << bank_.capacity()
         << ",\"lease_hits\":" << reg.counter_value("schedule_bank.lease_hit")
         << ",\"lease_misses\":" << reg.counter_value("schedule_bank.lease_miss")
         << ",\"evictions\":" << reg.counter_value("schedule_bank.evictions") << '}';
      break;
    }
    case AdminCommand::kFlightz: {
      os << ",\"total\":" << flights_.total_recorded()
         << ",\"capacity\":" << flights_.capacity() << ",\"slow_threshold_ms\":";
      write_json_double(os, flights_.slow_threshold_s() * 1e3);
      os << ",\"records\":[";
      const char* sep = "";
      for (const obs::FlightRecord& rec : flights_.last(req.limit)) {
        os << sep;
        obs::FlightRecorder::write_json(os, rec);
        sep = ",";
      }
      os << ']';
      break;
    }
    case AdminCommand::kChaosz:
      if (config_.chaos) {
        os << ",\"enabled\":true,";
        config_.chaos->write_json(os);
      } else {
        os << ",\"enabled\":false";
      }
      break;
    case AdminCommand::kQuit:
      os << ",\"draining\":true";
      break;
  }
  os << "}\n";
  return os.str();
}

void Server::handle_line(const ConnPtr& conn, const std::string& line) {
  // Admin lane first: answered inline by the loop, untouched by
  // admission control or the pool, and kept out of the flight ring.
  if (handle_admin_line(conn, line)) return;

  obs::Span span("serve/request");
  metrics().requests_total.inc();

  auto flight = std::make_shared<obs::FlightRecord>();
  flight->request_id = obs::next_request_id();
  flight->arrival_ns = obs::monotonic_ns();

  std::optional<ParsedRequest> parsed;
  // Every parse failure is the client's: typed errors carry their own
  // message, and anything else a parser throws (an allocation failure on
  // a hostile size, a library length check) must not reach
  // std::terminate on the loop thread.
  std::string parse_error;
  try {
    parsed.emplace(parse_schedule_request(line, model_));
  } catch (const Error& e) {
    parse_error = e.what();
  } catch (const std::exception& e) {
    parse_error = std::string("malformed request: ") + e.what();
  }
  if (!parsed) {
    metrics().requests_bad.inc();
    flight->outcome = obs::FlightOutcome::kBadRequest;
    flight->finish_ns = obs::monotonic_ns();
    obs::LogEvent(obs::LogSeverity::kWarn, "serve.bad_request")
        .u64("req", flight->request_id)
        .str("error", parse_error);
    enqueue_ready(conn, error_response("null", "bad_request", parse_error),
                  std::move(flight));
    return;
  }
  // One hash per request: the flight record's digest is also the cache key.
  flight->digest = core::service_request_digest(parsed->request);

  if (pending_.fetch_add(1, std::memory_order_acq_rel) >= max_pending_) {
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    metrics().requests_overloaded.inc();
    flight->outcome = obs::FlightOutcome::kOverloaded;
    flight->finish_ns = obs::monotonic_ns();
    obs::LogEvent(obs::LogSeverity::kWarn, "serve.overloaded")
        .u64("req", flight->request_id)
        .u64("max_pending", max_pending_);
    enqueue_ready(conn,
                  error_response(parsed->id_json, "overloaded",
                                 "admission queue full (" + std::to_string(max_pending_) +
                                     " requests pending); retry with backoff"),
                  std::move(flight));
    return;
  }
  flight->admit_ns = obs::monotonic_ns();
  metrics().pending.set(static_cast<std::int64_t>(pending_.load(std::memory_order_relaxed)));

  // Wall-clock budget, anchored at arrival so queue time counts against
  // it.  Transport-level on purpose: the digest (and thus the cache key)
  // ignores it, and the leader's budget governs a single-flight group.
  const double budget_ms = parsed->deadline_budget_ms > 0.0
                               ? parsed->deadline_budget_ms
                               : config_.default_deadline_ms;
  const std::int64_t deadline_ns =
      budget_ms > 0.0
          ? flight->arrival_ns + static_cast<std::int64_t>(budget_ms * 1e6)
          : 0;

  auto request = std::make_shared<ParsedRequest>(std::move(*parsed));
  auto slot = std::make_shared<Connection::ResponseSlot>();
  slot->flight = flight;
  conn->responses.push_back(slot);

  // Exactly-once completion for this request, from whichever thread
  // resolves it: the loop (LRU hit), a worker (leader compute), or the
  // leader's failure path fanning out to the joined followers.  The
  // outcome classification leans on that: a cached payload delivered on
  // the admitting thread is an inline LRU hit, on any other thread a
  // single-flight join.  The consumer fills the connection's response
  // slot and hands the flush to the loop thread.
  const auto t0 = std::chrono::steady_clock::now();
  const std::thread::id admit_tid = std::this_thread::get_id();
  auto consumer = [this, slot, conn, flight, admit_tid, id_json = request->id_json, t0](
                      const std::string& payload, bool cached, const std::string& error) {
    std::string out;
    if (error.empty()) {
      const double elapsed_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      metrics().requests_ok.inc();
      metrics().latency.observe(elapsed_s);
      out = ok_response(id_json, payload, cached, elapsed_s * 1e3);
      flight->outcome = !cached ? obs::FlightOutcome::kComputed
                        : std::this_thread::get_id() == admit_tid
                            ? obs::FlightOutcome::kCacheHit
                            : obs::FlightOutcome::kCoalesced;
    } else if (error.rfind("deadline_exceeded", 0) == 0) {
      // Deadline misses fan out to single-flight followers too: whoever
      // joined a leader that ran out of budget gets the same retryable
      // typed error (docs/serving.md "Failure modes & guarantees").
      metrics().requests_deadline.inc();
      out = error_response(id_json, "deadline_exceeded", error);
      flight->outcome = obs::FlightOutcome::kDeadlineExceeded;
    } else {
      metrics().requests_internal.inc();
      out = error_response(id_json, "internal", error);
      flight->outcome = obs::FlightOutcome::kInternalError;
    }
    flight->finish_ns = obs::monotonic_ns();
    obs::LogEvent(obs::LogSeverity::kDebug, "serve.request")
        .u64("req", flight->request_id)
        .str("outcome", obs::to_string(flight->outcome));
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    metrics().pending.set(
        static_cast<std::int64_t>(pending_.load(std::memory_order_relaxed)));
    slot->text = std::move(out);
    slot->ready.store(true, std::memory_order_release);
    loop_->post([this, conn] { flush_connection(conn); });
  };

  const std::uint64_t key = flight->digest;
  if (!cache_.subscribe(key, std::move(consumer))) return;  // hit or joined a leader

  try {
    pool_->submit([this, request, key, flight, deadline_ns] {
      try {
        obs::Span compute_span("serve/compute");
        obs::counter("serve.requests_computed").inc();
        // Chaos queue aging happens before the deadline check so an
        // injected dispatch delay can produce real deadline misses.
        if (FaultInjector* chaos = config_.chaos.get(); chaos != nullptr) {
          const int delay = chaos->dispatch_delay_ms();
          if (delay > 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(delay));
        }
        flight->compute_start_ns = obs::monotonic_ns();
        if (deadline_ns > 0 && flight->compute_start_ns >= deadline_ns) {
          flight->compute_end_ns = flight->compute_start_ns;
          cache_.fail(key, "deadline_exceeded: budget spent in queue before "
                           "compute started; retry with backoff");
          return;
        }
        // The remaining budget rides the same cooperative-cancellation
        // rail the sweep runner uses: the scheduler hot loops poll
        // cancel_checkpoint() and abandon the search mid-compute.
        std::optional<CancelToken> token;
        std::optional<CancelScope> scope;
        if (deadline_ns > 0) {
          token.emplace(
              static_cast<double>(deadline_ns - flight->compute_start_ns) * 1e-9);
          scope.emplace(&*token);
        }
        // Incremental rescheduling: the bank carries deadline-invariant
        // artifacts between same-structure requests (response bytes are
        // unchanged — see core/incremental.hpp).
        core::ScheduleBank* bank = config_.bank_capacity != 0 ? &bank_ : nullptr;
        const std::string payload = result_json(
            core::run_service_request(request->request, model_, ladder_, bank), ladder_);
        flight->compute_end_ns = obs::monotonic_ns();
        cache_.complete(key, payload);
      } catch (const TimeoutError& e) {
        flight->compute_end_ns = obs::monotonic_ns();
        cache_.fail(key, std::string("deadline_exceeded: ") + e.what());
      } catch (const std::exception& e) {
        flight->compute_end_ns = obs::monotonic_ns();
        cache_.fail(key, e.what());
      }
    });
  } catch (const std::exception& e) {
    // Pool already stopping — answer instead of abandoning the flight.
    cache_.fail(key, e.what());
  }
}

void Server::enqueue_ready(const ConnPtr& conn, std::string response,
                           std::shared_ptr<obs::FlightRecord> flight) {
  auto slot = std::make_shared<Connection::ResponseSlot>();
  slot->text = std::move(response);
  slot->flight = std::move(flight);
  slot->ready.store(true, std::memory_order_release);
  conn->responses.push_back(std::move(slot));
  flush_connection(conn);
}

void Server::commit_response(const ConnPtr& conn) {
  if (conn->out_slot && conn->out_slot->flight) {
    // Single commit point: by here every other phase stamp happened
    // before the slot's ready flag was released, so the record is
    // complete and raceless when it enters the ring.
    obs::FlightRecord& rec = *conn->out_slot->flight;
    rec.write_ns = obs::monotonic_ns();
    rec.response_bytes = static_cast<std::uint32_t>(conn->out.size());
    if (rec.compute_start_ns > 0) {
      metrics().queue_seconds.observe(
          static_cast<double>(rec.compute_start_ns - rec.admit_ns) / 1e9);
      metrics().compute_seconds.observe(
          static_cast<double>(rec.compute_end_ns - rec.compute_start_ns) / 1e9);
    }
    if (rec.finish_ns > 0)
      metrics().write_seconds.observe(
          static_cast<double>(rec.write_ns - rec.finish_ns) / 1e9);
    flights_.record(rec);
  }
  conn->out_slot = nullptr;
  conn->out.clear();
  conn->out_off = 0;
}

void Server::flush_connection(const ConnPtr& conn) {
  if (conn->closed) return;
  for (;;) {
    if (conn->out_slot == nullptr) {
      // Strict per-connection ordering: only the head slot may flush,
      // and only once its resolver released the text.
      if (conn->responses.empty() ||
          !conn->responses.front()->ready.load(std::memory_order_acquire))
        break;
      conn->out_slot = conn->responses.front();
      conn->responses.pop_front();
      conn->out = std::move(conn->out_slot->text);
      conn->out_off = 0;
      // The stall clock anchors when the response *starts* flushing and
      // is never reset by partial progress: the budget is cumulative per
      // response, so a peer draining one byte per window still times out.
      conn->write_start_ns = loop_->now_ns();
    }
    if (!conn->peer_alive) {
      // Peer gone: consume (and record) the response without writing so
      // every compute completion is accounted before the close.
      conn->out_off = conn->out.size();
      commit_response(conn);
      continue;
    }
    if (conn->out_off < conn->out.size()) {
      std::size_t sent = 0;
      const Socket::IoStatus st = conn->socket.send_some(
          std::string_view(conn->out).substr(conn->out_off), &sent);
      if (st == Socket::IoStatus::kOk && sent > 0) {
        conn->out_off += sent;
        continue;
      }
      if (st == Socket::IoStatus::kError) {
        mark_peer_dead(conn, /*slow=*/false);
        continue;
      }
      // kWouldBlock (or a zero-byte chaos chunk): wait for EPOLLOUT with
      // the per-response stall budget running.
      set_want_write(conn, true);
      arm_write_timer(conn);
      return;
    }
    commit_response(conn);
  }
  // Nothing flushable right now.
  set_want_write(conn, false);
  if (conn->out_slot == nullptr && conn->write_timer != 0) {
    loop_->timers().cancel(conn->write_timer);
    conn->write_timer = 0;
  }
  maybe_close(conn);
}

void Server::mark_peer_dead(const ConnPtr& conn, bool slow) {
  if (!conn->peer_alive) return;
  conn->peer_alive = false;
  if (slow) {
    metrics().slow_client_disconnects.inc();
    obs::LogEvent(obs::LogSeverity::kWarn, "serve.slow_client_disconnect")
        .num("write_timeout_s", config_.write_timeout_s);
  }
  if (conn->write_timer != 0) {
    loop_->timers().cancel(conn->write_timer);
    conn->write_timer = 0;
  }
  // Stop parsing requests for a peer that stopped draining; shutdown
  // both directions so the kernel tears the stream down promptly.
  conn->socket.shutdown_both();
  stop_input(conn);
}

void Server::arm_write_timer(const ConnPtr& conn) {
  if (write_timeout_ns_ <= 0 || conn->write_timer != 0) return;
  const std::int64_t deadline = conn->write_start_ns + write_timeout_ns_;
  conn->write_timer = loop_->timers().arm(deadline, [this, conn] {
    conn->write_timer = 0;
    if (conn->closed || !conn->peer_alive || conn->out_slot == nullptr) return;
    const std::int64_t now = obs::monotonic_ns();
    if (now - conn->write_start_ns < write_timeout_ns_) {
      // The wheel fired early relative to this response's anchor (a
      // later response re-used the armed timer slot); re-arm for the
      // remainder.
      arm_write_timer(conn);
      return;
    }
    mark_peer_dead(conn, /*slow=*/true);
    flush_connection(conn);  // consume remaining slots, then maybe_close
  });
}

void Server::set_want_write(const ConnPtr& conn, bool on) {
  if (conn->want_write == on || conn->closed) return;
  conn->want_write = on;
  loop_->modify_fd(conn->fd, conn->reading, conn->want_write);
}

void Server::stop_input(const ConnPtr& conn) {
  if (conn->input_done) return;
  conn->input_done = true;
  if (conn->input_timer != 0) {
    loop_->timers().cancel(conn->input_timer);
    conn->input_timer = 0;
  }
  if (conn->reading && !conn->closed) {
    conn->reading = false;
    loop_->modify_fd(conn->fd, conn->reading, conn->want_write);
  }
}

void Server::schedule_input_timer(const ConnPtr& conn) {
  if (conn->input_timer != 0) {
    loop_->timers().cancel(conn->input_timer);
    conn->input_timer = 0;
  }
  if (conn->closed || conn->input_done) return;
  // Mid-line stalls and quiet connections are judged separately: an
  // incomplete line runs on the read clock, an empty buffer on the idle
  // clock.
  const bool partial = conn->reader->has_partial_line();
  std::int64_t deadline = 0;
  if (partial && read_timeout_ns_ > 0)
    deadline = conn->last_progress_ns + read_timeout_ns_;
  else if (!partial && idle_timeout_ns_ > 0)
    deadline = conn->last_line_ns + idle_timeout_ns_;
  if (deadline == 0) return;
  conn->input_timer = loop_->timers().arm(deadline, [this, conn] {
    conn->input_timer = 0;
    on_input_deadline(conn);
  });
}

void Server::on_input_deadline(const ConnPtr& conn) {
  if (conn->closed || conn->input_done) return;
  const std::int64_t now = obs::monotonic_ns();
  const bool partial = conn->reader->has_partial_line();
  if (read_timeout_ns_ > 0 && partial &&
      now - conn->last_progress_ns > read_timeout_ns_) {
    metrics().read_timeouts.inc();
    obs::LogEvent(obs::LogSeverity::kWarn, "serve.read_timeout")
        .num("read_timeout_s", config_.read_timeout_s);
    stop_input(conn);
    maybe_close(conn);
    return;
  }
  if (idle_timeout_ns_ > 0 && !partial && now - conn->last_line_ns > idle_timeout_ns_) {
    metrics().idle_reaped.inc();
    obs::LogEvent(obs::LogSeverity::kInfo, "serve.idle_reaped")
        .num("idle_timeout_s", config_.idle_timeout_s);
    stop_input(conn);
    maybe_close(conn);
    return;
  }
  // Progress happened since arming (or the buffer switched between the
  // partial and idle regimes): re-judge at the fresh deadline.
  schedule_input_timer(conn);
}

void Server::maybe_close(const ConnPtr& conn) {
  if (conn->closed || !conn->input_done) return;
  if (conn->out_slot != nullptr || !conn->responses.empty()) return;
  close_connection(conn);
}

void Server::close_connection(const ConnPtr& conn) {
  if (conn->closed) return;
  conn->closed = true;
  if (conn->input_timer != 0) {
    loop_->timers().cancel(conn->input_timer);
    conn->input_timer = 0;
  }
  if (conn->write_timer != 0) {
    loop_->timers().cancel(conn->write_timer);
    conn->write_timer = 0;
  }
  // Half-close the write side so the peer sees EOF after the last
  // response while its final bytes can still sit in our receive queue.
  if (conn->peer_alive) conn->socket.shutdown_write();
  loop_->remove_fd(conn->fd);
  connections_.erase(conn->fd);
  conn->socket.close();
  conn->span.reset();
  metrics().connections.add(-1);
  obs::LogEvent(obs::LogSeverity::kDebug, "serve.connection_closed")
      .i64("open", obs::gauge("serve.connections").value());
  if (drain_begun_ && connections_.empty()) loop_->request_stop();
}

}  // namespace lamps::net
