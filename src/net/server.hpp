// `lamps serve` — persistent TCP JSON-lines scheduling daemon.
//
// Threading model (event loop; see docs/serving.md for the diagram):
//   - ONE event-loop thread (net::EventLoop: epoll + eventfd wake-up +
//     timer wheel) owns the listener and every connection fd.  It
//     accepts, feeds non-blocking reads into the per-connection
//     LineReader, parses and admits request lines, answers the admin
//     lane inline, and flushes responses — thread count is O(pool), not
//     O(connections);
//   - requests admitted by the loop run on the shared util::ThreadPool
//     (any number of connections fan into the same workers; pipelined
//     requests on one connection compute concurrently) behind a bounded
//     admission count — beyond max_pending the request is answered
//     immediately with an "overloaded" error instead of queueing without
//     bound;
//   - identical requests are deduplicated by net::ResultCache
//     (single-flight + cross-request LRU keyed by
//     core::service_request_digest);
//   - workers deliver completed payloads into per-connection response
//     slots and wake the loop; the loop writes responses strictly in
//     request order per connection, buffering what the peer's window
//     refuses and finishing on EPOLLOUT, so clients may pipeline naively;
//   - read/idle/write-stall clocks live on the loop's timer wheel: a
//     mid-line stall, a quiet connection, or a peer that stops draining
//     its responses is disconnected without a dedicated thread watching
//     it.
//
// Drain (SIGTERM/SIGINT via request_drain()): the listen socket closes
// (new connections are refused), the loop consumes only the bytes each
// connection already has on the wire, every admitted request still
// computes and its response is written, then write sides half-close and
// the daemon finishes.  Zero accepted requests are dropped.
//
// Observability: per-connection/request/compute spans, a "serve.*"
// metric family incl. loop health counters (catalog in
// docs/observability.md), a lock-free flight recorder of per-request
// phase timelines, and an admin lane — statsz / healthz / cachez /
// flightz / chaosz / quitquitquit lines are answered inline by the loop,
// bypassing both bounded admission and the compute pool, so
// introspection stays responsive under full saturation.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "core/incremental.hpp"
#include "net/event_loop.hpp"
#include "net/result_cache.hpp"
#include "obs/flight.hpp"
#include "obs/flush.hpp"
#include "power/dvs_ladder.hpp"
#include "power/power_model.hpp"
#include "util/socket.hpp"
#include "util/thread_pool.hpp"

namespace lamps::net {

struct AdminRequest;  // net/protocol.hpp

struct ServerConfig {
  /// TCP port; 0 binds an ephemeral one (read it back via port()).
  std::uint16_t port{0};
  /// Compute pool workers; 0 = hardware concurrency.
  std::size_t threads{0};
  /// Admission bound: requests in flight (queued + computing) beyond
  /// which new ones get an "overloaded" response.  0 = 4x pool size.
  std::size_t max_pending{0};
  /// Completed-result LRU entries.
  std::size_t cache_capacity{512};
  /// ScheduleBank stores for incremental rescheduling: per graph
  /// *structure*, deadline-invariant schedules/profiles are reused across
  /// requests that differ only in deadline or strategy (see
  /// core/incremental.hpp).  Responses are byte-identical either way.
  /// 0 disables the bank.
  std::size_t bank_capacity{128};
  /// Flight-recorder ring slots (per-request phase timelines, flightz).
  std::size_t flight_capacity{1024};
  /// Requests whose arrival->write latency reaches this are promoted to a
  /// warn-level span dump and counted in serve.slow_requests.  <= 0
  /// disables promotion.
  double slow_request_s{1.0};
  /// > 0 starts a background obs::MetricsFlusher appending one registry
  /// snapshot per interval to `metrics_jsonl`.
  double metrics_interval_s{0.0};
  std::string metrics_jsonl;
  /// Mid-line stall bound: a connection whose request line stops making
  /// byte progress for this long is closed (serve.read_timeouts).
  /// <= 0 disables.
  double read_timeout_s{30.0};
  /// Idle bound between complete request lines; exceeded connections are
  /// reaped (serve.idle_reaped).  <= 0 disables.
  double idle_timeout_s{300.0};
  /// Per-line byte cap.  An oversize line is answered with a typed
  /// "too_large" error and the stream resynchronizes at the next '\n'.
  /// 0 = unbounded.
  std::size_t max_request_bytes{32ull << 20};
  /// Per-connection response queue bound: once this many responses are
  /// admitted but unwritten, the loop stops reading that connection and
  /// disconnects it after the admitted ones drain
  /// (serve.write_queue_overflow).  0 = unbounded.
  std::size_t max_write_queue{256};
  /// Per-response write stall bound, cumulative: a response that is not
  /// fully accepted by the peer within this budget of starting to flush
  /// gets the connection disconnected (serve.slow_client_disconnects) —
  /// a slow-loris peer draining one byte per window cannot reset the
  /// clock.  <= 0 disables.
  double write_timeout_s{30.0};
  /// Default wall-clock budget (ms) for requests carrying no
  /// "deadline_ms" field; expired requests get a typed
  /// "deadline_exceeded" error.  0 = none.
  double default_deadline_ms{0.0};
  /// listen(2) backlog — sized for event-loop accept bursts (hundreds of
  /// clients connecting at once are absorbed by the kernel queue).
  int listen_backlog{1024};
  /// SO_SNDBUF for accepted sockets, bytes (0 = kernel default).  Bounds
  /// per-connection kernel memory and makes write-stall handling
  /// observable in tests.
  int sndbuf_bytes{0};
  /// Deterministic fault injection over the accepted sockets, the accept
  /// path and pool dispatch (util/faultinject.hpp).  nullptr = chaos off.
  std::shared_ptr<FaultInjector> chaos;
};

class Server {
 public:
  explicit Server(const ServerConfig& config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and starts the event loop.  Throws
  /// InternalError(kIo) when the port cannot be bound.
  void start();

  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Begins a graceful drain (idempotent, callable from any thread; the
  /// CLI bridges SIGTERM/SIGINT here).
  void request_drain();

  [[nodiscard]] bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  /// Blocks until the drain finished: event loop joined, every
  /// connection answered and closed, compute pool idle.
  void wait();

  /// The flight recorder backing flightz (read access for tests).
  [[nodiscard]] const obs::FlightRecorder& flights() const { return flights_; }

  /// The fault injector behind chaosz, nullptr when chaos is off (read
  /// access for tests and harnesses).
  [[nodiscard]] FaultInjector* chaos() const { return config_.chaos.get(); }

 private:
  struct Connection;
  using ConnPtr = std::shared_ptr<Connection>;

  // Everything below (except admin_response's locked snapshot diffs,
  // which are thread-safe on their own) runs on the loop thread.
  void on_accept_ready();
  void on_connection_event(const ConnPtr& conn, unsigned events);
  void process_input(const ConnPtr& conn);
  void handle_line(const ConnPtr& conn, const std::string& line);
  /// Admin lane: recognizes and answers an admin line inline on the loop
  /// thread.  Returns false when the line is not admin-shaped.
  bool handle_admin_line(const ConnPtr& conn, const std::string& line);
  [[nodiscard]] std::string admin_response(const AdminRequest& req);
  /// Pushes an already-resolved response (admin, typed errors) and
  /// flushes.
  void enqueue_ready(const ConnPtr& conn, std::string response,
                     std::shared_ptr<obs::FlightRecord> flight);
  /// Writes ready responses in order until the peer's window refuses
  /// bytes; arms EPOLLOUT + the write-stall timer on a partial flush.
  void flush_connection(const ConnPtr& conn);
  /// Stamps the flushed response's flight record and publishes it.
  void commit_response(const ConnPtr& conn);
  void mark_peer_dead(const ConnPtr& conn, bool slow);
  /// Stops reading (EOF, error, timeout, overflow stop or drain).
  void stop_input(const ConnPtr& conn);
  /// Re-arms the connection's read/idle deadline on the timer wheel.
  void schedule_input_timer(const ConnPtr& conn);
  void on_input_deadline(const ConnPtr& conn);
  void arm_write_timer(const ConnPtr& conn);
  void set_want_write(const ConnPtr& conn, bool on);
  /// Closes once input ended and every admitted response was flushed
  /// (or consumed, for a dead peer).
  void maybe_close(const ConnPtr& conn);
  void close_connection(const ConnPtr& conn);
  /// Drain, on the loop thread: close the listener, consume only the
  /// bytes already on the wire, finish once all connections flushed.
  void begin_drain();

  ServerConfig config_;
  power::PowerModel model_;
  power::DvsLadder ladder_;
  ResultCache cache_;
  core::ScheduleBank bank_;
  obs::FlightRecorder flights_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<obs::MetricsFlusher> flusher_;
  std::size_t max_pending_{0};
  std::int64_t start_ns_{0};
  std::int64_t read_timeout_ns_{0};
  std::int64_t idle_timeout_ns_{0};
  std::int64_t write_timeout_ns_{0};

  // Scrape baselines.  The admin lane is single-threaded on the loop
  // today, but the snapshot is still taken *under* these locks: a
  // snapshot captured outside and assigned later can overwrite a newer
  // baseline (double-counting the next scrape's deltas) the moment two
  // scrapers race — keep the invariant locked in, not incidental.
  std::mutex scrape_mutex_;
  std::map<std::string, std::uint64_t> last_scrape_;
  std::uint64_t scrape_seq_{0};

  /// healthz degradation window: counter snapshot at the previous healthz
  /// (seeded at start()), diffed per scrape so "degraded" reflects the
  /// interval, not all time.
  std::mutex health_mutex_;
  std::map<std::string, std::uint64_t> health_prev_;

  std::unique_ptr<ListenSocket> listener_;
  std::uint16_t port_{0};

  std::unique_ptr<EventLoop> loop_;
  std::thread loop_thread_;
  /// Loop-thread only; keyed by fd.
  std::unordered_map<int, ConnPtr> connections_;
  bool drain_begun_{false};  ///< loop-thread view of the drain

  std::atomic<bool> draining_{false};
  std::atomic<std::size_t> pending_{0};
};

}  // namespace lamps::net
