// Thin POSIX TCP helpers for the JSON-lines protocol: RAII fd ownership,
// IPv4 loopback-style addressing and a buffered line reader.
//
// The server (net/server) runs non-blocking sockets on its event loop:
// it writes through send_some, reads through LineReader::fill, and keeps
// its read, idle and write-stall budgets on the loop's timer wheel.  The
// blocking helpers — send_all, LineReader::read_line, poll_readable /
// poll_writable and the connect calls — serve callers outside the event
// loop: lamps_loadgen (poll_readable, send_all, try_connect_tcp),
// `lamps top` and its statsz query (connect_tcp, send_all, read_line),
// `lamps serve`'s wait on the drain signal (poll_readable), and the tests,
// where tests/net_test.cpp and tests/chaos_test.cpp hold most of the uses.
//
// Robustness hooks (all opt-in, zero cost when unused):
//   - try_connect_tcp bounds the connect handshake;
//   - LineReader can cap the per-line buffer (oversize lines surface as
//     Status::kOverflow and the stream resynchronizes at the next '\n');
//   - a FaultInjector attached to a Socket/LineReader injects short
//     reads/writes, resets and torn writes on a deterministic per-seed
//     schedule (util/faultinject.hpp) for chaos testing.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace lamps {

class FaultInjector;  // util/faultinject.hpp

/// Move-only owner of a connected socket (or any) file descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }

  /// Attaches a fault injector to the write path (nullptr detaches).  The
  /// injector must outlive the socket's sends.
  void set_fault_injector(FaultInjector* injector) { fault_ = injector; }

  enum class IoStatus { kOk, kWouldBlock, kError };

  /// One non-blocking send attempt (EINTR retried), for event-loop
  /// writers.  On kOk, `*sent` holds the bytes the kernel accepted —
  /// possibly fewer than data.size(), and possibly clamped/torn by an
  /// attached fault injector.  kWouldBlock when the peer's receive
  /// window is full: register for writability and retry later.
  [[nodiscard]] IoStatus send_some(std::string_view data, std::size_t* sent) const;

  /// Toggles O_NONBLOCK on the fd.  Returns false when fcntl fails.
  bool set_nonblocking(bool on) const;

  /// Blocking client write: send_some until the whole buffer is out,
  /// waiting for window space as long as it takes.  False once the peer
  /// is gone (EPIPE/ECONNRESET) or on any other failure.
  bool send_all(std::string_view data) const;

  /// Half-closes the write side so the peer sees EOF after the last
  /// response while we can still drain its final bytes.
  void shutdown_write() const;

  /// Full shutdown (both directions) without closing the fd: safe to call
  /// while another thread polls this socket — its poll wakes with EOF and
  /// the fd number cannot be reused underneath it.
  void shutdown_both() const;

  void close();

 private:
  int fd_{-1};
  FaultInjector* fault_{nullptr};
};

/// Listening IPv4 TCP socket on 127.0.0.1 only.  `port == 0` binds an
/// ephemeral port; `port()` reports the actual one.  Throws InternalError(kIo) when the
/// socket cannot be bound.
class ListenSocket {
 public:
  explicit ListenSocket(std::uint16_t port, int backlog = 128);

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] int fd() const { return socket_.fd(); }

  /// Accepts one connection; empty optional on EINTR, EAGAIN (when the
  /// listener is non-blocking) or a transient accept failure — callers
  /// poll/epoll first, so no connection pending means "try again".
  [[nodiscard]] std::optional<Socket> accept() const;

  /// Toggles O_NONBLOCK on the listening fd (event-loop accept).
  bool set_nonblocking(bool on) const { return socket_.set_nonblocking(on); }

  void close() { socket_.close(); }

 private:
  Socket socket_;
  std::uint16_t port_{0};
};

/// Connects to `host`:`port` with a handshake bound of `timeout_ms`
/// (-1 = kernel default).  Returns nullopt on failure or timeout; when
/// `error` is non-null it receives a description.  Never throws.
[[nodiscard]] std::optional<Socket> try_connect_tcp(std::uint16_t port,
                                                    const std::string& host = "127.0.0.1",
                                                    int timeout_ms = -1,
                                                    std::string* error = nullptr);

/// Connects to 127.0.0.1:`port` (or `host` when given).  Throws
/// InternalError(kIo) on failure.
[[nodiscard]] Socket connect_tcp(std::uint16_t port, const std::string& host = "127.0.0.1");

/// poll(2) for readability on one fd.  True when readable (or at EOF /
/// error — the next recv surfaces it); false on timeout.  `timeout_ms < 0`
/// blocks indefinitely.  EINTR is retried with the remaining budget, never
/// reported as a timeout.
[[nodiscard]] bool poll_readable(int fd, int timeout_ms);

/// poll(2) for writability on one fd.  True when writable (or the peer
/// hung up — the next send surfaces the error); false on timeout.  EINTR
/// is retried with the remaining budget.
[[nodiscard]] bool poll_writable(int fd, int timeout_ms);

/// Buffered newline-delimited reader over a socket fd (does not own it).
///
/// Two usage styles:
///   - read_line(): blocks until one full line is available (clients);
///   - next_line() + fill(): incremental, never blocks beyond one recv
///     that the caller polled for (the server's reader loop, which
///     interleaves timeout accounting between fills).
class LineReader {
 public:
  /// `max_line_bytes` caps the unterminated tail the reader buffers; a
  /// line exceeding it is discarded through its terminating '\n' and
  /// reported once as Status::kOverflow (0 = unbounded).  `fault` injects
  /// read-side chaos (nullptr = none; must outlive the reader).
  explicit LineReader(int fd, std::size_t max_line_bytes = 0,
                      FaultInjector* fault = nullptr)
      : fd_(fd), max_line_bytes_(max_line_bytes), fault_(fault) {}

  enum class Status {
    kLine,        ///< one complete line in `out` (trailing '\n' stripped)
    kEof,         ///< stream ended, nothing buffered
    kError,       ///< recv failed (including injected resets)
    kAgain,       ///< no complete line buffered yet — fill() for more
    kOverflow,    ///< an oversize line was discarded (stream resynced)
    kWouldBlock,  ///< fill() on a non-blocking fd with no bytes pending
  };

  /// Blocks until one full line is available.  kEof after the final,
  /// possibly unterminated, line; kOverflow surfaces oversize lines.
  Status read_line(std::string& out);

  /// Non-blocking: pops a buffered line (or the final unterminated line
  /// once EOF was seen, or a pending kOverflow report).  kAgain when more
  /// bytes are needed, kEof at end of stream.
  Status next_line(std::string& out);

  /// One recv into the buffer (the caller polls for readability first,
  /// so this blocks at most for one ready read).  kAgain = bytes
  /// buffered, kEof = peer half-closed, kError = failure/injected reset,
  /// kWouldBlock = non-blocking fd with nothing to read yet (the event
  /// loop waits for the next EPOLLIN instead of spinning).
  Status fill();

  /// True when a complete buffered line can be returned without touching
  /// the socket.
  [[nodiscard]] bool has_buffered_line() const;

  /// True while an incomplete (not yet terminated) line sits in the
  /// buffer — the condition a read timeout judges.
  [[nodiscard]] bool has_partial_line() const;

 private:
  int fd_;
  std::size_t max_line_bytes_;
  FaultInjector* fault_;
  std::string buffer_;
  bool eof_{false};
  bool overflow_pending_{false};
  bool discarding_{false};
};

}  // namespace lamps
