// The daemon under test as a child process, and the single-threaded
// closed-loop client that drives it over raw loopback sockets.
//
// The client deliberately shares no code with the serving plane (no
// util/socket, no net/event_loop): a change to the server's I/O layers
// must show up in the numbers, not in the instrument.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "corpus.hpp"

namespace servebench {

[[nodiscard]] std::int64_t now_ns();

/// A client connection: blocking connect, TCP_NODELAY, then non-blocking.
class Conn {
 public:
  explicit Conn(std::uint16_t port);
  ~Conn();
  Conn(Conn&& other) noexcept;
  Conn& operator=(Conn&& other) = delete;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  [[nodiscard]] int fd() const { return fd_; }

  /// Blocking exchange for set-up and admin traffic outside the timed
  /// loop; throws std::runtime_error after 60 s or on a closed peer.
  void send_all(std::string_view data);
  [[nodiscard]] std::string read_line();

  enum class Io { kOk, kAgain, kClosed };
  /// One non-blocking send from `data[off..]`, advancing `off`.
  Io send_some(std::string_view data, std::size_t& off);
  /// Reads whatever bytes are available into the line buffer.
  Io fill();
  /// Pops one complete line ('\n' included) from the buffer.
  bool pop_line(std::string& out);

 private:
  int fd_{-1};
  std::string in_;
  std::size_t in_off_{0};
};

/// `lamps serve` as a child process.  The constructor returns once the
/// daemon printed its listening port; the destructor kills and reaps a
/// daemon that was not stopped.
class Daemon {
 public:
  Daemon(const std::string& lamps_binary, const std::vector<std::string>& args);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] pid_t pid() const { return pid_; }

  /// utime + stime of every daemon thread so far, in seconds.
  [[nodiscard]] double cpu_seconds() const;
  /// Peak resident set (VmHWM), MiB.
  [[nodiscard]] double peak_rss_mib() const;

  /// Sends quitquitquit on `conn`, closes it and waits for a clean exit.
  /// Throws when the daemon does not exit with status 0 within 30 s.
  void stop(Conn conn);

 private:
  void kill_and_reap();

  pid_t pid_{-1};
  int out_fd_{-1};
  std::uint16_t port_{0};
};

/// One request/response pair as the client saw it.
struct Exchange {
  std::size_t index{0};  ///< position in the timed stream
  std::uint32_t conn{0};
  std::int64_t send_ns{0};  ///< first byte handed to the kernel
  std::int64_t done_ns{0};  ///< full response line received
  std::string response;
};

/// The daemon's resource use as of one instant.
struct Reading {
  double cpu_s{0.0};
  double peak_rss_mib{0.0};
};

struct LoadOptions {
  double seconds{0.0};         ///< > 0: stop issuing after this long
  std::size_t requests{0};     ///< > 0: stop issuing after this many
  std::size_t probe_every{0};  ///< > 0: connection 0 sends healthz after every N responses
  /// Taken at the start and then once a second while requests are
  /// issued; consecutive ticks bound the phase's one-second windows.
  std::function<Reading()> read = [] { return Reading{}; };
};

struct Tick {
  std::int64_t ns{0};
  std::size_t responses{0};  ///< responses received before this tick
  Reading reading;
};

struct LoadResult {
  std::vector<Exchange> exchanges;  ///< completion order
  std::vector<double> admin_rtt_ms;
  std::vector<Tick> ticks;
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};  ///< last response of the phase
};

/// Closed loop: every connection is one caller with at most one request
/// outstanding; a caller sends the next stream request as soon as its
/// previous response arrived.  Requests are issued in stream order.
[[nodiscard]] LoadResult run_closed_loop(std::vector<Conn>& conns, Stream& stream,
                                         const LoadOptions& opts);

}  // namespace servebench
