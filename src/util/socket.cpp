#include "util/socket.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/errors.hpp"
#include "util/faultinject.hpp"

namespace lamps {

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), fault_(std::exchange(other.fault_, nullptr)) {}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    fault_ = std::exchange(other.fault_, nullptr);
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

namespace {

// Milliseconds left until `deadline` (clamped to >= 0), so poll_one's
// EINTR retries re-arm with the *remaining* budget, never a fresh one.
int remaining_ms(std::chrono::steady_clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - std::chrono::steady_clock::now())
                        .count();
  if (left <= 0) return 0;
  return static_cast<int>(std::min<long long>(left, 1000 * 60 * 60 * 24));
}

/// poll(2) on one fd for `events`; true when they (or a hangup / error)
/// are reported, false on timeout or a hard poll failure.
bool poll_one(int fd, short events, int timeout_ms) {
  pollfd pfd{fd, events, 0};
  const bool bounded = timeout_ms >= 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(bounded ? timeout_ms : 0);
  int wait_ms = timeout_ms;
  for (;;) {
    pfd.revents = 0;
    const int rc = ::poll(&pfd, 1, wait_ms);
    if (rc > 0) return (pfd.revents & (events | POLLHUP | POLLERR)) != 0;
    if (rc == 0) return false;          // genuine timeout
    if (errno != EINTR) return false;   // hard poll failure
    if (bounded) {
      wait_ms = remaining_ms(deadline);  // EINTR: retry with what's left
      if (wait_ms == 0) return false;
    }
  }
}

}  // namespace

Socket::IoStatus Socket::send_some(std::string_view data, std::size_t* sent) const {
  *sent = 0;
  if (data.empty()) return IoStatus::kOk;
  std::size_t chunk = data.size();
  if (fault_ != nullptr) {
    const FaultInjector::WritePlan plan = fault_->plan_write(data.size());
    if (plan.reset) {
      errno = EPIPE;
      return IoStatus::kError;
    }
    chunk = std::min(chunk, plan.chunk);
    if (plan.pause_us > 0)
      std::this_thread::sleep_for(std::chrono::microseconds(plan.pause_us));
  }
  for (;;) {
    const ssize_t n = ::send(fd_, data.data(), chunk, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n >= 0) {
      *sent = static_cast<std::size_t>(n);
      return IoStatus::kOk;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStatus::kWouldBlock;
    return IoStatus::kError;
  }
}

bool Socket::send_all(std::string_view data) const {
  while (!data.empty()) {
    std::size_t sent = 0;
    switch (send_some(data, &sent)) {
      case IoStatus::kOk:
        data.remove_prefix(sent);
        break;
      case IoStatus::kWouldBlock:
        if (!poll_writable(fd_, -1)) return false;
        break;
      case IoStatus::kError:
        return false;
    }
  }
  return true;
}

bool Socket::set_nonblocking(bool on) const {
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) return false;
  const int next = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  return ::fcntl(fd_, F_SETFL, next) == 0;
}

void Socket::shutdown_write() const {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void Socket::shutdown_both() const {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

ListenSocket::ListenSocket(std::uint16_t port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw InternalError(ErrorCode::kIo, "cannot create socket");
  Socket sock(fd);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
    throw InternalError(ErrorCode::kIo,
                        std::string("cannot bind port: ") + std::strerror(errno),
                        "port " + std::to_string(port));
  if (::listen(fd, backlog) != 0)
    throw InternalError(ErrorCode::kIo,
                        std::string("cannot listen: ") + std::strerror(errno));

  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    throw InternalError(ErrorCode::kIo, "cannot read bound address");
  port_ = ntohs(addr.sin_port);
  socket_ = std::move(sock);
}

std::optional<Socket> ListenSocket::accept() const {
  const int fd = ::accept(socket_.fd(), nullptr, nullptr);
  if (fd < 0) return std::nullopt;
  const int one = 1;
  // Responses are one small JSON line each; Nagle would add 40 ms stalls.
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return Socket(fd);
}

std::optional<Socket> try_connect_tcp(std::uint16_t port, const std::string& host,
                                      int timeout_ms, std::string* error) {
  const auto fail = [&](const std::string& what) -> std::optional<Socket> {
    if (error != nullptr) *error = what;
    return std::nullopt;
  };
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return fail("cannot create socket");
  Socket sock(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    return fail("invalid IPv4 address: " + host);

  // A failed F_GETFL must not poison the restore below: fall back to 0 so
  // the final F_SETFL still clears O_NONBLOCK instead of writing garbage.
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) flags = 0;
  if (timeout_ms >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  if (rc != 0 && errno == EINPROGRESS && timeout_ms >= 0) {
    if (!poll_writable(fd, timeout_ms))
      return fail("connect timed out after " + std::to_string(timeout_ms) + " ms");
    int so_error = 0;
    socklen_t len = sizeof so_error;
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 || so_error != 0)
      return fail(std::string("cannot connect: ") +
                  std::strerror(so_error != 0 ? so_error : errno));
    rc = 0;
  }
  if (rc != 0) return fail(std::string("cannot connect: ") + std::strerror(errno));
  if (timeout_ms >= 0) ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);  // back to blocking

  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return sock;
}

Socket connect_tcp(std::uint16_t port, const std::string& host) {
  std::string error;
  std::optional<Socket> sock = try_connect_tcp(port, host, -1, &error);
  if (!sock.has_value())
    throw InternalError(ErrorCode::kIo, error, host + ":" + std::to_string(port));
  return std::move(*sock);
}

bool poll_readable(int fd, int timeout_ms) { return poll_one(fd, POLLIN, timeout_ms); }

bool poll_writable(int fd, int timeout_ms) { return poll_one(fd, POLLOUT, timeout_ms); }

bool LineReader::has_buffered_line() const {
  return buffer_.find('\n') != std::string::npos;
}

bool LineReader::has_partial_line() const {
  return !buffer_.empty() && !has_buffered_line();
}

LineReader::Status LineReader::next_line(std::string& out) {
  if (overflow_pending_) {
    overflow_pending_ = false;
    return Status::kOverflow;
  }
  const auto pos = buffer_.find('\n');
  if (pos != std::string::npos) {
    // A complete line can exceed the cap too (it may have arrived whole
    // in one recv, never tripping fill()'s tail check).
    if (max_line_bytes_ > 0 && pos > max_line_bytes_) {
      buffer_.erase(0, pos + 1);
      return Status::kOverflow;
    }
    out.assign(buffer_, 0, pos);
    buffer_.erase(0, pos + 1);
    return Status::kLine;
  }
  if (eof_) {
    if (buffer_.empty() || discarding_) return Status::kEof;
    if (max_line_bytes_ > 0 && buffer_.size() > max_line_bytes_) {
      buffer_.clear();
      return Status::kOverflow;
    }
    out = std::move(buffer_);  // final unterminated line
    buffer_.clear();
    return Status::kLine;
  }
  return Status::kAgain;
}

LineReader::Status LineReader::fill() {
  if (eof_) return Status::kEof;
  char chunk[4096];
  std::size_t want = sizeof chunk;
  if (fault_ != nullptr) {
    const FaultInjector::ReadPlan plan = fault_->plan_read();
    if (plan.reset) {
      errno = ECONNRESET;
      return Status::kError;
    }
    want = std::min(want, plan.max_bytes);
  }
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, want, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::kWouldBlock;
      return Status::kError;
    }
    if (n == 0) {
      eof_ = true;
      return Status::kEof;
    }
    if (discarding_) {
      // Resynchronize: drop everything through the oversize line's '\n'.
      const char* nl = static_cast<const char*>(
          std::memchr(chunk, '\n', static_cast<std::size_t>(n)));
      if (nl != nullptr) {
        discarding_ = false;
        buffer_.append(nl + 1, static_cast<std::size_t>(chunk + n - (nl + 1)));
      }
    } else {
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
    // The cap applies to an unterminated tail only — complete lines are
    // already poppable and callers drain them before filling again.
    if (max_line_bytes_ > 0 && !discarding_ && buffer_.size() > max_line_bytes_ &&
        !has_buffered_line()) {
      buffer_.clear();
      discarding_ = true;
      overflow_pending_ = true;
    }
    return Status::kAgain;
  }
}

LineReader::Status LineReader::read_line(std::string& out) {
  for (;;) {
    const Status popped = next_line(out);
    if (popped != Status::kAgain) return popped;
    const Status filled = fill();
    if (filled == Status::kError) return filled;
    // A non-blocking fd would spin here; park in poll until readable so
    // read_line keeps its blocking contract either way.
    if (filled == Status::kWouldBlock) (void)poll_readable(fd_, -1);
    // kEof loops once more so next_line can flush the final line.
  }
}

}  // namespace lamps
