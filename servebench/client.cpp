#include "client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace servebench {

namespace {

constexpr int kIoTimeoutMs = 60'000;

[[noreturn]] void fail(const std::string& what) { throw std::runtime_error(what); }

/// For a failed system call: appends errno's description.
[[noreturn]] void fail_errno(const std::string& what) {
  fail(what + ": " + std::strerror(errno));
}

/// Waits until `fd` is ready for `events`; throws after kIoTimeoutMs.
void wait_fd(int fd, short events) {
  pollfd p{fd, events, 0};
  for (;;) {
    const int r = ::poll(&p, 1, kIoTimeoutMs);
    if (r > 0) return;
    if (r == 0) {
      fail("timed out waiting on the daemon");
    }
    if (errno != EINTR) fail_errno("poll");
  }
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Conn::Conn(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) fail_errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd_);
    errno = err;
    fail_errno("connect to 127.0.0.1:" + std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

Conn::Conn(Conn&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), in_(std::move(other.in_)), in_off_(other.in_off_) {}

void Conn::send_all(std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const Io io = send_some(data, off);
    if (io == Io::kClosed) fail("daemon closed the connection");
    if (io == Io::kAgain) wait_fd(fd_, POLLOUT);
  }
}

std::string Conn::read_line() {
  std::string line;
  while (!pop_line(line)) {
    const Io io = fill();
    if (io == Io::kClosed) fail("daemon closed the connection");
    if (io == Io::kAgain) wait_fd(fd_, POLLIN);
  }
  return line;
}

Conn::Io Conn::send_some(std::string_view data, std::size_t& off) {
  for (;;) {
    const ssize_t n = ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      return Io::kOk;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return Io::kAgain;
    return Io::kClosed;
  }
}

Conn::Io Conn::fill() {
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n > 0) {
      in_.append(buf, static_cast<std::size_t>(n));
      return Io::kOk;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return Io::kAgain;
    return Io::kClosed;
  }
}

bool Conn::pop_line(std::string& out) {
  const std::size_t nl = in_.find('\n', in_off_);
  if (nl == std::string::npos) return false;
  out.assign(in_, in_off_, nl + 1 - in_off_);
  in_off_ = nl + 1;
  if (in_off_ == in_.size()) {
    in_.clear();
    in_off_ = 0;
  }
  return true;
}

Daemon::Daemon(const std::string& lamps_binary, const std::vector<std::string>& args) {
  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) fail_errno("pipe");
  std::vector<std::string> argv_store{lamps_binary};
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) fail_errno("fork");
  if (pid_ == 0) {
    // The daemon must not outlive the benchmark, even when it is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(126);
    ::dup2(out[1], STDOUT_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(out[1]);
  out_fd_ = out[0];

  // "lamps serve: listening on 127.0.0.1:<port>" is the readiness line.
  static constexpr std::string_view kMarker = "listening on 127.0.0.1:";
  std::string text;
  for (;;) {
    if (const auto pos = text.find(kMarker); pos != std::string::npos) {
      const auto end = text.find('\n', pos);
      if (end != std::string::npos) {
        port_ = static_cast<std::uint16_t>(std::stoi(text.substr(pos + kMarker.size())));
        return;
      }
    }
    wait_fd(out_fd_, POLLIN);
    char buf[512];
    const ssize_t n = ::read(out_fd_, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      kill_and_reap();
      fail("lamps serve exited before listening: " + lamps_binary);
    }
    text.append(buf, static_cast<std::size_t>(n));
  }
}

Daemon::~Daemon() {
  if (pid_ > 0) kill_and_reap();
  if (out_fd_ >= 0) ::close(out_fd_);
}

double Daemon::cpu_seconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name start at field 3 (state);
  // utime and stime are fields 14 and 15.
  const auto close_paren = stat.rfind(')');
  if (close_paren == std::string::npos) fail("unreadable /proc/<pid>/stat");
  std::istringstream fields(stat.substr(close_paren + 2));
  std::string skip;
  for (int f = 3; f < 14; ++f) fields >> skip;
  unsigned long long utime = 0, stime = 0;
  fields >> utime >> stime;
  return static_cast<double>(utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double Daemon::peak_rss_mib() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  fail("no VmHWM in /proc/<pid>/status");
}

void Daemon::stop(Conn conn) {
  conn.send_all("quitquitquit\n");
  (void)conn.read_line();
  // The drain closes every connection; the stdout pipe reaches EOF when
  // the daemon exits.
  for (;;) {
    wait_fd(out_fd_, POLLIN);
    char buf[512];
    const ssize_t n = ::read(out_fd_, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
  }
  int status = 0;
  const auto deadline = now_ns() + 30'000'000'000;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (now_ns() > deadline) {
      kill_and_reap();
      fail("lamps serve did not exit after quitquitquit");
    }
    ::usleep(1000);
  }
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    fail("lamps serve exited abnormally (status " + std::to_string(status) + ")");
}

void Daemon::kill_and_reap() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

LoadResult run_closed_loop(std::vector<Conn>& conns, Stream& stream,
                           const LoadOptions& opts) {
  struct Caller {
    bool busy{false};
    bool probe{false};
    bool want_write{false};
    std::string out;
    std::size_t off{0};
    std::size_t responses{0};
    Exchange ex;
  };
  std::vector<Caller> callers(conns.size());
  std::vector<pollfd> pfds(conns.size());
  LoadResult res;
  res.start_ns = now_ns();
  res.ticks.push_back(Tick{res.start_ns, 0, opts.read()});
  std::int64_t next_tick_ns = res.start_ns + 1'000'000'000;
  const std::int64_t stop_ns =
      opts.seconds > 0.0 ? res.start_ns + static_cast<std::int64_t>(opts.seconds * 1e9)
                         : std::numeric_limits<std::int64_t>::max();
  std::size_t next = 0;  ///< stream index of the next request to send
  std::size_t outstanding = 0;
  std::int64_t last_progress_ns = res.start_ns;
  // Lines for requests next, next+1, ...: generating a request is client
  // work done while the callers wait, so a caller whose response arrives
  // sends its next request at once (zero think time).
  std::deque<std::string> prepared;
  const auto more_to_prepare = [&] {
    return prepared.size() < callers.size() &&
           (opts.requests == 0 || next + prepared.size() < opts.requests);
  };

  const auto pump = [&](std::size_t c) {
    Caller& k = callers[c];
    while (k.off < k.out.size()) {
      const Conn::Io io = conns[c].send_some(k.out, k.off);
      if (io == Conn::Io::kClosed)
        fail("daemon closed connection " + std::to_string(c) + " mid-request");
      if (io == Conn::Io::kAgain) {
        k.want_write = true;
        return;
      }
    }
    k.want_write = false;
  };
  const auto begin = [&](std::size_t c, std::string line, bool probe) {
    Caller& k = callers[c];
    k.busy = true;
    k.probe = probe;
    k.out = std::move(line);
    k.off = 0;
    k.ex.send_ns = now_ns();
    ++outstanding;
    pump(c);
  };
  const auto issuing = [&] {
    return (opts.requests == 0 || next < opts.requests) && now_ns() < stop_ns;
  };

  std::string line;
  for (;;) {
    const bool ticking =
        next_tick_ns <= stop_ns && (opts.requests == 0 || next < opts.requests);
    if (const std::int64_t t = now_ns(); ticking && t >= next_tick_ns) {
      res.ticks.push_back(Tick{t, res.exchanges.size(), opts.read()});
      next_tick_ns += 1'000'000'000;
    }
    for (std::size_t c = 0; c < callers.size(); ++c) {
      if (callers[c].busy || !issuing()) continue;
      if (prepared.empty()) prepared.push_back(stream.timed(next).line);
      callers[c].ex = Exchange{next++, static_cast<std::uint32_t>(c), 0, 0, {}};
      begin(c, std::move(prepared.front()), false);
      prepared.pop_front();
    }
    if (outstanding == 0) break;

    for (std::size_t c = 0; c < callers.size(); ++c)
      pfds[c] = pollfd{conns[c].fd(),
                       static_cast<short>(callers[c].busy
                                              ? POLLIN | (callers[c].want_write ? POLLOUT : 0)
                                              : 0),
                       0};
    const bool prepare = issuing() && more_to_prepare();
    const std::int64_t wait_ms =
        prepare ? 0 : ticking ? (next_tick_ns - now_ns()) / 1'000'000 + 1 : kIoTimeoutMs;
    const int ready = ::poll(pfds.data(), pfds.size(),
                             static_cast<int>(std::clamp<std::int64_t>(wait_ms, 0, kIoTimeoutMs)));
    if (ready < 0 && errno == EINTR) continue;
    if (ready < 0) fail_errno("poll");
    if (ready == 0 && prepare) {
      prepared.push_back(stream.timed(next + prepared.size()).line);
      continue;
    }
    if (ready == 0 && now_ns() - last_progress_ns > std::int64_t{kIoTimeoutMs} * 1'000'000)
      fail("no response from the daemon for 60 s");
    for (std::size_t c = 0; c < callers.size(); ++c) {
      Caller& k = callers[c];
      if (pfds[c].revents == 0 || !k.busy) continue;
      if ((pfds[c].revents & POLLOUT) != 0) pump(c);
      if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (conns[c].fill() == Conn::Io::kClosed)
        fail("daemon closed connection " + std::to_string(c));
      if (!conns[c].pop_line(line)) continue;
      const std::int64_t done = now_ns();
      last_progress_ns = done;
      k.busy = false;
      --outstanding;
      if (k.probe) {
        res.admin_rtt_ms.push_back(static_cast<double>(done - k.ex.send_ns) / 1e6);
        continue;
      }
      k.ex.done_ns = done;
      k.ex.response = std::move(line);
      res.end_ns = done;
      res.exchanges.push_back(std::move(k.ex));
      ++k.responses;
      if (opts.probe_every > 0 && c == 0 && k.responses % opts.probe_every == 0 &&
          issuing())
        begin(c, "healthz\n", true);
    }
  }
  return res;
}

}  // namespace servebench
