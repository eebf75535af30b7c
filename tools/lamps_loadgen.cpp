// lamps_loadgen — concurrent load and chaos client for `lamps serve`
// (docs/serving.md).
//
// Generates a corpus of random STG graphs and fires them as inline
// JSON-lines requests over N parallel closed-loop connections to the
// daemon on --port.  Every response's "result" object is compared
// byte-for-byte against a direct in-process core::run_service_request
// call on the identical request — the serve path's bit-exactness
// contract.  Latency and per-layer cost are servebench's job
// (servebench/README.md); this client reports counts and throughput.
//
// The closed-loop client is a well-behaved retrying client: bounded
// connect timeouts, reconnects on transport failures, and exponential
// backoff + jitter on retryable typed errors (overloaded /
// deadline_exceeded).  Eventual success is reported separately from
// first-try success, which is what the chaos soak (CI) gates on: a
// daemon under seeded fault injection must still answer ≥ 99 % of
// requests byte-identically once clients retry.
//
// The daemon is probed with bounded retries first — a dead daemon is a
// clean E_IO exit, not a hang.  --json-out writes the run's counts for CI
// checks.  scripts/serve_load.sh starts a daemon, runs this client
// against it and drains it.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/request.hpp"
#include "net/protocol.hpp"
#include "stg/format.hpp"
#include "stg/random_gen.hpp"
#include "util/cli.hpp"
#include "util/errors.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"

namespace {

using namespace lamps;
using Clock = std::chrono::steady_clock;

struct RequestSpec {
  std::string line;      ///< the JSON-lines request, newline-terminated
  std::string expected;  ///< result_json of the direct computation
};

struct ConnStats {
  std::size_t ok{0};
  std::size_t first_try_ok{0};
  std::size_t retried_ok{0};
  std::size_t cached{0};
  std::size_t errors{0};      ///< permanent typed errors (bad_request, internal)
  std::size_t gave_up{0};     ///< retry budget exhausted
  std::size_t retries_total{0};
  std::size_t reconnects{0};
  std::size_t mismatches{0};
};

constexpr int kConnectTimeoutMs = 2000;     ///< TCP connect handshake bound
constexpr double kBackoffMs = 25.0;         ///< attempt k sleeps base * 2^k + jitter
constexpr int kResponseTimeoutMs = 30'000;  ///< per-response wait bound
constexpr std::uint64_t kJitterSeed = 1;    ///< master seed of the backoff jitter

/// Retry budgets of the closed-loop client.
struct RetryOptions {
  std::size_t connect_retries{5};  ///< connect attempts (probe and reconnects)
  std::size_t retries{4};          ///< extra attempts per request
};

void backoff_sleep(Rng& rng, std::size_t attempt) {
  // Full jitter on top of the exponential term: retrying clients must not
  // re-converge on the daemon in lockstep after a shared overload event.
  const double exp_ms =
      kBackoffMs * static_cast<double>(std::uint64_t{1} << std::min<std::size_t>(attempt, 10));
  const double sleep_ms = exp_ms + rng.uniform_real(0.0, exp_ms);
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(sleep_ms));
}

/// Reads one response line within kResponseTimeoutMs.  False on timeout,
/// EOF and transport errors (including server-injected resets).
bool recv_line(LineReader& reader, int fd, std::string& out) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(kResponseTimeoutMs);
  for (;;) {
    // Only newline-terminated lines count as responses.  The server always
    // terminates what it sends, so a fragment followed by EOF is a torn
    // response from a dying connection — it must surface as a transport
    // failure (retry), never as data (LineReader's final-line flush would
    // otherwise hand us a truncated payload that can even carry "ok":true).
    if (reader.has_buffered_line()) {
      const LineReader::Status status = reader.next_line(out);
      if (status == LineReader::Status::kLine) return true;
      if (status != LineReader::Status::kAgain) return false;
      continue;
    }
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now());
    if (left.count() <= 0) return false;
    if (!poll_readable(fd, static_cast<int>(left.count()))) continue;  // re-judge the deadline
    const LineReader::Status filled = reader.fill();
    // kEof here means the buffer holds no complete line (checked above):
    // whatever remains is an unterminated fragment, i.e. a torn response.
    if (filled != LineReader::Status::kAgain) return false;
  }
}

bool is_retryable_error(const std::string& response) {
  return response.find("\"error\":\"overloaded\"") != std::string::npos ||
         response.find("\"error\":\"deadline_exceeded\"") != std::string::npos;
}

/// Closed-loop retrying client: one request in flight, transport failures
/// reconnect, retryable typed errors back off and resend.
void run_connection_closed(std::uint16_t port, const std::vector<RequestSpec>& corpus,
                           std::size_t first, std::size_t count,
                           const RetryOptions& opts, ConnStats& stats) {
  Rng rng = child_rng(kJitterSeed, first + 1);
  std::optional<Socket> sock;
  std::optional<LineReader> reader;
  std::string response;
  bool ever_connected = false;

  const auto ensure_connected = [&]() -> bool {
    if (sock.has_value()) return true;
    std::string error;
    for (std::size_t a = 0;; ++a) {
      sock = try_connect_tcp(port, "127.0.0.1", kConnectTimeoutMs, &error);
      if (sock.has_value()) {
        reader.emplace(sock->fd());
        if (ever_connected) ++stats.reconnects;
        ever_connected = true;
        return true;
      }
      if (a + 1 >= opts.connect_retries) return false;
      backoff_sleep(rng, a);
    }
  };

  for (std::size_t i = 0; i < count; ++i) {
    const RequestSpec& spec = corpus[(first + i) % corpus.size()];
    bool done = false;
    for (std::size_t attempt = 0; attempt <= opts.retries; ++attempt) {
      const auto retry_or_break = [&]() -> bool {  // true = another attempt follows
        if (attempt >= opts.retries) return false;
        ++stats.retries_total;
        backoff_sleep(rng, attempt);
        return true;
      };
      if (!ensure_connected()) {
        // The daemon is unreachable; everything left would just burn the
        // connect budget again per request.
        stats.gave_up += count - i;
        return;
      }
      if (!sock->send_all(spec.line) || !recv_line(*reader, sock->fd(), response)) {
        sock.reset();
        reader.reset();
        if (retry_or_break()) continue;
        break;
      }
      if (response.find("\"ok\":true") != std::string::npos) {
        ++stats.ok;
        if (attempt == 0)
          ++stats.first_try_ok;
        else
          ++stats.retried_ok;
        if (response.find("\"cached\":true") != std::string::npos) ++stats.cached;
        if (net::extract_result_json(response) != spec.expected) ++stats.mismatches;
        done = true;
        break;
      }
      if (is_retryable_error(response)) {
        if (retry_or_break()) continue;
        break;
      }
      ++stats.errors;  // bad_request / too_large / internal: retrying won't help
      done = true;
      break;
    }
    if (!done) ++stats.gave_up;
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t port = 0;
  std::size_t connections = 8;
  std::size_t requests = 256;
  std::size_t tasks = 100;
  std::size_t corpus_size = 8;
  std::string json_out;
  RetryOptions ropts;
  CliParser cli(
      "Concurrent load and chaos client for `lamps serve`: random-STG corpus, "
      "a retrying closed-loop client, throughput, and a bit-exactness check "
      "against direct in-process scheduling");
  cli.add_option("port", "port of the `lamps serve` daemon on 127.0.0.1 (required)", &port);
  cli.add_option("connections", "parallel client connections", &connections);
  cli.add_option("requests", "total requests across all connections", &requests);
  cli.add_option("tasks", "tasks per corpus graph", &tasks);
  cli.add_option("corpus", "distinct graphs in the corpus (cache/single-flight "
                           "pressure rises as this shrinks)", &corpus_size);
  cli.add_option("json-out", "write the run's counts as JSON here", &json_out);
  cli.add_option("connect-retries",
                 "connection attempts (startup probe and reconnects) before "
                 "giving up", &ropts.connect_retries);
  cli.add_option("retries",
                 "extra attempts per request on retryable errors "
                 "(overloaded / deadline_exceeded / transport)",
                 &ropts.retries);
  if (!cli.parse(argc, argv, std::cerr)) return 1;
  if (port == 0 || port > 65535) {
    std::cerr << "--port must be in [1, 65535]\n";
    return 1;
  }
  if (connections == 0 || requests == 0 || corpus_size == 0) {
    std::cerr << "connections, requests and corpus must be >= 1\n";
    return 1;
  }
  if (ropts.connect_retries == 0) ropts.connect_retries = 1;
  const auto target_port = static_cast<std::uint16_t>(port);

  try {
    const power::PowerModel model;
    const power::DvsLadder ladder(model);

    // A dead daemon must be a clean failure, not a hang: probe the target
    // with bounded connects before doing any expensive corpus work.
    std::string probe_error;
    std::optional<Socket> probe;
    Rng probe_rng = child_rng(kJitterSeed, 0);
    for (std::size_t a = 0; a < ropts.connect_retries && !probe; ++a) {
      if (a > 0) backoff_sleep(probe_rng, a - 1);
      probe = try_connect_tcp(target_port, "127.0.0.1", kConnectTimeoutMs, &probe_error);
    }
    if (!probe) {
      std::cerr << "error: no daemon reachable on 127.0.0.1:" << port << " ("
                << probe_error << " after " << ropts.connect_retries
                << " attempts); is `lamps serve` running?\n";
      return exit_code_for(ErrorCode::kIo);
    }

    // Corpus: every (graph, strategy) pair is prepared once — the JSON
    // line the clients send and the expected result payload computed
    // directly, bypassing the network.
    std::vector<RequestSpec> corpus;
    corpus.reserve(corpus_size);
    for (std::size_t i = 0; i < corpus_size; ++i) {
      stg::RandomGraphSpec spec;
      spec.name = "loadgen-" + std::to_string(i);
      spec.num_tasks = tasks;
      spec.seed = i + 1;
      const graph::TaskGraph g = stg::generate_random(spec);
      std::ostringstream stg_text;
      stg::write_stg(g, stg_text);
      const core::StrategyKind strategy = core::kAllStrategies[i % core::kAllStrategies.size()];

      std::ostringstream line;
      line << "{\"id\":" << i << ",\"stg\":";
      write_json_string(line, stg_text.str());
      line << ",\"strategy\":";
      write_json_string(line, core::to_string(strategy));
      line << ",\"deadline_factor\":2}\n";

      RequestSpec rs;
      rs.line = line.str();
      const net::ParsedRequest parsed =
          net::parse_schedule_request(rs.line, model);  // the server's own code path
      rs.expected =
          net::result_json(core::run_service_request(parsed.request, model, ladder), ladder);
      corpus.push_back(std::move(rs));
    }

    const std::size_t per_conn = (requests + connections - 1) / connections;
    std::vector<ConnStats> stats(connections);
    std::vector<std::thread> clients;
    clients.reserve(connections);
    const auto t0 = Clock::now();
    for (std::size_t c = 0; c < connections; ++c) {
      const std::size_t begin = c * per_conn;
      const std::size_t count = std::min(per_conn, requests - std::min(requests, begin));
      if (count == 0) break;
      clients.emplace_back([&, c, begin, count] {
        run_connection_closed(target_port, corpus, begin, count, ropts, stats[c]);
      });
    }
    for (auto& t : clients) t.join();
    const double elapsed_s = std::chrono::duration<double>(Clock::now() - t0).count();

    ConnStats total;
    for (const auto& s : stats) {
      total.ok += s.ok;
      total.first_try_ok += s.first_try_ok;
      total.retried_ok += s.retried_ok;
      total.cached += s.cached;
      total.errors += s.errors;
      total.gave_up += s.gave_up;
      total.retries_total += s.retries_total;
      total.reconnects += s.reconnects;
      total.mismatches += s.mismatches;
    }
    const double throughput =
        elapsed_s > 0.0 ? static_cast<double>(total.ok) / elapsed_s : 0.0;
    const auto denom = static_cast<double>(requests);

    std::cout << "requests: " << requests << " over " << clients.size()
              << " connections\n"
              << "ok: " << total.ok << "  cached: " << total.cached
              << "  errors: " << total.errors << "  gave_up: " << total.gave_up
              << "  mismatches: " << total.mismatches << '\n'
              << "eventual success: " << (static_cast<double>(total.ok) / denom) * 1e2
              << "%  first-try: "
              << (static_cast<double>(total.first_try_ok) / denom) * 1e2
              << "%  retries: " << total.retries_total
              << "  reconnects: " << total.reconnects << '\n'
              << "throughput: " << throughput << " req/s  elapsed: " << elapsed_s
              << " s\n";
    if (!json_out.empty()) {
      std::ofstream os(json_out);
      if (!os) {
        std::cerr << "cannot write " << json_out << '\n';
        return 1;
      }
      os << "{\n"
         << "  \"requests\": " << requests << ",\n"
         << "  \"connections\": " << clients.size() << ",\n"
         << "  \"corpus\": " << corpus_size << ",\n"
         << "  \"tasks_per_graph\": " << tasks << ",\n"
         << "  \"ok\": " << total.ok << ",\n"
         << "  \"first_try_ok\": " << total.first_try_ok << ",\n"
         << "  \"retried_ok\": " << total.retried_ok << ",\n"
         << "  \"cached\": " << total.cached << ",\n"
         << "  \"errors\": " << total.errors << ",\n"
         << "  \"gave_up\": " << total.gave_up << ",\n"
         << "  \"retries\": " << total.retries_total << ",\n"
         << "  \"reconnects\": " << total.reconnects << ",\n"
         << "  \"check_mismatches\": " << total.mismatches << ",\n"
         << "  \"elapsed_s\": " << json_double(elapsed_s) << ",\n"
         << "  \"throughput_rps\": " << json_double(throughput) << "\n}\n";
      std::cerr << "wrote " << json_out << '\n';
    }

    if (total.mismatches > 0 || total.errors > 0 || total.gave_up > 0) return 3;
    return 0;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return exit_code_for(e.code());
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
