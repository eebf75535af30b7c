// Chaos-hardening tests for the serving plane (util/faultinject +
// util/socket robustness hooks + the net::Server timeout / deadline /
// bounded-queue machinery):
//
//  - fault-spec parsing and the determinism contract of FaultInjector
//    (same seed => same injection schedule)
//  - LineReader under torn input: byte-at-a-time and seeded random splits
//    parse identically; oversize lines surface as a single kOverflow and
//    the stream resynchronizes
//  - server integration: typed too_large / deadline_exceeded errors,
//    idle-connection reaping, mid-line read timeouts, bounded write
//    queues, healthz degradation reporting, the chaosz admin verb, and a
//    chaos-soaked daemon answering every request byte-identically once
//    the client retries
//
// These live in their own binary on purpose: net_test asserts a global-
// registry accounting identity (total == ok + bad + overloaded +
// internal) that too_large / deadline_exceeded outcomes would extend.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/request.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "stg/format.hpp"
#include "stg/random_gen.hpp"
#include "util/errors.hpp"
#include "util/faultinject.hpp"
#include "util/json.hpp"
#include "util/json_value.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"

namespace lamps::net {
namespace {

std::string small_stg(std::size_t seed, std::size_t tasks = 24) {
  stg::RandomGraphSpec spec;
  spec.name = "chaos-test-" + std::to_string(seed);
  spec.num_tasks = tasks;
  spec.seed = seed;
  std::ostringstream os;
  stg::write_stg(stg::generate_random(spec), os);
  return os.str();
}

std::string request_line(const std::string& stg_text, const std::string& strategy,
                         const std::string& id_json, double deadline_ms = 0.0) {
  std::ostringstream os;
  os << "{\"id\":" << id_json << ",\"stg\":";
  write_json_string(os, stg_text);
  os << ",\"strategy\":";
  write_json_string(os, strategy);
  if (deadline_ms > 0.0) os << ",\"deadline_ms\":" << json_double(deadline_ms);
  os << "}\n";
  return os.str();
}

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter_value(name);
}

// ---------------------------------------------------------------------------
// Fault spec + injector

TEST(FaultSpec, ParsesAndRoundTrips) {
  const FaultSpec spec = parse_fault_spec(
      "seed=42, short_read=0.25,write_reset=0.05,dispatch_delay=0.5,"
      "dispatch_delay_ms=7");
  EXPECT_EQ(spec.seed, 42U);
  EXPECT_DOUBLE_EQ(spec.short_read, 0.25);
  EXPECT_DOUBLE_EQ(spec.write_reset, 0.05);
  EXPECT_DOUBLE_EQ(spec.dispatch_delay, 0.5);
  EXPECT_EQ(spec.dispatch_delay_ms, 7);
  EXPECT_TRUE(spec.any());

  const FaultSpec again = parse_fault_spec(to_string(spec));
  EXPECT_EQ(to_string(again), to_string(spec));

  EXPECT_FALSE(parse_fault_spec("seed=9").any());
  EXPECT_FALSE(FaultSpec{}.any());
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  EXPECT_THROW((void)parse_fault_spec("short_read"), InputError);
  EXPECT_THROW((void)parse_fault_spec("bogus_key=0.5"), InputError);
  EXPECT_THROW((void)parse_fault_spec("short_read=1.5"), InputError);
  EXPECT_THROW((void)parse_fault_spec("short_read=-0.1"), InputError);
  EXPECT_THROW((void)parse_fault_spec("accept_stall_ms=-5"), InputError);
  EXPECT_THROW((void)parse_fault_spec("short_read=abc"), InputError);
}

TEST(FaultInjector, SameSeedSameSchedule) {
  const FaultSpec spec = parse_fault_spec("seed=42,short_read=0.3,read_reset=0.1");
  FaultInjector a(spec);
  FaultInjector b(spec);
  for (int i = 0; i < 500; ++i) {
    const FaultInjector::ReadPlan pa = a.plan_read();
    const FaultInjector::ReadPlan pb = b.plan_read();
    EXPECT_EQ(pa.reset, pb.reset) << "draw " << i;
    EXPECT_EQ(pa.max_bytes, pb.max_bytes) << "draw " << i;
  }
  EXPECT_EQ(a.injected_total(), b.injected_total());
  EXPECT_GT(a.injected_total(), 0U);  // p=0.3/0.1 over 500 draws
  EXPECT_EQ(a.decisions(FaultSite::kShortRead), b.decisions(FaultSite::kShortRead));
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  FaultInjector a(parse_fault_spec("seed=1,short_read=0.5"));
  FaultInjector b(parse_fault_spec("seed=2,short_read=0.5"));
  int differing = 0;
  for (int i = 0; i < 200; ++i) {
    const bool fa = a.plan_read().max_bytes != static_cast<std::size_t>(-1);
    const bool fb = b.plan_read().max_bytes != static_cast<std::size_t>(-1);
    differing += fa != fb ? 1 : 0;
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultInjector, ProbabilityEndpoints) {
  FaultInjector never(parse_fault_spec("write_reset=0"));
  FaultInjector always(parse_fault_spec("write_reset=1"));
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(never.plan_write(64).reset);
    EXPECT_TRUE(always.plan_write(64).reset);
  }
  EXPECT_EQ(never.injected_total(), 0U);
  EXPECT_EQ(always.injected(FaultSite::kWriteReset), 100U);
}

// ---------------------------------------------------------------------------
// LineReader under fragmentation

/// Feeds `payload` through a socketpair in `chunks`-byte pieces and
/// collects everything the reader yields.
std::vector<std::string> read_fragmented(const std::string& payload,
                                         const std::vector<std::size_t>& splits,
                                         std::size_t max_line_bytes = 0) {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::thread writer([&] {
    std::size_t at = 0;
    for (const std::size_t n : splits) {
      const std::size_t len = std::min(n, payload.size() - at);
      if (len == 0) break;
      EXPECT_EQ(::send(fds[1], payload.data() + at, len, 0),
                static_cast<ssize_t>(len));
      at += len;
    }
    EXPECT_EQ(at, payload.size());
    ::close(fds[1]);
  });
  LineReader reader(fds[0], max_line_bytes);
  std::vector<std::string> lines;
  std::string line;
  for (;;) {
    const LineReader::Status status = reader.read_line(line);
    if (status == LineReader::Status::kLine) {
      lines.push_back(line);
    } else if (status == LineReader::Status::kOverflow) {
      lines.push_back("<overflow>");
    } else {
      break;  // kEof / kError
    }
  }
  writer.join();
  ::close(fds[0]);
  return lines;
}

TEST(LineReaderChaos, ByteAtATimeAndRandomSplitsParseIdentically) {
  const std::string payload = "alpha\n\nbeta line with spaces\n{\"k\":1}\ntail";
  const std::vector<std::string> expected = {"alpha", "", "beta line with spaces",
                                             "{\"k\":1}", "tail"};

  EXPECT_EQ(read_fragmented(payload, {payload.size()}), expected);
  EXPECT_EQ(read_fragmented(payload,
                            std::vector<std::size_t>(payload.size(), 1)),
            expected);
  Rng rng = child_rng(7, 0);
  for (int round = 0; round < 8; ++round) {
    std::vector<std::size_t> splits;
    std::size_t left = payload.size();
    while (left > 0) {
      const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform(0, 6));
      splits.push_back(std::min(n, left));
      left -= splits.back();
    }
    EXPECT_EQ(read_fragmented(payload, splits), expected) << "round " << round;
  }
}

TEST(LineReaderChaos, OversizeLineOverflowsOnceAndResyncs) {
  const std::string big(300, 'x');
  const std::string payload = big + "\nok\n";
  const std::vector<std::string> expected = {"<overflow>", "ok"};
  // Whole payload in one recv AND trickled byte-at-a-time: same report.
  EXPECT_EQ(read_fragmented(payload, {payload.size()}, 64), expected);
  EXPECT_EQ(read_fragmented(payload, std::vector<std::size_t>(payload.size(), 1), 64),
            expected);
  // An oversize final line without a terminator is also flagged.
  EXPECT_EQ(read_fragmented(big, {big.size()}, 64),
            std::vector<std::string>{"<overflow>"});
}

// ---------------------------------------------------------------------------
// Protocol additions

TEST(ProtocolChaos, DeadlineMsParsesAndValidates) {
  const power::PowerModel model;
  const std::string stg_text = small_stg(11);
  EXPECT_DOUBLE_EQ(
      parse_schedule_request(request_line(stg_text, "LAMPS", "1"), model)
          .deadline_budget_ms,
      0.0);
  EXPECT_DOUBLE_EQ(
      parse_schedule_request(request_line(stg_text, "LAMPS", "1", 250.0), model)
          .deadline_budget_ms,
      250.0);
  std::ostringstream os;
  os << "{\"stg\":";
  write_json_string(os, stg_text);
  os << ",\"deadline_ms\":0}";
  EXPECT_THROW((void)parse_schedule_request(os.str(), model), InputError);
}

TEST(ProtocolChaos, ChaoszIsAnAdminVerb) {
  // Lines reach the parser with the '\n' already stripped by LineReader.
  const auto bare = parse_admin_request("  chaosz \r");
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare->cmd, AdminCommand::kChaosz);
  const auto json = parse_admin_request("{\"cmd\":\"chaosz\",\"id\":3}");
  ASSERT_TRUE(json.has_value());
  EXPECT_EQ(json->cmd, AdminCommand::kChaosz);
  EXPECT_EQ(json->id_json, "3");
}

// ---------------------------------------------------------------------------
// Server integration

/// One blocking request/response exchange on a fresh connection.
std::string roundtrip(std::uint16_t port, const std::string& line) {
  const Socket sock = connect_tcp(port);
  LineReader reader(sock.fd());
  EXPECT_TRUE(sock.send_all(line));
  std::string response;
  EXPECT_EQ(reader.read_line(response), LineReader::Status::kLine);
  return response;
}

TEST(ServeChaos, OversizeLineGetsTooLargeAndConnectionSurvives) {
  ServerConfig cfg;
  cfg.threads = 2;
  cfg.max_request_bytes = 16384;  // a real request with its STG is ~1-2 KB
  Server server(cfg);
  server.start();

  const std::uint64_t before = counter("serve.requests_too_large");
  const Socket sock = connect_tcp(server.port());
  LineReader reader(sock.fd());
  const std::string oversize = std::string(60000, 'z') + "\n";
  const std::string valid = request_line(small_stg(21), "LAMPS", "\"ok-after\"");
  ASSERT_TRUE(sock.send_all(oversize + valid));

  std::string response;
  ASSERT_EQ(reader.read_line(response), LineReader::Status::kLine);
  EXPECT_NE(response.find("\"error\":\"too_large\""), std::string::npos) << response;
  EXPECT_NE(response.find("\"id\":null"), std::string::npos);
  // Same connection keeps working: the stream resynced at the newline.
  ASSERT_EQ(reader.read_line(response), LineReader::Status::kLine);
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
  EXPECT_NE(response.find("\"id\":\"ok-after\""), std::string::npos);
  // ...and other connections are untouched.
  EXPECT_NE(roundtrip(server.port(), request_line(small_stg(22), "S&S", "5"))
                .find("\"ok\":true"),
            std::string::npos);
  EXPECT_EQ(counter("serve.requests_too_large"), before + 1);
}

TEST(ServeChaos, DeadlineExceededIsTypedAndCounted) {
  ServerConfig cfg;
  cfg.threads = 2;
  Server server(cfg);
  server.start();

  const std::uint64_t before = counter("serve.requests_deadline_exceeded");
  // A graph big enough that its compute dwarfs a 10 us budget: either the
  // queue check or a mid-compute cancel checkpoint must fire.
  const std::string heavy = small_stg(31, 1200);
  const std::string miss =
      roundtrip(server.port(), request_line(heavy, "LAMPS+PS", "\"tight\"", 0.01));
  EXPECT_NE(miss.find("\"error\":\"deadline_exceeded\""), std::string::npos) << miss;
  EXPECT_NE(miss.find("\"id\":\"tight\""), std::string::npos);
  EXPECT_EQ(counter("serve.requests_deadline_exceeded"), before + 1);

  // A generous budget on a fresh graph sails through.
  const std::string ok = roundtrip(
      server.port(), request_line(small_stg(32), "LAMPS", "\"roomy\"", 60'000.0));
  EXPECT_NE(ok.find("\"ok\":true"), std::string::npos) << ok;
}

TEST(ServeChaos, DefaultDeadlineAppliesWhenRequestOmitsIt) {
  ServerConfig cfg;
  cfg.threads = 2;
  cfg.default_deadline_ms = 0.01;
  Server server(cfg);
  server.start();
  const std::string response = roundtrip(
      server.port(), request_line(small_stg(33, 1200), "LAMPS+PS", "\"srv\""));
  EXPECT_NE(response.find("\"error\":\"deadline_exceeded\""), std::string::npos)
      << response;
}

TEST(ServeChaos, IdleConnectionIsReaped) {
  ServerConfig cfg;
  cfg.threads = 1;
  cfg.idle_timeout_s = 0.05;
  cfg.read_timeout_s = 10.0;
  Server server(cfg);
  server.start();

  const std::uint64_t before = counter("serve.idle_reaped");
  const Socket sock = connect_tcp(server.port());
  LineReader reader(sock.fd());
  std::string line;
  // No bytes sent: the server must hang up on its own.
  EXPECT_EQ(reader.read_line(line), LineReader::Status::kEof);
  EXPECT_EQ(counter("serve.idle_reaped"), before + 1);
}

TEST(ServeChaos, MidLineStallHitsReadTimeout) {
  ServerConfig cfg;
  cfg.threads = 1;
  cfg.read_timeout_s = 0.05;
  cfg.idle_timeout_s = 10.0;
  Server server(cfg);
  server.start();

  const std::uint64_t before = counter("serve.read_timeouts");
  const Socket sock = connect_tcp(server.port());
  ASSERT_TRUE(sock.send_all("{\"id\":1,\"stg\":"));  // never finished
  LineReader reader(sock.fd());
  std::string line;
  EXPECT_EQ(reader.read_line(line), LineReader::Status::kEof);
  EXPECT_EQ(counter("serve.read_timeouts"), before + 1);
}

TEST(ServeChaos, WriteQueueOverflowDisconnectsPipelineFlooder) {
  ServerConfig cfg;
  cfg.threads = 1;
  cfg.max_write_queue = 2;
  cfg.max_pending = 64;  // admission must not shed first
  Server server(cfg);
  server.start();

  const std::uint64_t before = counter("serve.write_queue_overflow");
  const Socket sock = connect_tcp(server.port());
  // Ten distinct heavy requests in one burst: with one worker the deque
  // behind the writer grows past 2 while request #1 still computes.
  std::string burst;
  for (std::size_t i = 0; i < 10; ++i)
    burst += request_line(small_stg(40 + i, 600), "LAMPS+PS",
                          std::to_string(i));
  ASSERT_TRUE(sock.send_all(burst));

  LineReader reader(sock.fd());
  std::string line;
  std::size_t received = 0;
  while (reader.read_line(line) == LineReader::Status::kLine) ++received;
  // Everything admitted was answered, then the flooder was cut off.
  EXPECT_GE(received, 1U);
  EXPECT_LT(received, 10U);
  EXPECT_GE(counter("serve.write_queue_overflow"), before + 1);
}

TEST(ServeChaos, HealthzReportsDegradedThenRecovers) {
  ServerConfig cfg;
  cfg.threads = 1;
  cfg.idle_timeout_s = 0.05;
  Server server(cfg);
  server.start();

  {
    // Provoke one idle reap inside the first healthz window.
    const Socket idle = connect_tcp(server.port());
    LineReader reader(idle.fd());
    std::string line;
    EXPECT_EQ(reader.read_line(line), LineReader::Status::kEof);
  }
  const std::string degraded = roundtrip(server.port(), "healthz\n");
  EXPECT_NE(degraded.find("\"status\":\"degraded\""), std::string::npos) << degraded;
  EXPECT_NE(degraded.find("\"idle_reaped\":1"), std::string::npos) << degraded;
  // The window reset with that scrape; a quiet interval reads healthy.
  const std::string healthy = roundtrip(server.port(), "healthz\n");
  EXPECT_NE(healthy.find("\"status\":\"ok\""), std::string::npos) << healthy;
  EXPECT_NE(healthy.find("\"shed_rate\":"), std::string::npos);
  EXPECT_NE(healthy.find("\"deadline_miss_rate\":"), std::string::npos);
}

TEST(ServeChaos, ChaoszReportsSpecAndCounts) {
  ServerConfig cfg;
  cfg.threads = 1;
  cfg.chaos = std::make_shared<FaultInjector>(
      parse_fault_spec("seed=5,dispatch_delay=1,dispatch_delay_ms=1"));
  Server server(cfg);
  server.start();

  // One computed request must draw (and hit) the dispatch_delay site.
  const std::string ok =
      roundtrip(server.port(), request_line(small_stg(51), "LAMPS", "1"));
  EXPECT_NE(ok.find("\"ok\":true"), std::string::npos) << ok;

  const std::string chaosz = roundtrip(server.port(), "chaosz\n");
  const JsonValue doc = JsonValue::parse(chaosz);
  EXPECT_TRUE(doc.get("enabled")->as_bool());
  EXPECT_EQ(doc.get("seed")->as_number(), 5.0);
  EXPECT_GE(doc.get("injected_total")->as_number(), 1.0);
  const JsonValue* site = doc.get("sites")->get("dispatch_delay");
  ASSERT_NE(site, nullptr);
  EXPECT_GE(site->get_number("injected", 0.0), 1.0);
  EXPECT_GE(site->get_number("decisions", 0.0),
            site->get_number("injected", 0.0));
}

TEST(ServeChaos, ChaoszReportsDisabledWithoutSpec) {
  ServerConfig cfg;
  cfg.threads = 1;
  Server server(cfg);
  server.start();
  const std::string chaosz = roundtrip(server.port(), "chaosz\n");
  EXPECT_NE(chaosz.find("\"enabled\":false"), std::string::npos) << chaosz;
}

TEST(ServeChaos, ChaosSoakedServerAnswersEverythingWithRetries) {
  // Three seeds, three fully distinct fault schedules over the same
  // non-blocking I/O paths (send_some / LineReader::fill / accept / pool
  // dispatch); every seed must converge to 100% eventual success with
  // byte-identical payloads.
  for (const unsigned seed : {3u, 11u, 29u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ServerConfig cfg;
    cfg.threads = 2;
    cfg.chaos = std::make_shared<FaultInjector>(parse_fault_spec(
        "seed=" + std::to_string(seed) +
        ",short_read=0.6,read_reset=0.04,short_write=0.3,torn_write=0.4,"
        "dispatch_delay=0.3,dispatch_delay_ms=2"));
    Server server(cfg);
    server.start();

    const power::PowerModel model;
    const power::DvsLadder ladder(model);
    struct Item {
      std::string line;
      std::string expected;
    };
    std::vector<Item> corpus;
    for (std::size_t i = 0; i < 6; ++i) {
      Item item;
      item.line = request_line(small_stg(60 + i, 32),
                               i % 2 == 0 ? "LAMPS" : "S&S+PS", std::to_string(i));
      const ParsedRequest parsed = parse_schedule_request(item.line, model);
      item.expected =
          result_json(core::run_service_request(parsed.request, model, ladder), ladder);
      corpus.push_back(std::move(item));
    }

    std::optional<Socket> sock;
    std::optional<LineReader> reader;
    std::size_t eventual_ok = 0;
    std::size_t reconnects = 0;
    for (std::size_t i = 0; i < 30; ++i) {
      const Item& item = corpus[i % corpus.size()];
      for (int attempt = 0; attempt < 8; ++attempt) {
        if (!sock.has_value()) {
          sock = try_connect_tcp(server.port(), "127.0.0.1", 2000);
          ASSERT_TRUE(sock.has_value());
          reader.emplace(sock->fd());
          ++reconnects;
        }
        std::string response;
        if (!sock->send_all(item.line) ||
            reader->read_line(response) != LineReader::Status::kLine) {
          sock.reset();  // injected reset: reconnect and retry
          reader.reset();
          continue;
        }
        ASSERT_NE(response.find("\"ok\":true"), std::string::npos) << response;
        // The hard guarantee: chaos may slow or sever, but every success is
        // byte-identical to the direct computation.
        EXPECT_EQ(extract_result_json(response), item.expected);
        ++eventual_ok;
        break;
      }
    }
    EXPECT_EQ(eventual_ok, 30U);
    EXPECT_GT(cfg.chaos->injected_total(), 0U);
    EXPECT_GT(cfg.chaos->decisions(FaultSite::kShortRead), 0U);
  }
}

TEST(ServeChaos, FragmentedRequestParsesIdentically) {
  ServerConfig cfg;
  cfg.threads = 1;
  Server server(cfg);
  server.start();

  const std::string line = request_line(small_stg(71), "LIMIT-SF", "\"frag\"");
  const std::string whole = roundtrip(server.port(), line);
  ASSERT_NE(whole.find("\"ok\":true"), std::string::npos) << whole;

  const Socket sock = connect_tcp(server.port());
  for (std::size_t i = 0; i < line.size(); ++i)
    ASSERT_TRUE(sock.send_all(std::string_view(line.data() + i, 1)));
  LineReader reader(sock.fd());
  std::string response;
  ASSERT_EQ(reader.read_line(response), LineReader::Status::kLine);
  EXPECT_EQ(extract_result_json(response), extract_result_json(whole));
}

}  // namespace
}  // namespace lamps::net
