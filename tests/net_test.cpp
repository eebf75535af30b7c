// Integration and unit tests for the serving layer (src/net + the
// supporting util/socket, util/signal and core/request pieces):
//
//  - wire protocol parsing and error taxonomy
//  - request digest stability (the single-flight / LRU cache key), and
//    agreement between the wire's request and the one the CLI builds
//  - the network contract: a loopback-only listener, and no file-system
//    access on a client's behalf
//  - ResultCache semantics: LRU hits, admission-time single-flight joins,
//    leader failure fan-out
//  - the full TCP daemon: concurrent clients receiving responses
//    bit-identical to direct core::run_strategy results, ordered
//    pipelined responses, and graceful drain losing zero accepted
//    requests
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/event_loop.hpp"

#include "core/request.hpp"
#include "graph/task_graph.hpp"
#include "net/protocol.hpp"
#include "net/result_cache.hpp"
#include "net/server.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "stg/format.hpp"
#include "stg/random_gen.hpp"
#include "util/errors.hpp"
#include "util/faultinject.hpp"
#include "util/json.hpp"
#include "util/json_value.hpp"
#include "util/signal.hpp"
#include "util/socket.hpp"

namespace lamps::net {
namespace {

std::string small_stg(std::size_t seed, std::size_t tasks = 24) {
  stg::RandomGraphSpec spec;
  spec.name = "net-test-" + std::to_string(seed);
  spec.num_tasks = tasks;
  spec.seed = seed;
  std::ostringstream os;
  stg::write_stg(stg::generate_random(spec), os);
  return os.str();
}

std::string request_line(const std::string& stg_text, const std::string& strategy,
                         const std::string& id_json) {
  std::ostringstream os;
  os << "{\"id\":" << id_json << ",\"stg\":";
  write_json_string(os, stg_text);
  os << ",\"strategy\":";
  write_json_string(os, strategy);
  os << "}\n";
  return os.str();
}

TEST(Protocol, ParsesInlineRequestAndResolvesDeadline) {
  const power::PowerModel model;
  const ParsedRequest p =
      parse_schedule_request(request_line(small_stg(1), "LAMPS", "\"r-1\""), model);
  EXPECT_EQ(p.id_json, "\"r-1\"");
  EXPECT_EQ(p.request.strategy, core::StrategyKind::kLamps);
  EXPECT_GT(p.request.graph.num_tasks(), 0U);
  EXPECT_GT(p.request.deadline.value(), 0.0);  // 2x CPL at f_max by default
}

TEST(Protocol, RejectsMalformedRequests) {
  const power::PowerModel model;
  const std::string stg_text = small_stg(1);
  // not JSON
  EXPECT_THROW((void)parse_schedule_request("hello", model), InputError);
  // neither stg nor file
  EXPECT_THROW((void)parse_schedule_request("{\"strategy\":\"LAMPS\"}", model),
               InputError);
  // both stg and file
  {
    std::ostringstream os;
    os << "{\"stg\":";
    write_json_string(os, stg_text);
    os << ",\"file\":\"x.stg\"}";
    EXPECT_THROW((void)parse_schedule_request(os.str(), model), InputError);
  }
  // unknown strategy
  EXPECT_THROW(
      (void)parse_schedule_request(request_line(stg_text, "BOGUS", "1"), model),
      InputError);
  // invalid deadlines: a non-positive factor or absolute deadline, and
  // deadlines past 2^63 - 1 cycles at f_max, where the EDF keys (signed
  // 64-bit) would wrap
  for (const char* field :
       {"\"deadline_factor\":-1", "\"deadline_factor\":1e11", "\"deadline_s\":1e11",
        "\"deadline_s\":0", "\"deadline_s\":-1"}) {
    std::ostringstream os;
    os << "{\"stg\":";
    write_json_string(os, stg_text);
    os << ',' << field << '}';
    EXPECT_THROW((void)parse_schedule_request(os.str(), model), InputError) << field;
  }
}

TEST(Protocol, RejectsUnitsThatDoNotFitWholeCycles) {
  const power::PowerModel model;
  // A one-second deadline, so that only the unit decides: the default, twice
  // the critical path, is past 2^63 cycles at the largest accepted unit.
  const auto with_unit = [](const std::string& unit) {
    return R"({"stg":"1\n0 0 0\n1 10 1 0\n2 0 1 1\n","deadline_s":1,"unit":)" + unit + "}";
  };
  for (const char* unit : {"0.5", "1.5", "1e30", "18446744073709551616", "1e19"}) {
    try {
      (void)parse_schedule_request(with_unit(unit), model);
      ADD_FAILURE() << "accepted unit " << unit;
    } catch (const InputError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kConfig) << unit;
    }
  }
  // The largest unit the weight still fits under is accepted exactly.
  const ParsedRequest p = parse_schedule_request(with_unit("1e18"), model);
  EXPECT_EQ(p.request.graph.total_work(), Cycles{10'000'000'000'000'000'000U});
}

TEST(Protocol, ResultJsonIsFlatAndExtractableFromResponses) {
  const power::PowerModel model;
  const power::DvsLadder ladder(model);
  const ParsedRequest p =
      parse_schedule_request(request_line(small_stg(2), "LAMPS+PS", "7"), model);
  const std::string payload =
      result_json(core::run_service_request(p.request, model, ladder), ladder);
  EXPECT_EQ(payload.find('{'), 0U);
  EXPECT_EQ(payload.find('}'), payload.size() - 1);  // flat: single closing brace

  const std::string response = ok_response("7", payload, false, 1.25);
  EXPECT_EQ(extract_result_json(response), payload);
  const JsonValue doc = JsonValue::parse(response);
  EXPECT_TRUE(doc.get("ok")->as_bool());
  EXPECT_DOUBLE_EQ(doc.get("id")->as_number(), 7.0);
  EXPECT_TRUE(doc.get("result")->get("feasible")->is_bool());
  EXPECT_GE(doc.get("result")->get_number("energy_j", -1.0), 0.0);
}

TEST(RequestDigest, IdenticalRequestsCollideDifferentOnesDoNot) {
  const power::PowerModel model;
  const std::string stg_text = small_stg(3);
  const ParsedRequest a =
      parse_schedule_request(request_line(stg_text, "LAMPS", "1"), model);
  const ParsedRequest b =
      parse_schedule_request(request_line(stg_text, "LAMPS", "2"), model);
  EXPECT_EQ(core::service_request_digest(a.request),
            core::service_request_digest(b.request));  // id is not part of the key

  const ParsedRequest other_strategy =
      parse_schedule_request(request_line(stg_text, "S&S", "1"), model);
  EXPECT_NE(core::service_request_digest(a.request),
            core::service_request_digest(other_strategy.request));

  const ParsedRequest other_graph =
      parse_schedule_request(request_line(small_stg(4), "LAMPS", "1"), model);
  EXPECT_NE(core::service_request_digest(a.request),
            core::service_request_digest(other_graph.request));

  core::ServiceRequest tighter = a.request;
  tighter.deadline = Seconds{a.request.deadline.value() * 0.5};
  EXPECT_NE(core::service_request_digest(a.request),
            core::service_request_digest(tighter));
}

// data/pipeline.stg and data/fork_join.stg, embedded so the test does not
// depend on the working directory.
constexpr const char* kPipelineStg =
    "8\n0 0 0\n1 12 1 0\n2 30 1 1\n3 18 1 1\n4 26 1 2\n5 22 2 2 3\n6 14 1 3\n"
    "7 20 3 4 5 6\n8 10 1 7\n9 0 1 8\n";
constexpr const char* kForkJoinStg =
    "8\n0 0 0\n1 5 1 0\n2 40 1 1\n3 35 1 1\n4 30 1 1\n5 25 1 1\n6 20 1 1\n"
    "7 15 1 1\n8 5 6 2 3 4 5 6 7\n9 0 1 8\n";

// The CLI builds its request from the graph it read and its flags; the
// daemon from the same text sent inline.  Both doors must yield the same
// cache key and the same result bytes.
TEST(RequestDigest, CliAndWireBuildTheSameRequest) {
  const power::PowerModel model;
  const power::DvsLadder ladder(model);
  const std::string texts[] = {kPipelineStg, kForkJoinStg, small_stg(80, 40),
                               small_stg(81, 60)};
  for (const std::string& text : texts) {
    for (const double unit : {3.1e4, 3.1e6}) {
      for (const double factor : {1.2, 2.0, 8.0}) {
        for (const core::StrategyKind k : core::kAllStrategies) {
          SCOPED_TRACE(text.substr(0, 24) + " unit " + json_double(unit) + " factor " +
                       json_double(factor) + " " + std::string(core::to_string(k)));
          core::RequestSpec spec;
          spec.unit = unit;
          spec.deadline_factor = factor;
          spec.strategy = k;
          std::istringstream is(text);
          const core::ServiceRequest cli =
              core::make_service_request(stg::read_stg(is), spec, model);

          std::ostringstream line;
          line << "{\"stg\":";
          write_json_string(line, text);
          line << ",\"unit\":" << json_double(unit)
               << ",\"deadline_factor\":" << json_double(factor) << ",\"strategy\":";
          write_json_string(line, core::to_string(k));
          line << '}';
          const ParsedRequest wire = parse_schedule_request(line.str(), model);

          EXPECT_EQ(core::service_request_digest(cli),
                    core::service_request_digest(wire.request));
          EXPECT_EQ(result_json(core::run_service_request(cli, model, ladder), ladder),
                    result_json(core::run_service_request(wire.request, model, ladder),
                                ladder));
        }
      }
    }
  }
}

// Pinned request digests: the cache key must not drift when the request
// path changes underneath it (the STG reader, the graph transforms, the
// hash).  Only "stg" is sent, so the unit, the deadline factor and the
// strategy are the wire's defaults.
TEST(RequestDigest, GoldenValuesArePinned) {
  const power::PowerModel model;
  const std::pair<std::string, std::uint64_t> golden[] = {
      {kPipelineStg, 0x922c1c807a6ca8b2},
      {kForkJoinStg, 0x62071c69d1da54a7},
      {small_stg(80, 40), 0x116e3a89df0c5701},
      {small_stg(81, 60), 0x93a4e7cb9b282ca7},
  };
  for (const auto& [text, digest] : golden) {
    std::ostringstream line;
    line << "{\"stg\":";
    write_json_string(line, text);
    line << '}';
    EXPECT_EQ(core::service_request_digest(parse_schedule_request(line.str(), model).request),
              digest)
        << text.substr(0, 24);
  }
}

struct Delivery {
  std::string payload;
  bool cached{false};
  std::string error;
  int calls{0};
};

ResultCache::Consumer record_into(Delivery& d) {
  return [&d](const std::string& payload, bool cached, const std::string& error) {
    d.payload = payload;
    d.cached = cached;
    d.error = error;
    ++d.calls;
  };
}

TEST(ResultCacheTest, LeaderComputesFollowersJoinInFlight) {
  const auto& reg = obs::Registry::global();
  const std::uint64_t joins_before = reg.counter_value("serve.singleflight_hits");

  ResultCache cache(4);
  Delivery leader, follower1, follower2;
  // Admission-time single flight: the window is open from subscribe() to
  // complete(), covering queueing — the property the 1-CPU CI box relies
  // on to ever observe a join.
  ASSERT_TRUE(cache.subscribe(42, record_into(leader)));
  EXPECT_FALSE(cache.subscribe(42, record_into(follower1)));
  EXPECT_FALSE(cache.subscribe(42, record_into(follower2)));
  EXPECT_EQ(leader.calls, 0);  // nothing delivered until the leader finishes

  cache.complete(42, "payload-42");
  EXPECT_EQ(leader.calls, 1);
  EXPECT_EQ(leader.payload, "payload-42");
  EXPECT_FALSE(leader.cached);
  EXPECT_EQ(follower1.calls, 1);
  EXPECT_TRUE(follower1.cached);
  EXPECT_EQ(follower1.payload, "payload-42");
  EXPECT_TRUE(follower2.cached);

  // Completed entries are LRU hits, delivered inline.
  Delivery late;
  EXPECT_FALSE(cache.subscribe(42, record_into(late)));
  EXPECT_EQ(late.calls, 1);
  EXPECT_TRUE(late.cached);
  EXPECT_EQ(late.payload, "payload-42");

  EXPECT_EQ(reg.counter_value("serve.singleflight_hits"), joins_before + 2);
}

TEST(ResultCacheTest, LeaderFailureFansOutAndIsNotCached) {
  ResultCache cache(4);
  Delivery leader, follower;
  ASSERT_TRUE(cache.subscribe(7, record_into(leader)));
  EXPECT_FALSE(cache.subscribe(7, record_into(follower)));
  cache.fail(7, "boom");
  EXPECT_EQ(leader.error, "boom");
  EXPECT_EQ(follower.error, "boom");
  EXPECT_EQ(cache.size(), 0U);

  // The failure was not cached: the next subscriber becomes a new leader.
  Delivery retry;
  EXPECT_TRUE(cache.subscribe(7, record_into(retry)));
  cache.complete(7, "ok");
  EXPECT_EQ(retry.payload, "ok");
}

TEST(ResultCacheTest, LruEvictsLeastRecentlyUsed) {
  ResultCache cache(2);
  Delivery d;
  ASSERT_TRUE(cache.subscribe(1, record_into(d)));
  cache.complete(1, "one");
  ASSERT_TRUE(cache.subscribe(2, record_into(d)));
  cache.complete(2, "two");
  EXPECT_FALSE(cache.subscribe(1, record_into(d)));  // refresh key 1
  ASSERT_TRUE(cache.subscribe(3, record_into(d)));   // evicts key 2
  cache.complete(3, "three");
  EXPECT_EQ(cache.size(), 2U);
  EXPECT_FALSE(cache.subscribe(1, record_into(d)));  // still cached
  EXPECT_TRUE(cache.subscribe(2, record_into(d)));   // evicted -> new leader
  cache.fail(2, "abandon");
}

TEST(DrainSignal, RequestAndResetRoundTrip) {
  const int fd = install_drain_signal_handlers();
  ASSERT_GE(fd, 0);
  EXPECT_EQ(fd, drain_signal_fd());
  reset_drain_signal_for_testing();
  EXPECT_FALSE(drain_signal_pending());
  EXPECT_FALSE(poll_readable(fd, 0));
  request_drain_signal();
  EXPECT_TRUE(drain_signal_pending());
  EXPECT_TRUE(poll_readable(fd, 0));
  reset_drain_signal_for_testing();
  EXPECT_FALSE(drain_signal_pending());
  EXPECT_FALSE(poll_readable(fd, 0));
}

TEST(ServeIntegration, ConcurrentClientsGetBitIdenticalResults) {
  const power::PowerModel model;
  const power::DvsLadder ladder(model);

  // 4 graphs x 2 strategies; each of the 32 clients sends one of the 8
  // distinct requests, so the cache and single-flight paths both serve
  // some of them — and every response must still be byte-identical to the
  // direct computation.
  const std::vector<std::string> graphs = {small_stg(10), small_stg(11), small_stg(12),
                                           small_stg(13)};
  const std::vector<std::string> strategies = {"LAMPS+PS", "S&S"};
  std::vector<std::string> lines;
  std::vector<std::string> expected;
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    for (std::size_t s = 0; s < strategies.size(); ++s) {
      const std::string id = std::to_string(g * strategies.size() + s);
      lines.push_back(request_line(graphs[g], strategies[s], id));
      const ParsedRequest parsed = parse_schedule_request(lines.back(), model);
      expected.push_back(
          result_json(core::run_service_request(parsed.request, model, ladder), ladder));
    }
  }

  ServerConfig cfg;
  cfg.threads = 4;
  // All 32 clients burst at once; this test is about bit-exactness, not
  // shedding, so the admission queue must hold the whole burst.
  cfg.max_pending = 64;
  Server server(cfg);
  server.start();
  ASSERT_GT(server.port(), 0);

  constexpr std::size_t kClients = 32;
  std::vector<std::string> responses(kClients);
  std::atomic<int> failures{0};
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        const Socket sock = connect_tcp(server.port());
        if (!sock.send_all(lines[c % lines.size()])) {
          failures.fetch_add(1);
          return;
        }
        LineReader reader(sock.fd());
        if (reader.read_line(responses[c]) != LineReader::Status::kLine)
          failures.fetch_add(1);
      });
    }
    for (auto& t : clients) t.join();
  }
  server.request_drain();
  server.wait();

  EXPECT_EQ(failures.load(), 0);
  for (std::size_t c = 0; c < kClients; ++c) {
    SCOPED_TRACE("client " + std::to_string(c));
    const JsonValue doc = JsonValue::parse(responses[c]);
    EXPECT_TRUE(doc.get("ok")->as_bool()) << responses[c];
    EXPECT_EQ(extract_result_json(responses[c]), expected[c % expected.size()]);
  }
}

TEST(ServeIntegration, PipelinedRequestsAnswerInOrderIncludingErrors) {
  ServerConfig cfg;
  cfg.threads = 2;
  Server server(cfg);
  server.start();

  const std::string stg_text = small_stg(20);
  std::string batch;
  batch += request_line(stg_text, "LAMPS", "\"a\"");
  batch += "this is not json\n";
  batch += request_line(stg_text, "LAMPS", "\"b\"");

  const Socket sock = connect_tcp(server.port());
  ASSERT_TRUE(sock.send_all(batch));
  LineReader reader(sock.fd());
  std::string r1, r2, r3;
  ASSERT_EQ(reader.read_line(r1), LineReader::Status::kLine);
  ASSERT_EQ(reader.read_line(r2), LineReader::Status::kLine);
  ASSERT_EQ(reader.read_line(r3), LineReader::Status::kLine);
  EXPECT_EQ(JsonValue::parse(r1).get("id")->as_string(), "a");
  EXPECT_FALSE(JsonValue::parse(r2).get("ok")->as_bool());
  EXPECT_EQ(JsonValue::parse(r2).get_string("error", ""), "bad_request");
  EXPECT_EQ(JsonValue::parse(r3).get("id")->as_string(), "b");
  // The identical request "b" was served from cache or single flight —
  // either way its result matches "a"'s byte for byte.
  EXPECT_EQ(extract_result_json(r3), extract_result_json(r1));

  server.request_drain();
  server.wait();
}

// Request lines that used to take the daemon down (std::terminate from
// an untyped parse exception, or a stack overflow in the JSON parser).
// Each must come back as a typed bad_request, and the same connection
// must keep serving afterwards.
TEST(ServeIntegration, HostileRequestLinesGetBadRequestAndServingContinues) {
  ServerConfig cfg;
  cfg.threads = 2;
  Server server(cfg);
  server.start();

  const std::string tiny = R"("1\n0 0 0\n1 10 1 0\n2 0 1 1\n")";
  const std::string hostile[] = {
      R"({"stg":)" + tiny + R"(,"unit":1e19})",  // weight x unit overflows
      R"({"stg":"2\n0 0 0\n1 10 1 0\n2 10 1 0\n3 0 2 1 2\n","unit":1e18})",  // total work
      R"({"stg":)" + tiny + R"(,"unit":1e30})",  // unit beyond 64 bits
      R"({"stg":)" + tiny + R"(,"unit":1.5})",   // fractional unit
      R"({"stg":"18446744073709551613\n0 0 0\n"})",  // header count past any task id
      std::string(2 << 20, '['),                      // nesting past the stack
  };
  const std::string valid = request_line(small_stg(21), "LAMPS+PS", "\"after\"");

  const Socket sock = connect_tcp(server.port());
  LineReader reader(sock.fd());
  for (const std::string& line : hostile) {
    SCOPED_TRACE(line.substr(0, 72));
    ASSERT_TRUE(sock.send_all(line + "\n"));
    std::string resp;
    ASSERT_EQ(reader.read_line(resp), LineReader::Status::kLine);
    const JsonValue bad = JsonValue::parse(resp);
    EXPECT_FALSE(bad.get("ok")->as_bool());
    EXPECT_EQ(bad.get_string("error", ""), "bad_request") << resp;

    ASSERT_TRUE(sock.send_all(valid));
    ASSERT_EQ(reader.read_line(resp), LineReader::Status::kLine);
    const JsonValue good = JsonValue::parse(resp);
    EXPECT_TRUE(good.get("ok")->as_bool()) << resp;
    EXPECT_EQ(good.get("id")->as_string(), "after");
  }

  server.request_drain();
  server.wait();
}

TEST(ListenSocketTest, BindsLoopbackOnly) {
  const ListenSocket listener(0);
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(listener.fd(), reinterpret_cast<sockaddr*>(&addr), &len), 0);
  char text[INET_ADDRSTRLEN] = {};
  ASSERT_NE(::inet_ntop(AF_INET, &addr.sin_addr, text, sizeof text), nullptr);
  EXPECT_STREQ(text, "127.0.0.1");
}

// A "file" key is refused unread.  Opening a FIFO for reading blocks until
// a writer comes, so a daemon that opened the path would stall the one
// loop thread every connection shares.
TEST(ServeIntegration, FileFieldIsRefusedWithoutOpeningThePath) {
  const std::filesystem::path fifo =
      std::filesystem::temp_directory_path() /
      ("lamps-net-test-" + std::to_string(::getpid()) + ".fifo");
  std::filesystem::remove(fifo);
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0) << std::strerror(errno);

  ServerConfig cfg;
  cfg.threads = 1;
  Server server(cfg);
  server.start();
  std::ostringstream request;
  request << "{\"id\":1,\"file\":";
  write_json_string(request, fifo.string());
  request << "}\n";
  const Socket sock = connect_tcp(server.port());
  EXPECT_TRUE(sock.send_all(request.str()));
  const bool answered = poll_readable(sock.fd(), 2000);
  const Socket admin = connect_tcp(server.port());
  EXPECT_TRUE(admin.send_all("healthz\n"));
  const bool admin_answered = poll_readable(admin.fd(), 1000);
  // A loop thread blocked in open(2) on the FIFO finishes once a writer
  // comes and goes, so a daemon that reads the path fails this test
  // instead of hanging it.
  if (const int writer = ::open(fifo.c_str(), O_WRONLY | O_NONBLOCK); writer >= 0)
    ::close(writer);

  EXPECT_TRUE(answered) << "no answer within 2 s";
  EXPECT_TRUE(admin_answered) << "healthz got no answer within 1 s";
  LineReader reader(sock.fd());
  std::string response;
  EXPECT_EQ(reader.read_line(response), LineReader::Status::kLine);
  const JsonValue doc = JsonValue::parse(response);
  EXPECT_EQ(doc.get_string("error", ""), "bad_request") << response;
  EXPECT_EQ(doc.get_string("message", "").rfind("E_CONFIG", 0), 0U) << response;

  server.request_drain();
  server.wait();
  std::filesystem::remove(fifo);
}

TEST(ServeIntegration, OverloadShedsWithExplicitBackpressureResponse) {
  ServerConfig cfg;
  cfg.threads = 1;
  cfg.max_pending = 1;
  // Every compute first sleeps 200 ms (the chaos dispatch delay, drawn with
  // probability one).  A 24-task compute alone can finish before the loop
  // has parsed the next line, which let all ten through now and then.
  cfg.chaos = std::make_shared<FaultInjector>(
      parse_fault_spec("dispatch_delay=1,dispatch_delay_ms=200"));
  Server server(cfg);
  server.start();

  // 10 distinct pipelined requests against a single worker and a pending
  // bound of one: admission outruns the computes, so most requests must be
  // shed with an explicit "overloaded" error instead of queueing unboundedly.
  std::string batch;
  for (std::size_t i = 0; i < 10; ++i)
    batch += request_line(small_stg(50 + i), "LAMPS", std::to_string(i));
  const Socket sock = connect_tcp(server.port());
  ASSERT_TRUE(sock.send_all(batch));

  LineReader reader(sock.fd());
  std::size_t ok = 0;
  std::size_t shed = 0;
  for (std::size_t i = 0; i < 10; ++i) {
    std::string line;
    ASSERT_EQ(reader.read_line(line), LineReader::Status::kLine);
    const JsonValue doc = JsonValue::parse(line);
    if (doc.get("ok")->as_bool()) {
      ++ok;
    } else {
      EXPECT_EQ(doc.get_string("error", ""), "overloaded") << line;
      ++shed;
    }
  }
  server.request_drain();
  server.wait();
  EXPECT_GE(ok, 1U);    // the admitted head of the pipeline completes
  EXPECT_GE(shed, 1U);  // and the burst beyond the bound is refused loudly
  EXPECT_EQ(ok + shed, 10U);
}

TEST(ServeIntegration, DrainLosesZeroAcceptedRequests) {
  const auto& reg = obs::Registry::global();
  ServerConfig cfg;
  cfg.threads = 2;
  cfg.max_pending = 64;  // roomy: this test is about drain, not shedding
  Server server(cfg);
  server.start();

  // Several connections, several pipelined requests each, all written
  // before the drain begins: the drain contract is that every one of them
  // is answered before the daemon finishes.
  constexpr std::size_t kConns = 4;
  constexpr std::size_t kPerConn = 5;
  const std::uint64_t accepted_before = reg.counter_value("serve.connections_total");
  std::vector<Socket> socks;
  for (std::size_t c = 0; c < kConns; ++c) {
    socks.push_back(connect_tcp(server.port()));
    std::string batch;
    for (std::size_t i = 0; i < kPerConn; ++i)
      batch += request_line(small_stg(30 + i), "LAMPS+PS",
                            "\"" + std::to_string(c) + "-" + std::to_string(i) + "\"");
    ASSERT_TRUE(socks.back().send_all(batch));
  }
  // The TCP handshake completes in the kernel backlog before the server's
  // accept loop runs; only *accepted* connections are covered by the drain
  // contract, so wait until all four were picked up.
  while (reg.counter_value("serve.connections_total") < accepted_before + kConns)
    std::this_thread::yield();

  server.request_drain();
  EXPECT_TRUE(server.draining());

  // New connections must be refused while existing ones drain.  The
  // accept loop closes the listener as soon as its poll wakes; allow it
  // that one scheduling round trip.
  bool refused = false;
  for (int attempt = 0; attempt < 200 && !refused; ++attempt) {
    try {
      (void)connect_tcp(server.port());
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    } catch (const InternalError&) {
      refused = true;
    }
  }
  EXPECT_TRUE(refused);

  std::size_t answered = 0;
  for (auto& sock : socks) {
    LineReader reader(sock.fd());
    std::string line;
    while (reader.read_line(line) == LineReader::Status::kLine) {
      EXPECT_TRUE(JsonValue::parse(line).get("ok")->as_bool()) << line;
      ++answered;
    }
  }
  server.wait();
  EXPECT_EQ(answered, kConns * kPerConn);
  EXPECT_EQ(reg.counter_value("serve.requests_total") -
                reg.counter_value("serve.requests_bad_request") -
                reg.counter_value("serve.requests_overloaded") -
                reg.counter_value("serve.requests_internal_error"),
            reg.counter_value("serve.requests_ok"));
}

TEST(Protocol, ParsesAdminRequestsAndIgnoresScheduleLines) {
  // Bare-word form, whitespace-tolerant.
  for (const auto& [word, cmd] :
       {std::pair<const char*, AdminCommand>{"statsz", AdminCommand::kStatsz},
        {"healthz", AdminCommand::kHealthz},
        {"cachez", AdminCommand::kCachez},
        {"flightz", AdminCommand::kFlightz},
        {"quitquitquit", AdminCommand::kQuit}}) {
    const auto req = parse_admin_request(std::string("  ") + word + " \r");
    ASSERT_TRUE(req.has_value()) << word;
    EXPECT_EQ(req->cmd, cmd);
    EXPECT_EQ(req->id_json, "null");
    EXPECT_STREQ(to_string(req->cmd), word);
  }

  // JSON form carries an id (echoed verbatim) and a flightz limit.
  const auto req =
      parse_admin_request("{\"cmd\":\"flightz\",\"id\":\"scrape-9\",\"limit\":2}");
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->cmd, AdminCommand::kFlightz);
  EXPECT_EQ(req->id_json, "\"scrape-9\"");
  EXPECT_EQ(req->limit, 2U);

  // Schedule requests — including ones that merely *mention* "cmd" inside
  // a string — fall through to the normal request path.
  EXPECT_FALSE(parse_admin_request(request_line(small_stg(1), "LAMPS", "1")));
  EXPECT_FALSE(parse_admin_request("{\"id\":1,\"note\":\"a \\\"cmd\\\" string\"}"));

  // Admin-shaped but invalid lines fail loudly instead of being computed.
  EXPECT_THROW((void)parse_admin_request("{\"cmd\":\"bogus\"}"), InputError);
  EXPECT_THROW((void)parse_admin_request("{\"cmd\":\"flightz\",\"limit\":0}"),
               InputError);
  EXPECT_THROW((void)parse_admin_request("{\"cmd\":\"flightz\",\"limit\":100000}"),
               InputError);
}

TEST(ServeIntegration, AdminLaneAnswersAllCommandsWhilePoolIsSaturated) {
  ServerConfig cfg;
  cfg.threads = 1;  // one worker: a pipelined batch keeps it busy for a while
  cfg.max_pending = 64;  // roomy: the whole batch must queue, not shed
  Server server(cfg);
  server.start();

  // Conn B first, so the admin lane is ready before the backlog window
  // opens.
  const Socket admin = connect_tcp(server.port());
  LineReader admin_reader(admin.fd());

  // Conn A: two large "plug" requests occupy the single worker for tens of
  // milliseconds each (compute outgrows parse superlinearly), while small
  // requests pile up behind them — a real, long-lived backlog.
  const Socket work = connect_tcp(server.port());
  std::string batch;
  constexpr std::size_t kWork = 8;
  batch += request_line(small_stg(70, /*tasks=*/3000), "LAMPS+PS", "0");
  batch += request_line(small_stg(71, /*tasks=*/3000), "LAMPS+PS", "1");
  for (std::size_t i = 2; i < kWork; ++i)
    batch += request_line(small_stg(70 + i), "LAMPS+PS", std::to_string(i));
  ASSERT_TRUE(work.send_all(batch));

  // In-process: wait until the backlog is deep before scraping.
  obs::Gauge& pending = obs::gauge("serve.pending");
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (pending.value() < static_cast<std::int64_t>(kWork) / 2) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "never observed a compute backlog";
    std::this_thread::yield();
  }
  const auto query = [&](const std::string& line) {
    EXPECT_TRUE(admin.send_all(line + "\n"));
    std::string response;
    EXPECT_EQ(admin_reader.read_line(response), LineReader::Status::kLine);
    const JsonValue doc = JsonValue::parse(response);
    EXPECT_TRUE(doc.get("ok")->as_bool()) << response;
    return doc;
  };

  const JsonValue health = query("healthz");
  EXPECT_EQ(health.get_string("cmd", ""), "healthz");
  EXPECT_GE(health.get_number("pending", 0.0), 1.0);  // scraped mid-backlog
  EXPECT_DOUBLE_EQ(health.get_number("pool_size", 0.0), 1.0);
  EXPECT_FALSE(health.get("draining")->as_bool());

  const JsonValue stats = query("statsz");
  EXPECT_EQ(stats.get_string("cmd", ""), "statsz");
  ASSERT_NE(stats.get("metrics"), nullptr);
  ASSERT_NE(stats.get("deltas"), nullptr);
  EXPECT_GE(stats.get("metrics")->get("counters")->get_number(
                "serve.requests_total", 0.0),
            1.0);

  // A second scrape's deltas cover only what moved since the first.
  const JsonValue stats2 = query("{\"cmd\":\"statsz\",\"id\":\"s2\"}");
  EXPECT_EQ(stats2.get_string("id", ""), "s2");
  EXPECT_GT(stats2.get_number("scrape_seq", 0.0),
            stats.get_number("scrape_seq", 0.0));

  const JsonValue cache = query("cachez");
  ASSERT_NE(cache.get("result_cache"), nullptr);
  EXPECT_GT(cache.get("result_cache")->get_number("capacity", 0.0), 0.0);
  ASSERT_NE(cache.get("schedule_bank"), nullptr);

  const JsonValue flights = query("{\"cmd\":\"flightz\",\"limit\":4}");
  ASSERT_NE(flights.get("records"), nullptr);
  EXPECT_LE(flights.get("records")->items().size(), 4U);
  EXPECT_GT(flights.get_number("capacity", 0.0), 0.0);

  // The batch itself is unharmed by the scrapes.
  LineReader work_reader(work.fd());
  for (std::size_t i = 0; i < kWork; ++i) {
    std::string line;
    ASSERT_EQ(work_reader.read_line(line), LineReader::Status::kLine);
    const JsonValue doc = JsonValue::parse(line);
    EXPECT_TRUE(doc.get("ok")->as_bool() ||
                doc.get_string("error", "") == "overloaded")
        << line;
  }
  server.request_drain();
  server.wait();
}

TEST(ServeIntegration, ResponsesStayBitIdenticalWithFullTelemetryOn) {
  const power::PowerModel model;
  const power::DvsLadder ladder(model);

  std::vector<std::string> lines;
  std::vector<std::string> expected;
  for (std::size_t g = 0; g < 4; ++g) {
    const std::string stg_text = small_stg(80 + g);
    for (const char* strategy : {"LAMPS+PS", "S&S"}) {
      lines.push_back(request_line(stg_text, strategy,
                                   std::to_string(lines.size())));
      const ParsedRequest parsed = parse_schedule_request(lines.back(), model);
      expected.push_back(result_json(
          core::run_service_request(parsed.request, model, ladder), ladder));
    }
  }

  // Every telemetry feature on and turned up: a tiny flight ring (forced
  // wraparound), promotion of *every* request to a slow-request span dump,
  // a fast metrics flusher, and structured logging — none of it may change
  // a single response byte.
  const std::string series = testing::TempDir() + "serve_full_telemetry.jsonl";
  std::remove(series.c_str());
  ServerConfig cfg;
  cfg.threads = 2;
  cfg.max_pending = 64;
  cfg.flight_capacity = 4;
  cfg.slow_request_s = 1e-9;
  cfg.metrics_interval_s = 0.02;
  cfg.metrics_jsonl = series;

  std::ostringstream log_sink;  // keep the promoted warn records off stderr
  obs::set_log_sink(&log_sink);
  obs::set_structured_logging(true);

  Server server(cfg);
  server.start();
  const Socket sock = connect_tcp(server.port());
  std::string batch;
  for (const std::string& line : lines) batch += line;
  batch += batch;  // send the set twice: cache hits must also be identical
  ASSERT_TRUE(sock.send_all(batch));

  LineReader reader(sock.fd());
  for (std::size_t i = 0; i < 2 * lines.size(); ++i) {
    std::string response;
    ASSERT_EQ(reader.read_line(response), LineReader::Status::kLine);
    EXPECT_EQ(extract_result_json(response), expected[i % expected.size()])
        << "request " << i;
  }
  server.request_drain();
  server.wait();
  obs::set_structured_logging(false);
  obs::set_log_sink(nullptr);

  std::size_t samples = 0;
  {
    std::ifstream in(series);
    for (std::string line; std::getline(in, line);) ++samples;
  }
  std::remove(series.c_str());
  EXPECT_GE(samples, 1U);  // the flusher ran (stop() emits a final one)
  EXPECT_GE(server.flights().total_recorded(), 2 * lines.size());
  EXPECT_EQ(server.flights().last(100).size(), 4U);  // the ring wrapped

  // Every promoted span dump is a parseable structured record.
  std::istringstream log_lines(log_sink.str());
  std::string log_line;
  std::size_t promoted = 0;
  while (std::getline(log_lines, log_line)) {
    const JsonValue doc = JsonValue::parse(log_line);
    if (doc.get_string("event", "") == "serve.slow_request") ++promoted;
  }
  EXPECT_GE(promoted, 2 * lines.size());
}

TEST(ServeIntegration, QuitQuitQuitDrainsTheDaemon) {
  reset_drain_signal_for_testing();
  ServerConfig cfg;
  cfg.threads = 1;
  Server server(cfg);
  server.start();

  const Socket sock = connect_tcp(server.port());
  ASSERT_TRUE(sock.send_all("quitquitquit\n"));
  LineReader reader(sock.fd());
  std::string response;
  ASSERT_EQ(reader.read_line(response), LineReader::Status::kLine);
  const JsonValue doc = JsonValue::parse(response);
  EXPECT_TRUE(doc.get("ok")->as_bool());
  EXPECT_EQ(doc.get_string("cmd", ""), "quitquitquit");
  EXPECT_TRUE(doc.get("draining")->as_bool());

  // The daemon actually drains — wait() returns instead of blocking.
  server.wait();
  EXPECT_TRUE(server.draining());
  // The drain answers nothing more: the connection ends in EOF, never in
  // an error line.
  ASSERT_TRUE(poll_readable(sock.fd(), 2000));
  EXPECT_EQ(reader.read_line(response), LineReader::Status::kEof);
  // quitquitquit also pulses the process drain signal (so a CLI wrapper
  // waiting on it wakes up); clear it for later tests.
  EXPECT_TRUE(drain_signal_pending());
  reset_drain_signal_for_testing();
}

TEST(ServeIntegration, DrainDuringAScrapeLoopEndsCleanly) {
  ServerConfig cfg;
  cfg.threads = 1;
  Server server(cfg);
  server.start();

  // A monitoring client scrapes in a tight loop while the daemon is told
  // to drain out from under it: every response it *does* receive must be
  // well-formed, and the connection must end with a clean EOF, not a hang.
  std::atomic<std::size_t> scrapes{0};
  std::atomic<bool> clean_end{false};
  std::thread scraper([&] {
    const Socket sock = connect_tcp(server.port());
    LineReader reader(sock.fd());
    for (int i = 0; i < 100000; ++i) {
      if (!sock.send_all("statsz\n")) break;
      std::string line;
      if (reader.read_line(line) != LineReader::Status::kLine) break;
      const JsonValue parsed = JsonValue::parse(line);
      EXPECT_TRUE(parsed.get("ok")->as_bool());
      scrapes.fetch_add(1);
    }
    clean_end.store(true);
  });

  while (scrapes.load() < 20) std::this_thread::yield();
  server.request_drain();
  server.wait();
  scraper.join();
  EXPECT_TRUE(clean_end.load());
  EXPECT_GE(scrapes.load(), 20U);
}

// ---------------------------------------------------------------------------
// TimerWheel (the event loop's read/idle/write-stall clock carrier)

TEST(TimerWheelTest, FiresByDeadlineNotArmOrder) {
  TimerWheel wheel;
  std::vector<int> fired;
  (void)wheel.arm(500'000'000, [&] { fired.push_back(2); });  // 500 ms
  (void)wheel.arm(5'000'000, [&] { fired.push_back(1); });    // 5 ms
  EXPECT_EQ(wheel.armed(), 2U);

  EXPECT_EQ(wheel.advance(6'000'000), 1U);  // only the 5 ms timer is due
  EXPECT_EQ(fired, std::vector<int>({1}));
  EXPECT_EQ(wheel.advance(400'000'000), 0U);  // 400 ms: still not due
  EXPECT_EQ(wheel.advance(501'000'000), 1U);
  EXPECT_EQ(fired, std::vector<int>({1, 2}));
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheelTest, CancelIsANoOpAfterFiringAndPreventsFiring) {
  TimerWheel wheel;
  int fired = 0;
  const std::uint64_t keep = wheel.arm(10'000'000, [&] { ++fired; });
  const std::uint64_t drop = wheel.arm(10'000'000, [&] { ++fired; });
  wheel.cancel(drop);
  EXPECT_EQ(wheel.armed(), 1U);
  EXPECT_EQ(wheel.advance(20'000'000), 1U);
  EXPECT_EQ(fired, 1);
  wheel.cancel(keep);  // already fired: no-op
  wheel.cancel(99'999);  // never existed: no-op
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheelTest, FarDeadlinesSurviveFullWheelRotations) {
  // Default geometry is 512 slots x 10 ms = 5.12 s per rotation; a 12 s
  // deadline hashes onto a bucket that is visited twice before it is due.
  TimerWheel wheel;
  int fired = 0;
  (void)wheel.arm(12'000'000'000, [&] { ++fired; });
  std::int64_t now = 0;
  while (now < 11'000'000'000) {  // sweep in quarter-rotation steps
    now += 1'280'000'000;
    EXPECT_EQ(wheel.advance(now), 0U) << "fired early at " << now;
  }
  EXPECT_EQ(wheel.advance(12'010'000'000), 1U);
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheelTest, CallbacksMayArmAndCancelOtherTimers) {
  TimerWheel wheel;
  std::vector<int> fired;
  std::uint64_t victim = 0;
  (void)wheel.arm(10'000'000, [&] {
    fired.push_back(1);
    wheel.cancel(victim);  // cancel a peer that is not yet due
    (void)wheel.arm(30'000'000, [&] { fired.push_back(3); });  // chain a new one
  });
  victim = wheel.arm(20'000'000, [&] { fired.push_back(2); });
  EXPECT_EQ(wheel.advance(15'000'000), 1U);
  EXPECT_EQ(wheel.advance(25'000'000), 0U);  // victim was cancelled
  EXPECT_EQ(wheel.advance(35'000'000), 1U);
  EXPECT_EQ(fired, std::vector<int>({1, 3}));
}

// ---------------------------------------------------------------------------
// Event-loop serving plane

TEST(ServeIntegration, ThreadCountIsIndependentOfConnectionCount) {
  const auto thread_count = [] {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& entry :
         std::filesystem::directory_iterator("/proc/self/task"))
      ++n;
    return n;
  };
  const auto& reg = obs::Registry::global();
  ServerConfig cfg;
  cfg.threads = 2;
  Server server(cfg);
  server.start();
  const std::size_t baseline = thread_count();

  constexpr std::size_t kConns = 32;
  const std::uint64_t accepted_before = reg.counter_value("serve.connections_total");
  std::vector<Socket> socks;
  socks.reserve(kConns);
  for (std::size_t i = 0; i < kConns; ++i) socks.push_back(connect_tcp(server.port()));
  while (reg.counter_value("serve.connections_total") < accepted_before + kConns)
    std::this_thread::yield();

  // The event loop absorbs all 32 connections without spawning anything.
  EXPECT_EQ(thread_count(), baseline);

  // And they are all live: each one gets a scrape answered.
  for (auto& sock : socks) {
    ASSERT_TRUE(sock.send_all("healthz\n"));
    LineReader reader(sock.fd());
    std::string line;
    ASSERT_EQ(reader.read_line(line), LineReader::Status::kLine);
    EXPECT_TRUE(JsonValue::parse(line).get("ok")->as_bool());
  }
  socks.clear();
  server.request_drain();
  server.wait();
}

TEST(ServeIntegration, ConcurrentStatszScrapersSeeTelescopingDeltas) {
  // Counter deltas are relative to a per-server baseline map.  When
  // scrapers race, each scrape must still account every increment exactly
  // once: summing "serve.requests_total" deltas over ALL scrapes (the
  // baseline starts empty, so the first one is absolute) has to land
  // exactly on the registry's absolute counter value once traffic stops.
  // A snapshot taken outside the baseline lock breaks this: two racing
  // scrapers can assign baselines out of order and double-count.
  const auto& reg = obs::Registry::global();
  ServerConfig cfg;
  cfg.threads = 2;
  cfg.max_pending = 64;
  Server server(cfg);
  server.start();

  std::atomic<bool> load_done{false};
  std::thread requester([&] {
    const Socket sock = connect_tcp(server.port());
    LineReader reader(sock.fd());
    for (std::size_t i = 0; i < 40; ++i) {
      if (!sock.send_all(request_line(small_stg(70 + i % 4, 12), "LAMPS",
                                      std::to_string(i))))
        break;
      std::string line;
      if (reader.read_line(line) != LineReader::Status::kLine) break;
    }
    load_done.store(true);
  });

  constexpr std::size_t kScrapers = 4;
  std::vector<double> summed(kScrapers, 0.0);
  std::atomic<int> malformed{0};
  {
    std::vector<std::thread> scrapers;
    for (std::size_t s = 0; s < kScrapers; ++s) {
      scrapers.emplace_back([&, s] {
        const Socket sock = connect_tcp(server.port());
        LineReader reader(sock.fd());
        // Scrape flat out until the load finishes so the windows overlap
        // heavily across the racing scrapers.
        while (!load_done.load()) {
          if (!sock.send_all("statsz\n")) {
            malformed.fetch_add(1);
            return;
          }
          std::string line;
          if (reader.read_line(line) != LineReader::Status::kLine) {
            malformed.fetch_add(1);
            return;
          }
          const JsonValue doc = JsonValue::parse(line);
          summed[s] += doc.get("deltas")->get_number("serve.requests_total", 0.0);
        }
      });
    }
    for (auto& t : scrapers) t.join();
  }
  requester.join();
  ASSERT_EQ(malformed.load(), 0);

  // One quiescent scrape collects whatever the racing ones left behind.
  double total = 0.0;
  for (const double part : summed) total += part;
  {
    const Socket sock = connect_tcp(server.port());
    ASSERT_TRUE(sock.send_all("statsz\n"));
    LineReader reader(sock.fd());
    std::string line;
    ASSERT_EQ(reader.read_line(line), LineReader::Status::kLine);
    total += JsonValue::parse(line).get("deltas")->get_number(
        "serve.requests_total", 0.0);
  }
  EXPECT_EQ(static_cast<std::uint64_t>(total),
            reg.counter_value("serve.requests_total"));

  server.request_drain();
  server.wait();
}

TEST(ServeIntegration, SlowReaderIsDisconnectedWithinWriteBudget) {
  const auto& reg = obs::Registry::global();
  ServerConfig cfg;
  cfg.threads = 1;
  cfg.max_pending = 8;
  cfg.max_write_queue = 0;     // the stall clock, not the queue bound, must trip
  cfg.write_timeout_s = 0.25;  // cumulative per-response budget
  cfg.sndbuf_bytes = 4096;     // tiny kernel buffer so the stall is reachable
  Server server(cfg);
  server.start();

  const std::string line = request_line(small_stg(80), "LAMPS", "1");

  // Warm the result cache so the pipelined burst below resolves instantly
  // and the test exercises only the write path.
  {
    const Socket sock = connect_tcp(server.port());
    ASSERT_TRUE(sock.send_all(line));
    LineReader reader(sock.fd());
    std::string warm;
    ASSERT_EQ(reader.read_line(warm), LineReader::Status::kLine);
    ASSERT_TRUE(JsonValue::parse(warm).get("ok")->as_bool());
  }

  const std::uint64_t slow_before =
      reg.counter_value("serve.slow_client_disconnects");

  // A client with a tiny receive window that pipelines a burst far larger
  // than both socket buffers, then drains one byte per 50 ms: its
  // cumulative progress can never finish a response inside the budget.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  int rcv = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcv, sizeof rcv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  Socket slow(fd);
  std::string burst;
  for (int i = 0; i < 100; ++i) burst += line;
  ASSERT_TRUE(slow.send_all(burst));

  // Drip-read one byte per 50 ms until the server gives up on us.  The
  // disconnect is observed server-side (the counter), because the bytes
  // already sitting in our receive buffer would hide the close from
  // recv() for minutes at this drain rate.
  const auto t0 = std::chrono::steady_clock::now();
  double elapsed_s = 0.0;
  bool counted = false;
  for (int i = 0; i < 400 && !counted; ++i) {  // hard cap: 400 x 50 ms = 20 s
    char byte = 0;
    (void)::recv(fd, &byte, 1, MSG_DONTWAIT);
    elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    counted = reg.counter_value("serve.slow_client_disconnects") >= slow_before + 1;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(counted);
  EXPECT_LT(elapsed_s, 2.0);  // well within ~2x the 0.25 s budget

  // Once the buffered bytes are drained at full speed the close is
  // visible client-side too (EOF or reset, depending on unread data).
  bool disconnected = false;
  for (int i = 0; i < 10'000; ++i) {
    char sink[4096];
    const ssize_t n = ::recv(fd, sink, sizeof sink, 0);
    if (n <= 0) {
      disconnected = true;
      break;
    }
  }
  EXPECT_TRUE(disconnected);

  server.request_drain();
  server.wait();
}

}  // namespace
}  // namespace lamps::net
