// servebench — drives a real `lamps serve` daemon with one of three
// closed-loop workloads and prints the end-to-end metrics (--trace 0) or
// the per-layer table from a traced replay (--trace 1).  README.md holds
// the load model, the metric definitions and the cost model.
//
//   servebench --lamps <lamps binary> --workload cold|bank|hot --seed N
//              --seconds S --trace 0|1 [--trace-out spans.json]
//
// Exit status: 0 when every response matched its reference (and, traced,
// the replay matched the daemon); 1 on any mismatch or failed request, with
// the result line still printed; 2 on bad arguments or a non-Release build;
// 3 when the run itself broke (daemon died, timeout).
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "client.hpp"
#include "core/request.hpp"
#include "corpus.hpp"
#include "net/jsonv.hpp"
#include "net/protocol.hpp"
#include "replay.hpp"
#include "util/json.hpp"

namespace {

using namespace servebench;

// The daemon under test: two pool workers plus the loop thread, with one
// client thread that makes four busy threads, the machine's nproc.  Every
// other flag stays at its default.
constexpr int kPoolWorkers = 2;
const std::vector<std::string> kDaemonArgs = {"serve", "--port", "0", "--threads",
                                              std::to_string(kPoolWorkers)};
// setup_s is the median of this many daemon start-ups per run.  The first
// serves the load phase and the rest follow it: start-ups on a guest that
// was idle can take twice as long as on one the load phase kept busy.
constexpr std::size_t kSetupRepeats = 21;
// server_rss_mb is the daemon's peak RSS once this many timed responses
// arrived: the bank workload's store count grows with every graph it
// reaches, so a fixed stream prefix keeps a faster daemon from being
// charged for the extra graphs it got through.
constexpr std::size_t kRssResponses = 600;
// Traced load run: connection 0 sends healthz after every this many responses.
constexpr std::size_t kProbeEvery = 8;

// Counters whose timed-phase deltas must be identical in the daemon and
// the replay: they depend only on the request stream.
constexpr std::string_view kExactCounters[] = {
    "serve.cache_hits",
    "serve.cache_misses",
    "serve.singleflight_hits",
    "schedule_bank.lease_hit",
    "schedule_bank.lease_miss",
    "schedule_cache.store_schedule_hit",
    "schedule_cache.store_profile_hit",
    "schedule_cache.schedule_miss",
    "schedule_cache.profile_miss",
    "search.probe_gap_only",
    "search.probe_materialized",
    "search.graham_shortcircuit_lower",
    "search.graham_shortcircuit_upper",
    "scheduler.runs_full",
    "scheduler.runs_gaps",
    "scheduler.runs_makespan",
    "energy.levels_evaluated",
};

struct Args {
  std::string lamps;
  Workload workload{Workload::kCold};
  std::uint64_t seed{0};
  double seconds{0.0};
  bool trace{false};
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "servebench: " << why << "\n"
            << "usage: servebench --lamps <lamps binary> --workload cold|bank|hot "
               "--seed N --seconds S --trace 0|1 [--trace-out spans.json]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    try {
      if (flag == "--lamps") {
        a.lamps = value;
      } else if (flag == "--workload") {
        const auto w = parse_workload(value);
        if (!w) usage("unknown workload '" + value + "'");
        a.workload = *w;
        have_workload = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
        have_seconds = a.seconds > 0.0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
      } else if (flag == "--trace-out") {
        a.trace_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": '" + value + "'");
    }
  }
  if (a.lamps.empty() || !have_workload || !have_seed || !have_seconds)
    usage("--lamps, --workload, --seed and a positive --seconds are required");
  return a;
}

/// Nearest-rank percentile; 0 for an empty sample.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::string join(const std::vector<std::string>& parts) {
  std::string s;
  for (const std::string& p : parts) s += (s.empty() ? "" : " ") + p;
  return s;
}

/// The reference payload of every distinct request among the warm-up and
/// the first `timed` stream requests: the no-bank computation, computed
/// outside the timed phase on at most nproc threads.
std::unordered_map<std::uint64_t, std::string> reference_payloads(Workload w,
                                                                  std::uint64_t seed,
                                                                  std::size_t timed) {
  struct Job {
    bool warmup;
    std::size_t index;
    std::uint64_t distinct;
  };
  std::vector<Job> jobs;
  std::unordered_map<std::uint64_t, std::string> refs;
  Stream meta(w, seed);
  for (std::size_t k = 0; k < meta.warmup_count(); ++k) {
    const std::uint64_t d = meta.warmup(k).distinct;
    if (refs.try_emplace(d).second) jobs.push_back({true, k, d});
  }
  for (std::size_t i = 0; i < timed; ++i) {
    const std::uint64_t d = meta.timed_meta(i).distinct;
    if (refs.try_emplace(d).second) jobs.push_back({false, i, d});
  }

  const std::size_t threads =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, jobs.size() + 1);
  std::vector<std::thread> pool;
  std::vector<std::string> error(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    // Contiguous blocks keep a bank thread on one graph for many requests.
    pool.emplace_back([&, t] {
      try {
        Stream stream(w, seed);
        const lamps::power::PowerModel model;
        const lamps::power::DvsLadder ladder(model);
        for (std::size_t j = t * jobs.size() / threads; j < (t + 1) * jobs.size() / threads;
             ++j) {
          const Request req =
              jobs[j].warmup ? stream.warmup(jobs[j].index) : stream.timed(jobs[j].index);
          const auto parsed = lamps::net::parse_schedule_request(req.line, model);
          refs.at(jobs[j].distinct) = lamps::net::result_json(
              lamps::core::run_service_request(parsed.request, model, ladder), ladder);
        }
      } catch (const std::exception& e) {
        error[t] = e.what();
      }
    });
  }
  for (std::thread& th : pool) th.join();
  for (const std::string& e : error)
    if (!e.empty()) throw std::runtime_error("reference computation failed: " + e);
  return refs;
}

/// Everything of a success line up to its elapsed_ms value.
std::string expected_prefix(const Request& meta, const std::string& payload) {
  return "{\"id\":" + meta.id_json + ",\"ok\":true,\"cached\":" +
         (meta.expect_cached ? "true" : "false") + ",\"result\":" + payload +
         ",\"elapsed_ms\":";
}

/// Byte-for-byte check; elapsed_ms is the one field that legitimately
/// differs between runs, so only its syntax is checked.
bool matches(const std::string& response, const std::string& prefix) {
  if (response.compare(0, prefix.size(), prefix) != 0) return false;
  std::string_view tail(response);
  tail.remove_prefix(std::min(prefix.size(), tail.size()));
  if (tail.size() < 3 || !tail.ends_with("}\n")) return false;
  tail.remove_suffix(2);
  return tail.find_first_not_of("0123456789.eE+-") == std::string_view::npos;
}

/// Counter and histogram reads from one statsz reply.
class Statsz {
 public:
  explicit Statsz(const std::string& line) : doc_(lamps::net::JsonValue::parse(line)) {
    const auto* m = doc_.get("metrics");
    if (m == nullptr || m->get("counters") == nullptr || m->get("histograms") == nullptr)
      throw std::runtime_error("statsz reply without counters and histograms: " + line);
  }
  [[nodiscard]] double counter(std::string_view name) const {
    const auto* v = doc_.get("metrics")->get("counters")->get(name);
    return v == nullptr ? 0.0 : v->as_number();
  }
  [[nodiscard]] double hist(std::string_view name, std::string_view field) const {
    const auto* h = doc_.get("metrics")->get("histograms")->get(name);
    return h == nullptr ? 0.0 : h->get_number(field, 0.0);
  }

 private:
  lamps::net::JsonValue doc_;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double thread_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return ratio(sum, static_cast<double>(v.size()));
}

/// Peak RSS at the first tick with `responses` responses behind it, or
/// `final_mib` when the phase never got that far.
double rss_after(const LoadResult& load, std::size_t responses, double final_mib) {
  for (const Tick& t : load.ticks)
    if (t.responses >= responses) return t.reading.peak_rss_mib;
  return final_mib;
}

/// One second of the timed phase, between two consecutive ticks.
struct Window {
  double seconds{0.0};
  double cpu_s{0.0};
  std::size_t ok{0};
  std::vector<double> latency_ms;
};

/// Buckets every exchange into the window its response completed in;
/// responses after the last tick (the drain) belong to none.
std::vector<Window> windows_of(const LoadResult& load, const std::vector<bool>& ok) {
  std::vector<Window> w(load.ticks.empty() ? 0 : load.ticks.size() - 1);
  for (std::size_t k = 0; k < w.size(); ++k) {
    w[k].seconds = static_cast<double>(load.ticks[k + 1].ns - load.ticks[k].ns) / 1e9;
    w[k].cpu_s = load.ticks[k + 1].reading.cpu_s - load.ticks[k].reading.cpu_s;
  }
  for (std::size_t e = 0; e < load.exchanges.size(); ++e) {
    const Exchange& ex = load.exchanges[e];
    const auto after = std::upper_bound(
        load.ticks.begin(), load.ticks.end(), ex.done_ns,
        [](std::int64_t ns, const Tick& t) { return ns < t.ns; });
    const auto k = static_cast<std::size_t>(after - load.ticks.begin());
    if (k == 0 || k > w.size()) continue;
    if (ok[e]) ++w[k - 1].ok;
    w[k - 1].latency_ms.push_back(static_cast<double>(ex.done_ns - ex.send_ns) / 1e6);
  }
  return w;
}

struct Run {
  std::vector<double> setup_s;
  double client_cpu_s{0.0};  ///< the client thread's own CPU over the load phase
  std::vector<std::string> warm_responses;  ///< every start-up's, in order
  LoadResult load;
  double cpu_s{0.0};
  double rss_mib{0.0};
  std::optional<Statsz> before;
  std::optional<Statsz> after;
};

/// One timed start-up: spawns a daemon, waits for its first healthz answer
/// and runs the warm-up on that connection.  Appends the time taken and the
/// warm-up responses to `run`.
std::pair<std::unique_ptr<Daemon>, Conn> start_up(const Args& a,
                                                  const std::vector<std::string>& warm_lines,
                                                  Run& run) {
  const std::int64_t t0 = now_ns();
  auto d = std::make_unique<Daemon>(a.lamps, kDaemonArgs);
  Conn c(d->port());
  c.send_all("healthz\n");
  const std::string h = c.read_line();
  const auto admit =
      static_cast<std::size_t>(lamps::net::JsonValue::parse(h).get_number("max_pending", 0.0));
  if (h.find("\"ok\":true") == std::string::npos || admit == 0)
    throw std::runtime_error("healthz failed: " + h);
  // The warm-up is pipelined on the one connection: set-up time then
  // counts the daemon's work, not one wake-up round trip per request.  At
  // most `admit` requests are in flight, or the rest would be answered
  // `overloaded`.
  for (std::size_t k = 0; k < warm_lines.size(); k += admit) {
    const std::size_t end = std::min(k + admit, warm_lines.size());
    std::string batch;
    for (std::size_t j = k; j < end; ++j) batch += warm_lines[j];
    c.send_all(batch);
    for (std::size_t j = k; j < end; ++j) run.warm_responses.push_back(c.read_line());
  }
  run.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  return {std::move(d), std::move(c)};
}

/// The first start-up, the load phase on its daemon and that daemon's own
/// resource readings, then the remaining start-ups.  Corpus lines are
/// generated before each clock starts.
Run drive(const Args& a, Stream& stream, std::size_t repeats, LoadOptions opts) {
  Run run;
  std::vector<std::string> warm_lines;
  for (std::size_t k = 0; k < stream.warmup_count(); ++k)
    warm_lines.push_back(stream.warmup(k).line);
  const auto start_and_stop = [&] {
    auto [d, c] = start_up(a, warm_lines, run);
    d->stop(std::move(c));
  };

  auto serving = start_up(a, warm_lines, run);
  std::unique_ptr<Daemon> daemon = std::move(serving.first);
  std::vector<Conn> conns;
  conns.push_back(std::move(serving.second));
  while (conns.size() < stream.shape().callers) conns.emplace_back(daemon->port());

  if (a.trace) {
    conns[0].send_all("statsz\n");
    run.before.emplace(conns[0].read_line());
  }
  const double cpu0 = daemon->cpu_seconds();
  const double client0 = thread_cpu_seconds();
  opts.read = [&daemon] { return Reading{daemon->cpu_seconds(), daemon->peak_rss_mib()}; };
  run.load = run_closed_loop(conns, stream, opts);
  run.client_cpu_s = thread_cpu_seconds() - client0;
  run.cpu_s = daemon->cpu_seconds() - cpu0;
  run.rss_mib = daemon->peak_rss_mib();
  if (a.trace) {
    conns[0].send_all("statsz\n");
    run.after.emplace(conns[0].read_line());
  }
  while (conns.size() > 1) conns.pop_back();
  daemon->stop(std::move(conns[0]));
  for (std::size_t r = 1; r < repeats; ++r) start_and_stop();
  return run;
}

/// One line of a per-run series, for reading the noise within a run.
void print_series(const char* what, const char* name, const std::vector<double>& series) {
  std::printf("%s: %s", what, name);
  for (const double x : series) std::printf(" %.4g", x);
  std::printf("\n");
}

void print_metric(const Metric& m) {
  std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\":" << (correct ? "true" : "false") << ",\"attempted\":" << attempted
     << ",\"failed\":" << failed << ",\"metrics\":{";
  const char* sep = "";
  for (const Metric& m : metrics) {
    os << sep;
    lamps::write_json_string(os, m.name);
    os << ":{\"value\":";
    lamps::write_json_double(os, m.value);
    os << ",\"unit\":";
    lamps::write_json_string(os, m.unit);
    os << '}';
    sep = ",";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

/// The correctness gate's verdict on one run.
struct Verdict {
  bool warmup_ok{true};
  std::size_t ok{0};          ///< ok and byte-identical to the reference
  std::size_t errors{0};      ///< typed error responses (overloaded, internal, ...)
  std::size_t mismatched{0};  ///< ok responses whose bytes differ
  std::vector<bool> ok_flags;  ///< per exchange
};

Verdict check(const Args& a, const Run& run) {
  const auto refs = reference_payloads(a.workload, a.seed, run.load.exchanges.size());
  Stream meta(a.workload, a.seed);
  Verdict v;
  for (std::size_t k = 0; k < run.warm_responses.size(); ++k) {
    const Request w = meta.warmup(k % meta.warmup_count());
    if (!matches(run.warm_responses[k], expected_prefix(w, refs.at(w.distinct)))) {
      std::cerr << "servebench: warm-up response " << k
                << " differs from the reference: " << run.warm_responses[k];
      v.warmup_ok = false;
    }
  }
  for (const Exchange& ex : run.load.exchanges) {
    const Request m = meta.timed_meta(ex.index);
    const bool same = matches(ex.response, expected_prefix(m, refs.at(m.distinct)));
    v.ok_flags.push_back(same);
    if (same) {
      ++v.ok;
      continue;
    }
    const bool error = ex.response.find("\"ok\":false") != std::string::npos;
    ++(error ? v.errors : v.mismatched);
    if (v.errors + v.mismatched <= 3)
      std::cerr << "servebench: response " << ex.index
                << " differs from the reference: " << ex.response;
  }
  return v;
}

/// Means over the load phase's one-second windows.  A shared host runs
/// the guest at speed levels up to 1.6x apart, switching on time scales
/// from milliseconds to minutes, so a run spends a different share of its
/// windows at each level.  A median or quartile of the windows snaps to
/// whichever level holds that share; a mean moves in proportion to it.
struct WindowFigures {
  double throughput_rps{0.0};
  double p50_ms{0.0};
  double p90_ms{0.0};
  double cpu_ms_per_req{0.0};
};

WindowFigures window_means(const LoadResult& load, const Verdict& v) {
  std::vector<double> rate, p50, p90, cpu;
  std::size_t fewest = load.exchanges.size();
  for (const Window& w : windows_of(load, v.ok_flags)) {
    rate.push_back(static_cast<double>(w.ok) / w.seconds);
    p50.push_back(percentile(w.latency_ms, 0.50));
    p90.push_back(percentile(w.latency_ms, 0.90));
    cpu.push_back(ratio(w.cpu_s * 1e3, static_cast<double>(w.ok)));
    fewest = std::min(fewest, w.latency_ms.size());
  }
  std::printf("samples: %zu one-second windows (means reported), >= %zu latencies each\n",
              rate.size(), fewest);
  print_series("windows", "throughput_rps", rate);
  print_series("windows", "latency_p50_ms", p50);
  print_series("windows", "latency_p90_ms", p90);
  print_series("windows", "server_cpu_ms_per_req", cpu);
  return {mean(rate), mean(p50), mean(p90), mean(cpu)};
}

std::vector<Metric> end_to_end(const Run& run, const Verdict& v) {
  const WindowFigures m = window_means(run.load, v);
  std::printf("samples: %zu set-ups (median reported)\n", run.setup_s.size());
  print_series("set-ups", "setup_s", run.setup_s);
  return {
      {"throughput_rps", m.throughput_rps, "1/s"},
      {"latency_p50_ms", m.p50_ms, "ms"},
      {"latency_p90_ms", m.p90_ms, "ms"},
      {"ok_ratio",
       ratio(static_cast<double>(v.ok), static_cast<double>(run.load.exchanges.size())),
       "ratio"},
      {"server_cpu_ms_per_req", m.cpu_ms_per_req, "ms"},
      {"server_rss_mb", rss_after(run.load, kRssResponses, run.rss_mib), "MiB"},
      {"setup_s", median(run.setup_s), "s"},
  };
}

/// Replays the traced load's request stream, checks that the replay did
/// the daemon's work (same bytes, same exact counter deltas) and derives
/// the per-layer metrics.  `same_work` reports the cross-check.
std::vector<Metric> per_layer(const Args& a, const Run& run, const Verdict& v,
                              bool& same_work) {
  const LoadResult& load = run.load;
  Stream stream(a.workload, a.seed);
  const ReplayResult rep = replay(stream, load.exchanges.size());
  const Statsz& s0 = *run.before;
  const Statsz& s1 = *run.after;
  const auto dc = [&](std::string_view name) { return s1.counter(name) - s0.counter(name); };
  const auto dh = [&](std::string_view name, std::string_view field) {
    return s1.hist(name, field) - s0.hist(name, field);
  };
  const auto hist_mean_ms = [&](std::string_view name) {
    return ratio(dh(name, "sum") * 1e3, dh(name, "count"));
  };

  same_work = true;
  for (const Exchange& ex : load.exchanges) {
    const std::string& mine = rep.responses[ex.index];
    static constexpr std::string_view kElapsed = "\"elapsed_ms\":";
    if (!matches(ex.response, mine.substr(0, mine.find(kElapsed) + kElapsed.size()))) {
      if (same_work)
        std::cerr << "servebench: replay response " << ex.index << " differs: " << mine
                  << "  daemon: " << ex.response;
      same_work = false;
    }
  }
  std::printf("cross-check: %-32s %10s %12s\n", "counter delta", "daemon", "replay");
  const auto compare = [&](std::string_view name, double replayed) {
    const bool same = replayed == dc(name);
    same_work = same_work && same;
    std::printf("  %-42s %10.0f %12.0f%s\n", std::string(name).c_str(), dc(name), replayed,
                same ? "" : "  MISMATCH");
  };
  for (const std::string_view name : kExactCounters) {
    const auto it = rep.counter_delta.find(std::string(name));
    compare(name, it == rep.counter_delta.end() ? 0.0 : static_cast<double>(it->second));
  }
  compare("serve.requests_computed", static_cast<double>(rep.computed));
  std::printf("cross-check: payloads and counters %s\n", same_work ? "identical" : "DIFFER");

  const double n = static_cast<double>(load.exchanges.size());
  const auto self = self_ms_by_name(rep);
  std::printf("replay self time per request (%zu requests, %zu spans):\n",
              load.exchanges.size(), rep.spans.size());
  for (const auto& [name, ms] : self) std::printf("  %-42s %12.4f ms\n", name.c_str(), ms / n);
  const auto self_of = [&](std::initializer_list<const char*> names) {
    double ms = 0.0;
    for (const char* name : names)
      if (const auto it = self.find(name); it != self.end()) ms += it->second;
    return ms / n;
  };
  const double parse_ms = self_of({"net::parse_admin_request", "net::parse_schedule_request"});
  const double digest_ms = self_of({"core::service_request_digest"});
  const double lookup_ms = self_of({"net::ResultCache::subscribe", "net::ResultCache::complete"});
  const double serialize_ms = self_of({"net::result_json", "net::ok_response"});
  const double store_hits =
      dc("schedule_cache.store_schedule_hit") + dc("schedule_cache.store_profile_hit");
  const double wall_s = static_cast<double>(load.end_ns - load.start_ns) / 1e9;
  const double throughput = ratio(static_cast<double>(v.ok), wall_s);
  const WindowFigures traced = window_means(load, v);
  std::printf("samples: %zu admin probes (median reported)\n", load.admin_rtt_ms.size());

  if (!a.trace_out.empty()) {
    std::vector<Span> client;
    for (const Exchange& ex : load.exchanges)
      client.push_back(Span{"client/request", ex.send_ns, ex.done_ns, -1,
                            static_cast<std::uint32_t>(ex.index), 1 + ex.conn});
    std::ofstream out(a.trace_out);
    write_chrome_trace(out, rep.spans, client);
    if (!out) throw std::runtime_error("cannot write " + a.trace_out);
    std::printf("trace: %zu replay + %zu client spans -> %s\n", rep.spans.size(),
                client.size(), a.trace_out.c_str());
  }

  return {
      {"protocol.parse_ms", parse_ms, "ms"},
      {"request.digest_ms", digest_ms, "ms"},
      {"result_cache.lookup_ms", lookup_ms, "ms"},
      {"result_cache.hit_ratio",
       ratio(dc("serve.cache_hits"), dc("serve.cache_hits") + dc("serve.cache_misses") +
                                         dc("serve.singleflight_hits")),
       "ratio"},
      {"schedule_bank.lease_hit_ratio",
       ratio(dc("schedule_bank.lease_hit"),
             dc("schedule_bank.lease_hit") + dc("schedule_bank.lease_miss")),
       "ratio"},
      {"schedule_cache.store_hit_ratio",
       ratio(store_hits, store_hits + dc("schedule_cache.schedule_miss") +
                             dc("schedule_cache.profile_miss")),
       "ratio"},
      {"core.compute_ms", self_of({"core::run_service_request"}), "ms"},
      {"search.probes_per_req",
       (dc("search.probe_gap_only") + dc("search.probe_materialized")) / n, "count"},
      {"search.shortcircuits_per_req",
       (dc("search.graham_shortcircuit_lower") + dc("search.graham_shortcircuit_upper")) / n,
       "count"},
      {"list_scheduler.runs_per_req",
       (dc("scheduler.runs_full") + dc("scheduler.runs_gaps") + dc("scheduler.runs_makespan")) /
           n,
       "count"},
      {"gap_profile.levels_per_req", dc("energy.levels_evaluated") / n, "count"},
      {"serve.computed_per_req", dc("serve.requests_computed") / n, "count"},
      {"thread_pool.busy_share", ratio(dh("serve.compute_seconds", "sum"), kPoolWorkers * wall_s),
       "ratio"},
      {"thread_pool.queue_wait_ms", hist_mean_ms("serve.queue_seconds"), "ms"},
      {"event_loop.busy_share",
       (parse_ms + digest_ms + lookup_ms + serialize_ms) * throughput / 1e3, "ratio"},
      {"event_loop.admin_rtt_ms", median(load.admin_rtt_ms), "ms"},
      {"event_loop.wakeups_per_req", dc("serve.loop_wakeups") / n, "count"},
      {"event_loop.fd_events_per_req", dc("serve.loop_fd_events") / n, "count"},
      {"event_loop.write_ms", hist_mean_ms("serve.write_seconds"), "ms"},
      {"protocol.serialize_ms", serialize_ms, "ms"},
      {"serve.server_ms", hist_mean_ms("serve.request_seconds"), "ms"},
      {"traced.throughput_rps", traced.throughput_rps, "1/s"},
      {"traced.latency_p50_ms", traced.p50_ms, "ms"},
  };
}

int run_benchmark(const Args& a) {
  const Shape& shape = shape_of(a.workload);
  std::printf("servebench workload=%s seed=%llu seconds=%g trace=%d\n", shape.name,
              static_cast<unsigned long long>(a.seed), a.seconds, a.trace ? 1 : 0);
  std::printf("context: nproc=%u build_type=%s daemon=\"lamps %s\"\n",
              std::thread::hardware_concurrency(), SERVEBENCH_BUILD_TYPE,
              join(kDaemonArgs).c_str());
  std::printf("context: client_threads=1 connections=%zu callers=%zu tasks_per_graph=%zu\n",
              shape.callers, shape.callers, shape.tasks);
  std::printf("context: mix=\"%s\"\n", shape.mix);

  LoadOptions opts;
  if (a.trace) {
    opts.requests = shape.traced_requests;
    opts.probe_every = kProbeEvery;
  } else {
    opts.seconds = a.seconds;
  }
  Stream stream(a.workload, a.seed);
  const Run run = drive(a, stream, a.trace ? 1 : kSetupRepeats, opts);
  const Verdict v = check(a, run);
  const LoadResult& load = run.load;
  const std::size_t attempted = load.exchanges.size();
  const std::size_t failed = attempted - v.ok;
  bool correct = v.warmup_ok && failed == 0 && attempted > 0;

  std::vector<double> latency_ms;
  for (const Exchange& ex : load.exchanges)
    latency_ms.push_back(static_cast<double>(ex.done_ns - ex.send_ns) / 1e6);
  const double wall_s = static_cast<double>(load.end_ns - load.start_ns) / 1e9;
  std::printf("load: attempted=%zu ok=%zu failed=%zu (errors=%zu byte_mismatches=%zu) "
              "wall_s=%.4f\n",
              attempted, v.ok, failed, v.errors, v.mismatched, wall_s);
  std::printf("whole run: throughput=%.4f 1/s latency n=%zu p50=%.4f p90=%.4f p99=%.4f ms; "
              "cpu ms/req daemon=%.4f client=%.4f\n",
              ratio(static_cast<double>(v.ok), wall_s), latency_ms.size(),
              percentile(latency_ms, 0.50), percentile(latency_ms, 0.90),
              percentile(latency_ms, 0.99), ratio(run.cpu_s * 1e3, static_cast<double>(v.ok)),
              ratio(run.client_cpu_s * 1e3, static_cast<double>(attempted)));

  std::vector<Metric> metrics;
  if (a.trace) {
    bool same_work = false;
    metrics = per_layer(a, run, v, same_work);
    correct = correct && same_work;
  } else {
    metrics = end_to_end(run, v);
  }
  std::printf("%s metrics:\n", a.trace ? "per-layer" : "end-to-end");
  for (const Metric& m : metrics) print_metric(m);
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::string_view build_type = SERVEBENCH_BUILD_TYPE;
  if (build_type != "Release" && build_type != "RelWithDebInfo") {
    std::cerr << "servebench: refusing to benchmark a '" << build_type
              << "' build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }
  try {
    return run_benchmark(args);
  } catch (const std::exception& e) {
    std::cerr << "servebench: " << e.what() << "\n";
    return 3;
  }
}
