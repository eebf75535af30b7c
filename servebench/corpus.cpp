#include "corpus.hpp"

#include <array>
#include <cstdio>
#include <sstream>
#include <utility>

#include "stg/format.hpp"
#include "stg/random_gen.hpp"
#include "util/json.hpp"

namespace servebench {

namespace {

// cold: every request a fresh graph, so both caches miss and the search
// does the work.  bank: one graph swept over deadlines and strategies, so
// the result cache misses but the ScheduleBank hits.  hot: a few small
// requests replayed, so nothing computes and the loop thread is the
// bottleneck.
constexpr std::array<Shape, 3> kShapes = {{
    {Workload::kCold, "cold", 4, 2000, 960,
     "fresh random graph per request, LAMPS+PS, deadline_factor 2"},
    {Workload::kBank, "bank", 1, 2000, 800,
     "one graph per 200 requests: 50 deadline factors x 4 strategies"},
    {Workload::kHot, "hot", 4, 100, 16000,
     "16 distinct requests replayed after a warm-up pass filled the cache"},
}};

constexpr std::array<const char*, 4> kBankStrategies = {"S&S", "LAMPS", "S&S+PS",
                                                        "LAMPS+PS"};
constexpr std::size_t kBankFactors = 50;
constexpr std::size_t kBankSweep = kBankFactors * kBankStrategies.size();
constexpr std::size_t kHotDistinct = 16;
constexpr std::uint64_t kWarmupDistinct = 1ull << 40;

// Seed domains keep the streams of different workloads and roles apart.
enum : std::uint64_t { kColdGraph = 1, kBankGraph = 2, kHotGraph = 3, kHotPick = 4, kWarmGraph = 5 };

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t domain, std::uint64_t index) {
  return splitmix(splitmix(splitmix(seed) ^ domain) ^ index);
}

/// `prefix` followed by `n`, as the JSON string token the response echoes.
Request meta(char prefix, std::size_t n, std::uint64_t distinct, bool expect_cached) {
  Request r;
  r.id_json = '"';
  r.id_json += prefix;
  r.id_json += std::to_string(n);
  r.id_json += '"';
  r.distinct = distinct;
  r.expect_cached = expect_cached;
  return r;
}

Request with_line(Request r, const std::string& stg_json, const char* strategy,
                  const char* factor) {
  r.line.reserve(stg_json.size() + 96);
  r.line += "{\"id\":";
  r.line += r.id_json;
  r.line += ",\"stg\":\"";
  r.line += stg_json;
  r.line += "\",\"strategy\":\"";
  r.line += strategy;
  r.line += "\",\"deadline_factor\":";
  r.line += factor;
  r.line += "}\n";
  return r;
}

}  // namespace

const Shape& shape_of(Workload w) { return kShapes[static_cast<std::size_t>(w)]; }

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Shape& s : kShapes)
    if (name == s.name) return s.workload;
  return std::nullopt;
}

Stream::Stream(Workload w, std::uint64_t seed) : shape_(&shape_of(w)), seed_(seed) {
  if (w == Workload::kHot)
    for (std::size_t d = 0; d < kHotDistinct; ++d)
      graphs_.push_back(graph_text(derive(seed_, kHotGraph, d)));
  if (w == Workload::kBank) graphs_.push_back(graph_text(derive(seed_, kWarmGraph, 0)));
}

std::string Stream::graph_text(std::uint64_t graph_seed) const {
  lamps::stg::RandomGraphSpec spec;
  spec.num_tasks = shape_->tasks;
  spec.seed = graph_seed;
  std::ostringstream stg;
  lamps::stg::write_stg(lamps::stg::generate_random(spec), stg);
  return lamps::json_escape(stg.str());
}

std::size_t Stream::warmup_count() const {
  return shape_->workload == Workload::kHot ? kHotDistinct : 4;
}

Request Stream::warmup(std::size_t k) {
  switch (shape_->workload) {
    case Workload::kCold:
      return with_line(meta('w', k, kWarmupDistinct + k, false),
                       graph_text(derive(seed_, kWarmGraph, k)), "LAMPS+PS", "2");
    case Workload::kBank:
      // One warm-up graph asked under every strategy: a lease miss, then hits.
      return with_line(meta('w', k, kWarmupDistinct + k, false), graphs_[0],
                       kBankStrategies[k % kBankStrategies.size()], "2");
    case Workload::kHot:
      return with_line(meta('w', k, k % kHotDistinct, false), graphs_[k % kHotDistinct],
                       "LAMPS+PS", "2");
  }
  return {};
}

Request Stream::timed_meta(std::size_t i) const {
  const bool hot = shape_->workload == Workload::kHot;
  return meta('t', i, hot ? derive(seed_, kHotPick, i) % kHotDistinct : i, hot);
}

Request Stream::timed(std::size_t i) {
  Request r = timed_meta(i);
  switch (shape_->workload) {
    case Workload::kCold:
      return with_line(std::move(r), graph_text(derive(seed_, kColdGraph, i)), "LAMPS+PS",
                       "2");
    case Workload::kBank: {
      const std::uint64_t g = i / kBankSweep;
      if (g != bank_graph_) {
        bank_text_ = graph_text(derive(seed_, kBankGraph, g));
        bank_graph_ = g;
      }
      const std::size_t step = i % kBankSweep;
      char factor[16];
      std::snprintf(factor, sizeof factor, "%.2f",
                    1.10 + 0.04 * static_cast<double>(step / kBankStrategies.size()));
      return with_line(std::move(r), bank_text_,
                       kBankStrategies[step % kBankStrategies.size()], factor);
    }
    case Workload::kHot: {
      const std::string& graph = graphs_[r.distinct];
      return with_line(std::move(r), graph, "LAMPS+PS", "2");
    }
  }
  return {};
}

}  // namespace servebench
