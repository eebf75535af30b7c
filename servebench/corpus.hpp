// Workloads and their seeded request streams.
//
// A stream is a pure function of (workload, seed, index): the same seed
// yields the same request lines, so the timed load, the correctness
// reference and the traced replay all see identical bytes without
// shipping a corpus file around.  The daemon only ever receives the lines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace servebench {

enum class Workload { kCold, kBank, kHot };

/// Fixed shape of one workload (see README.md for why each exists).
struct Shape {
  Workload workload;
  const char* name;
  std::size_t callers;          ///< closed-loop callers, one connection each
  std::size_t tasks;            ///< tasks per request graph
  std::size_t traced_requests;  ///< request count of the traced load run
  const char* mix;              ///< one-line description of the request mix
};

[[nodiscard]] const Shape& shape_of(Workload w);
[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);

/// One request line as sent, plus what its response must echo.
struct Request {
  std::string line;        ///< JSON object + '\n'
  std::string id_json;     ///< the id token the response must carry
  std::uint64_t distinct;  ///< equal for requests with equal results
  bool expect_cached{false};
};

class Stream {
 public:
  Stream(Workload w, std::uint64_t seed);

  [[nodiscard]] const Shape& shape() const { return *shape_; }

  /// Requests the workload's warm-up sends on one connection before the
  /// timed phase (they fill the result cache for `hot`).
  [[nodiscard]] std::size_t warmup_count() const;
  [[nodiscard]] Request warmup(std::size_t k);

  /// The i-th request of the timed phase; unbounded.
  [[nodiscard]] Request timed(std::size_t i);
  /// timed(i) without the line: what its response must carry.
  [[nodiscard]] Request timed_meta(std::size_t i) const;

 private:
  /// JSON-escaped STG text of a seeded random graph.
  [[nodiscard]] std::string graph_text(std::uint64_t graph_seed) const;

  const Shape* shape_;
  std::uint64_t seed_;
  /// hot: the distinct request graphs; bank: the warm-up graph.
  std::vector<std::string> graphs_;
  std::uint64_t bank_graph_{~0ull};  ///< bank: graph index of bank_text_
  std::string bank_text_;
};

}  // namespace servebench
