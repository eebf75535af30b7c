// Traced replay: the workload's request stream pushed through the serving
// pipeline's public functions in one thread, in the order
// net::Server::handle_line calls them, with one span per call.
//
// The spans live in the benchmark, around the calls, so the program under
// test is unchanged.  Layer self time is a span's duration minus its
// children's.  The replay carries its own ResultCache and ScheduleBank at
// the daemon's default capacities, so it does the same work the daemon did:
// main.cpp checks its response bytes and its counter deltas against the
// daemon's.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "corpus.hpp"

namespace servebench {

struct Span {
  const char* name{""};
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  std::int32_t parent{-1};  ///< index into the span vector, -1 for a root
  std::uint32_t request{0};  ///< replay: warm-up ordinals, then timed; client: stream index
  std::uint32_t lane{0};     ///< 0 = replay thread, 1 + n = client connection n
};

struct ReplayResult {
  std::vector<std::string> responses;  ///< per timed index, as the daemon would send it
  std::map<std::string, std::uint64_t> counter_delta;  ///< over the timed requests
  std::vector<Span> spans;
  std::size_t first_timed_request{0};  ///< Span::request of timed(0)
  std::size_t computed{0};  ///< timed requests that led a computation
};

/// Replays stream.warmup(*) then stream.timed(0 .. timed_requests-1).
[[nodiscard]] ReplayResult replay(Stream& stream, std::size_t timed_requests);

/// Self time per span name, summed over the timed requests, in ms.
[[nodiscard]] std::map<std::string, double> self_ms_by_name(const ReplayResult& r);

/// Chrome trace-event JSON of `spans` (tid 0) plus extra client spans.
void write_chrome_trace(std::ostream& os, const std::vector<Span>& spans,
                        const std::vector<Span>& client_spans);

}  // namespace servebench
