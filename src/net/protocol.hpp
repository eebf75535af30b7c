// JSON-lines wire protocol of `lamps serve` (one object per line).
//
// Request (client -> server):
//   {"id": <string|number>,            optional; echoed back verbatim
//    "stg": "<inline STG text>",       required; the only graph source (a
//                                      "file" key is rejected unread)
//    "unit": 3100000,                  cycles per STG weight unit
//    "deadline_factor": 2.0,           x critical path length at f_max
//    "deadline_s": 0.5,                absolute seconds, > 0; overrides the factor
//    "deadline_ms": 250,               optional wall-clock budget for THIS
//                                      request (transport-level; not part of
//                                      the cache digest)
//    "strategy": "LAMPS+PS"}           S&S | LAMPS | S&S+PS | LAMPS+PS |
//                                      LIMIT-SF | LIMIT-MF
//
// Success (server -> client):
//   {"id": ..., "ok": true, "cached": <bool>, "result": {...}, "elapsed_ms": ...}
// where "result" is the flat deterministic payload built by result_json()
// — byte-identical for identical requests no matter which worker, cache
// hit or single-flight follower produced it (the bit-exactness contract
// lamps_loadgen checks on every response against a direct
// core::run_service_request call).
//
// Failure:
//   {"id": ..., "ok": false, "error": "<kind>", "message": "..."}
// with kind one of bad_request | overloaded | internal | too_large |
// deadline_exceeded.  A drain sends no error: lines already read are
// answered, then the connection closes.
// Full schema and semantics: docs/serving.md.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "core/request.hpp"
#include "power/dvs_ladder.hpp"
#include "power/power_model.hpp"

namespace lamps::net {

/// Admin introspection commands, answered by the connection reader itself
/// on a lane that bypasses bounded admission and the compute pool — they
/// stay responsive while every worker is saturated.  Wire forms: a bare
/// command word per line ("statsz\n", nc-friendly) or a JSON object
/// {"cmd":"statsz","id":...} ({"cmd":"flightz","limit":N} caps the record
/// count).  Reference: docs/observability.md "Admin surface".
enum class AdminCommand { kStatsz, kHealthz, kCachez, kFlightz, kChaosz, kQuit };

[[nodiscard]] const char* to_string(AdminCommand cmd);

struct AdminRequest {
  AdminCommand cmd{AdminCommand::kHealthz};
  std::string id_json{"null"};
  std::size_t limit{32};  ///< flightz only: max records returned
};

/// Recognizes an admin line (bare word or {"cmd":...} object).  Returns
/// nullopt for anything that is not admin-shaped — schedule requests fall
/// through without a JSON parse.  Throws InputError on a JSON object
/// whose "cmd" is present but unknown or malformed.
[[nodiscard]] std::optional<AdminRequest> parse_admin_request(const std::string& line);

/// A parsed request line: the normalized core request plus the raw JSON
/// token ("\"abc\"", "17", or "null") to echo back as the response id.
struct ParsedRequest {
  std::string id_json{"null"};
  core::ServiceRequest request;
  /// Wall-clock budget for this request in milliseconds (0 = none).
  /// Deliberately outside ServiceRequest: two requests for the same graph
  /// with different budgets must share one digest / cache entry.
  double deadline_budget_ms{0.0};
};

/// Parses one request line and builds its request with
/// core::make_service_request, which owns the unit and deadline rules.
/// Throws InputError (kJsonParse / kStgParse / kConfig) on malformed input.
[[nodiscard]] ParsedRequest parse_schedule_request(const std::string& line,
                                                   const power::PowerModel& model);

/// Canonical deterministic result payload: a flat JSON object (no nested
/// braces, so it can be sliced back out of a response line verbatim).
[[nodiscard]] std::string result_json(const core::StrategyResult& r,
                                      const power::DvsLadder& ladder);

/// Extracts the "result" object substring from a success line, empty
/// string when absent.  Exact-match companion to result_json().
[[nodiscard]] std::string extract_result_json(const std::string& response_line);

[[nodiscard]] std::string ok_response(const std::string& id_json,
                                      const std::string& result_payload, bool cached,
                                      double elapsed_ms);

[[nodiscard]] std::string error_response(const std::string& id_json,
                                         std::string_view kind, std::string_view message);

}  // namespace lamps::net
