#include "net/protocol.hpp"

#include <sstream>

#include "stg/format.hpp"
#include "util/errors.hpp"
#include "util/json.hpp"
#include "util/json_value.hpp"

namespace lamps::net {

namespace {

core::StrategyKind strategy_from_wire(const std::string& name) {
  for (const core::StrategyKind k : core::kAllStrategies)
    if (name == core::to_string(k)) return k;
  throw InputError(ErrorCode::kConfig, "unknown strategy: '" + name + "'", {},
                   "valid: S&S, LAMPS, S&S+PS, LAMPS+PS, LIMIT-SF, LIMIT-MF");
}

std::string_view trimmed(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' || s.front() == '\r'))
    s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r'))
    s.remove_suffix(1);
  return s;
}

std::optional<AdminCommand> admin_command_from_name(std::string_view name) {
  if (name == "statsz") return AdminCommand::kStatsz;
  if (name == "healthz") return AdminCommand::kHealthz;
  if (name == "cachez") return AdminCommand::kCachez;
  if (name == "flightz") return AdminCommand::kFlightz;
  if (name == "chaosz") return AdminCommand::kChaosz;
  if (name == "quitquitquit") return AdminCommand::kQuit;
  return std::nullopt;
}

}  // namespace

const char* to_string(AdminCommand cmd) {
  switch (cmd) {
    case AdminCommand::kStatsz:
      return "statsz";
    case AdminCommand::kHealthz:
      return "healthz";
    case AdminCommand::kCachez:
      return "cachez";
    case AdminCommand::kFlightz:
      return "flightz";
    case AdminCommand::kChaosz:
      return "chaosz";
    case AdminCommand::kQuit:
      return "quitquitquit";
  }
  return "?";
}

std::optional<AdminRequest> parse_admin_request(const std::string& line) {
  const std::string_view word = trimmed(line);
  if (const auto bare = admin_command_from_name(word); bare.has_value()) {
    AdminRequest req;
    req.cmd = *bare;
    return req;
  }
  // Cheap pre-filter: a schedule request has no top-level "cmd", so skip
  // the JSON parse entirely unless the token appears somewhere.
  if (line.find("\"cmd\"") == std::string::npos) return std::nullopt;
  const JsonValue doc = JsonValue::parse(line);
  if (!doc.is_object()) return std::nullopt;
  const JsonValue* cmd = doc.get("cmd");
  if (cmd == nullptr) return std::nullopt;  // "cmd" was inside a payload string
  const auto named = admin_command_from_name(cmd->as_string());
  if (!named.has_value())
    throw InputError(ErrorCode::kConfig, "unknown admin cmd: '" + cmd->as_string() + "'",
                     {}, "valid: statsz, healthz, cachez, flightz, chaosz, quitquitquit");
  AdminRequest req;
  req.cmd = *named;
  if (const JsonValue* id = doc.get("id"); id != nullptr && !id->is_null()) {
    std::ostringstream ss;
    if (id->is_string())
      write_json_string(ss, id->as_string());
    else if (id->is_number())
      ss << json_double(id->as_number());
    else
      throw InputError(ErrorCode::kJsonParse, "id must be a string or number");
    req.id_json = ss.str();
  }
  const double limit = doc.get_number("limit", static_cast<double>(req.limit));
  if (limit < 1.0 || limit > 4096.0)
    throw InputError(ErrorCode::kConfig, "flightz limit must be in [1, 4096]");
  req.limit = static_cast<std::size_t>(limit);
  return req;
}

ParsedRequest parse_schedule_request(const std::string& line,
                                     const power::PowerModel& model) {
  const JsonValue doc = JsonValue::parse(line);
  if (!doc.is_object())
    throw InputError(ErrorCode::kJsonParse, "request must be a JSON object");

  std::string id_json{"null"};
  if (const JsonValue* id = doc.get("id"); id != nullptr) {
    if (id->is_string()) {
      std::ostringstream ss;
      write_json_string(ss, id->as_string());
      id_json = ss.str();
    } else if (id->is_number()) {
      id_json = json_double(id->as_number());
    } else if (!id->is_null()) {
      throw InputError(ErrorCode::kJsonParse, "id must be a string or number");
    }
  }

  // Inline only: the daemon never opens a path a client names.
  const JsonValue* stg_text = doc.get("stg");
  if (stg_text == nullptr || doc.get("file") != nullptr)
    throw InputError(ErrorCode::kConfig,
                     "request needs an inline \"stg\" graph and no \"file\"");

  core::RequestSpec spec;
  spec.unit = doc.get_number("unit", spec.unit);
  if (const auto* d = doc.get("deadline_s"); d != nullptr) spec.deadline_s = d->as_number();
  spec.deadline_factor = doc.get_number("deadline_factor", spec.deadline_factor);
  if (const JsonValue* name = doc.get("strategy"); name != nullptr)
    spec.strategy = strategy_from_wire(name->as_string());

  const double deadline_ms = doc.get_number("deadline_ms", 0.0);
  if (doc.get("deadline_ms") != nullptr && deadline_ms <= 0.0)
    throw InputError(ErrorCode::kConfig, "deadline_ms must be > 0 when present");

  stg::ParseOptions popts;
  popts.name = "inline";
  std::istringstream is(stg_text->as_string());
  return ParsedRequest{std::move(id_json),
                       core::make_service_request(stg::read_stg(is, popts), spec, model),
                       deadline_ms};
}

std::string result_json(const core::StrategyResult& r, const power::DvsLadder& ladder) {
  std::ostringstream os;
  const double f_norm = r.feasible ? ladder.level(r.level_index).f_norm : 0.0;
  os << "{\"feasible\":" << (r.feasible ? "true" : "false") << ",\"procs\":" << r.num_procs
     << ",\"level\":" << r.level_index << ",\"f_norm\":";
  write_json_double(os, f_norm);
  os << ",\"energy_j\":";
  write_json_double(os, r.feasible ? r.breakdown.total().value() : 0.0);
  os << ",\"dynamic_j\":";
  write_json_double(os, r.breakdown.dynamic.value());
  os << ",\"leakage_j\":";
  write_json_double(os, r.breakdown.leakage.value());
  os << ",\"intrinsic_j\":";
  write_json_double(os, r.breakdown.intrinsic.value());
  os << ",\"sleep_j\":";
  write_json_double(os, r.breakdown.sleep.value());
  os << ",\"wakeup_j\":";
  write_json_double(os, r.breakdown.wakeup.value());
  os << ",\"shutdowns\":" << r.breakdown.shutdowns << ",\"completion_s\":";
  write_json_double(os, r.completion.value());
  os << ",\"schedules_computed\":" << r.schedules_computed << '}';
  return os.str();
}

std::string extract_result_json(const std::string& response_line) {
  static constexpr std::string_view kKey = "\"result\":";
  const auto pos = response_line.find(kKey);
  if (pos == std::string::npos) return {};
  const auto start = pos + kKey.size();
  // The payload is flat by construction: the first '}' closes it.
  const auto end = response_line.find('}', start);
  if (end == std::string::npos) return {};
  return response_line.substr(start, end - start + 1);
}

std::string ok_response(const std::string& id_json, const std::string& result_payload,
                        bool cached, double elapsed_ms) {
  std::ostringstream os;
  os << "{\"id\":" << id_json << ",\"ok\":true,\"cached\":" << (cached ? "true" : "false")
     << ",\"result\":" << result_payload << ",\"elapsed_ms\":";
  write_json_double(os, elapsed_ms);
  os << "}\n";
  return os.str();
}

std::string error_response(const std::string& id_json, std::string_view kind,
                           std::string_view message) {
  std::ostringstream os;
  os << "{\"id\":" << id_json << ",\"ok\":false,\"error\":";
  write_json_string(os, kind);
  os << ",\"message\":";
  write_json_string(os, message);
  os << "}\n";
  return os.str();
}

}  // namespace lamps::net
