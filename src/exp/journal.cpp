#include "exp/journal.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string_view>

#include <fcntl.h>
#include <unistd.h>

#include "exp/experiment.hpp"
#include "util/errors.hpp"
#include "util/fnv1a.hpp"
#include "util/json.hpp"
#include "util/json_value.hpp"

namespace lamps::exp {

namespace {

/// The digest-covered part of a journal line: everything between the braces
/// except the trailing digest field, in a fixed field order.
std::string payload(const JournalRecord& r) {
  std::string p = "\"v\":1,\"tag\":\"";
  p += json_escape(r.tag);
  p += "\",\"group\":\"";
  p += json_escape(r.group);
  p += "\",\"graph\":\"";
  p += json_escape(r.graph);
  p += "\",\"factor\":";
  p += json_double(r.deadline_factor);
  p += ",\"strategy\":\"";
  p += json_escape(r.strategy);
  p += "\",\"outcome\":\"";
  p += std::string(core::to_string(r.outcome));
  p += "\",\"error\":\"";
  p += std::string(to_string(r.error));
  p += "\",\"message\":\"";
  p += json_escape(r.message);
  p += "\",\"retries\":";
  p += std::to_string(r.retries);
  p += ",\"feasible\":";
  p += r.feasible ? '1' : '0';
  p += ",\"energy_j\":";
  p += json_double(r.energy_j);
  p += ",\"procs\":";
  p += std::to_string(r.num_procs);
  p += ",\"level\":";
  p += std::to_string(r.level_index);
  p += ",\"schedules\":";
  p += std::to_string(r.schedules_computed);
  p += ",\"parallelism\":";
  p += json_double(r.parallelism);
  p += ",\"total_work\":";
  p += std::to_string(r.total_work);
  p += ",\"seconds\":";
  p += json_double(r.seconds);
  return p;
}

/// The line's seal: FNV-1a of the payload, as 16 lower-case hex digits.
std::string seal(const std::string& payload) {
  Fnv1a h;
  h.bytes(payload);
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h.h));
  return hex;
}

void throw_io(const std::string& what, const std::string& path) {
  throw InternalError(ErrorCode::kIo, what + ": " + std::strerror(errno), path,
                      "check free space and directory permissions", /*retryable=*/true);
}

}  // namespace

std::string journal_key(const std::string& tag, const std::string& group,
                        const std::string& graph, double deadline_factor,
                        const std::string& strategy) {
  std::string key = tag;
  key += '|';
  key += group;
  key += '|';
  key += graph;
  key += '|';
  key += json_double(deadline_factor);
  key += '|';
  key += strategy;
  return key;
}

std::string journal_key(const std::string& tag, const core::InstanceResult& r) {
  return journal_key(tag, r.group, r.graph_name, r.deadline_factor,
                     std::string(core::to_string(r.strategy)));
}

JournalRecord make_journal_record(const std::string& tag, const core::InstanceResult& r) {
  JournalRecord rec;
  rec.tag = tag;
  rec.group = r.group;
  rec.graph = r.graph_name;
  rec.deadline_factor = r.deadline_factor;
  rec.strategy = std::string(core::to_string(r.strategy));
  rec.outcome = r.outcome;
  rec.error = r.error;
  rec.message = r.error_message;
  rec.retries = r.retries;
  rec.feasible = r.feasible;
  rec.energy_j = r.energy.value();
  rec.num_procs = r.num_procs;
  rec.level_index = r.level_index;
  rec.schedules_computed = r.schedules_computed;
  rec.parallelism = r.parallelism;
  rec.total_work = r.total_work;
  rec.seconds = r.seconds;
  return rec;
}

core::InstanceResult restore_instance(const JournalRecord& rec) {
  core::InstanceResult r;
  r.group = rec.group;
  r.graph_name = rec.graph;
  r.deadline_factor = rec.deadline_factor;
  r.strategy = strategy_from_name(rec.strategy);
  r.outcome = rec.outcome;
  r.error = rec.error;
  r.error_message = rec.message;
  r.retries = rec.retries;
  r.feasible = rec.feasible;
  r.energy = Joules{rec.energy_j};
  r.num_procs = rec.num_procs;
  r.level_index = rec.level_index;
  r.schedules_computed = rec.schedules_computed;
  r.parallelism = rec.parallelism;
  r.total_work = rec.total_work;
  r.seconds = rec.seconds;
  r.from_journal = true;
  return r;
}

std::string journal_line(const JournalRecord& rec) {
  const std::string p = payload(rec);
  return "{" + p + ",\"digest\":\"" + seal(p) + "\"}";
}

std::optional<JournalRecord> parse_journal_line(const std::string& line) {
  try {
    const JsonValue doc = JsonValue::parse(line);
    const auto field = [&doc](std::string_view key) -> const JsonValue& {
      const JsonValue* v = doc.get(key);
      if (v == nullptr)
        throw InputError(ErrorCode::kJsonParse, "missing field", std::string(key));
      return *v;
    };
    if (field("v").as_u64() != 1) return std::nullopt;
    JournalRecord rec;
    rec.tag = field("tag").as_string();
    rec.group = field("group").as_string();
    rec.graph = field("graph").as_string();
    rec.deadline_factor = field("factor").as_number();
    rec.strategy = field("strategy").as_string();
    rec.outcome = core::cell_outcome_from_string(field("outcome").as_string());
    rec.error = error_code_from_string(field("error").as_string());
    rec.message = field("message").as_string();
    rec.retries = static_cast<std::uint32_t>(field("retries").as_u64());
    rec.feasible = field("feasible").as_u64() == 1;
    rec.energy_j = field("energy_j").as_number();
    rec.num_procs = field("procs").as_u64();
    rec.level_index = field("level").as_u64();
    rec.schedules_computed = field("schedules").as_u64();
    rec.parallelism = field("parallelism").as_number();
    rec.total_work = field("total_work").as_u64();
    rec.seconds = field("seconds").as_number();
    // The digest seals the payload: re-serialize what was parsed and
    // compare.  A field that does not read back to the bytes it was written
    // as (a corrupted byte, an unknown outcome name, a feasible flag of 2)
    // fails here even when the line is still valid JSON.
    if (field("digest").as_string() != seal(payload(rec))) return std::nullopt;
    return rec;
  } catch (const InputError&) {
    return std::nullopt;  // not JSON, a field missing or of the wrong type
  }
}

Journal::~Journal() { close(); }

void Journal::open(const std::string& path, bool truncate) {
  close();
  int flags = O_RDWR | O_CREAT | O_APPEND;
  if (truncate) flags |= O_TRUNC;
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) throw_io("cannot open journal", path);
  if (!truncate) {
    // Repair a torn tail (SIGKILL mid-append leaves a half-line without a
    // newline): terminate it so new records never glue onto it — the torn
    // line then simply fails its digest on the next load.
    const off_t size = ::lseek(fd, 0, SEEK_END);
    char last = '\n';
    if (size > 0 && ::pread(fd, &last, 1, size - 1) == 1 && last != '\n')
      (void)::write(fd, "\n", 1);
  }
  path_ = path;
  fd_ = fd;
}

void Journal::append(const JournalRecord& rec) {
  std::string line = journal_line(rec);
  line += '\n';
  const std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ < 0)
    throw InternalError(ErrorCode::kIo, "journal append on closed journal", path_);
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::write(fd_, line.data() + off, line.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_io("journal write failed", path_);
    }
    off += static_cast<std::size_t>(n);
  }
  // The fsync is the crash-safety contract: once append returns, the record
  // survives SIGKILL / power loss.
  if (::fsync(fd_) != 0) throw_io("journal fsync failed", path_);
}

void Journal::close() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

JournalContents Journal::load(const std::string& path) {
  JournalContents out;
  std::ifstream is(path);
  if (!is) return out;  // no journal yet: nothing to resume
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    ++out.lines_total;
    const std::optional<JournalRecord> rec = parse_journal_line(line);
    if (!rec.has_value()) {
      // Truncated trailing line after a crash, or corruption: drop the
      // record, the cell simply re-runs.
      ++out.lines_dropped;
      continue;
    }
    out.records[journal_key(rec->tag, rec->group, rec->graph, rec->deadline_factor,
                            rec->strategy)] = *rec;
  }
  return out;
}

}  // namespace lamps::exp
