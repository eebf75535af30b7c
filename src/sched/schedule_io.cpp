#include "sched/schedule_io.hpp"

#include <algorithm>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/errors.hpp"
#include "util/json_value.hpp"

namespace lamps::sched {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw InputError(ErrorCode::kJsonParse, what, "schedule JSON");
}

}  // namespace

void write_schedule_json(const Schedule& s, std::ostream& os) {
  os << "{\"num_procs\": " << s.num_procs() << ", \"num_tasks\": " << s.num_tasks()
     << ", \"placements\": [";
  bool first = true;
  for (ProcId p = 0; p < s.num_procs(); ++p)
    for (const Placement& pl : s.on_proc(p)) {
      if (!first) os << ", ";
      first = false;
      os << "{\"task\": " << pl.task << ", \"proc\": " << pl.proc
         << ", \"start\": " << pl.start << ", \"finish\": " << pl.finish << '}';
    }
  os << "]}\n";
}

std::string to_schedule_json(const Schedule& s) {
  std::ostringstream ss;
  write_schedule_json(s, ss);
  return ss.str();
}

Schedule read_schedule_json(std::istream& is) {
  const JsonValue doc =
      JsonValue::parse(std::string(std::istreambuf_iterator<char>(is), {}));
  std::uint64_t num_procs = 0, num_tasks = 0;
  std::vector<Placement> placements;
  for (const auto& [key, value] : doc.members()) {
    if (key == "num_procs") {
      num_procs = value.as_u64();
    } else if (key == "num_tasks") {
      num_tasks = value.as_u64();
    } else if (key == "placements") {
      for (const JsonValue& item : value.items()) {
        Placement pl;
        for (const auto& [field, v] : item.members()) {
          if (field == "task")
            pl.task = static_cast<graph::TaskId>(v.as_u64());
          else if (field == "proc")
            pl.proc = static_cast<ProcId>(v.as_u64());
          else if (field == "start")
            pl.start = v.as_u64();
          else if (field == "finish")
            pl.finish = v.as_u64();
          else
            fail("unknown placement field: " + field);
        }
        placements.push_back(pl);
      }
    } else {
      fail("unknown field: " + key);
    }
  }

  if (num_procs == 0) fail("num_procs missing or zero");
  Schedule s(num_procs, num_tasks);
  // Accept any placement order: sort per (proc, start) before replaying
  // through the validating place() API.
  std::sort(placements.begin(), placements.end(), [](const Placement& a, const Placement& b) {
    return a.proc != b.proc ? a.proc < b.proc : a.start < b.start;
  });
  try {
    for (const Placement& pl : placements) s.place(pl.task, pl.proc, pl.start, pl.finish);
  } catch (const std::logic_error& e) {
    fail(std::string("inconsistent placements: ") + e.what());
  }
  return s;
}

}  // namespace lamps::sched
