// Schedule persistence: JSON export/import so scheduling results can be
// stored, diffed and post-processed outside the process (the CLI separates
// planning from analysis this way).
//
// Format:
//   {"num_procs": P, "num_tasks": N,
//    "placements": [{"task": t, "proc": p, "start": s, "finish": f}, ...]}
// Placements are emitted per processor in start order; the reader accepts
// any order and revalidates.
#pragma once

#include <iosfwd>
#include <string>

#include "sched/schedule.hpp"

namespace lamps::sched {

void write_schedule_json(const Schedule& s, std::ostream& os);
[[nodiscard]] std::string to_schedule_json(const Schedule& s);

/// Parses a schedule written by write_schedule_json, through the strict
/// JSON reader.  Throws InputError (E_JSON_PARSE, a std::runtime_error) on
/// malformed JSON, unknown fields, values that are not integers in
/// [0, 2^64), and inconsistent placements (duplicate tasks, overlaps).
[[nodiscard]] Schedule read_schedule_json(std::istream& is);

}  // namespace lamps::sched
