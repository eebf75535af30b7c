#include "stg/format.hpp"

#include <charconv>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/errors.hpp"

namespace lamps::stg {

namespace {

struct RawTask {
  Cycles weight{0};
  std::vector<std::size_t> preds;
  std::size_t line_no{0};  ///< source line, for edge-stage diagnostics
};

[[noreturn]] void fail(const std::string& source, std::size_t line_no,
                       const std::string& what, const std::string& hint = {}) {
  std::string ctx = source;
  if (line_no != 0) {
    ctx += ':';
    ctx += std::to_string(line_no);
  }
  throw InputError(ErrorCode::kStgParse, what, ctx, hint);
}

/// Splits a line into whitespace-separated tokens.
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream ss(line);
  std::string tok;
  while (ss >> tok) tokens.push_back(std::move(tok));
  return tokens;
}

/// Strict whole-token unsigned parse: "12xyz", "-3", "" and overflow are all
/// rejected (std::stoull would accept the first silently and parse a prefix).
bool parse_u64_token(const std::string& tok, std::uint64_t& out) {
  if (tok.empty()) return false;
  const auto [ptr, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), out);
  return ec == std::errc{} && ptr == tok.data() + tok.size();
}

std::uint64_t require_u64(const std::string& source, std::size_t line_no,
                          const std::string& tok, const char* what) {
  std::uint64_t v = 0;
  if (!parse_u64_token(tok, v)) {
    if (!tok.empty() && tok[0] == '-')
      fail(source, line_no, std::string(what) + " is negative: '" + tok + "'");
    fail(source, line_no,
         std::string(what) + " is not a non-negative integer: '" + tok + "'");
  }
  return v;
}

}  // namespace

graph::TaskGraph read_stg(std::istream& is, const ParseOptions& opts) {
  const std::string& source = opts.name;
  std::string line;
  std::size_t line_no = 0;
  std::size_t n = 0;
  bool have_count = false;
  std::vector<RawTask> tasks;

  while (std::getline(is, line)) {
    ++line_no;
    const std::vector<std::string> tokens = tokenize(line);
    if (tokens.empty()) continue;         // blank line
    if (tokens[0][0] == '#') continue;    // comment
    if (!have_count) {
      if (tokens.size() != 1)
        fail(source, line_no, "header line must hold exactly the task count");
      n = require_u64(source, line_no, tokens[0], "task count");
      // Task ids are 32-bit, and n + 2 (the dummies) must not wrap.  Task
      // storage grows with the lines actually read, never from the
      // header alone.
      if (n > std::numeric_limits<graph::TaskId>::max() - 2)
        fail(source, line_no, "task count " + tokens[0] + " exceeds the 32-bit task id range");
      have_count = true;
      continue;
    }
    if (tasks.size() >= n + 2)
      fail(source, line_no,
           "more task lines than declared (header says " + std::to_string(n) +
               " real tasks)");
    const std::size_t id = require_u64(source, line_no, tokens[0], "task id");
    if (id != tasks.size())
      fail(source, line_no,
           "task ids must be consecutive from 0 (expected " +
               std::to_string(tasks.size()) + ", got " + std::to_string(id) + ")",
           id < tasks.size() ? "duplicate task id" : "missing task line");
    if (tokens.size() < 3)
      fail(source, line_no, "task line missing weight/pred-count");
    RawTask t;
    t.line_no = line_no;
    t.weight =
        static_cast<Cycles>(require_u64(source, line_no, tokens[1], "processing time"));
    const std::size_t num_preds =
        require_u64(source, line_no, tokens[2], "predecessor count");
    if (tokens.size() != 3 + num_preds)
      fail(source, line_no,
           "expected " + std::to_string(num_preds) + " predecessor ids, found " +
               std::to_string(tokens.size() - 3));
    t.preds.resize(num_preds);
    for (std::size_t k = 0; k < num_preds; ++k) {
      const std::size_t p =
          require_u64(source, line_no, tokens[3 + k], "predecessor id");
      for (std::size_t j = 0; j < k; ++j)
        if (t.preds[j] == p)
          fail(source, line_no,
               "duplicate predecessor " + std::to_string(p) + " for task " +
                   std::to_string(id));
      if (p == id)
        fail(source, line_no, "task " + std::to_string(id) + " lists itself as predecessor");
      t.preds[k] = p;
    }
    tasks.push_back(std::move(t));
  }
  if (!have_count) fail(source, 0, "empty input");
  if (tasks.size() != n + 2)
    fail(source, line_no,
         "expected " + std::to_string(n + 2) + " task lines (including dummy entry/exit), "
         "found " + std::to_string(tasks.size()));

  // Dangling-edge check before building: every predecessor id must name a
  // declared task.  Done here (with the referencing line) rather than
  // letting the builder hit an out-of-range TaskId.
  for (std::size_t i = 0; i < tasks.size(); ++i)
    for (const std::size_t p : tasks[i].preds)
      if (p >= tasks.size())
        fail(source, tasks[i].line_no,
             "dangling edge: predecessor " + std::to_string(p) + " of task " +
                 std::to_string(i) + " is not a declared task (ids are 0.." +
                 std::to_string(tasks.size() - 1) + ")");

  graph::TaskGraphBuilder b(opts.name);
  try {
    if (opts.strip_dummies) {
      // Real tasks are 1..n; dummy 0 (entry) and n+1 (exit) are dropped along
      // with their incident edges.
      for (std::size_t i = 1; i <= n; ++i) (void)b.add_task(tasks[i].weight);
      for (std::size_t i = 1; i <= n; ++i)
        for (const std::size_t p : tasks[i].preds) {
          if (p == 0) continue;
          if (p > n)
            fail(source, tasks[i].line_no,
                 "edge from dummy exit: task " + std::to_string(i) + " lists " +
                     std::to_string(p) + " as predecessor");
          b.add_edge(static_cast<graph::TaskId>(p - 1), static_cast<graph::TaskId>(i - 1));
        }
      // Edges into the dummy exit carry no information once it is removed.
    } else {
      for (const RawTask& t : tasks) (void)b.add_task(t.weight);
      for (std::size_t i = 0; i < tasks.size(); ++i)
        for (const std::size_t p : tasks[i].preds)
          b.add_edge(static_cast<graph::TaskId>(p), static_cast<graph::TaskId>(i));
    }
    return b.build();
  } catch (const Error&) {
    throw;  // already typed (the fail() calls above)
  } catch (const std::exception& e) {
    // The builder rejects structural problems (cycles, self-loops) with
    // untyped exceptions; re-raise them as part of the taxonomy.
    throw InputError(ErrorCode::kGraphStructure, e.what(), source,
                     "the file parsed but does not describe a valid task DAG");
  }
}

graph::TaskGraph read_stg_file(const std::string& path, const ParseOptions& opts) {
  std::ifstream is(path);
  if (!is)
    throw InputError(ErrorCode::kConfig, "cannot open STG file", path,
                     "check the path (suite stg_files entries are relative to the "
                     "working directory)");
  ParseOptions o = opts;
  if (o.name == "stg") o.name = path;
  return read_stg(is, o);
}

void write_stg(const graph::TaskGraph& g, std::ostream& os) {
  const std::size_t n = g.num_tasks();
  os << n << '\n';
  // Dummy entry: id 0, weight 0, no preds.
  os << 0 << ' ' << 0 << ' ' << 0 << '\n';
  for (graph::TaskId v = 0; v < n; ++v) {
    const auto preds = g.predecessors(v);
    os << (v + 1) << ' ' << g.weight(v) << ' ';
    if (preds.empty()) {
      os << 1 << ' ' << 0;  // hang sources off the dummy entry
    } else {
      os << preds.size();
      for (const graph::TaskId p : preds) os << ' ' << (p + 1);
    }
    os << '\n';
  }
  // Dummy exit: preds are all sinks.
  const auto sinks = g.sinks();
  os << (n + 1) << ' ' << 0 << ' ' << sinks.size();
  for (const graph::TaskId s : sinks) os << ' ' << (s + 1);
  os << '\n';
}

}  // namespace lamps::stg
