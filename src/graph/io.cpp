#include "graph/io.hpp"

#include <sstream>

#include "util/json.hpp"

namespace lamps::graph {

void write_dot(const TaskGraph& g, std::ostream& os) {
  os << "digraph \"" << g.name() << "\" {\n  rankdir=TB;\n  node [shape=box];\n";
  for (TaskId v = 0; v < g.num_tasks(); ++v) {
    os << "  t" << v << " [label=\"";
    if (g.label(v).empty())
      os << 'T' << v;
    else
      os << g.label(v);
    os << "\\nw=" << g.weight(v) << "\"];\n";
  }
  for (TaskId v = 0; v < g.num_tasks(); ++v)
    for (const TaskId s : g.successors(v)) os << "  t" << v << " -> t" << s << ";\n";
  os << "}\n";
}

void write_json(const TaskGraph& g, std::ostream& os) {
  os << "{\"name\": ";
  write_json_string(os, g.name());
  os << ", \"tasks\": [";
  for (TaskId v = 0; v < g.num_tasks(); ++v) {
    if (v != 0) os << ", ";
    os << "{\"id\": " << v << ", \"weight\": " << g.weight(v);
    if (!g.label(v).empty()) {
      os << ", \"label\": ";
      write_json_string(os, g.label(v));
    }
    if (const auto d = g.explicit_deadline(v)) os << ", \"deadline\": " << d->value();
    os << '}';
  }
  os << "], \"edges\": [";
  bool first = true;
  for (TaskId v = 0; v < g.num_tasks(); ++v)
    for (const TaskId s : g.successors(v)) {
      if (!first) os << ", ";
      first = false;
      os << '[' << v << ", " << s << ']';
    }
  os << "]}\n";
}

std::string to_dot(const TaskGraph& g) {
  std::ostringstream ss;
  write_dot(g, ss);
  return ss.str();
}

std::string to_json(const TaskGraph& g) {
  std::ostringstream ss;
  write_json(g, ss);
  return ss.str();
}

}  // namespace lamps::graph
