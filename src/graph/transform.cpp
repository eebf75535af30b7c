#include "graph/transform.hpp"

#include <stdexcept>

namespace lamps::graph {

namespace {

TaskGraph rebuild(const TaskGraph& g, std::string name, Cycles factor) {
  TaskGraphBuilder b(std::move(name));
  for (TaskId v = 0; v < g.num_tasks(); ++v) {
    const Cycles w = g.weight(v);
    if (factor != 1 && w != 0 && w > static_cast<Cycles>(-1) / factor)
      throw std::overflow_error("scale_weights: weight overflow");
    (void)b.add_task(w * factor, g.label(v));
  }
  for (TaskId v = 0; v < g.num_tasks(); ++v)
    for (const TaskId s : g.successors(v)) b.add_edge(v, s);
  for (TaskId v = 0; v < g.num_tasks(); ++v)
    if (const auto d = g.explicit_deadline(v)) b.set_deadline(v, *d);
  return b.build();
}

}  // namespace

TaskGraph scale_weights(const TaskGraph& g, Cycles factor) {
  return rebuild(g, g.name(), factor);
}

TaskGraph renamed(const TaskGraph& g, std::string name) {
  return rebuild(g, std::move(name), 1);
}

}  // namespace lamps::graph
