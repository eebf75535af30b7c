#include "graph/transform.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/errors.hpp"

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

TaskGraph scale_weights_by_unit(const TaskGraph& g, double unit, const std::string& context) {
  // The cast to Cycles is undefined beyond 2^64 and would truncate a
  // fraction, so both are rejected before it.
  if (!(unit >= 1.0 && unit < 0x1p64) || unit != std::floor(unit))
    throw InputError(ErrorCode::kConfig,
                     "unit must be a whole number of cycles per weight unit in [1, 2^64)",
                     context);
  const auto factor = static_cast<Cycles>(unit);
  constexpr Cycles kMaxCycles = std::numeric_limits<Cycles>::max();
  Cycles total_work = 0;
  for (TaskId v = 0; v < g.num_tasks(); ++v) {
    const Cycles w = g.weight(v);
    if (w > kMaxCycles / factor || w * factor > kMaxCycles - total_work)
      throw InputError(ErrorCode::kConfig, "task weights x unit overflow 64-bit cycles",
                       context, "use a smaller unit or smaller weights");
    total_work += w * factor;
  }
  return scale_weights(g, factor);
}

TaskGraph renamed(const TaskGraph& g, std::string name) {
  return rebuild(g, std::move(name), 1);
}

}  // namespace lamps::graph
