// Graph transformations: weight scaling (granularity control) and
// miscellaneous rebuilds.
#pragma once

#include <string>

#include "graph/task_graph.hpp"

namespace lamps::graph {

/// Returns a copy of `g` with every task weight multiplied by `factor`.
/// Used to map abstract STG weight units onto cycle counts: the paper's
/// coarse-grain scenario makes one unit 3.1e6 cycles (1 ms at 3.1 GHz), the
/// fine-grain scenario 3.1e4 cycles (10 us).
[[nodiscard]] TaskGraph scale_weights(const TaskGraph& g, Cycles factor);

/// scale_weights by a unit read from the outside (a CLI flag, a protocol
/// field).  The unit must be a whole number of cycles in [1, 2^64), and
/// the scaled weights — and so their sum, the total work — must fit in 64
/// bits; anything else raises InputError(kConfig) with `context` (the
/// input's name) attached.
[[nodiscard]] TaskGraph scale_weights_by_unit(const TaskGraph& g, double unit,
                                              const std::string& context = {});

/// Returns a copy of `g` relabelled with a new name (metadata only).
[[nodiscard]] TaskGraph renamed(const TaskGraph& g, std::string name);

}  // namespace lamps::graph
