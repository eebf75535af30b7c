// Graph transformations: weight scaling (granularity control) and renaming.
// Each copies the frozen graph and edits only what it changes.
#pragma once

#include <string>

#include "graph/task_graph.hpp"

namespace lamps::graph {

/// Returns a copy of `g` with every task weight multiplied by `factor`;
/// throws std::overflow_error when a product exceeds 64 bits.
/// Used to map abstract STG weight units onto cycle counts: the paper's
/// coarse-grain scenario makes one unit 3.1e6 cycles (1 ms at 3.1 GHz), the
/// fine-grain scenario 3.1e4 cycles (10 us).
[[nodiscard]] TaskGraph scale_weights(const TaskGraph& g, Cycles factor);

/// Returns a copy of `g` relabelled with a new name (metadata only).
[[nodiscard]] TaskGraph renamed(const TaskGraph& g, std::string name);

}  // namespace lamps::graph
