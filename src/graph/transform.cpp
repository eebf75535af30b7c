#include "graph/transform.hpp"

#include <stdexcept>
#include <utility>

namespace lamps::graph {

// Both transforms copy the frozen graph and edit only what they change: the
// structure (CSR arrays, topological order, sources, sinks) does not depend
// on the weights or the name, so it needs no second builder pass.

TaskGraph scale_weights(const TaskGraph& g, Cycles factor) {
  TaskGraph out = g;
  out.total_work_ = 0;
  for (Cycles& w : out.weights_) {
    if (__builtin_mul_overflow(w, factor, &w))
      throw std::overflow_error("scale_weights: weight overflow");
    out.total_work_ += w;  // wraps modulo 2^64, as the builder's sum does
  }
  return out;
}

TaskGraph renamed(const TaskGraph& g, std::string name) {
  TaskGraph out = g;
  out.name_ = std::move(name);
  return out;
}

}  // namespace lamps::graph
