// Weighted task DAG: the application model of the paper (section 3.1).
//
// Nodes are tasks, node weights are execution requirements in clock cycles
// (frequency-independent work), edges are precedence constraints.  Graphs
// are immutable after construction; TaskGraphBuilder validates acyclicity
// and freezes the adjacency into CSR arrays so the schedulers can iterate
// successor/predecessor lists with zero indirection.
//
// Storage is structure-of-arrays throughout, materialized once at build
// time: weights, CSR offsets and CSR targets are separate dense arrays
// (offsets are 32-bit — half the memory traffic of size_t on the
// 50k-100k-task serving graphs), and the hot loops grab them wholesale
// through the weights()/succ_offsets()/succ_targets()/pred_offsets() views
// instead of calling per-task accessors.
//
// Tasks may optionally carry an explicit deadline of their own; this is how
// unrolled Kahn Process Networks express per-iteration throughput
// requirements (paper Fig 1).  Plain DAG benchmarks leave these unset and
// use a single global deadline.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/units.hpp"

namespace lamps::graph {

using TaskId = std::uint32_t;
inline constexpr TaskId kInvalidTask = static_cast<TaskId>(-1);

/// Index into the CSR target arrays.  32 bits on purpose: task counts are
/// below 2^32 by construction and the builder rejects edge sets that would
/// overflow, so offsets stay half the width of size_t.
using EdgeIndex = std::uint32_t;

class TaskGraphBuilder;

class TaskGraph {
 public:
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t num_tasks() const { return weights_.size(); }
  [[nodiscard]] std::size_t num_edges() const { return succ_targets_.size(); }

  [[nodiscard]] Cycles weight(TaskId v) const { return weights_[v]; }
  [[nodiscard]] const std::string& label(TaskId v) const { return labels_[v]; }

  [[nodiscard]] std::span<const TaskId> successors(TaskId v) const {
    return {succ_targets_.data() + succ_offsets_[v],
            static_cast<std::size_t>(succ_offsets_[v + 1] - succ_offsets_[v])};
  }
  [[nodiscard]] std::span<const TaskId> predecessors(TaskId v) const {
    return {pred_targets_.data() + pred_offsets_[v],
            static_cast<std::size_t>(pred_offsets_[v + 1] - pred_offsets_[v])};
  }
  [[nodiscard]] std::size_t in_degree(TaskId v) const {
    return pred_offsets_[v + 1] - pred_offsets_[v];
  }
  [[nodiscard]] std::size_t out_degree(TaskId v) const {
    return succ_offsets_[v + 1] - succ_offsets_[v];
  }

  // Whole-array SoA views for the hot loops (the list scheduler's event
  // loop and the gap profiler): one pointer load each instead of per-task
  // accessor calls.
  [[nodiscard]] std::span<const Cycles> weights() const { return weights_; }
  [[nodiscard]] std::span<const EdgeIndex> succ_offsets() const { return succ_offsets_; }
  [[nodiscard]] std::span<const TaskId> succ_targets() const { return succ_targets_; }
  [[nodiscard]] std::span<const EdgeIndex> pred_offsets() const { return pred_offsets_; }
  [[nodiscard]] std::span<const TaskId> pred_targets() const { return pred_targets_; }

  /// Explicit per-task deadline, if one was set (KPN-derived graphs).
  [[nodiscard]] std::optional<Seconds> explicit_deadline(TaskId v) const;
  [[nodiscard]] bool has_explicit_deadlines() const { return has_deadlines_; }

  /// Tasks in a fixed topological order (computed once at build time;
  /// deterministic: Kahn's algorithm with smallest-id-first tie-breaking).
  [[nodiscard]] std::span<const TaskId> topological_order() const { return topo_order_; }

  /// Entry tasks (no predecessors) / exit tasks (no successors), ascending.
  [[nodiscard]] std::span<const TaskId> sources() const { return sources_; }
  [[nodiscard]] std::span<const TaskId> sinks() const { return sinks_; }

  /// Sum of all task weights ("total work" in the paper's Table 2).
  [[nodiscard]] Cycles total_work() const { return total_work_; }

 private:
  friend class TaskGraphBuilder;
  friend TaskGraph scale_weights(const TaskGraph& g, Cycles factor);
  friend TaskGraph renamed(const TaskGraph& g, std::string name);
  TaskGraph() = default;

  std::string name_;
  std::vector<Cycles> weights_;
  std::vector<std::string> labels_;
  std::vector<EdgeIndex> succ_offsets_, pred_offsets_;
  std::vector<TaskId> succ_targets_, pred_targets_;
  std::vector<double> deadlines_;  // seconds; NaN = unset
  bool has_deadlines_{false};
  std::vector<TaskId> topo_order_;
  std::vector<TaskId> sources_, sinks_;
  Cycles total_work_{0};
};

/// Mutable staging area for building a TaskGraph.
class TaskGraphBuilder {
 public:
  explicit TaskGraphBuilder(std::string name = "graph");

  /// Adds a task and returns its id (ids are dense, in insertion order).
  TaskId add_task(Cycles weight, std::string label = {});

  /// Adds a precedence edge from -> to.  Duplicate edges are coalesced at
  /// build() time; self-loops are rejected immediately.
  void add_edge(TaskId from, TaskId to);

  /// Attaches an explicit deadline to a task (seconds from time zero).
  void set_deadline(TaskId v, Seconds deadline);

  [[nodiscard]] std::size_t num_tasks() const { return weights_.size(); }

  /// Validates (DAG check via Kahn's algorithm) and freezes the graph.
  /// Throws std::invalid_argument if the edge set contains a cycle.
  /// The builder is left empty afterwards.
  [[nodiscard]] TaskGraph build();

 private:
  void check_task(TaskId v, const char* what) const;

  std::string name_;
  std::vector<Cycles> weights_;
  std::vector<std::string> labels_;
  std::vector<std::pair<TaskId, TaskId>> edges_;
  std::vector<std::pair<TaskId, double>> deadlines_;
};

}  // namespace lamps::graph
