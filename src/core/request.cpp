#include "core/request.hpp"

#include <cmath>
#include <limits>

#include "core/incremental.hpp"
#include "graph/analysis.hpp"
#include "graph/transform.hpp"
#include "util/fnv1a.hpp"

namespace lamps::core {

namespace {

// Hashes the deadline-invariant part shared by both digests: weights, edge
// set, explicit deadlines and priority policy.
void hash_structure(Fnv1a& h, const ServiceRequest& req) {
  const graph::TaskGraph& g = req.graph;
  h.u64(g.num_tasks());
  for (graph::TaskId v = 0; v < g.num_tasks(); ++v) {
    h.u64(static_cast<std::uint64_t>(g.weight(v)));
    // Successor lists are CSR slices in ascending source order; hashing
    // (source-count, targets...) pins the exact edge set.
    const auto succ = g.successors(v);
    h.u64(succ.size());
    for (const graph::TaskId t : succ) h.u64(t);
    if (const auto d = g.explicit_deadline(v); d.has_value())
      h.f64(d->value());
    else
      h.f64(-1.0);
  }
  h.u64(static_cast<std::uint64_t>(req.policy));
}

// The unit rule.  The cast to Cycles is undefined beyond 2^64 and would
// truncate a fraction, so both are rejected before it.
Cycles unit_cycles(const graph::TaskGraph& g, double unit) {
  if (!(unit >= 1.0 && unit < 0x1p64) || unit != std::floor(unit))
    throw InputError(ErrorCode::kConfig,
                     "unit must be a whole number of cycles per weight unit in [1, 2^64)",
                     g.name());
  const auto factor = static_cast<Cycles>(unit);
  constexpr Cycles kMaxCycles = std::numeric_limits<Cycles>::max();
  Cycles total_work = 0;
  for (graph::TaskId v = 0; v < g.num_tasks(); ++v) {
    const Cycles w = g.weight(v);
    if (w > kMaxCycles / factor || w * factor > kMaxCycles - total_work)
      throw InputError(ErrorCode::kConfig, "task weights x unit overflow 64-bit cycles",
                       g.name(), "use a smaller unit or smaller weights");
    total_work += w * factor;
  }
  return factor;
}

}  // namespace

ServiceRequest make_service_request(const graph::TaskGraph& as_read, const RequestSpec& spec,
                                    const power::PowerModel& model) {
  if (spec.deadline_s.has_value() && !(*spec.deadline_s > 0.0))
    throw InputError(ErrorCode::kConfig, "deadline_s must be > 0 when present", as_read.name());
  graph::TaskGraph scaled = graph::scale_weights(as_read, unit_cycles(as_read, spec.unit));
  const Seconds deadline = spec.deadline_s.has_value()
                               ? Seconds{*spec.deadline_s}
                               : factor_deadline(scaled, spec.deadline_factor, model);
  // The searches' own conversion: a deadline they would reject is bad input
  // here, before it reaches a cache, the pool or a report.
  (void)deadline_cycles(deadline, model.max_frequency());
  return ServiceRequest{std::move(scaled), deadline, spec.strategy};
}

Seconds factor_deadline(const graph::TaskGraph& scaled, double factor,
                        const power::PowerModel& model) {
  if (!(factor > 0.0))
    throw InputError(ErrorCode::kConfig, "deadline factor must be > 0", scaled.name());
  const Seconds deadline{static_cast<double>(graph::critical_path_length(scaled)) /
                         model.max_frequency().value() * factor};
  (void)deadline_cycles(deadline, model.max_frequency());
  return deadline;
}

Problem make_problem(const ServiceRequest& req, const power::PowerModel& model,
                     const power::DvsLadder& ladder) {
  return Problem{&req.graph, req.deadline, &model, &ladder, req.policy};
}

std::uint64_t service_request_digest(const ServiceRequest& req) {
  Fnv1a h;
  hash_structure(h, req);
  h.f64(req.deadline.value());
  h.u64(static_cast<std::uint64_t>(req.strategy));
  return h.h;
}

std::uint64_t service_request_structure_digest(const ServiceRequest& req) {
  Fnv1a h;
  hash_structure(h, req);
  return h.h;
}

StrategyResult run_service_request(const ServiceRequest& req,
                                   const power::PowerModel& model,
                                   const power::DvsLadder& ladder) {
  return run_service_request(req, model, ladder, nullptr);
}

StrategyResult run_service_request(const ServiceRequest& req,
                                   const power::PowerModel& model,
                                   const power::DvsLadder& ladder,
                                   ScheduleBank* bank) {
  Problem prob = make_problem(req, model, ladder);
  if (bank != nullptr && !req.graph.has_explicit_deadlines()) {
    // Lease held for the whole strategy run: same-structure requests
    // serialize on the store, distinct structures proceed in parallel.
    ScheduleBank::Lease lease = bank->lease(service_request_structure_digest(req));
    prob.profile_store = lease.store();
    return run_strategy(req.strategy, prob);
  }
  return run_strategy(req.strategy, prob);
}

}  // namespace lamps::core
