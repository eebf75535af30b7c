// The one request path of `lamps serve`, the `lamps` CLI and stg_workflow:
// the builder that owns the unit and deadline rules, the Problem adapter
// and the cross-request cache key.
//
// A ServiceRequest is everything a remote caller may vary: the task
// graph (already scaled to cycles), the absolute deadline, the strategy
// and the list-scheduling policy.  The digest hashes exactly those
// degrees of freedom — graph structure by value, not by name — so two
// requests collide iff run_service_request would compute the identical
// result (strategies are deterministic pure functions of the Problem).
// The serve layer uses it both for single-flight deduplication of
// concurrent identical requests and as the LRU key for completed ones.
#pragma once

#include <cstdint>
#include <optional>

#include "core/problem.hpp"
#include "core/strategy.hpp"

namespace lamps::core {

/// What a caller states beside the graph; wire fields and CLI flags bind to it.
struct RequestSpec {
  double unit{3'100'000.0};          ///< cycles per STG weight unit
  std::optional<double> deadline_s;  ///< absolute seconds; wins over the factor
  double deadline_factor{2.0};       ///< x the critical path at f_max
  StrategyKind strategy{StrategyKind::kLampsPs};
};

/// One scheduling request, normalized: the graph is scaled to cycles and
/// the deadline is absolute seconds.
struct ServiceRequest {
  graph::TaskGraph graph;
  Seconds deadline{0.0};
  StrategyKind strategy{StrategyKind::kLampsPs};
  sched::PriorityPolicy policy{sched::PriorityPolicy::kEdf};
};

/// Scales `as_read` by `spec.unit` (whole cycles in [1, 2^64), no weight nor
/// the total work past 64 bits).  A present `deadline_s` (> 0) wins over
/// factor_deadline(); either way the deadline lies below 2^63 cycles at
/// f_max.  Anything else throws InputError(kConfig).
[[nodiscard]] ServiceRequest make_service_request(const graph::TaskGraph& as_read,
                                                  const RequestSpec& spec,
                                                  const power::PowerModel& model);

/// `factor` (> 0) x the critical path of `scaled` at f_max, checked like
/// make_service_request's, so a sweep can check every point up front.
[[nodiscard]] Seconds factor_deadline(const graph::TaskGraph& scaled, double factor,
                                      const power::PowerModel& model);

/// The Problem over `req`; `req`, `model` and `ladder` must outlive it.
[[nodiscard]] Problem make_problem(const ServiceRequest& req, const power::PowerModel& model,
                                   const power::DvsLadder& ladder);

/// FNV-1a digest over the request's semantic content: task weights,
/// explicit deadlines, edge set, global deadline, strategy and policy.
/// Graph name/labels are cosmetic and excluded.  Stable across processes
/// (no pointers, no iteration-order dependence: CSR arrays are in fixed
/// task-id order).
[[nodiscard]] std::uint64_t service_request_digest(const ServiceRequest& req);

/// Digest over only the deadline-invariant degrees of freedom: weights,
/// edge set, explicit deadlines and priority policy.  The global deadline
/// and the strategy are deliberately excluded — requests differing only in
/// those produce identical schedules and idle-gap profiles (see
/// core/incremental.hpp), so they share one ScheduleBank store; LAMPS and
/// S&S probes cross-pollinate the same artifacts.
[[nodiscard]] std::uint64_t service_request_structure_digest(const ServiceRequest& req);

class ScheduleBank;

/// Runs the strategy on make_problem(req, ...) (the model/ladder pair must
/// outlive the call).  Single-threaded search on purpose: the
/// serving layer parallelizes across requests, not within one.
[[nodiscard]] StrategyResult run_service_request(const ServiceRequest& req,
                                                 const power::PowerModel& model,
                                                 const power::DvsLadder& ladder);

/// Same, with incremental rescheduling: leases `bank`'s ProfileStore for
/// the request's structure digest so deadline-invariant schedules/profiles
/// carry over between requests on the same graph.  Results are
/// bit-identical to the 3-argument overload.  The store is only attached
/// when the graph has no explicit per-task deadlines (their EDF ranking
/// depends on the global deadline, breaking the invariance); `bank` may be
/// null, which degrades to the plain overload.
[[nodiscard]] StrategyResult run_service_request(const ServiceRequest& req,
                                                 const power::PowerModel& model,
                                                 const power::DvsLadder& ladder,
                                                 ScheduleBank* bank);

}  // namespace lamps::core
