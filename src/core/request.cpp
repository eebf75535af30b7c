#include "core/request.hpp"

#include "core/incremental.hpp"

namespace lamps::core {

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

struct Fnv1a {
  std::uint64_t h{kFnvOffset};

  void byte(std::uint8_t b) {
    h ^= b;
    h *= kFnvPrime;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    __builtin_memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
};

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

}  // namespace

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
  Problem prob;
  prob.graph = &req.graph;
  prob.model = &model;
  prob.ladder = &ladder;
  prob.deadline = req.deadline;
  prob.policy = req.policy;
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
