// LAMPS and LAMPS+PS (paper sections 4.2-4.3, pseudocode Figs 5 and 8).
//
// Phase 1 establishes the minimal processor count meeting the deadline at
// the maximum frequency via binary search on
//   [N_lwb = ceil(total work / deadline cycles), N_upb = |V|].
// Phase 2 searches every N from N_min up to the count beyond which the
// makespan no longer decreases (the S&S processor count, N_max),
// evaluating for each N the stretched energy — without PS for LAMPS, or
// the best level of the PS frequency sweep for LAMPS+PS — and returns the
// configuration with minimal energy (smallest N on ties).  The search is
// linear, not binary, because energy as a function of N has local minima
// (paper Fig 6: "a full search must be performed on the number of
// processors").  It is exact but not exhaustive: N_max is evaluated first,
// and every other N whose processor_count_energy_bound exceeds that energy
// is skipped without being scheduled, since it cannot be the argmin.
#pragma once

#include <vector>

#include "core/problem.hpp"

namespace lamps::core {

[[nodiscard]] StrategyResult lamps_schedule(const Problem& prob);
[[nodiscard]] StrategyResult lamps_schedule_ps(const Problem& prob);

/// Lower bound on the energy LAMPS (with_ps = false) or LAMPS+PS
/// (with_ps = true) evaluates for any list schedule of prob's graph on
/// `num_procs` processors: the paper's LIMIT-SF restricted to num_procs
/// processors.  Graham's floor max(CPL, ceil(W / num_procs)) fixes the
/// slowest level such a schedule can run at; at each level from there up,
/// the W busy cycles cost their active energy and the remaining
/// num_procs * D - W / f processor-seconds cost at least
/// min(P_sleep, P_idle) each (P_idle alone without PS).  Returns the
/// minimum over those levels, +infinity when no level is fast enough.
[[nodiscard]] Joules processor_count_energy_bound(const Problem& prob, std::size_t num_procs,
                                                  bool with_ps);

/// One phase-2 evaluation point (for Fig 6-style plots of energy vs
/// processor count).
struct SweepPoint {
  std::size_t num_procs{0};
  Cycles makespan{0};
  bool feasible{false};
  std::size_t level_index{0};
  Joules energy{0.0};
};

/// Full energy-vs-processor-count curve: schedules the graph on every
/// processor count in [1, max_procs] and records the stretched energy (and
/// with_ps selects the +PS evaluation).  This is the "full search" the
/// paper performs to expose local minima (Fig 6).
[[nodiscard]] std::vector<SweepPoint> processor_sweep(const Problem& prob,
                                                      std::size_t max_procs, bool with_ps);

}  // namespace lamps::core
