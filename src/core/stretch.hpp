// Stretch/level-selection helpers shared by the strategies:
//   * the lowest DVS level at which a given schedule meets its deadline(s),
//   * energy of a stretched schedule without PS,
//   * the best (level, energy) over the DVS sweep with PS enabled
//     (paper section 4.3: "gradually scaling the operating frequency from
//     the maximum to the minimum required to meet the deadline").
#pragma once

#include <optional>

#include "core/problem.hpp"

namespace lamps::energy {
class GapProfile;
}

namespace lamps::core {

/// Minimum clock frequency at which every task of `s` meets its deadline:
/// max over tasks of finish_cycles / deadline_seconds, where the deadline
/// is the per-task explicit one when present, else the global one.
[[nodiscard]] Hertz min_feasible_frequency(const sched::Schedule& s,
                                           const graph::TaskGraph& g, Seconds global_deadline);

/// Slowest ladder level meeting min_feasible_frequency; nullptr when the
/// schedule cannot meet its deadlines even at the maximum level.
[[nodiscard]] const power::DvsLevel* lowest_feasible_level(const sched::Schedule& s,
                                                           const Problem& prob);

/// lowest_feasible_level for a single global deadline, where the binding
/// constraint is the makespan alone (same epsilon policy).  Monotone in
/// `makespan`: a longer schedule never gets a slower level.
[[nodiscard]] const power::DvsLevel* lowest_level_for_makespan(Cycles makespan,
                                                               const Problem& prob);

/// Graham's bracket on the makespan of any greedy (work-conserving) list
/// schedule of a graph with total work W and critical path CPL on n >= 1
/// processors:
///   max(CPL, ceil(W/n))  <=  makespan  <=  ceil((W + (n-1)*CPL) / n).
/// `upper` is empty when W + (n-1)*CPL does not fit in 64 bits.
struct MakespanBracket {
  Cycles lower{0};
  std::optional<Cycles> upper;
};
[[nodiscard]] MakespanBracket graham_bracket(Cycles total_work, Cycles cpl,
                                             std::size_t num_procs);

/// Energy of `s` run entirely at `lvl` with all employed processors powered
/// until the deadline (no shutdown) — the S&S/LAMPS accounting.
[[nodiscard]] energy::EnergyBreakdown stretched_energy(const sched::Schedule& s,
                                                       const power::DvsLevel& lvl,
                                                       const Problem& prob);

struct LevelChoice {
  const power::DvsLevel* level{nullptr};
  energy::EnergyBreakdown breakdown{};
  /// Levels actually evaluated by the sweep (< the feasible range when the
  /// active-energy lower bound proves the remaining levels cannot win).
  std::size_t levels_evaluated{0};
};

/// Sweeps every feasible ladder level and returns the one minimizing total
/// energy with per-gap shutdown decisions (the +PS inner loop).  Returns
/// level == nullptr when no level is feasible.
///
/// The sweep builds a GapProfile once and answers each level in O(P log G);
/// it stops early as soon as the exact active-energy lower bound of every
/// remaining level is >= the incumbent total, which cannot change the
/// returned optimum (idle charges only add energy, and a tie never
/// replaces the incumbent).  Results are bit-identical to evaluating
/// energy::evaluate_energy at every feasible level.
[[nodiscard]] LevelChoice best_level_with_ps(const sched::Schedule& s, const Problem& prob);

/// One processor-count configuration fully evaluated: the level/energy
/// choice LAMPS(+PS), S&S(+PS), the GA fitness and the sweep all share.
/// `feasible == false` when the schedule misses its deadline(s) even at
/// the fastest level.
struct ConfigEval {
  bool feasible{false};
  std::size_t level_index{0};
  energy::EnergyBreakdown breakdown{};
  Seconds completion{0.0};
  std::size_t levels_evaluated{0};
};

/// Evaluates a schedule as one candidate configuration: with PS the full
/// best_level_with_ps sweep, without PS the lowest feasible level and the
/// stretched (no-shutdown) energy.
[[nodiscard]] ConfigEval evaluate_schedule_config(const sched::Schedule& s,
                                                  const Problem& prob, bool with_ps);

/// Same evaluation from a GapProfile alone, for candidates whose schedule
/// was never materialized (sched::list_schedule_gaps).  Only valid when the
/// graph has no explicit per-task deadlines — feasibility is then a pure
/// makespan test, and the profile carries the makespan.  Bit-identical to
/// evaluate_schedule_config on the schedule the profile was taken from.
[[nodiscard]] ConfigEval evaluate_profile_config(const energy::GapProfile& prof,
                                                 const Problem& prob, bool with_ps);

}  // namespace lamps::core
