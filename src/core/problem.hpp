// Shared problem/result types for the scheduling strategies (paper
// section 4).
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

#include "energy/evaluator.hpp"
#include "graph/task_graph.hpp"
#include "obs/telemetry.hpp"
#include "power/dvs_ladder.hpp"
#include "power/power_model.hpp"
#include "power/sleep_model.hpp"
#include "sched/priorities.hpp"
#include "sched/schedule.hpp"
#include "util/errors.hpp"

namespace lamps::core {

struct ProfileStore;

/// `deadline` in cycles at frequency `f_max`.  Throws InputError(kConfig)
/// for a negative deadline and past 2^63 - 1 cycles (about 94 years at
/// 3.1 GHz): the EDF keys (sched::DeadlineCycles) are signed 64-bit, and
/// the cast itself is undefined below 0 and past 2^64.
[[nodiscard]] inline Cycles deadline_cycles(Seconds deadline, Hertz f_max) {
  const double cycles = deadline.value() * f_max.value() * (1.0 + 1e-12);
  if (!(cycles >= 0.0 && cycles < 0x1p63))  // also rejects NaN
    throw InputError(ErrorCode::kConfig, "deadline must lie in [0, 2^63) cycles at f_max");
  return static_cast<Cycles>(cycles);
}

/// One scheduling problem instance.  The referenced graph/model/ladder must
/// outlive the Problem (strategies are pure functions over it).
struct Problem {
  const graph::TaskGraph* graph{nullptr};
  /// Global deadline (wall clock, applies to every task).
  Seconds deadline{0.0};
  const power::PowerModel* model{nullptr};
  const power::DvsLadder* ladder{nullptr};

  /// List-scheduling priority policy (paper: EDF; others for ablation).
  sched::PriorityPolicy policy{sched::PriorityPolicy::kEdf};
  /// Whether PS may remove leading idle gaps (see DESIGN.md section 7).
  bool ps_allow_leading_gaps{true};
  /// Seed for the kRandom priority policy.
  std::uint64_t priority_seed{0};

  /// Optional search-telemetry sink.  When non-null, the configuration
  /// searches (LAMPS, LAMPS+PS, S&S, S&S+PS) record every probed
  /// processor count and the chosen configuration into it.  Observation
  /// only: results are bit-identical with or without a sink.  Not owned;
  /// must outlive the strategy call.
  obs::SearchTelemetry* telemetry{nullptr};

  /// Optional cross-request store of deadline-invariant schedules and
  /// idle-gap profiles (core/incremental.hpp), normally a ScheduleBank
  /// lease held by the serving path.  Results — including
  /// schedules_computed — are bit-identical with or without one.  Only
  /// attach for graphs without explicit per-task deadlines (their EDF
  /// ranking depends on the global deadline).  Externally synchronized;
  /// not owned; must outlive the strategy call.
  ProfileStore* profile_store{nullptr};

  [[nodiscard]] power::SleepModel sleep() const { return power::SleepModel(*model); }

  /// Deadline expressed in cycles at the maximum frequency: a schedule is
  /// feasible at f_max iff its makespan (cycles) fits below this.
  [[nodiscard]] Cycles deadline_cycles_at_fmax() const {
    return deadline_cycles(deadline, model->max_frequency());
  }
};

/// Identifies the six approaches of the paper's evaluation.
enum class StrategyKind {
  kSns,      ///< Schedule & Stretch (baseline)
  kLamps,    ///< Leakage-Aware MultiProcessor Scheduling
  kSnsPs,    ///< S&S + processor shutdown
  kLampsPs,  ///< LAMPS + processor shutdown
  kLimitSf,  ///< single-frequency lower bound
  kLimitMf,  ///< multiple-frequency lower bound
};

[[nodiscard]] std::string_view to_string(StrategyKind k);

/// Outcome of running one strategy on one Problem.
struct StrategyResult {
  bool feasible{false};
  /// Number of processors employed (0 for the LIMIT bounds: "N/A").
  std::size_t num_procs{0};
  /// Index into the DVS ladder of the chosen operating point.
  std::size_t level_index{0};
  energy::EnergyBreakdown breakdown{};
  /// Winning schedule (absent for the LIMIT bounds and infeasible results).
  std::optional<sched::Schedule> schedule;
  /// Wall-clock completion time of the last task at the chosen level.
  Seconds completion{0.0};
  /// Scheduling work the search required (cost diagnostics, paper section
  /// 4.2's T_LAMPS discussion).  For the configuration searches, the
  /// schedules and gap profiles acquired, by the rule in
  /// core/schedule_cache.hpp.
  std::size_t schedules_computed{0};

  [[nodiscard]] Joules energy() const { return breakdown.total(); }
};

/// Copies a strategy outcome into a telemetry record's summary fields
/// (the per-probe entries are appended by the searches as they run).
inline void fill_telemetry_summary(obs::SearchTelemetry& tel, const StrategyResult& r) {
  tel.feasible = r.feasible;
  tel.chosen_procs = r.num_procs;
  tel.chosen_level = r.level_index;
  tel.energy_total_j = r.breakdown.total().value();
  tel.energy_dynamic_j = r.breakdown.dynamic.value();
  tel.energy_leakage_j = r.breakdown.leakage.value();
  tel.energy_intrinsic_j = r.breakdown.intrinsic.value();
  tel.energy_sleep_j = r.breakdown.sleep.value();
  tel.energy_wakeup_j = r.breakdown.wakeup.value();
  tel.shutdowns = r.breakdown.shutdowns;
  tel.schedules_computed = r.schedules_computed;
}

}  // namespace lamps::core
