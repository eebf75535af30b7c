// Schedule & Stretch (paper section 4.1) and S&S+PS (section 4.3).
//
// S&S employs as many processors as keep reducing the LS-EDF makespan, then
// stretches the whole schedule to the deadline with the lowest feasible
// discrete DVS level.  S&S+PS additionally sweeps the frequency from the
// maximum down to the minimum feasible level and shuts down idle gaps that
// exceed the breakeven length, returning the best balance of DVS and PS.
#pragma once

#include "core/problem.hpp"

namespace lamps::core {

class ScheduleCache;

/// Determines S&S's processor count: the smallest count achieving the
/// minimal list-schedule makespan ("as many processors as possible to
/// reduce the makespan", paper section 4.1).  With N >= the graph's ASAP
/// concurrency every task starts at its earliest possible time, so that
/// width pins the minimal makespan; a binary search then finds the smallest
/// count that reaches it.  Returns the chosen count and its schedule;
/// `schedules_computed` counts the artifacts the search acquired (the rule
/// in core/schedule_cache.hpp), the winner's schedule included.
struct MaxSpeedupSchedule {
  std::size_t num_procs{1};
  sched::Schedule schedule;
  std::size_t schedules_computed{0};
};
[[nodiscard]] MaxSpeedupSchedule schedule_max_speedup(const Problem& prob);

/// Same search through a shared ScheduleCache, returning only the chosen
/// processor count (LAMPS needs nothing else — its phase 2 re-reads the
/// cached probe schedules directly).  When `telemetry` is non-null every
/// probe is recorded (phase "speedup").
[[nodiscard]] std::size_t max_speedup_procs(ScheduleCache& cache,
                                            obs::SearchTelemetry* telemetry = nullptr);

/// Schedule & Stretch.  Infeasible results carry feasible = false and no
/// schedule.
[[nodiscard]] StrategyResult schedule_and_stretch(const Problem& prob);

/// S&S extended with processor shutdown.
[[nodiscard]] StrategyResult schedule_and_stretch_ps(const Problem& prob);

}  // namespace lamps::core
