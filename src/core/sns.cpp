#include "core/sns.hpp"

#include "core/priority_keys.hpp"
#include "core/schedule_cache.hpp"
#include "core/stretch.hpp"
#include "graph/analysis.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lamps::core {

namespace {

// Graham-bound probe short-circuits (shared names with core/lamps.cpp —
// the registry aggregates the searches' decisions in one place).
obs::Counter& c_graham_upper = obs::counter("search.graham_shortcircuit_upper");
obs::Counter& c_graham_lower = obs::counter("search.graham_shortcircuit_lower");

StrategyResult stretch_result(const Problem& prob, sched::Schedule schedule,
                              std::size_t num_procs, std::size_t schedules_computed,
                              bool with_ps) {
  StrategyResult r;
  r.num_procs = num_procs;
  r.schedules_computed = schedules_computed;

  const ConfigEval ev = evaluate_schedule_config(schedule, prob, with_ps);
  if (ev.feasible) {
    r.feasible = true;
    r.level_index = ev.level_index;
    r.breakdown = ev.breakdown;
    r.completion = ev.completion;
    r.schedule = std::move(schedule);
  }
  if (prob.telemetry != nullptr) {
    prob.telemetry->strategy = with_ps ? "S&S+PS" : "S&S";
    fill_telemetry_summary(*prob.telemetry, r);
  }
  return r;
}

}  // namespace

/// With width processors every task starts at its ASAP time, so the
/// makespan cannot improve further; binary-search the smallest count that
/// already reaches that makespan.
///
/// Probe short-circuit (pure integer arithmetic, so the branch taken is
/// identical to what the real schedule would decide): the list scheduler
/// is greedy, so Graham's bracket (graham_bracket) holds its makespan;
/// when the lower bound already exceeds ms_min the probe cannot reach it,
/// and when the upper bound is within ms_min it certainly does — either
/// way the schedule need not be computed.
std::size_t max_speedup_procs(ScheduleCache& cache, obs::SearchTelemetry* tel) {
  obs::Span span("sns/speedup_search");
  const graph::TaskGraph& g = cache.graph();
  const std::size_t width = cache.width();
  std::size_t num_procs = width;
  const Cycles total_work = g.total_work();
  const Cycles cpl = graph::critical_path_length(g);
  // With `width` processors every task starts at its ASAP time (the cache's
  // width-clamp induction), so the minimal makespan is the critical path
  // length exactly — no schedule needs to be computed to know the target.
  const Cycles ms_min = cpl;

  const auto record = [&](std::size_t n, const char* action, std::int64_t makespan,
                          bool reaches) {
    if (tel == nullptr) return;
    obs::SearchProbe p;
    p.num_procs = n;
    p.phase = "speedup";
    p.action = action;
    p.makespan = makespan;
    p.feasible = reaches ? 1 : 0;
    tel->probes.push_back(p);
  };
  const auto reaches_ms_min = [&](std::size_t n) {
    const MakespanBracket bracket = graham_bracket(total_work, cpl, n);
    if (bracket.lower > ms_min) {
      c_graham_lower.inc();
      record(n, "graham-lower", -1, false);
      return false;
    }
    if (bracket.upper && *bracket.upper <= ms_min) {
      c_graham_upper.inc();
      record(n, "graham-upper", -1, true);
      return true;
    }
    const Cycles ms = cache.makespan_at(n);
    const bool reaches = ms <= ms_min;
    record(n, "profile-probe", static_cast<std::int64_t>(ms), reaches);
    return reaches;
  };

  std::size_t lo = 1, hi = width;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (reaches_ms_min(mid)) {
      hi = mid;
      num_procs = mid;
    } else {
      lo = mid + 1;
    }
  }
  return num_procs;
}

MaxSpeedupSchedule schedule_max_speedup(const Problem& prob) {
  const auto keys = problem_priority_keys(prob);
  // An attached ProfileStore reuses deadline-invariant probes from earlier
  // same-structure requests; counting stays cold-identical (see
  // schedule_cache.hpp).
  ScheduleCache cache(*prob.graph, keys, prob.profile_store);
  const std::size_t num_procs = max_speedup_procs(cache, prob.telemetry);
  // The Graham-bound short-circuit may have decided the winning probe
  // without scheduling it; materialize the winner (counted, unlike the
  // LAMPS winner).
  const sched::Schedule& winner = cache.at(num_procs);
  if (prob.telemetry != nullptr) {
    obs::SearchProbe p;
    p.num_procs = num_procs;
    p.phase = "speedup";
    p.action = "materialize";
    p.makespan = static_cast<std::int64_t>(winner.makespan());
    p.feasible = 1;
    p.chosen = true;
    prob.telemetry->probes.push_back(p);
  }
  return MaxSpeedupSchedule{num_procs, winner, cache.computed()};
}

StrategyResult schedule_and_stretch(const Problem& prob) {
  MaxSpeedupSchedule ms = schedule_max_speedup(prob);
  return stretch_result(prob, std::move(ms.schedule), ms.num_procs, ms.schedules_computed,
                        /*with_ps=*/false);
}

StrategyResult schedule_and_stretch_ps(const Problem& prob) {
  MaxSpeedupSchedule ms = schedule_max_speedup(prob);
  return stretch_result(prob, std::move(ms.schedule), ms.num_procs, ms.schedules_computed,
                        /*with_ps=*/true);
}

}  // namespace lamps::core
