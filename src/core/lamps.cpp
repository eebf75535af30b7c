#include "core/lamps.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "core/priority_keys.hpp"
#include "core/schedule_cache.hpp"
#include "core/sns.hpp"
#include "core/stretch.hpp"
#include "energy/gap_profile.hpp"
#include "graph/analysis.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/list_scheduler.hpp"

namespace lamps::core {

namespace {

// Graham-bound probe short-circuits (shared names with core/sns.cpp) and
// the probe mix: gap-only probes skip task placements entirely, while
// materialized probes run the full list scheduler.
obs::Counter& c_graham_upper = obs::counter("search.graham_shortcircuit_upper");
obs::Counter& c_graham_lower = obs::counter("search.graham_shortcircuit_lower");
obs::Counter& c_probe_gap_only = obs::counter("search.probe_gap_only");
obs::Counter& c_probe_materialized = obs::counter("search.probe_materialized");
// Phase-2 processor counts skipped because their energy lower bound
// exceeds the incumbent (never scheduled, never looked up).
obs::Counter& c_bound_pruned = obs::counter("search.bound_pruned");

/// Feasibility at the maximum frequency, honoring explicit deadlines too.
bool feasible_at_fmax(const sched::Schedule& s, const Problem& prob) {
  const Hertz f_min = min_feasible_frequency(s, *prob.graph, prob.deadline);
  return f_min.value() <= prob.model->max_frequency().value() * (1.0 + 1e-12);
}

/// LB(N) with the critical path and total work precomputed: see
/// processor_count_energy_bound.
double energy_lower_bound(const Problem& prob, Cycles total_work, Cycles cpl,
                          std::size_t num_procs, bool with_ps) {
  // Graham's floor on any num_procs-processor makespan, and the slowest
  // level that floor allows: the evaluator's level is never slower.
  const power::DvsLevel* lo =
      lowest_level_for_makespan(graham_bracket(total_work, cpl, num_procs).lower, prob);
  if (lo == nullptr) return std::numeric_limits<double>::infinity();
  const double powered_s = prob.deadline.value() * static_cast<double>(num_procs);
  const double p_sleep = prob.model->sleep_power().value();
  // Energy per cycle is not monotone below the critical level, so every
  // reachable level is a candidate.
  double lb = std::numeric_limits<double>::infinity();
  for (std::size_t l = lo->index; l < prob.ladder->size(); ++l) {
    const power::DvsLevel& lvl = prob.ladder->level(l);
    const double busy_s = cycles_to_time(total_work, lvl.f).value();
    const double idle_w =
        with_ps ? std::min(p_sleep, lvl.idle.value()) : lvl.idle.value();
    lb = std::min(lb, lvl.active.total().value() * busy_s +
                          std::max(0.0, powered_s - busy_s) * idle_w);
  }
  return lb;
}

StrategyResult lamps_impl(const Problem& prob, bool with_ps) {
  obs::Span strategy_span(with_ps ? "lamps+ps" : "lamps");
  obs::SearchTelemetry* tel = prob.telemetry;
  if (tel != nullptr) tel->strategy = with_ps ? "LAMPS+PS" : "LAMPS";
  const graph::TaskGraph& g = *prob.graph;
  StrategyResult best;
  if (g.num_tasks() == 0) {
    if (tel != nullptr) fill_telemetry_summary(*tel, best);
    return best;
  }

  const auto keys = problem_priority_keys(prob);
  const Cycles deadline_cycles = prob.deadline_cycles_at_fmax();
  // An attached ProfileStore (serve's ScheduleBank lease) supplies
  // deadline-invariant schedules/profiles from earlier requests on the
  // same graph structure; results and even schedules_computed stay
  // bit-identical to a from-scratch run (see schedule_cache.hpp).
  ScheduleCache cache(g, keys, prob.profile_store);

  // ---- Phase 1: binary search for the minimal feasible processor count
  // on [N_lwb = ceil(W / D), N_upb = |V|].  The probe sequence is the
  // historical one; the cache clamps probes above the ASAP width to the
  // width-processor schedule, which has identical placements (see
  // schedule_cache.hpp), and memoizes every probe for phase 2.
  const std::size_t n_upb = g.num_tasks();
  std::size_t n_lwb = deadline_cycles == 0
                          ? n_upb
                          : static_cast<std::size_t>(
                                (g.total_work() + deadline_cycles - 1) / deadline_cycles);
  n_lwb = std::clamp<std::size_t>(n_lwb, 1, n_upb);

  // Probe short-circuit: for a single global deadline the feasibility
  // predicate is `required_frequency(makespan, D) <= f_max * (1 + 1e-12)`,
  // which is monotone non-increasing in the (integer) makespan.  The
  // list scheduler is greedy/work-conserving, so Graham's bracket
  // (graham_bracket) applies.  Evaluating the *original* predicate at its
  // integer bounds therefore decides most probes without scheduling at
  // all, with a boolean that is identical to what the real schedule would
  // produce; only probes whose deadline falls between the two bounds
  // compute a schedule.
  const bool bounds_ok = !g.has_explicit_deadlines() && prob.deadline.value() > 0.0;
  const Cycles total_work = g.total_work();
  const Cycles cpl = bounds_ok ? graph::critical_path_length(g) : 0;
  const double f_cap = prob.model->max_frequency().value() * (1.0 + 1e-12);
  const auto feasible_ms = [&](Cycles ms) {
    return required_frequency(ms, prob.deadline).value() <= f_cap;
  };
  const auto record_p1 = [&](std::size_t n, const char* action, std::int64_t makespan,
                             bool verdict) {
    if (tel == nullptr) return;
    obs::SearchProbe p;
    p.num_procs = n;
    p.phase = "phase1";
    p.action = action;
    p.makespan = makespan;
    p.feasible = verdict ? 1 : 0;
    tel->probes.push_back(p);
  };
  const auto feasible_with = [&](std::size_t n) {
    if (bounds_ok) {
      const MakespanBracket bracket = graham_bracket(total_work, cpl, n);
      if (bracket.upper && feasible_ms(*bracket.upper)) {
        c_graham_upper.inc();
        record_p1(n, "graham-upper", -1, true);
        return true;
      }
      if (!feasible_ms(bracket.lower)) {
        c_graham_lower.inc();
        record_p1(n, "graham-lower", -1, false);
        return false;
      }
      // Bounds inconclusive: the verdict needs the real makespan, but not
      // the placements — the gap-profile probe memoizes the idle structure
      // for phase 2 to reuse.
      c_probe_gap_only.inc();
      const Cycles ms = cache.profile_at(n).makespan();
      const bool ok = feasible_ms(ms);
      record_p1(n, "profile-probe", static_cast<std::int64_t>(ms), ok);
      return ok;
    }
    c_probe_materialized.inc();
    const sched::Schedule& s = cache.at(n);
    const bool ok = feasible_at_fmax(s, prob);
    record_p1(n, "schedule-probe", static_cast<std::int64_t>(s.makespan()), ok);
    return ok;
  };

  std::size_t n_min = n_lwb;
  {
    obs::Span phase1_span("lamps/phase1");
    if (!feasible_with(n_upb)) {
      best.schedules_computed = cache.computed();
      if (tel != nullptr) fill_telemetry_summary(*tel, best);
      return best;  // not schedulable before the deadline at all
    }
    std::size_t lo = n_lwb, hi = n_upb;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (feasible_with(mid))
        hi = mid;
      else
        lo = mid + 1;
    }
    n_min = lo;
  }

  // ---- Phase 2: search over [N_min, N_max], where N_max is the processor
  // count beyond which the makespan cannot improve (the count S&S
  // employs).  The energy curve has local minima (paper Fig 6: "a full
  // search must be performed"), so no count may be skipped on a shape
  // argument; a count is skipped only when its energy lower bound proves
  // it cannot be the argmin (the bound prune below).
  const std::size_t n_max = std::max(n_min, max_speedup_procs(cache, tel));

  // Candidates are evaluated from idle-gap profiles wherever possible: the
  // energy and feasibility of a configuration depend on the schedule only
  // through its idle structure and makespan (when deadlines are global),
  // and all but one candidate's placements are discarded anyway.  Every
  // artifact comes through the cache: a schedule this search holds, else a
  // profile it holds or finds in the store, else a gap-only scheduler run.
  // Only the winning count's schedule is materialized, afterwards.  Per-task
  // explicit deadlines need real finish times, so that path schedules fully.
  const bool profile_ok = !g.has_explicit_deadlines();
  const std::size_t count = n_max - n_min + 1;
  std::vector<ConfigEval> evals(count);
  // Per-count probe records, appended to the telemetry sink in ascending-N
  // order afterwards (N_max is evaluated first).
  std::vector<obs::SearchProbe> p2_probes(tel != nullptr ? count : 0);

  const auto evaluate = [&](std::size_t i) {
    const std::size_t n = n_min + i;
    const char* action = nullptr;
    Cycles makespan = 0;
    if (const auto held = cache.schedule_ptr(n)) {
      action = "cached-schedule-eval";
      evals[i] = evaluate_schedule_config(*held, prob, with_ps);
      makespan = held->makespan();
    } else if (!profile_ok) {
      action = "schedule-eval";
      c_probe_materialized.inc();
      const sched::Schedule& s = cache.at(n);
      evals[i] = evaluate_schedule_config(s, prob, with_ps);
      makespan = s.makespan();
    } else {
      const auto found = cache.profile_lookup(n);
      action = found ? "cached-profile-eval" : "profile-eval";
      if (!found) c_probe_gap_only.inc();
      const energy::GapProfile& prof = found ? *found : cache.profile_at(n);
      evals[i] = evaluate_profile_config(prof, prob, with_ps);
      makespan = prof.makespan();
    }
    if (tel != nullptr) {
      obs::SearchProbe& p = p2_probes[i];
      p.num_procs = n;
      p.phase = "phase2";
      p.action = action;
      p.makespan = static_cast<std::int64_t>(makespan);
      p.feasible = evals[i].feasible ? 1 : 0;
      if (evals[i].feasible) {
        p.level_index = static_cast<std::int64_t>(evals[i].level_index);
        p.energy_j = evals[i].breakdown.total().value();
      }
    }
  };

  {
    obs::Span phase2_span("lamps/phase2");
    // Bound prune.  At N_max the makespan has bottomed out at the critical
    // path, so N_max runs at the slowest level any count can reach; it is
    // evaluated first as the incumbent E*.  Every other N whose lower
    // bound exceeds E* by more than a 1e-9 relative margin has energy
    // strictly above E*, so it can be neither the minimum nor its
    // smallest-N tie and is never scheduled.  The bound and the evaluator
    // sum in different orders; the margin keeps rounding from pruning the
    // true argmin.  Both sides depend only on the problem, never on an
    // attached store, so schedules_computed stays bit-identical.
    const std::size_t last = count - 1;
    evaluate(last);
    const double cutoff = evals[last].feasible
                              ? evals[last].breakdown.total().value() * (1.0 + 1e-9)
                              : std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < last; ++i) {
      if (bounds_ok) {
        // Past the ASAP width every count schedules like the width one
        // (schedule_cache.hpp), so charging at most width processors keeps
        // the bound below whichever artifact the count would evaluate.
        const double lb = energy_lower_bound(prob, total_work, cpl,
                                             std::min(n_min + i, cache.width()), with_ps);
        if (lb > cutoff) {
          c_bound_pruned.inc();
          if (tel != nullptr) {
            obs::SearchProbe& p = p2_probes[i];
            p.num_procs = n_min + i;
            p.phase = "phase2";
            p.action = "bound-pruned";
            p.energy_j = lb;
          }
          continue;
        }
      }
      evaluate(i);
    }
  }

  std::size_t best_i = count;  // sentinel: none feasible yet
  for (std::size_t i = 0; i < count; ++i) {
    if (!evals[i].feasible) continue;  // infeasible (EDF anomaly) or pruned
    if (best_i == count ||
        evals[i].breakdown.total() < evals[best_i].breakdown.total())
      best_i = i;
  }
  if (best_i != count) {
    best.feasible = true;
    best.num_procs = n_min + best_i;
    best.level_index = evals[best_i].level_index;
    best.breakdown = evals[best_i].breakdown;
    best.completion = evals[best_i].completion;
    if (tel != nullptr) p2_probes[best_i].chosen = true;
    auto winner = cache.schedule_ptr(best.num_procs);
    if (!winner) {
      // Winner materialization, free under the acquisition rule: the
      // store's schedule when it has one, else one more scheduler run.
      obs::Span mat_span("lamps/materialize");
      c_probe_materialized.inc();
      winner = cache.materialize(best.num_procs);
    }
    best.schedule = *winner;
  }
  best.schedules_computed = cache.computed();
  if (tel != nullptr) {
    tel->probes.insert(tel->probes.end(), p2_probes.begin(), p2_probes.end());
    fill_telemetry_summary(*tel, best);
  }
  return best;
}

}  // namespace

StrategyResult lamps_schedule(const Problem& prob) { return lamps_impl(prob, false); }

StrategyResult lamps_schedule_ps(const Problem& prob) { return lamps_impl(prob, true); }

Joules processor_count_energy_bound(const Problem& prob, std::size_t num_procs,
                                    bool with_ps) {
  const graph::TaskGraph& g = *prob.graph;
  if (g.num_tasks() == 0 || num_procs == 0) return Joules{0.0};
  return Joules{energy_lower_bound(prob, g.total_work(), graph::critical_path_length(g),
                                   num_procs, with_ps)};
}

std::vector<SweepPoint> processor_sweep(const Problem& prob, std::size_t max_procs,
                                        bool with_ps) {
  obs::Span span("lamps/processor_sweep");
  const graph::TaskGraph& g = *prob.graph;
  const auto keys = problem_priority_keys(prob);
  std::vector<SweepPoint> out(max_procs);
  for (std::size_t n = 1; n <= max_procs; ++n) {
    const sched::Schedule s = sched::list_schedule(g, n, keys, tls_workspace());
    SweepPoint& pt = out[n - 1];
    pt.num_procs = n;
    pt.makespan = s.makespan();
    const ConfigEval ev = evaluate_schedule_config(s, prob, with_ps);
    if (ev.feasible) {
      pt.feasible = true;
      pt.level_index = ev.level_index;
      pt.energy = ev.breakdown.total();
    }
  }
  return out;
}

}  // namespace lamps::core
