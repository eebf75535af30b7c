#include "core/stretch.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "energy/gap_profile.hpp"
#include "obs/metrics.hpp"

namespace lamps::core {

namespace {

// +PS level-sweep effort (docs/observability.md).
obs::Counter& c_levels_evaluated = obs::counter("energy.levels_evaluated");
obs::Counter& c_level_early_exit = obs::counter("energy.level_sweep_early_exit");

}  // namespace

Hertz min_feasible_frequency(const sched::Schedule& s, const graph::TaskGraph& g,
                             Seconds global_deadline) {
  double f_min = 0.0;
  if (!g.has_explicit_deadlines()) {
    // Single deadline: the binding constraint is the makespan.
    return required_frequency(s.makespan(), global_deadline);
  }
  for (graph::TaskId v = 0; v < g.num_tasks(); ++v) {
    const Cycles finish = s.placement(v).finish;
    Seconds dl = global_deadline;
    if (const auto own = g.explicit_deadline(v)) dl = std::min(dl, *own);
    f_min = std::max(f_min, required_frequency(finish, dl).value());
  }
  return Hertz{f_min};
}

const power::DvsLevel* lowest_feasible_level(const sched::Schedule& s, const Problem& prob) {
  const Hertz f_min = min_feasible_frequency(s, *prob.graph, prob.deadline);
  if (f_min.value() <= 0.0) return &prob.ladder->level(0);
  // Guard against FP noise putting f_min epsilon above an exactly-feasible
  // level.
  return prob.ladder->lowest_level_at_least(Hertz{f_min.value() * (1.0 - 1e-12)});
}

energy::EnergyBreakdown stretched_energy(const sched::Schedule& s, const power::DvsLevel& lvl,
                                         const Problem& prob) {
  const power::SleepModel sleep = prob.sleep();
  return energy::evaluate_energy(s, lvl, prob.deadline, sleep, energy::PsOptions{});
}

const power::DvsLevel* lowest_level_for_makespan(Cycles makespan, const Problem& prob) {
  const Hertz f_min = required_frequency(makespan, prob.deadline);
  if (f_min.value() <= 0.0) return &prob.ladder->level(0);
  return prob.ladder->lowest_level_at_least(Hertz{f_min.value() * (1.0 - 1e-12)});
}

MakespanBracket graham_bracket(Cycles total_work, Cycles cpl, std::size_t num_procs) {
  constexpr Cycles kMax = std::numeric_limits<Cycles>::max();
  const auto n = static_cast<Cycles>(num_procs);
  // s / n + (s % n != 0) rather than (s + n - 1) / n, which wraps for s
  // within n of 2^64.
  const auto ceil_div = [n](Cycles s) { return s / n + (s % n != 0 ? 1 : 0); };
  MakespanBracket b{std::max(cpl, ceil_div(total_work)), std::nullopt};
  if (n == 1 || cpl <= (kMax - total_work) / (n - 1))
    b.upper = ceil_div(total_work + (n - 1) * cpl);
  return b;
}

namespace {

/// Active-only energy of the profiled schedule at `lvl`, composed through
/// the very same per-processor charge_active sequence
/// GapProfile::evaluate starts with.  Every idle charge the evaluator adds
/// afterwards is a non-negative product, and FP addition of non-negative
/// terms never decreases an accumulator, so this total is a certain lower
/// bound on the evaluated total — bitwise, not just mathematically (see
/// docs/performance.md).
double active_lower_bound(const energy::GapProfile& prof, const power::DvsLevel& lvl) {
  energy::EnergyBreakdown lb{};
  for (std::size_t p = 0; p < prof.num_procs(); ++p)
    energy::detail::charge_active(lb, lvl, cycles_to_time(prof.busy_cycles(p), lvl.f));
  return lb.total().value();
}

/// The +PS level sweep over [lo, fastest], shared by best_level_with_ps
/// and evaluate_schedule_config.  Strictly-less comparison keeps the
/// slowest level on ties, matching the historical scan order.
///
/// Early exit (the "past the critical frequency" guard): once the minimum
/// active-energy lower bound over all remaining levels is >= the incumbent
/// total, no remaining level can be *strictly* cheaper, so none can
/// replace the incumbent and the scan may stop.  Above the critical
/// frequency energy-per-cycle grows with f, which is what makes the
/// suffix minimum climb past the incumbent in practice.
LevelChoice sweep_levels_ps(const energy::GapProfile& prof, const power::DvsLevel& lo,
                            const Problem& prob) {
  LevelChoice best;
  const power::SleepModel sleep = prob.sleep();
  const energy::PsOptions ps{true, prob.ps_allow_leading_gaps};
  const std::size_t size = prob.ladder->size();

  // suffix_lb[i - lo.index] = min over j in [i, size) of the active-energy
  // lower bound at level j.  Not assumed monotone in f — the suffix min
  // makes the guard valid wherever the critical level sits.
  std::vector<double> suffix_lb(size - lo.index);
  for (std::size_t i = size; i-- > lo.index;) {
    const double lb = active_lower_bound(prof, prob.ladder->level(i));
    const std::size_t k = i - lo.index;
    suffix_lb[k] = k + 1 < suffix_lb.size() ? std::min(lb, suffix_lb[k + 1]) : lb;
  }

  for (std::size_t i = lo.index; i < size; ++i) {
    if (best.level != nullptr && suffix_lb[i - lo.index] >= best.breakdown.total().value()) {
      c_level_early_exit.inc();
      break;
    }
    const power::DvsLevel& lvl = prob.ladder->level(i);
    const energy::EnergyBreakdown e = prof.evaluate(lvl, prob.deadline, sleep, ps);
    ++best.levels_evaluated;
    c_levels_evaluated.inc();
    if (best.level == nullptr || e.total() < best.breakdown.total()) {
      best.level = &lvl;
      best.breakdown = e;
    }
  }
  return best;
}

}  // namespace

LevelChoice best_level_with_ps(const sched::Schedule& s, const Problem& prob) {
  LevelChoice best;
  const power::DvsLevel* lo = lowest_feasible_level(s, prob);
  if (lo == nullptr) return best;
  const energy::GapProfile prof(s);
  return sweep_levels_ps(prof, *lo, prob);
}

ConfigEval evaluate_schedule_config(const sched::Schedule& s, const Problem& prob,
                                    bool with_ps) {
  ConfigEval out;
  if (with_ps) {
    const LevelChoice choice = best_level_with_ps(s, prob);
    if (choice.level == nullptr) return out;
    out.feasible = true;
    out.level_index = choice.level->index;
    out.breakdown = choice.breakdown;
    out.completion = cycles_to_time(s.makespan(), choice.level->f);
    out.levels_evaluated = choice.levels_evaluated;
  } else {
    const power::DvsLevel* lvl = lowest_feasible_level(s, prob);
    if (lvl == nullptr) return out;
    out.feasible = true;
    out.level_index = lvl->index;
    out.breakdown = stretched_energy(s, *lvl, prob);
    out.completion = cycles_to_time(s.makespan(), lvl->f);
    out.levels_evaluated = 1;
  }
  return out;
}

ConfigEval evaluate_profile_config(const energy::GapProfile& prof, const Problem& prob,
                                   bool with_ps) {
  ConfigEval out;
  const power::DvsLevel* lo = lowest_level_for_makespan(prof.makespan(), prob);
  if (lo == nullptr) return out;
  if (with_ps) {
    const LevelChoice choice = sweep_levels_ps(prof, *lo, prob);
    if (choice.level == nullptr) return out;
    out.feasible = true;
    out.level_index = choice.level->index;
    out.breakdown = choice.breakdown;
    out.completion = cycles_to_time(prof.makespan(), choice.level->f);
    out.levels_evaluated = choice.levels_evaluated;
  } else {
    out.feasible = true;
    out.level_index = lo->index;
    // GapProfile::evaluate with default PsOptions is bit-identical to the
    // naive stretched_energy walk (see gap_profile.hpp).
    out.breakdown = prof.evaluate(*lo, prob.deadline, prob.sleep(), energy::PsOptions{});
    out.completion = cycles_to_time(prof.makespan(), lo->f);
    out.levels_evaluated = 1;
  }
  return out;
}

}  // namespace lamps::core
