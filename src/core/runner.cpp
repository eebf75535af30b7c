#include "core/runner.hpp"

#include <chrono>
#include <map>
#include <stdexcept>
#include <thread>

#include "graph/analysis.hpp"
#include "obs/metrics.hpp"
#include "sched/schedule.hpp"
#include "util/cancel.hpp"
#include "util/stopwatch.hpp"
#include "util/summary.hpp"
#include "util/thread_pool.hpp"

namespace lamps::core {

namespace {

// Cell dispositions and retry volume (docs/observability.md).
obs::Counter& c_cells_ok = obs::counter("sweep.cells_ok");
obs::Counter& c_cells_failed = obs::counter("sweep.cells_failed");
obs::Counter& c_cells_timeout = obs::counter("sweep.cells_timeout");
obs::Counter& c_cells_skipped = obs::counter("sweep.cells_skipped");
obs::Counter& c_retries = obs::counter("sweep.retries");
obs::Counter& c_validations = obs::counter("sweep.validations");

void count_outcome(CellOutcome o) {
  switch (o) {
    case CellOutcome::kOk:
      c_cells_ok.inc();
      return;
    case CellOutcome::kFailed:
      c_cells_failed.inc();
      return;
    case CellOutcome::kTimeout:
      c_cells_timeout.inc();
      return;
    case CellOutcome::kSkipped:
      c_cells_skipped.inc();
      return;
  }
}

std::string cell_context(const InstanceResult& r) {
  std::string ctx = r.graph_name;
  ctx += " / ";
  ctx += to_string(r.strategy);
  ctx += " / d=";
  ctx += std::to_string(r.deadline_factor);
  return ctx;
}

}  // namespace

std::string_view to_string(CellOutcome o) {
  switch (o) {
    case CellOutcome::kOk:
      return "OK";
    case CellOutcome::kFailed:
      return "FAIL";
    case CellOutcome::kTimeout:
      return "TIMEOUT";
    case CellOutcome::kSkipped:
      return "SKIPPED";
  }
  return "FAIL";
}

CellOutcome cell_outcome_from_string(std::string_view name) {
  for (const CellOutcome o : {CellOutcome::kOk, CellOutcome::kFailed, CellOutcome::kTimeout,
                              CellOutcome::kSkipped})
    if (name == to_string(o)) return o;
  return CellOutcome::kFailed;
}

std::vector<InstanceResult> run_sweep(const std::vector<SuiteEntry>& entries,
                                      const power::PowerModel& model,
                                      const power::DvsLadder& ladder,
                                      const SweepConfig& config) {
  struct Job {
    const SuiteEntry* entry;
    double factor;
    StrategyKind strategy;
    Cycles cpl;
    double parallelism;
  };
  std::vector<Job> jobs;
  for (const SuiteEntry& e : entries) {
    const Cycles cpl = graph::critical_path_length(e.graph);
    const double par = graph::average_parallelism(e.graph);
    for (const double factor : config.deadline_factors)
      for (const StrategyKind s : config.strategies)
        jobs.push_back(Job{&e, factor, s, cpl, par});
  }

  std::vector<InstanceResult> results(jobs.size());
  ThreadPool pool(config.threads);
  parallel_for_index(pool, jobs.size(), [&](std::size_t i) {
    const Job& job = jobs[i];
    InstanceResult& out = results[i];
    out.group = job.entry->group;
    out.graph_name = job.entry->graph.name();
    out.deadline_factor = job.factor;
    out.strategy = job.strategy;
    out.parallelism = job.parallelism;
    out.total_work = job.entry->graph.total_work();

    if (config.skip_cell && config.skip_cell(out)) {
      out.outcome = CellOutcome::kSkipped;
      count_outcome(out.outcome);
      return;
    }

    Problem prob;
    prob.graph = &job.entry->graph;
    prob.model = &model;
    prob.ladder = &ladder;
    prob.policy = config.policy;
    prob.deadline =
        Seconds{static_cast<double>(job.cpl) / model.max_frequency().value() * job.factor};

    // Attempt loop: one mandatory attempt plus up to max_retries extra ones
    // for *retryable* failures, with doubling backoff.  Each attempt runs
    // under a fresh watchdog token installed for this thread.
    for (std::size_t attempt = 0;; ++attempt) {
      try {
        if (config.fault_injector) config.fault_injector(out, attempt);
        CancelToken token(config.cell_timeout_seconds);
        CancelScope scope(&token);
        const Stopwatch watch;
        const StrategyResult r = run_strategy(job.strategy, prob);
        out.seconds = watch.elapsed_seconds();
        if (config.validate && r.schedule.has_value()) {
          c_validations.inc();
          const std::string violation =
              sched::validate_schedule(*r.schedule, job.entry->graph);
          if (!violation.empty())
            throw ValidationError(ErrorCode::kScheduleInvalid, violation, cell_context(out),
                                  "the strategy produced an inconsistent schedule; "
                                  "report this instance");
        }
        out.feasible = r.feasible;
        out.energy = r.energy();
        out.num_procs = r.num_procs;
        out.level_index = r.level_index;
        out.schedules_computed = r.schedules_computed;
        out.outcome = CellOutcome::kOk;
        out.error = ErrorCode::kNone;
        out.error_message.clear();
        break;
      } catch (const Error& e) {
        out.outcome =
            e.code() == ErrorCode::kCellTimeout || e.code() == ErrorCode::kCancelled
                ? CellOutcome::kTimeout
                : CellOutcome::kFailed;
        out.error = e.code();
        out.error_message = e.message();
        if (e.retryable() && attempt < config.max_retries) {
          out.retries = static_cast<std::uint32_t>(attempt + 1);
          c_retries.inc();
          const double backoff =
              config.retry_backoff_seconds * static_cast<double>(std::size_t{1} << attempt);
          if (backoff > 0.0)
            std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
          continue;
        }
        break;
      } catch (const std::exception& e) {
        out.outcome = CellOutcome::kFailed;
        out.error = ErrorCode::kInternal;
        out.error_message = e.what();
        break;
      }
    }
    if (out.outcome != CellOutcome::kOk) {
      // Zero the result payload so a failed cell can never be mistaken for
      // a data point.
      out.feasible = false;
      out.energy = Joules{0.0};
      out.num_procs = 0;
      out.level_index = 0;
      out.schedules_computed = 0;
      out.seconds = 0.0;
    }
    count_outcome(out.outcome);
    if (config.on_cell_done) config.on_cell_done(out);
  });
  return results;
}

std::vector<GroupRelative> aggregate_relative(const std::vector<InstanceResult>& results,
                                              StrategyKind baseline) {
  // Baseline energy per (graph, deadline factor).
  std::map<std::pair<std::string, double>, double> base;
  for (const InstanceResult& r : results)
    if (r.strategy == baseline && r.feasible && r.energy.value() > 0.0)
      base[{r.graph_name, r.deadline_factor}] = r.energy.value();

  struct Acc {
    std::vector<double> samples;
    std::size_t skipped{0};
  };
  std::map<std::tuple<std::string, double, StrategyKind>, Acc> acc;
  for (const InstanceResult& r : results) {
    Acc& a = acc[{r.group, r.deadline_factor, r.strategy}];
    const auto it = base.find({r.graph_name, r.deadline_factor});
    if (!r.feasible || it == base.end()) {
      ++a.skipped;
      continue;
    }
    a.samples.push_back(r.energy.value() / it->second);
  }

  std::vector<GroupRelative> out;
  out.reserve(acc.size());
  for (const auto& [key, a] : acc) {
    GroupRelative g;
    g.group = std::get<0>(key);
    g.deadline_factor = std::get<1>(key);
    g.strategy = std::get<2>(key);
    const Summary s = summarize(a.samples);
    g.mean_relative_energy = s.mean;
    g.stddev_relative_energy = s.stddev;
    g.min_relative_energy = s.min;
    g.max_relative_energy = s.max;
    g.num_graphs = s.n;
    g.num_skipped = a.skipped;
    out.push_back(std::move(g));
  }
  return out;
}

}  // namespace lamps::core
