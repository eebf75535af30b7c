// Memoized list scheduling for the configuration searches.
//
// LAMPS phase 1, schedule_max_speedup and LAMPS phase 2 all invoke the
// list scheduler on the same (graph, priority keys) with overlapping
// processor counts.  Every scheduler run of a search goes through the
// cache, which computes each count once, on the calling thread's workspace
// (tls_workspace), and clamps counts at the graph's ASAP concurrency width:
//
//   With num_procs >= width, the dispatch loop never runs out of free
//   processors (at most width tasks are ever simultaneously runnable, and
//   at the instant a task is dispatched fewer than width others are
//   running), so every task starts at its ASAP time and the
//   smallest-free-id rule assigns it a processor id < width.  By induction
//   the placements are therefore *identical* for every num_procs >= width
//   — probing N = 2|V| and N = width produce the same makespan and finish
//   times, so feasibility verdicts are unchanged by the clamp.
//
// Callers that need per-processor-count *energy* (which does depend on the
// employed processor count, since every employed processor is powered over
// the horizon) only ever evaluate counts <= width, where the clamp is the
// identity.
//
// One store per search: every schedule and idle-gap profile the search
// touches lives in one ProfileStore (core/incremental.hpp) — serve's
// ScheduleBank lease, which carries deadline-invariant artifacts across
// requests on the same graph structure, or else a private store the cache
// owns.  The only per-search state is one "acquired" flag byte per clamped
// processor count, and it defines StrategyResult.schedules_computed:
//
//   an artifact (the schedule or the profile of one count) counts the
//   first time this search acquires it, whether from the store or from a
//   fresh scheduler run; a profile derived from a schedule this search
//   already holds, and the LAMPS winner's materialization, are free.
//
// The flags evolve the same way whatever the store holds, so a warm store
// can only stand in for a run the cold search performs at that very point,
// one for one: the count is the scheduling work the search required, and
// it is bit-identical with and without the bank (the serve byte-exactness
// gate depends on that).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/incremental.hpp"
#include "energy/gap_profile.hpp"
#include "graph/task_graph.hpp"
#include "sched/list_scheduler.hpp"

namespace lamps::core {

/// The calling thread's scheduling workspace, shared by every
/// configuration search that runs on it (the ScheduleCache and
/// processor_sweep).  Persisting it across calls means
/// the priority ranking is re-sorted only when the keys actually change,
/// and the scratch buffers stop being reallocated per call.
[[nodiscard]] sched::ListScheduleWorkspace& tls_workspace();

class ScheduleCache {
 public:
  /// The clamp point is the graph's ASAP concurrency width, clamped to
  /// [1, |V|].  `keys` must outlive the cache.  An external `store`
  /// (externally synchronized, e.g. a ScheduleBank lease) supplies and
  /// receives deadline-invariant schedules/profiles across requests; the
  /// caller must guarantee the store was built with an identical priority
  /// *ranking* (see core/incremental.hpp).  Without one the cache works
  /// through a private store.
  ScheduleCache(const graph::TaskGraph& g, std::span<const std::int64_t> keys,
                ProfileStore* store = nullptr);
  ScheduleCache(const ScheduleCache&) = delete;
  ScheduleCache& operator=(const ScheduleCache&) = delete;

  /// Schedule for `n` processors (computed on first use).  For n >= width
  /// the returned schedule is the width-processor one (see file header).
  const sched::Schedule& at(std::size_t n);

  /// Idle-gap profile of the schedule for `n` processors, without
  /// materializing the schedule: the probe runs the event loop with a
  /// gap-recording sink (sched::list_schedule_gaps) instead of placement
  /// storage.  Derived from the full schedule instead when this search
  /// holds one.  Bit-identical either way, and everything a feasibility
  /// test (makespan) or energy evaluation needs — so search probes
  /// memoized here are reusable by the phase-2 energy scan.
  const energy::GapProfile& profile_at(std::size_t n);

  /// Makespan for `n` processors via the cheapest artifact (a held
  /// schedule, else profile_at).
  Cycles makespan_at(std::size_t n);

  /// Schedule for `n` if this search holds one, else nullptr.  Never
  /// counts.
  [[nodiscard]] std::shared_ptr<const sched::Schedule> schedule_ptr(std::size_t n) const;

  /// Profile for `n` if this search holds one, else taken from the store —
  /// its profile, or one derived from its schedule — and counted; nullptr
  /// when neither has it.  Never runs the scheduler.  For counts whose
  /// schedule this search does not hold (check schedule_ptr first).
  [[nodiscard]] std::shared_ptr<const energy::GapProfile> profile_lookup(std::size_t n);

  /// Schedule for `n` for the LAMPS winner's materialization: the store's,
  /// else a fresh run published to the store.  Never counts.
  [[nodiscard]] std::shared_ptr<const sched::Schedule> materialize(std::size_t n);

  /// Artifacts this search has acquired (see file header): what
  /// StrategyResult.schedules_computed reports.
  [[nodiscard]] std::size_t computed() const { return computed_; }
  [[nodiscard]] std::size_t width() const { return width_; }
  [[nodiscard]] const graph::TaskGraph& graph() const { return *g_; }

 private:
  enum : std::uint8_t { kSchedule = 1, kProfile = 2 };

  [[nodiscard]] std::size_t clamp(std::size_t n) const { return n < width_ ? n : width_; }
  [[nodiscard]] bool holds(std::size_t key, std::uint8_t kind) const {
    return (acquired_[key] & kind) != 0;
  }
  void acquire(std::size_t key, std::uint8_t kind) {
    acquired_[key] |= kind;
    ++computed_;
  }

  const graph::TaskGraph* g_;
  std::span<const std::int64_t> keys_;
  std::size_t width_;
  ProfileStore private_store_;
  ProfileStore* store_;
  /// Per clamped count, the kSchedule/kProfile artifacts this search holds.
  std::vector<std::uint8_t> acquired_;
  std::size_t computed_{0};
};

}  // namespace lamps::core
