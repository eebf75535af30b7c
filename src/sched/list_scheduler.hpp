// Non-preemptive global list scheduling (the paper's LS-EDF when combined
// with EDF priority keys).
//
// The scheduler is event-driven and greedy ("non-delay"): whenever a
// processor is free and ready tasks exist, the ready task with the smallest
// priority key is dispatched immediately.  Time is advanced to the next
// task-completion event otherwise.  Determinism: ready ties break on
// smaller task id, free processors are taken in ascending id order.
//
// Complexity: O((V + E) log V) standalone; the workspace overload runs in
// O(V + E) amortized per call once the priority ranking is cached (bitmap
// ready/free sets, calendar-bucketed completion events).
//
// Memory layout: the workspace carves every per-run scratch array (ready/
// free bitmaps, missing-predecessor counters, calendar event slots, the
// gap-run staging buffers) out of one util::Arena, so a configuration
// search's inner loop runs with a contiguous working set and zero heap
// allocation once the arena reached the request's high-water mark.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/task_graph.hpp"
#include "sched/priorities.hpp"
#include "sched/schedule.hpp"
#include "util/arena.hpp"

namespace lamps::sched {

class ListScheduleWorkspace;

/// Raw idle-structure of one list-schedule run, recorded by
/// list_schedule_gaps without materializing a Schedule.  Exactly the data
/// energy::GapProfile derives from a full Schedule, in structure-of-arrays
/// form: per processor the busy cycle total, the leading gap and the
/// finish of the last placement, plus one flat (processor, length) event
/// list of the internal gaps in discovery order.  The buffers are owned by
/// the recording workspace and recycled run to run — consumers (the
/// GapProfile constructor) copy what they keep.
struct GapRun {
  std::span<const Cycles> busy;          ///< per processor: busy cycle total
  std::span<const Cycles> leading;       ///< idle cycles before the first placement
  std::span<const Cycles> tail;          ///< finish of the last placement (0 = none)
  std::span<const std::uint32_t> gap_proc;  ///< internal gaps: owning processor
  std::span<const Cycles> gap_len;          ///< internal gaps: length
  Cycles makespan{0};

  [[nodiscard]] std::size_t num_procs() const { return busy.size(); }
};

/// Reusable scratch state for list_schedule.  The configuration searches
/// (LAMPS phases 1+2, schedule_max_speedup, processor_sweep) invoke the
/// scheduler dozens of times with the same graph and priority keys but
/// different processor counts; a workspace threaded through those calls
/// eliminates the per-call allocations and — the larger win — computes the
/// priority ranking (tasks sorted by (key, id)) only once, turning the
/// ready queue into an O(1) find-first-set over a bitmap instead of a
/// binary heap.  A workspace may be reused across different graphs/keys
/// (it re-prepares itself when they change; a key change that leaves the
/// induced ranking intact — e.g. the uniform shift a new global EDF
/// deadline applies — is detected in O(V) and skips the re-sort).  It is
/// not thread-safe, so parallel sweeps use one workspace per worker
/// thread.
class ListScheduleWorkspace {
 public:
  ListScheduleWorkspace() = default;

 private:
  friend Schedule list_schedule(const graph::TaskGraph& g, std::size_t num_procs,
                                std::span<const std::int64_t> priority_keys,
                                ListScheduleWorkspace& ws);
  friend const GapRun& list_schedule_gaps(const graph::TaskGraph& g, std::size_t num_procs,
                                          std::span<const std::int64_t> priority_keys,
                                          ListScheduleWorkspace& ws);

  /// Two-level bitmap over dense indices with O(1) amortized insert /
  /// erase / pop-min.  Level 1 marks 64-index blocks with any member; a
  /// pop scans level 1 for the first non-empty block (a handful of words
  /// even for 5000 tasks) and finishes with count-trailing-zeros.  The
  /// word storage is carved from the workspace arena per run.
  struct IndexSet {
    std::span<std::uint64_t> words, top;
    std::size_t count{0};

    void carve(util::Arena& arena, std::size_t n); ///< allocate, contents undefined
    void init(util::Arena& arena, std::size_t n);  ///< carve + clear
    void fill_all(std::size_t n);                  ///< set members 0..n-1 (after init)
    [[nodiscard]] bool empty() const { return count == 0; }
    // insert/pop_min run once per task per scheduling probe; defined inline
    // because the call overhead is measurable across a configuration search.
    void insert(std::size_t i) {
      const std::size_t w = i / 64;
      words[w] |= std::uint64_t{1} << (i % 64);
      top[w / 64] |= std::uint64_t{1} << (w % 64);
      ++count;
    }
    std::size_t pop_min() {
      std::size_t t = 0;
      while (top[t] == 0) ++t;
      const std::size_t w = t * 64 + static_cast<std::size_t>(std::countr_zero(top[t]));
      const std::size_t b = static_cast<std::size_t>(std::countr_zero(words[w]));
      const std::size_t i = w * 64 + b;
      words[w] &= words[w] - 1;  // clear lowest set bit
      if (words[w] == 0) top[t] &= ~(std::uint64_t{1} << (w % 64));
      --count;
      return i;
    }
  };

  /// Calendar queue over task-completion events, used when the processor
  /// count exceeds 64 (wide ASAP sweeps).  The common search probes run
  /// on at most a few dozen processors and take the bitmask fast path in
  /// the event loop instead: a running-set mask plus a linear min-scan
  /// over at most 64 finish instants, which fits in two cache lines and
  /// has no bucket bookkeeping at all.  Buckets index
  /// `finish >> shift`, with `shift` sized per graph so the bucket count
  /// stays O(num_tasks) regardless of the cycle magnitudes; because the
  /// makespan never exceeds the total work, every finish maps in range.
  /// Each bucket chains the (at most one per processor) running entries
  /// through `next`, and retirement scans the chain for the exact minimum
  /// finish — so placements do not depend on the bucket resolution.  The
  /// structure is monotone (a dispatched finish is never below the current
  /// instant), which makes the non-empty scan a single forward pass over
  /// the bitmap for the whole run.  Buckets drain back to empty by the end
  /// of every complete run; `dirty` forces a full re-init if a prior run
  /// was abandoned mid-way (e.g. by an exception).  head/nonempty persist
  /// across runs (that is what makes the drain-back optimization pay); the
  /// per-processor arrays are carved from the arena each run.
  struct Calendar {
    std::vector<std::int32_t> head;       // slot -> first proc in bucket, -1 none
    std::vector<std::uint64_t> nonempty;  // bitmap over slots
    std::span<std::int32_t> next;         // proc -> next proc in same bucket
    std::span<Cycles> finish_of;          // proc -> finish instant
    std::span<graph::TaskId> task_of;     // proc -> running task
    unsigned shift{0};
    std::size_t slots{0};
    std::size_t count{0};
    std::size_t cursor{0};  // monotone non-empty scan position for this run
    bool dirty{true};

    void configure(util::Arena& arena, Cycles total_work, std::size_t num_tasks,
                   std::size_t num_procs);
    [[nodiscard]] bool empty() const { return count == 0; }
    void insert(ProcId p, graph::TaskId v, Cycles finish) {
      const std::size_t s = static_cast<std::size_t>(finish >> shift);
      if (head[s] < 0) nonempty[s / 64] |= std::uint64_t{1} << (s % 64);
      next[p] = head[s];
      head[s] = static_cast<std::int32_t>(p);
      finish_of[p] = finish;
      task_of[p] = v;
      ++count;
    }
    /// Removes every entry with the minimum outstanding finish instant,
    /// invoking `on_retire(proc, task)` for each, and returns that
    /// instant.  Precondition: count > 0.
    template <typename RetireFn>
    Cycles retire_min(RetireFn&& on_retire);

    /// First slot >= `from` with any entry; precondition: count > 0.
    [[nodiscard]] std::size_t next_slot(std::size_t from) const;
  };

  void prepare(const graph::TaskGraph& g, std::span<const std::int64_t> priority_keys);

  /// True when `priority_keys` induce exactly the cached ranking (the sort
  /// by (key, id) would return task_of_rank_ unchanged).  O(V); lets a
  /// uniformly shifted key set — a rescheduled global EDF deadline — skip
  /// the O(V log V) re-sort.
  [[nodiscard]] bool ranking_matches(std::span<const std::int64_t> priority_keys) const;

  /// Rebuilds the rank-space image of `g` for the current ranking: task
  /// weights and the successor CSR re-indexed by rank, plus snapshots of
  /// the initial missing-predecessor counts and the initial ready bitmap.
  /// With these, drive() touches only rank-indexed arrays — every access
  /// the dispatch/retire hot path makes walks memory in priority order
  /// instead of hopping task id -> rank -> counter — and the per-run O(V)
  /// init collapses to three memcpys.
  void build_rank_image(const graph::TaskGraph& g);

  /// True when the cached rank image was built from arrays byte-identical
  /// to `g`'s.  Content equality (not graph identity) is the test on
  /// purpose: a workspace outlives the graphs it serves, and a later graph
  /// can reuse both the heap address and the key pattern of a dead one
  /// (kFifo keys carry no structure).  Equal bytes under an equal ranking
  /// imply an identical image, so this memcmp — three sequential streams,
  /// microseconds at search sizes — is what keeps the cache airtight.
  [[nodiscard]] bool rank_image_matches(const graph::TaskGraph& g) const;

  /// The shared event loop behind list_schedule and list_schedule_gaps.
  /// `place(v, p, start, finish)` receives each placement — the Schedule
  /// records it, the gap sink folds it into idle structure.  Returns the
  /// makespan.  Carves the run's scratch from the arena and dispatches to
  /// `drive` with either the bitmask pending queue (num_procs <= 64) or
  /// the calendar.  Defined (and only instantiated) in list_scheduler.cpp.
  template <typename PlaceFn>
  static Cycles run_event_loop(const graph::TaskGraph& g, std::size_t num_procs,
                               ListScheduleWorkspace& ws, PlaceFn&& place);

  /// The loop proper, generic over the pending-completion queue (bitmask
  /// or calendar — both expose empty/insert/retire_min).
  template <typename Pending, typename PlaceFn>
  static Cycles drive(const graph::TaskGraph& g, ListScheduleWorkspace& ws,
                      Pending& pending, PlaceFn&& place);

  // Priority ranking, cached across calls until the keys change.
  std::vector<std::int64_t> prepared_keys_;
  std::vector<graph::TaskId> task_of_rank_;
  std::vector<std::uint32_t> rank_of_task_;
  bool prepared_{false};

  // Rank-space graph image (build_rank_image), cached with the ranking.
  std::vector<Cycles> weight_by_rank_;        // weight of task_of_rank_[r]
  std::vector<graph::EdgeIndex> succ_roff_;   // CSR offsets over ranks, n+1
  std::vector<std::uint32_t> succ_rrank_;     // successor RANKS, |E|
  std::vector<std::uint32_t> init_missing_;   // pred count of rank r
  std::vector<std::uint64_t> init_ready_words_, init_ready_top_;  // zero-pred ranks
  std::size_t init_ready_count_{0};
  // Byte mirrors of the graph arrays the image was built from, compared by
  // rank_image_matches on every reuse.
  std::vector<Cycles> mirror_weights_;
  std::vector<graph::EdgeIndex> mirror_soff_;
  std::vector<graph::TaskId> mirror_stgt_;

  // Per-call scratch, carved from the arena by prepare()/run_event_loop().
  util::Arena arena_;
  std::span<std::uint32_t> missing_preds_;
  IndexSet ready_;      // over ranks
  IndexSet free_procs_; // over processor ids
  Calendar running_;    // completion-event calendar

  // Gap-run staging (list_schedule_gaps): SoA buffers recycled run to run.
  std::vector<Cycles> gap_busy_, gap_leading_, gap_tail_;
  std::vector<std::uint32_t> gap_proc_;
  std::vector<Cycles> gap_len_;
  GapRun gap_run_;
};

/// Schedules every task of `g` on `num_procs` processors using the given
/// priority keys (see make_priority_keys).  Always succeeds (a list
/// schedule exists for any DAG); deadline feasibility is judged afterwards
/// by the caller.
[[nodiscard]] Schedule list_schedule(const graph::TaskGraph& g, std::size_t num_procs,
                                     std::span<const std::int64_t> priority_keys);

/// Same, reusing `ws` for scratch storage and the cached priority ranking.
/// Placements are identical to the workspace-free overload.
[[nodiscard]] Schedule list_schedule(const graph::TaskGraph& g, std::size_t num_procs,
                                     std::span<const std::int64_t> priority_keys,
                                     ListScheduleWorkspace& ws);

/// Runs the identical event loop but records only the idle structure
/// (busy totals, leading/internal/trailing gaps) instead of placements.
/// Everything an energy evaluation needs — and nothing a configuration
/// search throws away when the candidate loses.  The returned view aliases
/// buffers owned by `ws` and is valid until the workspace's next run; the
/// data equals what energy::GapProfile would derive from the full
/// schedule: `GapProfile(list_schedule_gaps(...))` is bit-identical to
/// `GapProfile(list_schedule(...))`.
[[nodiscard]] const GapRun& list_schedule_gaps(const graph::TaskGraph& g,
                                               std::size_t num_procs,
                                               std::span<const std::int64_t> priority_keys,
                                               ListScheduleWorkspace& ws);

/// Convenience: build EDF keys for `deadline_cycles` and schedule.
[[nodiscard]] Schedule list_schedule_edf(const graph::TaskGraph& g, std::size_t num_procs,
                                         Cycles deadline_cycles,
                                         Hertz ref_frequency = Hertz{1.0});

/// Insertion-based list scheduling (ISH-style): tasks are taken strictly in
/// priority order (constrained to predecessors-first) and each is placed in
/// the earliest idle slot on any processor — including gaps *between*
/// already-placed tasks, which the non-delay scheduler above can never use.
/// Often shaves the makespan on unbalanced graphs at O(V * P + V * E + V^2 / P)
/// cost; exists for the section 4.4 "would a better scheduler help?"
/// ablation.
[[nodiscard]] Schedule list_schedule_insertion(const graph::TaskGraph& g,
                                               std::size_t num_procs,
                                               std::span<const std::int64_t> priority_keys);

}  // namespace lamps::sched
