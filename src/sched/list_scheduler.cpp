#include "sched/list_scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <queue>
#include <stdexcept>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/cancel.hpp"

namespace lamps::sched {

namespace {

// Scheduler run mix: full placements vs gap-only runs
// (docs/observability.md).
obs::Counter& c_runs_full = obs::counter("scheduler.runs_full");
obs::Counter& c_runs_gaps = obs::counter("scheduler.runs_gaps");

struct ReadyEntry {
  std::int64_t key;
  graph::TaskId task;
  // Min-heap: smallest key first, then smallest id.
  bool operator>(const ReadyEntry& o) const {
    return key != o.key ? key > o.key : task > o.task;
  }
};

/// Pending-completion queue for runs on at most 64 processors — every
/// search probe in practice.  One occupancy word plus two short arrays;
/// the minimum outstanding finish is maintained incrementally on insert,
/// so retirement is a single scan over the set bits that releases the
/// matching entries and computes the next minimum from the survivors in
/// the same pass — branch-cheap and entirely in L1 where the calendar's
/// bucket bitmaps and chain walks are not.  Retires the same set of
/// processors at the same instants as the calendar, so placements are
/// identical.
struct MaskQueue {
  std::uint64_t mask{0};
  Cycles min_finish{std::numeric_limits<Cycles>::max()};
  std::span<Cycles> finish_of;
  std::span<graph::TaskId> task_of;

  [[nodiscard]] bool empty() const { return mask == 0; }
  void insert(ProcId p, graph::TaskId v, Cycles finish) {
    mask |= std::uint64_t{1} << p;
    finish_of[p] = finish;
    task_of[p] = v;
    if (finish < min_finish) min_finish = finish;
  }
  template <typename RetireFn>
  Cycles retire_min(RetireFn&& on_retire) {
    const Cycles cur = min_finish;
    Cycles next = std::numeric_limits<Cycles>::max();
    for (std::uint64_t bits = mask; bits != 0; bits &= bits - 1) {
      const auto p = static_cast<std::size_t>(std::countr_zero(bits));
      const Cycles f = finish_of[p];
      if (f == cur) {
        mask &= ~(std::uint64_t{1} << p);
        on_retire(p, task_of[p]);
      } else if (f < next) {
        next = f;
      }
    }
    min_finish = next;
    return cur;
  }
};

}  // namespace

void ListScheduleWorkspace::IndexSet::carve(util::Arena& arena, std::size_t n) {
  const std::size_t nwords = (n + 63) / 64;
  words = arena.make<std::uint64_t>(nwords);
  top = arena.make<std::uint64_t>((nwords + 63) / 64);
}

void ListScheduleWorkspace::IndexSet::init(util::Arena& arena, std::size_t n) {
  carve(arena, n);
  std::memset(words.data(), 0, words.size_bytes());
  std::memset(top.data(), 0, top.size_bytes());
  count = 0;
}

void ListScheduleWorkspace::IndexSet::fill_all(std::size_t n) {
  if (n == 0) return;
  for (std::size_t w = 0; w < words.size(); ++w) words[w] = ~std::uint64_t{0};
  if (n % 64 != 0) words.back() = (std::uint64_t{1} << (n % 64)) - 1;
  for (std::size_t w = 0; w < words.size(); ++w) top[w / 64] |= std::uint64_t{1} << (w % 64);
  count = n;
}

void ListScheduleWorkspace::Calendar::configure(util::Arena& arena, Cycles total_work,
                                                std::size_t num_tasks,
                                                std::size_t num_procs) {
  // Bucket resolution: the coarsest shift that keeps the slot count within
  // ~4 tasks per bucket on average.  The makespan of any schedule is at
  // most the total work, so finish >> shift always lands in range.
  const std::size_t cap = std::max<std::size_t>(4 * num_tasks, 1024);
  unsigned k = 0;
  while ((total_work >> k) > cap) ++k;
  const std::size_t need = static_cast<std::size_t>(total_work >> k) + 2;
  if (dirty || k != shift || need > slots) {
    shift = k;
    slots = need;
    head.assign(slots, -1);
    nonempty.assign((slots + 63) / 64, 0);
    dirty = false;
  }
  next = arena.make<std::int32_t>(num_procs);
  finish_of = arena.make<Cycles>(num_procs);
  task_of = arena.make<graph::TaskId>(num_procs);
  count = 0;
  cursor = 0;
}

std::size_t ListScheduleWorkspace::Calendar::next_slot(std::size_t from) const {
  std::size_t w = from / 64;
  std::uint64_t bits = nonempty[w] & (~std::uint64_t{0} << (from % 64));
  while (bits == 0) bits = nonempty[++w];
  return w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
}

template <typename RetireFn>
Cycles ListScheduleWorkspace::Calendar::retire_min(RetireFn&& on_retire) {
  // The earliest outstanding finish always lives in the first non-empty
  // bucket at or after the cursor (finishes are monotone), and the exact
  // minimum is found by scanning that bucket's chain — within-instant
  // retirement order never affects placements because the ready/free sets
  // are order-insensitive bitmaps.
  cursor = next_slot(cursor);
  Cycles min_finish = std::numeric_limits<Cycles>::max();
  for (std::int32_t p = head[cursor]; p >= 0; p = next[static_cast<std::size_t>(p)])
    min_finish = std::min(min_finish, finish_of[static_cast<std::size_t>(p)]);
  std::int32_t keep = -1;
  for (std::int32_t p = head[cursor]; p >= 0;) {
    const auto pi = static_cast<std::size_t>(p);
    const std::int32_t nx = next[pi];
    if (finish_of[pi] == min_finish) {
      --count;
      on_retire(pi, task_of[pi]);
    } else {
      next[pi] = keep;
      keep = p;
    }
    p = nx;
  }
  head[cursor] = keep;
  if (keep < 0) nonempty[cursor / 64] &= ~(std::uint64_t{1} << (cursor % 64));
  return min_finish;
}

void ListScheduleWorkspace::prepare(const graph::TaskGraph& g,
                                    std::span<const std::int64_t> priority_keys) {
  const std::size_t n = g.num_tasks();
  if (prepared_ && prepared_keys_.size() == n) {
    bool ranking_ok = false;
    if (std::equal(prepared_keys_.begin(), prepared_keys_.end(), priority_keys.begin())) {
      ranking_ok = true;
    } else if (ranking_matches(priority_keys)) {
      // New keys, same induced order — e.g. EDF keys for a different
      // global deadline, which shift every key by one constant.  Keep the
      // cached permutation and skip the O(V log V) re-sort.
      prepared_keys_.assign(priority_keys.begin(), priority_keys.end());
      ranking_ok = true;
    }
    if (ranking_ok) {
      // The ranking depends only on the keys, but the rank image also
      // bakes in the graph; see rank_image_matches for why this must be a
      // content check, not an identity check.
      if (!rank_image_matches(g)) build_rank_image(g);
      return;
    }
  }
  prepared_keys_.assign(priority_keys.begin(), priority_keys.end());
  task_of_rank_.resize(n);
  for (std::size_t i = 0; i < n; ++i) task_of_rank_[i] = static_cast<graph::TaskId>(i);
  std::sort(task_of_rank_.begin(), task_of_rank_.end(),
            [&](graph::TaskId a, graph::TaskId b) {
              return prepared_keys_[a] != prepared_keys_[b]
                         ? prepared_keys_[a] < prepared_keys_[b]
                         : a < b;
            });
  rank_of_task_.resize(n);
  for (std::size_t r = 0; r < n; ++r)
    rank_of_task_[task_of_rank_[r]] = static_cast<std::uint32_t>(r);
  prepared_ = true;
  build_rank_image(g);
}

bool ListScheduleWorkspace::rank_image_matches(const graph::TaskGraph& g) const {
  const std::span<const Cycles> w = g.weights();
  const std::span<const graph::EdgeIndex> soff = g.succ_offsets();
  const std::span<const graph::TaskId> stgt = g.succ_targets();
  // The predecessor CSR is derived from the same edge set, so matching
  // successor arrays imply matching initial missing-predecessor counts.
  // An empty array (an edgeless graph) may have a null data pointer,
  // which memcmp must not be given even for zero bytes.
  const auto same_bytes = [](const auto& mirror, const auto& span) {
    return span.empty() || std::memcmp(mirror.data(), span.data(), span.size_bytes()) == 0;
  };
  return mirror_weights_.size() == w.size() && mirror_soff_.size() == soff.size() &&
         mirror_stgt_.size() == stgt.size() && same_bytes(mirror_weights_, w) &&
         same_bytes(mirror_soff_, soff) && same_bytes(mirror_stgt_, stgt);
}

void ListScheduleWorkspace::build_rank_image(const graph::TaskGraph& g) {
  const std::size_t n = g.num_tasks();
  const std::span<const Cycles> w = g.weights();
  const std::span<const graph::EdgeIndex> soff = g.succ_offsets();
  const std::span<const graph::TaskId> stgt = g.succ_targets();
  const std::span<const graph::EdgeIndex> poff = g.pred_offsets();
  mirror_weights_.assign(w.begin(), w.end());
  mirror_soff_.assign(soff.begin(), soff.end());
  mirror_stgt_.assign(stgt.begin(), stgt.end());

  weight_by_rank_.resize(n);
  init_missing_.resize(n);
  succ_roff_.resize(n + 1);
  succ_rrank_.resize(stgt.size());
  const std::size_t nwords = (n + 63) / 64;
  init_ready_words_.assign(nwords, 0);
  init_ready_top_.assign((nwords + 63) / 64, 0);
  init_ready_count_ = 0;

  graph::EdgeIndex out = 0;
  for (std::size_t r = 0; r < n; ++r) {
    const graph::TaskId v = task_of_rank_[r];
    weight_by_rank_[r] = w[v];
    const std::uint32_t preds = poff[v + 1] - poff[v];
    init_missing_[r] = preds;
    if (preds == 0) {
      init_ready_words_[r / 64] |= std::uint64_t{1} << (r % 64);
      init_ready_top_[r / 4096] |= std::uint64_t{1} << ((r / 64) % 64);
      ++init_ready_count_;
    }
    succ_roff_[r] = out;
    // Successor edges re-ordered by source rank; within one retirement the
    // targets only feed order-insensitive bitmap inserts and counter
    // decrements, so the permutation cannot change placements.
    for (graph::EdgeIndex e = soff[v]; e < soff[v + 1]; ++e)
      succ_rrank_[out++] = rank_of_task_[stgt[e]];
  }
  succ_roff_[n] = out;
}

bool ListScheduleWorkspace::ranking_matches(
    std::span<const std::int64_t> priority_keys) const {
  // The sort by (key, id) has a unique result, so the cached permutation is
  // exactly that result iff it is sorted under the new keys.
  for (std::size_t r = 1; r < task_of_rank_.size(); ++r) {
    const graph::TaskId a = task_of_rank_[r - 1];
    const graph::TaskId b = task_of_rank_[r];
    if (priority_keys[a] > priority_keys[b] ||
        (priority_keys[a] == priority_keys[b] && a > b))
      return false;
  }
  return true;
}

template <typename Pending, typename PlaceFn>
Cycles ListScheduleWorkspace::drive(const graph::TaskGraph& g, ListScheduleWorkspace& ws,
                                    Pending& pending, PlaceFn&& place) {
  const std::size_t n = g.num_tasks();
  // The loop runs entirely on the workspace's rank-space image (see
  // build_rank_image): weights, the successor CSR, and the missing-
  // predecessor counters are all indexed by rank, so dispatch reads and
  // retirement decrements walk memory in priority order instead of hopping
  // task id -> rank -> counter through three unrelated arrays.  The
  // original task id resurfaces only at the placement callback.
  const Cycles* const weight = ws.weight_by_rank_.data();
  const graph::EdgeIndex* const succ_off = ws.succ_roff_.data();
  const std::uint32_t* const succ_rank = ws.succ_rrank_.data();
  const graph::TaskId* const by_rank = ws.task_of_rank_.data();
  std::uint32_t* const missing = ws.missing_preds_.data();

  // O(V) init as three straight copies from the image's snapshots.
  std::memcpy(missing, ws.init_missing_.data(), n * sizeof(std::uint32_t));
  std::memcpy(ws.ready_.words.data(), ws.init_ready_words_.data(),
              ws.ready_.words.size_bytes());
  std::memcpy(ws.ready_.top.data(), ws.init_ready_top_.data(), ws.ready_.top.size_bytes());
  ws.ready_.count = ws.init_ready_count_;

  Cycles now = 0;
  Cycles makespan = 0;
  std::size_t scheduled = 0;
  // Keep retiring past the last dispatch (scheduled == num_tasks) until the
  // pending queue is empty again: the calendar's contract is that every
  // bucket and every occupancy bit is clean when the run returns, so the
  // next run can skip the O(slots) re-initialization.
  while (scheduled < n || !pending.empty()) {
    // Watchdog poll: a stride-counted no-op without an installed token
    // (see util/cancel.hpp); the throw path leaves the calendar dirty, so
    // an aborted run re-initializes it on the next use.
    cancel_checkpoint("sched/list_schedule");
    // Dispatch greedily while both a ready task and a free processor exist.
    while (!ws.ready_.empty() && !ws.free_procs_.empty()) {
      const std::size_t r = ws.ready_.pop_min();
      const auto p = static_cast<ProcId>(ws.free_procs_.pop_min());
      const Cycles finish = now + weight[r];
      place(by_rank[r], p, now, finish);
      if (finish > makespan) makespan = finish;
      pending.insert(p, static_cast<graph::TaskId>(r), finish);  // queue carries ranks
      ++scheduled;
    }
    if (pending.empty()) break;  // all done (or nothing dispatchable — impossible for a DAG)

    // Advance to the next completion instant and retire everything that
    // finishes there, releasing successors and processors before the next
    // dispatch round.
    now = pending.retire_min([&](std::size_t p, graph::TaskId r) {
      ws.free_procs_.insert(p);
      const graph::EdgeIndex end = succ_off[r + 1];
      for (graph::EdgeIndex e = succ_off[r]; e < end; ++e) {
        const std::uint32_t sr = succ_rank[e];
        if (--missing[sr] == 0) ws.ready_.insert(sr);
      }
    });
  }
  return makespan;
}

template <typename PlaceFn>
Cycles ListScheduleWorkspace::run_event_loop(const graph::TaskGraph& g,
                                             std::size_t num_procs,
                                             ListScheduleWorkspace& ws, PlaceFn&& place) {
  const std::size_t n = g.num_tasks();
  ws.arena_.reset();
  ws.missing_preds_ = ws.arena_.make<std::uint32_t>(n);
  ws.ready_.carve(ws.arena_, n);  // drive() loads it from the image snapshot
  ws.free_procs_.init(ws.arena_, num_procs);
  ws.free_procs_.fill_all(num_procs);

  if (num_procs <= 64) {
    MaskQueue pending;
    pending.finish_of = ws.arena_.make<Cycles>(num_procs);
    pending.task_of = ws.arena_.make<graph::TaskId>(num_procs);
    return drive(g, ws, pending, place);
  }
  Calendar& cal = ws.running_;
  cal.configure(ws.arena_, g.total_work(), n, num_procs);
  cal.dirty = true;  // cleared on normal return; forces a re-init after aborts
  const Cycles makespan = drive(g, ws, cal, place);
  cal.dirty = false;
  return makespan;
}

namespace {

void check_list_schedule_args(const graph::TaskGraph& g, std::size_t num_procs,
                              std::span<const std::int64_t> priority_keys) {
  if (num_procs == 0)
    throw std::invalid_argument("list_schedule: need at least one processor");
  if (priority_keys.size() != g.num_tasks())
    throw std::invalid_argument("list_schedule: priority key count mismatch");
}

}  // namespace

Schedule list_schedule(const graph::TaskGraph& g, std::size_t num_procs,
                       std::span<const std::int64_t> priority_keys,
                       ListScheduleWorkspace& ws) {
  check_list_schedule_args(g, num_procs, priority_keys);
  obs::Span span("sched/list_schedule");
  c_runs_full.inc();
  ws.prepare(g, priority_keys);
  Schedule schedule(num_procs, g.num_tasks());
  ListScheduleWorkspace::run_event_loop(
      g, num_procs, ws, [&schedule](graph::TaskId v, ProcId p, Cycles start, Cycles finish) {
        schedule.place(v, p, start, finish);
      });
  return schedule;
}

const GapRun& list_schedule_gaps(const graph::TaskGraph& g, std::size_t num_procs,
                                 std::span<const std::int64_t> priority_keys,
                                 ListScheduleWorkspace& ws) {
  check_list_schedule_args(g, num_procs, priority_keys);
  c_runs_gaps.inc();
  ws.prepare(g, priority_keys);
  ws.gap_busy_.assign(num_procs, 0);
  ws.gap_leading_.assign(num_procs, 0);
  ws.gap_tail_.assign(num_procs, 0);
  ws.gap_proc_.clear();
  ws.gap_len_.clear();
  // Per processor the placements arrive in start order (each processor runs
  // one task at a time and `now` is monotone), so the gap structure streams
  // into the flat (proc, length) event list in discovery order.
  Cycles* const busy = ws.gap_busy_.data();
  Cycles* const leading = ws.gap_leading_.data();
  Cycles* const tail = ws.gap_tail_.data();
  const Cycles makespan = ListScheduleWorkspace::run_event_loop(
      g, num_procs, ws, [&ws, busy, leading, tail](graph::TaskId, ProcId p, Cycles start, Cycles finish) {
        if (start > tail[p]) {
          if (tail[p] == 0) {
            leading[p] = start;
          } else {
            ws.gap_proc_.push_back(p);
            ws.gap_len_.push_back(start - tail[p]);
          }
        }
        busy[p] += finish - start;
        tail[p] = finish;
      });
  ws.gap_run_ = GapRun{ws.gap_busy_, ws.gap_leading_, ws.gap_tail_,
                       ws.gap_proc_, ws.gap_len_, makespan};
  return ws.gap_run_;
}

Schedule list_schedule(const graph::TaskGraph& g, std::size_t num_procs,
                       std::span<const std::int64_t> priority_keys) {
  ListScheduleWorkspace ws;
  return list_schedule(g, num_procs, priority_keys, ws);
}

Schedule list_schedule_insertion(const graph::TaskGraph& g, std::size_t num_procs,
                                 std::span<const std::int64_t> priority_keys) {
  if (num_procs == 0)
    throw std::invalid_argument("list_schedule_insertion: need at least one processor");
  if (priority_keys.size() != g.num_tasks())
    throw std::invalid_argument("list_schedule_insertion: priority key count mismatch");

  struct Slot {
    Cycles start, finish;
    graph::TaskId task;
  };
  std::vector<std::vector<Slot>> rows(num_procs);  // sorted by start
  std::vector<Cycles> finish_of(g.num_tasks(), 0);

  // Priority order constrained to predecessors-first.
  std::priority_queue<ReadyEntry, std::vector<ReadyEntry>, std::greater<>> ready;
  std::vector<std::size_t> missing_preds(g.num_tasks());
  for (graph::TaskId v = 0; v < g.num_tasks(); ++v) {
    missing_preds[v] = g.in_degree(v);
    if (missing_preds[v] == 0) ready.push(ReadyEntry{priority_keys[v], v});
  }

  while (!ready.empty()) {
    cancel_checkpoint("sched/list_schedule_insertion");
    const graph::TaskId v = ready.top().task;
    ready.pop();
    Cycles ready_time = 0;
    for (const graph::TaskId p : g.predecessors(v))
      ready_time = std::max(ready_time, finish_of[p]);
    const Cycles w = g.weight(v);

    // Earliest feasible slot over all processors: scan each row's gaps
    // (before the first task, between tasks, after the last).
    ProcId best_proc = 0;
    Cycles best_start = std::numeric_limits<Cycles>::max();
    std::size_t best_pos = 0;
    for (ProcId p = 0; p < num_procs; ++p) {
      const auto& row = rows[p];
      Cycles cursor = 0;
      Cycles start = std::numeric_limits<Cycles>::max();
      std::size_t pos = row.size();
      for (std::size_t i = 0; i <= row.size(); ++i) {
        const Cycles gap_end =
            i < row.size() ? row[i].start : std::numeric_limits<Cycles>::max();
        const Cycles candidate = std::max(cursor, ready_time);
        if (candidate + w <= gap_end || gap_end == std::numeric_limits<Cycles>::max()) {
          start = candidate;
          pos = i;
          break;
        }
        cursor = row[i].finish;
      }
      if (start < best_start) {
        best_start = start;
        best_proc = p;
        best_pos = pos;
      }
    }

    rows[best_proc].insert(rows[best_proc].begin() + static_cast<std::ptrdiff_t>(best_pos),
                           Slot{best_start, best_start + w, v});
    finish_of[v] = best_start + w;
    for (const graph::TaskId s : g.successors(v))
      if (--missing_preds[s] == 0) ready.push(ReadyEntry{priority_keys[s], s});
  }

  Schedule schedule(num_procs, g.num_tasks());
  for (ProcId p = 0; p < num_procs; ++p)
    for (const Slot& slot : rows[p]) schedule.place(slot.task, p, slot.start, slot.finish);
  return schedule;
}

Schedule list_schedule_edf(const graph::TaskGraph& g, std::size_t num_procs,
                           Cycles deadline_cycles, Hertz ref_frequency) {
  PriorityOptions opts;
  opts.policy = PriorityPolicy::kEdf;
  opts.global_deadline_cycles = deadline_cycles;
  opts.ref_frequency = ref_frequency;
  return list_schedule(g, num_procs, make_priority_keys(g, opts));
}

}  // namespace lamps::sched
