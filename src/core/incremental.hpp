// Cross-request schedule/profile reuse for the serving path: incremental
// rescheduling for requests that differ only in the global deadline.
//
// The dominant `lamps serve` shape is the same graph asked about at many
// deadlines (a client sweeping deadline_factor).  For a graph without
// explicit per-task deadlines, every priority policy's *ranking* is
// deadline-invariant: kBottomLevel/kFifo/kRandom keys do not mention the
// deadline at all, and EDF keys are LF(v) = D - tail(v) — a new global
// deadline shifts every key by one constant, which cannot reorder the
// (key, id) sort.  List-schedule placements depend on the keys only
// through that ranking, so the schedules and idle-gap profiles for every
// processor count are *identical across deadlines*.  Only the cheap parts
// of a configuration search actually depend on D: the Graham-bound
// feasibility arithmetic and the O(P log G) profile energy evaluations.
//
// ProfileStore holds those deadline-invariant artifacts.  It is the one
// place every configuration search keeps them: a cold search works
// through a private store its ScheduleCache owns, and serve's ScheduleBank
// only decides which store a search starts from.  The bank maps a
// graph-structure digest (weights + CSR + explicit deadlines + policy,
// global deadline and strategy excluded — see
// core::service_request_structure_digest) to a ProfileStore with LRU
// eviction.  A request leases its store for the duration of the strategy
// run; the per-entry mutex serializes same-structure requests (distinct
// structures proceed in parallel) while the bank mutex is only ever held
// for map/LRU bookkeeping.
//
// Results, schedules_computed included, are bit-identical with and
// without the bank: by the acquisition rule in core/schedule_cache.hpp an
// artifact counts the first time a search acquires it, whether the store
// already had it or the scheduler ran for it.  Callers must not attach a
// store when the graph has explicit per-task deadlines (there the EDF
// ranking genuinely depends on D); run_service_request enforces that
// gate.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "energy/gap_profile.hpp"
#include "sched/schedule.hpp"

namespace lamps::core {

/// Deadline-invariant scheduling artifacts of one (graph structure,
/// policy): schedules and idle-gap profiles keyed by clamped processor
/// count (core/schedule_cache.hpp).  Plain data, externally synchronized
/// (ScheduleBank's entry lock, or a ScheduleCache owning it privately).
struct ProfileStore {
  std::unordered_map<std::size_t, std::shared_ptr<const sched::Schedule>> schedules;
  std::unordered_map<std::size_t, std::shared_ptr<const energy::GapProfile>> profiles;
};

/// LRU map from structure digest to ProfileStore, shared by all serve
/// workers.  lease() pins the entry (eviction-safe via shared_ptr) and
/// holds its mutex until the Lease is destroyed.
class ScheduleBank {
 public:
  explicit ScheduleBank(std::size_t capacity = 128) : capacity_(capacity) {}

  class Lease {
   public:
    Lease() = default;
    /// The leased store, or nullptr for an empty (default) lease.
    [[nodiscard]] ProfileStore* store() const { return store_; }

   private:
    friend class ScheduleBank;
    struct Entry;
    explicit Lease(std::shared_ptr<Entry> e);
    std::shared_ptr<Entry> entry_;
    ProfileStore* store_{nullptr};
    std::unique_lock<std::mutex> lock_;
  };

  /// Pins (creating if necessary) the store for `structure_digest` and
  /// acquires its entry lock — same-structure requests serialize here.
  /// The entry lock is taken outside the bank mutex.
  [[nodiscard]] Lease lease(std::uint64_t structure_digest);

  /// Number of resident stores (diagnostics).
  [[nodiscard]] std::size_t size() const;

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  using Entry = Lease::Entry;

  mutable std::mutex mu_;
  std::size_t capacity_;
  /// Most-recently leased first.
  std::list<std::uint64_t> lru_;
  struct Slot {
    std::shared_ptr<Entry> entry;
    std::list<std::uint64_t>::iterator pos;
  };
  std::unordered_map<std::uint64_t, Slot> map_;
};

}  // namespace lamps::core
