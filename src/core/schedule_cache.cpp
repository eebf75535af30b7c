#include "core/schedule_cache.hpp"

#include <algorithm>
#include <utility>

#include "graph/analysis.hpp"
#include "obs/metrics.hpp"

namespace lamps::core {

namespace {

// Cache traffic of the configuration searches (docs/observability.md).
// store_* counters track artifacts found in the store that this search
// had not yet acquired (the incremental-rescheduling reuse path).
obs::Counter& c_schedule_hit = obs::counter("schedule_cache.schedule_hit");
obs::Counter& c_schedule_miss = obs::counter("schedule_cache.schedule_miss");
obs::Counter& c_profile_hit = obs::counter("schedule_cache.profile_hit");
obs::Counter& c_profile_miss = obs::counter("schedule_cache.profile_miss");
obs::Counter& c_profile_from_schedule = obs::counter("schedule_cache.profile_from_schedule");
obs::Counter& c_store_schedule_hit = obs::counter("schedule_cache.store_schedule_hit");
obs::Counter& c_store_profile_hit = obs::counter("schedule_cache.store_profile_hit");

}  // namespace

sched::ListScheduleWorkspace& tls_workspace() {
  thread_local sched::ListScheduleWorkspace ws;
  return ws;
}

ScheduleCache::ScheduleCache(const graph::TaskGraph& g, std::span<const std::int64_t> keys,
                             ProfileStore* store)
    : g_(&g),
      keys_(keys),
      width_(std::max<std::size_t>(1, std::min(g.num_tasks(), graph::asap_max_concurrency(g)))),
      store_(store != nullptr ? store : &private_store_),
      acquired_(width_ + 1, 0) {}

const sched::Schedule& ScheduleCache::at(std::size_t n) {
  const std::size_t key = clamp(n);
  auto& schedules = store_->schedules;
  if (holds(key, kSchedule)) {
    c_schedule_hit.inc();
    return *schedules.at(key);
  }
  auto it = schedules.find(key);
  if (it != schedules.end()) {
    c_store_schedule_hit.inc();
  } else {
    c_schedule_miss.inc();
    it = schedules
             .emplace(key, std::make_shared<const sched::Schedule>(
                               sched::list_schedule(*g_, key, keys_, tls_workspace())))
             .first;
  }
  acquire(key, kSchedule);
  return *it->second;
}

const energy::GapProfile& ScheduleCache::profile_at(std::size_t n) {
  const std::size_t key = clamp(n);
  auto& profiles = store_->profiles;
  if (holds(key, kProfile)) {
    c_profile_hit.inc();
    return *profiles.at(key);
  }
  if (holds(key, kSchedule)) {
    c_profile_from_schedule.inc();
    acquired_[key] |= kProfile;  // free: derived from a held schedule
    return *profiles
                .try_emplace(key, std::make_shared<const energy::GapProfile>(
                                      *store_->schedules.at(key)))
                .first->second;
  }
  if (const auto p = profile_lookup(key)) return *p;
  c_profile_miss.inc();
  auto p = std::make_shared<const energy::GapProfile>(
      energy::GapProfile(sched::list_schedule_gaps(*g_, key, keys_, tls_workspace())));
  acquire(key, kProfile);
  return *profiles.emplace(key, std::move(p)).first->second;
}

Cycles ScheduleCache::makespan_at(std::size_t n) {
  const std::size_t key = clamp(n);
  if (holds(key, kSchedule)) return store_->schedules.at(key)->makespan();
  return profile_at(key).makespan();
}

std::shared_ptr<const sched::Schedule> ScheduleCache::schedule_ptr(std::size_t n) const {
  const std::size_t key = clamp(n);
  return holds(key, kSchedule) ? store_->schedules.at(key) : nullptr;
}

std::shared_ptr<const energy::GapProfile> ScheduleCache::profile_lookup(std::size_t n) {
  const std::size_t key = clamp(n);
  auto& profiles = store_->profiles;
  if (holds(key, kProfile)) return profiles.at(key);
  if (const auto it = profiles.find(key); it != profiles.end()) {
    c_store_profile_hit.inc();
    acquire(key, kProfile);
    return it->second;
  }
  if (const auto it = store_->schedules.find(key); it != store_->schedules.end()) {
    c_store_schedule_hit.inc();
    acquire(key, kProfile);
    return profiles.emplace(key, std::make_shared<const energy::GapProfile>(*it->second))
        .first->second;
  }
  return nullptr;
}

std::shared_ptr<const sched::Schedule> ScheduleCache::materialize(std::size_t n) {
  const std::size_t key = clamp(n);
  auto& schedules = store_->schedules;
  auto it = schedules.find(key);
  if (it == schedules.end())
    it = schedules
             .emplace(key, std::make_shared<const sched::Schedule>(
                               sched::list_schedule(*g_, key, keys_, tls_workspace())))
             .first;
  else if (!holds(key, kSchedule))
    c_store_schedule_hit.inc();
  acquired_[key] |= kSchedule;
  return it->second;
}

}  // namespace lamps::core
