// Cross-request result cache with single-flight deduplication.
//
// The serve daemon sees two flavors of redundancy: the same request
// replayed over time (dashboards, retries) and the same request in
// flight on several connections at once (a fan-out client).  The first
// is answered by an LRU of completed result payloads keyed by the
// core::service_request_digest (util/fnv1a.hpp's Fnv1a, which also seals
// the experiment journal's records; within one computation
// core::ScheduleCache still memoizes the per-processor-count probes).
// The second is collapsed by single-flight, and crucially the dedup
// happens at *admission* time, not when a worker dequeues the job: the
// first requester becomes the leader and owns the computation, later
// identical requests attach a completion callback to the in-flight entry
// and consume no worker at all.  The window therefore spans the whole
// queued-plus-computing lifetime — one list-scheduler search no matter
// how many clients ask, even when the duplicates pile up behind a busy
// pool.
//
// Payloads are canonical JSON strings (net::result_json), so a follower
// or cache hit is bit-identical to a fresh computation by construction.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace lamps::net {

class ResultCache {
 public:
  /// `capacity` completed payloads are retained (>= 1).
  explicit ResultCache(std::size_t capacity);

  /// Completion callback: `error` is empty on success, and `cached` tells
  /// whether the payload was served without computing on the caller's
  /// behalf (an LRU hit or a single-flight join).  Invoked exactly once,
  /// either inline from subscribe() (LRU hit) or from the leader's
  /// complete()/fail() call — never while the cache lock is held.
  using Consumer =
      std::function<void(const std::string& payload, bool cached, const std::string& error)>;

  /// Registers interest in `key`.  Returns true when the caller became
  /// the leader and MUST eventually call complete() or fail() for the
  /// key; returns false when the consumer was already satisfied (LRU hit)
  /// or attached to the in-flight leader (single-flight join).
  [[nodiscard]] bool subscribe(std::uint64_t key, Consumer consumer);

  /// Leader delivery: caches the payload and fulfils every consumer
  /// (the leader's own first, then the joined followers with
  /// cached=true).
  void complete(std::uint64_t key, const std::string& payload);

  /// Leader failure: fulfils every consumer with `error`; nothing is
  /// cached, so a later identical request recomputes.
  void fail(std::uint64_t key, const std::string& error);

  [[nodiscard]] std::size_t size() const;

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  struct Waiter {
    Consumer consumer;
    bool joined;  ///< false for the leader, true for followers
  };

  void insert_locked(std::uint64_t key, const std::string& payload);
  std::vector<Waiter> take_waiters_locked(std::uint64_t key);

  mutable std::mutex mutex_;
  std::size_t capacity_;
  /// Front = most recently used.
  std::list<std::pair<std::uint64_t, std::string>> lru_;
  std::unordered_map<std::uint64_t, std::list<std::pair<std::uint64_t, std::string>>::iterator>
      index_;
  std::unordered_map<std::uint64_t, std::vector<Waiter>> in_flight_;
};

}  // namespace lamps::net
