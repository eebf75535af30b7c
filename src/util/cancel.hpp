// Cooperative cancellation with deadline watchdogs.
//
// The experiment sweep gives every (instance, strategy) cell a wall-clock
// budget; a pathological cell (an exact-bound blowup, an adversarial graph)
// must stop burning CPU without taking the process down.  Preemption is off
// the table — the schedulers are pure compute — so cancellation is
// cooperative: the cell owner installs a CancelToken for the current thread
// (CancelScope), and the long-running loops (list-scheduler event loop,
// exact branch-and-bound, LAMPS search probes) call cancel_checkpoint(),
// which throws TimeoutError once the budget is exhausted.
//
// Cost discipline: cancel_checkpoint() is called from scheduling hot loops,
// so it reads the clock only every kPollStride calls (a thread-local
// countdown; everything else is one pointer load and a decrement).  With a
// stride of 256 and event-loop iterations in the tens of nanoseconds, the
// detection latency is microseconds — noise against budgets of seconds.
//
// Tokens do not propagate across threads automatically: a token covers
// the work its installing thread runs (a configuration search runs on the
// thread that calls it).
#pragma once

#include <atomic>
#include <chrono>

namespace lamps {

/// One cancellable unit of work: an explicit cancel() flag plus an optional
/// wall-clock deadline.  Immovable (threads poll its address); create one
/// per cell on the stack and install it with CancelScope.
class CancelToken {
 public:
  /// `budget_seconds <= 0` means no deadline (explicit cancel() only).
  explicit CancelToken(double budget_seconds = 0.0);

  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Requests cancellation (thread-safe, idempotent).
  void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }

  [[nodiscard]] bool cancel_requested() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// True once cancelled or past the deadline (reads the clock).
  [[nodiscard]] bool expired() const noexcept;

  /// Throws TimeoutError (code E_TIMEOUT for deadline expiry, E_CANCELLED
  /// for explicit cancellation) when expired; `where` names the polling
  /// loop for the error context.
  void check(const char* where) const;

  [[nodiscard]] double budget_seconds() const noexcept { return budget_seconds_; }

 private:
  std::atomic<bool> cancelled_{false};
  bool has_deadline_{false};
  double budget_seconds_{0.0};
  std::chrono::steady_clock::time_point deadline_{};
};

/// The token installed for the current thread, nullptr when none.
[[nodiscard]] CancelToken* current_cancel_token() noexcept;

/// RAII: installs `token` as the current thread's token, restoring the
/// previous one on destruction (scopes nest; the innermost wins).
class CancelScope {
 public:
  explicit CancelScope(CancelToken* token) noexcept;
  ~CancelScope();
  CancelScope(const CancelScope&) = delete;
  CancelScope& operator=(const CancelScope&) = delete;

 private:
  CancelToken* previous_;
};

/// Polls the current thread's token (no-op without one).  Reads the clock
/// only every kPollStride calls; an explicit cancel() is seen on the next
/// stride boundary.  Throws TimeoutError via CancelToken::check.
void cancel_checkpoint(const char* where);

inline constexpr unsigned kCancelPollStride = 256;

}  // namespace lamps
