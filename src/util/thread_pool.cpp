#include "util/thread_pool.hpp"

#include <algorithm>
#include <string>

#include "obs/metrics.hpp"

namespace lamps {

namespace {

// Shared across pools (the registry aggregates); 1 µs .. ~4 s buckets
// cover everything from a small serve request to a full experiment
// instance.
obs::Histogram& wait_hist() {
  static obs::Histogram& h = obs::histogram(
      "threadpool.task_wait_seconds", obs::Histogram::exponential_bounds(1e-6, 4.0, 12));
  return h;
}
obs::Histogram& run_hist() {
  static obs::Histogram& h = obs::histogram(
      "threadpool.task_run_seconds", obs::Histogram::exponential_bounds(1e-6, 4.0, 12));
  return h;
}
obs::Gauge& queue_gauge() {
  static obs::Gauge& g = obs::gauge("threadpool.queue_depth");
  return g;
}
obs::Gauge& active_gauge() {
  static obs::Gauge& g = obs::gauge("threadpool.active_workers");
  return g;
}
obs::Counter& submitted_counter() {
  static obs::Counter& c = obs::counter("threadpool.tasks_submitted");
  return c;
}

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lock(mutex_);
    stopping_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

std::size_t ThreadPool::queued() const {
  std::scoped_lock lock(mutex_);
  return queue_.size();
}

std::size_t ThreadPool::active() const {
  std::scoped_lock lock(mutex_);
  return in_flight_;
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  if (!task) throw std::invalid_argument("ThreadPool::submit: empty task");
  std::promise<void> done;
  std::future<void> fut = done.get_future();
  {
    std::scoped_lock lock(mutex_);
    if (stopping_)
      throw std::logic_error("ThreadPool::submit after shutdown (workers=" +
                             std::to_string(workers_.size()) +
                             ", queued=" + std::to_string(queue_.size()) +
                             ", active=" + std::to_string(in_flight_) + ")");
    queue_.push_back(
        QueuedTask{std::move(task), std::move(done), std::chrono::steady_clock::now()});
    queue_gauge().set(static_cast<std::int64_t>(queue_.size()));
  }
  submitted_counter().inc();
  cv_work_.notify_one();
  return fut;
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    QueuedTask task;
    {
      std::unique_lock lock(mutex_);
      cv_work_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      queue_gauge().set(static_cast<std::int64_t>(queue_.size()));
      ++in_flight_;
    }
    const auto started = std::chrono::steady_clock::now();
    wait_hist().observe(seconds_between(task.enqueued, started));
    active_gauge().add(1);
    // Exceptions are captured into the submitting future, not swallowed:
    // the worker survives, and the caller sees the original exception.
    try {
      task.fn();
      task.done.set_value();
    } catch (...) {
      task.done.set_exception(std::current_exception());
    }
    active_gauge().add(-1);
    run_hist().observe(seconds_between(started, std::chrono::steady_clock::now()));
    {
      std::scoped_lock lock(mutex_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

void parallel_for_index(ThreadPool& pool, std::size_t count,
                        const std::function<void(std::size_t)>& body) {
  std::vector<std::future<void>> futures;
  futures.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    futures.push_back(pool.submit([&body, i] { body(i); }));
  pool.wait_idle();
  // All indices have run; surface the lowest failed index's exception so
  // the outcome is deterministic at any thread count.
  std::exception_ptr first;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

}  // namespace lamps
