#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>

#include "support/assert.hpp"

namespace sepdc::par {

TaskGroup::~TaskGroup() {
  // A group must not be destroyed with tasks in flight.
  SEPDC_CHECK_MSG(pending_.load(std::memory_order_relaxed) == 0,
                  "TaskGroup destroyed with pending tasks; call wait()");
}

void TaskGroup::run(std::function<void()> fn) {
  pending_.fetch_add(1, std::memory_order_relaxed);
  pool_.enqueue(ThreadPool::Task{std::move(fn), this});
}

void TaskGroup::wait() {
  pool_.wait_for(*this);
  std::exception_ptr err;
  {
    LockGuard lock(error_mutex_);
    err = first_error_;
    first_error_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

void TaskGroup::record_error(std::exception_ptr e) {
  LockGuard lock(error_mutex_);
  if (!first_error_) first_error_ = e;
}

Waitable& Waitable::operator=(Waitable&& other) noexcept {
  if (this != &other) {
    if (group_) {
      try {
        group_->wait();
      } catch (...) {
      }
    }
    group_ = std::move(other.group_);
  }
  return *this;
}

Waitable::~Waitable() {
  if (group_) {
    try {
      group_->wait();
    } catch (...) {
      // Errors from an abandoned handle are dropped; wait() explicitly
      // when the outcome matters.
    }
  }
}

void Waitable::wait() {
  if (!group_) return;
  // Destroy the group even if wait() throws: a rethrown error still means
  // every task finished (wait() drains before rethrowing).
  auto group = std::move(group_);
  group->wait();
}

unsigned ThreadPool::resolve_workers(unsigned threads) {
  unsigned n = threads ? threads : std::thread::hardware_concurrency();
  if (n == 0) n = 1;
  return n - 1;  // the calling thread participates via helping waits
}

ThreadPool::ThreadPool(unsigned threads) : workers_(resolve_workers(threads)) {
  threads_.reserve(workers_);
  for (unsigned i = 0; i < workers_; ++i)
    threads_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    LockGuard lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (auto& t : threads_) t.join();
  LockGuard lock(mutex_);
  SEPDC_ASSERT(queue_.empty());
}

Waitable ThreadPool::submit(std::function<void()> fn) {
  auto group = std::make_unique<TaskGroup>(*this);
  group->run(std::move(fn));
  return Waitable(std::move(group));
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    if (const char* env = std::getenv("SEPDC_THREADS")) {
      int v = std::atoi(env);
      if (v > 0) return static_cast<unsigned>(v);
    }
    return 0u;
  }());
  return pool;
}

void ThreadPool::enqueue(Task task) {
  task.enqueued = Clock::now();
  {
    LockGuard lock(mutex_);
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

namespace {
std::uint64_t ns_between(std::chrono::steady_clock::time_point a,
                         std::chrono::steady_clock::time_point b) {
  auto d = std::chrono::duration_cast<std::chrono::nanoseconds>(b - a);
  return d.count() > 0 ? static_cast<std::uint64_t>(d.count()) : 0;
}

// Wall time of the tasks this thread ran, summed per nesting level: a
// task that helps inside a wait runs other tasks on its own stack, and
// their time must not count again in its own.
thread_local std::uint64_t t_nested_run_ns = 0;
}  // namespace

void ThreadPool::run_task(Task task) {
  Clock::time_point start = Clock::now();
  task_wait_.record(ns_between(task.enqueued, start));
  const std::uint64_t outer_nested = std::exchange(t_nested_run_ns, 0);
  try {
    task.fn();
  } catch (...) {
    task.group->record_error(std::current_exception());
  }
  const std::uint64_t run_ns = ns_between(start, Clock::now());
  // Self time: what the tasks run while helping took is theirs.
  const std::uint64_t self_ns = run_ns - std::min(run_ns, t_nested_run_ns);
  t_nested_run_ns = outer_nested + run_ns;
  task_run_.record(self_ns);
  busy_ns_.fetch_add(self_ns, std::memory_order_relaxed);
  tasks_executed_.fetch_add(1, std::memory_order_relaxed);
  task.group->pending_.fetch_sub(1, std::memory_order_acq_rel);
  task_done_.notify_all();
}

ThreadPoolStats ThreadPool::stats() const {
  ThreadPoolStats s;
  s.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
  s.busy_ns = busy_ns_.load(std::memory_order_relaxed);
  s.lifetime_ns = ns_between(created_, Clock::now());
  s.concurrency = concurrency();
  s.task_wait = task_wait_.snapshot();
  s.task_run = task_run_.snapshot();
  return s;
}

bool ThreadPool::try_run_one() {
  Task task;
  {
    LockGuard lock(mutex_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  run_task(std::move(task));
  return true;
}

void ThreadPool::worker_loop() {
  for (;;) {
    Task task;
    {
      UniqueLock lock(mutex_);
      while (!stopping_ && queue_.empty()) work_available_.wait(lock);
      if (stopping_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    run_task(std::move(task));
  }
}

void ThreadPool::wait_for(TaskGroup& group) {
  // Help drain the queue; when no work is runnable but the group is still
  // pending, block until some task (anywhere) finishes, then re-check.
  while (group.pending_.load(std::memory_order_acquire) != 0) {
    if (try_run_one()) continue;
    UniqueLock lock(mutex_);
    if (group.pending_.load(std::memory_order_acquire) == 0) return;
    if (!queue_.empty()) continue;
    task_done_.wait_for(lock, std::chrono::milliseconds(1));
  }
}

}  // namespace sepdc::par
