#include "common/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <exception>

#include "common/logging.h"
#include "common/run_context.h"

namespace sliceline {

ThreadPool::ThreadPool(size_t num_threads, bool inline_when_single) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  if (num_threads <= 1 && inline_when_single) return;  // inline mode
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Run(std::function<void()> task) {
  if (threads_.empty()) {
    task();
    return;
  }
  Submit(std::move(task));
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t count,
                             const std::function<void(size_t)>& body) {
  ParallelForRange(count, [&body](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) body(i);
  });
}

bool ThreadPool::ParallelForRange(
    size_t count, const RunContext* ctx,
    const std::function<void(size_t, size_t)>& body) {
  if (ctx == nullptr) {
    ParallelForRange(count, body);
    return true;
  }
  std::atomic<bool> skipped{false};
  ParallelForRange(count, [&](size_t begin, size_t end) {
    if (ctx->ShouldStop()) {
      skipped.store(true, std::memory_order_relaxed);
      return;
    }
    body(begin, end);
  });
  return !skipped.load(std::memory_order_relaxed);
}

void ThreadPool::ParallelForRange(
    size_t count, const std::function<void(size_t, size_t)>& body) {
  if (count == 0) return;
  const size_t workers = num_threads();
  if (workers <= 1 || count == 1) {
    body(0, count);
    return;
  }
  const size_t num_chunks = std::min(count, workers * 4);
  const size_t chunk = (count + num_chunks - 1) / num_chunks;
  // Guarded by done_mutex. The last chunk decrements and notifies under the
  // lock, so the caller cannot return (destroying these locals) while a
  // worker still touches them.
  size_t remaining = 0;
  std::mutex done_mutex;
  std::condition_variable done_cv;
  // A throwing chunk must not escape WorkerLoop (that would terminate the
  // process); the first exception is captured here and rethrown on the
  // calling thread once every chunk has drained.
  std::exception_ptr first_error;
  std::atomic<bool> has_error{false};
  size_t launched = 0;
  for (size_t begin = 0; begin < count; begin += chunk) {
    ++launched;
  }
  remaining = launched;
  for (size_t begin = 0; begin < count; begin += chunk) {
    const size_t end = std::min(begin + chunk, count);
    Submit([&, begin, end] {
      try {
        body(begin, end);
      } catch (...) {
        if (!has_error.exchange(true, std::memory_order_acq_rel)) {
          first_error = std::current_exception();
        }
      }
      std::lock_guard<std::mutex> lock(done_mutex);
      if (--remaining == 0) done_cv.notify_one();
    });
  }
  {
    std::unique_lock<std::mutex> lock(done_mutex);
    done_cv.wait(lock, [&] { return remaining == 0; });
  }
  if (has_error.load(std::memory_order_acquire)) {
    std::rethrow_exception(first_error);
  }
}

namespace {

size_t DefaultPoolThreads() {
  size_t n = 0;
  if (const char* env = std::getenv("SLICELINE_NUM_THREADS")) {
    n = static_cast<size_t>(std::atoll(env));
  }
  return n;
}

/// Slot holding the process-wide pool; indirection (rather than a static
/// ThreadPool value) lets ResizeGlobalThreadPoolForTesting swap it.
ThreadPool*& GlobalPoolSlot() {
  static ThreadPool* pool = new ThreadPool(DefaultPoolThreads());
  return pool;
}

}  // namespace

ThreadPool& GlobalThreadPool() { return *GlobalPoolSlot(); }

void ResizeGlobalThreadPoolForTesting(size_t num_threads) {
  ThreadPool*& slot = GlobalPoolSlot();
  const size_t target = num_threads == 0 ? DefaultPoolThreads() : num_threads;
  // ThreadPool(0) resolves to hardware concurrency inside the constructor,
  // so compare against the slot's resolved size only when an explicit size
  // was requested.
  if (num_threads != 0 && slot->num_threads() == target) return;
  ThreadPool* replacement = new ThreadPool(target);
  delete slot;
  slot = replacement;
}

}  // namespace sliceline
