#include "util/thread_pool.hpp"

#include <algorithm>
#include <memory>
#include <utility>

namespace autopn::util {

ThreadPool::ThreadPool(std::size_t workers) {
  const std::size_t count = std::max<std::size_t>(1, workers);
  threads_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lock{mutex_};
    stopping_ = true;
  }
  cv_.notify_all();
  // jthread joins in its destructor.
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::scoped_lock lock{mutex_};
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

bool ThreadPool::pop_task(std::function<void()>& task, bool block) {
  std::unique_lock lock{mutex_};
  if (block) {
    cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
  }
  if (queue_.empty()) return false;
  task = std::move(queue_.front());
  queue_.pop_front();
  return true;
}

bool ThreadPool::try_run_one() {
  std::function<void()> task;
  if (!pop_task(task, /*block=*/false)) return false;
  task();
  return true;
}

void ThreadPool::worker_loop() {
  std::function<void()> task;
  while (pop_task(task, /*block=*/true)) {
    task();
    task = nullptr;
  }
}

void ThreadPool::run_and_wait(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  auto wg = std::make_shared<WaitGroup>();
  wg->add(tasks.size());
  for (auto& t : tasks) {
    submit([wg, body = std::move(t)] {
      body();
      wg->done();
    });
  }
  // Help drain the queue before each wait (steal any queued task; helping
  // others still makes global progress and avoids deadlock when callers block
  // inside workers).
  using namespace std::chrono_literals;
  do {
    while (try_run_one()) {
    }
  } while (!wg->wait_for(200us));
}

}  // namespace autopn::util
