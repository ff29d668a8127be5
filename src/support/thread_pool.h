// One background worker draining a FIFO task queue: the MaterialPool
// producer (runtime/material_pool.h) garbles its artifacts on it, one
// at a time. Deliberately minimal — a mutex-protected queue — because
// each task is a whole garbling.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>

namespace deepsecure {

class ThreadPool {
 public:
  ThreadPool();
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Fire-and-forget task submission; tasks run in submission order.
  /// The destructor drains the queue — every submitted task still runs
  /// before join — so tasks must stay valid until the pool is gone and
  /// should check a stop flag if their work can be moot. Tasks must not
  /// throw: an escaping exception would terminate the worker thread.
  void submit(std::function<void()> task);

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::thread worker_;  // last: starts after the members it reads
};

}  // namespace deepsecure
