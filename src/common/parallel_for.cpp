#include "common/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "common/annotations.hpp"

namespace latdiv {

void parallel_for(std::size_t n, unsigned jobs,
                  const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  Mutex mu;
  std::exception_ptr error LATDIV_GUARDED_BY(mu);
  const auto drain = [&] {
    try {
      for (std::size_t i;
           (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
        fn(i);
      }
    } catch (...) {
      next.store(n, std::memory_order_relaxed);  // stop handing out work
      const MutexLock lock(mu);
      if (!error) error = std::current_exception();
    }
  };
  std::vector<std::thread> helpers;
  const auto join_all = [&helpers] {
    for (std::thread& t : helpers) t.join();
  };
  const std::size_t threads = std::min<std::size_t>(std::max(jobs, 1u), n);
  try {
    for (std::size_t t = 1; t < threads; ++t) helpers.emplace_back(drain);
  } catch (...) {  // thread creation failed: stop the ones already running
    next.store(n, std::memory_order_relaxed);
    join_all();
    throw;
  }
  drain();
  join_all();
  const MutexLock lock(mu);
  if (error) std::rethrow_exception(error);
}

}  // namespace latdiv
