// The one thread pool: run fn(i) for every i in [0, n) on up to `jobs`
// threads.  Both parallel axes use it — the sweep executor's --jobs
// (exp::run_grid) and the sampled-window fan-out (ckpt::run_sampled).
//
// Indices are claimed from a shared atomic counter, so a slow index never
// holds up the others; the calling thread claims indices too, and the
// call joins every thread it spawned before returning.  No ordering is
// imposed on execution: callers write each index's result into its own
// slot, which is what keeps their output independent of `jobs`.
#pragma once

#include <cstddef>
#include <functional>

namespace latdiv {

/// Run fn(i) once for every i in [0, n), on min(jobs, n) threads counting
/// the caller (jobs <= 1 runs serially on the caller).  Every call's work
/// happens-before the return.  If fn throws, no further indices are
/// started, every thread is joined, and the first exception is rethrown
/// on the caller.
void parallel_for(std::size_t n, unsigned jobs,
                  const std::function<void(std::size_t)>& fn);

}  // namespace latdiv
