// The benchmark's workloads and the two ways of running them.
//
//   run_workload    tracing off: set up, then repeat the whole workload
//                   while the time budget lasts, recording host time
//                   per repetition and per point plus an output digest
//                   per point.
//   trace_workload  tracing on: drive every point through the traced
//                   serial core (traced_sim.hpp), check parity against the
//                   library Simulator, and report per-layer self time and
//                   work counts.
//
// Both return a raw JSON document; perfbench/run.py turns it into the
// benchmark's metrics and checks outputs against the pinned references.
#pragma once

#include <cstdint>
#include <string>

#include "exp/json.hpp"

namespace latbench {

struct WorkloadDef {
  enum class Kind : std::uint8_t { kSweep, kSampled };
  const char* name;
  Kind kind;
  const char* manifest;  ///< sweep manifest (kSweep)
  bool quick;            ///< quarter-length sweep shape (kSweep)
  unsigned jobs;         ///< executor threads / sampling fan-out
};

/// Null when `name` is not a benchmark workload.
[[nodiscard]] const WorkloadDef* find_workload(const std::string& name);

struct RunArgs {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string filter;     ///< point-id substring (tests; "" = all points)
  unsigned jobs = 0;      ///< override the workload's jobs (0 = keep)
  int min_reps = 3;       ///< repetitions even when the budget is spent
  int setup_reps = 31;    ///< set-up repetitions (median reported)
  std::string artifact;   ///< write the first sweep artifact here
};

[[nodiscard]] latdiv::exp::JsonValue run_workload(const WorkloadDef& w,
                                                  const RunArgs& args);

[[nodiscard]] latdiv::exp::JsonValue trace_workload(const WorkloadDef& w,
                                                    const RunArgs& args,
                                                    const std::string& spans);

/// Straight-through (fully detailed) IPC of every sampled-gmc point: the
/// reference its sampled estimates are scored against.
[[nodiscard]] latdiv::exp::JsonValue straight_ipcs(std::uint64_t seed,
                                                   unsigned jobs);

/// Host and build facts attached to every result.
[[nodiscard]] latdiv::exp::JsonValue provenance();

}  // namespace latbench
