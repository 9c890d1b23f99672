// The traced serial core: the simulator's components wired from their
// public constructors and advanced by a step loop that mirrors
// Simulator::step(), with every layer call timed by a Profiler.
//
// Two forwarding wrappers put the virtual layers under the profiler
// without touching the library: TimedPolicy wraps each controller's
// TransactionScheduler, TimedSource wraps the instruction source.  Both
// forward every virtual the simulation calls, so the wrapped run is the
// same simulation.
//
// Parity: counters() flattens every public statistic of the component
// set (per SM, per partition, per controller, per channel, tracker,
// crossbar, coordination network, IPC).  reference_counters() produces the
// same list from a library Simulator, and diff_counters() names the first
// counter that differs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/coordination.hpp"
#include "gpu/partition.hpp"
#include "gpu/sm.hpp"
#include "gpu/tracker.hpp"
#include "icnt/crossbar.hpp"
#include "profiler.hpp"
#include "sim/config.hpp"
#include "sim/simulator.hpp"

namespace latbench {

using latdiv::Cycle;

/// Forwards every TransactionScheduler virtual to `inner`, timing each
/// call as `layer` (core.wg for the WG family, mc.policy otherwise).
class TimedPolicy final : public latdiv::TransactionScheduler {
 public:
  TimedPolicy(std::unique_ptr<latdiv::TransactionScheduler> inner,
              Profiler& prof);

  [[nodiscard]] const char* name() const override { return inner_->name(); }
  void schedule_reads(latdiv::MemoryController& mc, Cycle now) override;
  void schedule_writes(latdiv::MemoryController& mc, Cycle now) override;
  void on_push(latdiv::MemoryController& mc, const latdiv::MemRequest& req,
               Cycle now) override;
  void on_group_complete(latdiv::MemoryController& mc,
                         const latdiv::WarpTag& tag, Cycle now) override;
  void on_remote_selection(latdiv::MemoryController& mc,
                           const latdiv::CoordMsg& msg, Cycle now) override;
  void on_drain_start(latdiv::MemoryController& mc, Cycle now) override;
  [[nodiscard]] bool wants_interleaved_writes() const override {
    return inner_->wants_interleaved_writes();
  }
  [[nodiscard]] const latdiv::WgStats* wg_stats() const override {
    return inner_->wg_stats();
  }
  [[nodiscard]] bool quiescent() const override { return inner_->quiescent(); }

 private:
  std::unique_ptr<latdiv::TransactionScheduler> inner_;
  Profiler& prof_;
  Layer layer_;
};

/// Forwards InstrSource::next, timing each call as `layer`.
class TimedSource final : public latdiv::InstrSource {
 public:
  TimedSource(std::unique_ptr<latdiv::InstrSource> inner, Profiler& prof,
              Layer layer)
      : inner_(std::move(inner)), prof_(prof), layer_(layer) {}

  [[nodiscard]] latdiv::WarpInstr next(latdiv::SmId sm,
                                       latdiv::WarpId warp) override {
    const Scope s(prof_, layer_);
    return inner_->next(sm, warp);
  }

 private:
  std::unique_ptr<latdiv::InstrSource> inner_;
  Profiler& prof_;
  Layer layer_;
};

using CounterList = std::vector<std::pair<std::string, double>>;

class TracedSim {
 public:
  TracedSim(const latdiv::SimConfig& cfg, Profiler& prof);

  /// One global cycle, exactly as Simulator::step() on the serial core.
  void step();
  void run_to(Cycle stop) {
    while (now_ < stop) step();
  }
  [[nodiscard]] Cycle now() const { return now_; }

  /// Warmup-excluded IPC, computed as Simulator::collect() does.
  [[nodiscard]] double ipc() const;
  [[nodiscard]] CounterList counters() const;

  [[nodiscard]] const latdiv::Sm& sm(std::size_t i) const {
    return *sms_[i];
  }
  [[nodiscard]] const latdiv::Partition& partition(std::size_t i) const {
    return *partitions_[i];
  }
  [[nodiscard]] std::size_t sms() const { return sms_.size(); }
  [[nodiscard]] std::size_t partitions() const { return partitions_.size(); }
  [[nodiscard]] const latdiv::Crossbar& xbar() const { return xbar_; }
  [[nodiscard]] const latdiv::CoordinationNetwork& coord() const {
    return *coord_;
  }

 private:
  [[nodiscard]] std::unique_ptr<latdiv::TransactionScheduler> make_policy()
      const;
  [[nodiscard]] std::uint64_t total_instructions() const;

  latdiv::SimConfig cfg_;
  Profiler& prof_;
  latdiv::DramTiming timing_;
  latdiv::AddressMap amap_;
  TimedSource source_;
  latdiv::InstrTracker tracker_;
  latdiv::Crossbar xbar_;
  std::vector<std::unique_ptr<latdiv::Partition>> partitions_;
  std::vector<std::unique_ptr<latdiv::Sm>> sms_;
  std::unique_ptr<latdiv::CoordinationNetwork> coord_;
  Cycle now_ = 0;
  Cycle warmup_done_at_ = 0;
  std::uint64_t warmup_instructions_ = 0;
};

/// The same counter list, read from a library Simulator that has been run
/// to the same cycle.  `result` is its finish() output: Simulator keeps its
/// crossbar and coordination network private, so their counters (and the
/// IPC) come from there.
[[nodiscard]] CounterList reference_counters(latdiv::Simulator& sim,
                                             const latdiv::RunResult& result);

/// Empty when equal, else "<counter>: traced X, reference Y" for the
/// first mismatch (or a length mismatch).
[[nodiscard]] std::string diff_counters(const CounterList& traced,
                                        const CounterList& reference);

}  // namespace latbench
