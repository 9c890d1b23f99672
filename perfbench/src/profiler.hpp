// Per-layer host-time accounting for the traced step loop.
//
// Every timed call into a simulator layer opens a Scope.  Scopes nest (an
// SM tick calls into its instruction source; a partition tick pushes into
// its controller, which notifies the policy), so each layer is charged
// its *self* time: the scope's elapsed time minus the time of the scopes
// nested inside it.  The self times of all layers plus the untimed glue of
// the step loop add up to the loop's wall time.
//
// Scopes read the CPU timestamp counter (a few ns per read on x86-64,
// against ~20 ns for clock_gettime) and convert ticks to nanoseconds with
// a ratio calibrated against the monotonic clock over the whole process
// lifetime.  Other targets read the monotonic clock directly.
//
// Single-threaded by design: the traced run drives one point at a time.
#pragma once

#include <array>
#include <cstdint>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace latbench {

enum class Layer : std::uint8_t {
  kSm,         ///< Sm::tick (issue, coalescer, L1, LSU)
  kIcnt,       ///< Crossbar::tick
  kPartition,  ///< Partition::tick_core (L2 pipeline, fills, responses)
  kMc,         ///< Partition::tick_dram (controller + DRAM channel)
  kPolicy,     ///< TransactionScheduler calls of a non-WG policy
  kWg,         ///< TransactionScheduler calls of a WG-family policy
  kCoord,      ///< CoordinationNetwork::tick
  kWorkload,   ///< InstrSource::next of the statistical generator
  kScenario,   ///< InstrSource::next of a scenario microkernel
  kCount,
};

inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

/// Metric-name stem of a layer ("gpu.sm", "mc.policy", ...).
[[nodiscard]] const char* layer_name(Layer l);

/// Monotonic host clock in nanoseconds.
[[nodiscard]] std::uint64_t now_ns();

/// Cheap timestamp for scopes, in ticks.
[[nodiscard]] inline std::uint64_t ticks() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return now_ns();
#endif
}

/// Nanoseconds per tick, calibrated from process start to now.
[[nodiscard]] double ns_per_tick();

class Profiler {
 public:
  void enter(Layer l) {
    Frame& f = stack_[depth_++];
    f.layer = l;
    f.child_ticks = 0;
    f.start = ticks();
  }
  void leave() {
    const std::uint64_t end = ticks();
    Frame& f = stack_[--depth_];
    const std::uint64_t elapsed = end - f.start;
    const auto i = static_cast<std::size_t>(f.layer);
    self_ticks_[i] += elapsed - f.child_ticks;
    ++calls_[i];
    if (depth_ > 0) stack_[depth_ - 1].child_ticks += elapsed;
  }

  [[nodiscard]] double self_ns(Layer l) const {
    return static_cast<double>(self_ticks_[static_cast<std::size_t>(l)]) *
           ns_per_tick();
  }
  [[nodiscard]] std::uint64_t calls(Layer l) const {
    return calls_[static_cast<std::size_t>(l)];
  }
  [[nodiscard]] double total_self_ns() const;

 private:
  struct Frame {
    Layer layer = Layer::kSm;
    std::uint64_t start = 0;
    std::uint64_t child_ticks = 0;
  };
  // Deepest nesting is step -> partition -> controller push -> policy
  // notification; 8 leaves room for future layers.
  std::array<Frame, 8> stack_{};
  std::size_t depth_ = 0;
  std::array<std::uint64_t, kLayerCount> self_ticks_{};
  std::array<std::uint64_t, kLayerCount> calls_{};
};

class Scope {
 public:
  Scope(Profiler& p, Layer l) : p_(p) { p_.enter(l); }
  ~Scope() { p_.leave(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Profiler& p_;
};

}  // namespace latbench
