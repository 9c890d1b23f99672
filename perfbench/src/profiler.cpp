#include "profiler.hpp"

#include <time.h>

namespace latbench {

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kSm: return "gpu.sm";
    case Layer::kIcnt: return "icnt";
    case Layer::kPartition: return "gpu.partition";
    case Layer::kMc: return "mc";
    case Layer::kPolicy: return "mc.policy";
    case Layer::kWg: return "core.wg";
    case Layer::kCoord: return "core.coord";
    case Layer::kWorkload: return "workload";
    case Layer::kScenario: return "scenario";
    case Layer::kCount: break;
  }
  return "?";
}

std::uint64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

namespace {

struct Origin {
  std::uint64_t ns = now_ns();
  std::uint64_t ticks = latbench::ticks();
};
const Origin kOrigin;

}  // namespace

double ns_per_tick() {
  const std::uint64_t dt = ticks() - kOrigin.ticks;
  return dt == 0 ? 1.0
                 : static_cast<double>(now_ns() - kOrigin.ns) /
                       static_cast<double>(dt);
}

double Profiler::total_self_ns() const {
  std::uint64_t total = 0;
  for (const std::uint64_t t : self_ticks_) total += t;
  return static_cast<double>(total) * ns_per_tick();
}

}  // namespace latbench
