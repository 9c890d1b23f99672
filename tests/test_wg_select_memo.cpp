// Warp-group selection memo equivalence: WgPolicy skips a selection
// whose failure is memoized on the controller's selection epoch, reuses
// per-group (head_seq, oldest) summaries cached on the index version,
// and short-circuits "does not fit" verdicts memoized on the blocking
// bank's fit epoch.  None of this may change a decision, so a run with
// the memos must be bit-identical to a run that forgets them before
// every step (DESIGN.md, "Incremental warp-group index").
//
// The comparison goes through exp::metrics_from, the same flattening the
// sweep artifacts use, and then through every raw WgStats counter of
// every controller.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "core/policy_wg.hpp"
#include "exp/executor.hpp"
#include "sim/simulator.hpp"

namespace latdiv {
namespace {

SimConfig small_cfg(SchedulerKind sched, const char* workload) {
  SimConfig cfg;
  cfg.shrink_for_tests();
  cfg.scheduler = sched;
  cfg.workload = profile_by_name(workload);
  return cfg;
}

WgPolicy* wg_policy(Simulator& sim, std::size_t partition) {
  return dynamic_cast<WgPolicy*>(&sim.partition(partition).mc().policy());
}

/// Every raw WgStats counter of every controller, in partition order.
std::vector<double> wg_counters(Simulator& sim, const SimConfig& cfg) {
  std::vector<double> out;
  for (std::size_t p = 0; p < cfg.icnt.partitions; ++p) {
    const WgStats* s = sim.partition(p).mc().policy().wg_stats();
    if (s == nullptr) continue;
    for (const std::uint64_t n :
         {s->groups_completed, s->groups_selected, s->fallback_selections,
          s->merb_deferrals, s->orphan_topups, s->coord_msgs_applied,
          s->writeaware_selections, s->shared_boosts}) {
      out.push_back(static_cast<double>(n));
    }
    out.push_back(static_cast<double>(s->group_size.count()));
    out.push_back(s->group_size.sum());
    out.push_back(s->group_size.max());
  }
  return out;
}

/// Run `cfg` with the selection memos off (forgotten before every step)
/// and on; every metric and every WG counter must match.
void expect_equivalent(const SimConfig& cfg) {
  Simulator off(cfg);
  std::size_t wg_controllers = 0;
  for (std::size_t p = 0; p < cfg.icnt.partitions; ++p) {
    if (wg_policy(off, p) != nullptr) ++wg_controllers;
  }
  ASSERT_EQ(wg_controllers, cfg.icnt.partitions) << "not a WG-family run";
  while (off.now() < cfg.max_cycles) {
    for (std::size_t p = 0; p < cfg.icnt.partitions; ++p) {
      wg_policy(off, p)->forget_select_memo();
    }
    off.step();
  }
  const RunResult off_result = off.finish();

  Simulator on(cfg);
  const RunResult on_result = on.run();

  EXPECT_EQ(exp::metrics_from(off_result), exp::metrics_from(on_result));
  EXPECT_EQ(off_result.instructions, on_result.instructions);
  EXPECT_EQ(off_result.dram_reads, on_result.dram_reads);
  EXPECT_EQ(off_result.dram_writes, on_result.dram_writes);
  EXPECT_EQ(off_result.dram_activates, on_result.dram_activates);
  EXPECT_EQ(off_result.coord_messages, on_result.coord_messages);
  EXPECT_EQ(off_result.wg_groups_selected, on_result.wg_groups_selected);
  EXPECT_EQ(off_result.wg_fallback_selections,
            on_result.wg_fallback_selections);
  EXPECT_EQ(off_result.wg_merb_deferrals, on_result.wg_merb_deferrals);
  EXPECT_EQ(off_result.wg_writeaware_selections,
            on_result.wg_writeaware_selections);
  EXPECT_EQ(off_result.wg_shared_boosts, on_result.wg_shared_boosts);
  EXPECT_EQ(wg_counters(off, cfg), wg_counters(on, cfg));
  EXPECT_GT(on_result.wg_groups_selected, 0u);
}

struct MemoCase {
  const char* name;
  SchedulerKind sched;
  Cycle fallback_age;  ///< 0 keeps the WgConfig default
};

void PrintTo(const MemoCase& c, std::ostream* os) { *os << c.name; }

class WgSelectMemo : public ::testing::TestWithParam<MemoCase> {
 protected:
  [[nodiscard]] SimConfig cfg_for(const char* workload) const {
    SimConfig cfg = small_cfg(GetParam().sched, workload);
    if (GetParam().fallback_age != 0) {
      cfg.wg.fallback_age = GetParam().fallback_age;
    }
    return cfg;
  }
};

INSTANTIATE_TEST_SUITE_P(
    Schedulers, WgSelectMemo,
    ::testing::Values(MemoCase{"WG", SchedulerKind::kWg, 0},
                      MemoCase{"WG_M", SchedulerKind::kWgM, 0},
                      MemoCase{"WG_Bw", SchedulerKind::kWgBw, 0},
                      MemoCase{"WG_W", SchedulerKind::kWgW, 0},
                      MemoCase{"WG_Sh", SchedulerKind::kWgShared, 0},
                      // Frequent age-gated fallbacks exercise the
                      // time-bounded skip memo.
                      MemoCase{"WG_ShortFallbackAge", SchedulerKind::kWg,
                               32}),
    [](const auto& info) { return std::string(info.param.name); });

TEST_P(WgSelectMemo, IdenticalResultsOnIrregularWorkload) {
  expect_equivalent(cfg_for("bfs"));
}

TEST_P(WgSelectMemo, IdenticalResultsUnderWritePressure) {
  // spmv is the most write-intensive profile: drain-mode flips and the
  // WG-W write-aware tier both move the selection epoch.
  expect_equivalent(cfg_for("spmv"));
}

}  // namespace
}  // namespace latdiv
