// Integration tests for the controller scaffold: queues, command
// scheduler, write drain, refresh — using the trivial FCFS policy so the
// observed timing is a pure function of the DRAM constraints.
#include "mc/controller.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "dram/params.hpp"
#include "mc/policy_fcfs.hpp"

namespace latdiv {
namespace {

DramTiming timing_no_refresh() {
  DramParams p;
  p.refresh_enabled = false;
  return DramTiming::from(p);
}

MemRequest read_to(BankId bank, RowId row, std::uint32_t col = 0,
                   WarpInstrUid uid = 1) {
  MemRequest r;
  r.kind = ReqKind::kRead;
  r.addr = (static_cast<Addr>(row) << 15) | (static_cast<Addr>(col) << 7);
  r.loc.bank = bank;
  r.loc.bank_group = bank / 4;
  r.loc.row = row;
  r.loc.col = col;
  r.tag.instr = uid;
  return r;
}

MemRequest write_to(BankId bank, RowId row, std::uint32_t col = 0) {
  MemRequest r = read_to(bank, row, col, kNoWarpInstr);
  r.kind = ReqKind::kWrite;
  return r;
}

struct Harness {
  explicit Harness(DramTiming t = timing_no_refresh(), McConfig cfg = {})
      : mc(0, cfg, t,
           std::make_unique<FcfsPolicy>(),
           [this](const MemRequest& req, Cycle at) {
             completions.emplace_back(req, at);
           }) {}

  void run_to(Cycle end) {
    for (; now < end; ++now) mc.tick(now);
  }

  Cycle now = 0;
  std::vector<std::pair<MemRequest, Cycle>> completions;
  MemoryController mc;
};

TEST(Controller, SingleReadColdBankTiming) {
  Harness h;
  h.mc.push(read_to(0, 7), 0);
  h.run_to(200);
  ASSERT_EQ(h.completions.size(), 1u);
  const DramTiming t = timing_no_refresh();
  // ACT at cycle 0, RD at tRCD, data complete tCAS+tBURST later.
  EXPECT_EQ(h.completions[0].first.completed, t.trcd + t.tcas + t.tburst);
}

TEST(Controller, RowHitPairUsesCcd) {
  Harness h;
  h.mc.push(read_to(0, 7, 0), 0);
  h.mc.push(read_to(0, 7, 1), 0);
  h.run_to(300);
  ASSERT_EQ(h.completions.size(), 2u);
  const DramTiming t = timing_no_refresh();
  const Cycle first = h.completions[0].first.completed;
  const Cycle second = h.completions[1].first.completed;
  EXPECT_EQ(second - first, t.tccdl);  // same bank group, back-to-back
}

TEST(Controller, RowMissPaysPrechargeActivate) {
  Harness h;
  h.mc.push(read_to(0, 7), 0);
  h.mc.push(read_to(0, 8), 0);
  h.run_to(400);
  ASSERT_EQ(h.completions.size(), 2u);
  const DramTiming t = timing_no_refresh();
  const Cycle gap =
      h.completions[1].first.completed - h.completions[0].first.completed;
  // Second read waits for tRAS (from ACT@0), then tRP + tRCD.
  EXPECT_GE(gap, t.trp + t.trcd);
}

TEST(Controller, BankParallelismOverlapsActivates) {
  Harness h;
  h.mc.push(read_to(0, 7), 0);
  h.mc.push(read_to(4, 7), 0);  // different bank group
  h.run_to(300);
  ASSERT_EQ(h.completions.size(), 2u);
  const DramTiming t = timing_no_refresh();
  const Cycle gap =
      h.completions[1].first.completed - h.completions[0].first.completed;
  // Much closer than a serialised miss (tRP+tRCD): only the staggered
  // ACT (tRRD) and CAS-to-CAS spacing remain.
  EXPECT_LE(gap, t.trrd + t.tccds + 2);
}

TEST(Controller, CompletionCallbackTimestampsMatch) {
  Harness h;
  h.mc.push(read_to(2, 3), 0);
  h.run_to(200);
  ASSERT_EQ(h.completions.size(), 1u);
  EXPECT_EQ(h.completions[0].first.completed, h.completions[0].second);
}

TEST(Controller, ReadStatsAccumulate) {
  Harness h;
  h.mc.push(read_to(0, 1), 0);
  h.mc.push(read_to(1, 1), 0);
  h.run_to(300);
  EXPECT_EQ(h.mc.stats().reads_served, 2u);
  EXPECT_EQ(h.mc.stats().read_service_cycles.count(), 2u);
  EXPECT_GT(h.mc.stats().read_service_cycles.mean(), 0.0);
}

TEST(Controller, HighWatermarkTriggersDrain) {
  Harness h;
  for (std::uint32_t i = 0; i < 32; ++i) {
    h.mc.push(write_to(i % 16, i / 16), 0);
  }
  EXPECT_FALSE(h.mc.in_write_drain());
  h.run_to(5);
  EXPECT_TRUE(h.mc.in_write_drain());
  EXPECT_EQ(h.mc.stats().drains_started, 1u);
  h.run_to(3000);
  // Drained down to (at most) the low watermark, then stopped.
  EXPECT_FALSE(h.mc.in_write_drain());
  EXPECT_GE(h.mc.stats().writes_served, 16u);
  EXPECT_LE(h.mc.write_queue().size(), 16u);
}

TEST(Controller, OpportunisticDrainWhenIdle) {
  Harness h;
  h.mc.push(write_to(0, 1), 0);
  h.mc.push(write_to(0, 1, 1), 0);
  h.run_to(500);
  // Far below the high watermark, but the read side is idle: the writes
  // drain anyway.
  EXPECT_EQ(h.mc.stats().writes_served, 2u);
  EXPECT_EQ(h.mc.stats().drains_started, 0u);  // not a watermark drain
}

TEST(Controller, ReadsResumeAfterDrain) {
  Harness h;
  for (std::uint32_t i = 0; i < 32; ++i) h.mc.push(write_to(i % 16, 1), 0);
  h.run_to(10);
  h.mc.push(read_to(0, 3), 10);
  h.run_to(4000);
  EXPECT_EQ(h.completions.size(), 1u);
}

TEST(Controller, PredictedRowFollowsQueueTail) {
  Harness h;
  EXPECT_EQ(h.mc.predicted_row(0), kNoRow);
  h.mc.push(read_to(0, 7), 0);
  h.run_to(1);  // scheduled into the bank queue
  EXPECT_EQ(h.mc.predicted_row(0), 7u);
}

TEST(Controller, TailStreakCountsPlannedRun) {
  Harness h;
  McConfig cfg;
  for (int i = 0; i < 3; ++i) h.mc.push(read_to(0, 7, i), 0);
  h.run_to(3);  // FCFS feeds one per cycle
  EXPECT_EQ(h.mc.tail_streak(0), 3u);
  (void)cfg;
}

TEST(Controller, BanksWithWorkCountsNonEmptyQueues) {
  Harness h;
  h.mc.push(read_to(0, 1), 0);
  h.mc.push(read_to(5, 1), 0);
  h.run_to(2);
  EXPECT_EQ(h.mc.banks_with_work(), 2u);
}

TEST(Controller, BankQueueBackpressure) {
  Harness h;
  // 10 reads to one bank with queue depth 8: at most 8 enter immediately.
  for (int i = 0; i < 10; ++i) h.mc.push(read_to(0, i), 0);
  h.run_to(8);
  EXPECT_FALSE(h.mc.bank_queue_has_space(0));
  h.run_to(3000);
  EXPECT_EQ(h.completions.size(), 10u);
}

TEST(Controller, RefreshHappensPeriodically) {
  DramParams p;  // refresh enabled
  const DramTiming t = DramTiming::from(p);
  Harness h(t);
  h.run_to(t.trefi * 3 + 100);
  EXPECT_GE(h.mc.channel().stats().refreshes, 2u);
}

TEST(Controller, RefreshInterruptsTraffic) {
  DramParams p;
  const DramTiming t = DramTiming::from(p);
  Harness h(t);
  // Keep a steady stream of row hits flowing across the refresh point.
  for (int i = 0; i < 40; ++i) h.mc.push(read_to(0, 1, i % 16), 0);
  h.run_to(t.trefi + t.trfc + 2000);
  EXPECT_GE(h.mc.channel().stats().refreshes, 1u);
  EXPECT_EQ(h.completions.size(), 40u);  // nothing lost
}

TEST(Controller, GroupCompleteReachesPolicy) {
  struct Probe : TransactionScheduler {
    const char* name() const override { return "probe"; }
    void schedule_reads(MemoryController&, Cycle) override {}
    void on_group_complete(MemoryController&, const WarpTag& tag,
                           Cycle) override {
      seen.push_back(tag.instr);
    }
    std::vector<WarpInstrUid> seen;
  };
  auto probe = std::make_unique<Probe>();
  Probe* raw = probe.get();
  MemoryController mc(0, McConfig{}, timing_no_refresh(), std::move(probe),
                      nullptr);
  mc.notify_group_complete(WarpTag{0, 0, 42}, 5);
  ASSERT_EQ(raw->seen.size(), 1u);
  EXPECT_EQ(raw->seen[0], 42u);
}

TEST(Controller, CoordinationMessagesRouteToPolicy) {
  struct Probe : TransactionScheduler {
    const char* name() const override { return "probe"; }
    void schedule_reads(MemoryController&, Cycle) override {}
    void on_remote_selection(MemoryController&, const CoordMsg& msg,
                             Cycle) override {
      scores.push_back(msg.score);
    }
    std::vector<std::uint32_t> scores;
  };
  auto probe = std::make_unique<Probe>();
  Probe* raw = probe.get();
  MemoryController mc(0, McConfig{}, timing_no_refresh(), std::move(probe),
                      nullptr);
  mc.deliver_coordination(CoordMsg{1, WarpTag{}, 9}, 3);
  ASSERT_EQ(raw->scores.size(), 1u);
  EXPECT_EQ(raw->scores[0], 9u);
}

TEST(ControllerDeath, BadWatermarksAbort) {
  McConfig cfg;
  cfg.wq_low_watermark = 40;
  cfg.wq_high_watermark = 32;
  EXPECT_DEATH(MemoryController(0, cfg, timing_no_refresh(),
                                std::make_unique<FcfsPolicy>(), nullptr),
               "watermark");
}

// ---------------------------------------------------------------------------
// Command-scheduler differential: the controller issues from cached head
// readiness (Channel::earliest_issue) and skips cycles before the earliest
// head.  RefCommandScheduler is the former per-cycle scan — refresh first,
// then every bank head probed with can_issue in multi-level round-robin
// order — kept as a test-only model on its own channel.  Both are fed the
// same bank-queue pushes and functional row warms; every cycle must issue
// the same command.

/// A policy that moves nothing: the test feeds the bank queues itself.
class NoTransactions final : public TransactionScheduler {
 public:
  [[nodiscard]] const char* name() const override { return "none"; }
  void schedule_reads(MemoryController&, Cycle) override {}
  void schedule_writes(MemoryController&, Cycle) override {}
};

class RefCommandScheduler {
 public:
  explicit RefCommandScheduler(const DramTiming& t)
      : ch_(t), q_(t.banks), rr_bank_in_group_(t.banks / t.banks_per_group) {}

  void push(const MemRequest& req) { q_[req.loc.bank].push_back(req); }
  void warm_row(BankId bank, RowId row) { ch_.warm_row(bank, row); }

  /// One cycle of the former issue_one_command; the command it issued.
  std::optional<DramCommand> tick(Cycle now) {
    const DramTiming& t = ch_.timing();
    if (ch_.refresh_due(now)) {
      if (ch_.all_banks_closed()) {
        const DramCommand ref{DramCmd::kRefresh, 0, kNoRow};
        if (!ch_.can_issue(ref, now)) return std::nullopt;
        ch_.issue(ref, now);
        return ref;
      }
      for (BankId b = 0; b < t.banks; ++b) {
        const DramCommand pre{DramCmd::kPrecharge, b, kNoRow};
        if (ch_.open_row(b) != kNoRow && ch_.can_issue(pre, now)) {
          ch_.issue(pre, now);
          return pre;
        }
      }
      return std::nullopt;
    }
    const std::uint32_t groups = t.banks / t.banks_per_group;
    for (std::uint32_t g_off = 0; g_off < groups; ++g_off) {
      const std::uint32_t g = (rr_group_ + g_off) % groups;
      for (std::uint32_t b_off = 0; b_off < t.banks_per_group; ++b_off) {
        const std::uint32_t in_group =
            (rr_bank_in_group_[g] + b_off) % t.banks_per_group;
        const auto bank = static_cast<BankId>(g * t.banks_per_group + in_group);
        if (q_[bank].empty()) continue;
        const MemRequest& head = q_[bank].front();
        DramCommand cmd;
        const RowId open = ch_.open_row(bank);
        if (open == head.loc.row) {
          cmd = {head.kind == ReqKind::kRead ? DramCmd::kRead : DramCmd::kWrite,
                 bank, head.loc.row};
        } else if (open != kNoRow) {
          cmd = {DramCmd::kPrecharge, bank, kNoRow};
        } else {
          cmd = {DramCmd::kActivate, bank, head.loc.row};
        }
        if (!ch_.can_issue(cmd, now)) continue;
        ch_.issue(cmd, now);
        if (cmd.cmd == DramCmd::kRead || cmd.cmd == DramCmd::kWrite) {
          q_[bank].pop_front();
          rr_bank_in_group_[g] = (in_group + 1) % t.banks_per_group;
          rr_group_ = (g + 1) % groups;
        }
        return cmd;
      }
    }
    return std::nullopt;
  }

 private:
  Channel ch_;
  std::vector<std::deque<MemRequest>> q_;
  std::uint32_t rr_group_ = 0;
  std::vector<std::uint32_t> rr_bank_in_group_;
};

struct IssueCase {
  const char* name;
  bool refresh;
  bool ddr3;          ///< 8 banks in one group instead of GDDR5's 4x4
  double write_frac;  ///< share of pushes that are writes
  bool warm;          ///< functional row warms between cycles
  std::uint64_t seed;
};

void PrintTo(const IssueCase& c, std::ostream* os) { *os << c.name; }

class CommandIssueDifferential : public ::testing::TestWithParam<IssueCase> {};

TEST_P(CommandIssueDifferential, MatchesReferenceScan) {
  const IssueCase ic = GetParam();
  DramParams p = ic.ddr3 ? ddr3_1600_params() : gddr5_params();
  p.refresh_enabled = ic.refresh;
  const DramTiming t = DramTiming::from(p);
  MemoryController mc(0, McConfig{}, t, std::make_unique<NoTransactions>(),
                      nullptr);
  std::optional<DramCommand> issued;
  mc.channel_mut().add_command_observer(
      [&issued](const DramCommand& cmd, Cycle) { issued = cmd; });
  RefCommandScheduler ref(t);
  Rng rng(ic.seed);
  std::uint64_t commands = 0, refreshes = 0, idle = 0, warms = 0;

  for (Cycle now = 0; now < 40'000; ++now) {
    // Bursty arrivals over a few rows per bank, so heads hit, miss and
    // conflict, and queues both fill and drain.
    const bool burst = (now / 1'500) % 3 != 2;
    const std::uint64_t arrivals = rng.below(burst ? 3 : 1);
    for (std::uint64_t i = 0; i < arrivals; ++i) {
      const auto bank = static_cast<BankId>(rng.below(t.banks));
      if (!mc.bank_queue_has_space(bank)) continue;
      MemRequest req = rng.chance(ic.write_frac)
                           ? write_to(bank, static_cast<RowId>(rng.below(4)))
                           : read_to(bank, static_cast<RowId>(rng.below(4)));
      req.loc.bank_group = static_cast<BankGroupId>(bank / t.banks_per_group);
      req.arrived_at_mc = now;
      mc.send_to_bank(req, now);
      ref.push(req);
    }
    // A sampled skip's functional warming reopens rows under queued heads.
    if (ic.warm && rng.chance(0.02)) {
      const auto bank = static_cast<BankId>(rng.below(t.banks));
      const auto row = static_cast<RowId>(rng.below(4));
      mc.channel_mut().warm_row(bank, row);
      ref.warm_row(bank, row);
      ++warms;
    }
    // The from-scratch rebuild path must agree with the incremental one.
    if (rng.chance(0.01)) mc.forget_issue_memo();

    // The memo covers the bank heads; a due refresh goes first regardless.
    const bool armed =
        mc.issue_memo_armed(now) && !mc.channel().refresh_due(now);
    issued.reset();
    mc.tick(now);
    const std::optional<DramCommand> want = ref.tick(now);
    ASSERT_EQ(issued.has_value(), want.has_value()) << "cycle " << now;
    if (!want) {
      ++idle;
      continue;
    }
    ASSERT_FALSE(armed) << "memo armed on a cycle that issued, at " << now;
    ASSERT_EQ(issued->cmd, want->cmd) << "cycle " << now;
    ASSERT_EQ(issued->bank, want->bank) << "cycle " << now;
    ASSERT_EQ(issued->row, want->row) << "cycle " << now;
    ++commands;
    if (want->cmd == DramCmd::kRefresh) ++refreshes;
  }
  EXPECT_GT(commands, 10'000u);
  EXPECT_GT(idle, 1'000u);
  EXPECT_EQ(refreshes > 0, ic.refresh);
  EXPECT_EQ(warms > 0, ic.warm);
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, CommandIssueDifferential,
    ::testing::Values(IssueCase{"reads_refresh", true, false, 0.0, false, 1},
                      IssueCase{"mixed_refresh", true, false, 0.3, false, 2},
                      IssueCase{"mixed_norefresh", false, false, 0.3, false, 3},
                      IssueCase{"writes_norefresh", false, false, 0.9, false, 4},
                      IssueCase{"mixed_refresh_warm", true, false, 0.3, true, 5},
                      IssueCase{"reads_norefresh_warm", false, false, 0.0, true,
                                6},
                      IssueCase{"ddr3_mixed_refresh_warm", true, true, 0.3, true,
                                7}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace latdiv
