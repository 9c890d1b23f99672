// Parameterised timing properties: the channel's constraints must hold
// for ANY self-consistent device parameters, not just the two shipped
// presets.  Each trial varies the device, drives a canonical command
// pattern, and checks constraint-derived invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "common/rng.hpp"
#include "dram/channel.hpp"
#include "dram/params.hpp"

namespace latdiv {
namespace {

struct Device {
  const char* name;
  DramParams params;
};

std::vector<Device> devices() {
  DramParams g = gddr5_params();
  g.refresh_enabled = false;
  DramParams d = ddr3_1600_params();
  d.refresh_enabled = false;
  DramParams slow = g;  // a deliberately sluggish hypothetical part
  slow.trcd_ns *= 2.0;
  slow.trp_ns *= 2.0;
  slow.tras_ns *= 1.5;
  slow.trc_ns = slow.tras_ns + slow.trp_ns;
  DramParams fast = g;  // near-degenerate fast part
  fast.trrd_ns = 1.0;
  fast.tfaw_ns = 4.0;
  return {{"gddr5", g}, {"ddr3", d}, {"slow", slow}, {"fast", fast}};
}

class DeviceProperty : public ::testing::TestWithParam<std::size_t> {
 protected:
  Device device() const { return devices()[GetParam()]; }
};

INSTANTIATE_TEST_SUITE_P(Devices, DeviceProperty,
                         ::testing::Values(0u, 1u, 2u, 3u),
                         [](const auto& info) {
                           return std::string(devices()[info.param].name);
                         });

Cycle first_legal(Channel& ch, const DramCommand& cmd, Cycle from) {
  Cycle c = from;
  while (!ch.can_issue(cmd, c)) {
    ++c;
    EXPECT_LT(c, from + 1'000'000) << "never became legal";
  }
  return c;
}

TEST_P(DeviceProperty, ActToReadIsExactlyTrcd) {
  const DramTiming t = DramTiming::from(device().params);
  Channel ch(t);
  ch.issue({DramCmd::kActivate, 0, 1}, 1);
  EXPECT_EQ(first_legal(ch, {DramCmd::kRead, 0, 1}, 1), 1 + t.trcd);
}

TEST_P(DeviceProperty, ActToPreIsExactlyTras) {
  const DramTiming t = DramTiming::from(device().params);
  Channel ch(t);
  ch.issue({DramCmd::kActivate, 0, 1}, 1);
  EXPECT_EQ(first_legal(ch, {DramCmd::kPrecharge, 0, kNoRow}, 1), 1 + t.tras);
}

TEST_P(DeviceProperty, RowCycleIsExactlyTrc) {
  const DramTiming t = DramTiming::from(device().params);
  Channel ch(t);
  ch.issue({DramCmd::kActivate, 0, 1}, 1);
  const Cycle pre = first_legal(ch, {DramCmd::kPrecharge, 0, kNoRow}, 1);
  ch.issue({DramCmd::kPrecharge, 0, kNoRow}, pre);
  const Cycle act2 = first_legal(ch, {DramCmd::kActivate, 0, 2}, pre);
  EXPECT_EQ(act2, std::max(1 + t.trc, pre + t.trp));
}

TEST_P(DeviceProperty, BackToBackReadsRespectCcd) {
  const DramTiming t = DramTiming::from(device().params);
  Channel ch(t);
  ch.issue({DramCmd::kActivate, 0, 1}, 1);
  const Cycle rd1 = first_legal(ch, {DramCmd::kRead, 0, 1}, 1);
  ch.issue({DramCmd::kRead, 0, 1}, rd1);
  const Cycle rd2 = first_legal(ch, {DramCmd::kRead, 0, 1}, rd1 + 1);
  EXPECT_EQ(rd2, rd1 + t.tccdl);
}

TEST_P(DeviceProperty, FourActWindowHolds) {
  const DramTiming t = DramTiming::from(device().params);
  if (t.banks < 5) GTEST_SKIP() << "needs 5 banks";
  Channel ch(t);
  Cycle c = 1;
  Cycle first_act = 0;
  for (BankId b = 0; b < 4; ++b) {
    c = first_legal(ch, {DramCmd::kActivate, b, 1}, c);
    if (b == 0) first_act = c;
    ch.issue({DramCmd::kActivate, b, 1}, c);
    ++c;
  }
  const Cycle fifth = first_legal(ch, {DramCmd::kActivate, 4, 1}, c);
  EXPECT_GE(fifth, first_act + t.tfaw);
}

TEST_P(DeviceProperty, WriteReadTurnaroundBothWays) {
  const DramTiming t = DramTiming::from(device().params);
  Channel ch(t);
  ch.issue({DramCmd::kActivate, 0, 1}, 1);
  const Cycle wr = first_legal(ch, {DramCmd::kWrite, 0, 1}, 1);
  ch.issue({DramCmd::kWrite, 0, 1}, wr);
  EXPECT_EQ(first_legal(ch, {DramCmd::kRead, 0, 1}, wr + 1),
            wr + t.write_to_read());
}

TEST_P(DeviceProperty, RandomLegalStreamNeverOverlapsDataBus) {
  const DramTiming t = DramTiming::from(device().params);
  Channel ch(t);
  Rng rng(GetParam() + 100);
  Cycle now = 0;
  for (int step = 0; step < 30000; ++step) {
    ++now;
    DramCommand cmd;
    cmd.bank = static_cast<BankId>(rng.below(t.banks));
    switch (rng.below(4)) {
      case 0:
        cmd.cmd = DramCmd::kActivate;
        cmd.row = static_cast<RowId>(rng.below(32));
        break;
      case 1:
        cmd.cmd = DramCmd::kPrecharge;
        break;
      default:
        cmd.cmd = rng.chance(0.6) ? DramCmd::kRead : DramCmd::kWrite;
        cmd.row = ch.open_row(cmd.bank);
        if (cmd.row == kNoRow) continue;
    }
    // issue() itself asserts data-bus integrity and timing legality.
    if (ch.can_issue(cmd, now)) ch.issue(cmd, now);
  }
  EXPECT_LE(ch.stats().data_bus_busy_cycles, now);
}

TEST_P(DeviceProperty, ThroughputCeilingRespectsBurstLength) {
  // Stream row hits flat out on one bank: the achieved CAS rate can never
  // beat one per tCCDL.
  const DramTiming t = DramTiming::from(device().params);
  Channel ch(t);
  ch.issue({DramCmd::kActivate, 0, 1}, 1);
  Cycle now = 1 + t.trcd;
  const Cycle start = now;
  std::uint64_t reads = 0;
  while (now < start + 3000) {
    if (ch.can_issue({DramCmd::kRead, 0, 1}, now)) {
      ch.issue({DramCmd::kRead, 0, 1}, now);
      ++reads;
    }
    ++now;
  }
  EXPECT_LE(reads, 3000 / t.tccdl + 1);
  EXPECT_GE(reads, 3000 / t.tccdl - 1);
}

// Test-only reference: the channel's former per-cycle legality predicate
// (act_legal/cas_legal and the PRE/REF checks), on a shadow of the state
// it read, updated from the same command stream.  Channel::earliest_issue
// must name exactly the first cycle at which this predicate holds.
class RefLegality {
 public:
  explicit RefLegality(const DramTiming& t)
      : t_(t),
        row_(t.banks, kNoRow),
        earliest_act_(t.banks, 0),
        earliest_cas_(t.banks, 0),
        earliest_pre_(t.banks, 0) {}

  [[nodiscard]] bool legal(const DramCommand& cmd, Cycle now) const {
    switch (cmd.cmd) {
      case DramCmd::kActivate:
        return act_legal(cmd.bank, now);
      case DramCmd::kPrecharge:
        return row_[cmd.bank] != kNoRow && now >= earliest_pre_[cmd.bank];
      case DramCmd::kRead:
      case DramCmd::kWrite:
        return cas_legal(cmd, now);
      case DramCmd::kRefresh:
        return std::all_of(row_.begin(), row_.end(),
                           [](RowId r) { return r == kNoRow; }) &&
               std::all_of(earliest_act_.begin(), earliest_act_.end(),
                           [now](Cycle at) { return now >= at; });
    }
    return false;
  }

  void issue(const DramCommand& cmd, Cycle now) {
    switch (cmd.cmd) {
      case DramCmd::kActivate:
        row_[cmd.bank] = cmd.row;
        earliest_cas_[cmd.bank] = now + t_.trcd;
        earliest_pre_[cmd.bank] = now + t_.tras;
        earliest_act_[cmd.bank] = now + t_.trc;
        last_act_ = now;
        act_window_[act_window_pos_] = now;
        act_window_pos_ = (act_window_pos_ + 1) % act_window_.size();
        break;
      case DramCmd::kPrecharge:
        row_[cmd.bank] = kNoRow;
        earliest_act_[cmd.bank] =
            std::max(earliest_act_[cmd.bank], now + t_.trp);
        break;
      case DramCmd::kRead:
        earliest_pre_[cmd.bank] =
            std::max(earliest_pre_[cmd.bank], now + t_.trtp);
        last_rd_ = now;
        last_rd_group_ = group(cmd.bank);
        break;
      case DramCmd::kWrite:
        earliest_pre_[cmd.bank] = std::max(
            earliest_pre_[cmd.bank], now + t_.twl + t_.tburst + t_.twr);
        last_wr_ = now;
        last_wr_group_ = group(cmd.bank);
        break;
      case DramCmd::kRefresh:
        for (Cycle& at : earliest_act_) at = std::max(at, now + t_.trfc);
        break;
    }
  }

  void warm_row(BankId bank, RowId row) { row_[bank] = row; }

 private:
  [[nodiscard]] std::uint32_t group(BankId bank) const {
    return bank / t_.banks_per_group;
  }

  [[nodiscard]] bool act_legal(BankId bank, Cycle now) const {
    if (row_[bank] != kNoRow) return false;
    if (now < earliest_act_[bank]) return false;
    if (last_act_ != kNoCycle && now < last_act_ + t_.trrd) return false;
    const Cycle fourth_newest = act_window_[act_window_pos_];
    return fourth_newest == kNoCycle || now >= fourth_newest + t_.tfaw;
  }

  [[nodiscard]] bool cas_legal(const DramCommand& cmd, Cycle now) const {
    const RowId row = row_[cmd.bank];
    if (row == kNoRow || row != cmd.row) return false;
    if (now < earliest_cas_[cmd.bank]) return false;
    const std::uint32_t g = group(cmd.bank);
    if (cmd.cmd == DramCmd::kRead) {
      if (last_rd_ != kNoCycle &&
          now < last_rd_ + (g == last_rd_group_ ? t_.tccdl : t_.tccds)) {
        return false;
      }
      return last_wr_ == kNoCycle || now >= last_wr_ + t_.write_to_read();
    }
    if (last_wr_ != kNoCycle &&
        now < last_wr_ + (g == last_wr_group_ ? t_.tccdl : t_.tccds)) {
      return false;
    }
    return last_rd_ == kNoCycle || now >= last_rd_ + t_.read_to_write();
  }

  DramTiming t_;
  std::vector<RowId> row_;
  std::vector<Cycle> earliest_act_, earliest_cas_, earliest_pre_;
  Cycle last_act_ = kNoCycle;
  std::array<Cycle, 4> act_window_ = {kNoCycle, kNoCycle, kNoCycle, kNoCycle};
  std::size_t act_window_pos_ = 0;
  Cycle last_rd_ = kNoCycle, last_wr_ = kNoCycle;
  std::uint32_t last_rd_group_ = 0, last_wr_group_ = 0;
};

TEST_P(DeviceProperty, EarliestIssueIsFirstCycleOfReferencePredicate) {
  const DramTiming t = DramTiming::from(device().params);
  Channel ch(t);
  RefLegality ref(t);
  Rng rng(GetParam() + 200);
  Cycle now = 0;
  std::uint64_t issued = 0, refreshes = 0, checked = 0;
  for (int step = 0; step < 20000; ++step) {
    ++now;
    // Every bank, every command kind: CAS to the open row and to another
    // row, ACT, PRE, and the all-bank REF.
    for (BankId b = 0; b < t.banks; ++b) {
      const RowId open = ch.open_row(b);
      const RowId other = open == kNoRow ? 7 : open + 1;
      for (const DramCommand cmd :
           {DramCommand{DramCmd::kActivate, b, 3},
            DramCommand{DramCmd::kPrecharge, b, kNoRow},
            DramCommand{DramCmd::kRead, b, open},
            DramCommand{DramCmd::kWrite, b, open},
            DramCommand{DramCmd::kRead, b, other},
            DramCommand{DramCmd::kWrite, b, other},
            DramCommand{DramCmd::kRefresh, 0, kNoRow}}) {
        const Cycle at = ch.earliest_issue(cmd);
        ++checked;
        if (at == kNoCycle) {
          // Forbidden outright: the predicate never holds, however late.
          ASSERT_FALSE(ref.legal(cmd, now)) << to_string(cmd.cmd);
          ASSERT_FALSE(ref.legal(cmd, now + 1'000'000)) << to_string(cmd.cmd);
          continue;
        }
        // The predicate is a conjunction of "now >= X" terms, so it is
        // monotone: false just before `at`, true from `at` on.
        ASSERT_TRUE(ref.legal(cmd, at)) << to_string(cmd.cmd);
        ASSERT_TRUE(ref.legal(cmd, std::max(at, now) + 97));
        if (at > 0) {
          ASSERT_FALSE(ref.legal(cmd, at - 1)) << to_string(cmd.cmd);
        }
        ASSERT_EQ(ch.can_issue(cmd, now), now >= at);
      }
    }
    // Occasionally a functional warm reopens a row behind the stream.
    if (rng.chance(0.01)) {
      const auto b = static_cast<BankId>(rng.below(t.banks));
      const auto row = static_cast<RowId>(rng.below(8));
      const std::uint64_t v = ch.version();
      ch.warm_row(b, row);
      ref.warm_row(b, row);
      ASSERT_GT(ch.version(), v);
    }
    // A random legal command; every few thousand cycles close all banks
    // and refresh.
    DramCommand cmd;
    if ((step / 2000) % 2 == 1 && step % 2000 > 1500) {
      cmd = {DramCmd::kRefresh, 0, kNoRow};
      for (BankId b = 0; b < t.banks; ++b) {
        if (ch.open_row(b) != kNoRow) {
          cmd = {DramCmd::kPrecharge, b, kNoRow};
          break;
        }
      }
    } else {
      cmd.bank = static_cast<BankId>(rng.below(t.banks));
      switch (rng.below(4)) {
        case 0:
          cmd.cmd = DramCmd::kActivate;
          cmd.row = static_cast<RowId>(rng.below(8));
          break;
        case 1:
          cmd.cmd = DramCmd::kPrecharge;
          break;
        default:
          cmd.cmd = rng.chance(0.6) ? DramCmd::kRead : DramCmd::kWrite;
          cmd.row = ch.open_row(cmd.bank);
      }
    }
    if (ch.can_issue(cmd, now)) {
      const std::uint64_t v = ch.version();
      ch.issue(cmd, now);
      ref.issue(cmd, now);
      ASSERT_GT(ch.version(), v);
      ++issued;
      if (cmd.cmd == DramCmd::kRefresh) ++refreshes;
    }
  }
  EXPECT_GT(issued, 2'000u);
  EXPECT_GT(refreshes, 0u);
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace latdiv
