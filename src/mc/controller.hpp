// The GPU memory controller (paper Fig. 1): one per channel.
//
//   Read Queue (64) ─┐
//                    ├─ TransactionScheduler ─ per-bank Command Queues (8)
//   Write Queue (64)─┘         (policy)               │
//                                              Command Scheduler
//                                       (multi-level RR over bank groups,
//                                        in-order within a bank)
//                                                     │
//                                               GDDR5 Channel
//
// Writes are buffered and drained in batches between watermarks (32/16) to
// amortise bus turnaround (tWTR); an opportunistic drain runs when the read
// side is idle.  The command scheduler issues at most one DRAM command per
// cycle, interleaving across bank groups first (GDDR5's tCCDS < tCCDL
// rewards this) and servicing each bank's command queue strictly in order
// so that the transaction scheduler's decisions are preserved.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "common/arena.hpp"
#include "common/bounded_queue.hpp"
#include "common/log.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "dram/channel.hpp"
#include "dram/params.hpp"
#include "mc/policy.hpp"
#include "mem/request.hpp"

namespace latdiv::obs {
class ObsHub;
}

namespace latdiv {

/// Arena-backed queue types: node storage comes from the owning
/// partition's Arena (a null arena falls back to the global heap — see
/// common/arena.hpp).  Consumers use `auto&` / range-for, so the alias
/// is the only place the allocator appears.
using McRequestQueue = BoundedQueue<MemRequest, ArenaAllocator<MemRequest>>;
using McBankQueue = std::deque<MemRequest, ArenaAllocator<MemRequest>>;

struct McConfig {
  std::uint32_t read_queue_size = 64;
  std::uint32_t write_queue_size = 64;
  std::uint32_t wq_high_watermark = 32;
  std::uint32_t wq_low_watermark = 16;
  std::uint32_t bank_queue_depth = 8;
  bool opportunistic_drain = true;
};

/// Controller-level counters (DRAM-level counters live in ChannelStats).
struct McStats {
  std::uint64_t reads_accepted = 0;   ///< pushes into the read queue
  std::uint64_t writes_accepted = 0;  ///< pushes into the write queue
  std::uint64_t reads_served = 0;
  std::uint64_t writes_served = 0;
  std::uint64_t drains_started = 0;
  Accumulator read_queueing_cycles;   ///< arrival -> CAS issue
  Accumulator read_service_cycles;    ///< arrival -> data complete
  // Fig. 12 inputs: at each drain start, how many fully-formed warp-groups
  // were stalled, and how many of those were unit-sized or orphaned
  // (1-2 requests remaining).
  std::uint64_t drain_stalled_groups = 0;
  std::uint64_t drain_stalled_small_groups = 0;
  // Per-bank row-buffer outcomes, classified when a request reaches the
  // head of its bank command queue (see RowOutcome).  Sum over banks
  // covers every CAS this controller issued; requests still queued or
  // in flight at end of run are simply unclassified.
  std::vector<std::uint64_t> bank_row_hits;
  std::vector<std::uint64_t> bank_row_misses;
  std::vector<std::uint64_t> bank_row_conflicts;
};

class MemoryController {
 public:
  /// Upper bound on banks per channel: the command scheduler's per-bank
  /// memo and the policies' per-bank candidate tables are fixed arrays.
  static constexpr std::size_t kMaxBanks = 32;

  /// `on_read_done(req, now)` fires the cycle read data is fully returned.
  using ResponseFn = std::function<void(const MemRequest&, Cycle)>;

  /// `obs` (optional) receives request-lifecycle events; it is strictly
  /// an observer — scheduling behaviour is identical with or without it.
  /// `arena` (optional) backs the request/command queues' node storage.
  MemoryController(ChannelId id, const McConfig& cfg, const DramTiming& timing,
                   std::unique_ptr<TransactionScheduler> policy,
                   ResponseFn on_read_done, obs::ObsHub* obs = nullptr,
                   Arena* arena = nullptr);

  // --- ingress (called by the partition) ---
  [[nodiscard]] bool can_accept_read() const { return !read_q_.full(); }
  [[nodiscard]] bool can_accept_write() const { return !write_q_.full(); }
  void push(MemRequest req, Cycle now);
  /// The partition saw the last request of `tag`'s warp-group for this
  /// controller (it may have been filtered by an L2 hit).
  void notify_group_complete(const WarpTag& tag, Cycle now);
  /// Deliver a coordination-network message (WG-M).
  void deliver_coordination(const CoordMsg& msg, Cycle now);

  /// Advance one command-clock cycle.
  void tick(Cycle now);

  // --- policy-facing API ---
  [[nodiscard]] McRequestQueue& read_queue() { return read_q_; }
  [[nodiscard]] const McRequestQueue& read_queue() const { return read_q_; }
  [[nodiscard]] McRequestQueue& write_queue() { return write_q_; }
  [[nodiscard]] const McRequestQueue& write_queue() const { return write_q_; }
  // The bank probes are the policies' hottest calls: defined inline.
  [[nodiscard]] bool bank_queue_has_space(BankId bank,
                                          std::size_t n = 1) const {
    return bank_queue(bank).size() + n <= cfg_.bank_queue_depth;
  }
  [[nodiscard]] std::size_t bank_queue_size(BankId bank) const {
    return bank_queue(bank).size();
  }
  [[nodiscard]] const McBankQueue& bank_queue(BankId bank) const {
    LATDIV_ASSERT(bank < bank_q_.size(), "bank out of range");
    return bank_q_[bank];
  }
  /// Row a new transaction on `bank` would find "open": the row of the
  /// last transaction enqueued to that bank, falling back to the row open
  /// in the DRAM array (paper §IV-B1's hit/miss estimate).
  [[nodiscard]] RowId predicted_row(BankId bank) const {
    LATDIV_ASSERT(bank < bank_q_.size(), "bank out of range");
    const RowId tail = bank_tail_row_[bank];
    return tail != kNoRow ? tail : channel_.open_row(bank);
  }
  /// Consecutive same-row transactions at the tail of `bank`'s planned
  /// sequence (the WG-Bw MERB counter, maintained at insertion time).
  [[nodiscard]] std::uint32_t tail_streak(BankId bank) const {
    LATDIV_ASSERT(bank < bank_q_.size(), "bank out of range");
    return bank_tail_streak_[bank];
  }
  /// Move a request (already removed from a request queue) into its bank's
  /// command queue.  Caller must have checked bank_queue_has_space().
  void send_to_bank(MemRequest req, Cycle now);
  [[nodiscard]] const Channel& channel() const { return channel_; }
  /// Mutable channel access, needed to attach a command observer
  /// (src/check protocol checker).  Scheduling code must use the const
  /// accessor.
  [[nodiscard]] Channel& channel_mut() { return channel_; }
  /// Reads that issued their CAS but whose data burst has not completed
  /// (conservation audits: accepted == queued + pending + inflight + served).
  [[nodiscard]] std::size_t inflight_reads() const {
    return inflight_reads_.size();
  }
  [[nodiscard]] bool in_write_drain() const { return write_mode_; }
  [[nodiscard]] const McConfig& config() const { return cfg_; }
  [[nodiscard]] ChannelId id() const { return id_; }
  /// Broadcast queue drained by the owning coordination network each cycle.
  [[nodiscard]] std::vector<CoordMsg>& outbox() { return outbox_; }
  /// Policies call this when they select a warp-group (WG-M broadcast).
  void announce_selection(const WarpTag& tag, std::uint32_t score);
  /// Total requests sitting in all bank command queues.
  [[nodiscard]] std::size_t commands_pending() const { return cmdq_total_; }
  /// Number of banks with a non-empty command queue (MERB table index).
  [[nodiscard]] std::uint32_t banks_with_work() const {
    return nonempty_banks_;
  }

  // --- change tracking (policy score caches) ---
  /// Bumped whenever `bank`'s scheduling-visible state changes: its
  /// command queue contents, its insertion metadata (predicted row /
  /// tail streak) or its DRAM array state (open row).  Policies key
  /// per-bank score caches on this.
  [[nodiscard]] std::uint64_t bank_epoch(BankId bank) const {
    LATDIV_DCHECK(bank < bank_epoch_.size(), "bank out of range");
    return bank_epoch_[bank];
  }
  /// Bumped only on events that can flip a *failed* warp-group selection:
  /// read/write pushes, group completions, send_to_bank, CAS pops,
  /// drain-mode flips, and ACT/PRE on a bank with no tail row (whose
  /// predicted row falls back to the open row).  Coordination deliveries
  /// and tail-row ACT/PRE change only scores, which a failed selection
  /// never reads.  Not part of snapshots: memos keyed on it are dropped
  /// on load.
  [[nodiscard]] std::uint64_t selection_epoch() const {
    return selection_epoch_;
  }
  /// Bumped whenever `bank`'s fit state changes: its command-queue length
  /// (send_to_bank, CAS pop) or its predicted row (send_to_bank, ACT/PRE
  /// while the bank has no tail row).  Keys per-bank "does not fit" memos;
  /// not part of snapshots either.
  [[nodiscard]] std::uint64_t fit_epoch(BankId bank) const {
    LATDIV_DCHECK(bank < fit_epoch_.size(), "bank out of range");
    return fit_epoch_[bank];
  }

  // --- command-scheduler memo (test probes) ---
  /// True while the cached head readiness is current and every head's
  /// first legal cycle is after `now`: a non-refresh cycle at `now`
  /// issues nothing.
  [[nodiscard]] bool issue_memo_armed(Cycle now) const {
    return ready_version_ == channel_.version() && cmdq_total_ > 0 &&
           now < min_ready_;
  }
  /// Drop the cached head readiness: the next cycle re-derives every
  /// bank's head command from scratch (memo equivalence tests call this
  /// before every step).
  void forget_issue_memo() { ready_version_ = kStaleVersion; }

  // Fig. 12 accounting: policies report the warp-groups stalled when a
  // drain begins.
  void record_drain_stall(std::size_t groups, std::size_t small_groups);

  [[nodiscard]] const McStats& stats() const { return stats_; }
  [[nodiscard]] TransactionScheduler& policy() { return *policy_; }
  [[nodiscard]] const TransactionScheduler& policy() const { return *policy_; }

  /// Snapshot serialization of queues, drain state, DRAM timing state and
  /// the policy's private state (src/ckpt); the callback/sink/arena wiring
  /// comes from construction.
  template <class Ar>
  void ckpt_io(Ar& ar);

 private:
  struct Inflight {
    Cycle done;
    MemRequest req;
    friend bool operator<(const Inflight& a, const Inflight& b) {
      return a.done > b.done;  // min-heap on completion time
    }
  };

  void update_drain_mode(Cycle now);
  /// A row opened or closed on `bank`: only predicted-row consumers of a
  /// bank with no tail row see it.
  void note_row_change(BankId bank) {
    if (bank_tail_row_[bank] == kNoRow) {
      ++selection_epoch_;
      ++fit_epoch_[bank];
    }
  }
  void issue_one_command(Cycle now);
  /// The command `bank`'s (non-empty) queue head needs next: CAS on a row
  /// hit, PRE on a conflict, ACT on a precharged bank.
  [[nodiscard]] DramCommand head_command(BankId bank) const;
  /// Re-derive `bank`'s head command and readiness (kNoCycle if empty).
  void refresh_head(BankId bank) {
    if (bank_q_[bank].empty()) {
      head_ready_[bank] = kNoCycle;
      return;
    }
    head_cmd_[bank] = head_command(bank);
    head_ready_[bank] = channel_.earliest_issue(head_cmd_[bank]);
  }
  /// Re-derive every bank's head readiness and the channel-wide minimum.
  void rebuild_ready();
  /// The first bank in multi-level round-robin order (bank groups, then
  /// banks within the group) for which `legal(bank)` holds; `banks` if
  /// none.
  template <class Legal>
  [[nodiscard]] std::uint32_t first_in_rr_order(Legal legal) const;
  /// The bank the full legality scan would serve at `now` (`banks` if
  /// none): the reference the memo is checked against under DCHECKs.
  [[nodiscard]] std::uint32_t scan_pick(Cycle now) const;
  void complete_reads(Cycle now);
  [[nodiscard]] bool all_bank_queues_empty() const { return cmdq_total_ == 0; }
  /// Writes the current drain episode pulled out of the write queue so
  /// far: start depth plus arrivals absorbed, minus what is still queued.
  [[nodiscard]] std::uint64_t drained_writes() const {
    return wq_at_drain_start_ + writes_arrived_in_drain_ - write_q_.size();
  }

  ChannelId id_;
  McConfig cfg_;
  Channel channel_;
  std::unique_ptr<TransactionScheduler> policy_;
  ResponseFn on_read_done_;
  obs::ObsHub* obs_ = nullptr;  ///< nullable; never consulted for decisions
  // Drain-episode accounting for obs_->drain_end's flushed-write count.
  std::size_t wq_at_drain_start_ = 0;
  std::uint64_t writes_arrived_in_drain_ = 0;

  McRequestQueue read_q_;
  McRequestQueue write_q_;
  std::vector<McBankQueue> bank_q_;
  // Per-bank insertion metadata, SoA: predicted_row()/tail_streak() are
  // the policies' hottest probes and each touches exactly one of the two
  // arrays, so splitting them keeps the scanned array dense in cache.
  std::vector<RowId> bank_tail_row_;
  std::vector<std::uint32_t> bank_tail_streak_;
  std::size_t cmdq_total_ = 0;
  std::uint32_t nonempty_banks_ = 0;

  // Change counters for policy-side caches (see bank_epoch()).
  std::vector<std::uint64_t> bank_epoch_;
  // Bumped on every scheduler-observable change (pushes, command issue,
  // drain flips, completion and coordination deliveries).  Nothing reads
  // it since the select-skip memo moved to selection_epoch_; it stays
  // because the LDSN snapshot format carries it.
  std::uint64_t mutation_epoch_ = 0;
  std::uint64_t selection_epoch_ = 0;
  std::vector<std::uint64_t> fit_epoch_;

  bool write_mode_ = false;
  bool opportunistic_mode_ = false;

  // Multi-level round-robin pointers for the command scheduler.
  std::uint32_t rr_group_ = 0;
  std::vector<std::uint32_t> rr_bank_in_group_;

  // Command-scheduler memo: each non-empty bank's head command and the
  // first cycle it is legal (kNoCycle for an empty bank), their minimum,
  // and the channel version they were derived at.  Bank-head issues
  // update only the banks the command can affect; any other version
  // change (refresh commands, warm_row) rebuilds every bank.  Not part of
  // snapshots: a load marks it stale.
  static constexpr std::uint64_t kStaleVersion = ~std::uint64_t{0};
  std::array<DramCommand, kMaxBanks> head_cmd_{};
  std::array<Cycle, kMaxBanks> head_ready_{};
  Cycle min_ready_ = kNoCycle;
  std::uint64_t ready_version_ = kStaleVersion;

  std::priority_queue<Inflight> inflight_reads_;
  std::vector<CoordMsg> outbox_;
  McStats stats_;
};

}  // namespace latdiv
