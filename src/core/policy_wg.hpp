// Warp-group scheduling — the paper's contribution (§IV).
//
// One policy class implements the whole WG family; the paper's four design
// points are feature flags layered bottom-up exactly as in the evaluation:
//
//   WG     (§IV-B)  bank-aware shortest-job-first over *warp-groups*: all
//                   requests of one warp at this controller are scheduled
//                   as a unit; groups are ranked by an estimated completion
//                   time (row-hit=1 / row-miss=3 per request, plus the
//                   score of everything already queued at each bank; the
//                   group score is the max over its banks) and the lowest
//                   score wins, ties broken by most row-hits.
//   WG-M   (§IV-C)  + controllers broadcast (warp id, local score) when
//                   they select a group; a receiver holding the same
//                   warp's group lowers its local score by (LC - RC) when
//                   the local estimate LC exceeds the remote RC.
//   WG-Bw  (§IV-D)  + MERB: a row-miss from the selected group is admitted
//                   to a bank only after that bank's planned row-hit run
//                   reaches the MERB threshold; pending row hits from
//                   other (nearly-complete first) warps fill the gap, and
//                   the "orphan control" rule tops up runs that would
//                   leave only 1-2 stranded hits behind.
//   WG-W   (§IV-E)  + write awareness: once the write queue is within 8
//                   entries of its high watermark, warp-groups with a
//                   single remaining request are served first regardless
//                   of score, so an imminent drain does not strand
//                   almost-finished warps.
//
// Requests physically stay in the controller's 64-entry read queue until
// pulled; the warp sorter here is the paper's 128-entry <SM-id, Warp-id>
// tracking structure (we key it by the dynamic warp instruction, which is
// unique per in-flight load since warps block on loads).
//
// Liveness beyond the paper's text: if the read queue fills with requests
// of groups that are all incomplete, no group would ever become eligible
// and the controller would deadlock (the remaining requests of every group
// are stuck behind the full queue).  When no complete group exists and the
// queue is under pressure — or the oldest request exceeds an age bound —
// the policy falls back to draining the group that contains the oldest
// request.  Such partially-serviced groups are the "orphaned" groups of
// Fig. 12; their leftover requests are scheduled when their completion
// signal eventually arrives.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/log.hpp"
#include "core/merb.hpp"
#include "mc/controller.hpp"
#include "mc/policy.hpp"

namespace latdiv {

struct WgConfig {
  bool multi_channel = false;  ///< WG-M coordination
  bool merb = false;           ///< WG-Bw bandwidth optimisation
  bool write_aware = false;    ///< WG-W drain awareness
  /// Extension (paper Conclusions): prioritise warp-groups that touch
  /// DRAM rows other pending warp-groups also need — serving them opens
  /// rows that benefit multiple warps.  Off in all paper configurations.
  bool shared_data_boost = false;
  std::uint32_t shared_weight = 1;  ///< score discount per shared request

  std::uint32_t score_hit = 1;   ///< ~tCAS (12 ns)
  std::uint32_t score_miss = 3;  ///< ~tRP+tRCD+tCAS (36 ns)
  std::uint32_t orphan_limit = 2;
  std::uint32_t wq_guard = 8;  ///< WG-W arms at (high watermark - guard)
  /// Liveness fallback: drain an incomplete group once the oldest request
  /// is this old, or when the read queue is nearly full.
  Cycle fallback_age = 8192;
  /// WG-M: how long a remote-selection message stays matchable against
  /// not-yet-arrived warp-groups.
  Cycle coord_msg_ttl = 256;
  std::size_t rq_pressure_slack = 4;
  std::uint32_t max_pushes_per_cycle = 8;
};

/// Per-warp-group bookkeeping (the warp sorter / bank table entry).
///
/// Besides the paper's counters this carries the incremental read-queue
/// index: one entry per request of the group still waiting in the
/// controller's read queue, grouped by bank and kept in arrival order.
/// WgPolicy maintains it in on_push and at every read-queue erase, so
/// selection and scoring never rescan the read queue.
struct WgGroupMeta {
  WarpTag tag;
  Cycle first_arrival = kNoCycle;
  std::uint32_t seen = 0;    ///< requests received at this controller
  std::uint32_t pushed = 0;  ///< requests already sent to bank queues
  std::uint32_t coord_bonus = 0;  ///< accumulated WG-M score reduction
  bool complete = false;

  struct QueuedReq {
    std::uint64_t seq;  ///< controller-wide arrival sequence number
    Cycle arrival;      ///< == arrived_at_mc (non-decreasing in seq)
    RowId row;
  };
  struct BankSlot {
    BankId bank;
    std::vector<QueuedReq> items;  ///< this group's queued requests, in
                                   ///< read-queue (= seq) order
    /// bank_epoch(bank)+1 when cached_score was computed (score cache).
    mutable std::uint64_t score_epoch = 0;
  };
  /// Per-bank slots in first-touch order; a slot may drain empty.
  std::vector<BankSlot> slots;
  std::uint64_t version = 0;  ///< bumped on every index add/remove
  /// Listed in WgPolicy::active_ (groups with queued requests); cleared
  /// lazily when a sweep finds the group drained.
  bool in_active = false;

  /// Group score cache (see WgPolicy::score_group): valid while
  /// score_version matches `version` and every non-empty slot's
  /// score_epoch matches the controller's current bank epoch.
  mutable std::uint64_t score_version = ~std::uint64_t{0};
  mutable std::uint32_t score_completion = 0;
  mutable std::uint32_t score_row_hits = 0;

  /// Requests of this group currently in the read queue (== the old
  /// O(read-queue) pending_in_queue scan).
  [[nodiscard]] std::uint32_t queued() const { return seen - pushed; }
};

struct WgStats {
  std::uint64_t groups_completed = 0;
  std::uint64_t groups_selected = 0;
  std::uint64_t fallback_selections = 0;
  std::uint64_t merb_deferrals = 0;   ///< row-miss postponed for fillers
  std::uint64_t orphan_topups = 0;    ///< orphan-control filler pushes
  std::uint64_t coord_msgs_applied = 0;
  std::uint64_t writeaware_selections = 0;
  std::uint64_t shared_boosts = 0;  ///< selections aided by shared rows
  Accumulator group_size;             ///< requests per warp-group at this MC
};

class WgPolicy final : public TransactionScheduler {
 public:
  WgPolicy(const WgConfig& cfg, const DramTiming& timing)
      : cfg_(cfg), merb_(timing), banks_(timing.banks) {
    // The per-group bank footprint uses 32-bit bank masks (and the WG
    // paper's GDDR5 devices have 16 banks); wider devices need a wider
    // opens_row_mask before this policy can run on them.
    LATDIV_ASSERT(timing.banks <= 32,
                  "WgPolicy bank masks support at most 32 banks");
  }

  [[nodiscard]] const char* name() const override {
    if (cfg_.shared_data_boost) return "WG-Sh";
    if (cfg_.write_aware) return "WG-W";
    if (cfg_.merb) return "WG-Bw";
    if (cfg_.multi_channel) return "WG-M";
    return "WG";
  }

  void schedule_reads(MemoryController& mc, Cycle now) override;
  void on_push(MemoryController& mc, const MemRequest& req,
               Cycle now) override;
  void on_group_complete(MemoryController& mc, const WarpTag& tag,
                         Cycle now) override;
  void on_remote_selection(MemoryController& mc, const CoordMsg& msg,
                           Cycle now) override;
  void on_drain_start(MemoryController& mc, Cycle now) override;

  [[nodiscard]] const WgStats* wg_stats() const override { return &stats_; }
  [[nodiscard]] const WgConfig& config() const { return cfg_; }

  struct Score {
    std::uint32_t completion = 0;  ///< estimated completion-time score
    std::uint32_t row_hits = 0;    ///< tie-breaker
  };

  /// Completion-time estimate for the requests of `instr` currently in
  /// the read queue (paper §IV-B1), including each touched bank's queued
  /// backlog.  Request hit/miss status is evaluated against the bank's
  /// *planned* row sequence: predicted row, advanced per queued request.
  [[nodiscard]] Score score_group(const MemoryController& mc,
                                  WarpInstrUid instr) const;

  // Differential-test hooks (tests/test_wg_incremental.cpp): read-only
  // views of the incremental index so reference scans of the real read
  // queue can be checked against it after arbitrary event sequences.
  [[nodiscard]] const std::unordered_map<WarpInstrUid, WgGroupMeta>& groups()
      const {
    return groups_;
  }
  [[nodiscard]] const std::optional<WarpInstrUid>& current() const {
    return current_;
  }

  /// Snapshot serialization (src/ckpt): the warp sorter, the incremental
  /// read-queue index, caches and stats all round-trip; merb_ is a pure
  /// function of the DRAM timing and is rebuilt at construction.
  void ckpt_save(ckpt::CkptWriter& ar) const override;
  void ckpt_load(ckpt::CkptReader& ar) override;

 private:
  /// Shared save/load body behind ckpt_save/ckpt_load (src/ckpt owns the
  /// definition; member access keeps the private index reachable).
  template <class Ar>
  void ckpt_io(Ar& ar);

  /// Sum of request scores pending in `bank`'s command queue (cached per
  /// bank, invalidated by the controller's bank epoch).
  [[nodiscard]] std::uint32_t bank_queue_score(const MemoryController& mc,
                                               BankId bank) const;

  void select_next_group(MemoryController& mc, Cycle now);
  /// Drain the current group's read-queue requests into bank queues,
  /// applying MERB admission for row misses when WG-Bw is on.  Returns
  /// the number of requests pushed.
  std::uint32_t drain_current(MemoryController& mc, Cycle now);
  /// Push one row-hit filler to `bank` from the group nearest completion.
  bool push_filler(MemoryController& mc, BankId bank, Cycle now);
  void forget_if_done(WarpInstrUid instr);

  [[nodiscard]] bool write_pressure(const MemoryController& mc) const;

  // --- incremental index maintenance -----------------------------------
  /// Record a read request entering the read queue (called from on_push,
  /// when the request is already queued).
  void index_add(WgGroupMeta& meta, const MemRequest& req);
  /// Record a read request leaving the read queue (called at every
  /// policy-side erase, immediately before send_to_bank).
  void index_remove(WgGroupMeta& meta, const MemRequest& req);
  /// Queued requests of `instr` matching (bank, row) — MERB orphan count.
  [[nodiscard]] std::uint32_t group_row_count(const WgGroupMeta& meta,
                                              BankId bank, RowId row) const;

  WgConfig cfg_;
  MerbTable merb_;
  std::uint32_t banks_;
  std::unordered_map<WarpInstrUid, WgGroupMeta> groups_;
  std::optional<WarpInstrUid> current_;
  /// Groups that (may) have queued requests — the candidate universe for
  /// selection and filler searches, so neither walks the groups_ hash
  /// table.  Entries are appended by index_add when a drained group gains
  /// a request, swept out lazily when found empty, and removed eagerly in
  /// forget_if_done (the meta pointer must not dangle).  Order is
  /// irrelevant: every consumer totally orders candidates itself.
  std::vector<std::pair<WarpInstrUid, WgGroupMeta*>> active_;

  /// Controller-wide arrival sequence for read requests; slot items carry
  /// it so the read queue's relative order (a deque: push-back + erase)
  /// can be reconstructed from the index alone.
  std::uint64_t next_seq_ = 0;

  // Select-skip memo: when select_next_group fails, it records the
  // controller mutation epoch (and, for age-gated fallback failures, the
  // cycle the age bound is reached).  Until either changes, re-running
  // the selection is provably futile and is skipped.
  std::uint64_t skip_epoch_ = ~std::uint64_t{0};
  Cycle skip_until_ = 0;

  /// Per-bank queue-score cache: (bank_epoch+1, score); 0 = invalid.
  mutable std::vector<std::pair<std::uint64_t, std::uint32_t>> bqs_cache_;

  /// WG-Bw orphan control: total queued read requests per exact
  /// (bank, row), across all groups.  Maintained only when cfg_.merb.
  std::unordered_map<std::uint64_t, std::uint32_t> row_counts_;
  /// Shared-row census for the shared-data extension: per truncated
  /// (bank, row24) key, the distinct groups with queued requests on it
  /// (and their counts).  Maintained only when cfg_.shared_data_boost;
  /// a key is "shared" when two or more groups appear.
  std::unordered_map<std::uint32_t,
                     std::vector<std::pair<WarpInstrUid, std::uint32_t>>>
      census_;

  /// Scratch candidate list reused across select_next_group calls.
  struct Cand {
    WarpInstrUid instr;
    const WgGroupMeta* meta;
    std::uint64_t head_seq;  ///< seq of the group's earliest queued request
    std::uint32_t count;
    Cycle oldest;
    std::uint32_t opens_row_mask;  ///< banks where this group row-misses
  };
  std::vector<Cand> cands_;
  /// WG-M: recent remote selections kept briefly so a coordination
  /// message can still boost a warp-group whose requests arrive here a
  /// few cycles *after* the remote controller selected it (the crossbar
  /// and the coordination network race; hardware would hold the message
  /// in the 128-entry tracking structure either way).
  struct RecentMsg {
    WarpInstrUid instr;
    std::uint32_t score;
    Cycle at;
  };
  std::deque<RecentMsg> recent_msgs_;
  WgStats stats_;
};

}  // namespace latdiv
