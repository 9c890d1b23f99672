// Streaming multiprocessor (SIMT core) timing model.
//
// Captures exactly the behaviours the paper's memory study depends on:
//   * 32-lane warps execute in lockstep; a warp that issues a load BLOCKS
//     until every coalesced request returns (the latency-divergence
//     mechanism under study);
//   * greedy-then-oldest warp scheduling hides latency with TLP until all
//     warps are blocked (§III-A "Multithreading");
//   * the coalescer merges lanes into 128B line requests (§III-A);
//   * an L1 with MSHRs filters and merges traffic; loads allocate, stores
//     write through without allocating (write-evict);
//   * a load/store unit dispatches a divergent access's requests over
//     multiple cycles, in order, so the interconnect sees each warp's
//     requests as an ordered train and the *last* request per memory
//     partition can carry the warp-group completion tag (§IV-B2).
//
// Functional execution (register values, control flow) is delegated to
// the workload generator; the SM is purely a timing model, which is all
// the paper's evaluation requires (see DESIGN.md substitutions).
#pragma once

#include <cstdint>
#include <vector>

#include "cache/cache.hpp"
#include "cache/mshr.hpp"
#include "common/types.hpp"
#include "gpu/coalescer.hpp"
#include "gpu/tracker.hpp"
#include "icnt/crossbar.hpp"
#include "mem/address_map.hpp"
#include "workload/instr_source.hpp"

namespace latdiv {

enum class WarpSchedPolicy : std::uint8_t {
  kGto,  ///< greedy-then-oldest (default; GPGPU-Sim's strongest baseline)
  kLrr,  ///< loose round-robin: rotate the start point every issue
};

struct SmConfig {
  std::uint32_t warps = 32;  ///< 1024 threads / 32 lanes (paper Table II)
  WarpSchedPolicy warp_sched = WarpSchedPolicy::kGto;
  CacheConfig l1{32 * 1024, 128, 8};
  MshrConfig l1_mshr{32, 8};
  /// All latencies in global (DRAM command-clock) cycles.
  Cycle l1_hit_latency = 8;
  Cycle fill_ready_delay = 2;
  std::uint32_t lsu_width = 2;  ///< line dispatches per core cycle
  std::uint32_t core_clock_ratio = 2;  ///< DRAM cycles per core cycle
  bool perfect_coalescing = false;     ///< Fig. 4 ideal
};

struct SmStats {
  std::uint64_t instructions = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t issue_stall_mshr = 0;  ///< load couldn't reserve MSHRs
  std::uint64_t no_ready_warp_cycles = 0;
};

class Sm {
 public:
  Sm(SmId id, const SmConfig& cfg, InstrSource& gen,
     const AddressMap& amap, Crossbar& xbar, InstrTracker& tracker,
     WarpInstrUid uid_base, WarpInstrUid uid_stride);

  /// Core-domain tick.
  void tick(Cycle now);

  /// Drop the idle memo so the next tick rescans every warp.  Calling
  /// this before every step runs the SM without its idle-tick skip — the
  /// reference the memo must match bit for bit (tests/test_idle_memo.cpp).
  void forget_idle_memo() { sleep_until_ = 0; }

  /// True while the idle memo skips the scan at `now` on behalf of a
  /// warp whose load cannot reserve MSHRs (a test probe).
  [[nodiscard]] bool mshr_stall_memo_armed(Cycle now) const {
    return now < sleep_until_ && sleep_mem_attempt_;
  }

  [[nodiscard]] const SmStats& stats() const { return stats_; }
  [[nodiscard]] const Coalescer& coalescer() const { return coalescer_; }
  [[nodiscard]] const Cache& l1() const { return l1_; }
  [[nodiscard]] const MshrFile& mshr() const { return mshr_; }

  /// Warps blocked on an in-flight divergent load.  Each such warp owns
  /// exactly one live InstrTracker record, so the sum over all SMs must
  /// equal InstrTracker::inflight() (checked by the invariant auditor).
  [[nodiscard]] std::size_t warps_blocked_on_loads() const {
    std::size_t n = 0;
    for (const Warp& w : warps_) {
      if (w.pending_lines > 0) ++n;
    }
    return n;
  }

  /// Functional L1 warming during a sampled-mode skip interval
  /// (ckpt::SampledRunner): install recency/presence for `line` without
  /// issuing any request.  Counts in cache stats like a normal access —
  /// sampled-mode estimates never read hit rates across a skip.
  void warm_line(Addr line) {
    if (!l1_.touch(line)) l1_.fill(line);
  }

  /// Snapshot serialization of the full core state (src/ckpt).
  template <class Ar>
  void ckpt_io(Ar& ar);

 private:
  struct Warp {
    Cycle ready_at = 0;
    std::uint32_t pending_lines = 0;  ///< outstanding loads block the warp
    bool waiting_lsu = false;         ///< store dispatch in progress
    bool has_next = false;
    WarpInstr next;
    /// mem_epoch_+1 when issue_memory last failed for `next` (0 = never):
    /// until the L1/MSHR state changes, re-running the classify loop
    /// would fail identically, so the retry short-circuits (it still
    /// counts its issue_stall_mshr tick).
    std::uint64_t issue_fail_epoch = 0;
    /// Coalesced line set of `next`, computed once at generation time
    /// (issue retries must not re-run the coalescer: it is pure, and
    /// re-running it would double-count statistics and burn host time).
    std::vector<Addr> lines;
  };

  struct Lsu {
    bool active = false;
    bool is_store = false;
    WarpId warp = 0;
    std::vector<MemRequest> queue;
    std::size_t next = 0;
  };

  /// What a scheduler scan would do, computed without committing it.
  struct ScanOutcome {
    bool issues = false;
    bool mem_attempt = false;  ///< a memory instruction gets the LSU try
    friend bool operator==(const ScanOutcome&,
                           const ScanOutcome&) = default;
  };

  void accept_response(Cycle now);
  void dispatch_lsu(Cycle now);
  void try_issue(Cycle now);
  /// After a failed scan at `now`: arm the idle memo (see sleep_until_).
  void arm_idle_memo(Cycle now, bool mem_attempt);
  /// The scan at `now`, re-evaluated without the idle memo (checks every
  /// tick the idle memo skips under LATDIV_DCHECK).
  [[nodiscard]] ScanOutcome evaluate_scan(Cycle now) const;
  [[nodiscard]] bool issuable(const Warp& w, Cycle now) const;
  /// Classify a load's lines against L1 and the MSHRs: false when the
  /// whole access cannot reserve MSHR space, else true with `pending` set
  /// to the number of lines the warp will wait on.
  [[nodiscard]] bool classify_load(const std::vector<Addr>& lines,
                                   std::uint32_t& pending) const;
  bool issue_memory(WarpId wid, Cycle now);
  void generate_next(WarpId wid);

  SmId id_;
  SmConfig cfg_;
  InstrSource& gen_;
  const AddressMap& amap_;
  Crossbar& xbar_;
  InstrTracker& tracker_;

  Cache l1_;
  MshrFile mshr_;
  Coalescer coalescer_;
  std::vector<Warp> warps_;
  Lsu lsu_;
  /// Bumped whenever L1 or MSHR contents change (fills, releases,
  /// invalidates, reservations) — the entire state the load
  /// classify loop reads.  Keys the per-warp issue_fail_epoch memo.
  std::uint64_t mem_epoch_ = 0;
  /// Idle memo: until this cycle every scheduler scan fails the same way,
  /// so a tick skips it and replays its counts.  Armed by a failed scan
  /// (arm_idle_memo) at the earliest ready_at of the unblocked warps;
  /// cleared by a response and by an LSU drain.  Not serialized: load
  /// drops it.
  Cycle sleep_until_ = 0;
  /// The failed scan that armed the memo made a memory attempt (an
  /// MSHR stall): each skipped tick counts issue_stall_mshr too.
  bool sleep_mem_attempt_ = false;
  /// The armed scan had the LSU busy or a warp ready at its tick, so the
  /// legacy idle_until_ follows the tick through the skip stretch.
  bool sleep_tracks_now_ = false;
  /// The wake-up the earlier, narrower memo rule would hold here: the
  /// failed scan's tick when the LSU was busy or a warp was ready at it,
  /// else the earliest ready_at; zeroed by a response.  Nothing reads it
  /// for timing; it is kept only because the LDSN format carries it.
  Cycle idle_until_ = 0;
  WarpId last_issued_ = 0;
  WarpInstrUid next_uid_;
  WarpInstrUid uid_stride_;
  SmStats stats_;
};

}  // namespace latdiv
