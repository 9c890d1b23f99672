// SM <-> memory-partition crossbar.
//
// Request side: each SM owns a FIFO injection queue; every interconnect
// cycle each partition grants one SM whose queue head targets it
// (round-robin).  Per-SM order is preserved end to end — the paper's
// warp-group tagging depends on it (§IV-B2: "the interconnect between the
// SMs and GMCs does not re-order requests from a single SM, even though it
// can interleave requests from different SMs").  Head-of-line blocking on
// a busy partition is intentional: it is what preserves the order.
//
// Sticky arbitration (IcntConfig::sticky_arbitration) models the
// non-interleaving network of Yuan et al. used by the WAFCFS comparison:
// a partition keeps granting the same SM while that SM keeps requests for
// it at its queue head, so one warp's requests arrive contiguously.
//
// Response side: symmetric — per-partition output FIFOs, one response
// delivered per SM per cycle, fixed pipeline latency each way.
//
// Arbitration reads occupancy masks, not the queues: for each partition
// the set of SMs whose queue head targets it, and for each SM the set of
// partitions whose output head targets it.  Every push and pop that
// changes a head updates them, so a grant is a find-next-set-bit from the
// round-robin pointer and a tick costs in proportion to the heads that
// can move.  The masks are derived state: snapshots omit them and load
// rebuilds them from the queues.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "common/bitmatrix.hpp"
#include "common/log.hpp"
#include "common/types.hpp"
#include "mem/request.hpp"

namespace latdiv {

struct IcntConfig {
  std::uint32_t sms = 30;
  std::uint32_t partitions = 6;
  Cycle request_latency = 8;   ///< interconnect cycles, injection->ejection
  Cycle response_latency = 8;
  std::uint32_t sm_queue_depth = 16;
  std::uint32_t partition_in_depth = 8;
  std::uint32_t partition_out_depth = 16;
  bool sticky_arbitration = false;  ///< WAFCFS (Yuan et al.) mode
};

struct IcntStats {
  std::uint64_t requests_moved = 0;
  std::uint64_t responses_moved = 0;
  std::uint64_t inject_stalls = 0;  ///< SM found its queue full
};

class Crossbar {
 public:
  explicit Crossbar(const IcntConfig& cfg);

  // --- SM side ---
  [[nodiscard]] bool can_inject_request(SmId sm) const;
  void inject_request(SmId sm, MemRequest req, Cycle now);
  /// Response available for `sm` this cycle, if any (at most one).
  std::optional<MemResponse> pop_response(SmId sm, Cycle now);

  // --- partition side ---
  /// Front request for `part` if its delivery latency has elapsed; the
  /// partition may decline to pop (back-pressure stalls the arbiter).
  [[nodiscard]] const MemRequest* peek_request(ChannelId part,
                                               Cycle now) const;
  MemRequest pop_request(ChannelId part, Cycle now);
  [[nodiscard]] bool can_inject_response(ChannelId part) const;
  void inject_response(ChannelId part, MemResponse resp, Cycle now);

  /// Arbitrate and move packets; call once per interconnect cycle.
  void tick(Cycle now);

  void count_inject_stall() { ++stats_.inject_stalls; }
  [[nodiscard]] const IcntStats& stats() const { return stats_; }
  [[nodiscard]] const IcntConfig& config() const { return cfg_; }

  // Occupancy snapshots (time-series sampling; no timing effects).
  /// Requests waiting in SM injection queues.
  [[nodiscard]] std::size_t requests_queued() const { return req_queued_; }
  /// Responses waiting in partition output queues.
  [[nodiscard]] std::size_t responses_queued() const { return resp_queued_; }

  /// Snapshot serialization of every queue + arbiter pointer (src/ckpt).
  template <class Ar>
  void ckpt_io(Ar& ar);

 private:
  template <typename T>
  struct Timed {
    Cycle ready_at;
    T payload;
  };

  /// Enter the head of SM `sm`'s queue / partition `p`'s output queue
  /// (if any) into the occupancy masks.
  void note_sm_head(std::uint32_t sm);
  void note_part_head(std::uint32_t p);
  /// Recompute masks and counts from the queues (snapshot load, and the
  /// LATDIV_DCHECK recount in tick).
  void rebuild_masks();
  [[nodiscard]] bool masks_match_queues() const;

  IcntConfig cfg_;
  std::vector<std::deque<MemRequest>> sm_queues_;
  std::vector<std::deque<Timed<MemRequest>>> part_in_;
  std::vector<std::deque<MemResponse>> part_out_;
  std::vector<std::deque<Timed<MemResponse>>> sm_in_;
  std::vector<std::uint32_t> part_rr_;      ///< per-partition SM pointer
  std::vector<std::uint32_t> part_sticky_;  ///< last granted SM (sticky mode)
  std::vector<std::uint32_t> sm_rr_;        ///< per-SM partition pointer
  /// Row per partition: SMs whose injection-queue head targets it.
  BitMatrix req_heads_;
  /// Row per SM: partitions whose output-queue head targets it.
  BitMatrix resp_heads_;
  /// One row: SMs with a non-empty resp_heads_ row.
  BitMatrix resp_sms_;
  std::size_t req_queued_ = 0;
  std::size_t resp_queued_ = 0;
  IcntStats stats_;
};

}  // namespace latdiv
