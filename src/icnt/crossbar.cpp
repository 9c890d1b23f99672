#include "icnt/crossbar.hpp"

namespace latdiv {

Crossbar::Crossbar(const IcntConfig& cfg)
    : cfg_(cfg),
      sm_queues_(cfg.sms),
      part_in_(cfg.partitions),
      part_out_(cfg.partitions),
      sm_in_(cfg.sms),
      part_rr_(cfg.partitions, 0),
      part_sticky_(cfg.partitions, cfg.sms),  // sms = "no sticky grant yet"
      sm_rr_(cfg.sms, 0),
      req_heads_(cfg.partitions, cfg.sms),
      resp_heads_(cfg.sms, cfg.partitions),
      resp_sms_(1, cfg.sms) {
  LATDIV_ASSERT(cfg.sms > 0 && cfg.partitions > 0, "empty crossbar");
}

void Crossbar::note_sm_head(std::uint32_t sm) {
  if (sm_queues_[sm].empty()) return;
  const ChannelId p = sm_queues_[sm].front().loc.channel;
  LATDIV_ASSERT(p < cfg_.partitions, "request for an unknown partition");
  req_heads_.set(p, sm);
}

void Crossbar::note_part_head(std::uint32_t p) {
  if (part_out_[p].empty()) return;
  const SmId sm = part_out_[p].front().tag.sm;
  LATDIV_ASSERT(sm < cfg_.sms, "response for an unknown SM");
  resp_heads_.set(sm, p);
  resp_sms_.set(0, sm);
}

void Crossbar::rebuild_masks() {
  req_heads_.clear();
  resp_heads_.clear();
  resp_sms_.clear();
  req_queued_ = 0;
  resp_queued_ = 0;
  for (std::uint32_t sm = 0; sm < cfg_.sms; ++sm) {
    note_sm_head(sm);
    req_queued_ += sm_queues_[sm].size();
  }
  for (std::uint32_t p = 0; p < cfg_.partitions; ++p) {
    note_part_head(p);
    resp_queued_ += part_out_[p].size();
  }
}

bool Crossbar::masks_match_queues() const {
  Crossbar fresh(cfg_);
  fresh.sm_queues_ = sm_queues_;
  fresh.part_out_ = part_out_;
  fresh.rebuild_masks();
  return fresh.req_heads_ == req_heads_ && fresh.resp_heads_ == resp_heads_ &&
         fresh.resp_sms_ == resp_sms_ && fresh.req_queued_ == req_queued_ &&
         fresh.resp_queued_ == resp_queued_;
}

bool Crossbar::can_inject_request(SmId sm) const {
  LATDIV_ASSERT(sm < sm_queues_.size(), "sm out of range");
  return sm_queues_[sm].size() < cfg_.sm_queue_depth;
}

void Crossbar::inject_request(SmId sm, MemRequest req, Cycle now) {
  LATDIV_ASSERT(can_inject_request(sm), "SM injection queue overflow");
  (void)now;
  sm_queues_[sm].push_back(req);
  ++req_queued_;
  if (sm_queues_[sm].size() == 1) note_sm_head(sm);
}

const MemRequest* Crossbar::peek_request(ChannelId part, Cycle now) const {
  LATDIV_ASSERT(part < part_in_.size(), "partition out of range");
  const auto& q = part_in_[part];
  if (q.empty() || q.front().ready_at > now) return nullptr;
  return &q.front().payload;
}

MemRequest Crossbar::pop_request(ChannelId part, Cycle now) {
  LATDIV_ASSERT(peek_request(part, now) != nullptr, "pop without peek");
  MemRequest req = part_in_[part].front().payload;
  part_in_[part].pop_front();
  return req;
}

bool Crossbar::can_inject_response(ChannelId part) const {
  LATDIV_ASSERT(part < part_out_.size(), "partition out of range");
  return part_out_[part].size() < cfg_.partition_out_depth;
}

void Crossbar::inject_response(ChannelId part, MemResponse resp, Cycle now) {
  LATDIV_ASSERT(can_inject_response(part), "partition response overflow");
  (void)now;
  part_out_[part].push_back(resp);
  ++resp_queued_;
  if (part_out_[part].size() == 1) note_part_head(part);
}

std::optional<MemResponse> Crossbar::pop_response(SmId sm, Cycle now) {
  LATDIV_ASSERT(sm < sm_in_.size(), "sm out of range");
  auto& q = sm_in_[sm];
  if (q.empty() || q.front().ready_at > now) return std::nullopt;
  MemResponse resp = q.front().payload;
  q.pop_front();
  return resp;
}

void Crossbar::tick(Cycle now) {
  LATDIV_DCHECK(masks_match_queues(),
                "crossbar occupancy masks disagree with the queues");
  // Request crossbar: each partition grants one SM whose head targets it,
  // round-robin from its pointer (or the sticky SM while its head still
  // targets the partition).  A pop exposes the SM's next head, which a
  // later partition in this same loop may grant.
  for (std::uint32_t p = 0; req_queued_ != 0 && p < cfg_.partitions; ++p) {
    if (part_in_[p].size() >= cfg_.partition_in_depth) continue;
    std::uint32_t granted = part_sticky_[p];
    if (!cfg_.sticky_arbitration || granted >= cfg_.sms ||
        !req_heads_.test(p, granted)) {
      granted = req_heads_.find_next_cyclic(p, part_rr_[p]);
      if (granted == BitMatrix::kNone) continue;
      part_rr_[p] = (granted + 1) % cfg_.sms;
    }
    part_sticky_[p] = granted;
    auto& q = sm_queues_[granted];
    part_in_[p].push_back({now + cfg_.request_latency, q.front()});
    q.pop_front();
    req_heads_.reset(p, granted);
    note_sm_head(granted);
    --req_queued_;
    ++stats_.requests_moved;
  }

  // Response crossbar: each SM accepts one response per cycle, SMs in
  // ascending order.  A pop exposes the partition's next head; if it
  // targets a later SM, that SM is served in this same walk.
  for (std::uint32_t sm = resp_sms_.find_next(0, 0); sm != BitMatrix::kNone;
       sm = resp_sms_.find_next(0, sm + 1)) {
    const std::uint32_t p = resp_heads_.find_next_cyclic(sm, sm_rr_[sm]);
    sm_in_[sm].push_back({now + cfg_.response_latency, part_out_[p].front()});
    part_out_[p].pop_front();
    resp_heads_.reset(sm, p);
    if (!resp_heads_.any(sm)) resp_sms_.reset(0, sm);
    note_part_head(p);
    --resp_queued_;
    sm_rr_[sm] = (p + 1) % cfg_.partitions;
    ++stats_.responses_moved;
  }
}

}  // namespace latdiv
