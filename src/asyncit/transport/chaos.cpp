#include "asyncit/transport/chaos.hpp"

#include <algorithm>

#include "asyncit/obs/trace_recorder.hpp"
#include "asyncit/support/check.hpp"
#include "asyncit/support/rng.hpp"

namespace asyncit::transport {

ChaosTransport::ChaosTransport(Transport& inner,
                               const net::DeliveryPolicy& policy,
                               std::uint64_t seed)
    : inner_(&inner) {
  // Same preconditions the inproc backend enforces: every route into a
  // delay model validates the policy (drop_prob == 1 would starve the
  // run into its wall budget with no diagnostic).
  ASYNCIT_CHECK(policy.min_latency >= 0.0 &&
                policy.max_latency >= policy.min_latency);
  ASYNCIT_CHECK(policy.drop_prob >= 0.0 && policy.drop_prob < 1.0);
  const std::size_t world = inner.world();
  const std::vector<std::uint32_t> locals = inner.local_ranks();
  endpoints_.resize(world);
  for (const std::uint32_t r : locals) {
    auto ep = std::make_unique<ChaosEndpoint>();
    ep->inner_ = &inner.endpoint(r);
    ep->fifo_ = policy.fifo;
    ep->drop_control_ = policy.drop_control;
    ep->fifo_floor_.assign(world, 0.0);
    endpoints_[r] = std::move(ep);
  }
  // Per-directed-link streams in the same (src, dst) row-major derivation
  // as InprocTransport: chaos-over-tcp replays the inproc latency/drop
  // draw sequences for the same master seed. The stampers run with
  // fifo=false — ordering is enforced at the receiver instead, because a
  // sender-side floor is meaningless across host clocks.
  net::DeliveryPolicy draw_policy = policy;
  draw_policy.fifo = false;
  Rng seeder(seed);
  for (std::size_t src = 0; src < world; ++src) {
    for (std::size_t dst = 0; dst < world; ++dst) {
      const std::uint64_t s = seeder.next();
      if (endpoints_[src])
        endpoints_[src]->links_.emplace_back(draw_policy, s);
    }
  }
}

Endpoint& ChaosTransport::endpoint(std::uint32_t rank) {
  ASYNCIT_CHECK(rank < endpoints_.size() && endpoints_[rank] != nullptr);
  return *endpoints_[rank];
}

std::uint32_t ChaosEndpoint::rank() const { return inner_->rank(); }

SendReceipt ChaosEndpoint::send(std::uint32_t dst,
                                const MessageHeader& header,
                                std::span<const double> value, double now,
                                bool allow_drop) {
  ASYNCIT_CHECK(dst < links_.size());
  net::Message probe;  // carries only the stamped timing fields
  // Control frames are exempt from the drop model unless the stress flag
  // opts them in (see DeliveryPolicy::drop_control); the stamper still
  // consumes its draws, keeping the link streams replay-deterministic.
  const bool droppable =
      allow_drop && (!net::is_control(header.kind) || drop_control_);
  const bool kept = links_[dst].stamp(probe, now, droppable);
  if (!kept) {
    // The loss model decided here (sender-side draw): the trace's
    // injected-drop signature, distinct from dead-link TCP drops.
    obs::record(obs::EventType::kFrameDrop,
                static_cast<std::uint8_t>(header.kind), dst, 0,
                probe.deliver_at - now);
    return {false, probe.t_send, probe.deliver_at};
  }
  MessageHeader h = header;
  h.injected_delay = probe.deliver_at - now;  // this link's latency draw
  // Drops were decided here; the inner backend must not drop again.
  const SendReceipt r = inner_->send(dst, h, value, now, false);
  return {r.sent, now, probe.deliver_at};
}

std::size_t ChaosEndpoint::receive(double now,
                                   std::vector<net::Message>& out) {
  // Max-heap comparator on "matures later" = min-heap on (release, seq).
  const auto later = [](const Held& a, const Held& b) {
    return a.release != b.release ? a.release > b.release : a.seq > b.seq;
  };
  staging_.clear();
  inner_->receive(now, staging_);
  for (net::Message& m : staging_) {
    double release = now + std::max(0.0, m.injected_delay);
    if (fifo_ && m.src < fifo_floor_.size()) {
      release = std::max(release, fifo_floor_[m.src]);
      fifo_floor_[m.src] = release;
    }
    m.t_send = now;  // first seen at this layer (delay measurement base)
    m.deliver_at = release;
    held_.push_back({release, held_seq_++, std::move(m)});
    std::push_heap(held_.begin(), held_.end(), later);
  }
  staging_.clear();
  std::size_t n = 0;
  while (!held_.empty() && held_.front().release <= now) {
    std::pop_heap(held_.begin(), held_.end(), later);
    net::Message& m = held_.back().m;
    delays_.add(now - m.t_send);
    out.push_back(std::move(m));
    held_.pop_back();
    ++n;
  }
  if (n > 0 || !held_.empty())
    obs::record(obs::EventType::kQueueDepth,
                static_cast<std::uint8_t>(obs::QueueKind::kChaosHeld),
                rank(), held_.size(), double(n));
  delivered_ += n;
  return n;
}

void ChaosEndpoint::recycle(std::vector<net::Message>& consumed) {
  inner_->recycle(consumed);
}

std::uint64_t ChaosEndpoint::activity() const { return inner_->activity(); }

void ChaosEndpoint::wait_for_activity(std::uint64_t seen,
                                      double timeout_seconds) {
  inner_->wait_for_activity(seen, timeout_seconds);
}

double ChaosEndpoint::next_delivery() const {
  const double inner_next = inner_->next_delivery();
  if (held_.empty()) return inner_next;
  return std::min(inner_next, held_.front().release);
}

std::uint64_t ChaosEndpoint::sent() const {
  std::uint64_t n = 0;
  for (const net::LinkStamper& l : links_) n += l.stamped();
  return n;
}

std::uint64_t ChaosEndpoint::dropped() const {
  std::uint64_t n = 0;
  for (const net::LinkStamper& l : links_) n += l.dropped();
  return n + inner_->dropped();
}

std::uint64_t ChaosEndpoint::delivered() const { return delivered_; }

net::DelayHistogram ChaosEndpoint::delays() const { return delays_; }

}  // namespace asyncit::transport
