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
  net::LinkSpec spec = net::link_spec(policy);
  spec.fifo = false;  // floored at the receiver instead
  const std::size_t world = inner.world();
  endpoints_.resize(world);
  for (const std::uint32_t r : inner.local_ranks()) {
    auto ep = std::make_unique<ChaosEndpoint>();
    ep->inner_ = &inner.endpoint(r);
    ep->spec_ = spec;
    if (policy.fifo) ep->fifo_floor_.assign(world, 0.0);
    endpoints_[r] = std::move(ep);
  }
  // The inproc backend's (src, dst) row-major derivation: chaos over any
  // backend replays the inproc latency/drop draws for one master seed.
  Rng seeder(seed);
  for (std::size_t src = 0; src < world; ++src) {
    for (std::size_t dst = 0; dst < world; ++dst) {
      const std::uint64_t s = seeder.next();
      if (endpoints_[src]) endpoints_[src]->links_.emplace_back(s);
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
  const net::LinkDraw draw = links_[dst].draw(spec_, header.kind, allow_drop);
  const double deliver_at = now + draw.variate;
  // A drop decided here is the sender's to trace: the receipt reports it.
  if (!draw.sent) return {false, now, deliver_at};
  MessageHeader h = header;
  h.injected_delay = deliver_at - now;  // this link's latency draw
  // Drops were decided here; the inner backend must not drop again.
  const SendReceipt r = inner_->send(dst, h, value, now, false);
  return {r.sent, now, deliver_at};
}

std::size_t ChaosEndpoint::receive(double now,
                                   std::vector<net::Message>& out) {
  staging_.clear();
  inner_->receive(now, staging_);
  for (net::Message& m : staging_) {
    double release = now + std::max(0.0, m.injected_delay);
    if (m.src < fifo_floor_.size()) {
      release = std::max(release, fifo_floor_[m.src]);
      fifo_floor_[m.src] = release;
    }
    m.t_send = now;  // first seen at this layer (delay measurement base)
    m.deliver_at = release;
    queue_.push(std::move(m));
  }
  staging_.clear();
  const std::size_t n = queue_.pop_matured(now, out);
  if (n > 0 || queue_.size() > 0)
    obs::record(obs::EventType::kQueueDepth,
                static_cast<std::uint8_t>(obs::QueueKind::kChaosHeld),
                rank(), queue_.size(), double(n));
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
  return std::min(inner_->next_delivery(), queue_.next_delivery());
}

std::uint64_t ChaosEndpoint::sent() const {
  std::uint64_t n = 0;
  for (const net::LinkModel& l : links_) n += l.stamped();
  return n;
}

std::uint64_t ChaosEndpoint::dropped() const {
  std::uint64_t n = 0;
  for (const net::LinkModel& l : links_) n += l.dropped();
  return n + inner_->dropped();
}

std::uint64_t ChaosEndpoint::delivered() const { return queue_.delivered(); }

net::DelayHistogram ChaosEndpoint::delays() const { return queue_.delays(); }

}  // namespace asyncit::transport
