#include "asyncit/transport/inproc.hpp"

#include <chrono>

#include "asyncit/support/check.hpp"
#include "asyncit/support/rng.hpp"

namespace asyncit::transport {

InprocTransport::InprocTransport(std::size_t world,
                                 const net::DeliveryPolicy& policy,
                                 std::uint64_t seed)
    : spec_(net::link_spec(policy)) {
  ASYNCIT_CHECK(world >= 1);
  stations_.reserve(world);
  for (std::size_t i = 0; i < world; ++i)
    stations_.push_back(std::make_unique<Station>());
  Rng seeder(seed);
  endpoints_.resize(world);
  for (std::size_t src = 0; src < world; ++src) {
    InprocEndpoint& ep = endpoints_[src];
    ep.owner_ = this;
    ep.rank_ = static_cast<std::uint32_t>(src);
    ep.links_.reserve(world);
    for (std::size_t dst = 0; dst < world; ++dst)
      ep.links_.emplace_back(seeder.next());
  }
}

std::vector<std::uint32_t> InprocTransport::local_ranks() const {
  std::vector<std::uint32_t> ranks(stations_.size());
  for (std::size_t i = 0; i < ranks.size(); ++i)
    ranks[i] = static_cast<std::uint32_t>(i);
  return ranks;
}

Endpoint& InprocTransport::endpoint(std::uint32_t rank) {
  ASYNCIT_CHECK(rank < endpoints_.size());
  return endpoints_[rank];
}

SendReceipt InprocEndpoint::send(std::uint32_t dst,
                                 const MessageHeader& header,
                                 std::span<const double> value, double now,
                                 bool allow_drop) {
  ASYNCIT_CHECK(dst < owner_->stations_.size() && dst != rank_);
  net::LinkModel& link = links_[dst];
  const net::LinkDraw draw = link.draw(owner_->spec_, header.kind, allow_drop);
  if (!draw.sent) return {false, now, now + draw.variate};
  InprocTransport::Station& station = *owner_->stations_[dst];
  net::Message m = station.pool.acquire();
  net::fill_message(m, rank_, header, value);
  m.t_send = now;
  m.deliver_at = link.leave(owner_->spec_, now + draw.variate);
  const SendReceipt receipt{true, now, m.deliver_at};
  {
    std::lock_guard<std::mutex> lock(station.mu);
    station.queue.push(std::move(m));
  }
  station.cv.notify_one();
  return receipt;
}

std::size_t InprocEndpoint::receive(double now,
                                    std::vector<net::Message>& out) {
  InprocTransport::Station& station = *owner_->stations_[rank_];
  std::lock_guard<std::mutex> lock(station.mu);
  return station.queue.pop_matured(now, out);
}

void InprocEndpoint::recycle(std::vector<net::Message>& consumed) {
  owner_->stations_[rank_]->pool.recycle(consumed);
}

std::uint64_t InprocEndpoint::activity() const {
  const InprocTransport::Station& station = *owner_->stations_[rank_];
  std::lock_guard<std::mutex> lock(station.mu);
  return station.queue.pushed();
}

void InprocEndpoint::wait_for_activity(std::uint64_t seen,
                                       double timeout_seconds) {
  // The caller read activity() BEFORE its last receive(), so a post that
  // lands in between is never slept through (no lost wakeup).
  InprocTransport::Station& station = *owner_->stations_[rank_];
  std::unique_lock<std::mutex> lock(station.mu);
  station.cv.wait_for(lock, std::chrono::duration<double>(timeout_seconds),
                      [&] { return station.queue.pushed() > seen; });
}

double InprocEndpoint::next_delivery() const {
  const InprocTransport::Station& station = *owner_->stations_[rank_];
  std::lock_guard<std::mutex> lock(station.mu);
  return station.queue.next_delivery();
}

std::uint64_t InprocEndpoint::sent() const {
  std::uint64_t n = 0;
  for (const net::LinkModel& l : links_) n += l.stamped();
  return n;
}

std::uint64_t InprocEndpoint::dropped() const {
  std::uint64_t n = 0;
  for (const net::LinkModel& l : links_) n += l.dropped();
  return n;
}

std::uint64_t InprocEndpoint::delivered() const {
  const InprocTransport::Station& station = *owner_->stations_[rank_];
  std::lock_guard<std::mutex> lock(station.mu);
  return station.queue.delivered();
}

net::DelayHistogram InprocEndpoint::delays() const {
  return owner_->stations_[rank_]->queue.delays();  // read once quiesced
}

}  // namespace asyncit::transport
