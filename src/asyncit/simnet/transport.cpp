#include "asyncit/simnet/transport.hpp"

#include <algorithm>

#include "asyncit/support/check.hpp"
#include "asyncit/transport/wire.hpp"

namespace asyncit::simnet {

namespace {

/// splitmix64 finalizer — the standard bit mixer, used to derive
/// independent per-link / per-rank seeds and the asymmetry skew from the
/// master seed without maintaining O(world^2) generator state.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Domain-separation salts so link streams, compute streams and the
// asymmetry hash never collide for any (seed, rank) combination.
constexpr std::uint64_t kLinkSalt = 0x6c696e6b5f73696dull;     // "link_sim"
constexpr std::uint64_t kComputeSalt = 0x636f6d705f73696dull;  // "comp_sim"
constexpr std::uint64_t kSkewSalt = 0x736b65775f73696dull;     // "skew_sim"

}  // namespace

SimTransport::SimTransport(std::size_t world, const SimConfig& config,
                           std::uint64_t seed, SimEngine* engine)
    : config_(config),
      seed_(seed),
      engine_(engine),
      spec_{1.0 - config.topology.jitter, 1.0 + config.topology.jitter,
            config.topology.drop_prob, config.topology.drop_control,
            config.topology.fifo} {
  ASYNCIT_CHECK(world >= 1);
  const TopologyConfig& topo = config_.topology;
  ASYNCIT_CHECK(topo.latency >= 0.0 && topo.jitter >= 0.0);
  ASYNCIT_CHECK(topo.drop_prob >= 0.0 && topo.drop_prob < 1.0);
  ASYNCIT_CHECK(topo.bandwidth >= 0.0);
  ASYNCIT_CHECK(topo.regions >= 1 && topo.cross_region >= 0.0);
  ASYNCIT_CHECK(config_.compute.phase >= 0.0 &&
                config_.compute.jitter >= 0.0 &&
                config_.compute.jitter <= 1.0);
  for (const PartitionWindow& w : topo.partitions)
    ASYNCIT_CHECK_MSG(w.t1 >= w.t0, "partition window ends before it starts");
  endpoints_.reserve(world);
  for (std::size_t src = 0; src < world; ++src) {
    auto ep = std::make_unique<SimEndpoint>();
    ep->owner_ = this;
    ep->rank_ = static_cast<std::uint32_t>(src);
    ep->compute_rng_.reseed(mix64(seed ^ kComputeSalt) ^ mix64(src));
    const std::uint32_t every = config_.compute.straggler_every;
    // Ranks every-1, 2*every-1, ... straggle (never rank 0: the train
    // stack's parameter server lives there and a straggling server would
    // measure a different phenomenon than straggling workers).
    if (every > 0 && (ep->rank_ % every) == every - 1)
      ep->straggler_ = config_.compute.straggler_factor;
    endpoints_.push_back(std::move(ep));
  }
}

std::vector<std::uint32_t> SimTransport::local_ranks() const {
  std::vector<std::uint32_t> ranks(endpoints_.size());
  for (std::size_t i = 0; i < ranks.size(); ++i)
    ranks[i] = static_cast<std::uint32_t>(i);
  return ranks;
}

transport::Endpoint& SimTransport::endpoint(std::uint32_t rank) {
  ASYNCIT_CHECK(rank < endpoints_.size());
  return *endpoints_[rank];
}

std::uint64_t SimTransport::partition_dropped() const {
  std::uint64_t n = 0;
  for (const auto& ep : endpoints_) n += ep->partition_dropped_;
  return n;
}

double SimTransport::base_latency(std::uint32_t s, std::uint32_t d) const {
  const TopologyConfig& topo = config_.topology;
  double base = topo.latency;
  if (topo.regions > 1 && (s % topo.regions) != (d % topo.regions))
    base *= topo.cross_region;
  if (topo.asymmetry != 0.0) {
    // Deterministic per-directed-link skew in [-1, 1): (s, d) and (d, s)
    // hash independently, so routes are asymmetric like real WAN paths.
    const std::uint64_t h =
        mix64(seed_ ^ kSkewSalt) ^
        mix64(std::uint64_t(s) * endpoints_.size() + d);
    const double u =
        double(h >> 11) * (1.0 / 9007199254740992.0) * 2.0 - 1.0;
    base *= 1.0 + topo.asymmetry * u;
  }
  return std::max(base, 0.0);
}

double SimEndpoint::compute_draw() {
  const ComputeModel& c = owner_->config_.compute;
  return c.phase * compute_rng_.uniform(1.0 - c.jitter, 1.0 + c.jitter) *
         straggler_;
}

net::LinkModel& SimEndpoint::link_to(std::uint32_t dst) {
  const auto it = std::lower_bound(link_dst_.begin(), link_dst_.end(), dst);
  const auto i = it - link_dst_.begin();
  if (it == link_dst_.end() || *it != dst) {
    // Seeded from (seed, src, dst) alone, so the link's stream does not
    // depend on when its first frame was sent.
    const std::uint64_t world = owner_->endpoints_.size();
    link_dst_.insert(it, dst);
    links_.emplace(links_.begin() + i, mix64(owner_->seed_ ^ kLinkSalt) ^
                                           mix64(rank_ * world + dst));
  }
  return links_[static_cast<std::size_t>(i)];
}

transport::SendReceipt SimEndpoint::send(
    std::uint32_t dst, const transport::MessageHeader& header,
    std::span<const double> value, double now, bool allow_drop) {
  ASYNCIT_CHECK(dst < owner_->endpoints_.size() && dst != rank_);
  SimEngine* engine = owner_->engine_;
  const double t = engine != nullptr ? engine->now() : now;
  const TopologyConfig& topo = owner_->config_.topology;
  // A severed link loses everything crossing the cut, control frames
  // included — that IS the modelled failure, so allow_drop does not
  // apply. Checked before the link model draws: a partitioned link
  // carries no traffic, so it consumes no draws (the per-link stream is
  // a function of the frames the link actually carried).
  for (const PartitionWindow& w : topo.partitions) {
    if (t >= w.t0 && t < w.t1 &&
        (rank_ < w.boundary) != (dst < w.boundary)) {
      ++partition_dropped_;
      return transport::SendReceipt{false, t, 0.0};
    }
  }
  net::LinkModel& link = link_to(dst);
  const net::LinkDraw draw = link.draw(owner_->spec_, header.kind, allow_drop);
  if (!draw.sent) return transport::SendReceipt{false, t, 0.0};
  double latency =
      std::max(owner_->base_latency(rank_, dst) * draw.variate, 0.0);
  if (topo.bandwidth > 0.0) {
    // Serialization delay charged at the frame's TRUE wire size (the TCP
    // framing: header + payload, quantized frames at their packed size)
    // plus a notional 8-byte transport overhead — for raw full-width
    // frames this is exactly the historical 8*count + 64 bytes, so
    // existing sweeps replay unchanged, while delta/codec frames now pay
    // what they would actually cost on a real link.
    latency += (double(transport::wire_frame_bytes(value.size(),
                                                   header.quant_bits)) +
                8.0) /
               topo.bandwidth;
  }
  const double deliver_at = link.leave(owner_->spec_, t + latency);
  SimEndpoint& station = *owner_->endpoints_[dst];
  net::Message m = station.pool_.acquire();
  net::fill_message(m, rank_, header, value);
  m.t_send = t;
  m.deliver_at = deliver_at;
  station.queue_.push(std::move(m));
  if (engine != nullptr) {
    // Low 16 bits of the sender identify the waker in the event log.
    engine->wake(dst, deliver_at, static_cast<std::uint16_t>(rank_));
  }
  return transport::SendReceipt{true, t, deliver_at};
}

std::size_t SimEndpoint::receive(double now, std::vector<net::Message>& out) {
  SimEngine* engine = owner_->engine_;
  if (engine != nullptr && engine->in_fiber()) {
    // Virtual time moves HERE: one compute draw per drain, charged
    // before maturity is evaluated, so frames landing inside the phase
    // are visible at its end and a bare gate poll still advances the
    // clock (guaranteed progress for wait loops).
    engine->advance(compute_draw());
    return queue_.pop_matured(engine->now(), out);
  }
  return queue_.pop_matured(now, out);
}

void SimEndpoint::recycle(std::vector<net::Message>& consumed) {
  pool_.recycle(consumed);
}

void SimEndpoint::wait_for_activity(std::uint64_t seen,
                                    double timeout_seconds) {
  if (activity() > seen) return;
  SimEngine* engine = owner_->engine_;
  if (engine != nullptr && engine->in_fiber()) {
    engine->wait_until(engine->now() + std::max(timeout_seconds, 0.0));
  }
  // Passive mode: no thread to wait on — scripted drivers poll.
}

std::uint64_t SimEndpoint::sent() const {
  std::uint64_t n = partition_dropped_;
  for (const net::LinkModel& l : links_) n += l.stamped();
  return n;
}

std::uint64_t SimEndpoint::dropped() const {
  std::uint64_t n = partition_dropped_;
  for (const net::LinkModel& l : links_) n += l.dropped();
  return n;
}

}  // namespace asyncit::simnet
