// Virtual-time backend: the WAN topology of config.hpp behind the
// transport::Transport interface (DESIGN.md §10).
//
// The link model and the delivery queue are the ones every fabric shares
// (net/channel.hpp): each directed link is a net::LinkModel whose stream
// is seeded from the master seed by a per-link salt, and each destination
// holds a net::DeliveryQueue keyed (deliver_at, push seq), so delivery
// order is a pure function of (config, seed). What is simnet's own is the
// mapping of a frame's variate to its latency, base(s, d) * variate +
// serialization, where base(s, d) is COMPUTED from (latency, regions,
// cross_region, asymmetry) rather than stored, and the partition cut,
// checked before any draw. The per-link state is the link model alone,
// created by the first frame a rank sends on the link: an endpoint holds
// one per destination it has sent to (its readers, in a sparse world),
// not one per rank.
//
// Two drive modes per endpoint:
//
//   engine-driven  (a SimEngine fiber calls receive()): receive() first
//       charges one per-rank compute draw via SimEngine::advance() —
//       the peer loop drains once per update phase, so the draw IS the
//       phase cost, and a bare poll is charged the same draw (a poll
//       occupies a scheduling slot) — then drains frames matured against
//       the post-advance clock. This is what makes virtual time move:
//       every pass through any peer loop advances the clock, so gate
//       polls always make progress and wait_for_activity() never spins
//       at a frozen instant.
//
//   passive  (no engine, or called off-fiber): receive() is a plain
//       drain against the caller's `now`, and wait_for_activity()
//       returns immediately. This is the scripted mode the cross-backend
//       parity tests drive from one thread.
//
// Time source: with an engine attached, send/receive use engine->now()
// (the peer's SimClock reads the same value); the caller's `now` is used
// only in passive mode.
//
// Pooling mirrors inproc: a sender borrows the net::Message from the
// DESTINATION endpoint's pool, where the receiver's recycle() returns it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "asyncit/net/channel.hpp"
#include "asyncit/simnet/config.hpp"
#include "asyncit/simnet/engine.hpp"
#include "asyncit/transport/pool.hpp"
#include "asyncit/transport/transport.hpp"

namespace asyncit::simnet {

class SimTransport;

class SimEndpoint final : public transport::Endpoint {
 public:
  std::uint32_t rank() const override { return rank_; }
  transport::SendReceipt send(std::uint32_t dst,
                              const transport::MessageHeader& header,
                              std::span<const double> value, double now,
                              bool allow_drop) override;
  std::size_t receive(double now, std::vector<net::Message>& out) override;
  void recycle(std::vector<net::Message>& consumed) override;
  std::uint64_t activity() const override { return queue_.pushed(); }
  void wait_for_activity(std::uint64_t seen,
                         double timeout_seconds) override;
  double next_delivery() const override { return queue_.next_delivery(); }
  std::uint64_t sent() const override;
  std::uint64_t dropped() const override;
  std::uint64_t delivered() const override { return queue_.delivered(); }
  net::DelayHistogram delays() const override { return queue_.delays(); }

  /// Frames dropped by an active PartitionWindow cut (subset of
  /// dropped()). Partition drops ignore allow_drop: a severed link loses
  /// control frames too — that is the failure being modelled.
  std::uint64_t partition_dropped() const { return partition_dropped_; }

 private:
  friend class SimTransport;

  /// One virtual compute-phase cost draw for this rank.
  double compute_draw();
  /// The link model toward `dst`, created by the first frame sent on it.
  net::LinkModel& link_to(std::uint32_t dst);

  SimTransport* owner_ = nullptr;
  std::uint32_t rank_ = 0;
  /// The links this rank has sent on, ascending by destination:
  /// links_[i] leads to link_dst_[i]. A lookup is a binary search of the
  /// destinations. A dense world's first publish goes to every rank in
  /// ascending order, so each of its inserts appends.
  std::vector<std::uint32_t> link_dst_;
  std::vector<net::LinkModel> links_;
  Rng compute_rng_{0};
  double straggler_ = 1.0;  ///< this rank's compute multiplier

  // Receive side. Single-threaded by construction (one carrier: either
  // the engine thread or the scripted test thread).
  net::DeliveryQueue queue_;
  transport::MessagePool pool_;
  std::uint64_t partition_dropped_ = 0;
};

class SimTransport final : public transport::Transport {
 public:
  /// All `world` ranks are local. `engine` may be null (passive mode);
  /// when set, it must outlive the transport and frames wake blocked
  /// destination fibers at their delivery time.
  SimTransport(std::size_t world, const SimConfig& config,
               std::uint64_t seed, SimEngine* engine);

  std::size_t world() const override { return endpoints_.size(); }
  std::vector<std::uint32_t> local_ranks() const override;
  transport::Endpoint& endpoint(std::uint32_t rank) override;
  const char* backend() const override { return "sim"; }

  std::uint64_t partition_dropped() const;

  /// Deterministic base one-way latency of directed link s -> d (no
  /// jitter, no serialization): latency * region multiplier * the
  /// per-link asymmetry skew hashed from the seed. Exposed for tests.
  double base_latency(std::uint32_t s, std::uint32_t d) const;

 private:
  friend class SimEndpoint;

  SimConfig config_;
  std::uint64_t seed_ = 0;
  SimEngine* engine_ = nullptr;
  /// Variates are jitter multipliers in [1 - jitter, 1 + jitter).
  net::LinkSpec spec_;
  std::vector<std::unique_ptr<SimEndpoint>> endpoints_;
};

}  // namespace asyncit::simnet
