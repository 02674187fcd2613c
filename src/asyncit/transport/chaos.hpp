// Chaos decorator: the paper's delay/reorder/drop models over ANY backend.
//
// Wraps another Transport and injects a net::DeliveryPolicy at the frame
// level through the shared link model (net/channel.hpp), so the
// delay-model experiments of the in-process runtime run unchanged over
// real sockets:
//
//   latency   drawn sender-side by the link's net::LinkModel, whose
//             streams are seeded in the inproc backend's (src, dst)
//             row-major order (chaos-over-tcp draws the exact latency/
//             drop sequences inproc draws for the same master seed), and
//             carried on the wire in Message::injected_delay; the RECEIVE
//             side holds each frame in a net::DeliveryQueue until the
//             injected latency has elapsed past its arrival — additive to
//             whatever the physical medium did;
//   reorder   emerges exactly as in the paper: a later frame with a
//             smaller draw matures earlier (non-FIFO links), producing
//             genuine label inversions over TCP;
//   fifo      optional in-order floor, applied at the receiver per source
//             link (TCP preserves per-link frame order, so flooring the
//             scheduled release reproduces sender-side FIFO; a floor
//             drawn against the sender's clock is meaningless across
//             hosts);
//   drop      decided sender-side by the link model, control frames
//             exempt as everywhere; a lost frame is simply never
//             submitted to the inner backend.
//
// delays() measures first-seen-to-drain at the receiver: injected hold
// plus scheduling, the interval the unbounded-delay assumptions of the
// paper are about. A ChaosEndpoint is driven by its single peer thread
// (same contract as every Endpoint); the inner endpoint handles service
// threads.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "asyncit/net/channel.hpp"
#include "asyncit/transport/transport.hpp"

namespace asyncit::transport {

class ChaosTransport;

class ChaosEndpoint final : public Endpoint {
 public:
  std::uint32_t rank() const override;
  SendReceipt send(std::uint32_t dst, const MessageHeader& header,
                   std::span<const double> value, double now,
                   bool allow_drop) override;
  std::size_t receive(double now, std::vector<net::Message>& out) override;
  void recycle(std::vector<net::Message>& consumed) override;
  std::uint64_t activity() const override;
  void wait_for_activity(std::uint64_t seen,
                         double timeout_seconds) override;
  double next_delivery() const override;
  std::uint64_t sent() const override;
  std::uint64_t dropped() const override;
  std::uint64_t delivered() const override;
  net::DelayHistogram delays() const override;

 private:
  friend class ChaosTransport;

  Endpoint* inner_ = nullptr;
  net::LinkSpec spec_;  ///< the policy's draws; fifo is the receiver's
  std::vector<net::LinkModel> links_;  ///< per destination
  net::DeliveryQueue queue_;           ///< frames awaiting maturity
  std::vector<net::Message> staging_;  ///< inner drain scratch
  std::vector<double> fifo_floor_;  ///< per SOURCE link; empty unless fifo
};

class ChaosTransport final : public Transport {
 public:
  /// Decorates `inner` (not owned; must outlive this transport) with
  /// `policy`, seeding per-directed-link streams from `seed` exactly like
  /// InprocTransport does.
  ChaosTransport(Transport& inner, const net::DeliveryPolicy& policy,
                 std::uint64_t seed);

  std::size_t world() const override { return inner_->world(); }
  std::vector<std::uint32_t> local_ranks() const override {
    return inner_->local_ranks();
  }
  Endpoint& endpoint(std::uint32_t rank) override;
  const char* backend() const override { return "chaos"; }
  void flush(double timeout_seconds) override {
    inner_->flush(timeout_seconds);
  }
  std::uint64_t bad_frames() const override { return inner_->bad_frames(); }

 private:
  Transport* inner_;
  std::vector<std::unique_ptr<ChaosEndpoint>> endpoints_;  ///< by rank
};

}  // namespace asyncit::transport
