// In-process backend: the shared link model behind the Transport
// interface.
//
// Every send runs the sending link's net::LinkModel (latency draw, loss
// draw, FIFO floor) and posts the stamped message into the destination
// station's net::DeliveryQueue, under the station's lock. The link streams
// are derived from the master seed in (src, dst) row-major order, self
// links included, so the latency/drop sequence of every link is a pure
// function of (seed, link, message index) — the channel replay-determinism
// tests pin it, and the chaos decorator derives its streams the same way.
//
// Pooling: a sender borrows the outgoing net::Message from the
// DESTINATION station's pool (the message ends its life there when the
// receiver recycles its drain batch), so every pool's acquires and
// recycles match one-to-one regardless of how asymmetric the traffic is.
//
// delays() measures post-to-drain (injected latency + scheduling).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "asyncit/net/channel.hpp"
#include "asyncit/transport/pool.hpp"
#include "asyncit/transport/transport.hpp"

namespace asyncit::transport {

class InprocTransport;

class InprocEndpoint final : public Endpoint {
 public:
  std::uint32_t rank() const override { return rank_; }
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
  friend class InprocTransport;
  InprocTransport* owner_ = nullptr;
  std::uint32_t rank_ = 0;
  /// Per-destination links, owned and used by this endpoint's peer thread
  /// alone (the replay-determinism contract of net::LinkModel).
  std::vector<net::LinkModel> links_;
};

class InprocTransport final : public Transport {
 public:
  /// Seeds one RNG stream per directed link from `seed` in (src, dst)
  /// row-major order, including the unused self-link draws.
  InprocTransport(std::size_t world, const net::DeliveryPolicy& policy,
                  std::uint64_t seed);

  std::size_t world() const override { return stations_.size(); }
  std::vector<std::uint32_t> local_ranks() const override;
  Endpoint& endpoint(std::uint32_t rank) override;
  const char* backend() const override { return "inproc"; }

 private:
  friend class InprocEndpoint;
  /// Receive side of one rank: its delivery queue, posted to by every
  /// sender thread under `mu`, and the pool its consumed messages return
  /// to (and its senders borrow from). `cv` lets a gated peer sleep until
  /// something new is posted instead of spinning.
  struct Station {
    mutable std::mutex mu;
    std::condition_variable cv;
    net::DeliveryQueue queue;
    MessagePool pool;
  };
  net::LinkSpec spec_;
  std::vector<std::unique_ptr<Station>> stations_;
  std::vector<InprocEndpoint> endpoints_;
};

}  // namespace asyncit::transport
