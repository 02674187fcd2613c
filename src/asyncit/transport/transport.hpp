// Pluggable wire transport for the message-passing runtime.
//
// net::Peer used to talk straight to in-process delivery queues, so the
// "distributed" runtime could only ever simulate communication effects
// inside one address space. transport/ puts an interface between the peer
// loop and the medium: a Transport owns the communication fabric of a run
// (one Endpoint per locally hosted rank), and a peer sends/receives/waits
// exclusively through its Endpoint. Three backends implement it:
//
//   inproc  (transport/inproc.hpp)  the shared seeded link model and
//           delivery queue of net/channel.hpp within one process;
//   tcp     (transport/tcp.hpp)     nonblocking POSIX sockets over
//           loopback/LAN with the length-prefixed wire format of
//           transport/wire.hpp and per-peer reader/writer threads — ranks
//           may live in DIFFERENT PROCESSES (see net::run_node and
//           tools/asyncit_node.cpp);
//   chaos   (transport/chaos.hpp)   a decorator over any backend that
//           injects the paper's delay/reorder/drop models at the frame
//           level, so delay-model experiments run unchanged over real
//           sockets.
//
// Allocation discipline: the send/receive path is allocation-free in
// steady state. Payload buffers and wire frames are recycled through
// transport/pool.hpp pools with the same discipline as op::Workspace —
// every acquire is matched by a recycle, capacity is retained, and after
// warm-up the pools serve every message (pinned by tests/alloc_test.cpp).
//
// Threading contract: one Endpoint is driven by exactly ONE peer thread
// (send/receive/recycle/wait are called from it alone); backends may run
// internal service threads (TCP readers/writers) that synchronize with
// the peer thread internally. Stats accessors are safe after the run has
// quiesced (peers joined); delays() returns a copy for that reason.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "asyncit/net/channel.hpp"
#include "asyncit/obs/trace_recorder.hpp"

namespace asyncit::transport {

/// Sender-side description of an outgoing message (net/channel.hpp).
using MessageHeader = net::MessageHeader;

/// What happened to one send. `deliver_at` is the scheduled
/// (inproc/chaos) or nominal (tcp: == t_send) delivery time.
struct SendReceipt {
  bool sent = false;  ///< false: dropped (loss model, closed link)
  double t_send = 0.0;
  double deliver_at = 0.0;
};


class Endpoint {
 public:
  virtual ~Endpoint() = default;

  virtual std::uint32_t rank() const = 0;

  /// Sends `value` (a block or sub-block payload) to rank `dst`. `now` is
  /// the run clock in seconds; `allow_drop` gates the loss model (only
  /// the totally asynchronous mode tolerates loss).
  virtual SendReceipt send(std::uint32_t dst, const MessageHeader& header,
                           std::span<const double> value, double now,
                           bool allow_drop) = 0;

  /// Appends every message deliverable at `now` to `out` (delivery order)
  /// and returns the number appended. Ownership of the payload buffers
  /// moves to the caller until recycle().
  virtual std::size_t receive(double now, std::vector<net::Message>& out) = 0;

  /// Returns consumed messages' payload buffers to the endpoint's pool
  /// and clears `consumed`. Call after incorporating a receive() batch;
  /// this is what keeps the steady-state path allocation-free.
  virtual void recycle(std::vector<net::Message>& consumed) = 0;

  /// Monotone counter bumped whenever new data may have become
  /// receivable (a post / a frame arrival). Read it BEFORE the last
  /// receive() and pass it to wait_for_activity: an arrival landing in
  /// between can then never be slept through.
  virtual std::uint64_t activity() const = 0;

  /// Blocks until activity() exceeds `seen` or the timeout passes.
  virtual void wait_for_activity(std::uint64_t seen,
                                 double timeout_seconds) = 0;

  /// Earliest scheduled delivery among internally held messages (+inf
  /// when none) — lets gate waits sleep exactly until maturation.
  virtual double next_delivery() const = 0;

  // ---- statistics (stable once the run has quiesced) ----
  virtual std::uint64_t sent() const = 0;     ///< stamped (incl. dropped)
  virtual std::uint64_t dropped() const = 0;
  virtual std::uint64_t delivered() const = 0;
  /// Measured per-message delays at this receiver (see each backend's
  /// header for what interval is measured).
  virtual net::DelayHistogram delays() const = 0;
};

/// Endpoint::send that traces a kFrameDrop when the receipt reports the
/// frame lost. Senders send through it and a fabric traces only discards
/// no receipt can report, so each dropped frame is traced once.
inline SendReceipt send_traced(Endpoint& ep, std::uint32_t dst,
                               const MessageHeader& header,
                               std::span<const double> value, double now,
                               bool allow_drop) {
  const SendReceipt receipt = ep.send(dst, header, value, now, allow_drop);
  if (!receipt.sent)
    obs::record(obs::EventType::kFrameDrop,
                static_cast<std::uint8_t>(header.kind), dst, header.tag, 0.0);
  return receipt;
}

class Transport {
 public:
  virtual ~Transport() = default;

  /// Total number of ranks in the run (across all processes).
  virtual std::size_t world() const = 0;

  /// Ranks hosted by THIS process (every one has an endpoint()).
  virtual std::vector<std::uint32_t> local_ranks() const = 0;

  /// The endpoint of a locally hosted rank.
  virtual Endpoint& endpoint(std::uint32_t rank) = 0;

  virtual const char* backend() const = 0;

  /// Best-effort drain of outbound queues (a node broadcasts its stop
  /// control frame and must not tear the fabric down under it). Default:
  /// nothing buffered, nothing to do.
  virtual void flush(double /*timeout_seconds*/) {}

  /// Wire-invalid frames observed across local receivers (corrupted or
  /// foreign byte streams; see TcpTransport). Backends without a framed
  /// medium have none. Part of the uniform counter schema every node
  /// reports (MpResult::bad_frames / the asyncit-node/1 JSON).
  virtual std::uint64_t bad_frames() const { return 0; }
};

}  // namespace asyncit::transport
