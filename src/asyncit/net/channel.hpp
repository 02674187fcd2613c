// The link model and delivery queue every message-passing fabric shares.
//
// Where sim/ *simulates* channels in virtual time, net/ moves block values
// as tagged Messages through a transport, and the paper's delay process is
// written exactly once, here, for every fabric that injects one (the
// inproc backend, the chaos decorator, simnet):
//
//   LinkModel      one per directed link (src -> dst). It owns the link's
//                  seeded stream and draws, per frame and in a fixed
//                  order, a variate in [lo, hi) and then a loss decision,
//                  so the delay process is a deterministic function of the
//                  seed and the link's frame count: two runs with the same
//                  seed draw identical sequences on every link however the
//                  OS schedules the senders. The backend maps the variate
//                  to a delivery time (inproc/chaos: the latency itself;
//                  simnet: a multiple of the link's base latency).
//   DeliveryQueue  one per receiver: frames mature in delivery-time order,
//                  equal times in push order. A later frame with a smaller
//                  draw overtakes its predecessor (non-FIFO links), which
//                  the receiver observes as a label inversion.
//
// Delays are MEASURED, not assumed: every frame the queue delivers records
// the interval between its t_send and the drain in a DelayHistogram
// (injected latency + scheduling delay — the quantity the paper's
// unbounded-delay assumptions are about).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "asyncit/linalg/partition.hpp"
#include "asyncit/linalg/vector_ops.hpp"
#include "asyncit/model/history.hpp"
#include "asyncit/support/rng.hpp"

namespace asyncit::net {

/// What a message carries. Almost everything is a block value; everything
/// else is a CONTROL frame riding the same path: kStop is a rank
/// announcing that it met its stopping criterion and is leaving, and the
/// kPing/kAck/kPingReq/kMembershipUpdate quartet is the SWIM failure
/// detector of membership/ (elastic ranks). Control frames reuse the
/// value header with repurposed fields — see membership/swim.hpp.
enum class MsgKind : std::uint8_t {
  kValue = 0,
  kStop = 1,
  kPing = 2,              ///< direct liveness probe (tag = sequence)
  kAck = 3,               ///< probe answer (block = answered target)
  kPingReq = 4,           ///< indirect probe request (block = target)
  kMembershipUpdate = 5,  ///< dedicated gossip broadcast
};
inline constexpr std::uint8_t kNumMsgKinds = 6;

inline constexpr bool is_control(MsgKind k) { return k != MsgKind::kValue; }

/// A block value in flight between two peers.
struct Message {
  std::uint32_t src = 0;        ///< sending peer
  la::BlockId block = 0;        ///< which block the payload is
  model::Step tag = 0;          ///< sender's production counter for `block`
  std::uint64_t round = 0;      ///< sender's phase/round index when sent
  bool partial = false;         ///< mid-phase partial update (Definition 3)
  /// Partial-range frame that finishes the sender's round anyway (the
  /// delta layer ships only changed coordinates, so the "whole block
  /// arrived" signal gated modes need travels as this flag instead).
  bool complete = false;
  MsgKind kind = MsgKind::kValue;
  /// Coordinate offset of the payload within the block: a partial-block
  /// frame carries value.size() <= block size coordinates starting here
  /// (flexible communication at sub-block granularity). 0 + full size for
  /// whole-block messages.
  std::uint32_t offset = 0;
  /// Latency injected by the chaos transport decorator, in seconds. Rides
  /// the wire so the receive side of a REAL link can hold the frame for
  /// the sender-drawn (seed-deterministic) delay. 0 outside chaos.
  double injected_delay = 0.0;
  double t_send = 0.0;          ///< wall seconds (runtime clock) at post
  double deliver_at = 0.0;      ///< t_send + injected latency
  la::Vector value;             ///< the block payload
};

/// Sender-side description of an outgoing message; the Endpoint fills in
/// src (its own rank) and the timing fields.
struct MessageHeader {
  la::BlockId block = 0;
  model::Step tag = 0;
  std::uint64_t round = 0;
  std::uint32_t offset = 0;  ///< partial-block frames (see Message)
  bool partial = false;
  /// Partial-range frame that nonetheless finishes the sender's round —
  /// the delta layer emits exactly one complete frame per (block, round)
  /// so gated modes (SSP/BSP) count rounds identically with delta on.
  bool complete = false;
  MsgKind kind = MsgKind::kValue;
  /// Chaos-drawn latency riding the wire (see Message); backends forward
  /// it verbatim. 0 outside the chaos decorator.
  double injected_delay = 0.0;
  /// Scalar-quantization lattice (codec frames only; 0 bits = raw
  /// doubles). The payload the peer hands to send() is ALREADY
  /// roundtripped onto these lattice points: inproc/chaos/simnet deliver
  /// the doubles as-is, the TCP backend re-quantizes (exactly) into a
  /// codec wire frame and the decoder dequantizes with the same params.
  std::uint8_t quant_bits = 0;
  double quant_min = 0.0;
  double quant_scale = 0.0;
};

/// Copies a send's header and payload into `m` (typically a pooled
/// message, whose payload capacity is reused); the timing fields are the
/// link's to fill.
void fill_message(Message& m, std::uint32_t src, const MessageHeader& header,
                  std::span<const double> value);

/// Per-link delivery behaviour (latency, ordering, loss).
struct DeliveryPolicy {
  /// Injected latency is uniform in [min_latency, max_latency] seconds.
  /// Zero-zero means immediate visibility (still via the delivery queue).
  double min_latency = 0.0;
  double max_latency = 0.0;
  /// Enforce per-link in-order delivery: each message's delivery time is
  /// floored at the previous one the link carried (a dropped message sets
  /// no floor). false (default) allows overtaking — the out-of-order
  /// regime of the paper.
  bool fifo = false;
  /// Probability that a message is lost in transit. Only honoured in the
  /// totally asynchronous mode (SSP/BSP gate on complete rounds and would
  /// deadlock without retransmission, which net/ does not model).
  double drop_prob = 0.0;
  /// By default the loss model spares CONTROL frames (MsgKind != kValue):
  /// a lost kStop would wedge a gated rank forever and lost membership
  /// frames would turn every chaos run into false-positive soup — the
  /// iteration theory licenses dropping VALUES (a fresher one follows),
  /// not protocol signals. Set true to subject control frames to the
  /// drop model anyway (failure-detector stress testing). The drop draw
  /// is consumed either way, so value-stream replay determinism is
  /// unaffected by the flag.
  bool drop_control = false;
};

/// Receiver-side incorporation policy (net:: and sim/).
enum class OverwritePolicy {
  /// Incoming value always overwrites the local copy (one-sided put / DMA
  /// semantics). With non-FIFO links this lets a stale value clobber a
  /// fresher one: a genuine out-of-order label inversion.
  kLastArrivalWins,
  /// Receiver keeps the newest tag (receiver-side filtering).
  kNewestTagWins,
};

/// Log-spaced histogram of measured per-message delays (seconds).
class DelayHistogram {
 public:
  /// 36 log-spaced buckets from 1 microsecond to 10 seconds, plus an
  /// overflow bucket: everything from same-quantum delivery to stragglers.
  static constexpr std::size_t kBuckets = 37;

  void add(double delay_seconds);
  void merge(const DelayHistogram& other);

  std::uint64_t count() const { return count_; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return max_; }
  double mean() const { return count_ ? sum_ / double(count_) : 0.0; }
  /// Approximate quantile: linear by rank p*count inside the bucket
  /// holding it, between that bucket's edges clamped to the observed
  /// [min, max].
  double quantile(double p) const;
  /// Named quantiles exported through the node/cluster JSON (schema
  /// asyncit-node/2); max() above completes the set.
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

  /// Bucket upper edges (seconds; the last is +inf), one table that every
  /// histogram shares, and this histogram's counts, for serialization.
  static std::span<const double, kBuckets> edges();
  std::span<const std::uint64_t, kBuckets> counts() const { return counts_; }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// The fixed parameters of a LinkModel's draws, shared by every link of
/// a fabric.
struct LinkSpec {
  double lo = 0.0;  ///< variates are uniform in [lo, hi)
  double hi = 0.0;
  double drop_prob = 0.0;
  /// Control frames face the loss model too (DeliveryPolicy::drop_control).
  bool drop_control = false;
  /// Floor each departing frame's delivery time at the link's previous one.
  bool fifo = false;
};

/// The LinkSpec of an in-process policy: variates are latencies in
/// [min_latency, max_latency]. Checks the policy — 0 <= min_latency <=
/// max_latency and 0 <= drop_prob < 1 (drop_prob 1 would starve a run
/// into its wall budget with no diagnostic) — the one place the inproc
/// backend and the chaos decorator, and so every thread-mode run,
/// validate a policy.
LinkSpec link_spec(const DeliveryPolicy& policy);

/// One frame's draws: its variate and whether it leaves the sender.
struct LinkDraw {
  double variate = 0.0;
  bool sent = false;
};

/// One directed link's delay and loss process (src -> dst). Holds only
/// per-link state — the seeded stream, the FIFO floor and the counters —
/// and takes the fabric's shared LinkSpec per call, because a world of W
/// ranks holds W^2 links. Driven by the single sender thread; not
/// thread-safe by design.
class LinkModel {
 public:
  explicit LinkModel(std::uint64_t seed) : rng_(seed) {}

  /// Draws one frame: a variate in [lo, hi), then a loss decision when
  /// drop_prob > 0. Both draws are consumed whatever the frame's kind or
  /// fate, so the stream stays aligned across replays; control frames are
  /// spared the loss unless spec.drop_control, and no frame is lost
  /// unless `allow_drop`.
  LinkDraw draw(const LinkSpec& spec, MsgKind kind, bool allow_drop);

  /// The delivery time of a frame that leaves: with spec.fifo, floored at
  /// the previous departing frame's and raising the floor. Dropped frames
  /// never reach here, so they leave the floor unchanged.
  double leave(const LinkSpec& spec, double deliver_at);

  std::uint64_t stamped() const { return stamped_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  Rng rng_;
  double floor_ = 0.0;
  std::uint64_t stamped_ = 0;
  std::uint64_t dropped_ = 0;
};

/// The frames one receiver holds until they mature: a min-heap on
/// (deliver_at, push seq), so frames deliver in delivery-time order and
/// equal times in push order — the tie-break every fabric shares. Push
/// and pop cost O(log n) however large the backlog, so a receiver that
/// fell behind catches up instead of sinking into a quadratic sorted
/// insert. Single-threaded; the inproc backend adds a lock.
class DeliveryQueue {
 public:
  void push(Message m);

  /// Moves every frame with deliver_at <= now into `out` (appended, in
  /// delivery order), records each one's measured delay now - t_send,
  /// and returns the number moved.
  std::size_t pop_matured(double now, std::vector<Message>& out);

  /// Earliest deliver_at among held frames (+inf when empty).
  double next_delivery() const {
    return heap_.empty() ? std::numeric_limits<double>::infinity()
                         : heap_.front().at;
  }

  std::size_t size() const { return heap_.size(); }
  std::uint64_t pushed() const { return pushed_; }
  std::uint64_t delivered() const { return delivered_; }
  const DelayHistogram& delays() const { return delays_; }

 private:
  struct Entry {
    double at;  ///< m.deliver_at, kept beside seq for the comparisons
    std::uint64_t seq;
    Message m;
  };
  /// Max-heap order "matures later" = min-heap on (deliver_at, seq).
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };
  std::vector<Entry> heap_;
  std::uint64_t pushed_ = 0;
  std::uint64_t delivered_ = 0;
  DelayHistogram delays_;
};

// Per-frame paths, inline so each fabric's send and receive loops
// compile them in place.

inline void fill_message(Message& m, std::uint32_t src,
                         const MessageHeader& header,
                         std::span<const double> value) {
  m.src = src;
  m.block = header.block;
  m.tag = header.tag;
  m.round = header.round;
  m.partial = header.partial;
  m.complete = header.complete;
  m.kind = header.kind;
  m.offset = header.offset;
  m.injected_delay = header.injected_delay;  // chaos latency rides along
  m.value.assign(value.begin(), value.end());
}

inline LinkDraw LinkModel::draw(const LinkSpec& spec, MsgKind kind,
                                bool allow_drop) {
  ++stamped_;
  const double variate = rng_.uniform(spec.lo, spec.hi);
  const bool lost = spec.drop_prob > 0.0 && rng_.bernoulli(spec.drop_prob);
  if (lost && allow_drop && (!is_control(kind) || spec.drop_control)) {
    ++dropped_;
    return {variate, false};
  }
  return {variate, true};
}

inline double LinkModel::leave(const LinkSpec& spec, double deliver_at) {
  if (!spec.fifo) return deliver_at;
  floor_ = std::max(deliver_at, floor_);
  return floor_;
}

inline void DeliveryQueue::push(Message m) {
  const double at = m.deliver_at;
  heap_.push_back({at, pushed_++, std::move(m)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

inline std::size_t DeliveryQueue::pop_matured(double now,
                                              std::vector<Message>& out) {
  std::size_t n = 0;
  while (!heap_.empty() && heap_.front().at <= now) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Message& m = heap_.back().m;
    delays_.add(now - m.t_send);
    out.push_back(std::move(m));
    heap_.pop_back();
    ++n;
  }
  delivered_ += n;
  return n;
}

}  // namespace asyncit::net
