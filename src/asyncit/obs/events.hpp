// Typed POD event taxonomy of the observability layer (DESIGN.md §8).
//
// One fixed 32-byte record describes every occurrence the stack can
// report: block updates, frame traffic, membership transitions, probe
// rounds, stop decisions, queue-depth samples, transport link repair.
// The record is deliberately *untyped at the field level* — four 64-bit
// words whose meaning depends on `type` — so a single lock-free ring
// (obs/trace_recorder.hpp) can carry all of them with relaxed atomic
// word writes and zero steady-state allocations.
//
// Field conventions per type (a/b/v are the payload words; `sub` is a
// per-type discriminator; `rank` is the world rank whose code recorded
// the event — obs::ScopedRank, DESIGN.md §8):
//
//   kBlockUpdate     a=block  b=the rank's own update count, this update
//                    included (net::Peer and both rt:: async executors)
//                    sub=0 a completed update: v=phase duration seconds
//                    sub=1 a mid-phase partial publish (flexible
//                          communication) of that update: v=0
//                    rt::run_sync_threads records one sub=0 event per
//                    round instead: a=number of blocks, b=round,
//                    v=round duration seconds. sim/: b=the global step j
//                    (sub=1: its partial's tag). A publish follows its
//                    kValue frames on its rank's timeline (net::Peer, sim/)
//   kFrameSend       a=dst          b=tag  sub=MsgKind
//                    v=wire bytes of the frame (sim/: payload bytes)
//   kFrameRecv       a=src          b=tag  sub=MsgKind
//                    v=measured delay seconds (post/arrival -> drain;
//                    sim/: virtual send -> arrival)
//   kFrameReject     a=src          b=block  sub=MsgKind  v=0
//                    (sub=0xFF: wire-invalid frame at a transport reader)
//   kFrameDrop       a=dst          b=tag  sub=MsgKind  v=0
//                    One per dropped frame: the sender records every
//                    drop its SendReceipt reports (loss model, closed
//                    TCP link; transport::send_traced), the TCP fabric
//                    only frames it discards after a receipt said sent
//                    (dead elastic link, elastic queue overflow)
//   kInversion       a=block        b=tag lag (newest seen - arrived)
//                    sub=1 when the stale value was filtered  v=0
//   kMembership      a=subject rank b=incarnation
//                    sub=membership::EventKind  v=0
//   kProbe           a=target       b=sequence  sub=MsgKind (kPing /
//                    kPingReq / kAck)  v=0
//   kStopDecision    a=StopReason   b=own updates at decision  v=seconds
//   kQueueDepth      b=depth  sub=QueueKind
//                    kTcpWriter: a=dst, v=bytes queued
//                    kInbox: a=own rank, b=frames drained, v=0
//                    kChaosHeld: a=own rank, b=frames still held,
//                    v=frames released
//   kRedial          a=dst          b=attempt outcome (1 ok, 0 fail)
//                    v=seconds (run clock at the attempt)
//   kMarker          free-form breadcrumb (watchdog arm/disarm, node
//                    start): a/b/v site-defined.
//   kTrainStep       PSGD training phases (train/):
//                    sub=0 worker minibatch step: a=worker clock,
//                          b=batch size, v=step duration seconds
//                    sub=1 server delta apply: a=source rank,
//                          b=parameter version after apply, v=factorDelta
//                    sub=2 server eval: a=server round (min worker
//                          clock), b=deltas applied, v=train accuracy
#pragma once

#include <cstdint>

namespace asyncit::obs {

enum class EventType : std::uint8_t {
  kNone = 0,  ///< an unwritten ring slot (never recorded explicitly)
  kBlockUpdate,
  kFrameSend,
  kFrameRecv,
  kFrameReject,
  kFrameDrop,
  kInversion,
  kMembership,
  kProbe,
  kStopDecision,
  kQueueDepth,
  kRedial,
  kMarker,
  kTrainStep,
};
inline constexpr std::uint8_t kNumEventTypes = 14;

/// kStopDecision::a — why a rank (or the orchestrator) tripped the stop
/// flag. Mirrors every stop->store site in net:: so a trace shows not
/// just *when* a run ended but *whose* criterion ended it.
enum class StopReason : std::uint32_t {
  kWallBudget = 0,     ///< max_seconds exceeded
  kUpdateBudget = 1,   ///< max_updates exhausted
  kOracle = 2,         ///< weighted-max-norm distance below tol
  kDisplacement = 3,   ///< displacement rule + residual confirmation
  kPeerStop = 4,       ///< another rank's kStop frame ended a gated run
  kLiveViewDone = 5,   ///< everyone else stopped/died/never joined
};

/// kQueueDepth::sub — which queue the sample describes.
enum class QueueKind : std::uint8_t {
  kTcpWriter = 0,   ///< per-link TCP send queue (frames)
  kChaosHeld = 1,   ///< chaos receive-side maturity queue
  kInbox = 2,       ///< drained batch size at the peer
};

/// The 32-byte POD record. Stored in rings as four relaxed atomic words;
/// this is the decoded, reader-facing form.
struct Event {
  std::uint64_t t_ns = 0;   ///< monotonic ns since recorder enable
  EventType type = EventType::kNone;
  std::uint8_t sub = 0;     ///< per-type discriminator (see taxonomy)
  std::uint16_t rank = 0;   ///< recording world rank
  std::uint32_t a = 0;      ///< payload word (see taxonomy)
  std::uint64_t b = 0;
  double v = 0.0;
};

/// Human-readable event-type name (exporter phase names, watchdog dumps).
const char* to_string(EventType t);
const char* to_string(StopReason r);

}  // namespace asyncit::obs
