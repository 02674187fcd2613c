// Thread mode of the message-passing runtime, and the options and result
// types every mode shares.
//
// run_message_passing executes asynchronous iterations the way the paper's
// testbeds did: P ranks own disjoint block ranges and exchange step-tagged
// block values through a pluggable wire transport with injectable
// latency, reordering (non-FIFO delivery), and loss — values actually
// TRAVEL between ranks instead of living in shared memory (rt::) or in a
// virtual-time simulation (sim::). Out-of-order messages, label
// inversions, and unbounded heterogeneity delays therefore occur on real
// hardware, and every per-message delay is measured into a histogram
// rather than assumed from a model.
//
// There is one node runtime: run_message_passing runs one net::run_node
// per rank over its endpoint of the transport, through the library's one
// thread launcher, asyncit::run_on_threads (support/threads.hpp: rank 0
// on the calling thread, every other rank on its own thread), and merges
// the P results — as simnet::run_world does on fibers and
// tools/asyncit_node does with one process per rank. It holds no
// stopping logic: every rank stops by its own rule (net/node_runtime.hpp)
// and the merged iterate takes each block from the rank that owned it.
// Thread-mode training (train::run_training) and the reference solve
// (op::picard_solve) start their threads through the same launcher.
//
// The default overload runs over the in-process mailbox backend
// (transport/inproc.hpp); the Transport overload accepts any backend
// hosting every rank in this process — e.g. transport::TcpTransport over
// loopback sockets, or transport::ChaosTransport stacking the delay
// models on top of TCP.
//
// Three coordination modes are selectable per run (see net/peer.hpp):
// totally asynchronous (kAsync), staleness-bounded (kSsp), and the
// barrier-synchronized BSP baseline (kBsp), together with flexible
// communication (Definition 3 partial publishing).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "asyncit/linalg/norms.hpp"
#include "asyncit/membership/membership.hpp"
#include "asyncit/net/channel.hpp"
#include "asyncit/obs/auditor.hpp"
#include "asyncit/obs/trace_recorder.hpp"
#include "asyncit/operators/operator.hpp"

namespace asyncit::transport {
class Transport;
}

namespace asyncit::net {

/// Per-sweep coordination discipline.
enum class Mode {
  kAsync,  ///< never wait (totally asynchronous, paper Section II)
  kSsp,    ///< stale synchronous: clock gap capped by `staleness`
  kBsp,    ///< bulk synchronous baseline (barrier every round)
};

/// What to solve and when to stop — the discipline, flexible
/// communication, and budget knobs. Aggregate-initializable; nested in
/// MpOptions (and mirrored by train::TrainOptions for the PSGD mode).
struct SolveOptions {
  Mode mode = Mode::kAsync;
  /// SSP clock-gap cap in rounds (ignored by kAsync; kBsp behaves as 0).
  std::uint64_t staleness = 1;

  std::size_t inner_steps = 1;
  /// Flexible communication (Definition 3): send partial iterates
  /// mid-phase and incorporate mid-phase arrivals between inner steps.
  /// Honoured by kAsync and kSsp; kBsp keeps its frozen-snapshot rounds.
  bool publish_partials = false;

  OverwritePolicy overwrite = OverwritePolicy::kLastArrivalWins;

  double tol = 1e-9;
  std::optional<la::Vector> x_star;  ///< oracle stopping + error metric

  /// Displacement stopping rule without a known solution, identical in
  /// meaning to rt::RuntimeOptions::displacement_tol (0 disables). Each
  /// rank checks it at the end of every own sweep: when every block it
  /// updated in the sweep moved by less than this, it confirms with the
  /// true residual of its whole private view before stopping.
  double displacement_tol = 0.0;

  /// Block-update budget of EACH rank, exact to the update (thread mode,
  /// processes and simnet alike — no rank sees a global count).
  std::uint64_t max_updates = 1000000;
  double max_seconds = 30.0;  ///< wall (simnet: virtual) budget per rank
  /// Cadence, in own updates, of the wall-budget check and the CPU yield.
  /// Stopping criteria do not use it: they run at every sweep end.
  std::uint64_t check_every = 16;
};

/// Fault/latency injection for the in-process backend.
struct ChaosOptions {
  /// Channel behaviour for every directed link. drop_prob is honoured
  /// only in kAsync (see DeliveryPolicy). Ignored by the Transport
  /// overloads (the backend's own delivery behaviour applies there —
  /// stack transport::ChaosTransport for injection over real sockets).
  DeliveryPolicy delivery;
};

/// Wire-efficiency layer (transport/codec.hpp, DESIGN.md §6): per-link
/// delta encoding of block publishes, with optional lossy compression on
/// top. All off by default — the wire then carries byte-identical
/// full-width frames.
struct WireOptions {
  /// Per-(link, block) delta encoding: each sender remembers the payload
  /// it last put on every directed link and ships only the contiguous
  /// range that changed (an offset/count partial frame flagged
  /// `complete` so round accounting is unaffected). An unchanged block
  /// still sends a zero-count heartbeat — frame COUNTS are invariant, so
  /// chaos/simnet draw sequences replay identically with delta on or
  /// off, and the tag stream stays intact.
  bool delta = false;
  /// Windowed top-k sparsification (requires delta): when the dirty
  /// range is wider than this, send only the <= topk-wide window with
  /// the largest |change| mass; the rest stays dirty and ships later.
  /// 0 = off.
  std::uint32_t topk = 0;
  /// Scalar quantization (requires delta): payload doubles ride as
  /// 2^bits-level integers between the frame's min/max. 0 = off
  /// (exact); 8 or 16 otherwise. Lossy — gated by the residual-tolerance
  /// parity suite against the uncompressed oracle.
  std::uint32_t quant_bits = 0;
  /// Every this-many sends on a (link, block) pair, a full-width frame
  /// resyncs the receiver — bounds how long a dropped delta (or a
  /// replaced connection) can keep a component stale.
  std::uint32_t refresh_every = 16;
};

/// Observability (obs/, DESIGN.md §8). The event rings are the one trace
/// of a run: each event names its rank, so per-rank schedules are read
/// from a ring snapshot.
struct ObsOptions {
  /// Event-tracing level for this run. kOff leaves the global recorder
  /// untouched; kMetrics/kFull enable it at run entry (resetting rings
  /// and the metrics registry) and disable it at exit, leaving the
  /// recorded events snapshot-able by the caller (exporters, node JSON).
  obs::TraceLevel trace_level = obs::TraceLevel::kOff;
  /// Event-ring capacity per rank (events; power of two).
  std::size_t trace_ring_capacity = 4096;
  /// Online admissibility auditor: every peer streams its local
  /// (S_j, l(j)) schedule through the condition a–d checks while the
  /// run executes (MpResult::admissibility). Independent of tracing.
  bool audit = false;
  /// Per-source-link delay histograms at each receiver
  /// (MpResult::link_delays). On for the thread-scale runs that always
  /// had them; simnet::run_world turns it off — one DelayHistogram is
  /// ~600 B, and world^2 of them at 1000 ranks is ~600 MB of pure
  /// bookkeeping. The endpoint-level delays() aggregate is unaffected.
  bool link_delays = true;
};

/// Options for run_message_passing / run_node: topology at the top,
/// everything else grouped by concern into aggregate-initializable
/// sub-structs — `{.workers = 4, .solve = {.mode = Mode::kSsp}}` works.
struct MpOptions {
  std::size_t workers = 2;
  /// Per-worker compute repetition factors (heterogeneity injection), as
  /// in rt::RuntimeOptions: empty = all 1.0.
  std::vector<double> worker_slowdown;
  std::uint64_t seed = 1;

  SolveOptions solve;
  ChaosOptions chaos;
  WireOptions wire;
  ObsOptions obs;

  /// Elastic ranks (membership/): when enabled, every peer runs a SWIM
  /// failure detector over the control-frame path, block ownership
  /// follows the live view (the la::block_share rule over the live ranks,
  /// taken again on every membership change), joiners are welcomed with
  /// an iterate snapshot, and `workers` becomes the number of SLOTS —
  /// membership.initial_alive (empty = all) says which are present at
  /// launch. Requires kAsync.
  membership::Options membership;
};

struct MpResult {
  /// The iterate. run_message_passing: the whole iterate, each block from
  /// the rank that owned it at exit. run_node: what the rank's view held
  /// at exit, the whole iterate or, where the view is compact, only the
  /// blocks in x_blocks, concatenated in ascending block order. Read one
  /// block of either through block_of().
  la::Vector x;
  /// The blocks x holds, ascending, when it holds only some; empty when x
  /// is the whole iterate.
  std::vector<la::BlockId> x_blocks;
  double wall_seconds = 0.0;
  bool converged = false;
  double final_error = -1.0;  ///< oracle error (when x_star given)

  std::uint64_t total_updates = 0;           ///< block updates
  /// total_updates of each rank, by rank: filled by run_message_passing;
  /// a run_node result (one rank) leaves it empty.
  std::vector<std::uint64_t> updates_per_worker;
  std::uint64_t rounds = 0;                  ///< min complete sweeps

  // ---- channel statistics: observed, not assumed ----
  std::uint64_t messages_sent = 0;      ///< stamped (incl. dropped)
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t partials_sent = 0;
  /// Arrivals carrying a tag older than the newest already seen for the
  /// block — genuine out-of-order deliveries (label inversions).
  std::uint64_t inversions_observed = 0;
  /// Inversions that kNewestTagWins refused to incorporate.
  std::uint64_t stale_filtered = 0;
  /// Value frames discarded under either policy because a departed
  /// owner's final value for the block (carried on its kStop) was
  /// already applied with a tag at least as new.
  std::uint64_t final_filtered = 0;
  /// Ranks whose kStop this rank received before it finished (summed
  /// over ranks in thread mode).
  std::uint64_t peers_stopped = 0;
  /// Received frames discarded because their semantic fields (source
  /// rank, block id, offset/payload extent) do not fit this run's
  /// geometry — a misconfigured or hostile sender, not a wire error.
  std::uint64_t frames_rejected = 0;
  /// Wire-invalid frames the transport's readers rejected (corrupted or
  /// foreign byte streams — transport::Transport::bad_frames). Filled
  /// where the runtime sees the whole transport (the Transport overload
  /// of run_message_passing; tools/asyncit_node fills it for run_node).
  std::uint64_t bad_frames = 0;

  // ---- wire-efficiency layer (WireOptions; raw == wire when off) ----
  /// Bytes the peers' block publishes would have cost as full-width raw
  /// frames, vs the bytes actually framed (delta ranges, heartbeats,
  /// quantized payloads). raw / wire is the bandwidth-reduction factor
  /// the c15 bench gates.
  std::uint64_t bytes_sent_raw = 0;
  std::uint64_t bytes_sent_wire = 0;
  /// Frame-class breakdown of the delta layer's block publishes.
  std::uint64_t wire_frames_full = 0;
  std::uint64_t wire_frames_delta = 0;
  std::uint64_t wire_frames_heartbeat = 0;
  std::uint64_t wire_frames_codec = 0;

  // ---- elastic membership (all zero/empty when membership is off) ----
  /// Detector + dissemination counters, summed over local ranks.
  membership::Stats membership;
  /// Live-view changes that re-ran block assignment.
  std::uint64_t reassignments = 0;
  /// Blocks sent as welcome snapshots to joining ranks.
  std::uint64_t snapshot_blocks_sent = 0;
  /// Owned blocks NOT snapshot because the established-cover plan
  /// assigns them to another rank (deduped welcome duplicates).
  std::uint64_t snapshot_blocks_suppressed = 0;
  /// This rank's live view at exit (run_node only; sorted, includes the
  /// own rank).
  std::vector<std::uint32_t> live_at_exit;

  /// Measured post-to-drain delay of every delivered message.
  DelayHistogram delays;

  // ---- observability (obs/) ----
  /// Per-link measured delay breakdown: messages from `src` drained by
  /// receiving peer `dst` (schema asyncit-node/2 `links`).
  struct LinkDelay {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    DelayHistogram delays;
  };
  std::vector<LinkDelay> link_delays;
  /// Per-peer online admissibility reports (ObsOptions::audit); run_node
  /// fills exactly one entry (the local rank's view of the schedule).
  std::vector<obs::AdmissibilityReport> admissibility;
  /// Global recorder accounting for the run (ObsOptions::trace_level).
  std::uint64_t obs_events_recorded = 0;
  std::uint64_t obs_events_dropped = 0;

  /// SSP/BSP gate entries that actually blocked (the peer polled at
  /// least once before its round gate opened), summed over local ranks:
  /// the cost a tighter `staleness` bound pays under stragglers.
  std::uint64_t gate_stalls = 0;
};

/// Block b of a result's iterate, which must hold it.
std::span<const double> block_of(const MpResult& result,
                                 const la::Partition& partition,
                                 la::BlockId b);

/// Runs P = options.workers ranks, one thread each, until every rank has
/// stopped (its criterion, its budget, or a peer's stop in the gated
/// modes) over the in-process mailbox backend (options.chaos.delivery and
/// options.seed configure its channels). Requires workers <= num_blocks
/// and x0.size() == dim. MpResult.x holds each block from the rank that
/// owned it at exit; counters are summed over ranks.
MpResult run_message_passing(const op::BlockOperator& op,
                             const la::Vector& x0, const MpOptions& options);

/// Same, over a caller-supplied transport backend. The transport must
/// host every rank of the run in this process (transport.world() ==
/// options.workers, all ranks local); its own delivery behaviour applies
/// — options.chaos.delivery is ignored in this overload.
MpResult run_message_passing(const op::BlockOperator& op,
                             const la::Vector& x0, const MpOptions& options,
                             transport::Transport& transport);

}  // namespace asyncit::net
