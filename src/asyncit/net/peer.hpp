// A worker peer of the message-passing runtime.
//
// Each peer is one rank run by net::run_node — on a thread of its own,
// a simnet fiber, or a whole process — owns a contiguous range of
// blocks, and holds a PRIVATE copy of the iterate blocks it reads: the
// only way another peer's update reaches it is as a Message received
// through its transport::Endpoint (contrast rt::, where workers share
// the iterate in memory). The peer shares no memory with the other ranks
// and never touches the communication medium directly — inproc
// mailboxes, TCP sockets, and the chaos decorator all hide behind the
// endpoint (see transport/transport.hpp). The loop is the receive ->
// incorporate -> update -> send cycle of the paper's distributed model:
//
//   receive      drain every delivered message, incorporate it under the
//                configured OverwritePolicy (kLastArrivalWins reproduces
//                one-sided-put label inversions; kNewestTagWins filters
//                them receiver-side);
//   update       apply the block operator to the owned blocks
//                (inner_steps applications per phase; with
//                publish_partials, mid-phase partials are sent and
//                mid-phase arrivals incorporated — Definition 3);
//   send         publish the new block values to the ranks that read
//                them, each tagged one past the newest tag the rank has
//                seen for its block.
//
// Publication follows the read relation. Rank q reads block b if q's
// update reads b (the operator's read sets, la/partition.hpp), q's stop
// rule reads b, or q may adopt b. Where nothing narrows that (no read
// sets, the gated modes, the displacement rule, elastic membership) every
// rank reads every block and each publish goes to every other rank; an
// async rank with an oracle stop reads only its owned blocks and their
// read sets, so its publishes go to its graph neighbours. The private
// view (LocalView) therefore keeps the blocks the rank owns or reads:
// where publication is neighbour-only it is compact, one record and the
// values of each owned or read block and nothing else; elsewhere it holds
// the whole iterate and one record per block. The operator still reads a
// dense span: a compact view copies what an update reads into one dense
// buffer per OS thread just before each application. A value frame or
// final for a block the rank does not keep describes another run's
// geometry and is rejected like any other.
//
// Coordination gates (Mode) before each sweep:
//   kAsync  never wait — the paper's Section II totally asynchronous
//           regime (unbounded delays tolerated);
//   kSsp    stale-synchronous: wait until every peer's last complete
//           round is within `staleness` of this peer's round (per-worker
//           clock gap cap);
//   kBsp    barrier-synchronized baseline: staleness 0 plus a frozen
//           per-round snapshot (exact distributed Jacobi).
//
// Stopping is the peer's own: at the end of every own sweep it checks
// its criterion on its private view (see net/node_runtime.hpp) and, on
// a hit, leaves with a kStop frame per owned block carrying the block's
// final value and tag to that block's readers, plus a bare kStop (a
// leave notice) to every other rank it reads from. A kStop whose send
// receipt says it did not leave is retried until it leaves, its
// destination is known to have left, or the wall budget runs out.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "asyncit/membership/swim.hpp"
#include "asyncit/net/channel.hpp"
#include "asyncit/net/mp_runtime.hpp"
#include "asyncit/operators/operator.hpp"
#include "asyncit/runtime/pacing.hpp"
#include "asyncit/support/check.hpp"
#include "asyncit/support/timer.hpp"
#include "asyncit/transport/transport.hpp"

namespace asyncit::net {

/// The receive-side record of one block a view keeps.
struct BlockTags {
  model::Step tag = 0;      ///< tag of the value currently held
  model::Step max_tag = 0;  ///< newest tag ever seen
  /// Tag of the departed owner's final value (0 = none): value frames at
  /// or below it are discarded whatever the policy.
  model::Step final_tag = 0;
  /// Remote values incorporated into the block: a delta baseline
  /// anchored at an older count is stale (Peer::send_block).
  std::uint64_t rx_epoch = 0;
  std::size_t offset = 0;  ///< where the block starts in LocalView::x
};

/// A peer's private copy of the iterate plus the receive-side bookkeeping:
/// a BlockTags record for each block the view keeps, and the
/// inversion/staleness counters. A view that keeps every block holds the
/// whole iterate in `x`; one that keeps only some (a compact view) holds
/// only their coordinates, concatenated in ascending block order, so its
/// size follows the read set rather than the world. Either way block(b)
/// is block b's values. Kept as a standalone struct so incorporation is
/// unit-testable without threads.
struct LocalView {
  la::Vector x;
  std::uint64_t inversions = 0;      ///< arrivals with tag < newest seen
  std::uint64_t stale_filtered = 0;  ///< arrivals discarded by policy
  std::uint64_t final_filtered = 0;  ///< arrivals discarded by a final

  LocalView() = default;  ///< keeps no block
  /// Keeps the blocks of `partition` listed in `kept` (ascending), or
  /// every block when `kept` is empty or lists them all, each starting
  /// from its value in x0. A compact view copies only its blocks of x0.
  LocalView(const la::Partition& partition, const la::Vector& x0,
            std::vector<la::BlockId> kept = {});

  /// The blocks `x` holds, ascending, when the view is compact; empty when
  /// `x` is the whole iterate.
  std::span<const la::BlockId> compact_blocks() const { return ids_; }
  /// Block b's values; b must be kept.
  std::span<double> block(la::BlockId b) {
    const auto [offset, size] = extent(b);
    return std::span<double>(x).subspan(offset, size);
  }
  std::span<const double> block(la::BlockId b) const {
    const auto [offset, size] = extent(b);
    return std::span<const double>(x).subspan(offset, size);
  }

  /// Block b's record, or null when the view does not keep b.
  const BlockTags* find(la::BlockId b) const {
    const std::size_t i = slot(b);
    return i < blocks_.size() ? &blocks_[i] : nullptr;
  }
  BlockTags* find(la::BlockId b) {
    const std::size_t i = slot(b);
    return i < blocks_.size() ? &blocks_[i] : nullptr;
  }
  /// Block b's record; b must be kept.
  BlockTags& at(la::BlockId b) {
    BlockTags* t = find(b);
    ASYNCIT_CHECK(t != nullptr);
    return *t;
  }

 private:
  /// Where block b's record sits in blocks_ (blocks_.size() when b is not
  /// kept): at index b when the view keeps every block, else found by a
  /// binary search of the kept list.
  std::size_t slot(la::BlockId b) const {
    if (ids_.empty()) return std::min<std::size_t>(b, blocks_.size());
    const auto it = std::lower_bound(ids_.begin(), ids_.end(), b);
    return it != ids_.end() && *it == b
               ? static_cast<std::size_t>(it - ids_.begin())
               : blocks_.size();
  }
  /// Block b's offset and size in x; b must be kept. The kept blocks lie
  /// back to back in ascending order, so a block ends where the next
  /// record's begins.
  std::pair<std::size_t, std::size_t> extent(la::BlockId b) const {
    const std::size_t i = slot(b);
    ASYNCIT_CHECK(i < blocks_.size());
    const std::size_t end =
        i + 1 < blocks_.size() ? blocks_[i + 1].offset : x.size();
    return {blocks_[i].offset, end - blocks_[i].offset};
  }

  /// The kept blocks, ascending, when the view keeps only some; empty
  /// when it keeps every block.
  std::vector<la::BlockId> ids_;
  std::vector<BlockTags> blocks_;  ///< one record per kept block
};

/// Applies one received value frame to a local view under `policy`. An
/// arrival whose tag is older than the newest tag ever seen for that
/// block is counted as a label inversion (the trace-level signature of
/// out-of-order messages); kNewestTagWins additionally refuses to let it
/// overwrite. An arrival at or below the block's final tag is discarded
/// under either policy: its owner has left, and the final value already
/// applied is newer. Partial-block frames (m.offset > 0 or m.value
/// shorter than the block) overwrite only the carried coordinate range.
/// A frame for a block the view does not keep is refused, the view
/// untouched. Returns whether the frame was applied.
bool incorporate(const la::Partition& partition, OverwritePolicy policy,
                 const Message& m, LocalView& view);

/// Applies a departed owner's final block value (a kStop frame carrying
/// the whole block) under any policy, unless the view already holds a
/// newer tag for the block (a rank that adopted it has moved on), and
/// records the final tag. A final for a block the view does not keep is
/// refused, the view untouched. Returns whether the value was applied.
bool apply_final(const la::Partition& partition, const Message& m,
                 LocalView& view);

/// The blocks `self` should include in a welcome snapshot for `joiner`:
/// its share of the contiguous assignment over the ESTABLISHED live set
/// (the live view with the joiner removed). Established ranks jointly
/// cover the iterate exactly once under this plan — the dedupe that
/// stops a joiner from receiving the same block from several ranks when
/// a membership epoch races the welcome. Returns empty when `self` is
/// not established or is a surplus (idle) rank. `live` must be sorted
/// (the membership table's invariant). With a `joiner` outside `live`
/// this is `self`'s share of the live view itself — its owned set.
std::vector<la::BlockId> snapshot_plan(std::size_t num_blocks,
                                       const std::vector<std::uint32_t>& live,
                                       std::uint32_t self,
                                       std::uint32_t joiner);

/// What a peer reads but does not own. All pointers outlive the peer
/// (owned by run_node's caller or run_node itself).
struct PeerContext {
  const op::BlockOperator* op = nullptr;
  const MpOptions* options = nullptr;
  const WallTimer* clock = nullptr;
  /// Elastic membership (one agent PER PEER, driven by the peer thread
  /// alone). When set, the peer owns its share of the ownership rule
  /// (la::block_share) over the LIVE view, taken again on every view
  /// change, routes kPing/kAck/kPingReq/kMembershipUpdate frames
  /// into the agent, welcomes joiners with an iterate snapshot, and
  /// evaluates "everyone else is done" over the live view instead of
  /// the static world. Requires Mode::kAsync — the gated modes assume a
  /// static round structure that churn would deadlock.
  membership::SwimAgent* membership = nullptr;
};

class Peer {
 public:
  Peer(const PeerContext& ctx, std::uint32_t id, const la::Vector& x0,
       transport::Endpoint& endpoint);

  /// Rank body: loops until this rank stops (its criterion, a budget,
  /// or a peer's stop). Safe to call exactly once.
  void run();

  // ---- post-run accessors ----
  const LocalView& view() const { return view_; }
  /// Oracle distance (solve.x_star required) over the blocks the stop
  /// rule reads: the owned blocks of an async rank without membership,
  /// the whole view otherwise.
  double oracle_error() const;
  /// Moves the private iterate out (the view is unusable afterwards): the
  /// whole iterate, or the kept blocks of a compact view.
  la::Vector release_iterate() { return std::move(view_.x); }
  std::uint64_t updates() const { return own_updates_; }
  std::uint64_t rounds() const { return round_; }
  std::uint64_t partials_sent() const { return partials_sent_; }
  /// Ranks whose kStop this rank received (peers that left first).
  std::uint64_t peers_stopped() const { return peers_stopped_; }
  /// Wire-valid messages discarded for out-of-range semantic fields
  /// (source rank / block id / offset extent — config mismatch).
  std::uint64_t frames_rejected() const { return frames_rejected_; }
  /// Elastic mode: live-view changes that re-ran block assignment.
  std::uint64_t reassignments() const { return reassignments_; }
  /// Elastic mode: blocks sent as welcome snapshots to joining ranks.
  std::uint64_t snapshot_blocks_sent() const { return snapshot_blocks_sent_; }
  /// Elastic mode: owned blocks NOT snapshot to a joiner because the
  /// established-cover plan assigns them to another rank (the duplicates
  /// the pre-dedupe welcome path would have sent).
  std::uint64_t snapshot_blocks_suppressed() const {
    return snapshot_blocks_suppressed_;
  }
  /// Bytes this peer's value frames WOULD have cost without the wire
  /// layer (full-width raw frames) vs what actually went out. Counted
  /// for block publishes on every backend; raw == wire with delta off.
  std::uint64_t bytes_sent_raw() const { return bytes_sent_raw_; }
  std::uint64_t bytes_sent_wire() const { return bytes_sent_wire_; }
  /// Frame-class breakdown of the delta layer's sends.
  std::uint64_t wire_frames_full() const { return wire_frames_full_; }
  std::uint64_t wire_frames_delta() const { return wire_frames_delta_; }
  std::uint64_t wire_frames_heartbeat() const {
    return wire_frames_heartbeat_;
  }
  std::uint64_t wire_frames_codec() const { return wire_frames_codec_; }
  /// Measured drain delay per source rank (always on; index = src).
  const std::vector<DelayHistogram>& link_delays() const {
    return link_delays_;
  }
  /// Online admissibility auditor (null unless ObsOptions::audit).
  const obs::OnlineAuditor* auditor() const { return auditor_.get(); }
  /// SSP/BSP gate entries that actually blocked before opening.
  std::uint64_t gate_stalls() const { return gate_stalls_; }

 private:
  double now() const { return ctx_.clock->seconds(); }

  /// Drains the endpoint and incorporates everything delivered.
  void receive();
  /// Elastic mode: drives the SWIM agent (probe cadence, gossip), puts
  /// its outbox on the wire, reacts to membership events (snapshot
  /// joins, block re-assignment, live-view completion). No-op without a
  /// membership agent.
  void service_membership();
  /// Takes this rank's share of the ownership rule over the live view.
  void recompute_owned();
  /// Sends the current value of every owned block to a joining rank so
  /// it starts from the live iterate instead of x0 (snapshot join).
  void send_snapshot_to(std::uint32_t dst);
  /// Async no-local-criterion termination over the live view: true when
  /// every other slot has stopped, died, or never joined.
  bool all_others_inactive() const;
  /// Computes one updating phase of block b (inner_steps applications;
  /// flexible communication when configured) and publishes the result.
  /// The operator reads `compute_view` (the whole view, or the BSP
  /// snapshot), or, for a compact view, gather_reads(b).
  void update_block(la::BlockId b, std::size_t reps,
                    std::span<const double> compute_view);
  /// Compact view: copies the blocks owned block b reads into this OS
  /// thread's dense compute buffer and returns the buffer.
  std::span<const double> gather_reads(la::BlockId b);
  /// Where launch-owned block b sits in owned_.
  std::size_t owned_index(la::BlockId b) const;
  /// Sends the current value of owned block b to the ranks that read it.
  void send_block(la::BlockId b, bool partial);
  /// Computes the readers of each launch-owned block and the leave-notice
  /// list (not called when elastic: the live view is read at send time).
  /// Returns the blocks the view keeps: the owned blocks and their read
  /// sets where publication is neighbour-only, empty (every block)
  /// elsewhere.
  std::vector<la::BlockId> plan_publication();
  /// The ranks owned block b goes to: its readers, or the live view when
  /// elastic. Every send loop filters it through sends_to().
  std::span<const std::uint32_t> readers_of(la::BlockId b) const;
  /// The ranks this rank reads from that read none of its blocks; a
  /// leaver sends them a bare kStop (when elastic: the live view, and
  /// only if it owns no block). Filtered through sends_to() too.
  std::span<const std::uint32_t> leave_notices() const;
  /// Whether a send goes to `dst`: another rank whose kStop has not
  /// arrived. A rank that has left reads nothing, and frames to it would
  /// only pile up undrained.
  bool sends_to(std::uint32_t dst) const {
    return dst != id_ && !stopped_ranks_[dst];
  }
  /// Announces this rank's departure: one kStop per owned block carrying
  /// its final value and tag to the block's readers, and a bare kStop to
  /// each leave_notices() rank. Control frames, so the loss model spares
  /// them; one that does not leave is queued for resend_stops().
  void send_finals();
  /// Sends one kStop, queueing it for a retry when it does not leave.
  void send_stop(std::uint32_t dst, la::BlockId b, bool final, double t);
  /// After the run loop: retries the queued kStops, receiving between
  /// passes, until each has left or its destination has (has_left), or
  /// the wall budget runs out.
  void resend_stops();
  /// Whether `dst` no longer needs this rank's kStop: its own kStop has
  /// arrived, or (gated modes) another rank's stop has arrived — that
  /// rank is then sending its kStops to every rank, and every rank stops
  /// on the first. (A gated rank that stops on a peer's stop sends none,
  /// so no notice would ever end a retry toward it.)
  bool has_left(std::uint32_t dst) const;
  /// A received kStop: applies the final value it carries, then the
  /// leave rules (gated modes stop, elastic ranks drop the leaver).
  void on_peer_stop(const la::Partition& partition, const Message& m);
  /// Blocks until every other peer's count of complete rounds reaches
  /// `needed` (SSP/BSP gate). Returns false if stopped while waiting.
  bool wait_for_rounds(std::uint64_t needed);
  /// Update budget (every update), wall budget and CPU-sliced voluntary
  /// yield (every check_every updates; see rt::executors). A rank on a
  /// simulated clock does not yield: it is a fiber sharing one OS thread
  /// with the whole world, so its thread CPU time is the world's.
  void maybe_check();
  /// The stopping criterion on the private view, run at the end of every
  /// own sweep (and on every idle poll of a rank that owns no blocks):
  /// oracle distance under the weighted max norm, or the displacement
  /// rule — the sweep's own displacements as the gate, the residual of
  /// the whole view as the confirmation.
  void check_criterion();
  /// incorporate() / apply_final() plus the observability taps:
  /// inversion events, the audit bridge's changed-block mask, the
  /// block's receive epoch. The block must be kept (receive() checks).
  void incorporate_tracked(const la::Partition& partition,
                           OverwritePolicy policy, const Message& m);
  /// Ends this rank's run for a reason of its own (criterion or budget),
  /// announcing it where the others need to hear: always on a criterion
  /// hit, and on a budget stop in the gated modes, whose round gates
  /// would otherwise wait on this rank until their own wall budget.
  void stop_here(obs::StopReason reason);
  /// Records the stop decision and ends the loop.
  void trip_stop(obs::StopReason reason);

  PeerContext ctx_;
  const std::uint32_t id_;
  LocalView view_;
  transport::Endpoint* endpoint_;
  std::vector<Message> inbox_;        ///< drain buffer (reused)
  /// BSP only: drained messages from rounds this peer has not finished
  /// yet (fast peers may run one round ahead); incorporated once round_
  /// passes them, keeping each round's snapshot exact.
  std::vector<Message> holdback_;
  std::vector<Message> holdback_keep_;     ///< holdback filter scratch
  std::vector<Message> recycle_scratch_;   ///< consumed holdback returns
  la::Vector phase_out_;              ///< block output buffer (reused)
  la::Vector phase_prev_;             ///< phase-start block value (reused)
  la::Vector snapshot_;               ///< BSP per-round frozen view
  op::Workspace ws_;                  ///< per-peer operator scratch

  bool stop_ = false;
  /// Completed update phases: the budget counter, and the step that
  /// labels trace events and the audit bridge's steps.
  model::Step own_updates_ = 0;
  std::uint64_t round_ = 0;           ///< completed sweeps over owned blocks
  std::uint64_t partials_sent_ = 0;
  std::uint64_t peers_stopped_ = 0;
  std::uint64_t frames_rejected_ = 0;
  std::vector<bool> stopped_ranks_;   ///< kStop seen, by rank
  /// Yield pacing; set in run() unless the run clock is simulated.
  std::optional<ThreadCpuTimer> cpu_timer_;
  /// The blocks this rank owns, ascending: its launch share of the
  /// ownership rule (la::block_share), or its share of the live view
  /// when elastic.
  std::vector<la::BlockId> owned_;

  // ---- publication (plan_publication; all empty when elastic) ----
  /// Readers of the launch-owned blocks: owned block i goes to
  /// readers_[reader_range_[i].first .. reader_range_[i].second).
  std::vector<std::uint32_t> readers_;
  std::vector<std::pair<std::size_t, std::size_t>> reader_range_;
  std::vector<std::uint32_t> notices_;  ///< see leave_notices()
  /// Compact view only: owned block i reads the blocks copied by
  /// gathers_[gather_range_[i].first .. gather_range_[i].second), each
  /// `size` coordinates from view_.x at `from` to the compute buffer at
  /// `to` (the block's place in the iterate).
  struct Gather {
    std::size_t from, to, size;
  };
  std::vector<Gather> gathers_;
  std::vector<std::pair<std::size_t, std::size_t>> gather_range_;
  /// kStops whose send receipt said they did not leave (resend_stops).
  struct UnsentStop {
    std::uint32_t dst;
    la::BlockId block;
    bool final;  ///< carries the block's final value (else bare)
  };
  std::vector<UnsentStop> unsent_stops_;

  // ---- stopping criterion (SolveOptions::x_star / displacement_tol) --
  rt::DisplacementStop displacement_stop_;
  double sweep_displacement_ = 0.0;  ///< max own displacement this sweep

  // ---- elastic membership (all empty/zero when ctx.membership is null)
  std::vector<la::BlockId> sweep_owned_;     ///< per-sweep copy of owned_
  std::vector<membership::Event> events_scratch_;
  std::uint64_t owned_epoch_ = 0;     ///< table epoch of owned_
  std::uint64_t reassignments_ = 0;
  std::uint64_t snapshot_blocks_sent_ = 0;
  std::uint64_t snapshot_blocks_suppressed_ = 0;
  std::vector<la::BlockId> snapshot_plan_;   ///< welcome-plan scratch

  // ---- wire-efficiency layer (MpOptions::wire; all empty when off) ----
  /// Per-(destination, block) record of the payload the receiver last
  /// got from us — the reference the next delta frame diffs against.
  /// `last` holds post-codec values (what the receiver actually holds),
  /// updated only when the send receipt says the frame went out.
  struct DeltaSlot {
    la::Vector last;
    bool valid = false;
    std::uint64_t sends_since_refresh = 0;
    std::uint64_t rx_epoch = 0;  ///< BlockTags::rx_epoch when last refreshed
  };
  /// The baseline of each (destination, block) this rank has sent on,
  /// created by the first frame (invalid, so that frame is full):
  /// delta_[i] belongs to key delta_key_[i] = block * workers + dst,
  /// ascending, so a lookup is a binary search. Publication walks owned
  /// blocks in ascending order, each to its readers in ascending order,
  /// so a first sweep's inserts append.
  std::vector<std::uint64_t> delta_key_;
  std::vector<DeltaSlot> delta_;
  DeltaSlot& delta_slot(std::uint32_t dst, la::BlockId b);
  la::Vector codec_scratch_;       ///< quantization roundtrip buffer
  std::uint64_t bytes_sent_raw_ = 0;
  std::uint64_t bytes_sent_wire_ = 0;
  std::uint64_t wire_frames_full_ = 0;
  std::uint64_t wire_frames_delta_ = 0;
  std::uint64_t wire_frames_heartbeat_ = 0;
  std::uint64_t wire_frames_codec_ = 0;

  /// Round-completion tracking per source peer: complete_rounds_[src] is
  /// the count r of initial rounds (0..r-1) for which ALL of src's final
  /// block messages have been received; arrivals_[src] counts finals per
  /// not-yet-complete round.
  std::vector<std::uint64_t> complete_rounds_;
  std::vector<std::unordered_map<std::uint64_t, std::size_t>> arrivals_;

  // ---- observability (obs/) ----
  std::vector<DelayHistogram> link_delays_;  ///< by source rank
  std::unique_ptr<obs::OnlineAuditor> auditor_;
  std::uint64_t gate_stalls_ = 0;
  /// Audit bridge (see update_block): step j = own completed phases;
  /// last_changed_[i] = audit step at which component i last changed,
  /// pending_[i] = changed by a remote incorporation since the last own
  /// step (those blocks join the next step's S_j).
  std::vector<model::Step> audit_last_changed_;
  std::vector<std::uint8_t> audit_pending_;
  std::vector<la::BlockId> audit_updated_;   ///< S_j assembly scratch
};

}  // namespace asyncit::net
