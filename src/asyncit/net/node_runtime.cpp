#include "asyncit/net/node_runtime.hpp"

#include <memory>

#include "asyncit/membership/swim.hpp"
#include "asyncit/net/peer.hpp"
#include "asyncit/obs/trace_recorder.hpp"
#include "asyncit/support/check.hpp"
#include "asyncit/support/timer.hpp"

namespace asyncit::net {

MpResult run_node(const op::BlockOperator& op, const la::Vector& x0,
                  const MpOptions& options,
                  transport::Endpoint& endpoint) {
  WallTimer timer;
  return run_node(op, x0, options, endpoint, timer);
}

MpResult run_node(const op::BlockOperator& op, const la::Vector& x0,
                  const MpOptions& options, transport::Endpoint& endpoint,
                  const WallTimer& clock) {
  const la::Partition& partition = op.partition();
  const std::size_t m = partition.num_blocks();
  const std::size_t world = options.workers;
  const std::uint32_t rank = endpoint.rank();
  ASYNCIT_CHECK(world >= 1 && world <= m);
  ASYNCIT_CHECK(rank < world);
  ASYNCIT_CHECK(x0.size() == partition.dim());
  ASYNCIT_CHECK(options.solve.inner_steps >= 1);
  ASYNCIT_CHECK(options.solve.check_every >= 1);

  // Observability: this thread's events name this rank, and the global
  // recorder is armed for the run. The caller (tools/asyncit_node)
  // snapshots/exports after return; the recorder's realtime anchor is
  // what trace_merge.py aligns on.
  const obs::ScopedRank trace_rank(rank);
  obs::ScopedTrace trace(options.obs.trace_level,
                         options.obs.trace_ring_capacity);

  PeerContext ctx;
  ctx.op = &op;
  ctx.options = &options;
  ctx.clock = &clock;

  // Elastic membership: one SWIM agent, driven by this (the peer's)
  // thread. The peer takes its share of the ownership rule over the
  // live view instead of the launch world, again at every change.
  std::unique_ptr<membership::SwimAgent> agent;
  if (options.membership.enabled) {
    ASYNCIT_CHECK(options.solve.mode == Mode::kAsync);
    agent = std::make_unique<membership::SwimAgent>(
        rank, world, options.membership, options.seed);
    ctx.membership = agent.get();
  }

  Peer peer(ctx, rank, x0, endpoint);
  peer.run();  // the calling thread IS the peer

  MpResult result;
  result.wall_seconds = clock.seconds();
  trace.stop(result.obs_events_recorded, result.obs_events_dropped);
  result.total_updates = peer.updates();
  result.rounds = peer.rounds();
  result.partials_sent = peer.partials_sent();
  result.inversions_observed = peer.view().inversions;
  result.stale_filtered = peer.view().stale_filtered;
  result.final_filtered = peer.view().final_filtered;
  result.peers_stopped = peer.peers_stopped();
  result.frames_rejected = peer.frames_rejected();
  result.reassignments = peer.reassignments();
  result.snapshot_blocks_sent = peer.snapshot_blocks_sent();
  result.snapshot_blocks_suppressed = peer.snapshot_blocks_suppressed();
  result.bytes_sent_raw = peer.bytes_sent_raw();
  result.bytes_sent_wire = peer.bytes_sent_wire();
  result.wire_frames_full = peer.wire_frames_full();
  result.wire_frames_delta = peer.wire_frames_delta();
  result.wire_frames_heartbeat = peer.wire_frames_heartbeat();
  result.wire_frames_codec = peer.wire_frames_codec();
  result.gate_stalls = peer.gate_stalls();
  if (agent) {
    result.membership = agent->stats();
    result.live_at_exit = agent->table().live_ranks();
  }
  result.messages_sent = endpoint.sent();
  result.messages_dropped = endpoint.dropped();
  result.messages_delivered = endpoint.delivered();
  result.delays.merge(endpoint.delays());
  const auto& links = peer.link_delays();
  for (std::uint32_t src = 0; src < links.size(); ++src) {
    if (links[src].count() == 0) continue;
    MpResult::LinkDelay link;
    link.src = src;
    link.dst = rank;
    link.delays = links[src];
    result.link_delays.push_back(std::move(link));
  }
  if (peer.auditor() != nullptr)
    result.admissibility.push_back(peer.auditor()->report());
  if (options.solve.x_star.has_value()) {
    result.final_error = peer.oracle_error();
    result.converged = result.final_error < options.solve.tol;
  }
  const std::span<const la::BlockId> kept = peer.view().compact_blocks();
  result.x_blocks.assign(kept.begin(), kept.end());
  result.x = peer.release_iterate();  // current for owned and read blocks
  return result;
}

}  // namespace asyncit::net
