#include "asyncit/net/mp_runtime.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <span>

#include "asyncit/net/node_runtime.hpp"
#include "asyncit/net/peer.hpp"
#include "asyncit/obs/trace_recorder.hpp"
#include "asyncit/support/check.hpp"
#include "asyncit/support/threads.hpp"
#include "asyncit/support/timer.hpp"
#include "asyncit/transport/inproc.hpp"

namespace asyncit::net {

namespace {

/// Adds one rank's counters into the thread-mode result.
void accumulate(MpResult& into, const MpResult& rank) {
  into.total_updates += rank.total_updates;
  into.rounds = std::min(into.rounds, rank.rounds);
  into.messages_sent += rank.messages_sent;
  into.messages_delivered += rank.messages_delivered;
  into.messages_dropped += rank.messages_dropped;
  into.partials_sent += rank.partials_sent;
  into.inversions_observed += rank.inversions_observed;
  into.stale_filtered += rank.stale_filtered;
  into.final_filtered += rank.final_filtered;
  into.peers_stopped += rank.peers_stopped;
  into.frames_rejected += rank.frames_rejected;
  into.bytes_sent_raw += rank.bytes_sent_raw;
  into.bytes_sent_wire += rank.bytes_sent_wire;
  into.wire_frames_full += rank.wire_frames_full;
  into.wire_frames_delta += rank.wire_frames_delta;
  into.wire_frames_heartbeat += rank.wire_frames_heartbeat;
  into.wire_frames_codec += rank.wire_frames_codec;
  into.membership += rank.membership;
  into.reassignments += rank.reassignments;
  into.snapshot_blocks_sent += rank.snapshot_blocks_sent;
  into.snapshot_blocks_suppressed += rank.snapshot_blocks_suppressed;
  into.delays.merge(rank.delays);
  into.link_delays.insert(into.link_delays.end(), rank.link_delays.begin(),
                          rank.link_delays.end());
  into.admissibility.insert(into.admissibility.end(),
                            rank.admissibility.begin(),
                            rank.admissibility.end());
  into.gate_stalls += rank.gate_stalls;
}

}  // namespace

std::span<const double> block_of(const MpResult& result,
                                 const la::Partition& partition,
                                 la::BlockId b) {
  if (result.x_blocks.empty())
    return partition.block_span(std::span<const double>(result.x), b);
  const auto it =
      std::lower_bound(result.x_blocks.begin(), result.x_blocks.end(), b);
  ASYNCIT_CHECK(it != result.x_blocks.end() && *it == b);
  std::size_t offset = 0;
  for (auto c = result.x_blocks.begin(); c != it; ++c)
    offset += partition.range(*c).size();
  return std::span<const double>(result.x).subspan(offset,
                                                   partition.range(b).size());
}

MpResult run_message_passing(const op::BlockOperator& op,
                             const la::Vector& x0,
                             const MpOptions& options) {
  // The in-process backend derives one RNG stream per directed link from
  // options.seed in the fixed pre-transport order: replays are
  // deterministic however the OS schedules the threads.
  transport::InprocTransport transport(options.workers, options.chaos.delivery,
                                       options.seed);
  return run_message_passing(op, x0, options, transport);
}

MpResult run_message_passing(const op::BlockOperator& op,
                             const la::Vector& x0, const MpOptions& options,
                             transport::Transport& transport) {
  const la::Partition& partition = op.partition();
  const std::size_t m = partition.num_blocks();
  const std::size_t peers_n = options.workers;
  ASYNCIT_CHECK(peers_n >= 1 && peers_n <= m);
  ASYNCIT_CHECK(x0.size() == partition.dim());
  ASYNCIT_CHECK(options.solve.inner_steps >= 1);
  ASYNCIT_CHECK(options.solve.check_every >= 1);
  ASYNCIT_CHECK(!options.membership.enabled ||
                options.solve.mode == Mode::kAsync);
  ASYNCIT_CHECK(transport.world() == peers_n);
  ASYNCIT_CHECK(transport.local_ranks().size() == peers_n);

  // The run owns tracing: armed once here, while every rank is handed
  // kOff so none re-anchors the process-global recorder.
  obs::ScopedTrace trace(options.obs.trace_level,
                         options.obs.trace_ring_capacity);
  MpOptions per_rank = options;
  per_rank.obs.trace_level = obs::TraceLevel::kOff;

  // One run_node per rank over its endpoint — exactly what
  // simnet::run_world does on fibers and what tools/asyncit_node does per
  // process. Every rank stops by its own rule; nothing here watches the
  // solve.
  WallTimer timer;
  std::vector<MpResult> ranks(peers_n);
  run_on_threads(peers_n, [&](std::uint32_t p) {
    ranks[p] = run_node(op, x0, per_rank, transport.endpoint(p), timer);
  });

  MpResult result;
  result.wall_seconds = timer.seconds();
  trace.stop(result.obs_events_recorded, result.obs_events_dropped);
  result.rounds = std::numeric_limits<std::uint64_t>::max();
  result.updates_per_worker.reserve(peers_n);
  for (const MpResult& r : ranks) {
    result.updates_per_worker.push_back(r.total_updates);
    accumulate(result, r);
  }
  result.bad_frames = transport.bad_frames();

  // The iterate: every block from the private view of the rank that
  // owned it at exit. Ranks are taken in stop order on top of the first
  // leaver's view, or of x0 where that view is compact, so a block an
  // elastic rank adopted from an earlier leaver comes from its adopter.
  // (Under static membership every block has an owner at exit, so no
  // block of x0 survives.)
  std::vector<std::size_t> order(peers_n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return ranks[a].wall_seconds < ranks[b].wall_seconds;
                   });
  // An if, not `?:`: with the const x0 as one operand, `?:` yields a
  // const copy of the moved view, which the assignment copies again.
  const bool whole = ranks[order.front()].x_blocks.empty();
  if (whole)
    result.x = std::move(ranks[order.front()].x);
  else
    result.x = x0;
  for (const std::size_t p : std::span(order).subspan(whole ? 1 : 0)) {
    const auto rank = static_cast<std::uint32_t>(p);
    const std::vector<la::BlockId> exit_owned =
        options.membership.enabled
            ? snapshot_plan(m, ranks[p].live_at_exit, rank,
                            static_cast<std::uint32_t>(peers_n))
            : la::block_share(m, peers_n, p).blocks();
    for (const la::BlockId b : exit_owned) {
      const std::span<const double> src = block_of(ranks[p], partition, b);
      std::copy(src.begin(), src.end(),
                partition.block_span(std::span<double>(result.x), b).begin());
    }
  }
  if (options.solve.x_star.has_value()) {
    result.final_error =
        la::WeightedMaxNorm(partition).distance(result.x,
                                                *options.solve.x_star);
    result.converged = result.final_error < options.solve.tol;
  }
  return result;
}

}  // namespace asyncit::net
