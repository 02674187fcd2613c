// The node runtime: one rank of the message-passing runtime.
//
// run_node runs exactly ONE peer — the endpoint's rank — on the calling
// thread, talking to the other ranks only through its transport
// endpoint. Every deployment is built from it: a process per rank
// (transport::TcpTransport with local_ranks = {rank}; see
// tools/asyncit_node.cpp and scripts/launch_cluster.py for the
// config/rendezvous glue), a thread per rank (run_message_passing), or a
// fiber per rank in virtual time (simnet::run_world).
//
// There is no global observer, and none is needed:
//   stopping   each peer's PRIVATE view converges to the same fixed
//              point, so at the end of every own sweep the peer checks
//              its criterion on that view: the oracle distance of its
//              owned blocks (async without membership) or of the whole
//              view (SSP/BSP, elastic), or, with displacement_tol, the
//              sweep's own displacements confirmed by the residual of
//              the whole view. On a hit it leaves with kStop control
//              frames: the final value and tag of every block it owns,
//              to that block's readers, and a bare leave notice to every
//              other rank it reads from. Receivers apply those finals
//              under any overwrite policy and drop the leaver's older
//              value frames for the block, so a lost or overtaken last
//              frame cannot strand them; a kStop that does not leave is
//              retried until it does or its destination has left. Async
//              ranks keep refining until their own criterion fires (a
//              departed rank's finals are within tolerance, so its
//              readers still converge); SSP/BSP ranks stop on the first
//              kStop — the departed rank would deadlock their round gate.
//   budgets    options.solve.max_updates counts THIS rank's updates,
//              exactly; max_seconds is this rank's wall time (read from
//              the clock it is given). A budget stop is announced with
//              kStop in the gated modes only.
//   elasticity with options.membership.enabled the world is a set of
//              SLOTS, not a frozen roster: a SWIM failure detector
//              (membership/) runs on the control-frame path, dead and
//              departed ranks' blocks are adopted via re-assignment over
//              the live view, and late-started ranks join mid-run
//              (snapshot-welcomed).
//              See DESIGN.md §7; requires Mode::kAsync and an elastic
//              transport (TcpOptions::elastic).
//
// The caller owns transport lifetime: flush() the transport after
// run_node returns so the final kStop/value frames reach the wire before
// teardown.
#pragma once

#include "asyncit/net/mp_runtime.hpp"
#include "asyncit/support/timer.hpp"
#include "asyncit/transport/transport.hpp"

namespace asyncit::net {

/// Runs the endpoint's rank of a world of options.workers ranks until
/// its own stopping criterion, a received stop, or budget exhaustion.
/// MpResult.x is the rank's private iterate, current only for the blocks
/// it owns or reads, and holding only those where its view is compact
/// (MpResult::x_blocks; see net/peer.hpp); final_error and converged cover
/// the blocks its stop rule checks. Message statistics cover this rank's
/// endpoint only.
MpResult run_node(const op::BlockOperator& op, const la::Vector& x0,
                  const MpOptions& options, transport::Endpoint& endpoint);

/// Same, but the run reads time from `clock` instead of starting its own
/// wall timer — the hook simnet::run_world uses to put every budget and
/// timestamp on virtual time (clock is a simnet::SimClock there), and
/// run_message_passing uses to give its threads one shared wall clock.
/// The clock must read 0 at (or before) the call and only move forward.
MpResult run_node(const op::BlockOperator& op, const la::Vector& x0,
                  const MpOptions& options, transport::Endpoint& endpoint,
                  const WallTimer& clock);

}  // namespace asyncit::net
