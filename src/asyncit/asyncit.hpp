// Umbrella header for the asyncit library.
//
// asyncit is a reproduction of:
//   D. El-Baz, "On Parallel or Distributed Asynchronous Iterations with
//   Unbounded Delays and Possible Out of Order Messages or Flexible
//   Communication for Convex Optimization Problems and Machine Learning",
//   IPDPSW 2022 (arXiv:2210.04626).
//
// Layer map (bottom-up):
//   support/   deterministic RNG, stats, timers, tables
//   linalg/    vectors, CSR, partitions, weighted max norms
//   model/     Definition 1 objects: steering S, delays L, traces,
//              macro-iterations (Def. 2), epochs, box levels, auditors
//   operators/ fixed-point operators: Jacobi, gradient, prox library,
//              the Definition-4 backward-forward operator, KM averaging
//   problems/  linear systems, quadratics, lasso, logistic, convex
//              network flow, obstacle problem, PageRank, generators
//   engine/    exact sequential executor of Definitions 1 and 3
//   sim/       discrete-event distributed simulator (+ termination
//              detection) and the synchronous BSP baseline
//   runtime/   real threaded shared-memory executors
//   membership/ SWIM-style gossip membership + failure detection for
//              elastic ranks (join/leave/crash mid-solve) over the
//              transport control-frame path
//   transport/ pluggable wire transports: in-process mailbox channels,
//              TCP sockets (loopback/LAN, multi-process), and the chaos
//              delay/reorder/drop decorator; pooled zero-alloc messaging
//   net/       message-passing runtime: real threads (or processes — see
//              net/node_runtime.hpp) exchanging step-tagged block values
//              through a transport with injected latency / reordering /
//              loss (BSP, SSP, async)
//   solvers/   the public solve_* facade + ARock / DAve-RPG baselines
//   trace/     ASCII Gantt of an obs ring snapshot (Fig. 1 / Fig. 2), CSV
#pragma once

#include "asyncit/engine/auditors.hpp"
#include "asyncit/engine/model_engine.hpp"
#include "asyncit/linalg/norms.hpp"
#include "asyncit/linalg/simd_dispatch.hpp"
#include "asyncit/model/admissibility.hpp"
#include "asyncit/model/box_level.hpp"
#include "asyncit/model/delay_models.hpp"
#include "asyncit/model/epoch.hpp"
#include "asyncit/model/macro_iteration.hpp"
#include "asyncit/model/steering.hpp"
#include "asyncit/membership/membership.hpp"
#include "asyncit/membership/swim.hpp"
#include "asyncit/net/channel.hpp"
#include "asyncit/net/mp_runtime.hpp"
#include "asyncit/net/node_runtime.hpp"
#include "asyncit/net/peer.hpp"
#include "asyncit/operators/contraction.hpp"
#include "asyncit/operators/gradient.hpp"
#include "asyncit/operators/jacobi.hpp"
#include "asyncit/operators/krasnoselskii.hpp"
#include "asyncit/operators/projected_jacobi.hpp"
#include "asyncit/operators/prox.hpp"
#include "asyncit/operators/prox_gradient.hpp"
#include "asyncit/operators/workspace.hpp"
#include "asyncit/problems/composite.hpp"
#include "asyncit/problems/lasso.hpp"
#include "asyncit/problems/linear_system.hpp"
#include "asyncit/problems/logistic.hpp"
#include "asyncit/problems/markov.hpp"
#include "asyncit/problems/network_flow.hpp"
#include "asyncit/problems/obstacle.hpp"
#include "asyncit/problems/quadratic.hpp"
#include "asyncit/problems/synthetic.hpp"
#include "asyncit/runtime/executors.hpp"
#include "asyncit/sim/sim_engine.hpp"
#include "asyncit/solvers/arock.hpp"
#include "asyncit/solvers/dave_rpg.hpp"
#include "asyncit/solvers/linear.hpp"
#include "asyncit/solvers/network_flow_solver.hpp"
#include "asyncit/solvers/prox_gradient.hpp"
#include "asyncit/support/check.hpp"
#include "asyncit/trace/csv.hpp"
#include "asyncit/trace/gantt.hpp"
#include "asyncit/transport/chaos.hpp"
#include "asyncit/transport/inproc.hpp"
#include "asyncit/transport/tcp.hpp"
#include "asyncit/transport/transport.hpp"
#include "asyncit/transport/wire.hpp"
