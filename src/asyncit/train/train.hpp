// Entry points of the parameter-server training mode.
//
// run_training / run_training_node mirror net::run_message_passing /
// net::run_node exactly. There is one training runtime,
// run_training_node, which drives ONE rank over a caller-supplied
// Endpoint: tools/asyncit_node runs one per process
// (scripts/launch_cluster.py), simnet::run_train_world one per fiber,
// and run_training W + 1 of them on threads (asyncit::run_on_threads:
// the server, rank 0, on the calling thread) before merging their
// results.
// The first run_training overload runs over the seeded in-process
// backend, the Transport overload over any backend hosting all ranks
// locally.
//
// Topology: rank 0 is the parameter SERVER, ranks 1..workers are data
// WORKERS; world = workers + 1. Workers compute minibatch gradient
// deltas over disjoint row shards of the dataset and ship them as
// partial-block value frames; the server folds them into the model under
// one of three coordination disciplines (train/psgd.hpp) and publishes
// parameter versions back. transport::, chaos, and membership-era
// elastic TCP run unchanged underneath — a delta frame is
// indistinguishable from a flexible-communication partial block on the
// wire.
#pragma once

#include <cstdint>
#include <vector>

#include "asyncit/net/mp_runtime.hpp"
#include "asyncit/support/timer.hpp"
#include "asyncit/train/dataset.hpp"

namespace asyncit::transport {
class Endpoint;
class Transport;
}  // namespace asyncit::transport

namespace asyncit::train {

/// Server aggregation / worker gating discipline (the yxtj/PSGD
/// Master::{bsp,tap,ssp}Process trio; DESIGN.md §9).
enum class Discipline {
  kBsp,  ///< barrier: all deltas per round, averaged (factorDelta 1/W)
  kTap,  ///< totally asynchronous parallel: any delta advances (factor 1)
  kSsp,  ///< stale synchronous: min worker clock gates, bound `staleness`
};

/// The optimizer + discipline knobs (the train-side analogue of
/// net::SolveOptions). Aggregate-initializable.
struct SgdOptions {
  Discipline discipline = Discipline::kTap;
  double learning_rate = 0.5;
  std::size_t batch_size = 16;
  /// SSP clock-gap bound in steps (kSsp only; kBsp behaves as 0).
  std::uint64_t staleness = 2;

  /// Per-worker step budget in epochs: each worker runs
  /// ceil(max_epochs * shard_rows / batch_size) minibatch steps.
  std::uint64_t max_epochs = 50;
  double max_seconds = 20.0;
  /// Stop as soon as a server eval reaches this train accuracy
  /// (0 disables; the budgets above still apply).
  double target_accuracy = 0.0;
  /// Server eval cadence, a minimum spacing: at the end of a drain in
  /// which N applied deltas (kTap/kSsp) or N completed rounds (kBsp) have
  /// accumulated since the last evaluation, the server computes
  /// full-train loss + accuracy (allocation-free fused sweep). A drain
  /// evaluates at most once, however many deltas it folded.
  std::uint64_t eval_every = 8;
};

/// Options for run_training / run_training_node — the same shape as
/// net::MpOptions: topology at the top, concern-grouped sub-structs
/// below (chaos drives only the in-process overload; obs arms the global
/// recorder exactly like the solve runtimes).
struct TrainOptions {
  std::size_t workers = 3;  ///< worker ranks; world = workers + 1
  std::uint64_t seed = 1;

  SgdOptions sgd;
  net::ChaosOptions chaos;
  net::ObsOptions obs;
};

/// One rank's result (run_training_node), or the merged run
/// (run_training: the server's result, plus the workers' steps, the
/// slowest worker's epochs, and rejected frames and endpoint counters
/// summed over ranks).
struct TrainResult {
  /// Final model: the server's authoritative iterate (the server rank and
  /// the merged run) or the worker's local copy (worker ranks).
  la::Vector x;
  double wall_seconds = 0.0;
  /// target_accuracy was set and reached (server side; worker ranks
  /// report whether the server's stop frame ended their run).
  bool converged = false;
  /// Full-train loss and accuracy of `x`, evaluated once, by the server.
  /// Worker ranks leave both at -1.
  double final_loss = -1.0;
  double final_accuracy = -1.0;

  std::uint64_t rounds = 0;          ///< server rounds (min worker clock)
  /// Parameter versions the server produced: one per BSP round, one per
  /// folded TAP/SSP delta. Params frames go out once per drain with the
  /// newest version, so in TAP and SSP not every version is published.
  std::uint64_t versions = 0;
  std::uint64_t deltas_applied = 0;  ///< delta frames folded into x
  /// In-run server evaluations (the eval_every cadence), not counting the
  /// final evaluation of `x`; 0 on worker ranks.
  std::uint64_t evaluations = 0;
  std::uint64_t examples_processed = 0;  ///< Σ batch sizes folded in
  double examples_per_sec = 0.0;
  /// Completed passes over the (sharded) dataset: min worker clock
  /// converted to epochs.
  std::uint64_t epochs = 0;
  /// Minibatch steps per worker: W entries in the merged run, one on a
  /// worker rank, none on the server rank.
  std::vector<std::uint64_t> steps_per_worker;

  // ---- transport statistics (same schema as net::MpResult) ----
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t frames_rejected = 0;
  std::uint64_t bad_frames = 0;
  /// Workers whose stop frame the server saw (the server rank and the
  /// merged run; 0 on worker ranks).
  std::uint64_t peers_stopped = 0;

  std::uint64_t obs_events_recorded = 0;
  std::uint64_t obs_events_dropped = 0;
};

/// Threaded training over the seeded in-process backend
/// (options.chaos.delivery + options.seed configure its channels): one
/// run_training_node per rank, merged. Requires workers >= 1,
/// batch_size >= 1, x0.size() == data.features(), and at least one
/// dataset row per worker shard.
TrainResult run_training(const Dataset& data, const la::Vector& x0,
                         const TrainOptions& options);

/// Same, over a caller-supplied transport hosting every rank of the run
/// in this process (transport.world() == options.workers + 1).
TrainResult run_training(const Dataset& data, const la::Vector& x0,
                         const TrainOptions& options,
                         transport::Transport& transport);

/// One rank: drives endpoint.rank()'s role (0 = server, r >= 1 =
/// worker r-1) until that rank's own stopping criterion or a server stop
/// frame. The caller owns the transport and should flush() it after
/// returning (stop frames must drain before teardown) — the same
/// contract as net::run_node.
TrainResult run_training_node(const Dataset& data, const la::Vector& x0,
                              const TrainOptions& options,
                              transport::Endpoint& endpoint);

/// Same, reading time from `clock` instead of starting a wall timer —
/// run_training hands every rank one shared timer, and
/// simnet::run_train_world puts the SGD budgets (max_seconds, gate
/// timeouts) on virtual time with it. The clock must read 0 at (or
/// before) the call and only move forward.
TrainResult run_training_node(const Dataset& data, const la::Vector& x0,
                              const TrainOptions& options,
                              transport::Endpoint& endpoint,
                              const WallTimer& clock);

}  // namespace asyncit::train
