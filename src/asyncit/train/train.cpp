#include "asyncit/train/train.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <utility>

#include "asyncit/obs/trace_recorder.hpp"
#include "asyncit/runtime/pacing.hpp"
#include "asyncit/support/check.hpp"
#include "asyncit/support/threads.hpp"
#include "asyncit/support/timer.hpp"
#include "asyncit/train/psgd.hpp"
#include "asyncit/transport/inproc.hpp"

namespace asyncit::train {

namespace {

/// Drives one role to completion on the calling thread.
template <typename Role>
void drive(Role& role, transport::Endpoint& ep) {
  while (!role.finished()) {
    const std::uint64_t seen = ep.activity();
    if (!role.pump()) ep.wait_for_activity(seen, rt::kMaxGateWait);
  }
}

std::uint64_t epochs_of(std::uint64_t steps, std::size_t batch,
                        std::size_t shard_rows) {
  return shard_rows == 0 ? 0 : steps * batch / shard_rows;
}

double per_second(std::uint64_t count, double seconds) {
  return seconds > 0.0 ? static_cast<double>(count) / seconds : 0.0;
}

}  // namespace

TrainResult run_training(const Dataset& data, const la::Vector& x0,
                         const TrainOptions& options) {
  transport::InprocTransport transport(options.workers + 1,
                                       options.chaos.delivery, options.seed);
  return run_training(data, x0, options, transport);
}

TrainResult run_training(const Dataset& data, const la::Vector& x0,
                         const TrainOptions& options,
                         transport::Transport& transport) {
  const std::size_t W = options.workers;
  ASYNCIT_CHECK(transport.world() == W + 1);
  ASYNCIT_CHECK(transport.local_ranks().size() == W + 1);

  // The run owns tracing: armed once here, while every rank is handed
  // kOff so none re-anchors the process-global recorder.
  obs::ScopedTrace trace(options.obs.trace_level,
                         options.obs.trace_ring_capacity);
  TrainOptions per_rank = options;
  per_rank.obs.trace_level = obs::TraceLevel::kOff;

  // One run_training_node per rank over its endpoint, exactly what
  // simnet::run_train_world does on fibers and tools/asyncit_node does
  // per process.
  WallTimer timer;
  std::vector<TrainResult> ranks(W + 1);
  run_on_threads(W + 1, [&](std::uint32_t r) {
    ranks[r] =
        run_training_node(data, x0, per_rank, transport.endpoint(r), timer);
  });

  // The server's result, plus what only the workers know.
  TrainResult result = std::move(ranks[0]);
  result.wall_seconds = timer.seconds();
  trace.stop(result.obs_events_recorded, result.obs_events_dropped);
  result.examples_per_sec =
      per_second(result.examples_processed, result.wall_seconds);
  result.epochs = std::numeric_limits<std::uint64_t>::max();
  for (const TrainResult& worker : std::span(ranks).subspan(1)) {
    result.steps_per_worker.insert(result.steps_per_worker.end(),
                                   worker.steps_per_worker.begin(),
                                   worker.steps_per_worker.end());
    result.epochs = std::min(result.epochs, worker.epochs);
    result.frames_rejected += worker.frames_rejected;
    result.messages_sent += worker.messages_sent;
    result.messages_delivered += worker.messages_delivered;
    result.messages_dropped += worker.messages_dropped;
  }
  result.bad_frames = transport.bad_frames();
  return result;
}

TrainResult run_training_node(const Dataset& data, const la::Vector& x0,
                              const TrainOptions& options,
                              transport::Endpoint& endpoint) {
  WallTimer timer;
  return run_training_node(data, x0, options, endpoint, timer);
}

TrainResult run_training_node(const Dataset& data, const la::Vector& x0,
                              const TrainOptions& options,
                              transport::Endpoint& endpoint,
                              const WallTimer& clock) {
  const std::size_t W = options.workers;
  const std::uint32_t rank = endpoint.rank();
  ASYNCIT_CHECK(W >= 1 && rank <= W);
  ASYNCIT_CHECK(x0.size() == data.features());
  ASYNCIT_CHECK(data.samples() >= W);
  // Checked on every rank, so the server refuses it too instead of
  // waiting out its wall budget for workers that never start.
  ASYNCIT_CHECK_MSG(options.sgd.batch_size >= 1, "batch_size must be >= 1");

  // Every event this thread records names this rank; the recorder is
  // armed here only when no thread-mode run or simnet world armed it.
  const obs::ScopedRank trace_rank(rank);
  obs::ScopedTrace trace(options.obs.trace_level,
                         options.obs.trace_ring_capacity);

  PsgdContext ctx;
  ctx.data = &data;
  ctx.options = &options;
  ctx.clock = &clock;

  TrainResult result;
  if (rank == 0) {
    PsgdServer server(ctx, x0, endpoint);
    drive(server, endpoint);
    result.wall_seconds = clock.seconds();
    result.x = server.model();
    result.converged = server.target_reached();
    result.rounds = server.rounds();
    result.versions = server.versions();
    result.deltas_applied = server.deltas_applied();
    result.evaluations = server.evaluations();
    result.examples_processed = server.examples_processed();
    result.peers_stopped = server.workers_stopped();
    result.frames_rejected = server.frames_rejected();
    // rounds() is the high-water min worker clock, so the threaded-run
    // epoch definition (slowest worker's completed passes) carries over.
    result.epochs = epochs_of(server.rounds(), options.sgd.batch_size,
                              data.shard(0, W).size());
    // Only the server evaluates the final model: its model is the run's.
    la::Vector margins(data.samples());
    const Eval eval = dataset_eval(data, result.x, margins);
    result.final_loss = eval.loss;
    result.final_accuracy = eval.accuracy;
  } else {
    PsgdWorker worker(ctx, rank - 1, x0, endpoint);
    drive(worker, endpoint);
    result.wall_seconds = clock.seconds();
    result.x = worker.model();
    // A server stop frame means the run ended on the server's criterion
    // (target accuracy or its wall budget), not this rank's own budget.
    result.converged = worker.stopped_by_server();
    result.steps_per_worker.push_back(worker.steps());
    result.examples_processed = worker.examples_processed();
    result.frames_rejected = worker.frames_rejected();
    result.epochs = epochs_of(worker.steps(), options.sgd.batch_size,
                              data.shard(rank - 1, W).size());
  }
  result.examples_per_sec =
      per_second(result.examples_processed, result.wall_seconds);
  result.messages_sent = endpoint.sent();
  result.messages_delivered = endpoint.delivered();
  result.messages_dropped = endpoint.dropped();
  trace.stop(result.obs_events_recorded, result.obs_events_dropped);
  return result;
}

}  // namespace asyncit::train
