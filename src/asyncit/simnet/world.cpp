#include "asyncit/simnet/world.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "asyncit/net/node_runtime.hpp"
#include "asyncit/obs/trace_recorder.hpp"
#include "asyncit/simnet/transport.hpp"
#include "asyncit/support/check.hpp"
#include "asyncit/transport/chaos.hpp"

namespace asyncit::simnet {

namespace {

/// The injectable obs clock: virtual nanoseconds of the engine running
/// on this thread. Armed BEFORE engine.run() it reads 0, so the
/// recorder's t0 anchor is virtual zero and every event timestamp is
/// virtual time directly. The world arms the ONE process-global
/// recorder with it, and this thread's one ring with room for every
/// rank; the ranks are handed trace_level kOff so they do not re-anchor it.
std::uint64_t sim_trace_clock() {
  const SimEngine* engine = SimEngine::active();
  return engine != nullptr ? engine->now_ns() : 0;
}

}  // namespace

WorldResult run_world(const op::BlockOperator& op, const la::Vector& x0,
                      const WorldOptions& options) {
  const std::size_t world = options.mp.workers;
  ASYNCIT_CHECK(world >= 2);
  WallTimer wall;

  SimEngine engine({options.sim.record_log});
  SimTransport fabric(world, options.sim, options.mp.seed, &engine);
  std::unique_ptr<transport::ChaosTransport> chaos;
  if (options.chaos)
    chaos = std::make_unique<transport::ChaosTransport>(
        fabric, options.chaos_policy, options.mp.seed);
  transport::Transport& transport_ref =
      chaos ? static_cast<transport::Transport&>(*chaos) : fabric;

  // The ranks share one options block: tracing is owned by the world
  // (see sim_trace_clock), and per-source link histograms are a world^2
  // memory cliff the simulator exists to scale past.
  net::MpOptions per_rank = options.mp;
  per_rank.obs.trace_level = obs::TraceLevel::kOff;
  per_rank.obs.link_delays = false;

  SimClock clock(&engine);
  obs::ScopedTrace trace(options.mp.obs.trace_level,
                         options.mp.obs.trace_ring_capacity * world,
                         &sim_trace_clock);

  WorldResult result;
  result.ranks.resize(world);
  for (std::size_t r = 0; r < world; ++r) {
    engine.spawn(static_cast<std::uint32_t>(r), [&, r] {
      result.ranks[r] =
          net::run_node(op, x0, per_rank,
                        transport_ref.endpoint(static_cast<std::uint32_t>(r)),
                        clock);
    });
  }
  engine.run();

  result.virtual_seconds = engine.now();
  result.wall_seconds = wall.seconds();
  result.events = engine.events_dispatched();
  result.log_hash = engine.log_hash();
  result.event_log = engine.log();
  result.log_truncated = engine.log_truncated();
  result.partition_dropped = fabric.partition_dropped();
  trace.stop(result.obs_events_recorded, result.obs_events_dropped);
  result.all_converged = options.mp.solve.x_star.has_value();
  for (const net::MpResult& rank : result.ranks) {
    result.all_converged = result.all_converged && rank.converged;
    result.final_residual = std::max(result.final_residual, rank.final_error);
    result.total_updates += rank.total_updates;
    result.messages_sent += rank.messages_sent;
    result.messages_dropped += rank.messages_dropped;
    result.messages_delivered += rank.messages_delivered;
  }
  return result;
}

TrainWorldResult run_train_world(const train::Dataset& data,
                                 const la::Vector& x0,
                                 const TrainWorldOptions& options) {
  const std::size_t world = options.train.workers + 1;
  ASYNCIT_CHECK(options.train.workers >= 1);
  WallTimer wall;

  SimEngine engine({options.sim.record_log});
  SimTransport fabric(world, options.sim, options.train.seed, &engine);

  train::TrainOptions per_rank = options.train;
  per_rank.obs.trace_level = obs::TraceLevel::kOff;

  SimClock clock(&engine);
  obs::ScopedTrace trace(options.train.obs.trace_level,
                         options.train.obs.trace_ring_capacity * world,
                         &sim_trace_clock);

  TrainWorldResult result;
  result.ranks.resize(world);
  for (std::size_t r = 0; r < world; ++r) {
    engine.spawn(static_cast<std::uint32_t>(r), [&, r] {
      result.ranks[r] = train::run_training_node(
          data, x0, per_rank,
          fabric.endpoint(static_cast<std::uint32_t>(r)), clock);
    });
  }
  engine.run();

  result.virtual_seconds = engine.now();
  result.wall_seconds = wall.seconds();
  result.events = engine.events_dispatched();
  result.log_hash = engine.log_hash();
  if (!result.ranks.empty())
    trace.stop(result.ranks[0].obs_events_recorded,
               result.ranks[0].obs_events_dropped);
  return result;
}

}  // namespace asyncit::simnet
