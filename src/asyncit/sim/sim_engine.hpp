// Discrete-event simulator of parallel/distributed asynchronous iterations.
//
// This is the executable substitute for the paper's testbeds (Tnode, Cray
// T3E SHMEM, IBM SP4, Grid5000 — see DESIGN.md §2): P simulated processors
// own disjoint sets of blocks, run updating phases whose durations follow
// per-processor ComputeTimeModels, and exchange values over channels with
// latency, optional FIFO ordering, and optional message drops. Everything
// is deterministic given the seed and runs in virtual time.
//
// Faithfulness to the paper's model:
//   * every completed updating phase is assigned the next global iteration
//     number j — the linearization of Definition 1;
//   * each value carries the step at which it was produced, so the labels
//     l_h(j) (and hence delays, out-of-order arrivals, macro-iterations
//     and epochs) are MEASURED, not assumed;
//   * non-FIFO channels + last-arrival-wins overwrite reproduce genuine
//     out-of-order message behaviour (label inversions);
//   * flexible communication (Definition 3): phases perform inner_steps
//     applications of the block operator; partial iterates are sent
//     mid-phase (hatched arrows of Fig. 2) and mid-phase arrivals are
//     incorporated between inner steps;
//   * termination detection runs the [22]-style double-scan protocol over
//     control messages (see sim/termination.hpp).
//
// run_sync_sim provides the synchronous (BSP) baseline on the same virtual
// hardware: rounds end at the slowest processor's phase plus message
// delivery (with retransmission on drops) — the waiting the paper's
// asynchronous iterations eliminate.
#pragma once

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "asyncit/linalg/norms.hpp"
#include "asyncit/model/epoch.hpp"
#include "asyncit/model/history.hpp"
#include "asyncit/model/macro_iteration.hpp"
#include "asyncit/net/channel.hpp"
#include "asyncit/obs/trace_recorder.hpp"
#include "asyncit/operators/operator.hpp"
#include "asyncit/sim/termination.hpp"
#include "asyncit/sim/time_models.hpp"
#include "asyncit/support/rng.hpp"

namespace asyncit::sim {

struct SimOptions {
  std::size_t inner_steps = 1;
  bool publish_partials = false;  ///< flexible communication (Definition 3)
  bool fifo = false;              ///< enforce per-channel in-order delivery
  double drop_prob = 0.0;         ///< transient message loss probability
  net::OverwritePolicy overwrite = net::OverwritePolicy::kLastArrivalWins;

  model::Step max_steps = 100000;
  double max_time = 1e12;
  double tol = 1e-10;
  std::optional<la::Vector> x_star;  ///< oracle for error tracking/stop
  bool stop_on_oracle = true;        ///< stop when error < tol (needs x_star)

  bool enable_detection = false;  ///< [22]-style termination detection
  double local_eps = 1e-10;       ///< per-processor local residual bound
  double scan_period = 5.0;       ///< coordinator scan period (virtual time)

  model::LabelRecording recording = model::LabelRecording::kMinOnly;
  la::Vector norm_weights;       ///< weighted max norm (empty = unit)
  model::Step record_error_every = 1;

  /// Arms the obs rings on virtual time, 4,096 events per processor.
  obs::TraceLevel trace_level = obs::TraceLevel::kOff;

  std::uint64_t seed = 1;
};

struct SimResult {
  la::Vector x;                ///< global iterate at the end
  model::Step steps = 0;       ///< completed updating phases
  double virtual_time = 0.0;
  bool converged = false;

  bool detection_fired = false;
  double detection_time = 0.0;
  model::Step detection_step = 0;
  double error_at_detection = -1.0;  ///< oracle error when detection fired
  std::size_t scans = 0;

  model::ScheduleTrace trace;
  std::vector<model::Step> macro_boundaries;
  std::vector<model::Step> epoch_boundaries;

  std::vector<std::pair<model::Step, double>> error_history;
  std::vector<std::pair<double, double>> error_vs_time;
  double initial_error = 0.0;

  std::size_t messages_sent = 0;
  std::size_t messages_dropped = 0;
  std::size_t partials_sent = 0;
  std::vector<std::size_t> updates_per_processor;

  SimResult(std::size_t num_blocks, model::LabelRecording rec)
      : trace(num_blocks, rec) {}
};

/// Runs the asynchronous simulation. `compute` supplies one model per
/// processor (its size determines the processor count; blocks are split
/// contiguously and near-evenly across processors).
SimResult run_async_sim(const op::BlockOperator& op, const la::Vector& x0,
                        std::vector<std::unique_ptr<ComputeTimeModel>> compute,
                        LatencyModel& latency, const SimOptions& options);

struct SyncSimResult {
  la::Vector x;
  std::size_t rounds = 0;
  double virtual_time = 0.0;
  bool converged = false;
  std::vector<std::pair<double, double>> error_vs_time;
  std::size_t retransmissions = 0;
  double initial_error = 0.0;
};

/// Synchronous (BSP) baseline on the same virtual hardware: each round
/// applies a full Jacobi-style sweep; the barrier waits for the slowest
/// processor and for every message (dropped messages are retransmitted
/// after a timeout of twice the sampled latency).
SyncSimResult run_sync_sim(const op::BlockOperator& op, const la::Vector& x0,
                           std::vector<std::unique_ptr<ComputeTimeModel>> compute,
                           LatencyModel& latency, const SimOptions& options);

}  // namespace asyncit::sim
