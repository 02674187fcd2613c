// The parameter-server and worker state machines of the PSGD mode.
//
// Both are single-threaded pump() loops over one transport::Endpoint —
// the same driving contract as net::Peer — so the threaded orchestrator
// (train.cpp), the per-process node runtime, and the allocation test can
// all drive them: pump() performs one receive/compute/send slice and
// returns whether it made progress; a driver that sees no progress
// blocks on Endpoint::wait_for_activity.
//
// Wire mapping (DESIGN.md §9): the model is logical block 0.
//   worker -> server   delta:  kValue, partial=true, offset/count =
//                      nonzero support of the scaled delta, round =
//                      worker clock (completed steps), tag = per-worker
//                      monotone send counter.
//   server -> worker   params: kValue, partial=false, full model
//                      payload, round = server round (min active worker
//                      clock — the SSP gate value), tag = parameter
//                      version (newest-wins at the worker), offset = 0
//                      (a worker rejects any other offset).
//                      Sent at the end of a server drain, never per
//                      delta: kBsp to every live worker once a round
//                      applies, kSsp to every live worker when the min
//                      clock advanced, kTap once to each live worker
//                      that had a delta folded in the drain (the newest
//                      version, so a TAP worker does not see every
//                      version). A kTap reply the link dropped is sent
//                      again after the next drain: a TAP worker stops at
//                      PsgdWorker::kTapWindow deltas sent since its last
//                      params frame, and every fabric reports a dropped
//                      frame in its SendReceipt, so the deltas it counts
//                      all reach the server.
//   either direction   kStop:  empty control frame; a worker announces
//                      budget exhaustion, the server announces
//                      target-accuracy / wall-budget termination.
//
// The delta hot path is allocation-free in steady state: scratch, the
// server's eval margins and pending buffers are sized at construction,
// receive batches are recycled to the endpoint's pool, and sends borrow
// pooled frames (tests/alloc_test.cpp pins this).
#pragma once

#include <cstdint>
#include <vector>

#include "asyncit/obs/metrics.hpp"
#include "asyncit/support/rng.hpp"
#include "asyncit/support/timer.hpp"
#include "asyncit/train/sgd.hpp"
#include "asyncit/train/train.hpp"
#include "asyncit/transport/transport.hpp"

namespace asyncit::train {

/// Shared read-only context (outlives server and workers).
struct PsgdContext {
  const Dataset* data = nullptr;
  const TrainOptions* options = nullptr;
  const WallTimer* clock = nullptr;  ///< run clock (seconds since start)
};

/// Rank 0: folds worker deltas into the authoritative model under the
/// configured discipline and publishes parameter versions.
class PsgdServer {
 public:
  PsgdServer(const PsgdContext& ctx, const la::Vector& x0,
             transport::Endpoint& endpoint);

  /// One slice: drain arrivals and fold each delta as it comes (kBsp
  /// buffers it), then publish once, evaluate at most once (eval_every
  /// is a minimum spacing checked here), and run the stop checks.
  /// Returns true if any work was done.
  bool pump();
  bool finished() const { return finished_; }

  const la::Vector& model() const { return x_; }
  /// High-water min active-worker clock (survives end-of-run worker
  /// deactivation, when min_active() would degenerate to 0).
  std::uint64_t rounds() const { return rounds_seen_; }
  std::uint64_t versions() const { return version_; }
  std::uint64_t deltas_applied() const { return deltas_applied_; }
  std::uint64_t examples_processed() const { return examples_; }
  std::uint64_t frames_rejected() const { return frames_rejected_; }
  std::uint64_t workers_stopped() const { return workers_stopped_; }
  /// Evaluations run so far (at most one per drain).
  std::uint64_t evaluations() const { return evaluations_; }
  bool target_reached() const { return target_reached_; }
  double last_loss() const { return last_loss_; }
  double last_accuracy() const { return last_accuracy_; }

 private:
  double now() const { return ctx_.clock->seconds(); }
  std::size_t workers() const { return ctx_.options->workers; }
  /// Per delta: validate, then fold (kTap/kSsp) or buffer (kBsp).
  void handle(const net::Message& m);
  void fold(const net::Message& m);  ///< factor-1 apply, one new version
  /// Per drain: the discipline's params frames (kBsp applies its round).
  void publish(std::uint64_t prev_min);
  void apply_delta(std::span<const double> payload, std::uint32_t offset,
                   double factor);
  void apply_bsp_round_if_complete();
  /// Returns false when the link dropped the frame.
  bool send_params(std::uint32_t dst);
  void broadcast_params();
  void maybe_eval();
  void finish(bool broadcast_stop);

  PsgdContext ctx_;
  transport::Endpoint* endpoint_;
  la::Vector x_;
  la::Vector margins_;  ///< eval scratch, one margin per dataset row
  SspClock clock_;  ///< per-worker completed-step clocks (all disciplines)

  // BSP barrier: one buffered delta per worker per round, applied in
  // rank order with factorDelta = 1/W (bit-reproducible averaging).
  std::vector<double> pending_;        ///< workers() * features, flat
  std::vector<DeltaSpan> pending_span_;
  std::vector<std::uint8_t> pending_full_;
  std::vector<std::uint8_t> worker_stopped_;
  /// kTap: a delta was folded and no params frame has left since.
  std::vector<std::uint8_t> reply_owed_;

  std::vector<net::Message> inbox_;

  bool finished_ = false;
  bool target_reached_ = false;
  bool stop_broadcast_ = false;
  std::uint64_t version_ = 0;
  std::uint64_t bsp_round_ = 0;
  std::uint64_t rounds_seen_ = 0;
  std::uint64_t deltas_applied_ = 0;
  std::uint64_t examples_ = 0;
  std::uint64_t frames_rejected_ = 0;
  std::uint64_t workers_stopped_ = 0;
  std::uint64_t next_eval_ = 0;
  std::uint64_t evaluations_ = 0;
  double last_loss_ = -1.0;
  double last_accuracy_ = -1.0;

  obs::Counter* m_deltas_ = nullptr;  ///< cached registry handles
  obs::Gauge* m_loss_ = nullptr;
  obs::Gauge* m_accuracy_ = nullptr;
};

/// Rank w+1: samples minibatches from shard w, ships scaled deltas, and
/// tracks the newest published parameters (self-applying its own delta
/// between publications in the asynchronous disciplines).
class PsgdWorker {
 public:
  /// `w` is the worker index in [0, workers); the endpoint's rank must
  /// be w + 1.
  PsgdWorker(const PsgdContext& ctx, std::size_t w, const la::Vector& x0,
             transport::Endpoint& endpoint);

  /// kTap flow control: a worker with this many deltas unanswered (sent
  /// since the last params frame arrived) waits for the next one. It
  /// bounds the server's backlog, and with it the memory the frames in
  /// flight hold, when the server thread is descheduled; a server that
  /// keeps up replies long before a worker gets there.
  static constexpr std::uint64_t kTapWindow = 128;

  bool pump();
  bool finished() const { return finished_; }

  const la::Vector& model() const { return x_; }
  std::uint64_t steps() const { return steps_; }
  std::uint64_t examples_processed() const {
    return steps_ * ctx_.options->sgd.batch_size;
  }
  std::uint64_t step_budget() const { return step_budget_; }
  std::uint64_t frames_rejected() const { return frames_rejected_; }
  /// The server's stop frame (not a local budget) ended this worker.
  bool stopped_by_server() const { return stopped_by_server_; }

 private:
  double now() const { return ctx_.clock->seconds(); }
  bool drain();  ///< returns true if anything arrived
  bool admissible() const;
  void step();
  void finish(bool notify_server);

  PsgdContext ctx_;
  std::size_t w_;
  transport::Endpoint* endpoint_;
  la::BlockRange shard_;
  Rng rng_;
  la::Vector x_;       ///< local parameter copy
  la::Vector delta_;   ///< step scratch
  std::vector<net::Message> inbox_;

  bool finished_ = false;
  bool stopped_by_server_ = false;
  std::uint64_t steps_ = 0;          ///< == completed-step clock
  std::uint64_t step_budget_ = 0;
  std::uint64_t send_seq_ = 0;
  std::uint64_t unanswered_ = 0;     ///< deltas that left since params
  std::uint64_t server_round_ = 0;   ///< newest published round seen
  std::uint64_t param_version_ = 0;  ///< newest published version seen
  std::uint64_t frames_rejected_ = 0;
  obs::Counter* m_steps_ = nullptr;  ///< cached registry handle
};

/// Per-worker RNG stream: child `w` of the run seed, identical in the
/// distributed run and the serial oracle (split() consumed in worker
/// order). Exposed so tests can replay a worker's batch sequence.
Rng worker_stream(std::uint64_t seed, std::size_t w);

}  // namespace asyncit::train
