// Tests for the parameter-server training mode (train/): the SSP
// admission clock on a virtual schedule, delta support spans, the fused
// evaluation against a row-by-row reference at every SIMD level, the
// delta-frame wire round trip, BSP bit-exact parity against a serial
// minibatch-SGD oracle, convergence of all three disciplines on the
// synthetic logistic set, the TAP server's per-drain publication and
// evaluation, the TAP worker's window and the resent dropped reply, its
// rejection of a misplaced params frame, the per-rank run_training_node
// entry, the worker's batch-size check, and thread mode: its merge of the
// W + 1 rank results, and rethrowing a role's fault.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "asyncit/linalg/simd_dispatch.hpp"
#include "asyncit/linalg/vector_ops.hpp"
#include "asyncit/problems/synthetic.hpp"
#include "asyncit/support/check.hpp"
#include "asyncit/support/timer.hpp"
#include "asyncit/train/psgd.hpp"
#include "asyncit/train/sgd.hpp"
#include "asyncit/train/train.hpp"
#include "asyncit/transport/inproc.hpp"
#include "asyncit/transport/wire.hpp"
#include "trace_counts.hpp"

namespace {

using namespace asyncit;

/// Cleanly separable instance (no label noise): every discipline should
/// drive train accuracy to 1.0, so a 0.95 target is a robust bar.
problems::LogisticConfig easy_config() {
  problems::LogisticConfig cfg;
  cfg.samples = 240;
  cfg.features = 48;
  cfg.density = 0.3;
  cfg.separation = 3.0;
  cfg.label_noise = 0.0;
  cfg.ridge = 0.01;
  return cfg;
}

train::TrainOptions base_options(train::Discipline d) {
  train::TrainOptions options;
  options.workers = 3;
  options.seed = 7;
  options.sgd.discipline = d;
  options.sgd.learning_rate = 0.5;
  options.sgd.batch_size = 16;
  options.sgd.max_epochs = 200;
  options.sgd.max_seconds = 15.0;
  options.sgd.target_accuracy = 0.95;
  options.sgd.eval_every = 4;
  return options;
}

/// Delegates to an inner endpoint but throws from every receive(): a
/// fault in a caller-supplied fabric.
class FailingEndpoint final : public transport::Endpoint {
 public:
  explicit FailingEndpoint(transport::Endpoint& inner) : inner_(inner) {}
  std::uint32_t rank() const override { return inner_.rank(); }
  transport::SendReceipt send(std::uint32_t dst,
                              const transport::MessageHeader& header,
                              std::span<const double> value, double now,
                              bool allow_drop) override {
    return inner_.send(dst, header, value, now, allow_drop);
  }
  std::size_t receive(double, std::vector<net::Message>&) override {
    throw std::runtime_error("injected receive failure");
  }
  void recycle(std::vector<net::Message>& consumed) override {
    inner_.recycle(consumed);
  }
  std::uint64_t activity() const override { return inner_.activity(); }
  void wait_for_activity(std::uint64_t seen, double timeout) override {
    inner_.wait_for_activity(seen, timeout);
  }
  double next_delivery() const override { return inner_.next_delivery(); }
  std::uint64_t sent() const override { return inner_.sent(); }
  std::uint64_t dropped() const override { return inner_.dropped(); }
  std::uint64_t delivered() const override { return inner_.delivered(); }
  net::DelayHistogram delays() const override { return inner_.delays(); }

 private:
  transport::Endpoint& inner_;
};

/// Delegates to an inner endpoint but drops the next `drop_values` value
/// frames it sends, as a lossy link does: the receipt says the frame did
/// not leave.
class LossyEndpoint final : public transport::Endpoint {
 public:
  explicit LossyEndpoint(transport::Endpoint& inner) : inner_(inner) {}
  std::uint32_t rank() const override { return inner_.rank(); }
  transport::SendReceipt send(std::uint32_t dst,
                              const transport::MessageHeader& header,
                              std::span<const double> value, double now,
                              bool allow_drop) override {
    if (header.kind == net::MsgKind::kValue && drop_values > 0) {
      --drop_values;
      return {false, now, now};
    }
    return inner_.send(dst, header, value, now, allow_drop);
  }
  std::size_t receive(double now, std::vector<net::Message>& out) override {
    return inner_.receive(now, out);
  }
  void recycle(std::vector<net::Message>& consumed) override {
    inner_.recycle(consumed);
  }
  std::uint64_t activity() const override { return inner_.activity(); }
  void wait_for_activity(std::uint64_t seen, double timeout) override {
    inner_.wait_for_activity(seen, timeout);
  }
  double next_delivery() const override { return inner_.next_delivery(); }
  std::uint64_t sent() const override { return inner_.sent(); }
  std::uint64_t dropped() const override { return inner_.dropped(); }
  std::uint64_t delivered() const override { return inner_.delivered(); }
  net::DelayHistogram delays() const override { return inner_.delays(); }

  std::uint64_t drop_values = 0;

 private:
  transport::Endpoint& inner_;
};

/// `inner` with rank `failing` behind a FailingEndpoint.
class FailingTransport final : public transport::Transport {
 public:
  FailingTransport(transport::Transport& inner, std::uint32_t failing)
      : inner_(inner), failing_rank_(failing), failing_(inner.endpoint(failing)) {}
  std::size_t world() const override { return inner_.world(); }
  std::vector<std::uint32_t> local_ranks() const override {
    return inner_.local_ranks();
  }
  transport::Endpoint& endpoint(std::uint32_t rank) override {
    return rank == failing_rank_ ? failing_ : inner_.endpoint(rank);
  }
  const char* backend() const override { return "failing"; }

 private:
  transport::Transport& inner_;
  std::uint32_t failing_rank_;
  FailingEndpoint failing_;
};

TEST(SspClock, MinActiveClockOnVirtualSchedule) {
  train::SspClock clock(/*workers=*/3);
  EXPECT_EQ(clock.active(), 3u);
  EXPECT_EQ(clock.min_active(), 0u);

  // Workers 0 and 1 sprint to 5; worker 2 lags at 1 and pins the min.
  clock.advance(0, 5);
  clock.advance(1, 5);
  clock.advance(2, 1);
  EXPECT_EQ(clock.min_active(), 1u);

  // advance() is monotone: a stale report cannot move a clock backward.
  clock.advance(0, 2);
  clock.advance(2, 0);
  EXPECT_EQ(clock.min_active(), 1u);

  // The straggler leaves: the min jumps to the survivors.
  clock.deactivate(2);
  EXPECT_EQ(clock.active(), 2u);
  EXPECT_EQ(clock.min_active(), 5u);

  // No active workers: min degenerates to 0 (callers keep a high-water
  // mark; see PsgdServer::rounds()).
  clock.deactivate(0);
  clock.deactivate(1);
  EXPECT_EQ(clock.active(), 0u);
  EXPECT_EQ(clock.min_active(), 0u);
}

TEST(SgdMath, DeltaSupportSpanIsExact) {
  const train::Dataset data =
      train::make_synthetic_dataset(easy_config(), /*seed=*/11);
  la::Vector x = la::zeros(data.features());
  la::Vector delta = la::zeros(data.features());
  Rng rng = train::worker_stream(/*seed=*/11, /*w=*/0);
  const train::DeltaSpan span = train::sgd_minibatch_delta(
      data, data.shard(0, 2), /*batch_size=*/8, /*learning_rate=*/0.5, x,
      rng, delta);
  ASSERT_GT(span.count, 0u);
  ASSERT_LE(span.offset + span.count, data.features());
  // Entries outside the reported support are exactly zero, so a frame
  // truncated to [offset, offset+count) loses nothing.
  for (std::size_t i = 0; i < span.offset; ++i) EXPECT_EQ(delta[i], 0.0);
  for (std::size_t i = span.offset + span.count; i < delta.size(); ++i)
    EXPECT_EQ(delta[i], 0.0);
  // Endpoints of the span are nonzero (tightest range).
  EXPECT_NE(delta[span.offset], 0.0);
  EXPECT_NE(delta[span.offset + span.count - 1], 0.0);
}

TEST(SgdMath, EvalMatchesRowByRowReferenceAtEverySimdLevel) {
  const train::Dataset data =
      train::make_synthetic_dataset(easy_config(), /*seed=*/11);
  const std::size_t m = data.samples();
  const std::size_t n = data.features();

  // The zero model (every margin 0, the tie counted as +1), three seeded
  // ones, and a large-margin one whose loss terms hit both log1pexp
  // branches far into saturation.
  std::vector<la::Vector> models{la::zeros(n)};
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    la::Vector x(n);
    for (double& v : x) v = rng.normal();
    models.push_back(std::move(x));
  }
  la::Vector large = models[1];
  for (double& v : large) v *= 1e4;
  models.push_back(std::move(large));

  struct RestoreLevel {
    la::simd::Level level = la::simd::active_level();
    ~RestoreLevel() { la::simd::force(level); }
  } restore;
  la::Vector margins(m);
  for (const la::simd::Level level : la::simd::supported_levels()) {
    ASSERT_TRUE(la::simd::force(level));
    for (std::size_t i = 0; i < models.size(); ++i) {
      const la::Vector& x = models[i];
      const train::Eval eval = train::dataset_eval(data, x, margins);
      // Row-by-row reference: row_dot per row, the same log1pexp branch
      // as train/sgd.cpp, and a sign count. The loss barely feels a
      // last-bit change in one margin, so the margins left in the
      // scratch are compared too.
      std::size_t margin_mismatches = 0;
      double sum = 0.0;
      std::size_t correct = 0;
      for (std::size_t h = 0; h < m; ++h) {
        const double margin = data.design.row_dot(h, x);
        margin_mismatches += margins[h] != margin;
        const double t = -static_cast<double>(data.labels[h]) * margin;
        sum += t > 0.0 ? t + std::log1p(std::exp(-t))
                       : std::log1p(std::exp(t));
        correct += (margin >= 0.0 ? 1 : -1) == data.labels[h];
      }
      double sq = 0.0;
      for (const double xi : x) sq += xi * xi;
      const double loss =
          sum / static_cast<double>(m) + 0.5 * data.ridge * sq;
      const double accuracy =
          static_cast<double>(correct) / static_cast<double>(m);

      EXPECT_EQ(margin_mismatches, 0u)
          << la::simd::to_string(level) << " model " << i;
      EXPECT_EQ(eval.loss, loss)
          << la::simd::to_string(level) << " model " << i;
      EXPECT_EQ(eval.accuracy, accuracy)
          << la::simd::to_string(level) << " model " << i;
    }
  }

  la::Vector short_margins(m - 1), long_margins(m + 1);
  EXPECT_THROW(train::dataset_eval(data, models[0], short_margins),
               CheckError);
  EXPECT_THROW(train::dataset_eval(data, models[0], long_margins),
               CheckError);
}

TEST(DeltaFrame, WireRoundTripPreservesClockAndSupport) {
  // A worker delta frame is an ordinary partial-block kValue frame:
  // round carries the worker clock, tag the send counter, offset/count
  // the support span. Encode with the TX fast path, decode, compare.
  transport::MessageHeader h;
  h.block = 0;
  h.tag = 42;          // per-worker send counter
  h.round = 17;        // worker clock (completed steps)
  h.partial = true;
  h.offset = 5;
  const std::vector<double> payload = {0.25, -1.5, 3.0};

  std::vector<std::uint8_t> bytes;
  transport::encode_frame(/*src=*/2, h, payload, /*t_send=*/1.25, bytes);
  ASSERT_EQ(bytes.size(), transport::frame_bytes(payload.size()));

  net::Message out;
  std::size_t consumed = 0;
  ASSERT_EQ(transport::decode_frame(bytes, consumed, out),
            transport::DecodeStatus::kOk);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(out.src, 2u);
  EXPECT_EQ(out.kind, net::MsgKind::kValue);
  EXPECT_EQ(out.block, 0u);
  EXPECT_EQ(out.tag, 42u);
  EXPECT_EQ(out.round, 17u);
  EXPECT_TRUE(out.partial);
  EXPECT_EQ(out.offset, 5u);
  ASSERT_EQ(out.value.size(), payload.size());
  for (std::size_t i = 0; i < payload.size(); ++i)
    EXPECT_EQ(out.value[i], payload[i]);
}

TEST(TrainBsp, BitExactParityWithSerialOracle) {
  // samples divisible by workers => equal shards => equal step budgets,
  // so every worker participates in every round and the distributed run
  // is a pure data-flow reordering of the serial schedule.
  problems::LogisticConfig cfg = easy_config();
  cfg.samples = 120;
  cfg.features = 32;
  constexpr std::size_t kWorkers = 3;
  constexpr std::size_t kBatch = 8;
  constexpr std::uint64_t kEpochs = 3;  // 3 * ceil(40/8) = 15 rounds
  constexpr std::uint64_t kRounds = 15;
  const std::uint64_t seed = 21;

  const train::Dataset data = train::make_synthetic_dataset(cfg, seed);
  ASSERT_EQ(data.samples() % kWorkers, 0u);

  train::TrainOptions options = base_options(train::Discipline::kBsp);
  options.workers = kWorkers;
  options.seed = seed;
  options.sgd.batch_size = kBatch;
  options.sgd.max_epochs = kEpochs;
  options.sgd.target_accuracy = 0.0;  // run the full budget
  const train::TrainResult r =
      train::run_training(data, la::zeros(data.features()), options);

  EXPECT_EQ(r.rounds, kRounds);
  EXPECT_EQ(r.deltas_applied, kRounds * kWorkers);
  ASSERT_EQ(r.steps_per_worker.size(), kWorkers);
  for (const std::uint64_t s : r.steps_per_worker) EXPECT_EQ(s, kRounds);
  EXPECT_EQ(r.epochs, kEpochs);
  EXPECT_EQ(r.messages_dropped, 0u);
  EXPECT_EQ(r.frames_rejected, 0u);

  // Serial oracle: per round, every worker computes its delta against
  // the FROZEN round model, then deltas apply in rank order with
  // factor 1/W — the exact float schedule of PsgdServer's barrier.
  const std::size_t n = data.features();
  la::Vector x = la::zeros(n);
  std::vector<Rng> streams;
  for (std::size_t w = 0; w < kWorkers; ++w)
    streams.push_back(train::worker_stream(seed, w));
  std::vector<la::Vector> deltas(kWorkers, la::zeros(n));
  std::vector<train::DeltaSpan> spans(kWorkers);
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    for (std::size_t w = 0; w < kWorkers; ++w)
      spans[w] = train::sgd_minibatch_delta(
          data, data.shard(w, kWorkers), kBatch, options.sgd.learning_rate,
          x, streams[w], deltas[w]);
    for (std::size_t w = 0; w < kWorkers; ++w)
      for (std::size_t i = spans[w].offset;
           i < spans[w].offset + spans[w].count; ++i)
        x[i] += (1.0 / kWorkers) * deltas[w][i];
  }

  ASSERT_EQ(r.x.size(), x.size());
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(r.x[i], x[i]) << "i=" << i;
}

TEST(TrainTap, ConvergesToTargetAccuracy) {
  const train::Dataset data =
      train::make_synthetic_dataset(easy_config(), /*seed=*/7);
  const train::TrainOptions options = base_options(train::Discipline::kTap);
  const train::TrainResult r =
      train::run_training(data, la::zeros(data.features()), options);
  EXPECT_TRUE(r.converged);
  EXPECT_GE(r.final_accuracy, 0.95);
  EXPECT_GT(r.deltas_applied, 0u);
  EXPECT_GT(r.examples_processed, 0u);
  EXPECT_EQ(r.frames_rejected, 0u);
}

TEST(TrainSsp, ConvergesToTargetAccuracy) {
  const train::Dataset data =
      train::make_synthetic_dataset(easy_config(), /*seed=*/7);
  train::TrainOptions options = base_options(train::Discipline::kSsp);
  options.sgd.staleness = 2;
  const train::TrainResult r =
      train::run_training(data, la::zeros(data.features()), options);
  EXPECT_TRUE(r.converged);
  EXPECT_GE(r.final_accuracy, 0.95);
  // SSP publishes a round whenever the min worker clock advances, so the
  // server must have observed rounds.
  EXPECT_GT(r.rounds, 0u);
}

TEST(TrainTap, SurvivesLossyChaosDelivery) {
  // Delta and parameter frames are droppable in TAP (allow_drop); stop
  // frames are not, so the run still terminates cleanly under loss.
  const train::Dataset data =
      train::make_synthetic_dataset(easy_config(), /*seed=*/9);
  train::TrainOptions options = base_options(train::Discipline::kTap);
  options.seed = 9;
  options.chaos.delivery.drop_prob = 0.05;
  const train::TrainResult r =
      train::run_training(data, la::zeros(data.features()), options);
  EXPECT_TRUE(r.converged);
  EXPECT_GE(r.final_accuracy, 0.95);

  // A target-stopped run may end before any frame is drawn for loss, so
  // drops are asserted on a run whose budget fixes its frame count: 200
  // epochs of 5 batches per 80-row shard, 1,000 droppable deltas per
  // worker (P(no drop) = 0.95^3000).
  options.sgd.target_accuracy = 0.0;
  const train::TrainResult budget =
      train::run_training(data, la::zeros(data.features()), options);
  ASSERT_EQ(budget.steps_per_worker.size(), options.workers);
  for (const std::uint64_t steps : budget.steps_per_worker)
    EXPECT_EQ(steps, 1000u);
  EXPECT_GT(budget.messages_dropped, 0u);
}

TEST(TrainTap, ServerFoldsPerDeltaAndPublishesAndEvaluatesPerDrain) {
  // The ranks are driven co-operatively on one thread over zero-latency
  // inproc links, so one server pump drains every delta the workers
  // sent before it.
  const train::Dataset data =
      train::make_synthetic_dataset(easy_config(), /*seed=*/7);
  train::TrainOptions options = base_options(train::Discipline::kTap);
  options.workers = 2;
  options.sgd.max_epochs = 1000000;
  options.sgd.max_seconds = 1e9;
  options.sgd.target_accuracy = 0.0;
  options.sgd.eval_every = 4;
  WallTimer timer;
  train::PsgdContext ctx;
  ctx.data = &data;
  ctx.options = &options;
  ctx.clock = &timer;
  const la::Vector x0 = la::zeros(data.features());

  // Params frames waiting at `rank`, drained by hand.
  std::vector<net::Message> inbox;
  auto drain = [&](transport::InprocTransport& tx, std::uint32_t rank) {
    inbox.clear();
    tx.endpoint(rank).receive(timer.seconds(), inbox);
    return inbox;
  };

  {
    transport::InprocTransport tx(3, net::DeliveryPolicy{}, options.seed);
    train::PsgdServer server(ctx, x0, tx.endpoint(0));
    train::PsgdWorker w0(ctx, 0, x0, tx.endpoint(1));
    train::PsgdWorker w1(ctx, 1, x0, tx.endpoint(2));
    for (int i = 0; i < 5; ++i) w0.pump();
    for (int i = 0; i < 5; ++i) w1.pump();
    server.pump();
    EXPECT_EQ(server.deltas_applied(), 10u);
    EXPECT_EQ(server.versions(), 10u);

    // One params frame per worker, carrying the newest version.
    for (const std::uint32_t rank : {1u, 2u}) {
      const std::vector<net::Message> got = drain(tx, rank);
      ASSERT_FALSE(got.empty()) << "rank " << rank;
      EXPECT_EQ(got.size(), 1u) << "rank " << rank;
      EXPECT_EQ(got[0].kind, net::MsgKind::kValue);
      EXPECT_EQ(got[0].tag, server.versions()) << "rank " << rank;
    }

    // One evaluation, of the model after the whole drain: 10 deltas at
    // eval_every 4 would have evaluated twice, each mid-drain.
    EXPECT_EQ(server.evaluations(), 1u);
    la::Vector margins(data.samples());
    const train::Eval eval = train::dataset_eval(data, server.model(), margins);
    EXPECT_EQ(server.last_accuracy(), eval.accuracy);
    EXPECT_EQ(server.last_loss(), eval.loss);
  }

  {
    // Worker 0 runs a one-step budget: its delta and its kStop reach the
    // server in the same drain, so only worker 1 is replied to.
    options.sgd.max_epochs = 1;
    options.sgd.batch_size = data.shard(0, 2).size();
    transport::InprocTransport tx(3, net::DeliveryPolicy{}, options.seed);
    train::PsgdServer server(ctx, x0, tx.endpoint(0));
    train::PsgdWorker w0(ctx, 0, x0, tx.endpoint(1));
    train::PsgdWorker w1(ctx, 1, x0, tx.endpoint(2));
    ASSERT_EQ(w0.step_budget(), 1u);
    w0.pump();  // the delta
    w0.pump();  // the budget is spent: kStop
    ASSERT_TRUE(w0.finished());
    w1.pump();
    server.pump();
    EXPECT_EQ(server.deltas_applied(), 2u);
    EXPECT_EQ(server.workers_stopped(), 1u);
    EXPECT_TRUE(drain(tx, 1).empty());
    EXPECT_EQ(drain(tx, 2).size(), 1u);
  }
}

TEST(TrainTap, WorkerWaitsAtItsWindowAndADroppedReplyIsResent) {
  // One worker and the server, driven by hand on one thread over a
  // zero-latency inproc link.
  const train::Dataset data =
      train::make_synthetic_dataset(easy_config(), /*seed=*/7);
  train::TrainOptions options = base_options(train::Discipline::kTap);
  options.workers = 1;
  options.sgd.max_epochs = 1000000;
  options.sgd.max_seconds = 1e9;
  options.sgd.target_accuracy = 0.0;
  WallTimer timer;
  train::PsgdContext ctx;
  ctx.data = &data;
  ctx.options = &options;
  ctx.clock = &timer;
  const la::Vector x0 = la::zeros(data.features());
  constexpr std::uint64_t kWindow = train::PsgdWorker::kTapWindow;

  transport::InprocTransport tx(2, net::DeliveryPolicy{}, options.seed);
  LossyEndpoint server_ep(tx.endpoint(0));
  LossyEndpoint worker_ep(tx.endpoint(1));
  train::PsgdServer server(ctx, x0, server_ep);
  train::PsgdWorker worker(ctx, 0, x0, worker_ep);

  // Deltas the link dropped reach no server, so they do not count
  // toward the window.
  worker_ep.drop_values = 10;
  for (std::uint64_t i = 0; i < kWindow + 10; ++i) worker.pump();
  EXPECT_EQ(worker.steps(), kWindow + 10);
  // At the window the worker waits for a params frame.
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(worker.pump());
  EXPECT_EQ(worker.steps(), kWindow + 10);

  // The server folds the deltas that left, but the link drops its reply.
  server_ep.drop_values = 1;
  server.pump();
  EXPECT_EQ(server.deltas_applied(), kWindow);
  EXPECT_FALSE(worker.pump());
  EXPECT_EQ(worker.steps(), kWindow + 10);

  // The reply stays owed, goes out after the next drain, and frees the
  // worker.
  server.pump();
  EXPECT_TRUE(worker.pump());
  EXPECT_EQ(worker.steps(), kWindow + 11);
}

TEST(TrainTap, WorkerRejectsAParamsFrameAtANonzeroOffset) {
  // A params frame carries the full model at offset 0 (train/psgd.hpp
  // wire mapping); at any other offset it is a misfit, rejected like any
  // other, and no reply to the deltas in flight. The worker waits at its
  // window and a hand-driven rank 0 sends the frames. A zero learning
  // rate keeps the worker's own steps off its model, so the model shows
  // exactly what the frames did.
  const train::Dataset data =
      train::make_synthetic_dataset(easy_config(), /*seed=*/7);
  train::TrainOptions options = base_options(train::Discipline::kTap);
  options.workers = 1;
  options.sgd.learning_rate = 0.0;
  options.sgd.max_epochs = 1000000;
  options.sgd.max_seconds = 1e9;
  options.sgd.target_accuracy = 0.0;
  WallTimer timer;
  train::PsgdContext ctx;
  ctx.data = &data;
  ctx.options = &options;
  ctx.clock = &timer;
  const la::Vector x0 = la::zeros(data.features());
  constexpr std::uint64_t kWindow = train::PsgdWorker::kTapWindow;

  transport::InprocTransport tx(2, net::DeliveryPolicy{}, options.seed);
  train::PsgdWorker worker(ctx, 0, x0, tx.endpoint(1));
  for (std::uint64_t i = 0; i < kWindow; ++i) worker.pump();
  EXPECT_FALSE(worker.pump());
  ASSERT_EQ(worker.steps(), kWindow);

  la::Vector params(data.features());
  for (std::size_t i = 0; i < params.size(); ++i) params[i] = 1.0 + i;
  transport::MessageHeader h;
  h.block = 0;
  h.tag = 1;
  h.offset = 3;
  tx.endpoint(0).send(1, h, params, timer.seconds(), /*allow_drop=*/false);
  EXPECT_TRUE(worker.pump());
  EXPECT_EQ(worker.frames_rejected(), 1u);
  EXPECT_EQ(worker.steps(), kWindow);  // still waiting for a reply
  EXPECT_EQ(worker.model(), x0);

  // The same frame at offset 0 is applied: version 1 is still new to
  // the worker, and the reply frees it for one more step.
  h.offset = 0;
  tx.endpoint(0).send(1, h, params, timer.seconds(), /*allow_drop=*/false);
  EXPECT_TRUE(worker.pump());
  EXPECT_EQ(worker.frames_rejected(), 1u);
  EXPECT_EQ(worker.steps(), kWindow + 1);
  EXPECT_EQ(worker.model(), params);
}

TEST(TrainSsp, WorkerGatesItselfOnThePublishedRound) {
  // The SSP gate is the worker's own: it takes step c only while
  // c <= round + staleness, on the newest round a params frame carried.
  // A hand-driven rank 0 sends those frames, on the harness of
  // TrainTap.WorkerRejectsAParamsFrameAtANonzeroOffset. Each frame's
  // version runs ahead of its round, as the server's does, so a gate
  // that read the version would admit more steps.
  const train::Dataset data =
      train::make_synthetic_dataset(easy_config(), /*seed=*/7);
  train::TrainOptions options = base_options(train::Discipline::kSsp);
  options.workers = 1;
  options.sgd.staleness = 2;
  options.sgd.max_epochs = 1000000;
  options.sgd.max_seconds = 1e9;
  options.sgd.target_accuracy = 0.0;
  WallTimer timer;
  train::PsgdContext ctx;
  ctx.data = &data;
  ctx.options = &options;
  ctx.clock = &timer;
  const la::Vector x0 = la::zeros(data.features());

  transport::InprocTransport tx(2, net::DeliveryPolicy{}, options.seed);
  train::PsgdWorker worker(ctx, 0, x0, tx.endpoint(1));
  // No params frame: round 0 admits steps 0, 1 and 2, and no more.
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(worker.pump());
  EXPECT_FALSE(worker.pump());
  EXPECT_EQ(worker.steps(), 3u);

  // Round 1 admits exactly one more step.
  transport::MessageHeader h;
  h.block = 0;
  h.tag = 7;
  h.round = 1;
  tx.endpoint(0).send(1, h, x0, timer.seconds(), /*allow_drop=*/false);
  EXPECT_TRUE(worker.pump());
  EXPECT_EQ(worker.steps(), 4u);
  EXPECT_FALSE(worker.pump());
  EXPECT_EQ(worker.steps(), 4u);

  // A newer version at the same round is applied but admits none.
  h.tag = 8;
  tx.endpoint(0).send(1, h, x0, timer.seconds(), /*allow_drop=*/false);
  EXPECT_TRUE(worker.pump());  // the frame arrived
  EXPECT_FALSE(worker.pump());
  EXPECT_EQ(worker.steps(), 4u);
  EXPECT_EQ(worker.model(), x0);
  EXPECT_EQ(worker.frames_rejected(), 0u);
}

TEST(TrainNode, PerRankEntryReachesTargetAndStopsWorkers) {
  // One run_training_node per rank over a shared in-process transport —
  // the exact shape of the per-process deployment (tools/asyncit_node).
  const problems::LogisticConfig cfg = easy_config();
  constexpr std::size_t kWorkers = 3;
  train::TrainOptions options = base_options(train::Discipline::kTap);
  options.workers = kWorkers;
  // TAP workers gate on no clock, so a finite step budget can drain
  // before the server's stop frame arrives; make the budget unreachable
  // so the stop frame is what ends every worker.
  options.sgd.max_epochs = 1000000;

  const train::Dataset data = train::make_synthetic_dataset(cfg, 7);
  transport::InprocTransport transport(kWorkers + 1,
                                       options.chaos.delivery, options.seed);

  std::vector<train::TrainResult> results(kWorkers + 1);
  std::vector<std::thread> threads;
  for (std::uint32_t rank = 0; rank <= kWorkers; ++rank)
    threads.emplace_back([&, rank] {
      // Every rank rebuilds the dataset from the config, as a real node
      // process would.
      const train::Dataset local = train::make_synthetic_dataset(cfg, 7);
      results[rank] = train::run_training_node(
          local, la::zeros(local.features()), options,
          transport.endpoint(rank));
    });
  for (std::thread& th : threads) th.join();
  transport.flush(/*timeout_seconds=*/1.0);

  EXPECT_TRUE(results[0].converged);
  EXPECT_GE(results[0].final_accuracy, 0.95);
  for (std::uint32_t rank = 1; rank <= kWorkers; ++rank) {
    // The budget is generous, so the server's stop frame (not the local
    // step budget) ends each worker.
    EXPECT_TRUE(results[rank].converged) << "rank " << rank;
    ASSERT_EQ(results[rank].steps_per_worker.size(), 1u);
    EXPECT_GT(results[rank].steps_per_worker[0], 0u);
    // Only the server evaluates the final model.
    EXPECT_EQ(results[rank].final_loss, -1.0) << "rank " << rank;
    EXPECT_EQ(results[rank].final_accuracy, -1.0) << "rank " << rank;
  }
}

TEST(TrainNode, ZeroBatchWorkerThrowsCheckError) {
  // The worker's step budget divides by the batch size, so a worker rank
  // must refuse batch 0 before computing it (every node-mode worker and
  // every simnet train world start here).
  const train::Dataset data =
      train::make_synthetic_dataset(easy_config(), /*seed=*/7);
  train::TrainOptions options = base_options(train::Discipline::kTap);
  options.sgd.batch_size = 0;
  transport::InprocTransport transport(options.workers + 1,
                                       options.chaos.delivery, options.seed);
  EXPECT_THROW(train::run_training_node(data, la::zeros(data.features()),
                                        options, transport.endpoint(1)),
               CheckError);
  // The server refuses it too, so thread mode fails at once instead of
  // the server waiting out its wall budget for workers that never start.
  EXPECT_THROW(train::run_training_node(data, la::zeros(data.features()),
                                        options, transport.endpoint(0)),
               CheckError);
  EXPECT_THROW(train::run_training(data, la::zeros(data.features()), options),
               CheckError);
}

TEST(TrainThreads, MergedResultSumsEveryRankOverACallerTransport) {
  // Thread mode is W + 1 run_training_nodes plus a merge: the server's
  // result, every worker's steps and epochs, and the endpoint counters
  // of all W + 1 ranks.
  const train::Dataset data =
      train::make_synthetic_dataset(easy_config(), /*seed=*/7);
  const train::TrainOptions options = base_options(train::Discipline::kTap);
  const std::size_t W = options.workers;
  transport::InprocTransport fabric(W + 1, options.chaos.delivery,
                                    options.seed);
  const train::TrainResult r =
      train::run_training(data, la::zeros(data.features()), options, fabric);
  EXPECT_TRUE(r.converged);

  ASSERT_EQ(r.steps_per_worker.size(), W);
  std::uint64_t epochs = ~std::uint64_t{0};
  for (std::size_t w = 0; w < W; ++w)
    epochs = std::min<std::uint64_t>(
        epochs, r.steps_per_worker[w] * options.sgd.batch_size /
                    data.shard(w, W).size());
  EXPECT_EQ(r.epochs, epochs);

  std::uint64_t sent = 0, delivered = 0, dropped = 0;
  for (std::uint32_t rank = 0; rank <= W; ++rank) {
    sent += fabric.endpoint(rank).sent();
    delivered += fabric.endpoint(rank).delivered();
    dropped += fabric.endpoint(rank).dropped();
  }
  EXPECT_EQ(r.messages_sent, sent);
  EXPECT_EQ(r.messages_delivered, delivered);
  EXPECT_EQ(r.messages_dropped, dropped);

  // The one final evaluation is of the returned model.
  la::Vector margins(data.samples());
  const train::Eval eval = train::dataset_eval(data, r.x, margins);
  EXPECT_EQ(r.final_accuracy, eval.accuracy);
  EXPECT_EQ(r.final_loss, eval.loss);
}

TEST(TrainThreads, EveryStepEventNamesItsWorkerRank) {
  // Worker w runs as rank w + 1 and records one kTrainStep sub-0 event
  // per minibatch step: counted per stamped rank, those are its steps.
  // The server (rank 0) records none.
  const train::Dataset data =
      train::make_synthetic_dataset(easy_config(), /*seed=*/7);
  train::TrainOptions options = base_options(train::Discipline::kTap);
  options.obs.trace_level = obs::TraceLevel::kFull;
  options.obs.trace_ring_capacity = 1 << 16;
  const train::TrainResult r =
      train::run_training(data, la::zeros(data.features()), options);
  ASSERT_EQ(r.obs_events_dropped, 0u) << "a ring wrapped";
  std::vector<std::uint64_t> steps{0};
  steps.insert(steps.end(), r.steps_per_worker.begin(),
               r.steps_per_worker.end());
  EXPECT_EQ(count_per_rank(steps.size(), obs::EventType::kTrainStep, 0),
            steps);
}

TEST(TrainThreads, RoleExceptionIsRethrownAfterEveryThreadJoins) {
  // Worker rank 2 fails on its first receive. The run must join every
  // thread and rethrow instead of terminating the process.
  const train::Dataset data =
      train::make_synthetic_dataset(easy_config(), /*seed=*/7);
  train::TrainOptions options = base_options(train::Discipline::kTap);
  options.workers = 2;
  // The server waits for the failed worker's stop frame until its wall
  // budget runs out.
  options.sgd.max_seconds = 0.5;
  transport::InprocTransport inproc(options.workers + 1,
                                    options.chaos.delivery, options.seed);
  FailingTransport fabric(inproc, /*failing=*/2);
  EXPECT_THROW(train::run_training(data, la::zeros(data.features()), options,
                                   fabric),
               std::runtime_error);
}

}  // namespace
