#include "asyncit/train/psgd.hpp"

#include <algorithm>

#include "asyncit/obs/metrics.hpp"
#include "asyncit/obs/trace_recorder.hpp"
#include "asyncit/support/check.hpp"

namespace asyncit::train {

namespace {

/// Per-worker minibatch step budget for the configured epoch budget.
std::uint64_t step_budget_for(const SgdOptions& sgd, std::size_t shard_rows) {
  const std::uint64_t per_epoch =
      (shard_rows + sgd.batch_size - 1) / sgd.batch_size;
  return std::max<std::uint64_t>(1, sgd.max_epochs * per_epoch);
}

}  // namespace

Rng worker_stream(std::uint64_t seed, std::size_t w) {
  // One base stream per run; children split off in worker order, so the
  // serial oracle and the distributed run draw identical batch
  // sequences (splitmix64 seeding keeps the children independent).
  Rng base(seed ^ 0x747261696e5347ULL);  // "trainSG"
  Rng child = base.split();
  for (std::size_t i = 0; i < w; ++i) child = base.split();
  return child;
}

// ---------------------------------------------------------------------------
// PsgdServer

PsgdServer::PsgdServer(const PsgdContext& ctx, const la::Vector& x0,
                       transport::Endpoint& endpoint)
    : ctx_(ctx),
      endpoint_(&endpoint),
      x_(x0),
      margins_(ctx.data->samples()),
      clock_(ctx.options->workers) {
  ASYNCIT_CHECK(endpoint.rank() == 0);
  const std::size_t W = workers();
  const std::size_t n = ctx_.data->features();
  ASYNCIT_CHECK(W >= 1 && x_.size() == n);
  if (ctx_.options->sgd.discipline == Discipline::kBsp) {
    pending_.assign(W * n, 0.0);
    pending_span_.assign(W, DeltaSpan{});
    pending_full_.assign(W, 0);
  }
  worker_stopped_.assign(W, 0);
  reply_owed_.assign(W, 0);
  inbox_.reserve(4 * W);
  // Cached registry handles: find-or-create once here so the hot path
  // never rebuilds the name strings (the zero-alloc discipline).
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  m_deltas_ = &reg.counter("train.deltas_applied");
  m_loss_ = &reg.gauge("train.loss");
  m_accuracy_ = &reg.gauge("train.accuracy");
  next_eval_ = std::max<std::uint64_t>(1, ctx_.options->sgd.eval_every);
}

void PsgdServer::apply_delta(std::span<const double> payload,
                             std::uint32_t offset, double factor) {
  for (std::size_t i = 0; i < payload.size(); ++i)
    x_[offset + i] += factor * payload[i];
}

bool PsgdServer::send_params(std::uint32_t dst) {
  transport::MessageHeader h;
  h.block = 0;
  h.tag = version_;
  h.round = ctx_.options->sgd.discipline == Discipline::kBsp ? bsp_round_
                                                             : rounds_seen_;
  const bool tap = ctx_.options->sgd.discipline == Discipline::kTap;
  return transport::send_traced(*endpoint_, dst, h, x_, now(),
                                /*allow_drop=*/tap)
      .sent;
}

void PsgdServer::broadcast_params() {
  const std::size_t W = workers();
  for (std::size_t w = 0; w < W; ++w)
    if (!worker_stopped_[w]) send_params(static_cast<std::uint32_t>(w + 1));
}

void PsgdServer::maybe_eval() {
  const SgdOptions& sgd = ctx_.options->sgd;
  const std::uint64_t progress =
      sgd.discipline == Discipline::kBsp ? bsp_round_ : deltas_applied_;
  if (progress < next_eval_) return;
  next_eval_ = progress + std::max<std::uint64_t>(1, sgd.eval_every);
  const Eval eval = dataset_eval(*ctx_.data, x_, margins_);
  ++evaluations_;
  last_loss_ = eval.loss;
  last_accuracy_ = eval.accuracy;
  m_loss_->set(last_loss_);
  m_accuracy_->set(last_accuracy_);
  obs::record(obs::EventType::kTrainStep, 2,
              static_cast<std::uint32_t>(rounds()), deltas_applied_,
              last_accuracy_);
  if (sgd.target_accuracy > 0.0 && last_accuracy_ >= sgd.target_accuracy) {
    target_reached_ = true;
    finish(/*broadcast_stop=*/true);
  }
}

void PsgdServer::fold(const net::Message& m) {
  apply_delta(m.value, m.offset, 1.0);
  ++version_;
  ++deltas_applied_;
  examples_ += ctx_.options->sgd.batch_size;
  obs::record(obs::EventType::kTrainStep, 1, m.src, version_, 1.0);
  m_deltas_->add();
}

void PsgdServer::handle(const net::Message& m) {
  const std::size_t W = workers();
  const std::size_t n = ctx_.data->features();
  if (m.src < 1 || m.src > W) {
    ++frames_rejected_;
    obs::record(obs::EventType::kFrameReject,
                static_cast<std::uint8_t>(m.kind), m.src, m.block, 0.0);
    return;
  }
  const std::size_t w = m.src - 1;
  if (m.kind == net::MsgKind::kStop) {
    if (!worker_stopped_[w]) {
      worker_stopped_[w] = 1;
      ++workers_stopped_;
      clock_.deactivate(w);
    }
    return;
  }
  if (m.kind != net::MsgKind::kValue || m.block != 0 || m.offset > n ||
      m.value.size() > n - m.offset) {
    ++frames_rejected_;
    obs::record(obs::EventType::kFrameReject,
                static_cast<std::uint8_t>(m.kind), m.src, m.block, 0.0);
    return;
  }

  clock_.advance(w, m.round + 1);
  if (clock_.active() > 0)
    rounds_seen_ = std::max(rounds_seen_, clock_.min_active());
  switch (ctx_.options->sgd.discipline) {
    case Discipline::kBsp: {
      // Buffer until the barrier; applied in rank order by
      // apply_bsp_round_if_complete (factorDelta = 1/W averaging).
      double* row = pending_.data() + w * n;
      const DeltaSpan old = pending_span_[w];
      std::fill(row + old.offset, row + old.offset + old.count, 0.0);
      std::copy(m.value.begin(), m.value.end(), row + m.offset);
      pending_span_[w] = {m.offset,
                          static_cast<std::uint32_t>(m.value.size())};
      pending_full_[w] = 1;
      break;
    }
    case Discipline::kTap:
      // Any delta advances the model (Theorem 1's totally asynchronous
      // regime); the sender is owed the parameters, sent after the drain.
      fold(m);
      reply_owed_[w] = 1;
      break;
    case Discipline::kSsp:
      // Fold immediately; publish() broadcasts after the drain.
      fold(m);
      break;
  }
}

void PsgdServer::publish(std::uint64_t prev_min) {
  const std::size_t W = workers();
  switch (ctx_.options->sgd.discipline) {
    case Discipline::kBsp:
      apply_bsp_round_if_complete();
      break;
    case Discipline::kTap:
      // One frame per drain to each live worker that had a delta folded,
      // carrying the newest version. A reply the link dropped stays owed
      // and goes again after the next drain: a worker at its window
      // waits for it.
      for (std::size_t w = 0; w < W; ++w)
        reply_owed_[w] =
            reply_owed_[w] && !worker_stopped_[w] &&
            !send_params(static_cast<std::uint32_t>(w + 1));
      break;
    case Discipline::kSsp:
      // The slowest active worker advanced, so gated workers can re-check
      // clock <= round + staleness.
      if (clock_.active() > 0 && clock_.min_active() > prev_min)
        broadcast_params();
      break;
  }
}

void PsgdServer::apply_bsp_round_if_complete() {
  const std::size_t W = workers();
  const std::size_t n = ctx_.data->features();
  for (std::size_t w = 0; w < W; ++w)
    if (!worker_stopped_[w] && !pending_full_[w]) return;  // barrier open
  bool any = false;
  for (std::size_t w = 0; w < W; ++w)
    if (pending_full_[w]) { any = true; break; }
  if (!any) return;
  // factorDelta = 1/W over the FULL worker count (yxtj/PSGD bspInit):
  // rank-order application makes the float sum bit-reproducible against
  // the serial oracle.
  const double factor = 1.0 / static_cast<double>(W);
  const SgdOptions& sgd = ctx_.options->sgd;
  for (std::size_t w = 0; w < W; ++w) {
    if (!pending_full_[w]) continue;
    double* row = pending_.data() + w * n;
    const DeltaSpan s = pending_span_[w];
    apply_delta({row + s.offset, s.count}, s.offset, factor);
    std::fill(row + s.offset, row + s.offset + s.count, 0.0);
    pending_span_[w] = {0, 0};
    pending_full_[w] = 0;
    ++deltas_applied_;
    examples_ += sgd.batch_size;
    obs::record(obs::EventType::kTrainStep, 1,
                static_cast<std::uint32_t>(w + 1), version_ + 1, factor);
    m_deltas_->add();
  }
  ++bsp_round_;
  ++version_;
  broadcast_params();
}

void PsgdServer::finish(bool broadcast_stop) {
  if (broadcast_stop && !stop_broadcast_) {
    transport::MessageHeader h;
    h.kind = net::MsgKind::kStop;
    const std::size_t W = workers();
    const double t = now();
    for (std::size_t w = 0; w < W; ++w)
      if (!worker_stopped_[w])
        transport::send_traced(*endpoint_, static_cast<std::uint32_t>(w + 1),
                               h, {}, t, /*allow_drop=*/false);
    stop_broadcast_ = true;
  }
  finished_ = true;
}

bool PsgdServer::pump() {
  if (finished_) return false;
  const double t = now();
  const std::uint64_t prev_min =
      clock_.active() > 0 ? clock_.min_active() : 0;

  // Per delta: validate and fold. Per drain: publish, then evaluate.
  const std::size_t got = endpoint_->receive(t, inbox_);
  for (const net::Message& m : inbox_) handle(m);
  if (got > 0) endpoint_->recycle(inbox_);
  publish(prev_min);
  maybe_eval();
  if (finished_) return true;

  if (t > ctx_.options->sgd.max_seconds) {
    finish(/*broadcast_stop=*/true);
    return true;
  }
  if (workers_stopped_ == workers()) {
    finish(/*broadcast_stop=*/false);
    return true;
  }
  return got > 0;
}

// ---------------------------------------------------------------------------
// PsgdWorker

PsgdWorker::PsgdWorker(const PsgdContext& ctx, std::size_t w,
                       const la::Vector& x0, transport::Endpoint& endpoint)
    : ctx_(ctx),
      w_(w),
      endpoint_(&endpoint),
      shard_(ctx.data->shard(w, ctx.options->workers)),
      rng_(worker_stream(ctx.options->seed, w)),
      x_(x0),
      delta_(la::zeros(ctx.data->features())) {
  ASYNCIT_CHECK(endpoint.rank() == w + 1);
  ASYNCIT_CHECK(shard_.size() >= 1);
  ASYNCIT_CHECK_MSG(ctx_.options->sgd.batch_size >= 1,
                    "batch_size must be >= 1");
  ASYNCIT_CHECK(x_.size() == ctx_.data->features());
  step_budget_ = step_budget_for(ctx_.options->sgd, shard_.size());
  inbox_.reserve(8);
  m_steps_ = &obs::MetricsRegistry::instance().counter("train.worker_steps");
}

bool PsgdWorker::drain() {
  const std::size_t n = ctx_.data->features();
  const std::size_t got = endpoint_->receive(now(), inbox_);
  for (const net::Message& m : inbox_) {
    if (m.kind == net::MsgKind::kStop) {
      stopped_by_server_ = true;
      finished_ = true;
      continue;
    }
    if (m.kind != net::MsgKind::kValue || m.src != 0 || m.block != 0 ||
        m.partial || m.offset != 0 || m.value.size() != n) {
      ++frames_rejected_;
      obs::record(obs::EventType::kFrameReject,
                  static_cast<std::uint8_t>(m.kind), m.src, m.block, 0.0);
      continue;
    }
    unanswered_ = 0;  // the server drained since those deltas left
    if (m.tag > param_version_) {
      param_version_ = m.tag;
      std::copy(m.value.begin(), m.value.end(), x_.begin());
    }
    if (m.round > server_round_) server_round_ = m.round;
  }
  if (got > 0) endpoint_->recycle(inbox_);
  return got > 0;
}

bool PsgdWorker::admissible() const {
  switch (ctx_.options->sgd.discipline) {
    case Discipline::kBsp:
      // Step c needs the round-c parameters (== x after round c-1).
      return server_round_ >= steps_;
    case Discipline::kSsp:
      // The bounded-staleness rule on the last published min clock.
      return steps_ <= server_round_ + ctx_.options->sgd.staleness;
    case Discipline::kTap:
      // No clock gate; flow control only (kTapWindow).
      return unanswered_ < kTapWindow;
  }
  return true;
}

void PsgdWorker::step() {
  const SgdOptions& sgd = ctx_.options->sgd;
  const bool traced = obs::tracing_full();
  const std::uint64_t t0 = traced ? obs::phase_start_ns() : 0;
  const DeltaSpan span =
      sgd_minibatch_delta(*ctx_.data, shard_, sgd.batch_size,
                          sgd.learning_rate, x_, rng_, delta_);
  transport::MessageHeader h;
  h.block = 0;
  h.tag = ++send_seq_;
  h.round = steps_;  // the clock this delta was computed at
  h.partial = true;
  h.offset = span.offset;
  const bool tap = sgd.discipline == Discipline::kTap;
  const transport::SendReceipt receipt = transport::send_traced(
      *endpoint_, 0, h,
      std::span<const double>(delta_.data() + span.offset, span.count),
      now(), /*allow_drop=*/tap);
  // A delta the link dropped never reaches the server, so no reply will
  // answer it.
  if (receipt.sent) ++unanswered_;
  if (sgd.discipline != Discipline::kBsp) {
    // Keep making progress on the local copy until the next published
    // version replaces it wholesale (the server folds this same delta
    // with factor 1, so nothing is counted twice).
    for (std::size_t i = span.offset; i < span.offset + span.count; ++i)
      x_[i] += delta_[i];
  }
  ++steps_;
  m_steps_->add();
  if (traced)
    obs::record_phase_end(obs::EventType::kTrainStep, 0,
                          static_cast<std::uint32_t>(steps_),
                          sgd.batch_size, t0);
}

void PsgdWorker::finish(bool notify_server) {
  if (notify_server) {
    transport::MessageHeader h;
    h.kind = net::MsgKind::kStop;
    transport::send_traced(*endpoint_, 0, h, {}, now(), /*allow_drop=*/false);
  }
  finished_ = true;
}

bool PsgdWorker::pump() {
  if (finished_) return false;
  const bool got = drain();
  if (finished_) return true;  // server stop frame
  if (now() > ctx_.options->sgd.max_seconds) {
    finish(/*notify_server=*/true);
    return true;
  }
  if (steps_ >= step_budget_) {
    finish(/*notify_server=*/true);
    return true;
  }
  if (!admissible()) return got;
  step();
  return true;
}

}  // namespace asyncit::train
