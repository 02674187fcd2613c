#include "decorators.hpp"

#include <numeric>

#include "asyncit/support/check.hpp"
#include "asyncit/transport/wire.hpp"

namespace perfbench {

using namespace asyncit;

TimedOperator::TimedOperator(const op::BlockOperator& inner,
                             std::vector<std::uint64_t> block_nnz,
                             std::size_t ranks)
    : inner_(inner),
      block_nnz_(std::move(block_nnz)),
      ranks_(ranks),
      slots_(std::make_unique<OpCounters[]>(ranks + 1)) {
  ASYNCIT_CHECK(block_nnz_.size() == inner.num_blocks());
  total_nnz_ = std::accumulate(block_nnz_.begin(), block_nnz_.end(),
                               std::uint64_t{0});
}

OpCounters& TimedOperator::current() const {
  const int r = tl_rank;
  return slots_[r >= 0 && static_cast<std::size_t>(r) < ranks_
                    ? static_cast<std::size_t>(r)
                    : ranks_];
}

void TimedOperator::apply_block(la::BlockId b, std::span<const double> x,
                                std::span<double> out,
                                op::Workspace& ws) const {
  const std::uint64_t t0 = now_ns();
  inner_.apply_block(b, x, out, ws);
  const std::uint64_t t1 = now_ns();
  OpCounters& c = current();
  ++c.calls;
  c.ns += t1 - t0;
  c.nnz += block_nnz_[b];
  c.span.mark(t0, t1);
}

double TimedOperator::apply_block_residual(la::BlockId b,
                                           std::span<const double> x,
                                           std::span<double> out,
                                           op::Workspace& ws) const {
  const std::uint64_t t0 = now_ns();
  const double r = inner_.apply_block_residual(b, x, out, ws);
  const std::uint64_t t1 = now_ns();
  OpCounters& c = current();
  ++c.calls;
  c.ns += t1 - t0;
  c.nnz += block_nnz_[b];
  c.span.mark(t0, t1);
  return r;
}

void TimedOperator::apply(std::span<const double> x, std::span<double> y,
                          op::Workspace& ws) const {
  const std::uint64_t t0 = now_ns();
  inner_.apply(x, y, ws);
  const std::uint64_t t1 = now_ns();
  OpCounters& c = current();
  c.calls += num_blocks();
  c.ns += t1 - t0;
  c.nnz += total_nnz_;
  c.span.mark(t0, t1);
}

OpCounters TimedOperator::total() const {
  OpCounters t;
  for (std::size_t r = 0; r <= ranks_; ++r) {
    t.calls += slots_[r].calls;
    t.ns += slots_[r].ns;
    t.nnz += slots_[r].nnz;
    t.span.merge(slots_[r].span);
  }
  return t;
}

void TimedOperator::reset() {
  for (std::size_t r = 0; r <= ranks_; ++r) slots_[r] = OpCounters{};
}

void EndpointCounters::add(const EndpointCounters& o) {
  send_calls += o.send_calls;
  send_ns += o.send_ns;
  send_bytes += o.send_bytes;
  receive_calls += o.receive_calls;
  receive_msgs += o.receive_msgs;
  receive_ns += o.receive_ns;
  recycle_calls += o.recycle_calls;
  recycle_ns += o.recycle_ns;
  wait_calls += o.wait_calls;
  wait_ns += o.wait_ns;
}

transport::SendReceipt TimedEndpoint::send(
    std::uint32_t dst, const transport::MessageHeader& header,
    std::span<const double> value, double now, bool allow_drop) {
  const std::uint64_t t0 = tick();
  const transport::SendReceipt r =
      inner_.send(dst, header, value, now, allow_drop);
  const std::uint64_t t1 = tick();
  ++c_.send_calls;
  c_.send_ns += t1 - t0;
  c_.send_bytes += transport::wire_frame_bytes(value.size(), header.quant_bits);
  account(t0, t1);
  return r;
}

std::size_t TimedEndpoint::receive(double now,
                                   std::vector<net::Message>& out) {
  const std::uint64_t t0 = tick();
  const std::size_t n = inner_.receive(now, out);
  const std::uint64_t t1 = tick();
  ++c_.receive_calls;
  c_.receive_msgs += n;
  c_.receive_ns += t1 - t0;
  account(t0, t1);
  return n;
}

void TimedEndpoint::recycle(std::vector<net::Message>& consumed) {
  const std::uint64_t t0 = tick();
  inner_.recycle(consumed);
  const std::uint64_t t1 = tick();
  ++c_.recycle_calls;
  c_.recycle_ns += t1 - t0;
  account(t0, t1);
}

void TimedEndpoint::wait_for_activity(std::uint64_t seen,
                                      double timeout_seconds) {
  const std::uint64_t t0 = tick();
  inner_.wait_for_activity(seen, timeout_seconds);
  const std::uint64_t t1 = tick();
  ++c_.wait_calls;
  c_.wait_ns += t1 - t0;
  account(t0, t1);
}

TimedTransport::TimedTransport(transport::Transport& inner, bool clocked)
    : inner_(inner), endpoints_(inner.world()) {
  for (const std::uint32_t r : inner.local_ranks())
    endpoints_[r] = std::make_unique<TimedEndpoint>(inner.endpoint(r), clocked);
}

}  // namespace perfbench
