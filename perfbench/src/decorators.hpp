// Timing decorators for the two seams every runtime calls through.
//
// TimedOperator wraps an op::BlockOperator (the operators layer, which
// calls into the linalg kernels); TimedTransport wraps a
// transport::Transport and hands out TimedEndpoints. Both forward every
// call unchanged and only accumulate call counts and steady-clock
// nanoseconds around the inner call, so a decorated run executes exactly
// the arithmetic and message schedule of an undecorated one.
//
// Attribution: a TimedEndpoint stamps the calling thread with its rank
// (thread_local) on return from every call, and TimedOperator charges
// each call to the rank its thread last stamped.
// Under the Endpoint threading contract one thread drives one rank, so
// every counter slot has exactly one writer and the call path takes no
// lock, uses no read-modify-write atomics, and allocates nothing. Threads
// that drive no decorated endpoint (the simnet engine thread) share the
// spare slot `ranks`; the benchmark makes such calls from one thread at a
// time. Counters are read only after the run has joined its threads.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "asyncit/operators/operator.hpp"
#include "asyncit/transport/transport.hpp"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Rank whose endpoint the calling thread last used; -1 before any.
inline thread_local int tl_rank = -1;

/// First-to-last call interval of one rank's thread, as seen by the
/// decorators — the "peer-thread time" the layer terms must sum to.
struct Span {
  std::uint64_t first_ns = 0;
  std::uint64_t last_ns = 0;

  void mark(std::uint64_t t0, std::uint64_t t1) {
    if (first_ns == 0) first_ns = t0;
    last_ns = t1;
  }
  void merge(const Span& o) {
    if (o.first_ns == 0) return;
    if (first_ns == 0 || o.first_ns < first_ns) first_ns = o.first_ns;
    if (o.last_ns > last_ns) last_ns = o.last_ns;
  }
  double seconds() const { return first_ns == 0 ? 0.0 : 1e-9 * double(last_ns - first_ns); }
};

struct alignas(64) OpCounters {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
  std::uint64_t nnz = 0;
  Span span;
};

class TimedOperator final : public asyncit::op::BlockOperator {
 public:
  /// `block_nnz[b]` is the matrix nonzeros block b's update reads (for
  /// ns-per-nnz); `ranks` sizes the per-rank counter slots.
  TimedOperator(const asyncit::op::BlockOperator& inner,
                std::vector<std::uint64_t> block_nnz, std::size_t ranks);

  const asyncit::la::Partition& partition() const override {
    return inner_.partition();
  }
  using BlockOperator::apply;
  using BlockOperator::apply_block;
  void apply_block(asyncit::la::BlockId b, std::span<const double> x,
                   std::span<double> out,
                   asyncit::op::Workspace& ws) const override;
  double apply_block_residual(asyncit::la::BlockId b,
                              std::span<const double> x,
                              std::span<double> out,
                              asyncit::op::Workspace& ws) const override;
  void apply(std::span<const double> x, std::span<double> y,
             asyncit::op::Workspace& ws) const override;
  std::string name() const override { return inner_.name(); }

  /// Slot of rank r; slot `ranks` holds unattributed calls.
  const OpCounters& slot(std::size_t r) const { return slots_[r]; }
  OpCounters total() const;
  void reset();

 private:
  OpCounters& current() const;

  const asyncit::op::BlockOperator& inner_;
  std::vector<std::uint64_t> block_nnz_;
  std::uint64_t total_nnz_ = 0;
  std::size_t ranks_;
  std::unique_ptr<OpCounters[]> slots_;
};

struct EndpointCounters {
  std::uint64_t send_calls = 0;
  std::uint64_t send_ns = 0;
  std::uint64_t send_bytes = 0;  ///< transport::wire_frame_bytes per send
  std::uint64_t receive_calls = 0;
  std::uint64_t receive_msgs = 0;
  std::uint64_t receive_ns = 0;
  std::uint64_t recycle_calls = 0;
  std::uint64_t recycle_ns = 0;
  std::uint64_t wait_calls = 0;
  std::uint64_t wait_ns = 0;
  Span span;

  std::uint64_t busy_ns() const { return send_ns + receive_ns + recycle_ns; }
  void add(const EndpointCounters& o);
};

class TimedEndpoint final : public asyncit::transport::Endpoint {
 public:
  TimedEndpoint(asyncit::transport::Endpoint& inner, bool clocked)
      : inner_(inner), rank_(static_cast<int>(inner.rank())), clocked_(clocked) {}

  std::uint32_t rank() const override { return inner_.rank(); }
  asyncit::transport::SendReceipt send(
      std::uint32_t dst, const asyncit::transport::MessageHeader& header,
      std::span<const double> value, double now, bool allow_drop) override;
  std::size_t receive(double now,
                      std::vector<asyncit::net::Message>& out) override;
  void recycle(std::vector<asyncit::net::Message>& consumed) override;
  std::uint64_t activity() const override { return inner_.activity(); }
  void wait_for_activity(std::uint64_t seen,
                         double timeout_seconds) override;
  double next_delivery() const override { return inner_.next_delivery(); }
  std::uint64_t sent() const override { return inner_.sent(); }
  std::uint64_t dropped() const override { return inner_.dropped(); }
  std::uint64_t delivered() const override { return inner_.delivered(); }
  asyncit::net::DelayHistogram delays() const override {
    return inner_.delays();
  }

  const EndpointCounters& counters() const { return c_; }

 private:
  std::uint64_t tick() const { return clocked_ ? now_ns() : 0; }
  void account(std::uint64_t t0, std::uint64_t t1) {
    tl_rank = rank_;
    if (clocked_) c_.span.mark(t0, t1);
  }

  asyncit::transport::Endpoint& inner_;
  int rank_;
  bool clocked_;  ///< false: count calls and bytes only, no clock reads
  EndpointCounters c_;
};

class TimedTransport final : public asyncit::transport::Transport {
 public:
  /// Decorates `inner` (not owned; must outlive this object).
  TimedTransport(asyncit::transport::Transport& inner, bool clocked);

  std::size_t world() const override { return inner_.world(); }
  std::vector<std::uint32_t> local_ranks() const override {
    return inner_.local_ranks();
  }
  asyncit::transport::Endpoint& endpoint(std::uint32_t rank) override {
    return *endpoints_[rank];
  }
  const char* backend() const override { return inner_.backend(); }
  void flush(double timeout_seconds) override { inner_.flush(timeout_seconds); }
  std::uint64_t bad_frames() const override { return inner_.bad_frames(); }

  const TimedEndpoint& timed(std::uint32_t rank) const {
    return *endpoints_[rank];
  }

 private:
  asyncit::transport::Transport& inner_;
  std::vector<std::unique_ptr<TimedEndpoint>> endpoints_;  ///< by rank
};

}  // namespace perfbench
