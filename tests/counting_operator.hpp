// A block operator that forwards to another, counting the calls per
// block, and that can throw from chosen blocks: the tests of the callers
// that run blocks on threads of their own use it.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "asyncit/operators/operator.hpp"

namespace asyncit::op {

/// Forwards every block to `inner` and counts the calls per block. The
/// blocks in `failing` throw on their `fail_on`-th call.
class CountingOperator final : public BlockOperator {
 public:
  explicit CountingOperator(const BlockOperator& inner,
                            std::vector<la::BlockId> failing = {},
                            std::size_t fail_on = 0)
      : inner_(inner),
        calls_(inner.num_blocks()),
        caller_(std::this_thread::get_id()),
        failing_(std::move(failing)),
        fail_on_(fail_on) {}

  const la::Partition& partition() const override {
    return inner_.partition();
  }
  using BlockOperator::apply_block;
  void apply_block(la::BlockId b, std::span<const double> x,
                   std::span<double> out, Workspace& ws) const override {
    const std::size_t call = calls_[b].fetch_add(1) + 1;
    if (std::this_thread::get_id() != caller_) off_caller_ = true;
    if (call == fail_on_ && std::ranges::find(failing_, b) != failing_.end())
      throw std::runtime_error("block " + std::to_string(b) + " sweep " +
                               std::to_string(call));
    inner_.apply_block(b, x, out, ws);
  }
  std::string name() const override { return "counting"; }

  std::size_t calls(la::BlockId b) const { return calls_[b].load(); }
  std::size_t total_calls() const {
    std::size_t n = 0;
    for (const auto& c : calls_) n += c.load();
    return n;
  }
  /// Whether some block ran on a thread other than the constructing one.
  bool left_the_caller() const { return off_caller_.load(); }

 private:
  const BlockOperator& inner_;
  mutable std::vector<std::atomic<std::size_t>> calls_;
  mutable std::atomic<bool> off_caller_{false};
  std::thread::id caller_;
  std::vector<la::BlockId> failing_;
  std::size_t fail_on_;
};

}  // namespace asyncit::op
