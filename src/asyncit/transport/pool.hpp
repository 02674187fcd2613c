// Recycling pools for the messaging hot path.
//
// Same discipline as op::Workspace, applied to what travels: every sent
// payload borrows a net::Message whose value vector keeps its capacity
// across trips, and every TCP frame borrows a byte buffer that the writer
// thread hands back after the socket write. After warm-up the pools reach
// the high-water mark of the traffic and the steady-state send/receive
// path performs zero heap allocations (pinned by tests/alloc_test.cpp).
//
// Unlike op::Workspace these pools ARE thread-safe (mutex-protected):
// a sender borrows from the pool that the receiver later recycles into
// (inproc posts into the destination's pool; TCP readers and peer threads
// share the endpoint's pool), so borrow and return can happen on
// different threads. The flows balance by construction — inproc senders
// acquire from the destination station that drains the message, and TCP
// acquire/recycle are both endpoint-local — so pools neither leak nor
// grow without bound.
#pragma once

#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "asyncit/net/channel.hpp"

namespace asyncit::transport {

/// Pool of net::Message shells. acquire() hands back a message whose
/// value vector retains the capacity of its previous trip (fill with
/// assign(); no allocation once capacity suffices). The pool starts empty
/// and grows to its traffic's high-water mark during warm-up.
class MessagePool {
 public:
  MessagePool() = default;

  MessagePool(const MessagePool&) = delete;
  MessagePool& operator=(const MessagePool&) = delete;

  net::Message acquire() {
    std::lock_guard<std::mutex> lock(mu_);
    if (pool_.empty()) return net::Message{};
    net::Message m = std::move(pool_.back());
    pool_.pop_back();
    return m;
  }

  void recycle(net::Message m) {
    // A capacity-less shell (its value was moved elsewhere, e.g. into a
    // BSP holdback buffer) would poison the pool: the next acquire would
    // have to allocate. Let it die instead.
    if (m.value.capacity() == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    pool_.push_back(std::move(m));
  }

  /// Recycles a drained batch under one lock (shells dropped as above)
  /// and leaves `batch` empty.
  void recycle(std::vector<net::Message>& batch) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (net::Message& m : batch)
        if (m.value.capacity() != 0) pool_.push_back(std::move(m));
    }
    batch.clear();
  }

  std::size_t pooled() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pool_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<net::Message> pool_;
};

/// Pool of byte buffers (wire frames). Senders encode into a borrowed
/// frame; the writer thread recycles it after the socket write. Starts
/// empty, like MessagePool.
class BytePool {
 public:
  BytePool() = default;

  BytePool(const BytePool&) = delete;
  BytePool& operator=(const BytePool&) = delete;

  std::vector<std::uint8_t> acquire() {
    std::lock_guard<std::mutex> lock(mu_);
    if (pool_.empty()) return {};
    std::vector<std::uint8_t> b = std::move(pool_.back());
    pool_.pop_back();
    return b;
  }

  void recycle(std::vector<std::uint8_t> b) {
    if (b.capacity() == 0) return;
    b.clear();
    std::lock_guard<std::mutex> lock(mu_);
    pool_.push_back(std::move(b));
  }

  std::size_t pooled() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pool_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::vector<std::uint8_t>> pool_;
};

}  // namespace asyncit::transport
