#include "asyncit/obs/trace_recorder.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <mutex>
#include <ostream>
#include <string>

#include "asyncit/obs/metrics.hpp"

namespace asyncit::obs {

const char* to_string(EventType t) {
  switch (t) {
    case EventType::kNone: return "none";
    case EventType::kBlockUpdate: return "block_update";
    case EventType::kFrameSend: return "frame_send";
    case EventType::kFrameRecv: return "frame_recv";
    case EventType::kFrameReject: return "frame_reject";
    case EventType::kFrameDrop: return "frame_drop";
    case EventType::kInversion: return "inversion";
    case EventType::kMembership: return "membership";
    case EventType::kProbe: return "probe";
    case EventType::kStopDecision: return "stop_decision";
    case EventType::kQueueDepth: return "queue_depth";
    case EventType::kRedial: return "redial";
    case EventType::kMarker: return "marker";
    case EventType::kTrainStep: return "train_step";
  }
  return "unknown";
}

const char* to_string(StopReason r) {
  switch (r) {
    case StopReason::kWallBudget: return "wall_budget";
    case StopReason::kUpdateBudget: return "update_budget";
    case StopReason::kOracle: return "oracle";
    case StopReason::kDisplacement: return "displacement";
    case StopReason::kPeerStop: return "peer_stop";
    case StopReason::kLiveViewDone: return "live_view_done";
  }
  return "unknown";
}

const char* to_string(TraceLevel level) {
  switch (level) {
    case TraceLevel::kOff: return "none";
    case TraceLevel::kMetrics: return "metrics";
    case TraceLevel::kFull: return "full";
  }
  return "unknown";
}

bool parse_trace_level(const char* text, TraceLevel* out) {
  const std::string s = text ? text : "";
  if (s == "none" || s == "off" || s == "0") {
    *out = TraceLevel::kOff;
  } else if (s == "metrics") {
    *out = TraceLevel::kMetrics;
  } else if (s == "full" || s == "trace") {
    *out = TraceLevel::kFull;
  } else {
    return false;
  }
  return true;
}

namespace detail {

std::atomic<int> g_level{0};

namespace {
constexpr std::size_t kWordsPerSlot = 4;

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::atomic<TraceClockFn> g_clock{nullptr};

/// The rank this thread's events name (ScopedRank).
thread_local std::uint16_t t_rank = 0;

/// The injectable raw source: steady_clock unless set_trace_clock()
/// installed something (virtual time under simnet).
std::uint64_t raw_now_ns() {
  const TraceClockFn fn = g_clock.load(std::memory_order_relaxed);
  return fn != nullptr ? fn() : steady_now_ns();
}

std::uint64_t pack_meta(EventType type, std::uint8_t sub, std::uint16_t rank,
                        std::uint32_t a) {
  return (std::uint64_t(static_cast<std::uint8_t>(type)) << 56) |
         (std::uint64_t(sub) << 48) | (std::uint64_t(rank) << 32) |
         std::uint64_t(a);
}
}  // namespace

/// Single-writer / multi-reader event ring. Slots are four atomic words
/// so concurrent reads of a slot being rewritten are races only in the
/// benign "value may be torn" sense, and the reader's lap check (below)
/// discards every slot that could have been torn.
class ThreadRing {
 public:
  explicit ThreadRing(std::size_t capacity)
      : capacity_(std::bit_ceil(capacity < 2 ? std::size_t{2} : capacity)),
        mask_(capacity_ - 1),
        words_(capacity_ * kWordsPerSlot) {}

  void push(std::uint64_t t_ns, EventType type, std::uint8_t sub,
            std::uint16_t rank, std::uint32_t a, std::uint64_t b, double v) {
    const std::uint64_t seq = head_.load(std::memory_order_relaxed);
    // Publishing seq + 1 moves an event out of read()'s window.
    if (seq - read_head_.load(std::memory_order_relaxed) >= capacity_ - 1)
      dropped_.fetch_add(1, std::memory_order_relaxed);
    std::atomic<std::uint64_t>* slot = &words_[(seq & mask_) * kWordsPerSlot];
    slot[0].store(t_ns, std::memory_order_relaxed);
    slot[1].store(pack_meta(type, sub, rank, a), std::memory_order_relaxed);
    slot[2].store(b, std::memory_order_relaxed);
    slot[3].store(std::bit_cast<std::uint64_t>(v), std::memory_order_relaxed);
    head_.store(seq + 1, std::memory_order_release);
  }

  /// Copies the readable window [read_from, head) — newest
  /// `capacity_ - 1` at most — validating against writer laps. The
  /// window is one short of capacity because a writer that has
  /// PUBLISHED head == s may already be rewriting slot (s & mask)
  /// before publishing s + 1: the slot `head - capacity_` is therefore
  /// never safely readable while the writer is live, and the lap check
  /// below must discard on >=, not >. When `advance` is set the read
  /// cursor moves to the head so those events stop counting as
  /// droppable. Returns events appended to `out`.
  std::size_t read(std::vector<Event>* out, bool advance,
                   std::size_t max_events = SIZE_MAX) {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    std::uint64_t begin = head > capacity_ - 1 ? head - (capacity_ - 1) : 0;
    if (advance) {
      // snapshot(): unread events only, so consecutive snapshots never
      // duplicate. dump() ignores the cursor — it wants the newest
      // window even if a snapshot already consumed it.
      begin = std::max(begin, read_head_.load(std::memory_order_relaxed));
    }
    if (head - begin > max_events) begin = head - max_events;
    std::size_t appended = 0;
    for (std::uint64_t seq = begin; seq < head; ++seq) {
      Event e;
      const std::atomic<std::uint64_t>* slot =
          &words_[(seq & mask_) * kWordsPerSlot];
      e.t_ns = slot[0].load(std::memory_order_relaxed);
      const std::uint64_t meta = slot[1].load(std::memory_order_relaxed);
      e.b = slot[2].load(std::memory_order_relaxed);
      e.v = std::bit_cast<double>(slot[3].load(std::memory_order_relaxed));
      e.type = static_cast<EventType>(meta >> 56);
      e.sub = static_cast<std::uint8_t>(meta >> 48);
      e.rank = static_cast<std::uint16_t>(meta >> 32);
      e.a = static_cast<std::uint32_t>(meta);
      // Lap check: the slot is reused by sequence seq + capacity_, and
      // the writer starts rewriting it as soon as head reaches that
      // value (the head store comes AFTER the slot stores), so any head
      // at or past seq + capacity_ means the copy above may be torn —
      // drop it rather than decode it. The acquire fence keeps the
      // relaxed slot loads from sinking below the re-check.
      std::atomic_thread_fence(std::memory_order_acquire);
      if (head_.load(std::memory_order_relaxed) >= seq + capacity_) continue;
      if (static_cast<std::uint8_t>(e.type) == 0 ||
          static_cast<std::uint8_t>(e.type) >= kNumEventTypes)
        continue;
      out->push_back(e);
      ++appended;
    }
    if (advance) {
      // Never move the cursor backwards (enable() resets it to 0).
      std::uint64_t cur = read_head_.load(std::memory_order_relaxed);
      while (cur < head && !read_head_.compare_exchange_weak(
                               cur, head, std::memory_order_relaxed)) {
      }
    }
    return appended;
  }

  void reset() {
    head_.store(0, std::memory_order_relaxed);
    read_head_.store(0, std::memory_order_relaxed);
    dropped_.store(0, std::memory_order_relaxed);
  }

  std::size_t capacity() const { return capacity_; }
  std::uint64_t recorded() const {
    return head_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  const std::size_t capacity_;
  const std::uint64_t mask_;
  std::vector<std::atomic<std::uint64_t>> words_;
  std::atomic<std::uint64_t> head_{0};       ///< next sequence to write
  std::atomic<std::uint64_t> read_head_{0};  ///< first unconsumed sequence
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace detail

struct TraceRecorder::Impl {
  std::mutex mu;  ///< guards registry/free_list (claim/release/reset only)
  std::vector<detail::ThreadRing*> rings;  ///< append-only, leaked at exit
  std::vector<detail::ThreadRing*> free_list;
  /// The armed run's per-thread capacity (read by writers: atomic).
  std::atomic<std::size_t> ring_capacity{4096};
};

/// Thread-local ring claim. The destructor returns the ring to the
/// recorder's free list so a later thread can reuse it (its recorded
/// events stay in place and remain part of the run's history).
struct TlsRingHandle {
  detail::ThreadRing* ring = nullptr;
  /// This thread's ring, claimed on first use and re-claimed when the
  /// armed run asks for more capacity than it has — the writer path's
  /// only heap activity.
  detail::ThreadRing* get(TraceRecorder& recorder) {
    if (ring == nullptr ||
        ring->capacity() <
            recorder.impl_->ring_capacity.load(std::memory_order_relaxed))
      ring = recorder.claim_ring(ring);
    return ring;
  }
  ~TlsRingHandle() {
    if (ring) TraceRecorder::instance().release_ring(ring);
  }
};

namespace {
thread_local TlsRingHandle t_ring;
}  // namespace

TraceRecorder& TraceRecorder::instance() {
  static TraceRecorder* recorder = new TraceRecorder();  // leaked: outlives
  return *recorder;                                      // late TLS dtors
}

TraceRecorder::TraceRecorder() : impl_(new Impl()) {}
TraceRecorder::~TraceRecorder() = default;

void TraceRecorder::enable(const TraceConfig& config) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->ring_capacity.store(config.ring_capacity, std::memory_order_relaxed);
  for (detail::ThreadRing* ring : impl_->rings) ring->reset();
  t0_steady_ns_ = detail::raw_now_ns();
  epoch_realtime_ns_ = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  detail::g_level.store(static_cast<int>(config.level),
                        std::memory_order_release);
}

void TraceRecorder::disable() {
  detail::g_level.store(static_cast<int>(TraceLevel::kOff),
                        std::memory_order_release);
}

std::uint64_t TraceRecorder::now_ns() const {
  return detail::raw_now_ns() - t0_steady_ns_;
}

void set_trace_clock(TraceClockFn fn) {
  detail::g_clock.store(fn, std::memory_order_relaxed);
}

TraceClockFn trace_clock() {
  return detail::g_clock.load(std::memory_order_relaxed);
}

ScopedRank::ScopedRank(std::uint32_t rank) : prev_(detail::t_rank) {
  detail::t_rank = static_cast<std::uint16_t>(rank);
}

ScopedRank::~ScopedRank() { detail::t_rank = prev_; }

ScopedTrace::ScopedTrace(TraceLevel level, std::size_t ring_capacity,
                         TraceClockFn clock)
    : armed_(level != TraceLevel::kOff), prev_clock_(trace_clock()) {
  if (!armed_) return;
  if (clock != nullptr) set_trace_clock(clock);
  TraceConfig tc;
  tc.level = level;
  tc.ring_capacity = ring_capacity;
  TraceRecorder::instance().enable(tc);
  MetricsRegistry::instance().reset();
}

ScopedTrace::~ScopedTrace() { disarm(); }

void ScopedTrace::disarm() {
  if (!armed_) return;
  armed_ = false;
  TraceRecorder::instance().disable();
  set_trace_clock(prev_clock_);
}

void ScopedTrace::stop(std::uint64_t& recorded, std::uint64_t& dropped) {
  if (!armed_) return;
  disarm();
  const RecorderStats stats = TraceRecorder::instance().stats();
  recorded = stats.recorded;
  dropped = stats.dropped;
}

detail::ThreadRing* TraceRecorder::claim_ring(detail::ThreadRing* held) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<detail::ThreadRing*>& free = impl_->free_list;
  if (held != nullptr) free.push_back(held);
  // A free ring smaller than the armed run asks for stays free.
  const std::size_t capacity =
      impl_->ring_capacity.load(std::memory_order_relaxed);
  const auto fit = std::find_if(free.begin(), free.end(), [&](auto* ring) {
    return ring->capacity() >= capacity;
  });
  if (fit == free.end())
    return impl_->rings.emplace_back(new detail::ThreadRing(capacity));
  detail::ThreadRing* ring = *fit;
  free.erase(fit);
  return ring;
}

void TraceRecorder::release_ring(detail::ThreadRing* ring) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->free_list.push_back(ring);
}

void TraceRecorder::push(EventType type, std::uint8_t sub, std::uint32_t a,
                         std::uint64_t b, double v) {
  t_ring.get(*this)->push(now_ns(), type, sub, detail::t_rank, a, b, v);
}

void TraceRecorder::push_phase_end(EventType type, std::uint8_t sub,
                                   std::uint32_t a, std::uint64_t b,
                                   std::uint64_t t0_ns) {
  detail::ThreadRing* ring = t_ring.get(*this);
  const std::uint64_t now = now_ns();
  ring->push(now, type, sub, detail::t_rank, a, b,
             static_cast<double>(now - t0_ns) * 1e-9);
}

std::size_t TraceRecorder::snapshot(std::vector<Event>* out) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::size_t total = 0;
  for (detail::ThreadRing* ring : impl_->rings)
    total += ring->read(out, /*advance=*/true);
  return total;
}

RecorderStats TraceRecorder::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  RecorderStats s;
  for (const detail::ThreadRing* ring : impl_->rings) {
    const std::uint64_t n = ring->recorded();
    if (n == 0) continue;
    ++s.rings;
    s.recorded += n;
    s.dropped += ring->dropped();
  }
  return s;
}

void TraceRecorder::dump(std::ostream& os, std::size_t max_per_ring) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  os << "obs::TraceRecorder dump (" << impl_->rings.size() << " rings)\n";
  std::size_t index = 0;
  std::vector<Event> events;
  for (detail::ThreadRing* ring : impl_->rings) {
    events.clear();
    ring->read(&events, /*advance=*/false, max_per_ring);
    os << "  ring " << index++ << ": recorded=" << ring->recorded()
       << " dropped=" << ring->dropped() << '\n';
    for (const Event& e : events) {
      os << "    t=" << double(e.t_ns) * 1e-9 << "s " << to_string(e.type)
         << " sub=" << unsigned(e.sub) << " rank=" << e.rank << " a=" << e.a
         << " b=" << e.b << " v=" << e.v << '\n';
    }
  }
}

}  // namespace asyncit::obs
