// Tests for the simnet/ virtual-time subsystem: engine dispatch order and
// byte-identical determinism, fiber time semantics (charge / advance /
// wait_until / wake), the fibers themselves (per-fiber FP control state,
// stacks reused across engines behind their guard pages), the WAN topology model behind SimTransport
// (latency, regions, asymmetry, fifo floors, partition windows, seeded
// drops), cross-backend parity against inproc, the obs trace-clock
// injection hook, and whole simulated worlds: the chaos convergence tests
// re-run over virtual time with NO wall-clock budget (the real-socket
// originals in transport_test/net_test stay as wall-time canaries), SWIM
// membership over virtual time, virtual solve budgets, partition/heal
// scenarios, and the PSGD train stack over run_train_world.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfenv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "asyncit/linalg/norms.hpp"
#include "asyncit/linalg/simd_dispatch.hpp"
#include "asyncit/net/mp_runtime.hpp"
#include "asyncit/net/node_runtime.hpp"
#include "asyncit/obs/trace_recorder.hpp"
#include "asyncit/operators/gradient.hpp"
#include "asyncit/operators/jacobi.hpp"
#include "asyncit/problems/linear_system.hpp"
#include "asyncit/problems/quadratic.hpp"
#include "asyncit/simnet/engine.hpp"
#include "asyncit/simnet/transport.hpp"
#include "asyncit/simnet/world.hpp"
#include "asyncit/support/rng.hpp"
#include "asyncit/train/dataset.hpp"
#include "asyncit/train/train.hpp"
#include "asyncit/transport/chaos.hpp"
#include "asyncit/transport/inproc.hpp"
#include "trace_counts.hpp"

namespace asyncit::simnet {
namespace {

// ----------------------------------------------------------------- engine

TEST(SimEngine, DispatchOrdersByVirtualTimeNotSpawnOrder) {
  SimEngine eng;
  std::vector<std::pair<std::uint32_t, double>> order;
  // Spawned 0,1,2 but sleeping 3s, 1s, 2s: resume order must be 1,2,0.
  eng.spawn(0, [&] { eng.advance(3.0); order.emplace_back(0, eng.now()); });
  eng.spawn(1, [&] { eng.advance(1.0); order.emplace_back(1, eng.now()); });
  eng.spawn(2, [&] { eng.advance(2.0); order.emplace_back(2, eng.now()); });
  eng.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], (std::pair<std::uint32_t, double>{1, 1.0}));
  EXPECT_EQ(order[1], (std::pair<std::uint32_t, double>{2, 2.0}));
  EXPECT_EQ(order[2], (std::pair<std::uint32_t, double>{0, 3.0}));
  EXPECT_EQ(eng.events_dispatched(), 6u);  // 3 spawns + 3 resumes
}

TEST(SimEngine, EqualTimesTieBreakInPushOrder) {
  SimEngine eng;
  std::vector<std::uint32_t> order;
  for (std::uint32_t r = 0; r < 4; ++r)
    eng.spawn(r, [&, r] {
      order.push_back(r);        // spawn slice, t = 0
      eng.advance(1.0);          // all resume at exactly t = 1
      order.push_back(r + 10);
    });
  eng.run();
  const std::vector<std::uint32_t> expect = {0, 1, 2, 3, 10, 11, 12, 13};
  EXPECT_EQ(order, expect);
}

TEST(SimEngine, ChargeAccruesCostWithoutYielding) {
  SimEngine eng;
  double t_mid = -1.0, t_end = -1.0;
  eng.spawn(0, [&] {
    eng.charge(0.25);
    t_mid = eng.now();  // accrued, no yield
    eng.advance(0.25);  // resumes at accrued + dt
    t_end = eng.now();
  });
  eng.run();
  EXPECT_DOUBLE_EQ(t_mid, 0.25);
  EXPECT_DOUBLE_EQ(t_end, 0.5);
}

TEST(SimEngine, WakeCutsAWaitShortAndRecordsTheWaker) {
  SimEngine::Options opts;
  opts.record_log = true;
  SimEngine eng(opts);
  double woke_at = -1.0;
  eng.spawn(0, [&] {
    eng.wait_until(10.0);
    woke_at = eng.now();
  });
  eng.spawn(1, [&] {
    eng.advance(2.0);
    eng.wake(0, eng.now() + 0.5, /*aux=*/1);
  });
  eng.run();
  EXPECT_DOUBLE_EQ(woke_at, 2.5);  // wake time, not the 10s deadline
  bool saw_wake = false;
  for (const EventRecord& ev : eng.log())
    if (ev.kind == static_cast<std::uint16_t>(EventKind::kWake)) {
      saw_wake = true;
      EXPECT_EQ(ev.rank, 0u);
      EXPECT_EQ(ev.aux, 1u);
      EXPECT_DOUBLE_EQ(ev.t, 2.5);
    }
  EXPECT_TRUE(saw_wake);
}

TEST(SimEngine, WaitWithNoWakeResumesAtTheDeadline) {
  SimEngine eng;
  double woke_at = -1.0;
  eng.spawn(0, [&] {
    eng.wait_until(4.0);
    woke_at = eng.now();
  });
  eng.spawn(1, [&] { eng.advance(1.0); });
  eng.run();
  EXPECT_DOUBLE_EQ(woke_at, 4.0);
}

std::pair<std::vector<EventRecord>, std::uint64_t> run_engine_script() {
  SimEngine::Options opts;
  opts.record_log = true;
  SimEngine eng(opts);
  eng.spawn(0, [&] {
    for (int i = 0; i < 5; ++i) eng.advance(0.25);
  });
  eng.spawn(1, [&] {
    for (int i = 0; i < 3; ++i) eng.advance(0.4);
    eng.wake(2, eng.now() + 0.1, 7);
  });
  eng.spawn(2, [&] { eng.wait_until(100.0); });
  eng.run();
  return {eng.log(), eng.log_hash()};
}

TEST(SimEngine, TwoRunsProduceByteIdenticalEventLogs) {
  const auto a = run_engine_script();
  const auto b = run_engine_script();
  EXPECT_EQ(a.second, b.second);
  ASSERT_EQ(a.first.size(), b.first.size());
  ASSERT_FALSE(a.first.empty());
  EXPECT_EQ(std::memcmp(a.first.data(), b.first.data(),
                        a.first.size() * sizeof(EventRecord)),
            0);
}

// ------------------------------------------------------------------ fibers

/// The rounding mode as the hardware applies it: fegetround() (the x87
/// control word under glibc on x86-64), a double division (SSE, so
/// MXCSR) and a long double one (x87). Each quotient is taken with both
/// signs; upward and to-nearest rounding differ on at least one.
struct Rounding {
  int mode = -1;
  double d[2] = {};
  long double ld[2] = {};
  bool operator==(const Rounding&) const = default;
};

Rounding read_rounding() {
  volatile double one = 1.0, three = 3.0;
  volatile long double lone = 1.0L, lthree = 3.0L;
  Rounding r;
  r.mode = std::fegetround();
  r.d[0] = one / three;
  r.d[1] = -one / three;
  r.ld[0] = lone / lthree;
  r.ld[1] = -lone / lthree;
  return r;
}

TEST(SimFiber, EachFiberKeepsItsOwnFpControlState) {
  const Rounding nearest = read_rounding();
  ASSERT_EQ(nearest.mode, FE_TONEAREST);
  ASSERT_EQ(std::fesetround(FE_UPWARD), 0);
  const Rounding upward = read_rounding();
  std::fesetround(FE_TONEAREST);
  ASSERT_TRUE(upward.d[0] != nearest.d[0] || upward.d[1] != nearest.d[1]);
  ASSERT_TRUE(upward.ld[0] != nearest.ld[0] || upward.ld[1] != nearest.ld[1]);

  Rounding a_resumed, b_started;
  SimEngine eng;
  eng.spawn(0, [&] {
    std::fesetround(FE_UPWARD);
    eng.advance(1.0);  // rank 1 is dispatched in between
    a_resumed = read_rounding();
  });
  eng.spawn(1, [&] { b_started = read_rounding(); });
  eng.run();
  const Rounding caller = read_rounding();
  std::fesetround(FE_TONEAREST);  // keep a failure out of later tests
  EXPECT_TRUE(a_resumed == upward);
  EXPECT_TRUE(b_started == nearest);
  EXPECT_TRUE(caller == nearest);
}

/// Runs an engine of four fibers, each calling `each` on its stack.
void run_four_fibers(const std::function<void()>& each) {
  SimEngine eng;
  for (std::uint32_t r = 0; r < 4; ++r)
    eng.spawn(r, [&eng, &each, r] {
      eng.advance(1.0 + r);
      each();
    });
  eng.run();
}

/// The address ranges mapped in this process now (/proc/self/maps).
std::vector<std::pair<std::uintptr_t, std::uintptr_t>> mapped_ranges() {
  std::ifstream maps("/proc/self/maps");
  std::vector<std::pair<std::uintptr_t, std::uintptr_t>> ranges;
  for (std::string line; std::getline(maps, line);) {
    char* dash = nullptr;
    const std::uintptr_t lo = std::strtoull(line.c_str(), &dash, 16);
    ranges.emplace_back(lo, std::strtoull(dash + 1, nullptr, 16));
  }
  return ranges;
}

TEST(SimFiber, FinishedStacksServeTheNextEngine) {
  run_four_fibers([] {});
  // The first engine's stacks: unmapped at its end unless they are kept.
  const auto before = mapped_ranges();
  std::vector<std::uintptr_t> locals;  // one address on each fiber stack
  run_four_fibers([&] {
    volatile char here = 0;
    locals.push_back(reinterpret_cast<std::uintptr_t>(&here));
  });
  ASSERT_EQ(locals.size(), 4u);
  for (const std::uintptr_t at : locals)
    EXPECT_TRUE(std::any_of(before.begin(), before.end(), [&](auto r) {
      return r.first <= at && at < r.second;
    })) << "a fiber of the second engine ran on a newly mapped stack";
}

/// Recurses `depth` calls deep, 1 KiB a frame; each frame's address is
/// passed on, so no call can become a jump.
std::size_t recurse(std::size_t depth, volatile char* caller) {
  volatile char frame[1024];
  frame[0] = caller[0];
  if (depth == 0) return frame[0];
  return recurse(depth - 1, frame) + frame[1];
}

TEST(SimFiberDeathTest, AReusedStackKeepsItsGuardPage) {
  EXPECT_DEATH(
      {
        run_four_fibers([] {});  // leaves four finished stacks to reuse
        SimEngine eng;
        eng.spawn(0, [] {
          volatile char seed = 0;
          recurse(std::numeric_limits<std::size_t>::max(), &seed);
        });
        eng.run();
      },
      "");
}

// -------------------------------------------------- transport (passive)

transport::MessageHeader value_header(std::uint64_t tag) {
  transport::MessageHeader h;
  h.block = 0;
  h.tag = tag;
  h.kind = net::MsgKind::kValue;
  return h;
}

TEST(SimTransport, PassiveDeliveryMaturesAfterTheLinkLatency) {
  SimConfig cfg;
  cfg.topology.latency = 1e-3;
  cfg.topology.jitter = 0.0;
  SimTransport fabric(2, cfg, 5, /*engine=*/nullptr);
  const double payload[3] = {1.0, 2.0, 3.0};
  const auto receipt =
      fabric.endpoint(0).send(1, value_header(1), payload, 0.0, false);
  ASSERT_TRUE(receipt.sent);
  EXPECT_DOUBLE_EQ(receipt.deliver_at, 1e-3);

  std::vector<net::Message> got;
  EXPECT_EQ(fabric.endpoint(1).receive(0.5e-3, got), 0u);  // not matured
  ASSERT_EQ(fabric.endpoint(1).receive(2e-3, got), 1u);
  EXPECT_EQ(got[0].src, 0u);
  EXPECT_EQ(got[0].tag, 1u);
  ASSERT_EQ(got[0].value.size(), 3u);
  EXPECT_DOUBLE_EQ(got[0].value[2], 3.0);
  EXPECT_EQ(fabric.endpoint(1).delivered(), 1u);
  EXPECT_GT(fabric.endpoint(1).delays().count(), 0u);
  fabric.endpoint(1).recycle(got);
  EXPECT_TRUE(got.empty());
}

TEST(SimTransport, BaseLatencyEncodesRegionsAndAsymmetry) {
  SimConfig cfg;
  cfg.topology.latency = 1e-3;
  cfg.topology.regions = 2;
  cfg.topology.cross_region = 4.0;
  {
    SimTransport fabric(4, cfg, 9, nullptr);
    // rank % regions: 0,2 share a region; 0 -> 1 crosses.
    EXPECT_DOUBLE_EQ(fabric.base_latency(0, 2), 1e-3);
    EXPECT_DOUBLE_EQ(fabric.base_latency(0, 1), 4e-3);
  }
  cfg.topology.asymmetry = 0.5;
  {
    SimTransport fabric(4, cfg, 9, nullptr);
    const double fwd = fabric.base_latency(0, 1);
    const double rev = fabric.base_latency(1, 0);
    EXPECT_NE(fwd, rev);  // routes are direction-specific
    for (const double b : {fwd, rev}) {
      EXPECT_GE(b, 4e-3 * 0.5);
      EXPECT_LE(b, 4e-3 * 1.5);
    }
    // and deterministic functions of the seed
    SimTransport again(4, cfg, 9, nullptr);
    EXPECT_DOUBLE_EQ(again.base_latency(0, 1), fwd);
    EXPECT_DOUBLE_EQ(again.base_latency(1, 0), rev);
  }
}

TEST(SimTransport, FifoFloorKeepsPerLinkOrderUnderHeavyJitter) {
  SimConfig cfg;
  cfg.topology.latency = 1e-3;
  cfg.topology.jitter = 0.9;
  cfg.topology.fifo = true;
  SimTransport fifo(2, cfg, 21, nullptr);
  cfg.topology.fifo = false;
  SimTransport loose(2, cfg, 21, nullptr);
  const double payload[1] = {1.0};
  for (std::uint64_t tag = 0; tag < 50; ++tag) {
    fifo.endpoint(0).send(1, value_header(tag), payload, 0.0, false);
    loose.endpoint(0).send(1, value_header(tag), payload, 0.0, false);
  }
  std::vector<net::Message> got;
  ASSERT_EQ(fifo.endpoint(1).receive(10.0, got), 50u);
  for (std::uint64_t tag = 0; tag < 50; ++tag)
    EXPECT_EQ(got[tag].tag, tag);  // in-order despite the jitter
  fifo.endpoint(1).recycle(got);

  ASSERT_EQ(loose.endpoint(1).receive(10.0, got), 50u);
  bool inverted = false;
  for (std::size_t i = 1; i < got.size(); ++i)
    inverted = inverted || got[i].tag < got[i - 1].tag;
  EXPECT_TRUE(inverted);  // same draws without the floor DO reorder
  loose.endpoint(1).recycle(got);
}

TEST(SimTransport, PartitionWindowSeversTheCutAndHeals) {
  SimConfig cfg;
  cfg.topology.latency = 1e-3;
  cfg.topology.jitter = 0.0;
  cfg.topology.partitions.push_back({0.0, 1.0, 2});  // {0,1} | {2,3}
  SimTransport fabric(4, cfg, 3, nullptr);
  const double payload[1] = {1.0};
  // Inside the window: cross-cut frames vanish (even with allow_drop
  // false — a severed link loses control frames too), same-side flow.
  EXPECT_FALSE(
      fabric.endpoint(0).send(2, value_header(1), payload, 0.5, false).sent);
  EXPECT_TRUE(
      fabric.endpoint(0).send(1, value_header(2), payload, 0.5, false).sent);
  EXPECT_EQ(fabric.partition_dropped(), 1u);
  EXPECT_EQ(fabric.endpoint(0).dropped(), 1u);
  // The window end is the heal.
  EXPECT_TRUE(
      fabric.endpoint(0).send(2, value_header(3), payload, 1.5, false).sent);
  std::vector<net::Message> got;
  EXPECT_EQ(fabric.endpoint(2).receive(5.0, got), 1u);
  fabric.endpoint(2).recycle(got);
}

TEST(SimTransport, SeededDropsReplayExactly) {
  SimConfig cfg;
  cfg.topology.latency = 1e-3;
  cfg.topology.drop_prob = 0.3;
  SimTransport a(2, cfg, 77, nullptr);
  SimTransport b(2, cfg, 77, nullptr);
  const double payload[1] = {1.0};
  for (std::uint64_t tag = 0; tag < 200; ++tag) {
    const double now = 1e-3 * static_cast<double>(tag);
    const bool sa =
        a.endpoint(0).send(1, value_header(tag), payload, now, true).sent;
    const bool sb =
        b.endpoint(0).send(1, value_header(tag), payload, now, true).sent;
    EXPECT_EQ(sa, sb) << "tag " << tag;
  }
  EXPECT_GT(a.endpoint(0).dropped(), 0u);
  EXPECT_GT(a.endpoint(0).sent() - a.endpoint(0).dropped(), 0u);
  EXPECT_EQ(a.endpoint(0).dropped(), b.endpoint(0).dropped());

  std::vector<net::Message> ga, gb;
  ASSERT_EQ(a.endpoint(1).receive(10.0, ga),
            b.endpoint(1).receive(10.0, gb));
  for (std::size_t i = 0; i < ga.size(); ++i)
    EXPECT_EQ(ga[i].tag, gb[i].tag);  // identical delivery sequence
  a.endpoint(1).recycle(ga);
  b.endpoint(1).recycle(gb);
}

// ------------------------------------------------- cross-backend parity

TEST(BackendParity, ScriptedSendsDrainInTheSameOrderAsInproc) {
  // Zero-latency links on all three fabrics, one scripted thread:
  // every frame matures at the same instant, so the delivery ORDER must
  // be the push order everywhere — the (deliver_at, push seq) tie-break
  // of the one shared delivery queue, which the engine's (t, seq)
  // tie-break mirrors.
  net::DeliveryPolicy instant;  // min=max=0, no drops
  instant.min_latency = 0.0;
  instant.max_latency = 0.0;
  transport::InprocTransport inproc(3, instant, 13);
  transport::InprocTransport inner(3, instant, 13);
  transport::ChaosTransport chaos(inner, instant, 13);
  SimConfig cfg;
  cfg.topology.latency = 0.0;
  cfg.topology.jitter = 0.0;
  SimTransport sim(3, cfg, 13, nullptr);

  const double payload[2] = {4.0, 5.0};
  std::uint64_t tag = 0;
  for (int round = 0; round < 8; ++round)
    for (std::uint32_t src : {1u, 2u, 1u}) {
      inproc.endpoint(src).send(0, value_header(tag), payload, 0.0, false);
      chaos.endpoint(src).send(0, value_header(tag), payload, 0.0, false);
      sim.endpoint(src).send(0, value_header(tag), payload, 0.0, false);
      ++tag;
    }

  std::vector<net::Message> got_inproc, got_chaos, got_sim;
  ASSERT_EQ(inproc.endpoint(0).receive(1.0, got_inproc), tag);
  ASSERT_EQ(chaos.endpoint(0).receive(1.0, got_chaos), tag);
  ASSERT_EQ(sim.endpoint(0).receive(1.0, got_sim), tag);
  for (std::size_t i = 0; i < got_sim.size(); ++i) {
    EXPECT_EQ(got_sim[i].src, got_inproc[i].src) << "position " << i;
    EXPECT_EQ(got_sim[i].tag, got_inproc[i].tag) << "position " << i;
    EXPECT_EQ(got_chaos[i].src, got_inproc[i].src) << "position " << i;
    EXPECT_EQ(got_chaos[i].tag, got_inproc[i].tag) << "position " << i;
  }
  inproc.endpoint(0).recycle(got_inproc);
  chaos.endpoint(0).recycle(got_chaos);
  sim.endpoint(0).recycle(got_sim);
}

// ------------------------------------------------------ trace clock hook

std::uint64_t g_fake_ns = 0;
std::uint64_t fake_clock() { return g_fake_ns; }

TEST(TraceClock, InjectedSourceDrivesRecorderTimestamps) {
  obs::set_trace_clock(&fake_clock);
  g_fake_ns = 5'000'000'000ull;
  obs::TraceConfig tc;
  tc.level = obs::TraceLevel::kMetrics;
  tc.ring_capacity = 64;
  obs::TraceRecorder::instance().enable(tc);
  // t0 latched from the injected source at enable(): elapsed reads 0.
  EXPECT_EQ(obs::TraceRecorder::instance().now_ns(), 0u);
  g_fake_ns += 1234;
  EXPECT_EQ(obs::TraceRecorder::instance().now_ns(), 1234u);
  obs::TraceRecorder::instance().disable();
  obs::set_trace_clock(nullptr);
  EXPECT_EQ(obs::trace_clock(), nullptr);
}

// ------------------------------------------------------ simulated worlds

class SimWorldFixture : public ::testing::Test {
 protected:
  SimWorldFixture() : rng_(61) {
    sys_ = problems::make_diagonally_dominant_system(128, 4, 2.0, rng_);
    partition_ = la::Partition::balanced(sys_.dim(), 16);
    jacobi_ =
        std::make_unique<op::JacobiOperator>(sys_.a, sys_.b, partition_);
    x_star_ = op::picard_solve(*jacobi_, la::zeros(sys_.dim()), 50000,
                               1e-14);
  }

  WorldOptions base_world(std::size_t world) const {
    WorldOptions o;
    o.mp.workers = world;
    o.mp.seed = 17;
    o.mp.solve.tol = 1e-9;
    o.mp.solve.x_star = x_star_;
    // VIRTUAL budget — generous because it costs nothing real.
    o.mp.solve.max_seconds = 300.0;
    o.mp.solve.max_updates = 100000000;
    o.sim.topology.latency = 2e-4;
    o.sim.topology.jitter = 0.5;
    o.sim.compute.phase = 1e-4;
    o.sim.compute.jitter = 0.3;
    return o;
  }

  Rng rng_;
  problems::LinearSystem sys_;
  la::Partition partition_;
  std::unique_ptr<op::JacobiOperator> jacobi_;
  la::Vector x_star_;
};

TEST_F(SimWorldFixture, AllThreeModesConvergeInVirtualTime) {
  // The net_test AllThreeModesConverge scenario with the wall clock
  // removed: there is NO wall budget to overrun here — time is virtual,
  // so a loaded CI host can slow the test but never flake it. The
  // real-socket original stays as the wall-time canary.
  for (const net::Mode mode :
       {net::Mode::kAsync, net::Mode::kSsp, net::Mode::kBsp}) {
    WorldOptions o = base_world(4);
    o.mp.solve.mode = mode;
    o.mp.solve.staleness = 2;
    const WorldResult r = run_world(*jacobi_, la::zeros(sys_.dim()), o);
    EXPECT_TRUE(r.all_converged)
        << "mode " << static_cast<int>(mode) << " residual "
        << r.final_residual;
    EXPECT_LT(r.final_residual, 1e-8);
    EXPECT_GT(r.virtual_seconds, 0.0);
    EXPECT_GT(r.events, 0u);
    EXPECT_GT(r.total_updates, 0u);
    EXPECT_GT(r.messages_delivered, 0u);
  }
}

TEST_F(SimWorldFixture, ChaosOverSimRunsTheDelayModelInVirtualTime) {
  // ChaosOverTcpRunsTheDelayModelOnRealSockets, minus the sockets and
  // minus the wall clock: the same decorator injects the same seeded
  // delay model, the delay floor survives, and the run is fully traced
  // and audited — with event timestamps in virtual nanoseconds.
  WorldOptions o = base_world(4);
  o.mp.solve.tol = 1e-8;
  o.chaos = true;
  o.chaos_policy.min_latency = 2e-4;
  o.chaos_policy.max_latency = 2e-3;
  o.mp.obs.trace_level = obs::TraceLevel::kFull;
  o.mp.obs.audit = true;
  const obs::TraceClockFn before = obs::trace_clock();
  const WorldResult r = run_world(*jacobi_, la::zeros(sys_.dim()), o);
  EXPECT_TRUE(r.all_converged) << "residual " << r.final_residual;
  EXPECT_GT(r.obs_events_recorded, 0u);
  EXPECT_EQ(obs::trace_clock(), before);  // the world restored the clock
  for (const net::MpResult& rank : r.ranks) {
    ASSERT_GT(rank.delays.count(), 0u);
    // Every measured delay includes the injected hold: the model's
    // floor survives the virtual path exactly as it did the socket one.
    EXPECT_GE(rank.delays.min(), o.chaos_policy.min_latency);
    ASSERT_EQ(rank.admissibility.size(), 1u);
  }
}

TEST_F(SimWorldFixture, EveryUpdateEventNamesItsRank) {
  // The ranks of a world share one OS thread, and the engine stamps each
  // dispatch with its fiber's rank: counted per rank, the block-update
  // events are each rank's own updates. Tracing changes nothing the
  // world does.
  WorldOptions o = base_world(4);
  const WorldResult untraced = run_world(*jacobi_, la::zeros(sys_.dim()), o);
  o.mp.obs.trace_level = obs::TraceLevel::kFull;
  const WorldResult r = run_world(*jacobi_, la::zeros(sys_.dim()), o);
  ASSERT_TRUE(r.all_converged) << "residual " << r.final_residual;
  ASSERT_EQ(r.obs_events_dropped, 0u) << "a ring wrapped";
  std::vector<std::uint64_t> updates;
  for (const net::MpResult& rank : r.ranks)
    updates.push_back(rank.total_updates);
  EXPECT_EQ(
      count_per_rank(updates.size(), obs::EventType::kBlockUpdate, 0),
      updates);
  EXPECT_EQ(r.log_hash, untraced.log_hash);
}

TEST_F(SimWorldFixture, OneThreadWorldRingHoldsCapacityPerRank) {
  // Every fiber records into the engine thread's one ring, so the world
  // arms it with trace_ring_capacity for each rank: 64 ranks traced at
  // the default capacity keep every event (one ring of 4,096 for the
  // whole world dropped 45,613 of these 49,708).
  Rng rng(17);
  auto sys = problems::make_diagonally_dominant_system(256, 4, 2.0, rng);
  op::JacobiOperator jacobi(sys.a, sys.b, la::Partition::balanced(256, 64));
  WorldOptions o = base_world(64);
  o.mp.solve.x_star = op::picard_solve(jacobi, la::zeros(256), 50000, 1e-14);
  o.mp.obs.trace_level = obs::TraceLevel::kFull;
  ASSERT_EQ(o.mp.obs.trace_ring_capacity, 4096u);
  const WorldResult r = run_world(jacobi, la::zeros(256), o);
  ASSERT_TRUE(r.all_converged) << "residual " << r.final_residual;
  EXPECT_EQ(r.obs_events_dropped, 0u);
  std::vector<std::uint64_t> updates;
  for (const net::MpResult& rank : r.ranks)
    updates.push_back(rank.total_updates);
  EXPECT_EQ(
      count_per_rank(updates.size(), obs::EventType::kBlockUpdate, 0),
      updates);
}

TEST_F(SimWorldFixture, SixtyFourRanksReplayByteIdentically) {
  // One (config, seed) pair names exactly one execution: event logs are
  // byte-equal and the iterates bit-equal across runs — at a world size
  // no thread-backed backend could ever schedule reproducibly.
  la::Partition fine = la::Partition::balanced(sys_.dim(), 128);
  op::JacobiOperator jacobi(sys_.a, sys_.b, fine);
  WorldOptions o = base_world(64);
  o.sim.record_log = true;
  const WorldResult a = run_world(jacobi, la::zeros(sys_.dim()), o);
  const WorldResult b = run_world(jacobi, la::zeros(sys_.dim()), o);
  EXPECT_TRUE(a.all_converged) << "residual " << a.final_residual;
  EXPECT_EQ(a.log_hash, b.log_hash);
  EXPECT_EQ(a.events, b.events);
  ASSERT_EQ(a.event_log.size(), b.event_log.size());
  ASSERT_FALSE(a.event_log.empty());
  EXPECT_FALSE(a.log_truncated);
  EXPECT_EQ(std::memcmp(a.event_log.data(), b.event_log.data(),
                        a.event_log.size() * sizeof(EventRecord)),
            0);
  EXPECT_EQ(a.final_residual, b.final_residual);  // bitwise, not approx
  for (std::size_t r = 0; r < a.ranks.size(); ++r)
    EXPECT_EQ(la::dist_inf(a.ranks[r].x, b.ranks[r].x), 0.0);
}

TEST_F(SimWorldFixture, PartitionWindowDelaysButDoesNotPreventConvergence) {
  WorldOptions o = base_world(4);
  // Sever {0,1} from {2,3} for the first 50 virtual ms — long enough
  // that the halves exhaust local progress — then heal.
  o.sim.topology.partitions.push_back({0.0, 0.05, 2});
  const WorldResult healed = run_world(*jacobi_, la::zeros(sys_.dim()), o);
  EXPECT_TRUE(healed.all_converged)
      << "residual " << healed.final_residual;
  EXPECT_GT(healed.partition_dropped, 0u);
  // The cut has to cost virtual time against the unpartitioned run.
  WorldOptions clean = base_world(4);
  const WorldResult base = run_world(*jacobi_, la::zeros(sys_.dim()), clean);
  EXPECT_GT(healed.virtual_seconds, base.virtual_seconds);
  EXPECT_GT(healed.virtual_seconds, 0.05);  // converged after the heal
}

TEST_F(SimWorldFixture, CompressedWorldReplaysByteIdenticallyOverSimnet) {
  // The full wire-efficiency stack — delta encoding, top-k windows,
  // 16-bit quantization — under the virtual-time engine: one (config,
  // seed) pair still names exactly one execution, and a finite bandwidth
  // makes the serialization cost track TRUE bytes on the wire (a
  // quantized frame occupies the link for fewer virtual seconds than the
  // raw frame it replaced).
  WorldOptions o = base_world(4);
  o.mp.solve.tol = 1e-3;  // lossy codec: residual band, not bit equality
  o.mp.wire.delta = true;
  o.mp.wire.topk = 4;
  o.mp.wire.quant_bits = 16;
  o.mp.wire.refresh_every = 4;
  o.sim.topology.bandwidth = 1e6;
  o.sim.record_log = true;
  const WorldResult a = run_world(*jacobi_, la::zeros(sys_.dim()), o);
  const WorldResult b = run_world(*jacobi_, la::zeros(sys_.dim()), o);
  EXPECT_TRUE(a.all_converged) << "residual " << a.final_residual;
  EXPECT_LT(a.final_residual, 1e-2);
  EXPECT_EQ(a.log_hash, b.log_hash);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.final_residual, b.final_residual);  // bitwise, not approx
  for (std::size_t r = 0; r < a.ranks.size(); ++r)
    EXPECT_EQ(la::dist_inf(a.ranks[r].x, b.ranks[r].x), 0.0);
  std::uint64_t raw = 0, wired = 0, codec_frames = 0;
  for (const net::MpResult& rank : a.ranks) {
    raw += rank.bytes_sent_raw;
    wired += rank.bytes_sent_wire;
    codec_frames += rank.wire_frames_codec;
  }
  EXPECT_GT(codec_frames, 0u);
  EXPECT_LT(wired, raw);  // the compressed world is actually smaller
}

TEST_F(SimWorldFixture, DeltaWorldMatchesTheRawWorldBitForBit) {
  // The hard parity contract: with the link order-preserving (fifo, no
  // jitter) and bandwidth infinite (the default: serialization cost is
  // byte-independent), the delta-encoded world runs the IDENTICAL
  // schedule as the raw world — frame counts are invariant (unchanged
  // blocks still send heartbeats, so every per-frame draw lines up) and
  // exact deltas reconstruct the identical doubles at the receiver. The
  // finals must therefore agree bit for bit, not within a band.
  WorldOptions off = base_world(4);
  off.sim.topology.jitter = 0.0;
  off.sim.topology.fifo = true;
  const WorldResult raw = run_world(*jacobi_, la::zeros(sys_.dim()), off);
  ASSERT_TRUE(raw.all_converged) << "residual " << raw.final_residual;

  WorldOptions on = off;
  on.mp.wire.delta = true;
  on.mp.wire.refresh_every = 8;
  const WorldResult delta = run_world(*jacobi_, la::zeros(sys_.dim()), on);
  ASSERT_TRUE(delta.all_converged) << "residual " << delta.final_residual;

  EXPECT_EQ(raw.events, delta.events);
  EXPECT_EQ(raw.final_residual, delta.final_residual);  // bitwise
  ASSERT_EQ(raw.ranks.size(), delta.ranks.size());
  std::uint64_t hb = 0;
  for (std::size_t r = 0; r < raw.ranks.size(); ++r) {
    EXPECT_EQ(la::dist_inf(raw.ranks[r].x, delta.ranks[r].x), 0.0);
    EXPECT_EQ(raw.ranks[r].messages_sent, delta.ranks[r].messages_sent);
    EXPECT_LE(delta.ranks[r].bytes_sent_wire,
              delta.ranks[r].bytes_sent_raw);
    hb += delta.ranks[r].wire_frames_heartbeat +
          delta.ranks[r].wire_frames_delta;
  }
  EXPECT_GT(hb, 0u);  // the delta layer actually engaged
}

TEST_F(SimWorldFixture, VirtualBudgetStopsAnUnconvergableRun) {
  WorldOptions o = base_world(4);
  o.mp.solve.tol = 1e-30;  // below attainable precision: never converges
  o.mp.solve.max_seconds = 0.01;
  const WorldResult r = run_world(*jacobi_, la::zeros(sys_.dim()), o);
  EXPECT_FALSE(r.all_converged);
  // Every rank ran out its VIRTUAL budget; the engine still quiesced.
  EXPECT_GE(r.virtual_seconds, 0.01);
  EXPECT_LT(r.virtual_seconds, 1.0);
  for (const net::MpResult& rank : r.ranks)
    EXPECT_GE(rank.wall_seconds, 0.01);  // SimClock, not a real timer
}

TEST_F(SimWorldFixture, SwimMembershipProbesOverVirtualTime) {
  WorldOptions o = base_world(4);
  o.mp.membership.enabled = true;
  o.mp.membership.probe_busy_members = true;
  o.mp.membership.ping_period = 5e-4;
  o.mp.membership.ping_timeout = 2e-3;
  o.mp.membership.suspicion_timeout = 0.05;
  const WorldResult r = run_world(*jacobi_, la::zeros(sys_.dim()), o);
  EXPECT_TRUE(r.all_converged) << "residual " << r.final_residual;
  std::uint64_t pings = 0, deaths = 0;
  for (const net::MpResult& rank : r.ranks) {
    // Ranks stop at their own sweep ends, so a rank may see others leave
    // (kStop) first; every slot missing from its live view must have
    // left deliberately — nobody falsely killed.
    EXPECT_EQ(rank.live_at_exit.size() + rank.membership.leaves_observed,
              4u);
    pings += rank.membership.pings_sent;
    deaths += rank.membership.deaths_observed;
  }
  EXPECT_GT(pings, 0u);  // the detector actually ran on virtual cadence
  EXPECT_EQ(deaths, 0u);  // no suspicion expired into a death
}

TEST(SimTrainWorld, TapTrainingConvergesAndReplaysDeterministically) {
  problems::LogisticConfig dcfg;
  dcfg.samples = 240;
  dcfg.features = 48;
  dcfg.density = 0.3;
  dcfg.separation = 3.0;
  dcfg.label_noise = 0.0;
  dcfg.ridge = 0.01;
  const train::Dataset data = train::make_synthetic_dataset(dcfg, 7);

  TrainWorldOptions o;
  o.train.workers = 3;
  o.train.seed = 7;
  o.train.sgd.discipline = train::Discipline::kTap;
  o.train.sgd.learning_rate = 0.5;
  o.train.sgd.batch_size = 16;
  o.train.sgd.max_epochs = 1000000;
  o.train.sgd.max_seconds = 300.0;  // virtual
  o.train.sgd.target_accuracy = 0.95;
  o.train.sgd.eval_every = 4;
  o.sim.topology.latency = 2e-4;
  o.sim.compute.phase = 1e-4;
  const la::Vector x0 = la::zeros(data.features());
  const TrainWorldResult a = run_train_world(data, x0, o);
  const TrainWorldResult b = run_train_world(data, x0, o);
  ASSERT_EQ(a.ranks.size(), 4u);  // server + 3 workers
  EXPECT_TRUE(a.ranks[0].converged);  // server reached the target
  EXPECT_GE(a.ranks[0].final_accuracy, 0.95);
  EXPECT_GT(a.virtual_seconds, 0.0);
  EXPECT_EQ(a.log_hash, b.log_hash);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(la::dist_inf(a.ranks[0].x, b.ranks[0].x), 0.0);
}

TEST_F(SimWorldFixture, StragglersStallTheGateLessAsTheBoundLoosens) {
  // With rank 3 computing 10x slower, a tight SSP bound makes the fast
  // ranks wait at the round gate; a loose one lets them run ahead, and
  // kAsync has no gate to stall at. Inequalities only: these worlds run
  // the host's SIMD level, so the exact counts are not portable.
  const auto stalls = [&](net::Mode mode, std::uint64_t staleness) {
    WorldOptions o = base_world(4);
    o.mp.solve.mode = mode;
    o.mp.solve.staleness = staleness;
    o.sim.compute.straggler_every = 4;
    const WorldResult r = run_world(*jacobi_, la::zeros(sys_.dim()), o);
    EXPECT_TRUE(r.all_converged) << "residual " << r.final_residual;
    std::uint64_t sum = 0;
    for (const net::MpResult& rank : r.ranks) sum += rank.gate_stalls;
    return sum;
  };
  const std::uint64_t tight = stalls(net::Mode::kSsp, 1);
  const std::uint64_t loose = stalls(net::Mode::kSsp, 64);
  EXPECT_GT(tight, 0u);
  EXPECT_LT(loose, tight);
  EXPECT_EQ(stalls(net::Mode::kAsync, 1), 0u);
}

TEST_F(SimWorldFixture, StragglersStretchVirtualTimeDeterministically) {
  WorldOptions o = base_world(4);
  const WorldResult uniform = run_world(*jacobi_, la::zeros(sys_.dim()), o);
  o.sim.compute.straggler_every = 4;  // rank 3 computes 10x slower
  const WorldResult skewed = run_world(*jacobi_, la::zeros(sys_.dim()), o);
  EXPECT_TRUE(uniform.all_converged);
  EXPECT_TRUE(skewed.all_converged)
      << "residual " << skewed.final_residual;
  // Totally asynchronous: the fast ranks keep iterating, the world
  // still converges, and the straggler's cost shows up as virtual time.
  EXPECT_GT(skewed.virtual_seconds, uniform.virtual_seconds);
}

// ------------------------------------------------------- the stop rule

TEST_F(SimWorldFixture, StopCheckCadenceDoesNotChangeTheWorld) {
  // Every rank checks its criterion at the end of each own sweep, a
  // boundary the schedule already has: check_every paces only the wall
  // budget and the CPU yield, neither of which moves virtual time.
  auto run = [&](std::uint64_t check_every) {
    WorldOptions o = base_world(4);
    o.mp.solve.check_every = check_every;
    return run_world(*jacobi_, la::zeros(sys_.dim()), o);
  };
  const WorldResult one = run(1);
  ASSERT_TRUE(one.all_converged) << "residual " << one.final_residual;
  for (const std::uint64_t check_every : {4u, 16u}) {
    const WorldResult other = run(check_every);
    EXPECT_EQ(other.log_hash, one.log_hash) << "check_every " << check_every;
    EXPECT_EQ(other.events, one.events) << "check_every " << check_every;
    EXPECT_EQ(other.total_updates, one.total_updates)
        << "check_every " << check_every;
  }
}

TEST_F(SimWorldFixture, LossyLinksStrandNoRankAfterAPeerStops) {
  // A rank that stops sends no more value frames, so losing its last
  // ones would leave a survivor with a stale block forever: the finals
  // on its kStop frames (control frames, spared by the loss model) close
  // every block it owned. Seeds chosen over 1..40 before the finals
  // existed stranded 9 of them at this cadence.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    WorldOptions o = base_world(4);
    o.mp.seed = seed;
    o.mp.solve.overwrite = net::OverwritePolicy::kNewestTagWins;
    o.mp.solve.max_seconds = 30.0;
    o.sim.topology.drop_prob = 0.3;
    const WorldResult r = run_world(*jacobi_, la::zeros(sys_.dim()), o);
    EXPECT_TRUE(r.all_converged)
        << "seed " << seed << " residual " << r.final_residual;
    EXPECT_LT(r.virtual_seconds, 1.0) << "seed " << seed;
  }
}

TEST(SimStopFinals, ReorderedLinksStrandNoRankAfterAPeerStops) {
  // Under kLastArrivalWins an older value frame overtaken on a non-FIFO
  // link can land after the owner's last one; once the owner has stopped
  // nothing ever corrects it. The final value on the kStop frame
  // overrides it, and value frames at or below the final tag are dropped.
  Rng rng(62);
  auto f = problems::make_separable_quadratic(64, 1.0, 8.0, rng);
  const double gamma = 2.0 / (f->mu() + f->lipschitz());
  const la::Partition partition = la::Partition::balanced(64, 8);
  op::GradientOperator grad(*f, gamma, partition);
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    WorldOptions o;
    o.mp.workers = 4;
    o.mp.seed = seed;
    o.mp.solve.overwrite = net::OverwritePolicy::kLastArrivalWins;
    o.mp.solve.tol = 1e-9;
    o.mp.solve.x_star = f->minimizer();
    o.mp.solve.max_seconds = 20.0;
    o.mp.solve.max_updates = 100000000;
    o.mp.solve.check_every = 1;
    o.sim.topology.latency = 2e-4;
    o.sim.topology.jitter = 0.9;
    o.sim.compute.phase = 1e-4;
    o.sim.compute.jitter = 0.3;
    const WorldResult r = run_world(grad, la::zeros(64), o);
    EXPECT_TRUE(r.all_converged)
        << "seed " << seed << " residual " << r.final_residual;
    EXPECT_LT(r.virtual_seconds, 1.0) << "seed " << seed;
  }
}

// -------------------------------------------- publication to readers

/// The c14 world: the seeded sparse Jacobi system, one block per rank,
/// oracle stop at 1e-6.
struct SparseWorld {
  explicit SparseWorld(std::size_t world) : rng(97) {
    sys = problems::make_diagonally_dominant_system(world, 3, 8.0, rng);
    jacobi = std::make_unique<op::JacobiOperator>(
        sys.a, sys.b, la::Partition::balanced(world, world));
    x_star = op::picard_solve(*jacobi, la::zeros(world), 50000, 1e-14);
    o.mp.workers = world;
    o.mp.seed = 97;
    o.mp.solve.tol = 1e-6;
    o.mp.solve.x_star = x_star;
    o.mp.solve.max_seconds = 300.0;
    o.mp.solve.max_updates = 100000000;
    o.mp.solve.check_every = 4;
    o.sim.compute.phase = 1e-3;
    o.sim.compute.jitter = 0.3;
    o.sim.topology.latency = 1e-4;
    o.sim.topology.jitter = 0.5;
  }

  /// Every block from its owner's private view, checked against x_star
  /// with a norm built here, not the runtime's.
  double assembled_error(const WorldResult& r) const {
    const la::Partition& p = jacobi->partition();
    la::Vector x(p.dim());
    for (la::BlockId b = 0; b < p.num_blocks(); ++b) {
      const auto src = net::block_of(r.ranks[b], p, b);
      std::copy(src.begin(), src.end(),
                p.block_span(std::span<double>(x), b).begin());
    }
    return la::WeightedMaxNorm(la::Partition::balanced(p.dim(),
                                                       p.num_blocks()))
        .distance(x, x_star);
  }

  Rng rng;
  problems::LinearSystem sys;
  std::unique_ptr<op::JacobiOperator> jacobi;
  la::Vector x_star;
  WorldOptions o;
};

TEST(SimPublication, SparseJacobiSendsValueFramesOnlyToReaders) {
  SparseWorld w(100);
  const la::Partition& p = w.jacobi->partition();
  ASSERT_TRUE(p.has_reads());
  const WorldResult r = run_world(*w.jacobi, la::zeros(100), w.o);
  ASSERT_TRUE(r.all_converged) << "residual " << r.final_residual;
  EXPECT_LT(w.assembled_error(r), w.o.mp.solve.tol);
  std::uint64_t sent = 0;
  for (std::uint32_t q = 0; q < 100; ++q) {
    // Rank q owns block q. Its readers get every update and the final
    // (until they leave); the other ranks it reads from get at most one
    // bare leave notice.
    const auto readers = p.readers(q);
    const auto reads = p.reads(q);
    std::uint64_t notices = 0;
    for (const la::BlockId c : reads)
      notices += c != q && !std::binary_search(readers.begin(),
                                               readers.end(), c);
    const net::MpResult& rank = r.ranks[q];
    EXPECT_LE(rank.messages_sent,
              (rank.total_updates + 1) * (readers.size() - 1) + notices)
        << "rank " << q;
    sent += rank.messages_sent;
    // The result keeps exactly reads(q): a value of every block q's
    // update reads, and nothing of the rest of the world.
    EXPECT_EQ(rank.x_blocks,
              std::vector<la::BlockId>(reads.begin(), reads.end()))
        << "rank " << q;
    EXPECT_EQ(rank.x.size(), reads.size()) << "rank " << q;
  }
  EXPECT_LT(sent, r.total_updates * 10);  // a dense world sends 99 each
  const WorldResult again = run_world(*w.jacobi, la::zeros(100), w.o);
  EXPECT_EQ(again.log_hash, r.log_hash);
  EXPECT_EQ(again.events, r.events);
  EXPECT_EQ(again.messages_sent, r.messages_sent);
  EXPECT_EQ(again.final_residual, r.final_residual);
}

// Three fixed worlds pinned at recorded values, not against a second run
// of the same build: a change to the draw order, the link seeding, the
// SSP gate or the stop rule between commits shows here. A sparse async
// world with an oracle (c14's 100-rank config) sends only to readers; in
// a BSP world every rank sends to every rank, so every link of the world
// carries frames; an SSP world with a straggler stalls at its round gate.
// A change that means to move them must record the new values. The
// residual's last bits depend on the kernel backend (each SIMD level
// sums a row's products in its own order), so every world, x_star
// included, runs on the scalar kernels, which every host has: the pins
// hold under any ASYNCIT_SIMD.
struct RestoreLevel {
  la::simd::Level level = la::simd::active_level();
  ~RestoreLevel() { la::simd::force(level); }
};

struct PinnedWorld {
  std::uint64_t log_hash, events, frames, updates, residual_bits;
};

void expect_pinned(const WorldResult& r, const PinnedWorld& pin) {
  EXPECT_TRUE(r.all_converged) << "residual " << r.final_residual;
  EXPECT_EQ(r.log_hash, pin.log_hash);
  EXPECT_EQ(r.events, pin.events);
  EXPECT_EQ(r.messages_sent, pin.frames);
  EXPECT_EQ(r.total_updates, pin.updates);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.final_residual), pin.residual_bits)
      << "residual " << r.final_residual;
}

TEST(SimReplay, SparseAsyncWorldReplaysItsPinnedValues) {
  const RestoreLevel restore;
  ASSERT_TRUE(la::simd::force(la::simd::Level::kScalar));
  SparseWorld w(100);
  expect_pinned(run_world(*w.jacobi, la::zeros(100), w.o),
                {0x7ad8d5d069665691ull, 890, 1408, 395,
                 0x3eb0a709e9f0c000ull});
}

TEST(SimReplay, DenseBspWorldReplaysItsPinnedValues) {
  const RestoreLevel restore;
  ASSERT_TRUE(la::simd::force(la::simd::Level::kScalar));
  SparseWorld w(40);
  w.o.mp.solve.mode = net::Mode::kBsp;
  expect_pinned(run_world(*w.jacobi, la::zeros(40), w.o),
                {0xdcbdca3163ccc142ull, 544, 7878, 201,
                 0x3ea4bc065a120000ull});
}

TEST(SimReplay, StragglerSspWorldReplaysItsPinnedValues) {
  const RestoreLevel restore;
  ASSERT_TRUE(la::simd::force(la::simd::Level::kScalar));
  SparseWorld w(40);
  w.o.mp.solve.mode = net::Mode::kSsp;
  w.o.mp.solve.staleness = 1;
  w.o.sim.compute.straggler_every = 4;
  const WorldResult r = run_world(*w.jacobi, la::zeros(40), w.o);
  expect_pinned(r, {0x1cbd8e4b0662c2d7ull, 2760, 7059, 180,
                    0x3eaaeb6649500000ull});
  std::uint64_t stalls = 0;
  for (const net::MpResult& rank : r.ranks) stalls += rank.gate_stalls;
  EXPECT_EQ(stalls, 99u);
}

TEST(SimReplay, FlexibleSparseWorldReplaysItsPinnedValues) {
  // Flexible communication on compact views: each phase publishes a
  // partial and receives in mid-phase, which yields to the other ranks of
  // the world, so every inner step must gather its reads afresh.
  const RestoreLevel restore;
  ASSERT_TRUE(la::simd::force(la::simd::Level::kScalar));
  SparseWorld w(40);
  w.o.mp.solve.publish_partials = true;
  w.o.mp.solve.inner_steps = 2;
  expect_pinned(run_world(*w.jacobi, la::zeros(40), w.o),
                {0x8790c40700f05fbdull, 307, 604, 89,
                 0x3eae131395d50000ull});
}

TEST(SimStopFinals, FinalsLostToAPartitionAreResentToTheirReaders) {
  // A kStop crossing an active partition cut does not leave. A reader
  // that misses a neighbour's final keeps a stale block of a rank that
  // will never send again, and checks its own blocks against it: it
  // would sit above tol until the virtual budget. The leaver retries
  // each kStop that did not leave until its destination has left.
  SparseWorld w(48);
  w.o.sim.topology.fifo = true;
  w.o.sim.topology.drop_prob = 0.1;
  w.o.sim.topology.bandwidth = 1e7;
  w.o.sim.topology.partitions.push_back({0.005, 0.02, 24});
  w.o.chaos = true;
  w.o.chaos_policy.min_latency = 2e-4;
  w.o.chaos_policy.max_latency = 2e-3;
  w.o.chaos_policy.fifo = true;
  w.o.chaos_policy.drop_prob = 0.05;
  const WorldResult r = run_world(*w.jacobi, la::zeros(48), w.o);
  EXPECT_GT(r.partition_dropped, 0u);
  EXPECT_TRUE(r.all_converged) << "residual " << r.final_residual;
  EXPECT_LT(w.assembled_error(r), w.o.mp.solve.tol);
  EXPECT_LT(r.virtual_seconds, 1.0);
  const WorldResult again = run_world(*w.jacobi, la::zeros(48), w.o);
  EXPECT_EQ(again.log_hash, r.log_hash);
  EXPECT_EQ(again.final_residual, r.final_residual);
}

/// Forwards to an inner endpoint, except that every kStop toward `dst`
/// fails to leave — a link that closed under the sender.
class StopLossEndpoint final : public transport::Endpoint {
 public:
  StopLossEndpoint(transport::Endpoint& inner, std::uint32_t dst)
      : inner_(inner), dst_(dst) {}
  std::uint32_t rank() const override { return inner_.rank(); }
  transport::SendReceipt send(std::uint32_t dst,
                              const transport::MessageHeader& header,
                              std::span<const double> value, double now,
                              bool allow_drop) override {
    if (dst != dst_ || header.kind != net::MsgKind::kStop)
      return inner_.send(dst, header, value, now, allow_drop);
    ++lost_;
    return {false, now, now};
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
  std::uint64_t lost() const { return lost_; }

 private:
  transport::Endpoint& inner_;
  std::uint32_t dst_;
  std::uint64_t lost_ = 0;
};

TEST(SimStopFinals, ALeaveNoticeEndsRetriesTowardARankThatLeft) {
  // Block 1 reads block 0, block 0 reads only itself, and block 1's own
  // coupling converges far more slowly. Rank 0 stops first; its final
  // to rank 1 never leaves, so it retries. Rank 1 still converges on
  // rank 0's last value frame, and since rank 0 reads nothing of rank 1
  // it owes rank 0 no final: its bare leave notice is what ends rank 0's
  // retries, instead of the 30 s virtual budget.
  std::vector<la::Triplet> t;
  for (std::uint32_t i = 0; i < 8; ++i) {
    const bool second = i >= 4;
    t.push_back({i, i, 4.0});
    if (i % 4 != 0) t.push_back({i, i - 1, second ? -1.9 : -1.0});
    if (i % 4 != 3) t.push_back({i, i + 1, second ? -1.9 : -1.0});
    if (second) t.push_back({i, i - 4, -0.1});
  }
  const la::CsrMatrix a = la::CsrMatrix::from_triplets(8, 8, std::move(t));
  op::JacobiOperator jacobi(a, la::Vector(8, 1.0),
                            la::Partition::balanced(8, 2));
  net::MpOptions o;
  o.workers = 2;
  o.seed = 5;
  o.solve.tol = 1e-9;
  o.solve.x_star = op::picard_solve(jacobi, la::zeros(8), 50000, 1e-14);
  o.solve.max_seconds = 30.0;
  o.solve.check_every = 1;
  SimConfig sim;
  sim.topology.latency = 2e-4;
  sim.compute.phase = 1e-4;
  SimEngine engine;
  SimTransport fabric(2, sim, o.seed, &engine);
  StopLossEndpoint lossy(fabric.endpoint(0), 1);
  SimClock clock(&engine);
  std::vector<net::MpResult> ranks(2);
  engine.spawn(0, [&] {
    ranks[0] = net::run_node(jacobi, la::zeros(8), o, lossy, clock);
  });
  engine.spawn(1, [&] {
    ranks[1] = net::run_node(jacobi, la::zeros(8), o, fabric.endpoint(1),
                             clock);
  });
  engine.run();
  EXPECT_TRUE(ranks[0].converged) << ranks[0].final_error;
  EXPECT_TRUE(ranks[1].converged) << ranks[1].final_error;
  EXPECT_GT(lossy.lost(), 1u);           // rank 0 retried while rank 1 ran
  EXPECT_EQ(ranks[0].peers_stopped, 1u);  // and then heard it leave
  EXPECT_LT(engine.now(), 1.0);
}

}  // namespace
}  // namespace asyncit::simnet
