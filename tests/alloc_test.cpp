// Allocation-count regression test for the operator hot path.
//
// The PR-2 contract: once a worker's op::Workspace is warm, steady-state
// block updates, full applications, and residual polls perform ZERO heap
// allocations — the allocator must never appear in the asynchronous update
// loop. This binary replaces the global operator new/delete with counting
// versions and pins that contract; if somebody reintroduces a per-call
// temporary (the pre-PR BackwardForward prox scratch, the residual
// monitor's per-poll vectors), this test fails with the allocation count.
//
// The counters are only sampled inside explicit windows between gtest
// assertions, so gtest's own allocations don't pollute the measurement.
#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>

#include <gtest/gtest.h>

#include "asyncit/linalg/simd_dispatch.hpp"
#include "asyncit/net/peer.hpp"
#include "asyncit/obs/metrics.hpp"
#include "asyncit/obs/trace_recorder.hpp"
#include "asyncit/operators/jacobi.hpp"
#include "asyncit/operators/krasnoselskii.hpp"
#include "asyncit/operators/operator.hpp"
#include "asyncit/operators/prox.hpp"
#include "asyncit/operators/prox_gradient.hpp"
#include "asyncit/problems/linear_system.hpp"
#include "asyncit/problems/quadratic.hpp"
#include "asyncit/runtime/pacing.hpp"
#include "asyncit/runtime/shared_iterate.hpp"
#include "asyncit/support/rng.hpp"
#include "asyncit/support/timer.hpp"
#include "asyncit/train/dataset.hpp"
#include "asyncit/train/psgd.hpp"
#include "asyncit/transport/chaos.hpp"
#include "asyncit/transport/inproc.hpp"
#include "asyncit/transport/wire.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
// Allocations made on threads other than the one that runs the tests.
std::atomic<std::uint64_t> g_spawned_allocations{0};
const std::thread::id g_test_thread = std::this_thread::get_id();

void count_allocation() {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (std::this_thread::get_id() != g_test_thread)
    g_spawned_allocations.fetch_add(1, std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  count_allocation();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  count_allocation();
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  count_allocation();
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace asyncit {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(AllocationRegression, JacobiApplyBlockSteadyStateAllocatesNothing) {
  Rng rng(1);
  auto sys = problems::make_diagonally_dominant_system(128, 6, 2.0, rng);
  const la::Partition partition = la::Partition::balanced(128, 8);
  op::JacobiOperator jac(sys.a, sys.b, partition);
  la::Vector x(128, 0.3), out(partition.max_block_size());
  op::Workspace ws;

  // Warm-up: one pass over every code path grows the workspace to its
  // high-water mark.
  for (la::BlockId b = 0; b < jac.num_blocks(); ++b) {
    out.resize(partition.range(b).size());
    jac.apply_block(b, x, out, ws);
    jac.apply_block_residual(b, x, out, ws);
  }

  const std::uint64_t before = allocations();
  for (int sweep = 0; sweep < 100; ++sweep) {
    for (la::BlockId b = 0; b < jac.num_blocks(); ++b) {
      out.resize(partition.range(b).size());
      jac.apply_block(b, x, out, ws);
      jac.apply_block_residual(b, x, out, ws);
    }
  }
  const std::uint64_t during = allocations() - before;
  EXPECT_EQ(during, 0u) << "steady-state apply_block allocated";
}

TEST(AllocationRegression, SimdDispatchResolvesOnceAndNeverOnTheHotPath) {
  // The PR-5 contract: the SIMD dispatch layer installs its function
  // pointers at startup (or when a test forces a level) and the steady
  // state never re-resolves — no cpuid, no env lookup, no allocation per
  // kernel call. The resolutions() hook counts table installs; a block
  // update loop at EVERY supported level must leave it untouched.
  Rng rng(6);
  auto sys = problems::make_diagonally_dominant_system(96, 5, 2.0, rng);
  const la::Partition partition = la::Partition::balanced(96, 8);
  op::JacobiOperator jac(sys.a, sys.b, partition);
  la::Vector x(96, 0.2), out(partition.max_block_size());
  op::Workspace ws;

  const la::simd::Level original = la::simd::active_level();
  for (const la::simd::Level level : la::simd::supported_levels()) {
    ASSERT_TRUE(la::simd::force(level));
    for (la::BlockId b = 0; b < jac.num_blocks(); ++b) {  // warm-up pass
      out.resize(partition.range(b).size());
      jac.apply_block(b, x, out, ws);
      jac.apply_block_residual(b, x, out, ws);
    }

    const std::uint64_t resolutions_before = la::simd::resolutions();
    const std::uint64_t alloc_before = allocations();
    for (int sweep = 0; sweep < 100; ++sweep) {
      for (la::BlockId b = 0; b < jac.num_blocks(); ++b) {
        out.resize(partition.range(b).size());
        jac.apply_block(b, x, out, ws);
        jac.apply_block_residual(b, x, out, ws);
      }
    }
    EXPECT_EQ(allocations() - alloc_before, 0u)
        << la::simd::to_string(level) << ": steady-state update allocated";
    EXPECT_EQ(la::simd::resolutions(), resolutions_before)
        << la::simd::to_string(level)
        << ": hot path re-resolved the dispatch table";
  }
  la::simd::force(original);
}

TEST(AllocationRegression, ResidualMonitorsSteadyStateAllocateNothing) {
  Rng rng(2);
  auto sys = problems::make_diagonally_dominant_system(96, 5, 2.0, rng);
  const la::Partition partition = la::Partition::balanced(96, 12);
  op::JacobiOperator jac(sys.a, sys.b, partition);
  la::Vector x(96, 0.1), y(96);
  op::Workspace ws;

  op::fixed_point_residual(jac, x, ws);  // warm-up
  op::max_block_residual(jac, x, ws);
  jac.apply(x, y, ws);

  const std::uint64_t before = allocations();
  double sink = 0.0;
  for (int it = 0; it < 100; ++it) {
    sink += op::fixed_point_residual(jac, x, ws);
    sink += op::max_block_residual(jac, x, ws);
    jac.apply(x, y, ws);
  }
  const std::uint64_t during = allocations() - before;
  EXPECT_EQ(during, 0u) << "residual monitors allocated (sink=" << sink
                        << ")";
}

TEST(AllocationRegression, BackwardForwardKmStackSteadyStateAllocatesNothing) {
  // The deepest operator composition in the tree: KM averaging wrapping
  // the Definition-4 backward-forward operator, whose prox pass needs a
  // full-dimension workspace scratch per block application.
  Rng rng(3);
  auto f = problems::make_separable_quadratic(64, 1.0, 8.0, rng);
  auto g = op::make_l1_prox(0.1);
  const la::Partition partition = la::Partition::balanced(64, 16);
  op::BackwardForwardOperator bf(*f, *g, f->suggested_step(), partition);
  op::KrasnoselskiiMannOperator km(bf, 0.8);
  la::Vector x(64, 0.4), out(partition.max_block_size());
  op::Workspace ws;

  for (la::BlockId b = 0; b < km.num_blocks(); ++b)
    km.apply_block(b, x, out, ws);  // warm-up

  const std::uint64_t before = allocations();
  for (int sweep = 0; sweep < 100; ++sweep)
    for (la::BlockId b = 0; b < km.num_blocks(); ++b)
      km.apply_block(b, x, out, ws);
  const std::uint64_t during = allocations() - before;
  EXPECT_EQ(during, 0u) << "BF+KM apply_block allocated";
}

TEST(AllocationRegression, DisplacementStopPollSteadyStateAllocatesNothing) {
  // The stop path of rt::run_async_threads' monitor and every net:: rank:
  // displacement scan + snapshot + residual confirmation, all through the
  // workspace (the pre-PR version allocated the snapshot and the residual
  // scratch on every confirmation poll).
  Rng rng(4);
  auto sys = problems::make_diagonally_dominant_system(64, 4, 2.0, rng);
  const la::Partition partition = la::Partition::balanced(64, 8);
  op::JacobiOperator jac(sys.a, sys.b, partition);
  rt::SharedIterate shared(la::Vector(64, 0.2));
  std::vector<double> last_displacement(8, 0.0);  // all below tol:
  op::Workspace ws;                               // every poll confirms
  rt::DisplacementStop rule;
  auto snapshot_into = [&](std::span<double> s) { shared.snapshot_into(s); };

  rule.should_stop(last_displacement, jac, 1e-3, snapshot_into, ws);  // warm

  const std::uint64_t before = allocations();
  bool sink = false;
  for (int poll = 0; poll < 100; ++poll) {
    rt::DisplacementStop fresh;  // defeat the backoff between polls
    sink ^= fresh.should_stop(last_displacement, jac, 1e-3, snapshot_into,
                              ws);
  }
  const std::uint64_t during = allocations() - before;
  EXPECT_EQ(during, 0u) << "DisplacementStop poll allocated (sink=" << sink
                        << ")";
}

TEST(AllocationRegression, InprocMessagingRoundTripAllocatesNothing) {
  // The PR-3 contract extension: once the transport pools are warm, a
  // full send -> stamp -> post -> drain -> incorporate -> recycle round
  // trip performs ZERO heap allocations — the allocator is out of the
  // messaging path, not just the update loop (the pre-transport peer
  // allocated a fresh value vector for every message it sent).
  const la::Partition partition = la::Partition::from_sizes({6, 6});
  transport::InprocTransport tx(2, net::DeliveryPolicy{}, 3);
  transport::Endpoint& e0 = tx.endpoint(0);
  transport::Endpoint& e1 = tx.endpoint(1);
  net::LocalView view(partition, la::Vector(12, 0.0));
  la::Vector payload(6, 1.25);
  std::vector<net::Message> inbox;
  transport::MessageHeader header;
  header.block = 0;

  auto round_trip = [&](int count) {
    for (int i = 0; i < count; ++i) {
      header.tag = static_cast<model::Step>(i + 1);
      e0.send(1, header, payload, 1e-4 * i, /*allow_drop=*/false);
      e1.receive(1e9, inbox);
      for (const net::Message& m : inbox)
        net::incorporate(partition, net::OverwritePolicy::kLastArrivalWins,
                         m, view);
      e1.recycle(inbox);
    }
  };

  round_trip(50);  // warm-up: pools, mailbox, inbox reach high water

  const std::uint64_t before = allocations();
  round_trip(200);
  const std::uint64_t during = allocations() - before;
  EXPECT_EQ(during, 0u) << "steady-state messaging round trip allocated";
}

TEST(AllocationRegression, MessagingWithFullTracingStillAllocatesNothing) {
  // The PR-6 contract: the observability layer rides the hot path for
  // free. With the recorder at kFull and events recorded per round trip
  // — including ring WRAPS, which must recycle slots, never grow — the
  // steady state stays at zero allocations. The only alloc the recorder
  // ever makes is the one-time per-thread ring claim, which the warm-up
  // absorbs; cached metric handles keep the registry off the path too.
  obs::TraceConfig tc;
  tc.level = obs::TraceLevel::kFull;
  tc.ring_capacity = 128;  // small: the measured loop wraps many times
  obs::TraceRecorder::instance().enable(tc);
  obs::Counter& frames = obs::MetricsRegistry::instance().counter(
      "alloc_test.frames");

  const la::Partition partition = la::Partition::from_sizes({6, 6});
  transport::InprocTransport tx(2, net::DeliveryPolicy{}, 3);
  transport::Endpoint& e0 = tx.endpoint(0);
  transport::Endpoint& e1 = tx.endpoint(1);
  net::LocalView view(partition, la::Vector(12, 0.0));
  la::Vector payload(6, 1.25);
  std::vector<net::Message> inbox;
  transport::MessageHeader header;
  header.block = 0;

  auto round_trip = [&](int count) {
    for (int i = 0; i < count; ++i) {
      header.tag = static_cast<model::Step>(i + 1);
      e0.send(1, header, payload, 1e-4 * i, /*allow_drop=*/false);
      obs::record(obs::EventType::kFrameSend, 0, 1, header.tag, 48.0);
      e1.receive(1e9, inbox);
      for (const net::Message& m : inbox) {
        net::incorporate(partition, net::OverwritePolicy::kLastArrivalWins,
                         m, view);
        obs::record(obs::EventType::kFrameRecv, 0, 0, m.tag, 1e-4);
        frames.add(1);
      }
      e1.recycle(inbox);
    }
  };

  round_trip(200);  // warm-up: pools, inbox, ring claim

  const std::uint64_t before = allocations();
  round_trip(400);  // 800 events through a 128-slot ring: 6+ wraps
  const std::uint64_t during = allocations() - before;
  EXPECT_EQ(during, 0u) << "full-tracing messaging round trip allocated";
  EXPECT_GT(obs::TraceRecorder::instance().stats().dropped, 0u)
      << "the measured loop was supposed to wrap the ring";
  obs::TraceRecorder::instance().disable();
}

TEST(AllocationRegression, ChaosWireFramingSteadyStateAllocatesNothing) {
  // The chaos decorator's hold queue and the wire encoder both recycle:
  // stamping, encoding into a pooled frame, and the receiver-side staging
  // of delayed frames stay off the allocator once warm.
  net::DeliveryPolicy zero;
  transport::InprocTransport inner(2, zero, 1);
  net::DeliveryPolicy policy;
  policy.min_latency = 1e-5;
  policy.max_latency = 1e-4;
  transport::ChaosTransport chaos(inner, policy, 9);
  transport::Endpoint& e0 = chaos.endpoint(0);
  transport::Endpoint& e1 = chaos.endpoint(1);
  la::Vector payload(8, 0.5);
  std::vector<net::Message> inbox;
  std::vector<std::uint8_t> frame;
  net::Message scratch, decoded;
  transport::MessageHeader header;

  auto cycle = [&](int count, double base) {
    for (int i = 0; i < count; ++i) {
      const double now = base + 1e-3 * i;
      header.tag = static_cast<model::Step>(i + 1);
      e0.send(1, header, payload, now, /*allow_drop=*/false);
      e1.receive(now, inbox);          // stage
      e1.receive(now + 1.0, inbox);    // mature everything
      e1.recycle(inbox);
      // Wire framing round trip with reused buffers.
      scratch.value.assign(payload.begin(), payload.end());
      transport::encode_frame(scratch, frame);
      std::size_t consumed = 0;
      transport::decode_frame(frame, consumed, decoded);
    }
  };

  cycle(50, 0.0);

  const std::uint64_t before = allocations();
  cycle(200, 1.0);
  const std::uint64_t during = allocations() - before;
  EXPECT_EQ(during, 0u) << "chaos/wire steady state allocated";
}

TEST(AllocationRegression, PsgdDeltaRoundTripSteadyStateAllocatesNothing) {
  // The PR-7 contract: the training delta path is as allocation-free as
  // the solve messaging path. One TAP server + one worker co-driven
  // single-threaded over inproc: every worker pump samples a minibatch,
  // computes the scaled delta into construction-sized scratch, ships it
  // as a pooled partial frame; every server pump drains, folds the delta
  // into the model, replies once with a pooled full-params frame, and at
  // the end of a drain eval_every deltas after the last evaluation runs
  // the full-train loss/accuracy sweep. Once the pools, inboxes and
  // scratch are warm, NONE of that may allocate.
  problems::LogisticConfig dcfg;
  dcfg.samples = 64;
  dcfg.features = 16;
  dcfg.density = 0.3;
  dcfg.separation = 3.0;
  dcfg.label_noise = 0.0;
  dcfg.ridge = 0.01;
  const train::Dataset data = train::make_synthetic_dataset(dcfg, 21);

  train::TrainOptions options;
  options.workers = 1;
  options.seed = 21;
  options.sgd.discipline = train::Discipline::kTap;
  options.sgd.learning_rate = 0.3;
  options.sgd.batch_size = 8;
  options.sgd.max_epochs = 1000000;  // the measured loop must not finish
  options.sgd.max_seconds = 1e9;
  options.sgd.target_accuracy = 0.0;  // nor the server stop
  options.sgd.eval_every = 8;         // evals INSIDE the measured window

  WallTimer timer;
  train::PsgdContext ctx;
  ctx.data = &data;
  ctx.options = &options;
  ctx.clock = &timer;

  transport::InprocTransport tx(2, net::DeliveryPolicy{}, options.seed);
  train::PsgdServer server(ctx, la::zeros(data.features()),
                           tx.endpoint(0));
  train::PsgdWorker worker(ctx, 0, la::zeros(data.features()),
                           tx.endpoint(1));

  auto co_drive = [&](int slices) {
    for (int i = 0; i < slices; ++i) {
      worker.pump();  // step + send delta, drain params
      server.pump();  // fold delta, reply params, periodic eval
    }
  };

  co_drive(200);  // warm-up: frame pools, inboxes, eval scratch

  const std::uint64_t evals_before = server.evaluations();
  const std::uint64_t before = allocations();
  co_drive(400);
  const std::uint64_t during = allocations() - before;
  EXPECT_EQ(during, 0u) << "PSGD delta round trip allocated";
  EXPECT_FALSE(server.finished());
  EXPECT_FALSE(worker.finished());
  EXPECT_GE(server.deltas_applied(), 400u);
  EXPECT_GE(server.last_accuracy(), 0.0) << "eval never ran in the window";
  EXPECT_GT(server.evaluations(), evals_before)
      << "eval never ran in the window";
}

TEST(AllocationRegression, ThreadWorkspaceConvenienceWarmsUpToo) {
  // The Workspace-less convenience overloads route through the thread's
  // shared workspace; after warm-up they must be allocation-free as well.
  Rng rng(5);
  auto sys = problems::make_diagonally_dominant_system(48, 4, 2.0, rng);
  op::JacobiOperator jac(sys.a, sys.b, la::Partition::balanced(48, 6));
  la::Vector x(48, 0.5), out(8);

  jac.apply_block(0, x, out);        // warm the thread workspace
  op::max_block_residual(jac, x);

  const std::uint64_t before = allocations();
  double sink = 0.0;
  for (int it = 0; it < 100; ++it) {
    jac.apply_block(it % 6, x, out);
    sink += op::max_block_residual(jac, x);
  }
  const std::uint64_t during = allocations() - before;
  EXPECT_EQ(during, 0u) << "thread-workspace path allocated (sink=" << sink
                        << ")";
}

TEST(AllocationRegression, OneThreadPicardSolveAllocatesNothingButItsScratch) {
  // A small system sweeps on the caller alone: once the workspace holds
  // the double buffer, the solve allocates nothing.
  Rng rng(7);
  auto sys = problems::make_diagonally_dominant_system(300, 4, 2.0, rng);
  op::JacobiOperator jac(sys.a, sys.b, la::Partition::balanced(300, 300));
  op::Workspace ws;
  (void)op::picard_solve(jac, la::zeros(300), 50000, 1e-14, ws);

  la::Vector x0 = la::zeros(300);
  const std::uint64_t before = allocations();
  const la::Vector x = op::picard_solve(jac, std::move(x0), 50000, 1e-14, ws);
  const std::uint64_t during = allocations() - before;
  EXPECT_EQ(during, 0u) << "one-thread picard_solve allocated";
  EXPECT_LT(op::fixed_point_residual(jac, x, ws), 1e-13);
}

TEST(AllocationRegression, PicardSweepThreadsAllocateNothingForJacobi) {
  // 2^16 rows sweep on up to four threads. The caller builds what they
  // need, so the threads take nothing from the allocator: the reference
  // solve adds nothing to their malloc arenas.
  Rng rng(8);
  const std::size_t n = std::size_t{1} << 16;
  auto sys = problems::make_diagonally_dominant_system(n, 8, 2.0, rng);
  op::JacobiOperator jac(sys.a, sys.b, la::Partition::balanced(n, 24));

  const std::uint64_t before = g_spawned_allocations.load();
  const la::Vector x = op::picard_solve(jac, la::zeros(n), 50000, 1e-14);
  const std::uint64_t during = g_spawned_allocations.load() - before;
  EXPECT_EQ(during, 0u) << "a sweep thread allocated";
  EXPECT_LT(op::fixed_point_residual(jac, x), 1e-13);
}

}  // namespace
}  // namespace asyncit
