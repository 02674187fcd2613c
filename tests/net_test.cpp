// Tests for the message-passing runtime: channel determinism under seed,
// delivery-order semantics, label inversions and their receiver-side
// filtering, and convergence of all three coordination modes with parity
// against the shared-memory executors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "asyncit/net/channel.hpp"
#include "asyncit/net/mp_runtime.hpp"
#include "asyncit/net/peer.hpp"
#include "asyncit/obs/watchdog.hpp"
#include "chaos_tuning.hpp"
#include "asyncit/operators/gradient.hpp"
#include "asyncit/operators/jacobi.hpp"
#include "asyncit/problems/linear_system.hpp"
#include "asyncit/problems/quadratic.hpp"
#include "asyncit/runtime/executors.hpp"
#include "asyncit/support/check.hpp"
#include "asyncit/transport/inproc.hpp"
#include "trace_counts.hpp"

namespace asyncit::net {
namespace {

// ------------------------------------------------------------- channels

TEST(DelayHistogram, CountsMeanAndQuantiles) {
  DelayHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  for (int i = 1; i <= 100; ++i) h.add(1e-3 * i);  // 1ms .. 100ms
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.mean(), 0.0505, 1e-9);
  EXPECT_NEAR(h.min(), 1e-3, 1e-12);
  EXPECT_NEAR(h.max(), 0.1, 1e-12);
  // Quantiles interpolate by rank inside their log-spaced bucket (1.58x
  // wide), so p50 lands near the true median of 50.5 ms, not on the
  // bucket's 63.1 ms upper edge.
  EXPECT_LE(h.quantile(0.1), h.quantile(0.9));
  EXPECT_GE(h.quantile(0.99), 0.09);
  EXPECT_NEAR(h.quantile(0.5), 0.0505, 0.05 * 0.0505);

  DelayHistogram other;
  other.add(1.0);
  h.merge(other);
  EXPECT_EQ(h.count(), 101u);
  EXPECT_NEAR(h.max(), 1.0, 1e-12);
}

TEST(DelayHistogram, QuantilesStayWithinTheObservedRange) {
  // Every sample sits strictly inside one bucket: its upper edge lies
  // above the max, and every quantile must still read the sample itself.
  DelayHistogram h;
  const double v = 5.22e-4;
  for (int i = 0; i < 10; ++i) h.add(v);
  const auto& edges = h.edges();
  const auto upper = std::lower_bound(edges.begin(), edges.end(), v);
  ASSERT_TRUE(upper != edges.begin() && upper != edges.end());
  ASSERT_GT(*upper, v);
  ASSERT_LT(*(upper - 1), v);
  for (const double p : {0.0, 0.01, 0.5, 0.95, 0.99, 1.0})
    EXPECT_EQ(h.quantile(p), v) << "p " << p;
  EXPECT_EQ(h.p99(), v);
}

/// Stamps one value frame the way the inproc backend does: deliver_at is
/// now + the latency draw, FIFO-floored when the frame leaves.
struct Stamped {
  bool sent;
  double deliver_at;
};
Stamped stamp(LinkModel& link, const LinkSpec& spec, double now) {
  const LinkDraw d = link.draw(spec, MsgKind::kValue, /*allow_drop=*/true);
  return {d.sent, d.sent ? link.leave(spec, now + d.variate)
                         : now + d.variate};
}

TEST(LinkModel, ReplayIsDeterministicUnderSeed) {
  DeliveryPolicy policy;
  policy.min_latency = 1e-3;
  policy.max_latency = 5e-2;
  policy.drop_prob = 0.3;
  const LinkSpec spec = link_spec(policy);
  LinkModel a(42), b(42), c(43);
  bool any_diff_c = false;
  for (int i = 0; i < 200; ++i) {
    const double now = 0.1 * i;
    const Stamped ma = stamp(a, spec, now);
    const Stamped mb = stamp(b, spec, now);
    const Stamped mc = stamp(c, spec, now);
    // same seed: identical latency draws and drop decisions, message by
    // message — the replay-determinism anchor of the runtime
    EXPECT_DOUBLE_EQ(ma.deliver_at, mb.deliver_at);
    EXPECT_EQ(ma.sent, mb.sent);
    if (ma.sent != mc.sent || ma.deliver_at != mc.deliver_at)
      any_diff_c = true;
  }
  EXPECT_TRUE(any_diff_c);  // different seed: different stream
  EXPECT_EQ(a.stamped(), 200u);
  EXPECT_EQ(a.dropped(), b.dropped());
  EXPECT_GT(a.dropped(), 0u);
  EXPECT_LT(a.dropped(), 200u);
}

TEST(LinkModel, FifoFloorsDeliveryTimes) {
  DeliveryPolicy policy;
  policy.min_latency = 1e-3;
  policy.max_latency = 1e-1;
  policy.fifo = true;
  const LinkSpec spec = link_spec(policy);
  LinkModel link(7);
  double prev = 0.0;
  for (int i = 0; i < 100; ++i) {
    const Stamped m = stamp(link, spec, 1e-4 * i);
    ASSERT_TRUE(m.sent);
    EXPECT_GE(m.deliver_at, prev);  // in-order delivery guaranteed
    prev = m.deliver_at;
  }
}

TEST(DeliveryQueue, DrainsInDeliveryOrderNotPushOrder) {
  DeliveryQueue q;
  auto make = [](model::Step tag, double t_send, double deliver_at) {
    Message m;
    m.tag = tag;
    m.t_send = t_send;
    m.deliver_at = deliver_at;
    return m;
  };
  // pushed 1, 2, 3 — but message 2 overtakes 1 (smaller latency), and 3
  // is not deliverable yet
  q.push(make(1, 0.0, 0.050));
  q.push(make(2, 0.010, 0.020));
  q.push(make(3, 0.015, 0.900));
  std::vector<Message> out;
  EXPECT_EQ(q.pop_matured(0.1, out), 2u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].tag, 2u);  // delivery order, not push order
  EXPECT_EQ(out[1].tag, 1u);
  EXPECT_EQ(q.pushed(), 3u);
  EXPECT_EQ(q.delivered(), 2u);
  EXPECT_NEAR(q.next_delivery(), 0.9, 1e-12);
  // measured delays: drain time minus send time
  EXPECT_EQ(q.delays().count(), 2u);
  EXPECT_NEAR(q.delays().max(), 0.1, 1e-9);
  out.clear();
  EXPECT_EQ(q.pop_matured(1.0, out), 1u);
  EXPECT_EQ(out[0].tag, 3u);
  // equal delivery times drain in push order
  out.clear();
  for (model::Step tag : {7u, 5u, 9u}) q.push(make(tag, 1.0, 2.0));
  EXPECT_EQ(q.pop_matured(2.0, out), 3u);
  EXPECT_EQ(out[0].tag, 7u);
  EXPECT_EQ(out[1].tag, 5u);
  EXPECT_EQ(out[2].tag, 9u);
}

// -------------------------------------------------------- incorporation

class IncorporateTest : public ::testing::Test {
 protected:
  IncorporateTest()
      : partition_(la::Partition::from_sizes({2, 2})),
        view_(partition_, la::Vector{0, 0, 0, 0}) {}

  Message block0(model::Step tag, double v) {
    Message m;
    m.block = 0;
    m.tag = tag;
    m.value = {v, v};
    return m;
  }

  la::Partition partition_;
  LocalView view_;
};

TEST_F(IncorporateTest, LastArrivalWinsSuffersLabelInversions) {
  incorporate(partition_, OverwritePolicy::kLastArrivalWins, block0(2, 2.0),
              view_);
  incorporate(partition_, OverwritePolicy::kLastArrivalWins, block0(1, 1.0),
              view_);
  // the stale tag-1 value clobbered the fresher tag-2 value
  EXPECT_DOUBLE_EQ(view_.x[0], 1.0);
  EXPECT_EQ(view_.at(0).tag, 1u);
  EXPECT_EQ(view_.at(0).max_tag, 2u);
  EXPECT_EQ(view_.inversions, 1u);
  EXPECT_EQ(view_.stale_filtered, 0u);
}

TEST_F(IncorporateTest, NewestTagWinsFiltersStaleArrivals) {
  incorporate(partition_, OverwritePolicy::kNewestTagWins, block0(2, 2.0),
              view_);
  incorporate(partition_, OverwritePolicy::kNewestTagWins, block0(1, 1.0),
              view_);
  // the inversion is OBSERVED but the stale value is refused
  EXPECT_DOUBLE_EQ(view_.x[0], 2.0);
  EXPECT_EQ(view_.at(0).tag, 2u);
  EXPECT_EQ(view_.inversions, 1u);
  EXPECT_EQ(view_.stale_filtered, 1u);
}

TEST_F(IncorporateTest, FinalValueClosesTheBlockUnderEitherPolicy) {
  for (const OverwritePolicy policy : {OverwritePolicy::kLastArrivalWins,
                                       OverwritePolicy::kNewestTagWins}) {
    LocalView view(partition_, la::Vector{0, 0, 0, 0});
    Message closing = block0(3, 3.0);
    closing.kind = MsgKind::kStop;
    EXPECT_TRUE(apply_final(partition_, closing, view));
    EXPECT_DOUBLE_EQ(view.x[0], 3.0);
    EXPECT_EQ(view.at(0).tag, 3u);
    // The owner's older frames, overtaken by its kStop, are dropped
    // under either policy — counted apart from stale_filtered.
    EXPECT_FALSE(incorporate(partition_, policy, block0(2, 2.0), view));
    EXPECT_FALSE(incorporate(partition_, policy, block0(3, 3.5), view));
    EXPECT_DOUBLE_EQ(view.x[0], 3.0);
    EXPECT_EQ(view.final_filtered, 2u);
    EXPECT_EQ(view.stale_filtered, 0u);
    // A rank that adopted the block continues past the final tag.
    EXPECT_TRUE(incorporate(partition_, policy, block0(4, 4.0), view));
    EXPECT_DOUBLE_EQ(view.x[0], 4.0);
  }
}

TEST_F(IncorporateTest, FinalNeverRollsBackANewerValue) {
  incorporate(partition_, OverwritePolicy::kNewestTagWins, block0(5, 5.0),
              view_);
  Message closing = block0(4, 4.0);
  closing.kind = MsgKind::kStop;
  EXPECT_FALSE(apply_final(partition_, closing, view_));
  EXPECT_DOUBLE_EQ(view_.x[0], 5.0);
  EXPECT_EQ(view_.at(0).final_tag, 4u);
}

TEST(KeptBlocks, AViewRefusesFramesForABlockItDoesNotKeep) {
  const la::Partition partition = la::Partition::from_sizes({2, 2, 2, 2, 2});
  LocalView view(partition, la::Vector(10, 0.0), {1, 4});
  EXPECT_EQ(view.find(2), nullptr);
  Message m;
  m.block = 2;
  m.tag = 1;
  m.value = {7.0, 7.0};
  for (const OverwritePolicy policy : {OverwritePolicy::kLastArrivalWins,
                                       OverwritePolicy::kNewestTagWins})
    EXPECT_FALSE(incorporate(partition, policy, m, view));
  m.kind = MsgKind::kStop;
  EXPECT_FALSE(apply_final(partition, m, view));
  EXPECT_EQ(view.x, la::Vector(4, 0.0));  // blocks 1 and 4 only
  EXPECT_EQ(view.inversions + view.stale_filtered + view.final_filtered, 0u);
  // The kept blocks incorporate as in a view that keeps every block.
  m.kind = MsgKind::kValue;
  m.block = 4;
  EXPECT_TRUE(incorporate(partition, OverwritePolicy::kNewestTagWins, m, view));
  EXPECT_EQ(view.at(4).tag, 1u);
  EXPECT_EQ(view.x, (la::Vector{0.0, 0.0, 7.0, 7.0}));
  EXPECT_DOUBLE_EQ(view.block(4)[0], 7.0);
  EXPECT_EQ(view.at(1).tag, 0u);
}

TEST(KeptBlocks, ACompactViewHoldsOnlyItsBlocksInBlockOrder) {
  const la::Partition partition = la::Partition::from_sizes({2, 1, 3, 2});
  const la::Vector x0{0, 1, 2, 3, 4, 5, 6, 7};
  LocalView compact(partition, x0, {1, 3});
  EXPECT_EQ(compact.x, (la::Vector{2, 6, 7}));
  EXPECT_EQ(la::Vector(compact.block(3).begin(), compact.block(3).end()),
            (la::Vector{6, 7}));
  Message m;
  m.block = 3;
  m.tag = 1;
  m.offset = 1;
  m.partial = true;
  m.value = {9.0};
  EXPECT_TRUE(incorporate(partition, OverwritePolicy::kNewestTagWins, m,
                          compact));
  EXPECT_EQ(compact.x, (la::Vector{2, 6, 9}));
  const LocalView dense(partition, x0);
  EXPECT_EQ(dense.x, x0);
  EXPECT_TRUE(dense.compact_blocks().empty());
  EXPECT_EQ(dense.block(2).data(), dense.x.data() + 3);
  // A result reads back the same way, compact or whole.
  MpResult r;
  r.x = compact.x;
  r.x_blocks = {1, 3};
  EXPECT_EQ(block_of(r, partition, 3).data(), r.x.data() + 1);
  EXPECT_EQ(block_of(r, partition, 1)[0], 2.0);
  r.x = x0;
  r.x_blocks.clear();
  EXPECT_EQ(block_of(r, partition, 3).data(), r.x.data() + 6);
}

TEST(KeptBlocks, AViewListingEveryBlockKeepsEveryBlock) {
  const la::Partition partition = la::Partition::scalar(3);
  const LocalView all(partition, la::Vector(3, 0.0), {0, 1, 2});
  const LocalView dense(partition, la::Vector(3, 0.0));
  for (la::BlockId b = 0; b < 3; ++b) {
    EXPECT_NE(all.find(b), nullptr);
    EXPECT_NE(dense.find(b), nullptr);
  }
  EXPECT_EQ(all.find(3), nullptr);
  EXPECT_EQ(dense.find(3), nullptr);
}

/// The c14 world: one block per rank, three off-diagonals per row.
class KeptBlocksWorld : public ::testing::Test {
 protected:
  static constexpr std::size_t kWorld = 100;

  KeptBlocksWorld()
      : rng_(97),
        sys_(problems::make_diagonally_dominant_system(kWorld, 3, 8.0, rng_)),
        jacobi_(sys_.a, sys_.b, la::Partition::balanced(kWorld, kWorld)),
        tx_(kWorld, DeliveryPolicy{}, 97) {
    opt_.workers = kWorld;
    opt_.solve.x_star = la::zeros(kWorld);
  }

  /// The blocks rank `r`'s view keeps under `opt`, ascending.
  std::vector<la::BlockId> kept(const MpOptions& opt, std::uint32_t r,
                                membership::SwimAgent* agent = nullptr) {
    PeerContext ctx;
    ctx.op = &jacobi_;
    ctx.options = &opt;
    ctx.clock = &clock_;
    ctx.membership = agent;
    const Peer peer(ctx, r, la::zeros(kWorld), tx_.endpoint(r));
    std::vector<la::BlockId> blocks;
    for (la::BlockId b = 0; b < kWorld; ++b)
      if (peer.view().find(b) != nullptr) blocks.push_back(b);
    return blocks;
  }

  Rng rng_;
  problems::LinearSystem sys_;
  op::JacobiOperator jacobi_;
  transport::InprocTransport tx_;
  WallTimer clock_;
  MpOptions opt_;
};

TEST_F(KeptBlocksWorld, EachRankKeepsItsOwnedBlocksAndTheirReadSets) {
  const la::Partition& partition = jacobi_.partition();
  std::size_t total = 0;
  for (std::uint32_t r = 0; r < kWorld; ++r) {
    std::vector<la::BlockId> expect;
    for (const la::BlockId b : la::block_share(kWorld, kWorld, r).blocks())
      for (const la::BlockId c : partition.reads(b)) expect.push_back(c);
    std::sort(expect.begin(), expect.end());
    expect.erase(std::unique(expect.begin(), expect.end()), expect.end());
    EXPECT_EQ(kept(opt_, r), expect) << "rank " << r;
    total += expect.size();
  }
  // About four blocks per rank, not the world: the tags are O(read set).
  EXPECT_LT(total, 5 * kWorld);
}

TEST_F(KeptBlocksWorld, GatedDisplacementAndElasticRanksKeepEveryBlock) {
  MpOptions gated = opt_;
  gated.solve.mode = Mode::kSsp;
  EXPECT_EQ(kept(gated, 3).size(), kWorld);
  MpOptions displacement = opt_;
  displacement.solve.x_star.reset();
  displacement.solve.displacement_tol = 1e-6;
  EXPECT_EQ(kept(displacement, 3).size(), kWorld);
  MpOptions elastic = opt_;
  elastic.membership.enabled = true;
  membership::SwimAgent agent(3, kWorld, elastic.membership, elastic.seed);
  EXPECT_EQ(kept(elastic, 3, &agent).size(), kWorld);
  // The same rank keeps only its neighbourhood when async with an
  // oracle stop.
  EXPECT_LT(kept(opt_, 3).size(), kWorld);
}

// ------------------------------------------------------------ end-to-end

class MpRuntimeFixture : public ::testing::Test {
 protected:
  MpRuntimeFixture() : rng_(61) {
    sys_ = problems::make_diagonally_dominant_system(128, 4, 2.0, rng_);
    partition_ = la::Partition::balanced(sys_.dim(), 16);
    jacobi_ = std::make_unique<op::JacobiOperator>(sys_.a, sys_.b,
                                                   partition_);
    x_star_ = op::picard_solve(*jacobi_, la::zeros(sys_.dim()), 50000,
                               1e-14);
  }

  MpOptions base_options() const {
    MpOptions opt;
    opt.workers = 4;
    opt.chaos.delivery.min_latency = 1e-4;
    opt.chaos.delivery.max_latency = 1e-3;
    opt.solve.tol = 1e-9;
    opt.solve.x_star = x_star_;
    opt.solve.max_seconds = 20.0;
    opt.solve.max_updates = 100000000;
    return opt;
  }

  Rng rng_;
  problems::LinearSystem sys_;
  la::Partition partition_;
  std::unique_ptr<op::JacobiOperator> jacobi_;
  la::Vector x_star_;
};

// Wall-clock canary: the virtual-time twin (simnet_test's
// AllThreeModesConvergeInVirtualTime) carries the convergence coverage
// with no wall budget at all; this original stays to exercise the real
// threaded runtime under real time.
TEST_F(MpRuntimeFixture, AllThreeModesConverge) {
  for (const Mode mode : {Mode::kAsync, Mode::kSsp, Mode::kBsp}) {
    MpOptions opt = base_options();
    opt.solve.mode = mode;
    opt.solve.staleness = 2;
    // Loaded host: compress the injected chaos window so the real-time
    // canary measures the runtime, not the CI scheduler.
    chaos_tuning::scale_latency_window("AllThreeModesConverge",
                                       opt.chaos.delivery.min_latency,
                                       opt.chaos.delivery.max_latency);
    // Shares the ChaosOverTcp wall-budget flake history (ROADMAP): run
    // fully traced under a watchdog 2s inside the 20s budget so an
    // overrun dumps the per-thread event rings instead of timing out
    // with no diagnostic.
    opt.obs.trace_level = obs::TraceLevel::kFull;
    obs::Watchdog dog(18.0, std::string("AllThreeModesConverge mode ") +
                                std::to_string(static_cast<int>(mode)));
    auto result = net::run_message_passing(*jacobi_, la::zeros(sys_.dim()),
                                           opt);
    dog.disarm();
    EXPECT_FALSE(dog.fired()) << "solve overran the 18s watchdog";
    EXPECT_TRUE(result.converged) << "mode " << static_cast<int>(mode)
                                  << " error " << result.final_error;
    EXPECT_GT(result.total_updates, 0u);
    EXPECT_GT(result.messages_delivered, 0u);
    EXPECT_GT(result.delays.count(), 0u);  // delays measured, not assumed
    EXPECT_GT(result.delays.mean(), 0.0);
    EXPECT_EQ(result.updates_per_worker.size(), 4u);
  }
}

TEST_F(MpRuntimeFixture, ConvergenceParityWithSharedMemoryRuntime) {
  // the same Jacobi problem through the shared-memory threads and through
  // message passing: both reach the same fixed point to oracle tolerance
  rt::RuntimeOptions shared_opt;
  shared_opt.workers = 2;
  shared_opt.tol = 1e-9;
  shared_opt.x_star = x_star_;
  shared_opt.max_seconds = 20.0;
  auto shared = rt::run_async_threads(*jacobi_, la::zeros(sys_.dim()),
                                      shared_opt);
  ASSERT_TRUE(shared.converged);

  MpOptions opt = base_options();
  auto mp = net::run_message_passing(*jacobi_, la::zeros(sys_.dim()), opt);
  ASSERT_TRUE(mp.converged);
  EXPECT_LT(la::dist_inf(mp.x, shared.x), 1e-7);
}

TEST_F(MpRuntimeFixture, QuadraticParityWithSharedMemoryRuntime) {
  Rng rng(62);
  auto f = problems::make_separable_quadratic(64, 1.0, 8.0, rng);
  const double gamma = 2.0 / (f->mu() + f->lipschitz());
  la::Partition partition = la::Partition::balanced(64, 8);
  op::GradientOperator grad(*f, gamma, partition);
  const la::Vector& x_bar = f->minimizer();

  rt::RuntimeOptions shared_opt;
  shared_opt.workers = 2;
  shared_opt.tol = 1e-9;
  shared_opt.x_star = x_bar;
  shared_opt.max_seconds = 20.0;
  auto shared = rt::run_async_threads(grad, la::zeros(64), shared_opt);
  ASSERT_TRUE(shared.converged);

  for (const Mode mode : {Mode::kAsync, Mode::kSsp, Mode::kBsp}) {
    MpOptions opt = base_options();
    opt.workers = 4;
    opt.solve.mode = mode;
    opt.solve.x_star = x_bar;
    auto mp = net::run_message_passing(grad, la::zeros(64), opt);
    ASSERT_TRUE(mp.converged) << "mode " << static_cast<int>(mode)
                              << " error " << mp.final_error;
    EXPECT_LT(la::dist_inf(mp.x, x_bar), 1e-8);
  }
}

TEST_F(MpRuntimeFixture, NonFifoChannelsProduceLabelInversions) {
  // wide latency spread + non-FIFO links: later messages overtake earlier
  // ones, so receivers observe out-of-order tags on real threads
  MpOptions opt = base_options();
  opt.solve.mode = Mode::kAsync;
  opt.chaos.delivery.min_latency = 1e-4;
  opt.chaos.delivery.max_latency = 5e-3;
  opt.solve.overwrite = OverwritePolicy::kLastArrivalWins;
  auto raw = net::run_message_passing(*jacobi_, la::zeros(sys_.dim()), opt);
  EXPECT_TRUE(raw.converged);  // paper: convergence despite inversions
  EXPECT_GT(raw.inversions_observed, 0u);
  EXPECT_EQ(raw.stale_filtered, 0u);  // last-arrival-wins filters nothing

  opt.solve.overwrite = OverwritePolicy::kNewestTagWins;
  auto filtered = net::run_message_passing(*jacobi_, la::zeros(sys_.dim()),
                                           opt);
  EXPECT_TRUE(filtered.converged);
  EXPECT_GT(filtered.inversions_observed, 0u);
  EXPECT_GT(filtered.stale_filtered, 0u);  // ...newest-tag-wins does
}

TEST_F(MpRuntimeFixture, FifoChannelsDeliverInOrder) {
  MpOptions opt = base_options();
  opt.chaos.delivery.fifo = true;
  opt.chaos.delivery.min_latency = 1e-4;
  opt.chaos.delivery.max_latency = 5e-3;
  auto result = net::run_message_passing(*jacobi_, la::zeros(sys_.dim()),
                                         opt);
  EXPECT_TRUE(result.converged);
  // per-link FIFO + monotone tags per block: no inversions possible
  EXPECT_EQ(result.inversions_observed, 0u);
}

TEST_F(MpRuntimeFixture, SurvivesMessageLoss) {
  MpOptions opt = base_options();
  opt.solve.mode = Mode::kAsync;
  opt.chaos.delivery.drop_prob = 0.3;
  auto result = net::run_message_passing(*jacobi_, la::zeros(sys_.dim()),
                                         opt);
  EXPECT_TRUE(result.converged) << "error " << result.final_error;
  EXPECT_GT(result.messages_dropped, 0u);
}

TEST_F(MpRuntimeFixture, FlexibleCommunicationSendsPartials) {
  MpOptions opt = base_options();
  opt.solve.inner_steps = 4;
  opt.solve.publish_partials = true;
  auto result = net::run_message_passing(*jacobi_, la::zeros(sys_.dim()),
                                         opt);
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.partials_sent, 0u);
}

TEST_F(MpRuntimeFixture, DisplacementStoppingWithoutOracle) {
  MpOptions opt = base_options();
  opt.solve.x_star.reset();
  opt.solve.displacement_tol = 1e-10;
  auto result = net::run_message_passing(*jacobi_, la::zeros(sys_.dim()),
                                         opt);
  EXPECT_LT(result.total_updates, opt.solve.max_updates);
  EXPECT_LT(la::dist_inf(result.x, x_star_), 1e-7);
}

TEST_F(MpRuntimeFixture, EveryUpdateEventNamesItsRank) {
  // The obs rings are the one trace of a thread-mode run: counted per
  // stamped rank, the block-update events are each rank's own updates.
  MpOptions opt = base_options();
  opt.obs.trace_level = obs::TraceLevel::kFull;
  opt.obs.trace_ring_capacity = 1 << 16;
  // No criterion, so every rank runs exactly its update budget, and the
  // budget bounds what each rank's ring must hold. Per own update a rank
  // records one kBlockUpdate and, per reader (at most W - 1), one
  // kFrameSend (nothing is dropped). It drains once per update and once
  // per sweep (at most 2B + 1 drains), each drain recording at most one
  // kQueueDepth: the mailboxes record none of their own. It receives at
  // most one value frame per update of each other rank, each a
  // kFrameRecv and at most one kInversion. Last comes its
  // kStopDecision; a budget stop in the asynchronous mode sends no kStop.
  opt.solve.x_star.reset();
  opt.solve.max_updates = 2000;
  const std::uint64_t budget = opt.solve.max_updates;
  const std::uint64_t w = opt.workers;
  const std::uint64_t ceiling =
      budget * w + (2 * budget + 1) + 2 * (w - 1) * budget + 1;
  // A ring keeps its newest capacity - 1 events readable.
  ASSERT_LT(ceiling, opt.obs.trace_ring_capacity);
  const auto result = net::run_message_passing(*jacobi_,
                                               la::zeros(sys_.dim()), opt);
  ASSERT_EQ(result.obs_events_dropped, 0u) << "a ring wrapped";
  EXPECT_EQ(result.updates_per_worker,
            std::vector<std::uint64_t>(opt.workers, budget));
  EXPECT_EQ(count_per_rank(result.updates_per_worker.size(),
                           obs::EventType::kBlockUpdate, 0),
            result.updates_per_worker);
}

// ------------------------------------------------------- the stop rule

TEST_F(MpRuntimeFixture, AsyncOracleStopsLandOnSweepBoundaries) {
  // Each rank checks the oracle on its private view at the end of every
  // own sweep, so a converged rank has run whole sweeps only. Three
  // ranks over 16 blocks own 6, 5 and 5 of them.
  MpOptions opt = base_options();
  opt.workers = 3;
  const auto r = net::run_message_passing(*jacobi_, la::zeros(sys_.dim()),
                                          opt);
  ASSERT_TRUE(r.converged) << "error " << r.final_error;
  ASSERT_EQ(r.updates_per_worker.size(), 3u);
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_GT(r.updates_per_worker[p], 0u);
    EXPECT_EQ(r.updates_per_worker[p] % la::block_share(16, 3, p).count, 0u)
        << "rank " << p << " updates " << r.updates_per_worker[p];
  }
}

TEST_F(MpRuntimeFixture, UpdateBudgetIsPerRankAndExact) {
  // With no criterion, every rank runs its own budget to the update —
  // whatever the check cadence and however the others fare.
  MpOptions opt = base_options();
  opt.solve.x_star.reset();
  opt.solve.max_updates = 64;
  opt.solve.check_every = 16;
  const auto r = net::run_message_passing(*jacobi_, la::zeros(sys_.dim()),
                                          opt);
  ASSERT_EQ(r.updates_per_worker.size(), 4u);
  for (std::size_t p = 0; p < 4; ++p)
    EXPECT_EQ(r.updates_per_worker[p], 64u) << "rank " << p;
  EXPECT_EQ(r.total_updates, 4u * 64u);
}

// -------------------------------------------------- snapshot-join dedupe

TEST(SnapshotPlan, PartitionsBlocksDisjointlyAcrossEstablishedRanks) {
  // Every established rank runs the plan for the SAME joiner: the shares
  // must cover all blocks exactly once — the whole point of the dedupe
  // is that a joiner hears each block from one rank, not every owner.
  const std::vector<std::uint32_t> live{0, 1, 2, 5};
  std::vector<int> seen(10, 0);
  for (const std::uint32_t self : {0u, 1u, 2u}) {
    for (const la::BlockId b : snapshot_plan(10, live, self, 5)) {
      ASSERT_LT(b, 10u);
      ++seen[b];
    }
  }
  for (const int c : seen) EXPECT_EQ(c, 1);
  // The joiner itself plans nothing (it has nothing to welcome itself
  // with), and a rank outside the live view plans nothing either.
  EXPECT_TRUE(snapshot_plan(10, live, 5, 5).empty());
  EXPECT_TRUE(snapshot_plan(10, live, 7, 5).empty());
  // More established ranks than blocks: the surplus ranks send nothing,
  // the first `blocks` ranks send one block each.
  const std::vector<std::uint32_t> crowd{0, 1, 2, 3, 4};
  std::vector<int> seen2(3, 0);
  std::size_t senders = 0;
  for (const std::uint32_t self : {0u, 1u, 2u, 3u}) {
    const auto plan = snapshot_plan(3, crowd, self, 4);
    if (!plan.empty()) ++senders;
    for (const la::BlockId b : plan) ++seen2[b];
  }
  EXPECT_EQ(senders, 3u);
  for (const int c : seen2) EXPECT_EQ(c, 1);
}

// ------------------------------------------------------- wire efficiency

TEST_F(MpRuntimeFixture, DeltaEncodingKeepsBspFinalsInTheOracleBand) {
  // Exact deltas deliver the identical doubles a full frame would, so
  // the barriered computation is unchanged — but a rank that stops on a
  // peer's kStop may already have finished one more sweep on real
  // threads, so the two runs may halt a round apart. The band is
  // therefore 2x the post-stop tolerance band, not bitwise equality (the
  // bit-for-bit contract lives in simnet_test, where the schedule itself
  // is deterministic).
  MpOptions off = base_options();
  off.solve.mode = Mode::kBsp;
  off.solve.tol = 1e-9;
  const auto base = net::run_message_passing(*jacobi_, la::zeros(sys_.dim()),
                                             off);
  ASSERT_TRUE(base.converged) << "error " << base.final_error;

  MpOptions on = off;
  on.wire.delta = true;
  on.wire.refresh_every = 8;
  const auto delta = net::run_message_passing(*jacobi_, la::zeros(sys_.dim()),
                                              on);
  ASSERT_TRUE(delta.converged) << "error " << delta.final_error;
  EXPECT_LT(la::dist_inf(base.x, delta.x), 2e-8);

  // Accounting invariants: every publish lands in exactly one frame
  // class, and the wire never costs more than the raw encoding.
  EXPECT_GT(delta.wire_frames_full, 0u);
  EXPECT_GT(delta.wire_frames_full + delta.wire_frames_delta +
                delta.wire_frames_heartbeat,
            0u);
  EXPECT_LE(delta.bytes_sent_wire, delta.bytes_sent_raw);
  EXPECT_GT(delta.bytes_sent_raw, 0u);
  // The delta-off run pays raw cost on the wire by definition.
  EXPECT_EQ(base.bytes_sent_wire, base.bytes_sent_raw);
}

TEST_F(MpRuntimeFixture, DeltaEncodingConvergesInAsyncAndSspModes) {
  for (const Mode mode : {Mode::kAsync, Mode::kSsp}) {
    MpOptions opt = base_options();
    opt.solve.mode = mode;
    opt.solve.staleness = 2;
    opt.wire.delta = true;
    opt.wire.refresh_every = 8;
    const auto r = net::run_message_passing(*jacobi_, la::zeros(sys_.dim()),
                                            opt);
    EXPECT_TRUE(r.converged) << "mode " << static_cast<int>(mode)
                             << " error " << r.final_error;
    EXPECT_LT(la::dist_inf(r.x, x_star_), 1e-7);
    EXPECT_LE(r.bytes_sent_wire, r.bytes_sent_raw);
  }
}

TEST_F(MpRuntimeFixture, LossyCodecStaysWithinResidualTolerance) {
  // Top-k + quantization are LOSSY between refreshes: the gate is a
  // residual band around the uncompressed oracle, not bit equality. The
  // quantization floor is range * 2^-bits per delivery, far below the
  // 1e-3 tolerance used here; the periodic full refresh bounds top-k
  // drift.
  for (const Mode mode : {Mode::kAsync, Mode::kSsp, Mode::kBsp}) {
    MpOptions opt = base_options();
    opt.solve.mode = mode;
    opt.solve.staleness = 2;
    opt.solve.tol = 1e-3;
    opt.wire.delta = true;
    opt.wire.topk = 4;  // narrower than the 8-wide blocks
    opt.wire.quant_bits = 16;
    opt.wire.refresh_every = 4;
    const auto r = net::run_message_passing(*jacobi_, la::zeros(sys_.dim()),
                                            opt);
    EXPECT_TRUE(r.converged) << "mode " << static_cast<int>(mode)
                             << " error " << r.final_error;
    EXPECT_LT(la::dist_inf(r.x, x_star_), 1e-2);
    EXPECT_GT(r.wire_frames_codec, 0u);
    // Quantized payloads are strictly smaller than raw doubles.
    EXPECT_LT(r.bytes_sent_wire, r.bytes_sent_raw);
  }
}

TEST(MpRuntimeValidation, RejectsBadConfigurations) {
  Rng rng(63);
  auto sys = problems::make_diagonally_dominant_system(8, 2, 2.0, rng);
  op::JacobiOperator jac(sys.a, sys.b, la::Partition::balanced(8, 4));
  MpOptions opt;
  opt.workers = 5;  // only 4 blocks
  EXPECT_THROW(net::run_message_passing(jac, la::zeros(8), opt), asyncit::CheckError);
  opt.workers = 2;
  opt.chaos.delivery.min_latency = 2.0;
  opt.chaos.delivery.max_latency = 1.0;  // inverted range
  EXPECT_THROW(net::run_message_passing(jac, la::zeros(8), opt), asyncit::CheckError);
}

}  // namespace
}  // namespace asyncit::net
