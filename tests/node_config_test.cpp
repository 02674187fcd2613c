// Tests for the node config schema (net/node_config), the one parser both
// tools and both launchers read: minimal solve and train configs parse,
// unknown keys and malformed values fail with their `name:line:` prefix,
// and every cross-field validate() rule fails with its message.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "asyncit/net/node_config.hpp"

namespace asyncit::net {
namespace {

/// Two TCP ranks: the smallest config validate() accepts.
const std::string kTcp =
    "world 2\nnode 0 127.0.0.1 7000\nnode 1 127.0.0.1 7001\n";

bool parse(const std::string& text, NodeConfig& cfg, std::string& error) {
  std::istringstream in(text);
  return parse_node_config(in, "test.cfg", cfg, error);
}

TEST(NodeConfig, MinimalSolveConfigParses) {
  NodeConfig cfg;
  std::string error;
  ASSERT_TRUE(parse(kTcp, cfg, error)) << error;
  EXPECT_EQ(cfg.world, 2u);
  EXPECT_EQ(cfg.workload, Workload::kSolve);
  ASSERT_EQ(cfg.nodes.size(), 2u);
  EXPECT_EQ(cfg.nodes[1].host, "127.0.0.1");
  EXPECT_EQ(cfg.nodes[1].port, 7001);
}

TEST(NodeConfig, MinimalTrainConfigParsesAndFoldsSharedKeys) {
  NodeConfig cfg;
  std::string error;
  ASSERT_TRUE(parse(kTcp + "workload train  # comment\nstaleness 3\n"
                           "max_seconds 12\nbatch_size 4\n",
                    cfg, error))
      << error;
  EXPECT_EQ(cfg.workload, Workload::kTrain);
  EXPECT_EQ(cfg.sgd.batch_size, 4u);
  // Shared keys fold into the SGD options.
  EXPECT_EQ(cfg.sgd.staleness, 3u);
  EXPECT_DOUBLE_EQ(cfg.sgd.max_seconds, 12.0);
}

TEST(NodeConfig, SolveOptionsCarryEverySolveKey) {
  // Every solve, wire, membership and observability key set off its
  // default must reach the options both tools run with.
  NodeConfig cfg;
  std::string error;
  ASSERT_TRUE(parse(kTcp +
                        "seed 7\nmode ssp\nstaleness 5\ninner_steps 3\n"
                        "publish_partials 1\noverwrite newest_tag\n"
                        "tol 1e-6\nmax_seconds 9\nmax_updates 1234\n"
                        "check_every 4\nwire_delta 1\nwire_topk 12\n"
                        "wire_quant_bits 8\nwire_refresh_every 5\n"
                        "trace full\naudit 1\nping_period 0.07\n",
                    cfg, error))
      << error;
  const MpOptions opt = solve_options(cfg);
  EXPECT_EQ(opt.workers, 2u);
  EXPECT_EQ(opt.seed, 7u);
  EXPECT_EQ(opt.solve.mode, Mode::kSsp);
  EXPECT_EQ(opt.solve.staleness, 5u);
  EXPECT_EQ(opt.solve.inner_steps, 3u);
  EXPECT_TRUE(opt.solve.publish_partials);
  EXPECT_EQ(opt.solve.overwrite, OverwritePolicy::kNewestTagWins);
  EXPECT_DOUBLE_EQ(opt.solve.tol, 1e-6);
  EXPECT_DOUBLE_EQ(opt.solve.max_seconds, 9.0);
  EXPECT_EQ(opt.solve.max_updates, 1234u);
  EXPECT_EQ(opt.solve.check_every, 4u);
  EXPECT_FALSE(opt.solve.x_star.has_value());  // the caller's to set
  EXPECT_TRUE(opt.wire.delta);
  EXPECT_EQ(opt.wire.topk, 12u);
  EXPECT_EQ(opt.wire.quant_bits, 8u);
  EXPECT_EQ(opt.wire.refresh_every, 5u);
  EXPECT_EQ(opt.obs.trace_level, obs::TraceLevel::kFull);
  EXPECT_TRUE(opt.obs.audit);
  EXPECT_DOUBLE_EQ(opt.membership.ping_period, 0.07);
  EXPECT_FALSE(opt.membership.enabled);

  // Membership needs mode async, so it gets a config of its own.
  NodeConfig elastic;
  ASSERT_TRUE(parse(kTcp + "membership 1\n", elastic, error)) << error;
  EXPECT_TRUE(solve_options(elastic).membership.enabled);
  EXPECT_EQ(solve_options(elastic).membership.initial_alive,
            (std::vector<std::uint32_t>{0, 1}));
}

TEST(NodeConfig, UnknownKeysAndMalformedValuesNameTheirLine) {
  struct Case {
    std::string text;
    std::string error;
  };
  const Case cases[] = {
      {"world 2\nbogus 1\n", "test.cfg:2: unknown key bogus"},
      {"world 2\n\n# comment only\ndim x\n",
       "test.cfg:4: bad value (key dim)"},
      {"world 2\nmode fast\n", "test.cfg:2: unknown mode fast (key mode)"},
      {"node 0 127.0.0.1 7000\n",
       "test.cfg:1: node rank out of range (put world first) (key node)"},
  };
  for (const Case& c : cases) {
    NodeConfig cfg;
    std::string error;
    EXPECT_FALSE(parse(c.text, cfg, error)) << c.text;
    EXPECT_EQ(error, c.error) << c.text;
  }
}

TEST(NodeConfig, EveryValidationRuleFailsWithItsMessage) {
  struct Case {
    std::string text;
    std::string message;
  };
  const Case cases[] = {
      {"world 1\nnode 0 127.0.0.1 7000\n", "config needs world >= 2"},
      {"world 2\nnode 0 127.0.0.1 7000\n",
       "config missing node line for rank 1"},
      {"world 2\ntransport sim\nsim_runs 0\n", "sim_runs must be >= 1"},
      {kTcp + "membership 1\nlate 2\n", "late rank out of range"},
      {kTcp + "late 1\n", "late ranks require membership 1"},
      {kTcp + "membership 1\nworkload train\n",
       "membership rides the solve runtime; the train workload uses plain "
       "elastic TCP (elastic 1)"},
      {kTcp + "membership 1\nmode ssp\n",
       "membership requires mode async (elastic ranks would deadlock a "
       "gated round structure)"},
      {kTcp + "wire_delta 1\nwire_quant_bits 4\n",
       "wire_quant_bits must be 0, 8, or 16"},
      {kTcp + "wire_refresh_every 0\n", "wire_refresh_every must be >= 1"},
      {kTcp + "wire_topk 4\n",
       "wire_topk / wire_quant_bits require wire_delta 1"},
      {kTcp + "stream_interval 0.5\ntrace full\n",
       "stream_interval requires trace full and trace_dir"},
      {kTcp + "workload train\nridge 0\n", "train workload needs ridge > 0"},
      {kTcp + "workload train\nsamples 0\n",
       "train workload needs at least one dataset row per worker"},
      {kTcp + "workload train\nbatch_size 0\n",
       "train workload needs batch_size >= 1"},
  };
  for (const Case& c : cases) {
    NodeConfig cfg;
    std::string error;
    EXPECT_FALSE(parse(c.text, cfg, error)) << c.text;
    EXPECT_EQ(error, "test.cfg: " + c.message) << c.text;
  }
}

}  // namespace
}  // namespace asyncit::net
