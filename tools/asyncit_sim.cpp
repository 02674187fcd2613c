// asyncit_sim — a whole simulated world in one process (transport sim).
//
// Where asyncit_node hosts ONE rank on real sockets, asyncit_sim hosts
// EVERY rank of the configured world as cooperative fibers over the
// simnet/ virtual-time engine: 1000-rank unbounded-delay scenarios run
// on one core in seconds, deterministically — same config + seed, same
// event log, bit for bit. scripts/sim_sweep.py writes the config
// (validated against --schema, exactly like launch_cluster.py) and
// asserts on the summary line.
//
// Usage:
//   asyncit_sim --config sweep.cfg [--quiet] [--max-wall <sec>]
//   asyncit_sim --schema           # the node_config key table as JSON
//
// The config file is the asyncit_node schema (node_config.{hpp,cpp} —
// one SSOT for both tools) with `transport sim` and the sim_* topology /
// compute keys; node address lines are not needed. Only the solve
// workload runs here (the train-over-sim path is exercised through
// simnet::run_train_world in tests/simnet_test.cpp).
//
// Determinism is not assumed, it is CHECKED: the world runs `sim_runs`
// times and the tool fails unless every run reproduces the first run's
// event-log hash and final residual exactly. --max-wall N fails the run
// if the total wall clock across runs exceeds N seconds (the CI scale
// smoke's < 60 s acceptance gate).
//
// Output: one `ASYNCIT_SIM_JSON {...}` line (schema asyncit-sim/1):
//   world, mode, runs, deterministic, ok, converged_ranks, events,
//   events_per_sec, virtual_seconds, wall_seconds, final_residual,
//   log_hash (hex), updates, sent/delivered/dropped/partition_dropped,
//   wall_ok, peak_rss_mb (the process's peak resident set, ru_maxrss).
// Exit 0 iff every rank converged (or sits in the 10x stopped-peer band
// asyncit_node accepts), every run agreed, and --max-wall held.
#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "asyncit/asyncit.hpp"
#include "asyncit/net/node_config.hpp"
#include "asyncit/simnet/world.hpp"

namespace {

using namespace asyncit;

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "asyncit_sim: %s\n", msg.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_path;
  bool quiet = false;
  double max_wall = 0.0;  // 0 = no wall gate
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--schema") {
      std::printf("%s\n", net::node_config_schema_json().c_str());
      return 0;
    } else if (arg == "--config" && i + 1 < argc) {
      config_path = argv[++i];
    } else if (arg == "--max-wall" && i + 1 < argc) {
      max_wall = std::atof(argv[++i]);
      if (max_wall <= 0.0) die("--max-wall needs a positive value");
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      die("usage: asyncit_sim --config <file> [--quiet] "
          "[--max-wall <sec>] | asyncit_sim --schema");
    }
  }
  if (config_path.empty())
    die("usage: asyncit_sim --config <file> [--quiet] "
        "[--max-wall <sec>] | asyncit_sim --schema");

  net::NodeConfig cfg;
  std::string error;
  if (!net::load_node_config(config_path, cfg, error)) die(error);
  if (!cfg.sim) die("config must set `transport sim` (this is the "
                    "single-process virtual-time driver)");
  if (cfg.workload != net::Workload::kSolve)
    die("asyncit_sim runs the solve workload only");
  if (cfg.blocks < cfg.world)
    die("blocks must be >= world (every rank owns at least one block)");

  // The identical seeded problem every distributed rank would build.
  Rng rng(cfg.seed);
  auto sys = problems::make_diagonally_dominant_system(cfg.dim, cfg.nnz,
                                                       cfg.dominance, rng);
  la::Partition partition = la::Partition::balanced(cfg.dim, cfg.blocks);
  op::JacobiOperator jacobi(sys.a, sys.b, partition);
  const la::Vector x_star =
      op::picard_solve(jacobi, la::zeros(cfg.dim), 50000, 1e-14);

  simnet::WorldOptions wo;
  wo.mp = net::solve_options(cfg);
  wo.mp.solve.x_star = x_star;
  wo.sim = cfg.simcfg;
  wo.chaos = cfg.chaos;
  wo.chaos_policy = cfg.chaos_policy;

  WallTimer wall;
  bool deterministic = true;
  bool converged_ok = true;
  std::size_t converged_ranks = 0;
  std::uint64_t first_hash = 0;
  double first_residual = 0.0;
  simnet::WorldResult last;
  for (std::size_t run = 0; run < cfg.sim_runs; ++run) {
    simnet::WorldResult r = simnet::run_world(jacobi, la::zeros(cfg.dim), wo);
    if (run == 0) {
      first_hash = r.log_hash;
      first_residual = r.final_residual;
      converged_ranks = 0;
      converged_ok = true;
      for (const net::MpResult& rank : r.ranks) {
        // Same acceptance as asyncit_node: below tol, or within the 10x
        // band when another rank's stop announcement ended this one.
        const bool ok =
            rank.converged || (rank.peers_stopped > 0 &&
                               rank.final_error >= 0.0 &&
                               rank.final_error < 10.0 * cfg.tol);
        converged_ranks += rank.converged ? 1 : 0;
        converged_ok = converged_ok && ok;
      }
    } else if (r.log_hash != first_hash ||
               r.final_residual != first_residual) {
      deterministic = false;
      std::fprintf(stderr,
                   "asyncit_sim: run %zu DIVERGED: hash %016" PRIx64
                   " vs %016" PRIx64 ", residual %.17g vs %.17g\n",
                   run, r.log_hash, first_hash, r.final_residual,
                   first_residual);
    }
    if (!quiet)
      std::printf("[run %zu] %" PRIu64 " events, %.3f virtual s, "
                  "%.3f wall s, residual %.3e, hash %016" PRIx64 "\n",
                  run, r.events, r.virtual_seconds, r.wall_seconds,
                  r.final_residual, r.log_hash);
    // The summary reads only the world-level fields: drop the per-rank
    // results (world x dim doubles) before the next run executes.
    r.ranks = {};
    last = std::move(r);
  }
  const double total_wall = wall.seconds();
  const bool wall_ok = max_wall <= 0.0 || total_wall <= max_wall;
  if (!wall_ok)
    std::fprintf(stderr,
                 "asyncit_sim: wall budget exceeded: %.3f s > %.3f s\n",
                 total_wall, max_wall);

  const bool ok = converged_ok && deterministic && wall_ok;
  const double events_per_sec =
      total_wall > 0.0
          ? double(last.events) * double(cfg.sim_runs) / total_wall
          : 0.0;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  std::printf(
      "ASYNCIT_SIM_JSON {\"schema\":\"asyncit-sim/1\",\"world\":%zu,"
      "\"mode\":\"%s\",\"runs\":%zu,\"deterministic\":%s,\"ok\":%s,"
      "\"converged_ranks\":%zu,\"events\":%" PRIu64
      ",\"events_per_sec\":%.9g,\"virtual_seconds\":%.6f,"
      "\"wall_seconds\":%.6f,\"final_residual\":%.17g,"
      "\"log_hash\":\"%016" PRIx64 "\",\"updates\":%" PRIu64
      ",\"sent\":%" PRIu64 ",\"delivered\":%" PRIu64 ",\"dropped\":%" PRIu64
      ",\"partition_dropped\":%" PRIu64 ",\"wall_ok\":%s,"
      "\"peak_rss_mb\":%.1f}\n",
      cfg.world,
      cfg.mode == net::Mode::kAsync ? "async"
      : cfg.mode == net::Mode::kSsp ? "ssp"
                                    : "bsp",
      cfg.sim_runs, deterministic ? "true" : "false",
      ok ? "true" : "false", converged_ranks, last.events, events_per_sec,
      last.virtual_seconds, total_wall, last.final_residual, last.log_hash,
      last.total_updates, last.messages_sent, last.messages_delivered,
      last.messages_dropped, last.partition_dropped, wall_ok ? "true" : "false",
      peak_rss_mb);
  return ok ? 0 : 1;
}
