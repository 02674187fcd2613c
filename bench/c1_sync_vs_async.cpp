// C1 — "asynchronous iterations get rid of synchronization waiting, cope
// naturally with load unbalancing, and their efficiency/scalability beats
// their synchronous counterparts" (paper §II).
//
// Two measurements:
//  (a) VIRTUAL TIME (simulator, 8 processors): time-to-epsilon of async vs
//      barrier-synchronous execution while one straggler processor is
//      1x..16x slower than the rest. Sync degrades linearly with the
//      straggler; async degrades only mildly.
//  (b) WALL CLOCK (threads, lasso problem): same comparison with worker
//      slowdown injection on the real machine.
//
// Shape to hold: async time-to-eps < sync whenever heterogeneity > 1x, and
// the gap widens with the slowdown factor.
#include <cstdio>

#include "asyncit/asyncit.hpp"
#include "harness/bench_harness.hpp"

using namespace asyncit;

namespace {

std::vector<std::unique_ptr<sim::ComputeTimeModel>> straggler_fleet(
    std::size_t procs, double slow_factor) {
  std::vector<std::unique_ptr<sim::ComputeTimeModel>> v;
  v.push_back(sim::make_fixed_compute(slow_factor));
  for (std::size_t p = 1; p < procs; ++p)
    v.push_back(sim::make_fixed_compute(1.0));
  return v;
}

}  // namespace

int main() {
  std::printf("== C1: synchronous vs asynchronous under load imbalance ==\n\n");

  // ---------- (a) virtual time, 8 simulated processors ----------
  Rng rng(21);
  auto sys = problems::make_diagonally_dominant_system(64, 4, 2.0, rng);
  op::JacobiOperator jac(sys.a, sys.b, la::Partition::scalar(64));
  const la::Vector x_star = op::picard_solve(jac, la::zeros(64), 50000,
                                             1e-14);

  bench::Report report("c1_sync_vs_async");
  std::printf("(a) simulator: 8 processors, Jacobi n=64, tol 1e-8, one "
              "straggler\n");
  TextTable ta({"straggler x", "sync vtime", "async vtime",
                "async speedup", "async steps"});
  for (const double slow : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    sim::SimOptions opt;
    opt.tol = 1e-8;
    opt.x_star = x_star;
    opt.max_steps = 2000000;
    auto lat1 = sim::make_uniform_latency(0.05, 0.15);
    auto sync_r = sim::run_sync_sim(jac, la::zeros(64),
                                    straggler_fleet(8, slow), *lat1, opt);
    auto lat2 = sim::make_uniform_latency(0.05, 0.15);
    auto async_r = sim::run_async_sim(jac, la::zeros(64),
                                      straggler_fleet(8, slow), *lat2, opt);
    ta.add_row({TextTable::num(slow, 0),
                TextTable::num(sync_r.virtual_time, 1),
                TextTable::num(async_r.virtual_time, 1),
                TextTable::num(sync_r.virtual_time /
                                   async_r.virtual_time, 2),
                std::to_string(async_r.steps)});
    report.scenario("sim_straggler_" + TextTable::num(slow, 0) + "x")
        .det("async_converged", async_r.converged)
        .det("sync_converged", sync_r.converged)
        .det("async_steps", async_r.steps)
        .det("async_vtime", async_r.virtual_time)
        .det("sync_vtime", sync_r.virtual_time);
  }
  std::printf("%s\n", ta.render().c_str());
  trace::maybe_write_csv(ta, "c1_virtual_time");

  // ---------- (b) wall clock, threaded runtime ----------
  std::printf("(b) threads: 2 workers, lasso (m=300, n=256), tol 1e-7, "
              "worker 1 slowed\n");
  Rng rng2(22);
  problems::LassoConfig cfg;
  cfg.samples = 300;
  cfg.features = 256;
  cfg.support = 25;
  cfg.ridge = 0.5;
  cfg.lambda1 = 0.05;
  auto lasso = problems::make_synthetic_lasso(cfg, rng2);
  const auto seq = solvers::solve_prox_gradient_sequential(lasso.problem,
                                                           1e-12);

  TextTable tb({"slowdown", "sync wall(s)", "async wall(s)",
                "async speedup", "async conv", "sync conv"});
  for (const double slow : {1.0, 2.0, 4.0, 8.0}) {
    solvers::ProxGradOptions opt;
    opt.workers = 2;
    opt.blocks = 32;
    opt.tol = 1e-7;
    opt.max_seconds = 15.0;
    opt.worker_slowdown = {1.0, slow};
    opt.reference = seq.x;
    auto sync_s = solvers::solve_prox_gradient_sync(lasso.problem, opt);
    auto async_s = solvers::solve_prox_gradient_async(lasso.problem, opt);
    tb.add_row({TextTable::num(slow, 0),
                TextTable::num(sync_s.wall_seconds, 3),
                TextTable::num(async_s.wall_seconds, 3),
                TextTable::num(sync_s.wall_seconds /
                                   std::max(1e-9, async_s.wall_seconds),
                               2),
                async_s.converged ? "yes" : "NO",
                sync_s.converged ? "yes" : "NO"});
    report.scenario("wall_straggler_" + TextTable::num(slow, 0) + "x")
        .det("async_converged", async_s.converged)
        .det("sync_converged", sync_s.converged)
        .metric("async_wall_s", async_s.wall_seconds)
        .metric("sync_wall_s", sync_s.wall_seconds);
  }
  std::printf("%s\n", tb.render().c_str());
  trace::maybe_write_csv(tb, "c1_wall_clock");
  report.write();

  std::printf("shape check: async speedup over sync grows with the "
              "straggler factor (sync waits, async does not).\n");
  return 0;
}
