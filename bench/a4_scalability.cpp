// A4 — scalability sweep: the paper's motivation was "massively parallel
// machines with hundred thousand processors [where] synchronization was
// the major performance-limiting factor" (§II).
//
// Simulator, processor count P ∈ {2..32} on a fixed problem (strong
// scaling), mild natural heterogeneity (phase times U(0.5, 1.5)): we
// measure time-to-epsilon for async and sync execution and the resulting
// parallel efficiency relative to P = 2.
//
// Shape to hold: sync efficiency decays with P (every round waits for the
// max of P draws — extreme-value growth of the barrier cost); async
// efficiency decays much more slowly (no waiting, only staleness).
#include <cstdio>

#include "asyncit/asyncit.hpp"
#include "harness/bench_harness.hpp"

using namespace asyncit;

int main() {
  std::printf("== A4: strong-scaling sweep (async vs sync) ==\n");
  std::printf(
      "Jacobi n=128, PERSISTENT heterogeneity: every 4th processor is 3x "
      "slower (a constant fraction of stragglers, the large-machine "
      "regime), others U(0.8,1.2); latency U(0.05,0.15), tol 1e-8\n\n");

  Rng rng(29);
  auto sys = problems::make_diagonally_dominant_system(128, 5, 2.0, rng);
  op::JacobiOperator jac(sys.a, sys.b, la::Partition::scalar(128));
  const la::Vector x_star = op::picard_solve(jac, la::zeros(128), 100000,
                                             1e-14);

  auto fleet = [&](std::size_t procs) {
    std::vector<std::unique_ptr<sim::ComputeTimeModel>> v;
    for (std::size_t p = 0; p < procs; ++p) {
      if (p % 4 == 0)
        v.push_back(sim::make_uniform_compute(2.4, 3.6));  // straggler
      else
        v.push_back(sim::make_uniform_compute(0.8, 1.2));
    }
    return v;
  };

  bench::Report report("a4_scalability");
  double async_t2 = 0.0, sync_t2 = 0.0;
  TextTable table({"procs", "async vtime", "sync vtime",
                   "async advantage", "async efficiency",
                   "sync efficiency"});
  for (const std::size_t procs : {2u, 4u, 8u, 16u, 32u}) {
    sim::SimOptions opt;
    opt.tol = 1e-8;
    opt.x_star = x_star;
    opt.max_steps = 4000000;
    auto lat1 = sim::make_uniform_latency(0.05, 0.15);
    auto a = sim::run_async_sim(jac, la::zeros(128), fleet(procs), *lat1,
                                opt);
    auto lat2 = sim::make_uniform_latency(0.05, 0.15);
    auto s = sim::run_sync_sim(jac, la::zeros(128), fleet(procs), *lat2,
                               opt);
    if (procs == 2) {
      async_t2 = a.virtual_time;
      sync_t2 = s.virtual_time;
    }
    const double sa = async_t2 / a.virtual_time;
    const double ss = sync_t2 / s.virtual_time;
    const double scale = static_cast<double>(procs) / 2.0;
    table.add_row({std::to_string(procs),
                   TextTable::num(a.virtual_time, 1),
                   TextTable::num(s.virtual_time, 1),
                   TextTable::num(s.virtual_time / a.virtual_time, 2) + "x",
                   TextTable::num(sa / scale, 2),
                   TextTable::num(ss / scale, 2)});
    // The simulator is seed-deterministic: virtual times are exact
    // machine-independent outputs, not wall-clock measurements.
    report.scenario("procs_" + std::to_string(procs))
        .det("async_converged", a.converged)
        .det("sync_converged", s.converged)
        .det("async_steps", a.steps)
        .det("async_vtime", a.virtual_time)
        .det("sync_vtime", s.virtual_time);
  }
  std::printf("%s\n", table.render().c_str());
  trace::maybe_write_csv(table, "a4_scalability");
  report.write();
  std::printf(
      "shape check: the async advantage (sync/async at equal P) sits "
      "around the straggler ratio at every P, and async scaling "
      "efficiency stays ~1 while sync's decays — the barrier re-pays the "
      "slowest member every round, async only refreshes its blocks "
      "less often.\n");
  return 0;
}
