// C14 — simnet scenario sweeps: whole asynchronous worlds on one core.
//
// The thread-backed benches top out near the host's core count; the
// discrete-event engine replaces threads with fibers and the wall clock
// with virtual time, so world sizes grow three orders of magnitude while
// every run stays exactly reproducible. This bench solves the seeded
// Jacobi system at 100, 1,000 and 10,000 ranks (one block per rank,
// tol 1e-6, one config for all three) and checks the two properties the
// simulator exists for:
//
//   determinism  every world runs TWICE; the event-log hashes and final
//                residuals must match bitwise (hard det gate);
//   throughput   dispatched events per wall second, host nanoseconds
//                per event and per frame, and the wall cost of each
//                world (warn-only: host-dependent — the < 60 s
//                acceptance bar is enforced by the sim_scale_smoke ctest
//                leg in Release, not here).
//
// Each rank publishes its block only to the ranks that read it (the
// Jacobi operator's read sets: about 3 readers per block under this
// generator), and stops when its own block is within tol, so frame count
// scales O(world * sweeps): the 10,000-rank run moves 137k frames.
// Events, frames and updates are pure functions of (config, seed),
// recorded as deterministic fields and gated with `equals`. After each
// sweep the process peak RSS (ru_maxrss) is recorded as a measured
// field; the baseline holds the 1,000- and 10,000-rank ones to a hard
// max. Each rank's private view holds values and tags only for the
// blocks it owns or reads (about four here), and the whole world shares
// one dense compute buffer, so memory grows with the world, not its
// square. A sweep keeps only the first run's witnesses, not its
// per-rank views, while the second run executes.
//
// BENCH_simnet.json via the shared harness; gated by CI perf-smoke
// against bench/baselines/simnet.json.
#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "asyncit/asyncit.hpp"
#include "asyncit/simnet/world.hpp"
#include "harness/bench_harness.hpp"

using namespace asyncit;

namespace {

struct SweepResult {
  simnet::WorldResult first;  ///< the first run, without its `ranks`
  bool deterministic = false;
  double wall_total = 0.0;
};

/// Builds the world-sized seeded Jacobi problem (one block per rank) and
/// runs it twice through run_world, comparing the determinism witnesses.
SweepResult sweep(std::size_t world) {
  Rng rng(97);
  auto sys = problems::make_diagonally_dominant_system(world, 3, 8.0, rng);
  la::Partition partition = la::Partition::balanced(world, world);
  op::JacobiOperator jacobi(sys.a, sys.b, partition);

  simnet::WorldOptions o;
  o.mp.workers = world;
  o.mp.seed = 97;
  o.mp.solve.tol = 1e-6;
  o.mp.solve.x_star = op::picard_solve(jacobi, la::zeros(world), 50000, 1e-14);
  o.mp.solve.max_seconds = 300.0;
  o.mp.solve.max_updates = 100000000;
  // Every rank checks the oracle at the end of each own sweep (one
  // block per rank here, so after every update) and stops at its first
  // sweep under tol; check_every only paces the wall-budget check.
  o.mp.solve.check_every = 4;
  // latency/phase = 0.1 keeps about a tenth of each rank's publishes
  // in flight at any instant.
  o.sim.compute.phase = 1e-3;
  o.sim.compute.jitter = 0.3;
  o.sim.topology.latency = 1e-4;
  o.sim.topology.jitter = 0.5;

  SweepResult r;
  WallTimer wall;
  r.first = simnet::run_world(jacobi, la::zeros(world), o);
  // Nothing below reads the per-rank results (a 776 B MpResult plus the
  // blocks its view kept, per rank): free them before the second run.
  r.first.ranks = {};
  const simnet::WorldResult again =
      simnet::run_world(jacobi, la::zeros(world), o);
  r.wall_total = wall.seconds();
  r.deterministic = r.first.log_hash == again.log_hash &&
                    r.first.events == again.events &&
                    r.first.final_residual == again.final_residual;
  return r;
}

/// The process's peak resident set so far, in MB.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void record(bench::Report& report, const std::string& name,
            const SweepResult& r) {
  // Host nanoseconds per dispatched event and per frame sent, over both
  // runs of the world.
  const auto ns_per = [&](std::uint64_t count) {
    return count > 0 ? r.wall_total * 1e9 / (2.0 * static_cast<double>(count))
                     : 0.0;
  };
  report.scenario(name)
      .det("deterministic", r.deterministic)
      .det("converged", r.first.all_converged)
      .det("residual_band", r.first.final_residual < 1e-5)
      .det("events", r.first.events)
      .det("messages_sent", r.first.messages_sent)
      .det("total_updates", r.first.total_updates)
      .metric("events_per_sec",
              r.wall_total > 0.0
                  ? 2.0 * static_cast<double>(r.first.events) / r.wall_total
                  : 0.0)
      .metric("ns_per_event", ns_per(r.first.events))
      .metric("ns_per_frame", ns_per(r.first.messages_sent))
      .metric("virtual_seconds", r.first.virtual_seconds)
      .metric("wall_seconds", r.wall_total)
      .metric("peak_rss_mb", peak_rss_mb());
}

}  // namespace

int main() {
  std::printf("== C14: simnet virtual-time scenario sweeps ==\n\n");
  bench::Report report("simnet");
  TextTable t({"world", "conv", "det", "events", "virt(s)", "wall(s)",
               "ev/s"});

  for (const std::size_t world :
       {std::size_t{100}, std::size_t{1000}, std::size_t{10000}}) {
    const SweepResult r = sweep(world);
    t.add_row({std::to_string(world), r.first.all_converged ? "yes" : "NO",
               r.deterministic ? "yes" : "NO",
               std::to_string(r.first.events),
               TextTable::num(r.first.virtual_seconds, 4),
               TextTable::num(r.wall_total, 3),
               TextTable::num(2.0 * double(r.first.events) / r.wall_total,
                              0)});
    record(report, "sweep_" + std::to_string(world), r);
  }

  std::printf("%s\n", t.render().c_str());
  trace::maybe_write_csv(t, "c14_simnet");
  report.write();
  std::printf("shape check: every world converges (tol 1e-6) and replays "
              "bit-identically; events/s is the single-core simulation "
              "rate.\n");
  return 0;
}
