// C14 — simnet scenario sweeps: whole asynchronous worlds on one core.
//
// The thread-backed benches top out near the host's core count; the
// discrete-event engine replaces threads with fibers and the wall clock
// with virtual time, so world sizes grow three orders of magnitude while
// every run stays exactly reproducible. This bench sweeps the seeded
// Jacobi solve at 100 and 1000 ranks (and, opted in, 10000) and checks
// the two properties the simulator exists for:
//
//   determinism  every world runs TWICE; the event-log hashes and final
//                residuals must match bitwise (hard det gate);
//   throughput   dispatched events per wall second, host nanoseconds
//                per event and per frame, and the wall cost of the
//                1000-rank world (warn-only: host-dependent — the
//                < 60 s acceptance bar is enforced by the sim_scale_smoke
//                ctest leg in Release, not here).
//
// Each rank publishes its block only to the ranks that read it (the
// Jacobi operator's read sets: about 3 readers per block under this
// generator), and stops when its own block is within tol, so frame count
// scales O(world * sweeps): the 1000-rank run moves 14k frames. Events,
// frames and updates are pure functions of (config, seed), recorded as
// deterministic fields and gated with `equals`. After each sweep the
// process peak RSS (ru_maxrss) is recorded as a measured field; the
// baseline holds the 1000-rank one to a hard max. The 10000-rank leg is
// a fixed virtual-horizon determinism/throughput probe (~2 sweeps, no
// convergence target) and only runs with ASYNCIT_BENCH_SIM_10K=1: each
// rank still holds five per-block arrays of length world (its view's x,
// tags, max_tag and final_tag, and its production counters), so memory
// still grows with world^2. Skipping is LOGGED, never silent.
//
// BENCH_simnet.json via the shared harness; gated by CI perf-smoke
// against bench/baselines/simnet.json.
#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "asyncit/asyncit.hpp"
#include "asyncit/simnet/world.hpp"
#include "harness/bench_harness.hpp"

using namespace asyncit;

namespace {

struct SweepResult {
  simnet::WorldResult first;
  bool deterministic = false;
  double wall_total = 0.0;
};

/// Builds the world-sized seeded Jacobi problem (one block per rank) and
/// runs it twice through run_world, comparing the determinism witnesses.
SweepResult sweep(std::size_t world, double tol, double max_virtual) {
  Rng rng(97);
  auto sys = problems::make_diagonally_dominant_system(world, 3, 8.0, rng);
  la::Partition partition = la::Partition::balanced(world, world);
  op::JacobiOperator jacobi(sys.a, sys.b, partition);

  simnet::WorldOptions o;
  o.mp.workers = world;
  o.mp.seed = 97;
  o.mp.solve.tol = tol;
  if (tol > 0.0)
    o.mp.solve.x_star =
        op::picard_solve(jacobi, la::zeros(world), 50000, 1e-14);
  o.mp.solve.max_seconds = max_virtual;
  o.mp.solve.max_updates = 100000000;
  // Every rank checks the oracle at the end of each own sweep (one
  // block per rank here, so after every update) and stops at its first
  // sweep under tol; check_every only paces the wall-budget check.
  o.mp.solve.check_every = 4;
  // latency/phase = 0.1 keeps about a tenth of each rank's publishes
  // in flight at any instant.
  o.sim.compute.phase = 1e-3;
  o.sim.compute.jitter = 0.3;
  o.sim.topology.latency = world >= 10000 ? 1e-5 : 1e-4;
  o.sim.topology.jitter = 0.5;

  SweepResult r;
  WallTimer wall;
  r.first = simnet::run_world(jacobi, la::zeros(world), o);
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
            const SweepResult& r, bool expect_converged) {
  // Host nanoseconds per dispatched event and per frame sent, over both
  // runs of the world.
  const auto ns_per = [&](std::uint64_t count) {
    return count > 0 ? r.wall_total * 1e9 / (2.0 * static_cast<double>(count))
                     : 0.0;
  };
  auto& s = report.scenario(name)
                .det("deterministic", r.deterministic)
                .det("events", r.first.events)
                .det("messages_sent", r.first.messages_sent)
                .det("total_updates", r.first.total_updates)
                .metric("events_per_sec",
                        r.wall_total > 0.0
                            ? 2.0 * static_cast<double>(r.first.events) /
                                  r.wall_total
                            : 0.0)
                .metric("ns_per_event", ns_per(r.first.events))
                .metric("ns_per_frame", ns_per(r.first.messages_sent))
                .metric("virtual_seconds", r.first.virtual_seconds)
                .metric("wall_seconds", r.wall_total)
                .metric("peak_rss_mb", peak_rss_mb());
  if (expect_converged)
    s.det("converged", r.first.all_converged)
        .det("residual_band", r.first.final_residual < 1e-5);
}

}  // namespace

int main() {
  std::printf("== C14: simnet virtual-time scenario sweeps ==\n\n");
  bench::Report report("simnet");
  TextTable t({"world", "conv", "det", "events", "virt(s)", "wall(s)",
               "ev/s"});

  for (const std::size_t world : {std::size_t{100}, std::size_t{1000}}) {
    const SweepResult r = sweep(world, 1e-6, 300.0);
    t.add_row({std::to_string(world), r.first.all_converged ? "yes" : "NO",
               r.deterministic ? "yes" : "NO",
               std::to_string(r.first.events),
               TextTable::num(r.first.virtual_seconds, 4),
               TextTable::num(r.wall_total, 3),
               TextTable::num(2.0 * double(r.first.events) / r.wall_total,
                              0)});
    record(report, "sweep_" + std::to_string(world), r,
           /*expect_converged=*/true);
  }

  const char* gate = std::getenv("ASYNCIT_BENCH_SIM_10K");
  if (gate != nullptr && gate[0] == '1') {
    // Fixed virtual horizon (~2 sweeps): a determinism + throughput
    // probe, not a convergence run.
    const SweepResult r = sweep(10000, 0.0, 2e-3);
    t.add_row({"10000", "-", r.deterministic ? "yes" : "NO",
               std::to_string(r.first.events),
               TextTable::num(r.first.virtual_seconds, 4),
               TextTable::num(r.wall_total, 3),
               TextTable::num(2.0 * double(r.first.events) / r.wall_total,
                              0)});
    record(report, "sweep_10000", r, /*expect_converged=*/false);
  } else {
    std::printf("sweep_10000 SKIPPED (set ASYNCIT_BENCH_SIM_10K=1 to run "
                "the 10000-rank leg; each rank's five per-block arrays "
                "still make memory grow with world^2)\n");
  }

  std::printf("%s\n", t.render().c_str());
  trace::maybe_write_csv(t, "c14_simnet");
  report.write();
  std::printf("shape check: every world converges (tol 1e-6) and replays "
              "bit-identically; events/s is the single-core simulation "
              "rate.\n");
  return 0;
}
