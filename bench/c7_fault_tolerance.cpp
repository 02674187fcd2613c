// C7 — "the lack of synchronization leads to some fault-tolerance, e.g.,
// transient faults in data exchange are covered by the arrival of new
// messages or data" (paper §II).
//
// Two parts, one claim:
//
// MODEL (discrete-event simulator, virtual time — the original C7):
//   message drop probability p ∈ {0, 0.001, 0.01, 0.1, 0.3}:
//   * asynchronous execution simply absorbs the losses (later messages
//     carry fresher values anyway) at a modest cost in time-to-eps;
//   * the synchronous baseline MUST retransmit every lost message before
//     its barrier can complete (timeout + resend), so its round time
//     inflates with p.
//
// MEASURED (net:: runtime, real threads, wall clock): the same loss
//   sweep through the message-passing runtime — actual messages dropped
//   on real channels, convergence measured, no retransmission machinery
//   anywhere. And one step further than the simulator can go: a run with
//   the membership/ SWIM failure detector live on the control-frame
//   path, showing the machinery that turns "tolerates transient faults"
//   into "tolerates a rank dying" (the churn_smoke ctest and
//   scripts/launch_cluster.py --churn exercise the actual kill/join; a
//   bench process cannot SIGKILL one of its own threads).
//
// Shape to hold: async converges for every p < 1 with graceful
// degradation; sync's retransmission count and virtual time blow up with
// p; the measured runtime converges at every loss level; the live
// detector declares nobody dead (false-death count 0 is a deterministic
// gate in bench/baselines/fault_tolerance.json).
#include <cstdio>

#include "asyncit/asyncit.hpp"
#include "harness/bench_harness.hpp"

using namespace asyncit;

int main() {
  std::printf("== C7: transient message loss (fault tolerance, §II) ==\n");
  std::printf("4 processors, Jacobi n=32, tol 1e-8, latency U(0.1,0.3)\n\n");

  Rng rng(71);
  auto sys = problems::make_diagonally_dominant_system(32, 4, 2.0, rng);
  op::JacobiOperator jac(sys.a, sys.b, la::Partition::scalar(32));
  const la::Vector x_star = op::picard_solve(jac, la::zeros(32), 50000,
                                             1e-14);

  auto fleet = []() {
    std::vector<std::unique_ptr<sim::ComputeTimeModel>> v;
    for (int p = 0; p < 4; ++p) v.push_back(sim::make_fixed_compute(1.0));
    return v;
  };

  bench::Report report("c7_fault_tolerance");
  TextTable table({"drop prob", "async vtime", "async dropped",
                   "async converged", "sync vtime", "sync retransmissions",
                   "sync converged"});
  for (const double p : {0.0, 0.001, 0.01, 0.1, 0.3}) {
    sim::SimOptions opt;
    opt.tol = 1e-8;
    opt.x_star = x_star;
    opt.drop_prob = p;
    opt.max_steps = 2000000;
    auto lat1 = sim::make_uniform_latency(0.1, 0.3);
    auto async_r = sim::run_async_sim(jac, la::zeros(32), fleet(), *lat1,
                                      opt);
    auto lat2 = sim::make_uniform_latency(0.1, 0.3);
    auto sync_r = sim::run_sync_sim(jac, la::zeros(32), fleet(), *lat2,
                                    opt);
    table.add_row({TextTable::num(p, 3),
                   TextTable::num(async_r.virtual_time, 1),
                   std::to_string(async_r.messages_dropped),
                   async_r.converged ? "yes" : "NO",
                   TextTable::num(sync_r.virtual_time, 1),
                   std::to_string(sync_r.retransmissions),
                   sync_r.converged ? "yes" : "NO"});
    report.scenario("drop_" + TextTable::num(p, 3))
        .det("async_converged", async_r.converged)
        .det("sync_converged", sync_r.converged)
        .det("async_vtime", async_r.virtual_time)
        .det("sync_vtime", sync_r.virtual_time)
        .det("async_dropped", async_r.messages_dropped)
        .det("sync_retransmissions", sync_r.retransmissions);
  }
  std::printf("%s\n", table.render().c_str());
  trace::maybe_write_csv(table, "c7_fault_tolerance");

  // ---- measured: the same loss levels on the real runtime ----
  std::printf("== measured: net:: runtime, real threads, real drops ==\n");
  Rng rng2(72);
  auto sys2 = problems::make_diagonally_dominant_system(64, 4, 2.0, rng2);
  la::Partition partition = la::Partition::balanced(64, 8);
  op::JacobiOperator jac2(sys2.a, sys2.b, partition);
  const la::Vector x_star2 = op::picard_solve(jac2, la::zeros(64), 50000,
                                              1e-14);
  TextTable mtable({"drop prob", "converged", "error", "wall s",
                    "sent", "dropped"});
  for (const double p : {0.0, 0.1, 0.3}) {
    net::MpOptions opt;
    opt.workers = 4;
    opt.solve.mode = net::Mode::kAsync;
    opt.solve.tol = 1e-8;
    opt.solve.x_star = x_star2;
    opt.solve.max_seconds = 20.0;
    opt.seed = 7;
    opt.chaos.delivery.min_latency = 1e-4;
    opt.chaos.delivery.max_latency = 2e-3;
    opt.chaos.delivery.drop_prob = p;
    const net::MpResult r =
        net::run_message_passing(jac2, la::zeros(64), opt);
    mtable.add_row({TextTable::num(p, 3), r.converged ? "yes" : "NO",
                    TextTable::num(r.final_error, 3),
                    TextTable::num(r.wall_seconds, 3),
                    std::to_string(r.messages_sent),
                    std::to_string(r.messages_dropped)});
    report.scenario("measured_drop_" + TextTable::num(p, 3))
        .det("converged", r.converged)
        .metric("wall_seconds", r.wall_seconds)
        .metric("final_error", r.final_error)
        .metric("messages_sent", double(r.messages_sent))
        .metric("messages_dropped", double(r.messages_dropped));
  }
  std::printf("%s\n", mtable.render().c_str());

  // ---- measured: the SWIM failure detector live during a solve ----
  std::printf("== measured: membership detector live (chaos delays) ==\n");
  {
    net::MpOptions opt;
    opt.workers = 4;
    opt.solve.mode = net::Mode::kAsync;
    opt.solve.tol = 1e-8;
    opt.solve.x_star = x_star2;
    opt.solve.max_seconds = 20.0;
    opt.seed = 7;
    opt.chaos.delivery.min_latency = 1e-3;
    opt.chaos.delivery.max_latency = 1e-2;
    opt.membership.enabled = true;
    opt.membership.probe_busy_members = true;
    opt.membership.ping_period = 0.02;
    opt.membership.ping_timeout = 0.25;
    opt.membership.suspicion_timeout = 2.0;
    const net::MpResult r =
        net::run_message_passing(jac2, la::zeros(64), opt);
    std::printf("converged %s, error %.3e, wall %.3f s\n",
                r.converged ? "yes" : "NO", r.final_error, r.wall_seconds);
    std::printf("pings %llu acks %llu suspicions %llu false deaths %llu\n\n",
                static_cast<unsigned long long>(r.membership.pings_sent),
                static_cast<unsigned long long>(r.membership.acks_received),
                static_cast<unsigned long long>(r.membership.suspicions),
                static_cast<unsigned long long>(
                    r.membership.deaths_observed));
    report.scenario("membership_live")
        // Every rank stops AT the tolerance boundary, so the
        // deterministic gate is the 10x final_error band (same
        // rationale as baselines/tcp_loopback.json), not the boolean
        // coin flip at the boundary.
        .det("final_error", r.final_error)
        // Everybody was alive the whole run: any death is a detector
        // false positive — the deterministic gate of this bench.
        .det("false_deaths", double(r.membership.deaths_observed))
        .det("frames_rejected", double(r.frames_rejected))
        .det("bad_frames", double(r.bad_frames))
        .metric("wall_seconds", r.wall_seconds)
        .metric("pings_sent", double(r.membership.pings_sent))
        .metric("acks_received", double(r.membership.acks_received))
        .metric("suspicions", double(r.membership.suspicions));
  }

  report.write();
  std::printf("shape check: async degrades gracefully in p (no "
              "retransmission machinery at all); sync pays timeout+resend "
              "for every loss; the live detector kills nobody.\n");
  return 0;
}
