// Message passing: run the same problem through all three coordination
// modes of the net/ runtime — totally asynchronous, stale-synchronous
// (SSP), and barrier-synchronized (BSP) — on real threads exchanging
// tagged block values over latency/reordering channels, then repeat the
// asynchronous run over REAL TCP loopback sockets (the same solve, a
// genuinely serialized wire in between), and finally trace a short
// asynchronous run and draw its measured schedule from the obs event
// rings: one Gantt lane per rank, built from the block-update spans each
// rank recorded (the wall-clock analogue of the paper's Figure 1), with
// each link's measured delay p50/p99 below it.
//
//   build/examples/message_passing
//
// For the fully distributed version of this example — one PROCESS per
// peer, rendezvousing over TCP from a small config file — run:
//
//   scripts/launch_cluster.py --workers 4 --dim 128 --blocks 8
//
// which spawns one build/tools/asyncit_node per rank on free loopback
// ports (add --chaos --min-latency 5e-4 --max-latency 3e-3 to inject
// this example's delay model over the real sockets).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "asyncit/asyncit.hpp"

int main() {
  using namespace asyncit;

  // 1. A strictly diagonally dominant system: the Jacobi operator is a
  //    max-norm contraction, so every coordination mode must converge.
  Rng rng(42);
  auto sys = problems::make_diagonally_dominant_system(128, 4, 2.0, rng);
  la::Partition partition = la::Partition::balanced(128, 8);
  op::JacobiOperator jacobi(sys.a, sys.b, partition);
  const la::Vector x_star = op::picard_solve(jacobi, la::zeros(128), 50000,
                                             1e-14);

  // 2. Four peers, one of them 4x slower; 0.5..3 ms link latency with
  //    non-FIFO delivery, so later messages genuinely overtake earlier
  //    ones between the threads.
  auto options_for = [&](net::Mode mode) {
    net::MpOptions opt;
    opt.workers = 4;
    opt.worker_slowdown = {4.0, 1.0, 1.0, 1.0};
    opt.solve.mode = mode;
    opt.solve.staleness = 2;
    opt.chaos.delivery.min_latency = 5e-4;
    opt.chaos.delivery.max_latency = 3e-3;
    opt.solve.tol = 1e-8;
    opt.solve.x_star = x_star;
    opt.solve.max_seconds = 20.0;
    opt.solve.max_updates = 10000000;
    return opt;
  };

  std::printf("Jacobi n=128, 4 peers (one 4x slower), non-FIFO links "
              "0.5..3 ms\n\n");
  std::printf("%-6s  %-5s  %-9s  %-8s  %-10s  %-12s\n", "mode", "conv",
              "wall(ms)", "updates", "inversions", "delay p50/p99 (ms)");
  for (const net::Mode mode :
       {net::Mode::kBsp, net::Mode::kSsp, net::Mode::kAsync}) {
    net::MpOptions opt = options_for(mode);
    const char* name = mode == net::Mode::kBsp
                           ? "bsp"
                           : (mode == net::Mode::kSsp ? "ssp" : "async");
    auto result = net::run_message_passing(jacobi, la::zeros(128), opt);
    std::printf("%-6s  %-5s  %-9.2f  %-8llu  %-10llu  %.2f / %.2f\n", name,
                result.converged ? "yes" : "NO",
                result.wall_seconds * 1e3,
                static_cast<unsigned long long>(result.total_updates),
                static_cast<unsigned long long>(result.inversions_observed),
                result.delays.quantile(0.5) * 1e3,
                result.delays.quantile(0.99) * 1e3);
  }

  // 3. The same asynchronous solve with the iterate blocks actually
  //    serialized onto TCP loopback sockets: four in-process ranks, a
  //    full mesh of real connections, the chaos decorator re-injecting
  //    the identical 0.5..3 ms delay model at the frame level.
  {
    net::MpOptions opt = options_for(net::Mode::kAsync);
    transport::TcpOptions topts;
    topts.nodes.assign(4, {"127.0.0.1", 0});
    transport::TcpTransport tcp(std::move(topts));
    transport::ChaosTransport chaos(tcp, opt.chaos.delivery, opt.seed);
    auto over_tcp = net::run_message_passing(jacobi, la::zeros(128), opt,
                                             chaos);
    std::printf("\nsame async solve over TCP loopback + chaos delays: "
                "%s, wall %.2f ms, %llu frames delivered, "
                "delay p50 %.2f ms\n",
                over_tcp.converged ? "converged" : "DID NOT CONVERGE",
                over_tcp.wall_seconds * 1e3,
                static_cast<unsigned long long>(over_tcp.messages_delivered),
                over_tcp.delays.quantile(0.5) * 1e3);
  }

  // 4. Trace a short asynchronous run and draw its measured schedule.
  //    Every event names the rank that recorded it, so each rank's lane
  //    is its block-update spans (an event ends its span and carries the
  //    span's length in v). Updating phases are inflated (large
  //    repetition factors, same 4x ratio) so each spans a visible
  //    fraction of the chart; times are in seconds since the run began.
  //    Messages are summarized per link, not drawn (their events are left
  //    out of the chart): thousands of arrows do not fit a terminal.
  net::MpOptions opt = options_for(net::Mode::kAsync);
  opt.obs.trace_level = obs::TraceLevel::kFull;
  opt.obs.trace_ring_capacity = 1 << 15;  // the whole window, no wraps
  opt.worker_slowdown = {8000.0, 2000.0, 2000.0, 2000.0};
  opt.solve.max_seconds = 0.05;  // a 50 ms observation window
  opt.solve.x_star.reset();
  const auto traced = net::run_message_passing(jacobi, la::zeros(128), opt);

  std::vector<obs::Event> events;
  obs::TraceRecorder::instance().snapshot(&events);
  std::erase_if(events, [](const obs::Event& e) {
    return e.type != obs::EventType::kBlockUpdate;
  });
  std::vector<std::size_t> lane_phases(opt.workers, 0);
  for (const obs::Event& e : events) lane_phases.at(e.rank) += e.sub == 0;
  trace::GanttOptions gopt;
  gopt.width = 90;
  std::printf("\nmeasured schedule of the asynchronous run, time in s "
              "(one lane per rank; rectangles: updating phases labelled "
              "with the rank's own update count):\n\n%s",
              trace::render_gantt(events, gopt).c_str());
  const bool every_rank = std::find(lane_phases.begin(), lane_phases.end(),
                                    0u) == lane_phases.end();
  std::printf("every rank has a lane:  %s  \n", every_rank ? "yes" : "NO");

  std::printf("\nmeasured link delays (ms):\n");
  for (const net::MpResult::LinkDelay& link : traced.link_delays)
    std::printf("  P%u -> P%u  %5llu frames  p50 %.2f  p99 %.2f\n", link.src,
                link.dst,
                static_cast<unsigned long long>(link.delays.count()),
                link.delays.p50() * 1e3, link.delays.p99() * 1e3);
  return 0;
}
