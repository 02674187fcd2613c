// C8 — termination of asynchronous iterations on message-passing systems
// (paper §III, refs [15] macro-iteration stopping criterion and [22]
// El Baz's termination method).
//
// The hard part of stopping an asynchronous iteration is that local
// convergence everywhere does NOT imply global convergence while messages
// are in flight. We measure the [22]-style double-scan detector:
//   * correctness: the oracle error at the moment detection fires (must
//     be at the fixed point — no premature termination);
//   * latency: virtual time between true convergence (oracle crossing of
//     the local epsilon) and detection;
//   * overhead: number of scans (control messages = 2 * processors per
//     scan).
// Swept over processor counts and scan periods.
//
// Shape to hold: zero premature terminations; detection latency of the
// order of one scan period + a couple of message latencies.
#include <cstdio>

#include "asyncit/asyncit.hpp"
#include "harness/bench_harness.hpp"

using namespace asyncit;

int main() {
  std::printf("== C8: termination detection ([15],[22]) ==\n");
  std::printf("Jacobi n=32, local eps 1e-10, latency U(0.1,0.3)\n\n");

  Rng rng(81);
  auto sys = problems::make_diagonally_dominant_system(32, 4, 2.0, rng);
  op::JacobiOperator jac(sys.a, sys.b, la::Partition::scalar(32));
  const la::Vector x_star = op::picard_solve(jac, la::zeros(32), 50000,
                                             1e-14);

  bench::Report report("c8_termination");
  TextTable table({"procs", "scan period", "detected", "error at detect",
                   "premature?", "detect step", "oracle-conv step",
                   "scans", "ctrl msgs"});
  for (const std::size_t procs : {2u, 4u, 8u}) {
    for (const double period : {2.0, 10.0, 50.0}) {
      // First, an oracle run to find when the system truly converges.
      std::vector<std::unique_ptr<sim::ComputeTimeModel>> fleet1;
      for (std::size_t p = 0; p < procs; ++p)
        fleet1.push_back(sim::make_uniform_compute(0.8, 1.2));
      auto lat1 = sim::make_uniform_latency(0.1, 0.3);
      sim::SimOptions oracle_opt;
      oracle_opt.tol = 1e-9;
      oracle_opt.x_star = x_star;
      oracle_opt.max_steps = 1000000;
      oracle_opt.seed = 17;
      auto oracle_run = sim::run_async_sim(jac, la::zeros(32),
                                           std::move(fleet1), *lat1,
                                           oracle_opt);

      // Then the detection run (same seed, detection is the only stop).
      std::vector<std::unique_ptr<sim::ComputeTimeModel>> fleet2;
      for (std::size_t p = 0; p < procs; ++p)
        fleet2.push_back(sim::make_uniform_compute(0.8, 1.2));
      auto lat2 = sim::make_uniform_latency(0.1, 0.3);
      sim::SimOptions opt;
      opt.x_star = x_star;  // measurement only
      opt.stop_on_oracle = false;
      opt.enable_detection = true;
      opt.local_eps = 1e-10;
      opt.scan_period = period;
      opt.max_steps = 1000000;
      opt.seed = 17;
      auto r = sim::run_async_sim(jac, la::zeros(32), std::move(fleet2),
                                  *lat2, opt);
      const bool premature = r.error_at_detection > 1e-6;
      table.add_row(
          {std::to_string(procs), TextTable::num(period, 0),
           r.detection_fired ? "yes" : "NO",
           TextTable::sci(r.error_at_detection, 1),
           premature ? "PREMATURE" : "no",
           std::to_string(r.detection_step),
           std::to_string(oracle_run.steps), std::to_string(r.scans),
           std::to_string(2 * procs * r.scans)});
      report
          .scenario("p" + std::to_string(procs) + "_period" +
                    TextTable::num(period, 0))
          .det("detected", r.detection_fired)
          .det("premature", premature)
          .det("error_at_detection", r.error_at_detection)
          .det("detect_step", r.detection_step)
          .det("scans", r.scans);
    }
  }
  std::printf("%s\n", table.render().c_str());
  trace::maybe_write_csv(table, "c8_termination");
  report.write();
  std::printf(
      "shape check: always detected, never premature; shorter scan "
      "periods detect sooner at more control-message cost; detect step "
      "close to the oracle convergence step (the extra updates are the "
      "quiescence confirmation, ~one macro-iteration as in [15]).\n");
  return 0;
}
