// Distributed-system example: everything the paper's model allows, at
// once. Eight heterogeneous virtual machines (one with Baudet's
// linearly-growing phase times, one slow-then-fast as in Mishchenko et
// al.'s motivating case) solve a lasso instance over non-FIFO channels
// with jittery latency and 2% message loss, using flexible communication
// — while the macro-iteration, epoch and admissibility instruments watch,
// and the [22]-style protocol detects termination.
//
//   build/examples/distributed_simulation
#include <cstdio>

#include "asyncit/asyncit.hpp"

int main() {
  using namespace asyncit;

  std::printf("8 heterogeneous machines, non-FIFO lossy channels, "
              "flexible communication, lasso n=64.\n\n");

  Rng rng(23);
  problems::LassoConfig cfg;
  cfg.samples = 150;
  cfg.features = 64;
  cfg.support = 10;
  cfg.ridge = 0.3;
  cfg.lambda1 = 0.03;
  auto lasso = problems::make_synthetic_lasso(cfg, rng);

  op::BackwardForwardOperator bf(*lasso.problem.f, *lasso.problem.g,
                                 lasso.problem.suggested_gamma(),
                                 la::Partition::balanced(64, 16));
  const la::Vector x_bar = op::picard_solve(bf, la::zeros(64), 200000,
                                            1e-13);

  std::vector<std::unique_ptr<sim::ComputeTimeModel>> fleet;
  fleet.push_back(sim::make_linear_compute(0.05));          // Baudet's P2
  fleet.push_back(sim::make_slow_then_fast_compute(4.0, 0.5, 40));  // MIM
  fleet.push_back(sim::make_pareto_compute(0.5, 2.0));      // heavy tail
  for (int p = 3; p < 8; ++p)
    fleet.push_back(sim::make_uniform_compute(0.5, 1.5));

  auto latency = sim::make_uniform_latency(0.1, 2.0);
  sim::SimOptions opt;
  opt.tol = 1e-8;
  opt.x_star = x_bar;
  opt.inner_steps = 2;
  opt.publish_partials = true;   // flexible communication
  opt.fifo = false;              // out-of-order delivery possible
  opt.drop_prob = 0.02;          // transient faults
  opt.max_steps = 3000000;
  opt.recording = model::LabelRecording::kFull;
  opt.trace_level = obs::TraceLevel::kFull;
  auto r = sim::run_async_sim(bf, la::zeros(64), std::move(fleet),
                              *latency, opt);
  std::vector<obs::Event> events;
  obs::TraceRecorder::instance().snapshot(&events);

  std::printf("converged: %s after %llu updates, virtual time %.1f\n",
              r.converged ? "yes" : "no",
              static_cast<unsigned long long>(r.steps), r.virtual_time);
  std::printf("messages: %zu sent (%zu partials), %zu dropped and "
              "absorbed\n",
              r.messages_sent, r.partials_sent, r.messages_dropped);
  std::printf("macro-iterations (Def. 2): %zu | epochs (ref [30]): %zu\n",
              r.macro_boundaries.size() - 1, r.epoch_boundaries.size() - 1);
  std::printf("out-of-order label inversions (per machine): %zu\n",
              r.trace.per_machine_label_inversions());
  std::printf("admissibility audit: %s\n\n",
              model::audit_summary(r.trace).c_str());

  std::printf("update share per machine (heterogeneity visible):\n");
  for (std::size_t p = 0; p < r.updates_per_processor.size(); ++p)
    std::printf("  M%zu: %6zu updates (%.1f%%)\n", p,
                r.updates_per_processor[p],
                100.0 * double(r.updates_per_processor[p]) /
                    double(r.steps));

  const la::Vector sol = bf.solution_from_fixed_point(r.x);
  std::printf("\nsolution error vs sequential reference: %.2e\n",
              la::dist_inf(sol,
                           lasso.problem.reference_minimizer(200000,
                                                             1e-13)));

  std::printf("\nfirst instants of the run (Gantt, Fig. 1/2 style):\n");
  std::erase_if(events, [](const obs::Event& e) {
    return e.t_ns > 5'000'000'000u;  // after 5 units of virtual time
  });
  trace::GanttOptions gopt;
  gopt.width = 96;
  gopt.max_messages = 12;
  std::printf("%s", trace::render_gantt(events, gopt).c_str());
  return r.converged ? 0 : 1;
}
