// C2 — "flexible communication permits one to improve efficiency of
// asynchronous gradient algorithms" (paper §IV, refs [9][10]).
//
// Simulator, 4 processors, composite problem (Definition-4 operator).
// Phases perform `inner` gradient-type iterations; we compare plain
// asynchronous execution (only final values exchanged at phase end)
// against flexible communication (partials published mid-phase AND
// mid-phase arrivals incorporated), at equal virtual hardware.
//
// Shape to hold: flexible reaches epsilon in no more virtual time than
// plain async, with the gain growing as phases get longer (more inner
// steps => staler end-of-phase-only data).
#include <cstdio>

#include "asyncit/asyncit.hpp"
#include "harness/bench_harness.hpp"

using namespace asyncit;

int main() {
  std::printf("== C2: flexible communication gain (refs [9][10]) ==\n");
  std::printf("4 processors, COUPLED diagonally-dominant quadratic + l1 "
              "(Definition-4 operator), phase duration = inner steps * "
              "0.5u\n(coupling matters: on a separable problem block "
              "updates read only their own component and data freshness "
              "cannot help)\n\n");

  Rng rng(31);
  auto f = problems::make_sparse_quadratic(32, 4, 2.0, rng);
  auto g = op::make_l1_prox(0.2);
  op::BackwardForwardOperator bf(*f, *g, f->suggested_step(),
                                 la::Partition::scalar(32));
  const la::Vector x_bar = op::picard_solve(bf, la::zeros(32), 100000,
                                            1e-14);

  bench::Report report("c2_flexible_gain");
  TextTable table({"inner steps", "plain vtime", "flexible vtime",
                   "gain", "plain steps", "flex steps",
                   "partials sent"});
  for (const std::size_t inner : {1u, 2u, 4u, 8u}) {
    auto run = [&](bool flexible) {
      std::vector<std::unique_ptr<sim::ComputeTimeModel>> compute;
      for (int p = 0; p < 4; ++p)
        compute.push_back(
            sim::make_fixed_compute(0.5 * static_cast<double>(inner)));
      auto latency = sim::make_uniform_latency(0.1, 0.3);
      sim::SimOptions opt;
      opt.tol = 1e-9;
      opt.x_star = x_bar;
      opt.inner_steps = inner;
      opt.publish_partials = flexible;
      opt.max_steps = 2000000;
      opt.seed = 5;
      return sim::run_async_sim(bf, la::zeros(32), std::move(compute),
                                *latency, opt);
    };
    const auto plain = run(false);
    const auto flex = run(true);
    table.add_row({std::to_string(inner),
                   TextTable::num(plain.virtual_time, 1),
                   TextTable::num(flex.virtual_time, 1),
                   TextTable::num(plain.virtual_time /
                                      std::max(1e-9, flex.virtual_time),
                                  2),
                   std::to_string(plain.steps), std::to_string(flex.steps),
                   std::to_string(flex.partials_sent)});
    report.scenario("inner_" + std::to_string(inner))
        .det("plain_converged", plain.converged)
        .det("flex_converged", flex.converged)
        .det("plain_vtime", plain.virtual_time)
        .det("flex_vtime", flex.virtual_time)
        .det("plain_steps", plain.steps)
        .det("flex_steps", flex.steps)
        .det("partials_sent", flex.partials_sent);
  }
  std::printf("%s\n", table.render().c_str());
  trace::maybe_write_csv(table, "c2_flexible_gain");
  report.write();
  std::printf("shape check: gain >= 1 and grows with phase length.\n");
  return 0;
}
