// C5 — data-exchange frequency study on the obstacle problem (paper §IV,
// ref [26]: "several data exchange frequencies have been studied" on the
// IBM SP4 for asynchronous relaxation of the obstacle problem).
//
// Simulator, 4 processors, projected Jacobi on an n×n membrane with a
// dome obstacle. A phase performs `exchange_every` inner relaxations of
// its block; values are exchanged only at phase ends (plain async), and
// additionally mid-phase when flexible communication is on. Communication
// cost: each message adds latency; rarer exchange = fewer messages but
// staler data.
//
// Shape to hold: a sweet spot in exchange frequency — too frequent wastes
// virtual time on messages (per-message overhead modelled in the phase
// duration), too rare starves neighbours of fresh boundary values.
#include <cstdio>

#include "asyncit/asyncit.hpp"
#include "harness/bench_harness.hpp"

using namespace asyncit;

int main() {
  std::printf("== C5: exchange-frequency study, obstacle problem "
              "(ref [26]) ==\n");
  std::printf("grid 24x24, 4 processors, projected Jacobi relaxation, "
              "tol 1e-8\n\n");

  problems::ObstacleProblem prob(24, -30.0, -0.05, 1.0);
  const la::Vector u_ref = prob.reference_solution(200000, 1e-12);
  const la::Partition partition = la::Partition::balanced(prob.dim(), 16);
  auto oper = prob.make_operator(partition);

  bench::Report report("c5_exchange_frequency");
  TextTable table({"exchange every", "virtual time", "updates",
                   "messages", "macros", "flexible vtime"});
  for (const std::size_t every : {1u, 2u, 4u, 8u, 16u}) {
    auto run = [&](bool flexible) {
      std::vector<std::unique_ptr<sim::ComputeTimeModel>> compute;
      for (int p = 0; p < 4; ++p) {
        // a phase = `every` inner relaxations of the block, plus a fixed
        // per-message overhead charged at phase end
        compute.push_back(sim::make_fixed_compute(
            0.2 * static_cast<double>(every) + 0.3));
      }
      auto latency = sim::make_uniform_latency(0.2, 0.5);
      sim::SimOptions opt;
      opt.tol = 1e-8;
      opt.x_star = u_ref;
      opt.inner_steps = every;
      opt.publish_partials = flexible;
      opt.max_steps = 3000000;
      opt.seed = 9;
      return sim::run_async_sim(*oper, la::zeros(prob.dim()),
                                std::move(compute), *latency, opt);
    };
    const auto plain = run(false);
    const auto flex = run(true);
    table.add_row({std::to_string(every),
                   TextTable::num(plain.virtual_time, 1),
                   std::to_string(plain.steps),
                   std::to_string(plain.messages_sent),
                   std::to_string(plain.macro_boundaries.size() - 1),
                   TextTable::num(flex.virtual_time, 1)});
    report.scenario("every_" + std::to_string(every))
        .det("plain_converged", plain.converged)
        .det("flex_converged", flex.converged)
        .det("plain_vtime", plain.virtual_time)
        .det("flex_vtime", flex.virtual_time)
        .det("plain_steps", plain.steps)
        .det("messages", plain.messages_sent);
  }
  std::printf("%s\n", table.render().c_str());
  trace::maybe_write_csv(table, "c5_exchange_frequency");
  report.write();
  std::printf(
      "shape check: virtual time is U-shaped in the exchange interval "
      "(message overhead vs staleness); flexible communication flattens "
      "the right side of the U (partials reach neighbours mid-phase).\n");
  return 0;
}
