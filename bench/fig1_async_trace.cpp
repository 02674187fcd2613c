// FIG1 — regenerates the paper's Figure 1: a two-processor asynchronous
// iteration. Rectangles are updating phases labelled by their iteration
// number; arrows are communications of the freshly updated component at
// the end of each phase. Unlike the paper's schematic, this trace is
// MEASURED from an actual execution of a fixed-point iteration on R²
// (one component per processor) over channels with latency.
//
// Shape to hold (DESIGN.md §5): phases of unequal length, processors never
// idle (a new phase starts the moment the previous one ends), every arrow
// leaves at a phase end, and update labels show delayed reads (labels < j-1).
#include <cstdio>

#include "asyncit/asyncit.hpp"
#include "harness/bench_harness.hpp"

using namespace asyncit;

int main() {
  std::printf("== FIG1: asynchronous iteration trace (paper Figure 1) ==\n");
  std::printf(
      "2 processors, P1 phase ~1.0u, P2 phase ~1.8u, channel latency "
      "0.25u; operator: 2x2 diagonally dominant Jacobi.\n\n");

  Rng rng(7);
  auto sys = problems::make_diagonally_dominant_system(2, 1, 2.0, rng);
  op::JacobiOperator jac(sys.a, sys.b, la::Partition::scalar(2));

  std::vector<std::unique_ptr<sim::ComputeTimeModel>> compute;
  compute.push_back(sim::make_uniform_compute(0.9, 1.1));
  compute.push_back(sim::make_uniform_compute(1.6, 2.0));
  auto latency = sim::make_fixed_latency(0.25);

  sim::SimOptions opt;
  opt.max_steps = 16;
  opt.stop_on_oracle = false;
  opt.recording = model::LabelRecording::kFull;
  opt.seed = 3;
  opt.trace_level = obs::TraceLevel::kFull;  // the Gantt chart below
  auto result = sim::run_async_sim(jac, la::zeros(2), std::move(compute),
                                   *latency, opt);
  std::vector<obs::Event> events;
  obs::TraceRecorder::instance().snapshot(&events);

  trace::GanttOptions gopt;
  gopt.width = 100;
  gopt.max_messages = 24;
  std::printf("%s\n", trace::render_gantt(events, gopt).c_str());

  TextTable table({"step j", "proc", "component", "l_1(j)", "l_2(j)",
                   "delay d(j)"});
  for (model::Step j = 1; j <= result.trace.steps(); ++j) {
    const auto& rec = result.trace.step(j);
    table.add_row({std::to_string(j), "P" + std::to_string(rec.machine),
                   "x" + std::to_string(rec.updated[0]),
                   std::to_string(rec.labels[0]),
                   std::to_string(rec.labels[1]),
                   std::to_string(j - rec.l_min)});
  }
  std::printf("%s\n", table.render().c_str());
  trace::maybe_write_csv(table, "fig1_async_trace");

  std::printf("checks: no idle time between a processor's phases; "
              "labels lag behind j-1 (asynchronous reads); macro-"
              "iterations completed: %zu\n",
              result.macro_boundaries.size() - 1);
  bench::Report report("fig1_async_trace");
  report.scenario("trace")
      .det("steps", result.trace.steps())
      .det("macros", result.macro_boundaries.size() - 1)
      .det("messages_sent", result.messages_sent);
  report.write();
  return 0;
}
