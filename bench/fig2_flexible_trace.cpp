// FIG2 — regenerates the paper's Figure 2: asynchronous iteration WITH
// flexible communication. Same two-processor scenario as FIG1, but each
// updating phase performs several inner iterations and publishes its
// partial results mid-phase (the hatched arrows ~~>). Receivers
// incorporate partials immediately (Definition 3).
//
// Shape to hold: partial-update messages leave mid-phase (send time
// strictly inside the sender's phase), full updates still leave at phase
// ends, and consumers read fresher data than in FIG1.
#include <cstdio>

#include "asyncit/asyncit.hpp"
#include "harness/bench_harness.hpp"

using namespace asyncit;

int main() {
  std::printf(
      "== FIG2: flexible-communication trace (paper Figure 2) ==\n");
  std::printf(
      "2 processors as in FIG1; each phase runs 3 inner iterations and "
      "publishes partial updates mid-phase (hatched arrows ~~>).\n\n");

  Rng rng(7);
  auto sys = problems::make_diagonally_dominant_system(2, 1, 2.0, rng);
  op::JacobiOperator jac(sys.a, sys.b, la::Partition::scalar(2));

  std::vector<std::unique_ptr<sim::ComputeTimeModel>> compute;
  compute.push_back(sim::make_uniform_compute(0.9, 1.1));
  compute.push_back(sim::make_uniform_compute(1.6, 2.0));
  auto latency = sim::make_fixed_latency(0.25);

  sim::SimOptions opt;
  opt.max_steps = 12;
  opt.stop_on_oracle = false;
  opt.inner_steps = 3;
  opt.publish_partials = true;
  opt.recording = model::LabelRecording::kFull;
  opt.seed = 3;
  opt.trace_level = obs::TraceLevel::kFull;  // the Gantt chart below
  auto result = sim::run_async_sim(jac, la::zeros(2), std::move(compute),
                                   *latency, opt);
  std::vector<obs::Event> events;
  obs::TraceRecorder::instance().snapshot(&events);

  trace::GanttOptions gopt;
  gopt.width = 100;
  gopt.max_messages = 36;
  std::printf("%s\n", trace::render_gantt(events, gopt).c_str());

  // Partial publishes (kBlockUpdate sub 1) strictly inside a completed
  // phase (sub 0, spanning [t - v, t]) of their own processor.
  std::size_t partial_mid_phase = 0;
  const auto update = obs::EventType::kBlockUpdate;
  for (const obs::Event& p : events)
    for (const obs::Event& ph : events)
      partial_mid_phase += p.type == update && p.sub == 1 &&
                           ph.type == update && ph.sub == 0 &&
                           ph.rank == p.rank && p.t_ns < ph.t_ns &&
                           double(p.t_ns) > double(ph.t_ns) - ph.v * 1e9;
  std::printf("partial updates sent: %zu (of which strictly mid-phase: "
              "%zu); full updates: %zu\n",
              result.partials_sent, partial_mid_phase,
              result.messages_sent - result.partials_sent);
  std::printf("macro-iterations completed: %zu\n",
              result.macro_boundaries.size() - 1);
  bench::Report report("fig2_flexible_trace");
  report.scenario("trace")
      .det("steps", result.trace.steps())
      .det("macros", result.macro_boundaries.size() - 1)
      .det("partials_sent", result.partials_sent)
      .det("partials_mid_phase", partial_mid_phase);
  report.write();
  return 0;
}
