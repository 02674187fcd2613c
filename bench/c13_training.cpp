// C13 — parameter-server training: the BSP / TAP / SSP disciplines of
// DESIGN.md §9 racing to a target train accuracy on the seeded synthetic
// logistic problem, over the same chaos channels the solve benches use.
//
// Three studies:
//  (a) DISCIPLINE FACE-OFF: identical dataset, budget and target for the
//      barrier (BSP), totally asynchronous (TAP) and stale-synchronous
//      (SSP) servers. Shape to hold: every discipline reaches the
//      target; TAP applies the most deltas per wall second (nobody
//      waits), BSP the fewest (stragglers stall the barrier).
//  (b) SSP STALENESS SWEEP: bound 0 (lockstep) to 8 (nearly free).
//      Widening the bound lets workers run ahead on stale parameters —
//      more deltas in flight, less blocking, same target reached.
//  (c) TAP UNDER DELTA LOSS: TAP is the only discipline licensed to
//      drop (factor-1 apply, no barrier bookkeeping): rising drop rates
//      must cost throughput only, never the target.
//
// BENCH_training.json (via the shared harness): convergence flags and
// the target-accuracy floor are deterministic-checked by CI's perf-smoke
// job against bench/baselines/training.json, as is BSP's in-run
// evaluation count (its rounds, hence its eval cadence, are
// scheduler-independent); wall clocks, delta counts and throughput are
// real-scheduler measurements and tracked warn-only.
#include <cstdio>
#include <string>

#include "asyncit/asyncit.hpp"
#include "asyncit/train/train.hpp"
#include "harness/bench_harness.hpp"

using namespace asyncit;

namespace {

const char* discipline_name(train::Discipline d) {
  switch (d) {
    case train::Discipline::kBsp: return "bsp";
    case train::Discipline::kTap: return "tap";
    case train::Discipline::kSsp: return "ssp";
  }
  return "?";
}

void record(bench::Report& report, const std::string& name,
            const train::TrainResult& r) {
  report.scenario(name)
      .det("converged", r.converged)
      .det("final_accuracy", r.final_accuracy)
      .det("final_loss", r.final_loss)
      .metric("wall_seconds", r.wall_seconds)
      .metric("deltas_applied", static_cast<double>(r.deltas_applied))
      .metric("rounds", static_cast<double>(r.rounds))
      .metric("versions", static_cast<double>(r.versions))
      .metric("evaluations", static_cast<double>(r.evaluations))
      .metric("epochs", static_cast<double>(r.epochs))
      .metric("examples_per_sec", r.examples_per_sec)
      .metric("messages_sent", static_cast<double>(r.messages_sent))
      .metric("messages_dropped", static_cast<double>(r.messages_dropped));
}

}  // namespace

int main() {
  std::printf("== C13: parameter-server training — BSP vs TAP vs SSP ==\n\n");

  problems::LogisticConfig dcfg;
  dcfg.samples = 480;
  dcfg.features = 64;
  dcfg.density = 0.2;
  dcfg.separation = 3.0;
  dcfg.label_noise = 0.0;
  dcfg.ridge = 0.01;
  const train::Dataset data = train::make_synthetic_dataset(dcfg, 77);
  bench::Report report("training");

  auto base = [&] {
    train::TrainOptions opt;
    opt.workers = 3;
    opt.seed = 77;
    opt.sgd.learning_rate = 0.5;
    opt.sgd.batch_size = 16;
    opt.sgd.staleness = 2;
    // The server's stop frame is the terminating event (an ungated TAP
    // worker would drain any finite budget before the frame lands);
    // the wall budget still bounds a broken run.
    opt.sgd.max_epochs = 1000000;
    opt.sgd.max_seconds = 20.0;
    opt.sgd.target_accuracy = 0.95;
    opt.sgd.eval_every = 4;
    opt.chaos.delivery.min_latency = 2e-4;
    opt.chaos.delivery.max_latency = 2e-3;
    return opt;
  };
  const la::Vector x0 = la::zeros(data.features());

  // ---------- (a) discipline face-off, identical target ----------
  std::printf("(a) logistic n=%zu d=%zu, 3 workers, latency 0.2..2 ms, "
              "target accuracy 0.95\n",
              data.samples(), data.features());
  TextTable ta({"discipline", "wall(s)", "deltas", "rounds", "epochs",
                "accuracy", "conv"});
  for (const train::Discipline d :
       {train::Discipline::kBsp, train::Discipline::kTap,
        train::Discipline::kSsp}) {
    train::TrainOptions opt = base();
    opt.sgd.discipline = d;
    const train::TrainResult r = train::run_training(data, x0, opt);
    ta.add_row({discipline_name(d), TextTable::num(r.wall_seconds, 4),
                std::to_string(r.deltas_applied),
                std::to_string(r.rounds), std::to_string(r.epochs),
                TextTable::num(r.final_accuracy, 4),
                r.converged ? "yes" : "NO"});
    record(report, std::string("disc_") + discipline_name(d), r);
  }
  std::printf("%s\n", ta.render().c_str());
  trace::maybe_write_csv(ta, "c13_disciplines");

  // ---------- (b) SSP staleness sweep ----------
  std::printf("(b) SSP staleness bound: lockstep (0) to nearly-free (8)\n");
  TextTable tb({"staleness", "wall(s)", "deltas", "rounds", "accuracy",
                "conv"});
  for (const std::uint64_t s : {0, 1, 2, 4, 8}) {
    train::TrainOptions opt = base();
    opt.sgd.discipline = train::Discipline::kSsp;
    opt.sgd.staleness = s;
    const train::TrainResult r = train::run_training(data, x0, opt);
    tb.add_row({std::to_string(s), TextTable::num(r.wall_seconds, 4),
                std::to_string(r.deltas_applied),
                std::to_string(r.rounds),
                TextTable::num(r.final_accuracy, 4),
                r.converged ? "yes" : "NO"});
    record(report, "ssp_s" + std::to_string(s), r);
  }
  std::printf("%s\n", tb.render().c_str());
  trace::maybe_write_csv(tb, "c13_staleness");

  // ---------- (c) TAP under delta loss ----------
  std::printf("(c) TAP with dropped deltas: throughput cost, same "
              "target\n");
  TextTable tc({"drop", "wall(s)", "deltas", "dropped", "accuracy",
                "conv"});
  for (const double drop : {0.0, 0.05, 0.20}) {
    train::TrainOptions opt = base();
    opt.sgd.discipline = train::Discipline::kTap;
    opt.chaos.delivery.drop_prob = drop;
    const train::TrainResult r = train::run_training(data, x0, opt);
    tc.add_row({TextTable::num(drop, 2), TextTable::num(r.wall_seconds, 4),
                std::to_string(r.deltas_applied),
                std::to_string(r.messages_dropped),
                TextTable::num(r.final_accuracy, 4),
                r.converged ? "yes" : "NO"});
    record(report,
           "tap_drop" + std::to_string(static_cast<int>(drop * 100)) +
               "pct",
           r);
  }
  std::printf("%s\n", tc.render().c_str());
  trace::maybe_write_csv(tc, "c13_tap_drops");

  report.write();
  std::printf("shape check: every discipline, staleness bound and drop "
              "rate reaches the 0.95 target; TAP outpaces BSP on applied "
              "deltas per second.\n");
  return 0;
}
