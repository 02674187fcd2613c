// C3 — "the concept of epoch of Mishchenko, Iutzeler and Malick is less
// general than the concept of macro-iteration sequence... In particular,
// macro-iteration sequences account for possible out of order messages
// while epochs do not." (paper §III)
//
// We run identical simulated executions and measure both sequences:
//   * FIFO channels + tag filtering (the epoch analysis' monotone-label
//     premise holds): both sequences advance steadily;
//   * non-FIFO channels + last-arrival-wins (genuine out-of-order
//     delivery): label inversions are measured — the epoch premise is
//     violated while Definition 2 still certifies progress (and the
//     box-level certificate stays sound);
//   * slow-then-fast machine (Mishchenko et al.'s own motivating case):
//     both adapt, epochs track machine activity, macro-iterations
//     additionally track data freshness.
//
// Shape to hold: inversions = 0 under FIFO and > 0 under non-FIFO; the
// macro-iteration count responds to the inversions (fewer certified
// macro-iterations per step) while the epoch count is blind to them.
#include <cstdio>

#include "asyncit/asyncit.hpp"
#include "harness/bench_harness.hpp"

using namespace asyncit;

namespace {

struct Scenario {
  const char* name;
  bool fifo;
  net::OverwritePolicy overwrite;
  bool slow_then_fast;
};

}  // namespace

int main() {
  std::printf("== C3: macro-iterations (Def. 2) vs epochs (ref [30]) ==\n");
  std::printf(
      "4 processors, Jacobi n=8 (2 blocks each), fixed 4000 updates, "
      "latency jitter U(0.1, 10.0) — wider than the ~2u between "
      "consecutive updates of a block, so non-FIFO channels really can "
      "deliver out of order.\n\n");

  Rng rng(41);
  auto sys = problems::make_diagonally_dominant_system(8, 3, 2.0, rng);
  op::JacobiOperator jac(sys.a, sys.b, la::Partition::scalar(8));

  const Scenario scenarios[] = {
      {"FIFO + newest-tag", true, net::OverwritePolicy::kNewestTagWins,
       false},
      {"non-FIFO + last-arrival", false,
       net::OverwritePolicy::kLastArrivalWins, false},
      {"slow-then-fast machine", true,
       net::OverwritePolicy::kNewestTagWins, true},
  };

  bench::Report report("c3_macro_vs_epoch");
  TextTable table({"scenario", "steps", "per-machine inversions",
                   "macros k", "epochs", "steps/macro", "steps/epoch",
                   "min box level"});
  for (const auto& sc : scenarios) {
    std::vector<std::unique_ptr<sim::ComputeTimeModel>> compute;
    for (int p = 0; p < 4; ++p) {
      if (sc.slow_then_fast && p == 0)
        compute.push_back(sim::make_slow_then_fast_compute(8.0, 1.0, 60));
      else
        compute.push_back(sim::make_uniform_compute(0.8, 1.2));
    }
    auto latency = sim::make_uniform_latency(0.1, 10.0);
    sim::SimOptions opt;
    opt.max_steps = 4000;
    opt.stop_on_oracle = false;
    opt.fifo = sc.fifo;
    opt.overwrite = sc.overwrite;
    opt.recording = model::LabelRecording::kFull;
    opt.seed = 13;
    auto r = sim::run_async_sim(jac, la::zeros(8), std::move(compute),
                                *latency, opt);
    const std::size_t macros = r.macro_boundaries.size() - 1;
    const std::size_t epochs = r.epoch_boundaries.size() - 1;
    const auto levels = model::box_levels(r.trace);
    table.add_row(
        {sc.name, std::to_string(r.steps),
         std::to_string(r.trace.per_machine_label_inversions()),
         std::to_string(macros), std::to_string(epochs),
         TextTable::num(double(r.steps) / double(std::max<std::size_t>(
                                              1, macros)),
                        1),
         TextTable::num(double(r.steps) / double(std::max<std::size_t>(
                                              1, epochs)),
                        1),
         std::to_string(levels.back())});
    report.scenario(sc.name)
        .det("steps", r.steps)
        .det("inversions", r.trace.per_machine_label_inversions())
        .det("macros", macros)
        .det("epochs", epochs)
        .det("final_box_level", levels.back());
  }
  std::printf("%s\n", table.render().c_str());
  trace::maybe_write_csv(table, "c3_macro_vs_epoch");
  report.write();

  std::printf(
      "reading: per-machine inversions are the violations of the "
      "monotone-label premise that epoch-based analyses rest on — zero "
      "under FIFO + tag filtering, positive under genuine out-of-order "
      "delivery. Epochs count machine activity identically in both cases "
      "(blind to message order); macro-iterations and the box level "
      "certify data freshness in BOTH regimes — the generality gap the "
      "paper describes.\n");
  return 0;
}
