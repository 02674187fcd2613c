// C12 — observability overhead: what does obs/ cost the solver?
//
// Two studies on the shared-memory runtime (the hottest record() sites:
// every block update, every stop decision):
//
//  (a) DETERMINISM: a single-worker seqlock solve is a sequential,
//      fixed-order computation — its update count and final oracle error
//      are exact functions of the problem, not the scheduler. Running the
//      SAME solve at TraceLevel off / metrics / full must reproduce both
//      bit-for-bit: instrumentation reads clocks and pushes ring events,
//      it must never perturb the arithmetic or the stopping decision.
//      The deltas are HARD-gated == 0 by bench/baselines/obs_overhead.json
//      (the "tracing off costs a relaxed load + branch, and tracing on
//      changes no behavior" contract of DESIGN.md §8).
//
//  (b) THROUGHPUT: a 4-worker Hogwild run with a fixed update budget on a
//      representative problem (n=8192, 256-row blocks — block updates in
//      the microsecond range, like the solves the paper benchmarks run),
//      repeated and taking the best wall clock per trace level. Overhead
//      percentages (relative to the tracing-off leg) are wall-clock
//      measurements — warn-gated at ≤ 5% for both metrics-only and full
//      tracing. The bench also derives the FIXED per-update cost of full
//      tracing in nanoseconds (two clock reads + one ring push): that
//      number, not the percentage, is what transfers to other block
//      sizes — on toy 8-row blocks (~100 ns/update) the same ~100 ns of
//      instrumentation would double the runtime, which is why record()
//      sites gate on tracing_full() instead of recording unconditionally.
//
//  (c) STREAMING: the same Hogwild budget under full tracing with a live
//      TraceStreamer draining the rings into rotating window files every
//      50 ms (the flight-recorder configuration asyncit_node runs with
//      stream_interval set). The flusher's cost relative to full tracing
//      alone is warn-gated ≤ 5%, and at least one window must actually
//      land on disk — a silently idle flusher would make the overhead
//      number meaningless.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "asyncit/asyncit.hpp"
#include "asyncit/obs/streamer.hpp"
#include "asyncit/obs/trace_recorder.hpp"
#include "harness/bench_harness.hpp"

using namespace asyncit;

namespace {

struct LevelSpec {
  const char* name;
  obs::TraceLevel level;
};

constexpr LevelSpec kLevels[] = {
    {"off", obs::TraceLevel::kOff},
    {"metrics", obs::TraceLevel::kMetrics},
    {"full", obs::TraceLevel::kFull},
};

void enable_level(obs::TraceLevel level) {
  obs::TraceConfig cfg;
  cfg.level = level;
  cfg.ring_capacity = 4096;
  obs::TraceRecorder::instance().enable(cfg);
}

}  // namespace

int main() {
  std::printf("== C12: observability overhead — off vs metrics vs full ==\n\n");

  Rng rng(31);
  auto sys = problems::make_diagonally_dominant_system(256, 4, 2.0, rng);
  const la::Vector x_star =
      op::picard_solve(op::JacobiOperator(
                           sys.a, sys.b, la::Partition::balanced(256, 16)),
                       la::zeros(256), 50000, 1e-14);
  bench::Report report("obs_overhead");

  // ---------- (a) determinism: single worker, seqlock, oracle stop -----
  std::printf("(a) single-worker seqlock solve at each trace level "
              "(identical arithmetic expected)\n");
  la::Partition det_partition = la::Partition::balanced(256, 16);
  op::JacobiOperator det_op(sys.a, sys.b, det_partition);
  TextTable ta({"level", "updates", "final_error", "wall(s)"});

  std::uint64_t updates[3] = {0, 0, 0};
  double errors[3] = {0.0, 0.0, 0.0};
  bool converged[3] = {false, false, false};
  for (int i = 0; i < 3; ++i) {
    rt::RuntimeOptions opt;
    opt.workers = 1;
    opt.consistent_reads = true;
    opt.tol = 1e-10;
    opt.x_star = x_star;
    opt.max_updates = 10000000;
    opt.max_seconds = 60.0;
    opt.check_every = 16;
    opt.seed = 7;
    enable_level(kLevels[i].level);
    const rt::RuntimeResult r =
        rt::run_async_threads(det_op, la::zeros(256), opt);
    obs::TraceRecorder::instance().disable();
    updates[i] = r.total_updates;
    errors[i] = r.final_error;
    converged[i] = r.converged;
    ta.add_row({kLevels[i].name, std::to_string(r.total_updates),
                TextTable::num(r.final_error, 3),
                TextTable::num(r.wall_seconds, 4)});
  }
  std::printf("%s\n", ta.render().c_str());

  report.scenario("determinism")
      .det("off_converged", converged[0])
      .det("off_updates", updates[0])
      .det("off_final_error", errors[0])
      .det("updates_delta_metrics",
           static_cast<std::int64_t>(updates[1]) -
               static_cast<std::int64_t>(updates[0]))
      .det("updates_delta_full",
           static_cast<std::int64_t>(updates[2]) -
               static_cast<std::int64_t>(updates[0]))
      .det("error_delta_metrics", errors[1] - errors[0])
      .det("error_delta_full", errors[2] - errors[0]);

  // ---------- (b) throughput: 4-worker Hogwild, fixed update budget ----
  std::printf("(b) 4-worker Hogwild, n=8192, 256-row blocks, 200k-update "
              "budget, best of 5 reps per level\n");
  Rng thr_rng(47);
  auto thr_sys = problems::make_diagonally_dominant_system(8192, 16, 2.0,
                                                           thr_rng);
  la::Partition thr_partition = la::Partition::balanced(8192, 32);
  op::JacobiOperator thr_op(thr_sys.a, thr_sys.b, thr_partition);
  TextTable tb({"level", "best wall(s)", "updates/s", "overhead vs off"});

  double best_wall[3] = {0.0, 0.0, 0.0};
  double throughput[3] = {0.0, 0.0, 0.0};
  for (int i = 0; i < 3; ++i) {
    double best = 1e300;
    double best_thr = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
      rt::RuntimeOptions opt;
      opt.workers = 4;
      opt.consistent_reads = false;
      opt.tol = 0.0;  // no oracle: run the full update budget
      opt.max_updates = 200000;
      opt.max_seconds = 20.0;
      opt.check_every = 64;
      opt.seed = 7;
      enable_level(kLevels[i].level);
      const rt::RuntimeResult r =
          rt::run_async_threads(thr_op, la::zeros(8192), opt);
      obs::TraceRecorder::instance().disable();
      if (r.wall_seconds < best) {
        best = r.wall_seconds;
        best_thr = static_cast<double>(r.total_updates) / r.wall_seconds;
      }
    }
    best_wall[i] = best;
    throughput[i] = best_thr;
    report.scenario(std::string("throughput_") + kLevels[i].name)
        .metric("wall_seconds", best)
        .metric("updates_per_sec", best_thr);
  }

  // Overhead relative to the tracing-off leg (positive = slower).
  const double metrics_overhead_pct =
      (throughput[0] / throughput[1] - 1.0) * 100.0;
  const double full_overhead_pct =
      (throughput[0] / throughput[2] - 1.0) * 100.0;
  for (int i = 0; i < 3; ++i) {
    const double pct = (throughput[0] / throughput[i] - 1.0) * 100.0;
    tb.add_row({kLevels[i].name, TextTable::num(best_wall[i], 4),
                TextTable::num(throughput[i], 0),
                i == 0 ? "-" : TextTable::num(pct, 2) + "%"});
  }
  std::printf("%s\n", tb.render().c_str());
  trace::maybe_write_csv(tb, "c12_obs_overhead");

  // The size-independent number: extra wall time per block update under
  // full tracing (two clock reads + one 32-byte ring push).
  const double full_cost_ns_per_update =
      (1.0 / throughput[2] - 1.0 / throughput[0]) * 1e9;
  std::printf("full-tracing fixed cost: %.1f ns per block update\n\n",
              full_cost_ns_per_update);

  report.scenario("overhead")
      .metric("metrics_overhead_pct", metrics_overhead_pct)
      .metric("full_overhead_pct", full_overhead_pct)
      .metric("full_cost_ns_per_update", full_cost_ns_per_update);

  // ---------- (c) streaming: full tracing + live windowed flusher ------
  std::printf("(c) same Hogwild budget, full tracing + TraceStreamer "
              "(50 ms windows, 4 kept), best of 5 reps\n");
  const std::string stream_dir = "c12_stream_windows";
  double stream_wall = 1e300;
  double stream_thr = 0.0;
  std::uint64_t stream_windows = 0;
  std::uint64_t stream_events = 0;
  std::uint64_t stream_dropped = 0;
  for (int rep = 0; rep < 5; ++rep) {
    std::filesystem::remove_all(stream_dir);
    std::filesystem::create_directories(stream_dir);
    rt::RuntimeOptions opt;
    opt.workers = 4;
    opt.consistent_reads = false;
    opt.tol = 0.0;
    opt.max_updates = 200000;
    opt.max_seconds = 20.0;
    opt.check_every = 64;
    opt.seed = 7;
    enable_level(obs::TraceLevel::kFull);
    obs::StreamerConfig sc;
    sc.dir = stream_dir;
    sc.rank = 0;
    sc.interval_seconds = 0.05;
    sc.max_windows = 4;
    sc.label = "c12_obs_overhead";
    sc.metrics = false;
    auto streamer = std::make_unique<obs::TraceStreamer>(sc);
    const rt::RuntimeResult r =
        rt::run_async_threads(thr_op, la::zeros(8192), opt);
    streamer->stop();
    if (r.wall_seconds < stream_wall) {
      stream_wall = r.wall_seconds;
      stream_thr = static_cast<double>(r.total_updates) / r.wall_seconds;
      stream_windows = streamer->windows_written();
      stream_events = streamer->events_streamed();
      stream_dropped = streamer->dropped_seen();
    }
    streamer.reset();
    obs::TraceRecorder::instance().disable();
  }
  std::filesystem::remove_all(stream_dir);
  const double streaming_overhead_pct =
      (throughput[2] / stream_thr - 1.0) * 100.0;
  std::printf("streaming: best %.4f s (%.0f updates/s), %+.2f%% vs full "
              "tracing alone; %llu windows, %llu events streamed, "
              "%llu dropped\n\n",
              stream_wall, stream_thr, streaming_overhead_pct,
              static_cast<unsigned long long>(stream_windows),
              static_cast<unsigned long long>(stream_events),
              static_cast<unsigned long long>(stream_dropped));

  report.scenario("streaming")
      .metric("wall_seconds", stream_wall)
      .metric("updates_per_sec", stream_thr)
      .metric("streaming_overhead_pct", streaming_overhead_pct)
      .metric("windows_written", static_cast<double>(stream_windows))
      .metric("events_streamed", static_cast<double>(stream_events))
      .metric("events_dropped_seen", static_cast<double>(stream_dropped));

  report.write();
  std::printf("shape check: deltas in (a) are exactly zero; full-tracing "
              "overhead in (b) and flusher overhead in (c) stay within "
              "the 5%% warn band; (c) wrote at least one window.\n");
  return 0;
}
