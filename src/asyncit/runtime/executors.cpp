#include "asyncit/runtime/executors.hpp"

#include <atomic>
#include <barrier>
#include <optional>
#include <thread>

#include "asyncit/obs/trace_recorder.hpp"
#include "asyncit/runtime/pacing.hpp"
#include "asyncit/runtime/shared_iterate.hpp"
#include "asyncit/support/check.hpp"
#include "asyncit/support/threads.hpp"
#include "asyncit/support/timer.hpp"

namespace asyncit::rt {

namespace {

/// Trips `stop` and traces why (kStopDecision: b = the deciding worker's
/// updates, or the round; v = run clock seconds).
void stop_run(std::atomic<bool>& stop, obs::StopReason reason,
              std::uint64_t count, double now) {
  obs::record(obs::EventType::kStopDecision, 0,
              static_cast<std::uint32_t>(reason), count, now);
  stop.store(true, std::memory_order_relaxed);
}

}  // namespace

RuntimeResult run_async_threads(const op::BlockOperator& op,
                                const la::Vector& x0,
                                const RuntimeOptions& options) {
  const la::Partition& partition = op.partition();
  const std::size_t m = partition.num_blocks();
  ASYNCIT_CHECK(options.workers >= 1 && options.workers <= m);
  ASYNCIT_CHECK(x0.size() == partition.dim());
  ASYNCIT_CHECK(options.inner_steps >= 1);

  // Read consistency: Hogwild workers read the shared iterate in place;
  // seqlock workers copy it block by block, each block a complete
  // published update, and compute on the copy — slower, the consistency
  // ablation of bench/a3_read_consistency.
  const bool consistent = options.consistent_reads;
  std::optional<SharedIterate> shared;
  std::optional<SeqlockBlockStore> store;
  if (consistent)
    store.emplace(partition, x0);
  else
    shared.emplace(x0);
  // A phase computes on a private copy of the iterate unless its steps
  // read the live Hogwild iterate (a single step, or flexible partials
  // that other workers consume at once).
  const bool private_phase =
      consistent || (options.inner_steps > 1 && !options.publish_partials);
  la::WeightedMaxNorm norm{partition};
  const bool oracle = options.x_star.has_value();
  const bool displacement_stop = options.displacement_tol > 0.0;

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> total_updates{0};
  std::vector<std::uint64_t> per_worker(options.workers, 0);
  std::vector<double> cpu_per_worker(options.workers, 0.0);
  // Per-block displacement of the most recent update (+inf until a block
  // has been updated once), for the [15]-style displacement stopping rule.
  std::vector<double> last_displacement(m, 1e300);

  WallTimer timer;
  auto worker_fn = [&](std::uint32_t w) {
    const obs::ScopedRank trace_rank(w);
    op::Workspace ws;  // per-worker scratch: steady state allocates nothing
    la::Vector out(partition.max_block_size());
    la::Vector local(private_phase ? partition.dim() : 0);
    la::Vector prev_block(partition.max_block_size());
    std::vector<model::Step> tags(m);
    model::Step my_step = 0;  // seqlock publish tags
    // A copy of the whole iterate: consistent per block under seqlock.
    auto snapshot_into = [&](std::span<double> s) {
      if (consistent)
        store->read_all(s, tags);
      else
        shared->snapshot_into(s);
    };
    auto publish = [&](la::BlockId b, const la::BlockRange& r) {
      if (consistent)
        store->write_block(b, out, ++my_step);
      else
        shared->store_block(r.begin, out);
    };
    const la::BlockShare owned = la::block_share(m, options.workers, w);
    std::size_t cursor = 0;
    std::uint64_t own_updates = 0;
    DisplacementStop stop_rule;  // worker 0 only
    const ThreadCpuTimer cpu_total;
    ThreadCpuTimer cpu_timer;
    const std::size_t reps = slowdown_repetitions(options.worker_slowdown, w);
    while (!stop.load(std::memory_order_relaxed)) {
      const la::BlockId b = owned.first + static_cast<la::BlockId>(cursor);
      cursor = (cursor + 1) % owned.count;
      const la::BlockRange r = partition.range(b);
      out.resize(r.size());
      const bool traced = obs::tracing_full();
      const std::uint64_t t_phase_ns = traced ? obs::phase_start_ns() : 0;
      if (consistent)
        store->read_all(local, tags);
      else if (private_phase)
        local.assign(shared->raw_view().begin(), shared->raw_view().end());
      // Hogwild reads the raw view in place; element loads are never torn
      // on the supported targets (see shared_iterate.hpp).
      const std::span<const double> input =
          private_phase ? std::span<const double>(local) : shared->raw_view();
      if (displacement_stop)
        prev_block.assign(input.begin() + static_cast<std::ptrdiff_t>(r.begin),
                          input.begin() + static_cast<std::ptrdiff_t>(r.end));
      for (std::size_t t = 0; t < options.inner_steps; ++t) {
        for (std::size_t rep = 0; rep < reps; ++rep)
          op.apply_block(b, input, out, ws);  // slow worker: redo the work
        if (private_phase)
          std::copy(out.begin(), out.end(),
                    local.begin() + static_cast<std::ptrdiff_t>(r.begin));
        // Flexible communication: publish each partial as it is produced,
        // so other workers can consume it at once.
        if (options.publish_partials && t + 1 < options.inner_steps) {
          publish(b, r);
          obs::record(obs::EventType::kBlockUpdate, 1, b, own_updates + 1,
                      0.0);
        }
      }
      publish(b, r);
      if (displacement_stop) {
        std::atomic_ref<double>(last_displacement[b])
            .store(la::dist2(out, prev_block), std::memory_order_relaxed);
      }
      ++own_updates;
      if (traced)
        obs::record_phase_end(obs::EventType::kBlockUpdate, 0, b, own_updates,
                              t_phase_ns);
      total_updates.fetch_add(1, std::memory_order_relaxed);

      if (own_updates % options.check_every == 0) {
        const double now = timer.seconds();
        if (now > options.max_seconds ||
            total_updates.load(std::memory_order_relaxed) >=
                options.max_updates) {
          stop_run(stop,
                   now > options.max_seconds ? obs::StopReason::kWallBudget
                                             : obs::StopReason::kUpdateBudget,
                   own_updates, now);
          break;
        }
        if (w == 0) {
          // worker 0 doubles as the convergence monitor
          if (oracle) {
            op::Scratch snap(ws, partition.dim());
            snapshot_into(snap.span());
            if (norm.distance(snap, *options.x_star) < options.tol)
              stop_run(stop, obs::StopReason::kOracle, own_updates, now);
          }
          if (displacement_stop &&
              stop_rule.should_stop(last_displacement, op,
                                    options.displacement_tol, snapshot_into,
                                    ws))
            stop_run(stop, obs::StopReason::kDisplacement, own_updates, now);
        }
        // On oversubscribed machines (fewer cores than workers) a worker
        // otherwise burns its whole OS quantum re-iterating against the
        // other workers' frozen blocks. Yielding after each slice of OWN
        // CPU time keeps the interleaving fine-grained without distorting
        // the update-count ratio between fast and slow workers (every
        // worker gives up the core at the same CPU-consumption cadence,
        // so counts stay proportional to speed); it is free when every
        // worker has its own core.
        if (cpu_timer.seconds() > kYieldPeriod) {
          cpu_timer.reset();
          std::this_thread::yield();
        }
      }
    }
    per_worker[w] = own_updates;
    cpu_per_worker[w] = cpu_total.seconds();
  };

  run_on_threads(options.workers, [&](std::uint32_t w) {
    try {
      worker_fn(w);
    } catch (...) {
      // End every other worker's loop; run_on_threads rethrows on the
      // caller once they have all returned.
      stop.store(true, std::memory_order_relaxed);
      throw;
    }
  });

  RuntimeResult result;
  result.wall_seconds = timer.seconds();
  result.x.resize(partition.dim());
  std::vector<model::Step> tags(m);
  if (consistent)
    store->read_all(result.x, tags);
  else
    shared->snapshot_into(result.x);
  result.total_updates = total_updates.load();
  result.updates_per_worker = per_worker;
  result.cpu_seconds_per_worker = cpu_per_worker;
  if (oracle) {
    result.final_error = norm.distance(result.x, *options.x_star);
    result.converged = result.final_error < options.tol;
  }
  return result;
}

RuntimeResult run_sync_threads(const op::BlockOperator& op,
                               const la::Vector& x0,
                               const RuntimeOptions& options) {
  const la::Partition& partition = op.partition();
  const std::size_t m = partition.num_blocks();
  ASYNCIT_CHECK(options.workers >= 1 && options.workers <= m);
  ASYNCIT_CHECK(x0.size() == partition.dim());

  la::WeightedMaxNorm norm{partition};
  const bool oracle = options.x_star.has_value();

  la::Vector x = x0;          // published state (read phase)
  la::Vector x_next = x0;     // staging (write phase)
  std::atomic<bool> stop{false};
  // A worker's block threw. Only the completion step turns this into
  // `stop`, so every worker reads the same `stop` after a round: a
  // worker that left between rounds on an early `stop` would leave the
  // others waiting at the barrier for it.
  std::atomic<bool> failed{false};
  std::atomic<std::uint64_t> rounds{0};
  WallTimer timer;
  double round_start = 0.0;  // completion-step only (single thread)

  std::barrier barrier(static_cast<std::ptrdiff_t>(options.workers),
                       [&]() noexcept {
                         // round completion (single thread): publish and
                         // evaluate stopping
                         x.swap(x_next);
                         const std::uint64_t r =
                             rounds.fetch_add(1, std::memory_order_relaxed) +
                             1;
                         const double now = timer.seconds();
                         // One phase event per BSP round (all m blocks).
                         obs::record(obs::EventType::kBlockUpdate, 0,
                                     static_cast<std::uint32_t>(m), r,
                                     now - round_start);
                         round_start = now;
                         if (now > options.max_seconds ||
                             r * m >= options.max_updates)
                           stop_run(stop,
                                    now > options.max_seconds
                                        ? obs::StopReason::kWallBudget
                                        : obs::StopReason::kUpdateBudget,
                                    r, now);
                         if (oracle &&
                             norm.distance(x, *options.x_star) < options.tol)
                           stop_run(stop, obs::StopReason::kOracle, r, now);
                         if (failed.load(std::memory_order_relaxed))
                           stop.store(true, std::memory_order_relaxed);
                       });

  auto worker_fn = [&](std::uint32_t w) {
    const obs::ScopedRank trace_rank(w);
    op::Workspace ws;
    la::Vector out(partition.max_block_size());
    const std::size_t reps = slowdown_repetitions(options.worker_slowdown, w);
    const la::BlockShare owned = la::block_share(m, options.workers, w);
    while (!stop.load(std::memory_order_relaxed)) {
      for (la::BlockId b = owned.first; b < owned.first + owned.count; ++b) {
        const la::BlockRange r = partition.range(b);
        out.resize(r.size());
        for (std::size_t rep = 0; rep < reps; ++rep)
          op.apply_block(b, x, out, ws);
        std::copy(out.begin(), out.end(),
                  x_next.begin() + static_cast<std::ptrdiff_t>(r.begin));
      }
      barrier.arrive_and_wait();  // everyone published; completion swaps
    }
  };

  run_on_threads(options.workers, [&](std::uint32_t w) {
    try {
      worker_fn(w);
    } catch (...) {
      // Ends the other workers' loops after this round, and leaves the
      // barrier (this round's arrival included), so no round waits on
      // this worker; run_on_threads rethrows on the caller.
      failed.store(true, std::memory_order_relaxed);
      barrier.arrive_and_drop();
      throw;
    }
  });

  RuntimeResult result;
  result.wall_seconds = timer.seconds();
  result.x = x;
  result.rounds = rounds.load();
  result.total_updates = result.rounds * m;
  result.updates_per_worker.assign(options.workers,
                                   result.rounds * (m / options.workers));
  if (oracle) {
    result.final_error = norm.distance(result.x, *options.x_star);
    result.converged = result.final_error < options.tol;
  }
  return result;
}

}  // namespace asyncit::rt
