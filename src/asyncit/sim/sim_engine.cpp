#include "asyncit/sim/sim_engine.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "asyncit/linalg/partition.hpp"
#include "asyncit/support/check.hpp"

namespace asyncit::sim {

namespace {

using model::Step;

constexpr auto kValue = static_cast<std::uint8_t>(net::MsgKind::kValue);

/// The run's virtual time, the trace clock of a traced run (armed at 0,
/// so timestamps are virtual time; one unit reads as one second).
thread_local double t_now = 0.0;

enum class EventKind : std::uint8_t {
  kInnerStep,   // one inner application of the block operator
  kMsgArrive,   // data message (full or partial update) delivered
  kScanStart,   // coordinator launches a detection scan
  kScanProbe,   // scan request reaches a processor
  kScanReply,   // processor's reply reaches the coordinator
};

struct Event {
  double time = 0.0;
  std::uint64_t seq = 0;  // deterministic tie-break
  EventKind kind = EventKind::kInnerStep;
  std::uint32_t proc = 0;       // target processor
  std::size_t inner_index = 0;  // kInnerStep: which inner step (1-based)
  // kMsgArrive payload
  la::BlockId block = 0;
  la::Vector value;
  Step tag = 0;
  bool partial = false;
  std::uint32_t src = 0;
  double t_send = 0.0;
  // detection payload
  std::size_t scan_id = 0;
  DoubleScanDetector::Reply reply;
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

struct ProcessorState {
  std::vector<la::BlockId> owned;   // blocks this processor updates
  std::size_t next_owned = 0;       // round-robin cursor
  std::size_t phases_done = 0;      // k (phase counter)

  la::Vector view;                  // local copy of the iterate
  std::vector<Step> view_tag;       // production step per block

  // current phase
  la::BlockId block = 0;
  double phase_start = 0.0;
  double phase_duration = 0.0;
  la::Vector snapshot;              // frozen read (non-flexible mode)
  la::Vector inner_value;           // current inner iterate of `block`
  std::vector<Step> phase_labels;   // min tag observed per block this phase

  // termination detection
  std::uint64_t data_sent = 0;
  std::uint64_t data_received = 0;
  double last_displacement = 1e300;
  // With detection enabled a locally-converged processor goes PASSIVE: it
  // stops launching phases and stops sending unchanged values; an arriving
  // message that materially changes its view reactivates it. This is the
  // diffusing-computation behaviour [22]-style protocols assume — without
  // it no distributed system ever quiesces and termination is undecidable.
  bool passive = false;

  Rng rng{1};
};

}  // namespace

SimResult run_async_sim(const op::BlockOperator& op, const la::Vector& x0,
                        std::vector<std::unique_ptr<ComputeTimeModel>> compute,
                        LatencyModel& latency, const SimOptions& options) {
  const la::Partition& partition = op.partition();
  const std::size_t m = partition.num_blocks();
  const std::size_t n = partition.dim();
  const std::size_t procs = compute.size();
  ASYNCIT_CHECK(procs >= 1 && procs <= m);
  ASYNCIT_CHECK(x0.size() == n);
  ASYNCIT_CHECK(options.inner_steps >= 1);
  ASYNCIT_CHECK_MSG(!options.enable_detection || options.drop_prob == 0.0,
                    "the [22]-style detector assumes reliable channels; "
                    "run fault injection with detection disabled");

  la::WeightedMaxNorm norm =
      options.norm_weights.empty()
          ? la::WeightedMaxNorm(partition)
          : la::WeightedMaxNorm(partition, options.norm_weights);

  Rng master(options.seed);
  SimResult result(m, options.recording);
  result.updates_per_processor.assign(procs, 0);

  // --- ownership: contiguous, near-even block split ---
  std::vector<ProcessorState> ps(procs);
  for (std::size_t p = 0; p < procs; ++p) {
    ps[p].owned = la::block_share(m, procs, p).blocks();
    ps[p].view = x0;
    ps[p].view_tag.assign(m, 0);
    ps[p].phase_labels.assign(m, 0);
    ps[p].rng = master.split();
  }

  // --- global (true) iterate: latest completed update per block ---
  la::Vector x_global = x0;
  model::MacroIterationTracker macro(m);
  model::EpochTracker epoch(procs);

  const bool track_error = options.x_star.has_value();
  const la::Vector* x_star = track_error ? &*options.x_star : nullptr;
  if (track_error) {
    ASYNCIT_CHECK(x_star->size() == n);
    double e0 = 0.0;
    for (la::BlockId b = 0; b < m; ++b)
      e0 = std::max(e0, norm.block_distance(x0, *x_star, b));
    result.initial_error = e0;
  }

  std::priority_queue<Event, std::vector<Event>, EventLater> queue;
  op::Workspace ws;        // operator scratch shared by all simulated procs
  la::Vector apply_out;    // inner-step output buffer (reused)
  std::uint64_t seq = 0;
  auto push = [&](Event e) {
    e.seq = seq++;
    queue.push(std::move(e));
  };

  // FIFO enforcement: last scheduled arrival per (src, dst) channel.
  std::vector<double> fifo_last(procs * procs, 0.0);

  Step global_step = 0;
  bool stop = false;
  double& now = t_now;
  now = 0.0;
  obs::ScopedTrace tracing(
      options.trace_level, obs::TraceConfig{}.ring_capacity * procs,
      [] { return static_cast<std::uint64_t>(std::llround(t_now * 1e9)); });

  // detection state
  DoubleScanDetector detector;
  std::size_t scan_id = 0;
  std::size_t scan_replies = 0;
  std::vector<DoubleScanDetector::Reply> scan_buffer(procs);

  auto start_phase = [&](std::uint32_t p, double t) {
    ProcessorState& s = ps[p];
    s.block = s.owned[s.next_owned];
    s.next_owned = (s.next_owned + 1) % s.owned.size();
    ++s.phases_done;
    s.phase_start = t;
    s.phase_duration = compute[p]->phase_duration(s.phases_done, s.rng);
    ASYNCIT_CHECK(s.phase_duration > 0.0);
    if (!options.publish_partials) s.snapshot = s.view;
    const la::BlockRange r = partition.range(s.block);
    s.inner_value.assign(s.view.begin() + static_cast<std::ptrdiff_t>(r.begin),
                         s.view.begin() + static_cast<std::ptrdiff_t>(r.end));
    s.phase_labels = s.view_tag;  // tags at phase start
    for (std::size_t t_idx = 1; t_idx <= options.inner_steps; ++t_idx) {
      Event e;
      e.time = t + s.phase_duration *
                       (static_cast<double>(t_idx) /
                        static_cast<double>(options.inner_steps));
      e.kind = EventKind::kInnerStep;
      e.proc = p;
      e.inner_index = t_idx;
      push(std::move(e));
    }
  };

  auto send_value = [&](std::uint32_t p, la::BlockId b,
                        const la::Vector& value, Step tag, bool partial,
                        double t) {
    ProcessorState& s = ps[p];
    for (std::uint32_t q = 0; q < procs; ++q) {
      if (q == p) continue;
      ++result.messages_sent;
      if (partial) ++result.partials_sent;
      const bool dropped = s.rng.bernoulli(options.drop_prob);
      double arrive = t + latency.latency(s.rng);
      if (options.fifo) {
        double& last = fifo_last[p * procs + q];
        arrive = std::max(arrive, last + 1e-9);
        last = arrive;
      }
      if (dropped) {
        obs::record(obs::EventType::kFrameDrop, kValue, q, tag, 0.0);
        ++result.messages_dropped;
        continue;
      }
      obs::record(obs::EventType::kFrameSend, kValue, q, tag,
                  8.0 * double(value.size()));
      if (!partial) ++s.data_sent;
      Event e;
      e.time = arrive;
      e.kind = EventKind::kMsgArrive;
      e.proc = q;
      e.block = b;
      e.value = value;
      e.tag = tag;
      e.partial = partial;
      e.src = p;
      e.t_send = t;
      push(std::move(e));
    }
  };

  auto schedule_scan = [&](double t) {
    Event e;
    e.time = t;
    e.kind = EventKind::kScanStart;
    push(std::move(e));
  };

  for (std::uint32_t p = 0; p < procs; ++p) start_phase(p, 0.0);
  if (options.enable_detection) schedule_scan(options.scan_period);

  while (!queue.empty() && !stop) {
    Event ev = queue.top();
    queue.pop();
    now = ev.time;
    if (now > options.max_time) break;
    const obs::ScopedRank rank(ev.proc);

    switch (ev.kind) {
      case EventKind::kInnerStep: {
        ProcessorState& s = ps[ev.proc];
        const la::BlockRange r = partition.range(s.block);
        // Read vector: live view (flexible) or phase-start snapshot.
        la::Vector& read = options.publish_partials ? s.view : s.snapshot;
        // Own block iterates on the inner value.
        std::copy(s.inner_value.begin(), s.inner_value.end(),
                  read.begin() + static_cast<std::ptrdiff_t>(r.begin));
        if (options.publish_partials) {
          // labels: min tag actually observed across inner reads
          for (la::BlockId h = 0; h < m; ++h)
            s.phase_labels[h] = std::min(s.phase_labels[h], s.view_tag[h]);
        }
        apply_out.resize(r.size());
        op.apply_block(s.block, read, apply_out, ws);
        s.inner_value.swap(apply_out);

        if (ev.inner_index < options.inner_steps) {
          if (options.publish_partials) {
            // hatched arrow: ship the partial immediately
            send_value(ev.proc, s.block, s.inner_value,
                       s.view_tag[s.block], /*partial=*/true, now);
            obs::record(obs::EventType::kBlockUpdate, 1, s.block,
                        s.view_tag[s.block], 0.0);
          }
          break;
        }

        // --- phase completes: assign the global iteration number ---
        const Step j = ++global_step;
        // displacement for the local convergence flag
        double disp = 0.0;
        for (std::size_t c = 0; c < r.size(); ++c) {
          const double d = s.inner_value[c] - x_global[r.begin + c];
          disp += d * d;
        }
        s.last_displacement = std::sqrt(disp);

        std::copy(s.inner_value.begin(), s.inner_value.end(),
                  x_global.begin() + static_cast<std::ptrdiff_t>(r.begin));
        std::copy(s.inner_value.begin(), s.inner_value.end(),
                  s.view.begin() + static_cast<std::ptrdiff_t>(r.begin));
        // labels: own block's label is its previous update (tag before now)
        Step l_min = s.phase_labels[0];
        for (la::BlockId h = 1; h < m; ++h)
          l_min = std::min(l_min, s.phase_labels[h]);
        s.view_tag[s.block] = j;

        result.trace.record(
            {s.block}, l_min,
            options.recording == model::LabelRecording::kFull
                ? s.phase_labels
                : std::vector<Step>{},
            ev.proc);
        const bool macro_done =
            macro.observe(j, std::vector<la::BlockId>{s.block}, l_min);
        epoch.observe(j, ev.proc);
        ++result.updates_per_processor[ev.proc];

        double err = -1.0;
        if (track_error &&
            (j % options.record_error_every == 0 || macro_done)) {
          err = norm.distance(x_global, *x_star);
          result.error_history.emplace_back(j, err);
          result.error_vs_time.emplace_back(now, err);
        }

        // Send-on-change: with detection enabled an unchanged value is not
        // re-broadcast (otherwise the system never quiesces).
        const bool changed = s.last_displacement >= options.local_eps;
        if (!options.enable_detection || changed)
          send_value(ev.proc, s.block, s.inner_value, j, /*partial=*/false,
                     now);
        // The publish follows its frames (obs/events.hpp).
        obs::record(obs::EventType::kBlockUpdate, 0, s.block, j,
                    now - s.phase_start);

        result.steps = j;
        if (j >= options.max_steps) stop = true;
        if (track_error && options.stop_on_oracle && err >= 0.0 &&
            err < options.tol) {
          result.converged = true;
          stop = true;
        }
        if (!stop) {
          if (options.enable_detection && !changed)
            s.passive = true;  // locally converged: wait for new data
          else
            start_phase(ev.proc, now);
        }
        break;
      }

      case EventKind::kMsgArrive: {
        ProcessorState& s = ps[ev.proc];
        obs::record(obs::EventType::kFrameRecv, kValue, ev.src, ev.tag,
                    now - ev.t_send);
        if (!ev.partial) ++s.data_received;
        const la::BlockRange r = partition.range(ev.block);
        const bool accept =
            options.overwrite == net::OverwritePolicy::kLastArrivalWins
                ? true
                : ev.tag >= s.view_tag[ev.block];
        if (accept) {
          double change = 0.0;
          for (std::size_t k = 0; k < ev.value.size(); ++k) {
            const double d = ev.value[k] - s.view[r.begin + k];
            change += d * d;
          }
          std::copy(ev.value.begin(), ev.value.end(),
                    s.view.begin() + static_cast<std::ptrdiff_t>(r.begin));
          s.view_tag[ev.block] = ev.tag;
          if (s.passive && std::sqrt(change) >= options.local_eps) {
            s.passive = false;  // new data: reactivate
            start_phase(ev.proc, now);
          }
        }
        break;
      }

      case EventKind::kScanStart: {
        ++scan_id;
        scan_replies = 0;
        for (std::uint32_t p = 0; p < procs; ++p) {
          Event e;
          e.time = now + latency.latency(master);
          e.kind = EventKind::kScanProbe;
          e.proc = p;
          e.scan_id = scan_id;
          push(std::move(e));
        }
        break;
      }

      case EventKind::kScanProbe: {
        const ProcessorState& s = ps[ev.proc];
        Event e;
        e.time = now + latency.latency(master);
        e.kind = EventKind::kScanReply;
        e.proc = 0;  // coordinator
        e.scan_id = ev.scan_id;
        e.src = ev.proc;
        e.reply = {s.last_displacement < options.local_eps, s.data_sent,
                   s.data_received};
        push(std::move(e));
        break;
      }

      case EventKind::kScanReply: {
        if (ev.scan_id != scan_id) break;  // stale scan
        scan_buffer[ev.src] = ev.reply;
        if (++scan_replies == procs) {
          ++result.scans;
          if (detector.scan(scan_buffer)) {
            result.detection_fired = true;
            result.detection_time = now;
            result.detection_step = global_step;
            if (track_error)
              result.error_at_detection = norm.distance(x_global, *x_star);
            result.converged = true;
            stop = true;
          } else {
            schedule_scan(now + options.scan_period);
          }
        }
        break;
      }
    }
  }

  result.virtual_time = now;
  result.x = std::move(x_global);
  result.macro_boundaries = macro.boundaries();
  result.epoch_boundaries = epoch.boundaries();
  return result;
}

SyncSimResult run_sync_sim(const op::BlockOperator& op, const la::Vector& x0,
                           std::vector<std::unique_ptr<ComputeTimeModel>> compute,
                           LatencyModel& latency,
                           const SimOptions& options) {
  const la::Partition& partition = op.partition();
  const std::size_t m = partition.num_blocks();
  const std::size_t procs = compute.size();
  ASYNCIT_CHECK(procs >= 1 && procs <= m);

  la::WeightedMaxNorm norm =
      options.norm_weights.empty()
          ? la::WeightedMaxNorm(partition)
          : la::WeightedMaxNorm(partition, options.norm_weights);

  Rng rng(options.seed);
  SyncSimResult result;
  const bool track_error = options.x_star.has_value();
  const la::Vector* x_star = track_error ? &*options.x_star : nullptr;
  if (track_error) result.initial_error = norm.distance(x0, *x_star);

  op::Workspace ws;
  la::Vector x = x0, y(x.size());
  double t = 0.0;
  const std::size_t max_rounds =
      static_cast<std::size_t>(options.max_steps / m) + 1;

  for (std::size_t round = 1; round <= max_rounds; ++round) {
    // Compute: the barrier waits for the slowest processor. Each
    // processor updates all its blocks once per round; its round work is
    // the sum of owned-phase durations.
    double slowest = 0.0;
    for (std::size_t p = 0; p < procs; ++p) {
      const std::size_t owned = la::block_share(m, procs, p).count;
      double work = 0.0;
      for (std::size_t k = 0; k < owned; ++k)
        work += compute[p]->phase_duration((round - 1) * owned + k + 1, rng);
      slowest = std::max(slowest, work);
    }
    // Communication: all-to-all; a dropped message is retransmitted after
    // a timeout of twice its sampled latency (synchronous systems MUST
    // retransmit — the barrier cannot complete otherwise).
    double comm = 0.0;
    for (std::size_t p = 0; p < procs; ++p) {
      for (std::size_t q = 0; q < procs; ++q) {
        if (p == q) continue;
        double delivery = latency.latency(rng);
        while (rng.bernoulli(options.drop_prob)) {
          delivery += 2.0 * latency.latency(rng);  // timeout + resend
          ++result.retransmissions;
        }
        comm = std::max(comm, delivery);
      }
    }
    t += slowest + comm;

    op.apply(x, y, ws);
    x.swap(y);
    result.rounds = round;

    if (track_error) {
      const double err = norm.distance(x, *x_star);
      result.error_vs_time.emplace_back(t, err);
      if (err < options.tol) {
        result.converged = true;
        break;
      }
    }
    if (t > options.max_time) break;
  }
  result.virtual_time = t;
  result.x = std::move(x);
  return result;
}

}  // namespace asyncit::sim
