// asyncit_node — one rank of a multi-process run (solve or train).
//
// Every process builds the SAME seeded problem (the generators are pure
// functions of the config's seed), connects to the other ranks over TCP
// using the address table in the config file, and runs its own rank's
// role. scripts/launch_cluster.py writes the config, picks free ports,
// and spawns one asyncit_node per rank:
//
//   scripts/launch_cluster.py --workers 4 --dim 128 --blocks 8
//   scripts/launch_cluster.py --workload train --workers 4
//       --target-accuracy 0.95
//
// Manual use:
//   asyncit_node --config cluster.cfg --rank 2
//   asyncit_node --schema          # dump the config key table as JSON
//
// The config format and the full key table live in ONE place:
// src/asyncit/net/node_config.{hpp,cpp}. `--schema` prints that table
// (schema asyncit-node-config/1) so launchers can validate the keys they
// write without parsing C++.
//
// Workloads (config key `workload`):
//   solve   net::run_node over the seeded Jacobi system — rank r owns
//           its partition blocks, exit 0 when the final oracle error is
//           below tol (or the 10x band when another rank announced).
//   train   train::run_training_node — rank 0 is the parameter server,
//           ranks 1..world-1 are minibatch-SGD workers over the seeded
//           synthetic logistic dataset (every rank rebuilds it from the
//           config; nothing dataset-sized crosses the wire). Exit 0 when
//           the target accuracy was reached (or, with target_accuracy 0,
//           when the budgeted run completed). Only the server evaluates
//           the final model: its lines carry the loss and accuracy, and
//           worker ranks report -1 for both.
//
// Output: one `ASYNCIT_NODE_JSON {...}` line per rank (schema
// asyncit-node/4), the machine-readable contract launch_cluster.py
// aggregates and asserts on. /3 added to the /2 fields:
//   workload  "solve" | "train"
//   train     {epoch, examples_per_sec, loss, accuracy, steps,
//             deltas_applied, examples} — null for solve-only ranks;
//             loss and accuracy are -1 on worker ranks
// and /4 drops /3's `steering` object.
// Solve-specific fields (error, inversions, membership, links, ...)
// keep their /2 meaning and are simply absent from train-workload
// lines. The ASYNCIT_NODE_START marker carries
// epoch_ns (realtime clock at solve start) so tools/trace_merge.py can
// cross-check its per-rank clock alignment.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "asyncit/asyncit.hpp"
#include "asyncit/net/node_config.hpp"
#include "asyncit/obs/exporter.hpp"
#include "asyncit/obs/metrics.hpp"
#include "asyncit/obs/streamer.hpp"
#include "asyncit/train/psgd.hpp"

namespace {

using namespace asyncit;

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "asyncit_node: %s\n", msg.c_str());
  std::exit(2);
}

/// Prints the solve-start marker (churn anchoring + trace-merge clock
/// cross-check).
void print_start_marker(std::uint32_t rank) {
  const std::uint64_t start_epoch_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  std::printf("ASYNCIT_NODE_START rank=%u epoch_ns=%llu\n", rank,
              static_cast<unsigned long long>(start_epoch_ns));
  std::fflush(stdout);
}

/// Streaming trace windows (config stream_interval > 0): a background
/// flusher owns the rings for the whole run, so a killed/hung rank
/// leaves its newest windows on disk instead of nothing.
std::unique_ptr<obs::TraceStreamer> make_streamer(const net::NodeConfig& cfg,
                                                  std::uint32_t rank) {
  if (cfg.stream_interval <= 0.0 || cfg.trace != obs::TraceLevel::kFull ||
      cfg.trace_dir.empty())
    return nullptr;
  obs::StreamerConfig sc;
  sc.dir = cfg.trace_dir;
  sc.rank = static_cast<std::uint16_t>(rank);
  sc.interval_seconds = cfg.stream_interval;
  sc.max_windows = cfg.stream_windows;
  sc.label = "asyncit_node";
  return std::make_unique<obs::TraceStreamer>(sc);
}

/// Per-rank trace + metrics artifacts (trace_merge.py consumes the
/// former; launch_cluster.py archives both).
void export_obs_artifacts(const net::NodeConfig& cfg, std::uint32_t rank,
                          std::uint64_t events_dropped,
                          obs::TraceStreamer* streamer) {
  if (cfg.trace == obs::TraceLevel::kOff || cfg.trace_dir.empty()) return;
  const std::string base = cfg.trace_dir + "/rank_" + std::to_string(rank);
  if (streamer != nullptr) {
    // The windows ARE the trace record: the final stop() flush drains
    // whatever the last period left behind. Writing the one-shot
    // trace.json too would duplicate every windowed event in a merge.
    streamer->stop();
  } else if (cfg.trace == obs::TraceLevel::kFull) {
    obs::ExportMeta meta;
    meta.rank = static_cast<std::uint16_t>(rank);
    meta.epoch_realtime_ns =
        obs::TraceRecorder::instance().epoch_realtime_ns();
    meta.events_dropped = events_dropped;
    meta.label = "asyncit_node";
    if (!obs::export_chrome_trace_file(base + ".trace.json", meta))
      std::fprintf(stderr, "[rank %u] trace export failed: %s\n", rank,
                   (base + ".trace.json").c_str());
  }
  std::ofstream mf(base + ".metrics.json");
  if (mf)
    mf << obs::MetricsRegistry::instance().to_json() << "\n";
  else
    std::fprintf(stderr, "[rank %u] metrics export failed: %s\n", rank,
                 (base + ".metrics.json").c_str());
}

int run_solve_workload(const net::NodeConfig& cfg, std::uint32_t rank,
                       transport::Transport& fabric, bool quiet) {
  // Every process derives the identical problem and reference solution
  // from the config seed — nothing problem-sized crosses the wire except
  // the iterate blocks themselves.
  Rng rng(cfg.seed);
  auto sys = problems::make_diagonally_dominant_system(
      cfg.dim, cfg.nnz, cfg.dominance, rng);
  la::Partition partition = la::Partition::balanced(cfg.dim, cfg.blocks);
  op::JacobiOperator jacobi(sys.a, sys.b, partition);
  const la::Vector x_star =
      op::picard_solve(jacobi, la::zeros(cfg.dim), 50000, 1e-14);

  print_start_marker(rank);

  net::MpOptions opt = net::solve_options(cfg);
  opt.solve.x_star = x_star;

  const auto streamer = make_streamer(cfg, rank);
  const net::MpResult result =
      net::run_node(jacobi, la::zeros(cfg.dim), opt, fabric.endpoint(rank));

  // Let the final frames (stop announcement, last block values) reach
  // the wire before the sockets close under the other ranks.
  fabric.flush(2.0);
  export_obs_artifacts(cfg, rank, result.obs_events_dropped,
                       streamer.get());

  // A rank that was stopped by another rank's announcement (gated modes
  // stop on the first kStop) may sit within in-flight staleness of the
  // tolerance rather than below it; accept the same 10x band the bench
  // baselines use — but ONLY when a peer actually announced. A rank that
  // merely exhausted its budget without anyone converging must fail.
  const bool peer_stopped = result.peers_stopped > 0;
  const bool ok =
      result.converged ||
      (peer_stopped && result.final_error >= 0.0 &&
       result.final_error < 10.0 * cfg.tol);

  if (!quiet)
    std::printf(
        "[rank %u] %s: error %.3e (tol %.1e) after %.3f s, %llu updates, "
        "%llu rounds, sent %llu delivered %llu dropped %llu "
        "inversions %llu\n",
        rank, ok ? "converged" : "DID NOT CONVERGE", result.final_error,
        cfg.tol, result.wall_seconds,
        static_cast<unsigned long long>(result.total_updates),
        static_cast<unsigned long long>(result.rounds),
        static_cast<unsigned long long>(result.messages_sent),
        static_cast<unsigned long long>(result.messages_delivered),
        static_cast<unsigned long long>(result.messages_dropped),
        static_cast<unsigned long long>(result.inversions_observed));
  const std::uint64_t bad_frames = fabric.bad_frames();
  const membership::Stats& ms = result.membership;
  std::string live = "[";
  for (std::size_t i = 0; i < result.live_at_exit.size(); ++i) {
    if (i > 0) live += ",";
    live += std::to_string(result.live_at_exit[i]);
  }
  live += "]";
  // asyncit-node/2 additions, built as strings (the printf below is
  // already at the edge of readability).
  char qb[192];
  const auto quantiles_json = [&qb](const net::DelayHistogram& h) {
    std::snprintf(qb, sizeof qb,
                  "{\"count\":%llu,\"p50\":%.9g,\"p95\":%.9g,"
                  "\"p99\":%.9g,\"max\":%.9g}",
                  static_cast<unsigned long long>(h.count()), h.p50(),
                  h.p95(), h.p99(), h.max());
    return std::string(qb);
  };
  std::string links = "[";
  for (std::size_t i = 0; i < result.link_delays.size(); ++i) {
    const net::MpResult::LinkDelay& l = result.link_delays[i];
    if (i > 0) links += ",";
    links += "{\"src\":" + std::to_string(l.src) +
             ",\"dst\":" + std::to_string(l.dst) +
             ",\"quantiles\":" + quantiles_json(l.delays) + "}";
  }
  links += "]";
  std::string audit_json = "null";
  if (!result.admissibility.empty()) {
    const obs::AdmissibilityReport& ar = result.admissibility.front();
    char ab[384];
    std::snprintf(
        ab, sizeof ab,
        "{\"steps\":%llu,\"a_holds\":%s,\"b_diverging\":%s,"
        "\"b_final_min_label\":%llu,\"c_fair\":%s,"
        "\"c_min_occurrences\":%llu,\"c_worst_gap\":%llu,"
        "\"d_bound\":%llu,\"d_at_step\":%llu,\"d_mean\":%.9g}",
        static_cast<unsigned long long>(ar.steps),
        ar.a_holds ? "true" : "false", ar.b_diverging ? "true" : "false",
        static_cast<unsigned long long>(ar.b_final_min_label),
        ar.c_fair ? "true" : "false",
        static_cast<unsigned long long>(ar.c_min_occurrences),
        static_cast<unsigned long long>(ar.c_worst_gap),
        static_cast<unsigned long long>(ar.d_bound),
        static_cast<unsigned long long>(ar.d_at_step), ar.d_mean);
    audit_json = ab;
  }
  std::printf(
      "ASYNCIT_NODE_JSON {\"schema\":\"asyncit-node/4\","
      "\"workload\":\"solve\",\"rank\":%u,"
      "\"ok\":%s,\"converged\":%s,\"error\":%.17g,\"tol\":%.17g,"
      "\"wall_seconds\":%.6f,\"updates\":%llu,\"rounds\":%llu,"
      "\"sent\":%llu,\"delivered\":%llu,\"dropped\":%llu,"
      "\"inversions\":%llu,\"stale_filtered\":%llu,\"partials_sent\":%llu,"
      "\"peers_stopped\":%llu,\"frames_rejected\":%llu,\"bad_frames\":%llu,"
      "\"membership\":{\"enabled\":%s,\"pings_sent\":%llu,"
      "\"acks_sent\":%llu,\"acks_received\":%llu,\"ping_reqs_sent\":%llu,"
      "\"gossip_frames_sent\":%llu,\"suspicions\":%llu,"
      "\"deaths_observed\":%llu,\"joins_observed\":%llu,"
      "\"refutations\":%llu,\"control_rejected\":%llu,"
      "\"reassignments\":%llu,\"snapshot_blocks_sent\":%llu,"
      "\"snapshot_blocks_suppressed\":%llu,"
      "\"live_at_exit\":%s},"
      "\"wire\":{\"delta\":%s,\"bytes_raw\":%llu,\"bytes_wire\":%llu,"
      "\"frames_full\":%llu,\"frames_delta\":%llu,"
      "\"frames_heartbeat\":%llu,\"frames_codec\":%llu},"
      "\"delay_quantiles\":%s,\"links\":%s,"
      "\"admissibility\":%s,\"obs\":{\"recorded\":%llu,"
      "\"dropped\":%llu},\"gate_stalls\":%llu,\"train\":null}\n",
      rank, ok ? "true" : "false", result.converged ? "true" : "false",
      result.final_error, cfg.tol, result.wall_seconds,
      static_cast<unsigned long long>(result.total_updates),
      static_cast<unsigned long long>(result.rounds),
      static_cast<unsigned long long>(result.messages_sent),
      static_cast<unsigned long long>(result.messages_delivered),
      static_cast<unsigned long long>(result.messages_dropped),
      static_cast<unsigned long long>(result.inversions_observed),
      static_cast<unsigned long long>(result.stale_filtered),
      static_cast<unsigned long long>(result.partials_sent),
      static_cast<unsigned long long>(result.peers_stopped),
      static_cast<unsigned long long>(result.frames_rejected),
      static_cast<unsigned long long>(bad_frames),
      cfg.membership.enabled ? "true" : "false",
      static_cast<unsigned long long>(ms.pings_sent),
      static_cast<unsigned long long>(ms.acks_sent),
      static_cast<unsigned long long>(ms.acks_received),
      static_cast<unsigned long long>(ms.ping_reqs_sent),
      static_cast<unsigned long long>(ms.gossip_frames_sent),
      static_cast<unsigned long long>(ms.suspicions),
      static_cast<unsigned long long>(ms.deaths_observed),
      static_cast<unsigned long long>(ms.joins_observed),
      static_cast<unsigned long long>(ms.refutations),
      static_cast<unsigned long long>(ms.control_rejected),
      static_cast<unsigned long long>(result.reassignments),
      static_cast<unsigned long long>(result.snapshot_blocks_sent),
      static_cast<unsigned long long>(result.snapshot_blocks_suppressed),
      live.c_str(), cfg.wire_delta ? "true" : "false",
      static_cast<unsigned long long>(result.bytes_sent_raw),
      static_cast<unsigned long long>(result.bytes_sent_wire),
      static_cast<unsigned long long>(result.wire_frames_full),
      static_cast<unsigned long long>(result.wire_frames_delta),
      static_cast<unsigned long long>(result.wire_frames_heartbeat),
      static_cast<unsigned long long>(result.wire_frames_codec),
      quantiles_json(result.delays).c_str(), links.c_str(),
      audit_json.c_str(),
      static_cast<unsigned long long>(result.obs_events_recorded),
      static_cast<unsigned long long>(result.obs_events_dropped),
      static_cast<unsigned long long>(result.gate_stalls));
  return ok ? 0 : 1;
}

int run_train_workload(const net::NodeConfig& cfg, std::uint32_t rank,
                       transport::Transport& fabric, bool quiet) {
  // Every rank rebuilds the identical dataset from (config, seed); only
  // delta and parameter frames cross the wire.
  const train::Dataset data =
      train::make_synthetic_dataset(cfg.dataset, cfg.seed);

  print_start_marker(rank);

  train::TrainOptions opt;
  opt.workers = cfg.world - 1;  // rank 0 is the parameter server
  opt.seed = cfg.seed;
  opt.sgd = cfg.sgd;
  opt.obs.trace_level = cfg.trace;

  const auto streamer = make_streamer(cfg, rank);
  const train::TrainResult result = train::run_training_node(
      data, la::zeros(data.features()), opt, fabric.endpoint(rank));
  fabric.flush(2.0);
  export_obs_artifacts(cfg, rank, result.obs_events_dropped,
                       streamer.get());

  // With a target, reaching it (server) / being stopped because the
  // server reached it (workers) is the acceptance criterion; without
  // one the budgeted run completing is.
  const bool ok = cfg.sgd.target_accuracy > 0.0 ? result.converged : true;
  const std::uint64_t steps =
      result.steps_per_worker.empty() ? 0 : result.steps_per_worker[0];
  const std::uint64_t updates = rank == 0 ? result.deltas_applied : steps;

  // Only the server evaluates the final model (workers report -1).
  char eval[64] = "";
  if (rank == 0)
    std::snprintf(eval, sizeof eval, "accuracy %.4f loss %.4f ",
                  result.final_accuracy, result.final_loss);
  if (!quiet)
    std::printf(
        "[rank %u] %s: %safter %.3f s, epoch %llu, "
        "%llu updates, %.0f examples/s, sent %llu delivered %llu "
        "dropped %llu\n",
        rank, ok ? "trained" : "TARGET NOT REACHED", eval,
        result.wall_seconds, static_cast<unsigned long long>(result.epochs),
        static_cast<unsigned long long>(updates), result.examples_per_sec,
        static_cast<unsigned long long>(result.messages_sent),
        static_cast<unsigned long long>(result.messages_delivered),
        static_cast<unsigned long long>(result.messages_dropped));
  std::printf(
      "ASYNCIT_NODE_JSON {\"schema\":\"asyncit-node/4\","
      "\"workload\":\"train\",\"rank\":%u,\"ok\":%s,\"converged\":%s,"
      "\"wall_seconds\":%.6f,\"updates\":%llu,\"rounds\":%llu,"
      "\"sent\":%llu,\"delivered\":%llu,\"dropped\":%llu,"
      "\"peers_stopped\":%llu,\"frames_rejected\":%llu,"
      "\"bad_frames\":%llu,\"obs\":{\"recorded\":%llu,\"dropped\":%llu},"
      "\"train\":{\"epoch\":%llu,\"examples_per_sec\":%.9g,"
      "\"loss\":%.9g,\"accuracy\":%.9g,\"steps\":%llu,"
      "\"deltas_applied\":%llu,\"examples\":%llu}}\n",
      rank, ok ? "true" : "false", result.converged ? "true" : "false",
      result.wall_seconds, static_cast<unsigned long long>(updates),
      static_cast<unsigned long long>(result.rounds),
      static_cast<unsigned long long>(result.messages_sent),
      static_cast<unsigned long long>(result.messages_delivered),
      static_cast<unsigned long long>(result.messages_dropped),
      static_cast<unsigned long long>(result.peers_stopped),
      static_cast<unsigned long long>(result.frames_rejected),
      static_cast<unsigned long long>(fabric.bad_frames()),
      static_cast<unsigned long long>(result.obs_events_recorded),
      static_cast<unsigned long long>(result.obs_events_dropped),
      static_cast<unsigned long long>(result.epochs),
      result.examples_per_sec, result.final_loss, result.final_accuracy,
      static_cast<unsigned long long>(steps),
      static_cast<unsigned long long>(result.deltas_applied),
      static_cast<unsigned long long>(result.examples_processed));
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_path;
  std::uint32_t rank = 0;
  bool have_rank = false;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--schema") {
      std::printf("%s\n", net::node_config_schema_json().c_str());
      return 0;
    } else if (arg == "--config" && i + 1 < argc) {
      config_path = argv[++i];
    } else if (arg == "--rank" && i + 1 < argc) {
      // strtoul with full-string validation: "--rank x" or "--rank -1"
      // must die loudly, not silently become rank 0 and fight the real
      // rank 0 for its port.
      const char* s = argv[++i];
      char* end = nullptr;
      const unsigned long v = std::strtoul(s, &end, 10);
      if (s[0] == '\0' || s[0] == '-' || end == nullptr || *end != '\0' ||
          v > 0xFFFFFFFFul)
        die(std::string("invalid --rank value: ") + s);
      rank = static_cast<std::uint32_t>(v);
      have_rank = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      die("usage: asyncit_node --config <file> --rank <r> [--quiet] | "
          "asyncit_node --schema");
    }
  }
  if (config_path.empty() || !have_rank)
    die("usage: asyncit_node --config <file> --rank <r> [--quiet] | "
        "asyncit_node --schema");

  net::NodeConfig cfg;
  std::string error;
  if (!net::load_node_config(config_path, cfg, error)) die(error);
  if (rank >= cfg.world) die("rank out of range");

  transport::TcpOptions topts;
  topts.nodes = cfg.nodes;
  topts.local_ranks = {rank};
  topts.connect_timeout_seconds = 30.0;
  if (cfg.workload == net::Workload::kSolve) {
    // Tighten the decode-time frame bound to what this run can actually
    // produce: the widest partition block, or a gossip payload (3 doubles
    // per membership update, at most one update per rank).
    const std::size_t widest = (cfg.dim + cfg.blocks - 1) / cfg.blocks;
    topts.max_frame_doubles = static_cast<std::uint32_t>(
        std::max<std::size_t>(widest, 3 * cfg.world));
  }
  const bool is_late =
      std::find(cfg.late.begin(), cfg.late.end(), rank) != cfg.late.end();
  if (cfg.elastic) {
    topts.elastic = true;
    // With membership, launch-time ranks rendezvous with each other and
    // a late joiner rendezvouses with NOBODY — it dials in lazily (some
    // initial ranks may already be dead) and is discovered via gossip.
    // Plain elastic (the train churn leg) has no late slots: everyone
    // rendezvouses, and deaths after that simply stop mattering.
    if (cfg.membership.enabled) {
      if (!is_late) topts.expected_ranks = cfg.membership.initial_alive;
    } else {
      topts.expected_ranks.resize(cfg.world);
      for (std::uint32_t r = 0; r < cfg.world; ++r)
        topts.expected_ranks[r] = r;
    }
  }
  if (!quiet)
    std::printf("[rank %u] rendezvous: %zu ranks%s, my port %u\n", rank,
                cfg.world, is_late ? " (late join)" : "",
                cfg.nodes[rank].port);
  transport::TcpTransport tcp(std::move(topts));
  std::unique_ptr<transport::ChaosTransport> chaos;
  if (cfg.chaos)
    chaos = std::make_unique<transport::ChaosTransport>(
        tcp, cfg.chaos_policy, cfg.seed);
  transport::Transport& fabric =
      chaos ? static_cast<transport::Transport&>(*chaos) : tcp;

  return cfg.workload == net::Workload::kTrain
             ? run_train_workload(cfg, rank, fabric, quiet)
             : run_solve_workload(cfg, rank, fabric, quiet);
}
