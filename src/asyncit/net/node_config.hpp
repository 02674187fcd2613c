// The node config schema — single source of truth for every key a
// per-process deployment understands.
//
// tools/asyncit_node.cpp parses its config file through
// parse_node_config(), and scripts/launch_cluster.py validates every key
// it writes against the JSON table `asyncit_node --schema` dumps — both
// sides read THE SAME table below (node_config_schema()), so a key
// cannot exist in the parser without being documented, and the launcher
// cannot silently write a key the node would reject.
// tools/asyncit_sim.cpp (transport sim: the whole world in one process
// over virtual time) and scripts/sim_sweep.py reuse the same table the
// same way — the sim_* keys live here, not in a parallel schema.
//
// Config format: order-free "key value" lines, '#' starts a comment.
// `world` must precede `node` lines. Two workloads share the file
// format:
//   workload solve   net::run_node over the seeded Jacobi system
//   workload train   train::run_training_node — rank 0 parameter
//                    server, ranks 1..world-1 SGD workers over the
//                    seeded synthetic logistic dataset
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "asyncit/membership/membership.hpp"
#include "asyncit/net/mp_runtime.hpp"
#include "asyncit/obs/trace_recorder.hpp"
#include "asyncit/problems/synthetic.hpp"
#include "asyncit/simnet/config.hpp"
#include "asyncit/train/train.hpp"
#include "asyncit/transport/tcp.hpp"

namespace asyncit::net {

enum class Workload { kSolve, kTrain };

/// Everything a rank needs to join a run: the address table plus the
/// problem/solver/training knobs, all derived from one config file so
/// every process reconstructs identical seeded state.
struct NodeConfig {
  std::size_t world = 0;
  std::uint64_t seed = 42;
  Workload workload = Workload::kSolve;
  std::vector<transport::TcpPeerAddress> nodes;

  // -- solve workload: seeded Jacobi system + solver discipline --
  std::size_t dim = 128;
  std::size_t blocks = 8;
  std::size_t nnz = 4;
  double dominance = 2.0;
  net::Mode mode = net::Mode::kAsync;
  std::uint64_t staleness = 2;  ///< SSP bound (both workloads)
  std::size_t inner_steps = 1;
  bool publish_partials = false;
  net::OverwritePolicy overwrite = net::OverwritePolicy::kLastArrivalWins;
  double tol = 1e-8;
  double max_seconds = 30.0;
  std::uint64_t max_updates = 100000000;
  /// Wall-budget/yield check cadence in own updates. The stopping
  /// criterion does not use it: every rank checks at each sweep end.
  std::uint64_t check_every = 16;

  // -- train workload: seeded logistic dataset + SGD discipline --
  problems::LogisticConfig dataset;  ///< samples/features/density/...
  train::SgdOptions sgd;             ///< discipline/lr/batch/epochs/...

  // -- wire efficiency (solve workload; net::WireOptions) --
  bool wire_delta = false;          ///< per-link delta encoding
  std::uint32_t wire_topk = 0;      ///< delta window cap (coords; 0=off)
  std::uint32_t wire_quant_bits = 0;  ///< 0 raw, 8/16 scalar quant
  std::uint32_t wire_refresh_every = 16;  ///< full-frame resync period

  // -- fabric --
  /// transport sim: the whole world runs in ONE process over the
  /// simnet/ virtual-time engine (tools/asyncit_sim); node lines are
  /// not required and max_seconds is a VIRTUAL budget. The sim_* keys
  /// below populate `simcfg`.
  bool sim = false;
  simnet::SimConfig simcfg;
  /// Determinism re-runs: asyncit_sim executes the world `sim_runs`
  /// times and fails unless every run agrees on the event-log hash and
  /// final residual.
  std::size_t sim_runs = 1;
  bool chaos = false;
  net::DeliveryPolicy chaos_policy;
  /// Elastic TCP without the SWIM detector: sends to dead peers drop
  /// instead of wedging teardown (the train churn leg; implied by
  /// `membership 1`).
  bool elastic = false;
  membership::Options membership;
  std::vector<std::uint32_t> late;  ///< slots absent at launch

  // -- observability --
  obs::TraceLevel trace = obs::TraceLevel::kOff;
  std::string trace_dir;
  bool audit = false;
  /// Streaming trace windows (obs/streamer.hpp): > 0 arms a background
  /// flusher writing rank_<r>.window_<k>.trace.json chunks into
  /// trace_dir every `stream_interval` seconds, keeping the newest
  /// `stream_windows` on disk — a killed rank leaves its recent past
  /// behind. Requires trace full + trace_dir; replaces the single exit
  /// trace.json (the windows ARE the record; trace_merge.py stitches).
  double stream_interval = 0.0;
  std::size_t stream_windows = 8;
};

/// One documented key. `type` is a human/launcher hint (int, float,
/// bool01, string, enum:a|b|c, "rank host port", repeatable-int).
struct ConfigKeySpec {
  const char* key;
  const char* type;
  const char* default_value;
  const char* help;
};

/// The full key table, in documentation order.
std::span<const ConfigKeySpec> node_config_schema();

/// {"schema":"asyncit-node-config/1","keys":[{key,type,default,help}...]}
/// — what `asyncit_node --schema` prints and launch_cluster.py validates
/// its generated configs against.
std::string node_config_schema_json();

/// Parses "key value" lines from `in`. Returns false and sets `error`
/// (prefixed with `name:line:`) on any unknown key, malformed value, or
/// failed cross-field validation.
bool parse_node_config(std::istream& in, const std::string& name,
                       NodeConfig& out, std::string& error);

/// File wrapper around the stream parser ("cannot open" becomes the
/// error string).
bool load_node_config(const std::string& path, NodeConfig& out,
                      std::string& error);

/// The solve workload's run options: every solve, wire, membership and
/// observability key of `cfg` on net::MpOptions — the one mapping
/// asyncit_node and asyncit_sim share. The caller sets solve.x_star.
MpOptions solve_options(const NodeConfig& cfg);

}  // namespace asyncit::net
