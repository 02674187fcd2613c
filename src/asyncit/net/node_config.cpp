#include "asyncit/net/node_config.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

namespace asyncit::net {

namespace {

using Handler = bool (*)(NodeConfig&, std::istringstream&, std::string&);

/// One table row: the documentation AND the parser binding for a key —
/// the two cannot drift apart because they are the same entry.
struct KeyEntry {
  ConfigKeySpec spec;
  Handler handler;
};

template <typename T>
bool read_value(std::istringstream& ls, T& v, std::string& error) {
  if (ls >> v) return true;
  error = "bad value";
  return false;
}

bool read_bool01(std::istringstream& ls, bool& v, std::string& error) {
  int i = 0;
  if (!read_value(ls, i, error)) return false;
  v = i != 0;
  return true;
}

// clang-format off
const KeyEntry kKeys[] = {
    {{"world", "int", "-",
      "number of ranks (required; must precede node lines)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       if (!read_value(ls, c.world, e)) return false;
       c.nodes.resize(c.world);
       return true;
     }},
    {{"node", "rank host port", "-",
      "address of one rank (one line per rank; required)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       std::size_t rank = 0;
       transport::TcpPeerAddress addr;
       if (!read_value(ls, rank, e) || !read_value(ls, addr.host, e) ||
           !read_value(ls, addr.port, e))
         return false;
       if (rank >= c.nodes.size()) {
         e = "node rank out of range (put world first)";
         return false;
       }
       c.nodes[rank] = addr;
       return true;
     }},
    {{"seed", "int", "42", "problem + chaos + dataset seed"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.seed, e);
     }},
    {{"workload", "enum:solve|train", "solve",
      "solve: Jacobi message passing; train: parameter-server SGD"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       std::string w;
       if (!read_value(ls, w, e)) return false;
       if (w == "solve") c.workload = Workload::kSolve;
       else if (w == "train") c.workload = Workload::kTrain;
       else { e = "unknown workload " + w; return false; }
       return true;
     }},

    // -- solve workload --
    {{"dim", "int", "128", "Jacobi system size (solve)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.dim, e);
     }},
    {{"blocks", "int", "8", "partition blocks (solve)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.blocks, e);
     }},
    {{"nnz", "int", "4", "off-diagonal entries per row (solve)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.nnz, e);
     }},
    {{"dominance", "float", "2.0", "diagonal dominance factor (solve)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.dominance, e);
     }},
    {{"mode", "enum:async|ssp|bsp",
      "async", "solver coordination discipline (solve)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       std::string m;
       if (!read_value(ls, m, e)) return false;
       if (m == "async") c.mode = net::Mode::kAsync;
       else if (m == "ssp") c.mode = net::Mode::kSsp;
       else if (m == "bsp") c.mode = net::Mode::kBsp;
       else { e = "unknown mode " + m; return false; }
       return true;
     }},
    {{"staleness", "int", "2",
      "SSP clock-gap bound (solve mode ssp and train discipline ssp)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.staleness, e);
     }},
    {{"inner_steps", "int", "1",
      "operator applications per phase (solve)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.inner_steps, e);
     }},
    {{"publish_partials", "bool01", "0",
      "flexible communication, Definition 3 (solve)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_bool01(ls, c.publish_partials, e);
     }},
    {{"overwrite", "enum:last_arrival|newest_tag", "last_arrival",
      "mailbox overwrite policy (solve)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       std::string p;
       if (!read_value(ls, p, e)) return false;
       if (p == "last_arrival")
         c.overwrite = net::OverwritePolicy::kLastArrivalWins;
       else if (p == "newest_tag")
         c.overwrite = net::OverwritePolicy::kNewestTagWins;
       else { e = "unknown overwrite policy " + p; return false; }
       return true;
     }},
    {{"tol", "float", "1e-8", "oracle stopping tolerance (solve)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.tol, e);
     }},
    {{"max_seconds", "float", "30",
      "per-process wall budget (both workloads)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.max_seconds, e);
     }},
    {{"check_every", "int", "16",
      "wall-budget/yield check cadence in own updates (solve; the stop "
      "criterion runs at every sweep end)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.check_every, e);
     }},
    {{"max_updates", "int", "100000000",
      "per-rank update budget (solve)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.max_updates, e);
     }},

    // -- train workload: dataset --
    {{"samples", "int", "400", "dataset rows (train)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.dataset.samples, e);
     }},
    {{"features", "int", "80",
      "dataset columns == model size (train)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.dataset.features, e);
     }},
    {{"density", "float", "0.25", "dataset row density (train)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.dataset.density, e);
     }},
    {{"separation", "float", "2.0",
      "margin scale of the labeling hyperplane (train)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.dataset.separation, e);
     }},
    {{"label_noise", "float", "0.05",
      "fraction of flipped labels (train)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.dataset.label_noise, e);
     }},
    {{"ridge", "float", "0.1",
      "L2 regularization strength (train; must be positive)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.dataset.ridge, e);
     }},

    // -- train workload: optimizer --
    {{"discipline", "enum:bsp|tap|ssp", "tap",
      "server aggregation discipline (train)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       std::string d;
       if (!read_value(ls, d, e)) return false;
       if (d == "bsp") c.sgd.discipline = train::Discipline::kBsp;
       else if (d == "tap") c.sgd.discipline = train::Discipline::kTap;
       else if (d == "ssp") c.sgd.discipline = train::Discipline::kSsp;
       else { e = "unknown discipline " + d; return false; }
       return true;
     }},
    {{"learning_rate", "float", "0.5", "SGD step size (train)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.sgd.learning_rate, e);
     }},
    {{"batch_size", "int", "16",
      "minibatch rows per worker step (train; must be >= 1)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.sgd.batch_size, e);
     }},
    {{"max_epochs", "int", "50",
      "per-worker epoch budget over its shard (train)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.sgd.max_epochs, e);
     }},
    {{"target_accuracy", "float", "0",
      "stop when a server eval reaches this train accuracy "
      "(train; 0 disables)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.sgd.target_accuracy, e);
     }},
    {{"eval_every", "int", "8",
      "server eval cadence: applied deltas (tap/ssp) or rounds (bsp)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.sgd.eval_every, e);
     }},

    // -- wire efficiency (solve) --
    {{"wire_delta", "bool01", "0",
      "per-link delta encoding: each sender tracks the last frame per "
      "(destination, block) and ships only the changed range (solve)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_bool01(ls, c.wire_delta, e);
     }},
    {{"wire_topk", "int", "0",
      "cap a delta frame at the densest window of this many coordinates "
      "(lossy until the next refresh; 0 = ship the whole changed range; "
      "requires wire_delta 1)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.wire_topk, e);
     }},
    {{"wire_quant_bits", "int", "0",
      "scalar-quantize value payloads to 8 or 16 bits per coordinate "
      "(0 = raw doubles; requires wire_delta 1)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.wire_quant_bits, e);
     }},
    {{"wire_refresh_every", "int", "16",
      "full-frame resync period per (destination, block): every N-th "
      "send ships the whole block, bounding delta drift (1 = always "
      "full)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.wire_refresh_every, e);
     }},

    // -- fabric --
    {{"transport", "enum:tcp|sim", "tcp",
      "tcp: one process per rank over sockets (asyncit_node); sim: the "
      "whole world in one process over virtual time (asyncit_sim; node "
      "lines not required, max_seconds is a virtual budget)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       std::string t;
       if (!read_value(ls, t, e)) return false;
       if (t == "tcp") c.sim = false;
       else if (t == "sim") c.sim = true;
       else { e = "unknown transport " + t; return false; }
       return true;
     }},
    {{"sim_latency", "float", "1e-3",
      "sim intra-region base one-way latency, virtual seconds"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.simcfg.topology.latency, e);
     }},
    {{"sim_jitter", "float", "0.5",
      "sim per-frame latency jitter fraction (>= 1: heavy reordering)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.simcfg.topology.jitter, e);
     }},
    {{"sim_asymmetry", "float", "0",
      "sim per-directed-link base skew fraction (asymmetric routes)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.simcfg.topology.asymmetry, e);
     }},
    {{"sim_bandwidth", "float", "0",
      "sim link bandwidth, bytes per virtual second (0 = infinite)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.simcfg.topology.bandwidth, e);
     }},
    {{"sim_fifo", "bool01", "0", "sim per-link in-order delivery floor"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_bool01(ls, c.simcfg.topology.fifo, e);
     }},
    {{"sim_drop", "float", "0",
      "sim per-frame loss probability (droppable frames only)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.simcfg.topology.drop_prob, e);
     }},
    {{"sim_drop_control", "bool01", "0",
      "sim loss also drops CONTROL frames"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_bool01(ls, c.simcfg.topology.drop_control, e);
     }},
    {{"sim_regions", "int", "1",
      "sim WAN regions (ranks assigned round-robin)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.simcfg.topology.regions, e);
     }},
    {{"sim_cross_region", "float", "4.0",
      "sim cross-region latency multiplier"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.simcfg.topology.cross_region, e);
     }},
    {{"sim_partition", "t0 t1 boundary", "-",
      "sim partition window (repeatable): while t0 <= t < t1 frames "
      "crossing the cut {rank < boundary}|{rank >= boundary} drop; the "
      "window end is the heal"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       simnet::PartitionWindow w;
       if (!read_value(ls, w.t0, e) || !read_value(ls, w.t1, e) ||
           !read_value(ls, w.boundary, e))
         return false;
       c.simcfg.topology.partitions.push_back(w);
       return true;
     }},
    {{"sim_compute", "float", "1e-3",
      "sim virtual cost of one update phase, seconds"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.simcfg.compute.phase, e);
     }},
    {{"sim_compute_jitter", "float", "0.5",
      "sim per-phase cost jitter fraction (in [0, 1])"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.simcfg.compute.jitter, e);
     }},
    {{"sim_straggler_every", "int", "0",
      "every N-th rank straggles (0 disables)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.simcfg.compute.straggler_every, e);
     }},
    {{"sim_straggler_factor", "float", "10.0",
      "compute multiplier of a straggling rank"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.simcfg.compute.straggler_factor, e);
     }},
    {{"sim_event_log", "bool01", "0",
      "record the full event log (hash is always kept)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_bool01(ls, c.simcfg.record_log, e);
     }},
    {{"sim_runs", "int", "1",
      "determinism re-runs: all must agree on log hash + residual"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.sim_runs, e);
     }},
    {{"chaos", "bool01", "0",
      "wrap the transport (tcp or sim) in the chaos decorator"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_bool01(ls, c.chaos, e);
     }},
    {{"min_latency", "float", "0",
      "chaos injected latency lower bound, seconds"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.chaos_policy.min_latency, e);
     }},
    {{"max_latency", "float", "0",
      "chaos injected latency upper bound, seconds"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.chaos_policy.max_latency, e);
     }},
    {{"fifo", "bool01", "0", "chaos in-order delivery floor"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_bool01(ls, c.chaos_policy.fifo, e);
     }},
    {{"drop_prob", "float", "0",
      "chaos loss probability (droppable frames only)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.chaos_policy.drop_prob, e);
     }},
    {{"drop_control", "bool01", "0",
      "chaos loss also drops CONTROL frames"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_bool01(ls, c.chaos_policy.drop_control, e);
     }},
    {{"elastic", "bool01", "0",
      "elastic TCP: tolerate peers dying mid-run "
      "(implied by membership 1)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_bool01(ls, c.elastic, e);
     }},

    // -- membership (solve, mode async) --
    {{"membership", "bool01", "0",
      "SWIM gossip membership with elastic ranks (solve, mode async)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_bool01(ls, c.membership.enabled, e);
     }},
    {{"ping_period", "float", "0.05",
      "membership probe cadence, seconds"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.membership.ping_period, e);
     }},
    {{"ping_timeout", "float", "0.15",
      "direct-ack window (suspect at 2x)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.membership.ping_timeout, e);
     }},
    {{"suspicion_timeout", "float", "1.0",
      "suspect to dead grace period, seconds"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.membership.suspicion_timeout, e);
     }},
    {{"ping_req_fanout", "int", "2", "indirect probe helpers"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.membership.ping_req_fanout, e);
     }},
    {{"late", "repeatable-int", "-",
      "slot absent at launch (repeatable; requires membership 1)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       std::uint32_t r = 0;
       if (!read_value(ls, r, e)) return false;
       c.late.push_back(r);
       return true;
     }},

    // -- observability --
    {{"trace", "enum:none|metrics|full", "none",
      "observability level"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       std::string level;
       if (!read_value(ls, level, e)) return false;
       if (!obs::parse_trace_level(level.c_str(), &c.trace)) {
         e = "unknown trace level " + level;
         return false;
       }
       return true;
     }},
    {{"trace_dir", "string", "",
      "where rank_<r>.trace.json / .metrics.json land"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.trace_dir, e);
     }},
    {{"audit", "bool01", "0",
      "online admissibility auditor (solve)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_bool01(ls, c.audit, e);
     }},
    {{"stream_interval", "float", "0",
      "streaming trace-window flush cadence, seconds (0 disables; "
      "requires trace full + trace_dir)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.stream_interval, e);
     }},
    {{"stream_windows", "int", "8",
      "newest window files kept on disk per rank (0 = unbounded)"},
     [](NodeConfig& c, std::istringstream& ls, std::string& e) {
       return read_value(ls, c.stream_windows, e);
     }},
};
// clang-format on

/// Post-parse cross-field validation; the contract both workloads and
/// the launcher rely on.
bool validate(NodeConfig& cfg, std::string& error) {
  if (cfg.world < 2) {
    error = "config needs world >= 2";
    return false;
  }
  // Simulated worlds live in one process: no address table to check.
  if (!cfg.sim) {
    for (std::size_t r = 0; r < cfg.world; ++r) {
      if (cfg.nodes[r].port == 0) {
        error = "config missing node line for rank " + std::to_string(r);
        return false;
      }
    }
  }
  if (cfg.sim_runs < 1) {
    error = "sim_runs must be >= 1";
    return false;
  }
  for (const std::uint32_t r : cfg.late) {
    if (r >= cfg.world) {
      error = "late rank out of range";
      return false;
    }
  }
  if (!cfg.late.empty() && !cfg.membership.enabled) {
    error = "late ranks require membership 1";
    return false;
  }
  if (cfg.membership.enabled && cfg.workload == Workload::kTrain) {
    error = "membership rides the solve runtime; the train workload "
            "uses plain elastic TCP (elastic 1)";
    return false;
  }
  if (cfg.membership.enabled && cfg.mode != net::Mode::kAsync) {
    error = "membership requires mode async (elastic ranks would "
            "deadlock a gated round structure)";
    return false;
  }
  if (cfg.membership.enabled) {
    cfg.elastic = true;
    for (std::uint32_t r = 0; r < cfg.world; ++r)
      if (std::find(cfg.late.begin(), cfg.late.end(), r) == cfg.late.end())
        cfg.membership.initial_alive.push_back(r);
  }
  if (cfg.wire_quant_bits != 0 && cfg.wire_quant_bits != 8 &&
      cfg.wire_quant_bits != 16) {
    error = "wire_quant_bits must be 0, 8, or 16";
    return false;
  }
  if (cfg.wire_refresh_every < 1) {
    error = "wire_refresh_every must be >= 1";
    return false;
  }
  if ((cfg.wire_topk != 0 || cfg.wire_quant_bits != 0) && !cfg.wire_delta) {
    error = "wire_topk / wire_quant_bits require wire_delta 1";
    return false;
  }
  if (cfg.stream_interval > 0.0 &&
      (cfg.trace != obs::TraceLevel::kFull || cfg.trace_dir.empty())) {
    error = "stream_interval requires trace full and trace_dir";
    return false;
  }
  if (cfg.workload == Workload::kTrain) {
    // Shared keys fold into the SGD options here, so the two workloads
    // cannot disagree about what `staleness` or `max_seconds` mean.
    cfg.sgd.staleness = cfg.staleness;
    cfg.sgd.max_seconds = cfg.max_seconds;
    if (cfg.dataset.ridge <= 0.0) {
      error = "train workload needs ridge > 0";
      return false;
    }
    if (cfg.dataset.samples < cfg.world - 1) {
      error = "train workload needs at least one dataset row per worker";
      return false;
    }
    if (cfg.sgd.batch_size < 1) {
      error = "train workload needs batch_size >= 1";
      return false;
    }
  }
  return true;
}

}  // namespace

std::span<const ConfigKeySpec> node_config_schema() {
  static std::vector<ConfigKeySpec> specs = [] {
    std::vector<ConfigKeySpec> out;
    for (const KeyEntry& k : kKeys) out.push_back(k.spec);
    return out;
  }();
  return specs;
}

std::string node_config_schema_json() {
  std::string out =
      "{\"schema\":\"asyncit-node-config/1\",\"keys\":[";
  bool first = true;
  for (const ConfigKeySpec& s : node_config_schema()) {
    if (!first) out += ",";
    first = false;
    out += std::string("{\"key\":\"") + s.key + "\",\"type\":\"" +
           s.type + "\",\"default\":\"" + s.default_value +
           "\",\"help\":\"" + s.help + "\"}";
  }
  out += "]}";
  return out;
}

bool parse_node_config(std::istream& in, const std::string& name,
                       NodeConfig& out, std::string& error) {
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key)) continue;
    const KeyEntry* entry = nullptr;
    for (const KeyEntry& k : kKeys) {
      if (key == k.spec.key) {
        entry = &k;
        break;
      }
    }
    std::string detail;
    if (entry == nullptr)
      detail = "unknown key " + key;
    else if (!entry->handler(out, ls, detail))
      detail = (detail.empty() ? "bad value" : detail) + " (key " + key + ")";
    if (!detail.empty()) {
      error = name + ":" + std::to_string(lineno) + ": " + detail;
      return false;
    }
  }
  if (!validate(out, error)) {
    error = name + ": " + error;
    return false;
  }
  return true;
}

bool load_node_config(const std::string& path, NodeConfig& out,
                      std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot open config " + path;
    return false;
  }
  return parse_node_config(in, path, out, error);
}

MpOptions solve_options(const NodeConfig& cfg) {
  MpOptions opt;
  opt.workers = cfg.world;
  opt.seed = cfg.seed;
  opt.solve.mode = cfg.mode;
  opt.solve.staleness = cfg.staleness;
  opt.solve.inner_steps = cfg.inner_steps;
  opt.solve.publish_partials = cfg.publish_partials;
  opt.solve.overwrite = cfg.overwrite;
  opt.solve.tol = cfg.tol;
  opt.solve.max_updates = cfg.max_updates;
  opt.solve.max_seconds = cfg.max_seconds;  // virtual under transport sim
  opt.solve.check_every = cfg.check_every;
  opt.wire = {cfg.wire_delta, cfg.wire_topk, cfg.wire_quant_bits,
              cfg.wire_refresh_every};
  opt.obs.trace_level = cfg.trace;
  opt.obs.audit = cfg.audit;
  opt.membership = cfg.membership;
  return opt;
}

}  // namespace asyncit::net
