#!/usr/bin/env python3
"""Launch a multi-process asyncit TCP cluster on this machine.

Picks one free loopback port per rank, writes the asyncit_node config
file, spawns one asyncit_node process per rank, streams their output with
a [rank k] prefix, and aggregates the per-rank results (the
`ASYNCIT_NODE_JSON` asyncit-node/4 line each rank prints). Exit status 0
only when EVERY rank that was supposed to finish exits 0 (its local
oracle error met the tolerance / the training target was reached).

Every key this launcher writes is validated against the table
`asyncit_node --schema` dumps (asyncit-node-config/1) before any process
starts — the node's parser and this script share ONE schema
(src/asyncit/net/node_config.cpp), so a drifted launcher fails fast with
the offending key instead of a per-rank parse error storm.

Workloads (--workload):
  solve   (default) net::run_node over the seeded Jacobi system.
  train   parameter-server SGD: rank 0 is the server, ranks 1..world-1
          are minibatch workers over the seeded synthetic logistic
          dataset (--samples/--features/..., --discipline bsp|tap|ssp).
          Success means the server's train accuracy reached
          --target-accuracy before the epoch/wall budgets ran out.

Churn mode (--churn) exercises the elastic runtimes:

* solve: the world gets --spares extra slots marked `late`, the initial
  ranks start solving, one rank is SIGKILLed mid-solve (--kill-rank /
  --kill-after) and one spare is started (--join-after). The killed rank
  is an EXPECTED casualty; every other rank — survivors and the joiner —
  must still converge to the same tolerance as a static run, which is
  the acceptance criterion of the membership subsystem. The aggregate
  asserts that the survivors actually observed the death and the join
  (membership counters), and that no rank saw corrupt frames
  (bad_frames) or foreign geometry (frames_rejected).
* train: one WORKER rank is SIGKILLed mid-run over plain elastic TCP
  (`elastic 1`, no SWIM detector — membership rides the solve runtime).
  Only the TAP discipline is eligible: its server takes any delta from
  any worker, so losing a worker merely thins the delta stream; BSP/SSP
  would gate on the dead worker's clock forever. No spares/late joins —
  plain elastic rendezvous needs every slot present at launch. The
  acceptance criterion is the surviving ranks still reaching
  --target-accuracy.

Observability (--trace-dir DIR): every rank runs with full tracing and
the online admissibility auditor. Per-rank Chrome trace + metrics
snapshots land in DIR, the launcher records each rank's
ASYNCIT_NODE_START epoch marker there, and after the run it invokes
tools/trace_merge.py to produce DIR/merged.trace.json — one
Perfetto-loadable timeline for the whole cluster (value frames,
membership transitions, kills and rejoins side by side). The aggregate
JSON becomes schema asyncit-cluster/2: per-rank delay quantiles, a
cluster-wide delay summary, and an `admissibility` roll-up (all ranks'
conditions a-d verdicts + the max measured delay bound).

Usage:
    scripts/launch_cluster.py [--binary PATH] [--workers N] [--dim N]
                              [--blocks N] [--mode async|ssp|bsp]
                              [--tol T] [--seed S] [--max-seconds S]
                              [--workload solve|train]
                              [--samples N] [--features N] [--density D]
                              [--separation S] [--label-noise P]
                              [--ridge R] [--discipline bsp|tap|ssp]
                              [--learning-rate LR] [--batch-size N]
                              [--max-epochs N] [--target-accuracy A]
                              [--eval-every N]
                              [--chaos] [--min-latency S] [--max-latency S]
                              [--drop-prob P] [--keep-config]
                              [--membership] [--ping-period S]
                              [--ping-timeout S] [--suspicion-timeout S]
                              [--churn] [--spares N] [--kill-rank R]
                              [--kill-after S] [--join-after S]
                              [--json-out PATH] [--trace-dir DIR]
                              [--stream-interval S] [--stream-windows N]
                              [--heatmap] [--heatmap-quantile Q]

Streaming windows (--stream-interval S, with --trace-dir): each rank
runs the obs/ background flusher, leaving rotating
rank_<r>.window_<k>.trace.json chunks in DIR instead of one exit dump —
a SIGKILLed churn casualty leaves its last windows behind, and
trace_merge.py stitches windows and survivors alike into the merged
timeline.

Heat-map (--heatmap): after the run, tools/trace_heatmap.py renders the
per-(src,dst) link-delay quantiles of the aggregate as a rank-by-rank
grid — heatmap.txt and heatmap.svg in --trace-dir (or next to
--json-out).

The default binary path assumes the standard build tree
(build/tools/asyncit_node or build/<preset>/tools/asyncit_node).
"""

import argparse
import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time


def find_default_binary():
    candidates = ["build/tools/asyncit_node"]
    preset_root = "build"
    if os.path.isdir(preset_root):
        for entry in sorted(os.listdir(preset_root)):
            candidates.append(os.path.join(preset_root, entry, "tools",
                                           "asyncit_node"))
    for c in candidates:
        if os.path.isfile(c) and os.access(c, os.X_OK):
            return c
    return None


def pick_free_ports(n):
    """Bind n ephemeral listeners at once so the ports are distinct, then
    release them. The tiny bind race before the nodes re-bind is accepted
    (standard test-harness trick)."""
    socks = []
    try:
        for _ in range(n):
            s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            s.bind(("127.0.0.1", 0))
            socks.append(s)
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


def load_schema_keys(binary):
    """The key table the node's own parser is built from
    (`asyncit_node --schema`, schema asyncit-node-config/1). Returns the
    set of valid config keys, or None when the binary cannot dump it
    (old binary — validation is then skipped with a warning)."""
    try:
        out = subprocess.run([binary, "--schema"], capture_output=True,
                             text=True, timeout=30)
        doc = json.loads(out.stdout)
        if out.returncode == 0 and doc.get("schema") == \
                "asyncit-node-config/1":
            return {k["key"] for k in doc["keys"]}
    except (OSError, subprocess.TimeoutExpired, json.JSONDecodeError,
            KeyError, TypeError):
        pass
    return None


def config_lines(args, world, late_ranks, ports):
    """The config as (key, value) pairs — workload-specific knobs only,
    so the file documents the run instead of echoing every default."""
    lines = [("world", world), ("seed", args.seed),
             ("workload", args.workload)]
    if args.workload == "solve":
        lines += [("dim", args.dim), ("blocks", args.blocks),
                  ("nnz", args.nnz), ("dominance", args.dominance),
                  ("mode", args.mode), ("staleness", args.staleness),
                  ("tol", args.tol), ("max_seconds", args.max_seconds)]
        if args.wire_delta:
            lines.append(("wire_delta", 1))
            if args.wire_topk:
                lines.append(("wire_topk", args.wire_topk))
            if args.wire_quant_bits:
                lines.append(("wire_quant_bits", args.wire_quant_bits))
            lines.append(("wire_refresh_every", args.wire_refresh_every))
    else:
        lines += [("samples", args.samples), ("features", args.features),
                  ("density", args.density),
                  ("separation", args.separation),
                  ("label_noise", args.label_noise), ("ridge", args.ridge),
                  ("discipline", args.discipline),
                  ("learning_rate", args.learning_rate),
                  ("batch_size", args.batch_size),
                  ("max_epochs", args.max_epochs),
                  ("target_accuracy", args.target_accuracy),
                  ("eval_every", args.eval_every),
                  ("staleness", args.staleness),
                  ("max_seconds", args.max_seconds)]
    lines += [("chaos", 1 if args.chaos else 0),
              ("min_latency", args.min_latency),
              ("max_latency", args.max_latency),
              ("drop_prob", args.drop_prob)]
    if args.membership:
        lines += [("membership", 1), ("ping_period", args.ping_period),
                  ("ping_timeout", args.ping_timeout),
                  ("suspicion_timeout", args.suspicion_timeout)]
    elif args.churn:
        lines.append(("elastic", 1))  # train churn: elastic, no SWIM
    if args.trace_dir:
        lines += [("trace", "full"), ("trace_dir", args.trace_dir)]
        if args.workload == "solve":
            lines.append(("audit", 1))  # auditor hooks the solve runtime
        if args.stream_interval > 0.0:
            lines += [("stream_interval", args.stream_interval),
                      ("stream_windows", args.stream_windows)]
    for rank in late_ranks:
        lines.append(("late", rank))
    for rank, port in enumerate(ports):
        lines.append(("node", f"{rank} 127.0.0.1 {port}"))
    return lines


def write_config(path, lines):
    with open(path, "w", encoding="utf-8") as f:
        f.write("# generated by scripts/launch_cluster.py\n")
        for key, value in lines:
            f.write(f"{key} {value}\n")


def pump(rank, proc, results, started, start_epochs, lock):
    json_pattern = re.compile(r"^ASYNCIT_NODE_JSON\s+(.*)$")
    start_pattern = re.compile(r"^ASYNCIT_NODE_START\s(?:.*epoch_ns=(\d+))?")
    for raw in proc.stdout:
        line = raw.rstrip("\n")
        sm = start_pattern.match(line)
        if sm:
            with lock:
                started.add(rank)
                if sm.group(1):
                    start_epochs[rank] = int(sm.group(1))
        m = json_pattern.match(line)
        if m:
            try:
                fields = json.loads(m.group(1))
            except json.JSONDecodeError:
                fields = None
            if fields is not None:
                with lock:
                    results[rank] = fields
        print(f"[rank {rank}] {line}", flush=True)


def spawn(binary, cfg_path, rank, results, started, start_epochs, lock,
          procs, pumps):
    p = subprocess.Popen(
        [binary, "--config", cfg_path, "--rank", str(rank)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    procs[rank] = p
    t = threading.Thread(target=pump,
                         args=(rank, p, results, started, start_epochs,
                               lock))
    t.start()
    pumps.append(t)
    return p


def aggregate(results, counted_ranks, workload):
    """Sums the counters of the uniform asyncit-node/4 schema over the
    ranks that finished (the killed rank never reports), and rolls up
    the observability additions: a cluster-wide delay summary (count
    sum, max of each per-rank quantile) and the online admissibility
    verdicts (AND of boolean conditions, max of the measured bounds).
    Train runs add a `train` roll-up: the server's final loss/accuracy/
    epoch plus worker-step and throughput sums; solve runs report it
    null (mirroring the per-rank schema)."""
    total = {
        "schema": "asyncit-cluster/3",
        "workload": workload,
        "train": None,
        "ranks_reporting": len(counted_ranks),
        "updates": 0, "sent": 0, "delivered": 0, "dropped": 0,
        "inversions": 0, "stale_filtered": 0, "partials_sent": 0,
        "peers_stopped": 0, "frames_rejected": 0, "bad_frames": 0,
        "max_error": 0.0,
        "membership": {k: 0 for k in (
            "pings_sent", "acks_sent", "acks_received", "ping_reqs_sent",
            "gossip_frames_sent", "suspicions", "deaths_observed",
            "joins_observed", "refutations", "control_rejected")},
        "reassignments": 0, "snapshot_blocks_sent": 0,
        "snapshot_blocks_suppressed": 0,
        "wire": {k: 0 for k in (
            "bytes_raw", "bytes_wire", "frames_full", "frames_delta",
            "frames_heartbeat", "frames_codec")},
        "delay_summary": {"count": 0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
                          "max": 0.0},
        "admissibility": None,
        "obs": {"recorded": 0, "dropped": 0},
        "per_rank": {},
    }
    audited = []
    for rank in counted_ranks:
        r = results[rank]
        for key in ("updates", "sent", "delivered", "dropped", "inversions",
                    "stale_filtered", "partials_sent", "peers_stopped",
                    "frames_rejected", "bad_frames"):
            total[key] += int(r.get(key, 0))
        ms = r.get("membership", {})
        for key in total["membership"]:
            total["membership"][key] += int(ms.get(key, 0))
        total["reassignments"] += int(ms.get("reassignments", 0))
        total["snapshot_blocks_sent"] += int(ms.get("snapshot_blocks_sent",
                                                    0))
        total["snapshot_blocks_suppressed"] += int(
            ms.get("snapshot_blocks_suppressed", 0))
        wr = r.get("wire") or {}
        for key in total["wire"]:
            total["wire"][key] += int(wr.get(key, 0))
        total["max_error"] = max(total["max_error"],
                                 float(r.get("error", 0.0)))
        dq = r.get("delay_quantiles") or {}
        ds = total["delay_summary"]
        ds["count"] += int(dq.get("count", 0))
        for q in ("p50", "p95", "p99", "max"):
            ds[q] = max(ds[q], float(dq.get(q, 0.0)))
        ob = r.get("obs") or {}
        total["obs"]["recorded"] += int(ob.get("recorded", 0))
        total["obs"]["dropped"] += int(ob.get("dropped", 0))
        if r.get("admissibility"):
            audited.append(r["admissibility"])
        tr = r.get("train")
        if tr:
            if total["train"] is None:
                total["train"] = {"loss": None, "accuracy": None,
                                  "epoch": 0, "steps": 0,
                                  "deltas_applied": 0, "examples": 0,
                                  "examples_per_sec": 0.0}
            agg_tr = total["train"]
            if rank == 0:  # the server's eval is the authoritative one
                agg_tr["loss"] = tr.get("loss")
                agg_tr["accuracy"] = tr.get("accuracy")
                agg_tr["epoch"] = int(tr.get("epoch", 0))
            agg_tr["steps"] += int(tr.get("steps", 0))
            agg_tr["deltas_applied"] += int(tr.get("deltas_applied", 0))
            agg_tr["examples"] += int(tr.get("examples", 0))
            if rank != 0:  # worker throughputs add; the server's echoes
                agg_tr["examples_per_sec"] += \
                    float(tr.get("examples_per_sec", 0.0))
        total["per_rank"][str(rank)] = r
    if audited:
        total["admissibility"] = {
            "ranks_audited": len(audited),
            "a_holds": all(a.get("a_holds") for a in audited),
            "b_diverging": all(a.get("b_diverging") for a in audited),
            "c_fair": all(a.get("c_fair") for a in audited),
            "max_d_bound": max(int(a.get("d_bound", 0)) for a in audited),
            "max_c_worst_gap": max(int(a.get("c_worst_gap", 0))
                                   for a in audited),
            "mean_d_mean": sum(float(a.get("d_mean", 0.0))
                               for a in audited) / len(audited),
        }
    return total


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--binary", default=None)
    ap.add_argument("--workers", type=int, default=4,
                    help="ranks started at launch")
    ap.add_argument("--dim", type=int, default=128)
    ap.add_argument("--blocks", type=int, default=8)
    ap.add_argument("--nnz", type=int, default=4)
    ap.add_argument("--dominance", type=float, default=2.0)
    ap.add_argument("--mode", choices=["async", "ssp", "bsp"],
                    default="async")
    ap.add_argument("--staleness", type=int, default=2)
    ap.add_argument("--tol", type=float, default=1e-8)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--max-seconds", type=float, default=30.0)
    ap.add_argument("--workload", choices=["solve", "train"],
                    default="solve")
    # train workload: dataset shape + SGD discipline (defaults mirror
    # src/asyncit/net/node_config.cpp)
    ap.add_argument("--samples", type=int, default=400)
    ap.add_argument("--features", type=int, default=80)
    ap.add_argument("--density", type=float, default=0.25)
    ap.add_argument("--separation", type=float, default=2.0)
    ap.add_argument("--label-noise", type=float, default=0.05)
    ap.add_argument("--ridge", type=float, default=0.1)
    ap.add_argument("--discipline", choices=["bsp", "tap", "ssp"],
                    default="tap")
    ap.add_argument("--learning-rate", type=float, default=0.5)
    ap.add_argument("--batch-size", type=int, default=16)
    ap.add_argument("--max-epochs", type=int, default=50)
    ap.add_argument("--target-accuracy", type=float, default=0.0)
    ap.add_argument("--eval-every", type=int, default=8)
    ap.add_argument("--wire-delta", action="store_true",
                    help="per-link delta encoding: ship only the changed "
                         "range of each block (solve)")
    ap.add_argument("--wire-topk", type=int, default=0,
                    help="cap delta frames at the densest window of this "
                         "many coordinates (lossy; requires --wire-delta)")
    ap.add_argument("--wire-quant-bits", type=int, default=0,
                    choices=[0, 8, 16],
                    help="scalar-quantize payloads (0 = raw doubles; "
                         "requires --wire-delta)")
    ap.add_argument("--wire-refresh-every", type=int, default=16,
                    help="full-frame resync period per (link, block)")
    ap.add_argument("--chaos", action="store_true",
                    help="inject the chaos delay model over TCP")
    ap.add_argument("--min-latency", type=float, default=0.0)
    ap.add_argument("--max-latency", type=float, default=0.0)
    ap.add_argument("--drop-prob", type=float, default=0.0)
    ap.add_argument("--keep-config", action="store_true")
    ap.add_argument("--membership", action="store_true",
                    help="elastic ranks: SWIM failure detector + gossip")
    ap.add_argument("--ping-period", type=float, default=0.05)
    ap.add_argument("--ping-timeout", type=float, default=0.15)
    ap.add_argument("--suspicion-timeout", type=float, default=0.6)
    ap.add_argument("--churn", action="store_true",
                    help="kill one rank and start one spare mid-solve "
                         "(implies --membership)")
    ap.add_argument("--spares", type=int, default=1,
                    help="late slots appended to the world (churn)")
    ap.add_argument("--kill-rank", type=int, default=1)
    ap.add_argument("--kill-after", type=float, default=0.8,
                    help="seconds after launch to SIGKILL --kill-rank")
    ap.add_argument("--join-after", type=float, default=1.6,
                    help="seconds after launch to start the first spare")
    ap.add_argument("--json-out", default=None,
                    help="write the aggregated asyncit-cluster/2 JSON here")
    ap.add_argument("--trace-dir", default=None,
                    help="full tracing + online audit: per-rank trace and "
                         "metrics files land here, merged to "
                         "merged.trace.json via tools/trace_merge.py")
    ap.add_argument("--stream-interval", type=float, default=0.0,
                    help="with --trace-dir: arm the streaming flusher — "
                         "rotating window files every S seconds instead "
                         "of one exit dump")
    ap.add_argument("--stream-windows", type=int, default=8,
                    help="newest window files kept per rank (rotation)")
    ap.add_argument("--heatmap", action="store_true",
                    help="render the link-delay heat-map (heatmap.txt + "
                         "heatmap.svg) from the aggregate via "
                         "tools/trace_heatmap.py")
    ap.add_argument("--heatmap-quantile",
                    choices=["p50", "p95", "p99", "max"], default="p95")
    args = ap.parse_args()

    if args.stream_interval > 0.0 and not args.trace_dir:
        print("launch_cluster: --stream-interval requires --trace-dir",
              file=sys.stderr)
        return 2

    train = args.workload == "train"
    if args.churn and not train:
        args.membership = True  # solve churn rides the SWIM detector
    if args.membership and train:
        print("launch_cluster: membership rides the solve runtime; train "
              "churn uses plain elastic TCP (drop --membership)",
              file=sys.stderr)
        return 2
    binary = args.binary or find_default_binary()
    if not binary or not os.path.isfile(binary):
        print("launch_cluster: asyncit_node binary not found "
              "(build it, or pass --binary)", file=sys.stderr)
        return 2

    # Plain elastic rendezvous needs every slot present at launch, so
    # train churn has no spares/late joins — just the kill.
    spares = args.spares if args.churn and not train else 0
    world = args.workers + spares
    late_ranks = list(range(args.workers, world))
    if args.churn and not (0 <= args.kill_rank < args.workers):
        print("launch_cluster: --kill-rank must be an initial rank",
              file=sys.stderr)
        return 2
    if train:
        if args.workers < 3:
            print("launch_cluster: train needs --workers >= 3 (server + "
                  "two workers)", file=sys.stderr)
            return 2
        if args.churn:
            if args.discipline != "tap":
                print("launch_cluster: train churn requires --discipline "
                      "tap (BSP/SSP gate on the dead worker's clock)",
                      file=sys.stderr)
                return 2
            if args.kill_rank == 0:
                print("launch_cluster: cannot kill rank 0 (the parameter "
                      "server is not replicated; see DESIGN.md §9)",
                      file=sys.stderr)
                return 2
    elif world > args.blocks:
        print("launch_cluster: world (incl. spares) must be <= blocks",
              file=sys.stderr)
        return 2

    if args.trace_dir:
        os.makedirs(args.trace_dir, exist_ok=True)
        # Clear per-rank artifacts from any previous run: trace_merge
        # refuses to stitch a directory that mixes one run's one-shot
        # dumps with another run's streamed windows for the same rank,
        # and a stale window from a prior run would silently corrupt the
        # stitched timeline even when the filenames happen to line up.
        stale = re.compile(
            r"^(rank_\d+\.(window_\d+\.)?trace\.json"
            r"|rank_\d+\.metrics\.jsonl?"
            r"|merged\.trace\.json|start_markers\.log)$")
        for name in os.listdir(args.trace_dir):
            if stale.match(name):
                os.remove(os.path.join(args.trace_dir, name))

    ports = pick_free_ports(world)
    lines = config_lines(args, world, late_ranks, ports)
    schema_keys = load_schema_keys(binary)
    if schema_keys is None:
        print("launch_cluster: WARNING: binary cannot dump its config "
              "schema (--schema) — key validation skipped", flush=True)
    else:
        unknown = sorted({k for k, _ in lines} - schema_keys)
        if unknown:
            print("launch_cluster: config keys not in the node's schema: "
                  f"{unknown} (launcher/node drift — see "
                  "src/asyncit/net/node_config.cpp)", file=sys.stderr)
            return 2
    cfg_fd, cfg_path = tempfile.mkstemp(prefix="asyncit_cluster_",
                                        suffix=".cfg")
    os.close(cfg_fd)
    write_config(cfg_path, lines)
    print(f"launch_cluster: {args.workload}, {args.workers} ranks "
          f"(+{spares} late), ports {ports}, config {cfg_path}")

    procs = {}
    results = {}
    started = set()
    start_epochs = {}
    lock = threading.Lock()
    pumps = []
    killed = set()
    try:
        for rank in range(args.workers):
            spawn(binary, cfg_path, rank, results, started, start_epochs,
                  lock, procs, pumps)

        if args.churn:
            # Anchor the churn clock on every initial rank having passed
            # rendezvous and STARTED SOLVING (the ASYNCIT_NODE_START
            # marker): a kill scheduled from process spawn can land
            # inside setup on a slow or sanitizer-instrumented build and
            # wedge the survivors' rendezvous instead of their solve.
            anchor_deadline = time.monotonic() + 60.0
            while time.monotonic() < anchor_deadline:
                with lock:
                    if len(started) >= args.workers:
                        break
                time.sleep(0.01)
            with lock:
                if len(started) < args.workers:
                    print("launch_cluster: WARNING: start markers missing "
                          "(old binary?) — churn clock anchored blind",
                          flush=True)
            start_t = time.monotonic()

            # The churn schedule: a crash (SIGKILL — no goodbye frame, the
            # failure detector must notice) and a late join.
            time.sleep(max(0.0, args.kill_after -
                           (time.monotonic() - start_t)))
            victim = procs[args.kill_rank]
            if victim.poll() is None:
                print(f"launch_cluster: SIGKILL rank {args.kill_rank} "
                      f"at t={time.monotonic() - start_t:.2f}s", flush=True)
                victim.send_signal(signal.SIGKILL)
                killed.add(args.kill_rank)
            else:
                # Not a pass: the acceptance scenario exists to exercise
                # death/join/re-assignment, and silently skipping the
                # kill would let a broken detector ride through CI. The
                # final check below turns this into a nonzero exit;
                # lengthen the solve (more injected latency, tighter
                # tol) rather than shortening the kill window.
                print(f"launch_cluster: rank {args.kill_rank} already "
                      "finished before the kill (solve too fast — churn "
                      "NOT exercised)", flush=True)
            if late_ranks:  # train churn has none — kill only
                time.sleep(max(0.0, args.join_after -
                               (time.monotonic() - start_t)))
            for rank in late_ranks:
                print(f"launch_cluster: starting late rank {rank} "
                      f"at t={time.monotonic() - start_t:.2f}s", flush=True)
                spawn(binary, cfg_path, rank, results, started,
                      start_epochs, lock, procs, pumps)

        timeout = args.max_seconds + 60.0
        failed = []
        for rank, p in sorted(procs.items()):
            try:
                rc = p.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                p.kill()
                rc = -9
            if rc != 0 and rank not in killed:
                failed.append((rank, rc))
        for t in pumps:
            t.join()
    finally:
        for p in procs.values():
            if p.poll() is None:
                p.kill()
        if args.keep_config:
            print(f"launch_cluster: config kept at {cfg_path}")
        else:
            os.unlink(cfg_path)

    counted = sorted(r for r in procs if r not in killed)
    print("\nlaunch_cluster: summary")
    for rank in counted:
        r = results.get(rank)
        if r is None:
            print(f"  rank {rank}: NO RESULT LINE")
        elif train:
            tr = r.get("train") or {}
            # Only the server evaluates the final model.
            evaluation = (f"accuracy={tr.get('accuracy')} "
                          f"loss={tr.get('loss')} " if rank == 0 else "")
            print(f"  rank {rank}: ok={r.get('ok')} {evaluation}"
                  f"epoch={tr.get('epoch')} updates={r.get('updates')} "
                  f"sent={r.get('sent')} delivered={r.get('delivered')}")
        else:
            ms = r.get("membership", {})
            print(f"  rank {rank}: ok={r.get('ok')} "
                  f"error={r.get('error')} updates={r.get('updates')} "
                  f"sent={r.get('sent')} delivered={r.get('delivered')} "
                  f"deaths={ms.get('deaths_observed')} "
                  f"joins={ms.get('joins_observed')} "
                  f"reassign={ms.get('reassignments')}")
    for rank in sorted(killed):
        print(f"  rank {rank}: KILLED (scheduled churn casualty)")

    if args.trace_dir:
        # One cluster timeline out of the per-rank traces (the killed
        # rank never exported one — it is simply absent, its death still
        # visible in the survivors' membership lanes). The start markers
        # captured above cross-check the clock alignment.
        markers_path = os.path.join(args.trace_dir, "start_markers.log")
        with open(markers_path, "w", encoding="utf-8") as f:
            for rank in sorted(start_epochs):
                f.write(f"ASYNCIT_NODE_START rank={rank} "
                        f"epoch_ns={start_epochs[rank]}\n")
        merge_tool = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                  os.pardir, "tools", "trace_merge.py")
        merged_path = os.path.join(args.trace_dir, "merged.trace.json")
        merge = subprocess.run(
            [sys.executable, merge_tool, "--dir", args.trace_dir,
             "--out", merged_path, "--log", markers_path],
            capture_output=False)
        if merge.returncode != 0:
            print("launch_cluster: trace merge failed", file=sys.stderr)
            return 1

    if failed:
        print(f"launch_cluster: FAILED ranks: {failed}", file=sys.stderr)
        return 1
    if any(r not in results for r in counted):
        print("launch_cluster: missing result lines", file=sys.stderr)
        return 1

    agg = aggregate(results, counted, args.workload)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as f:
            json.dump(agg, f, indent=2)
        print(f"launch_cluster: aggregate written to {args.json_out}")

    if args.heatmap:
        out_dir = args.trace_dir or (os.path.dirname(
            os.path.abspath(args.json_out)) if args.json_out else ".")
        agg_path = args.json_out
        if not agg_path:
            agg_path = os.path.join(out_dir, "cluster.json")
            with open(agg_path, "w", encoding="utf-8") as f:
                json.dump(agg, f, indent=2)
        heatmap_tool = os.path.join(
            os.path.dirname(os.path.abspath(__file__)), os.pardir,
            "tools", "trace_heatmap.py")
        hm = subprocess.run(
            [sys.executable, heatmap_tool, "--cluster", agg_path,
             "--quantile", args.heatmap_quantile,
             "--out-text", os.path.join(out_dir, "heatmap.txt"),
             "--out-svg", os.path.join(out_dir, "heatmap.svg")])
        if hm.returncode != 0:
            print("launch_cluster: heat-map rendering failed",
                  file=sys.stderr)
            return 1
        print("launch_cluster: heat-map -> "
              + os.path.join(out_dir, "heatmap.svg"))

    # Uniform-counter assertions (the same schema every rank reports).
    if agg["bad_frames"] != 0:
        print(f"launch_cluster: bad_frames={agg['bad_frames']} "
              "(corrupt wire traffic)", file=sys.stderr)
        return 1
    if agg["frames_rejected"] != 0:
        print(f"launch_cluster: frames_rejected={agg['frames_rejected']} "
              "(geometry mismatch between ranks)", file=sys.stderr)
        return 1
    if args.churn:
        if not killed:
            print("launch_cluster: churn requested but the kill never "
                  "landed (run finished first) — the scenario was NOT "
                  "exercised; lengthen the run", file=sys.stderr)
            return 1
        if train:
            # No SWIM counters here — the acceptance criterion is the
            # survivors converging, which the failed-ranks check above
            # enforced. Assert the post-kill run still made progress.
            tr = agg.get("train") or {}
            if int(tr.get("deltas_applied", 0)) == 0:
                print("launch_cluster: train churn ran but the server "
                      "applied no deltas", file=sys.stderr)
                return 1
        else:
            ms = agg["membership"]
            if ms["deaths_observed"] == 0:
                print("launch_cluster: churn ran but nobody observed the "
                      "death", file=sys.stderr)
                return 1
            if ms["joins_observed"] == 0:
                print("launch_cluster: churn ran but nobody observed the "
                      "join", file=sys.stderr)
                return 1
            if agg["reassignments"] == 0:
                print("launch_cluster: churn ran but blocks were never "
                      "re-assigned", file=sys.stderr)
                return 1

    print(f"launch_cluster: all {len(counted)} counted ranks converged"
          + (f" (rank {sorted(killed)} killed by schedule)" if killed
             else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
