#!/usr/bin/env python3
"""Drive one simnet virtual-time sweep and assert on its summary line.

The single-process analogue of launch_cluster.py: writes a `transport
sim` node config, validates every key it wrote against the table
`asyncit_sim --schema` dumps (the binary's own parser table — schema
asyncit-node-config/1, the same SSOT asyncit_node uses), runs the
binary, parses the one ASYNCIT_SIM_JSON line (schema asyncit-sim/1) and
fails unless the world converged AND every re-run replayed bitwise
(`deterministic`). ctest runs this twice:

  sim_smoke        48 ranks, 2 runs — the every-preset leg (release,
                   asan, tsan: the fiber annotations are load-bearing);
  sim_scale_smoke  1000 ranks, dim 1000, 2 runs — the acceptance bar of
                   the subsystem; Release adds --max-wall 60.

Exit codes: 0 ok; 1 run failed a gate; 2 setup/drift error.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile


def load_schema_keys(binary):
    """Key table from `asyncit_sim --schema` (asyncit-node-config/1), or
    None when the binary cannot dump it."""
    try:
        out = subprocess.run([binary, "--schema"], capture_output=True,
                             text=True, timeout=60)
        doc = json.loads(out.stdout)
        if out.returncode == 0 and doc.get("schema") == \
                "asyncit-node-config/1":
            return {k["key"] for k in doc["keys"]}
    except (OSError, subprocess.TimeoutExpired, json.JSONDecodeError,
            KeyError, TypeError):
        pass
    return None


def config_lines(args):
    lines = [("world", args.world), ("seed", args.seed),
             ("workload", "solve"), ("transport", "sim"),
             ("dim", args.dim), ("blocks", args.blocks or args.world),
             ("nnz", args.nnz), ("dominance", args.dominance),
             ("mode", args.mode), ("tol", args.tol),
             ("max_seconds", args.max_virtual),
             ("check_every", args.check_every),
             ("sim_runs", args.runs),
             ("sim_latency", args.latency),
             ("sim_jitter", 0.5),
             ("sim_compute", args.compute),
             ("sim_compute_jitter", 0.3)]
    if args.chaos:
        lines += [("chaos", 1), ("min_latency", 2e-4),
                  ("max_latency", 2e-3)]
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("binary", help="path to asyncit_sim")
    ap.add_argument("--world", type=int, default=48)
    ap.add_argument("--dim", type=int, default=0,
                    help="problem dimension (default: world)")
    ap.add_argument("--blocks", type=int, default=0,
                    help="partition blocks (default: world)")
    ap.add_argument("--nnz", type=int, default=3)
    ap.add_argument("--dominance", type=float, default=8.0)
    ap.add_argument("--mode", default="async")
    ap.add_argument("--tol", type=float, default=1e-6)
    ap.add_argument("--seed", type=int, default=97)
    ap.add_argument("--runs", type=int, default=2)
    ap.add_argument("--latency", type=float, default=1e-4)
    ap.add_argument("--compute", type=float, default=1e-3)
    ap.add_argument("--check-every", type=int, default=4,
                    help="wall-budget check cadence in own updates "
                    "(every rank checks its stop rule at each sweep end)")
    ap.add_argument("--max-virtual", type=float, default=300.0,
                    help="virtual-seconds budget (costs no wall time)")
    ap.add_argument("--max-wall", type=float, default=0.0,
                    help="fail if total wall exceeds this (seconds)")
    ap.add_argument("--chaos", action="store_true",
                    help="stack the chaos delay model over the sim fabric")
    args = ap.parse_args()
    if args.dim == 0:
        args.dim = args.world

    lines = config_lines(args)
    schema_keys = load_schema_keys(args.binary)
    if schema_keys is None:
        print("sim_sweep: WARNING: binary cannot dump its config schema "
              "(--schema) — key validation skipped", flush=True)
    else:
        unknown = sorted({k for k, _ in lines} - schema_keys)
        if unknown:
            print(f"sim_sweep: config keys not in the binary's schema: "
                  f"{unknown} (driver/parser drift — see "
                  "src/asyncit/net/node_config.cpp)", file=sys.stderr)
            return 2

    cfg_fd, cfg_path = tempfile.mkstemp(prefix="asyncit_sim_",
                                        suffix=".cfg")
    try:
        with os.fdopen(cfg_fd, "w") as f:
            for key, value in lines:
                f.write(f"{key} {value}\n")
        cmd = [args.binary, "--config", cfg_path]
        if args.max_wall > 0.0:
            cmd += ["--max-wall", str(args.max_wall)]
        print(f"sim_sweep: {args.world} ranks, dim {args.dim}, "
              f"{args.runs} runs, config {cfg_path}", flush=True)
        out = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)

        summary = None
        for line in out.stdout.splitlines():
            if line.startswith("ASYNCIT_SIM_JSON "):
                summary = json.loads(line[len("ASYNCIT_SIM_JSON "):])
        if summary is None:
            print("sim_sweep: no ASYNCIT_SIM_JSON line in output",
                  file=sys.stderr)
            return 2
        if summary.get("schema") != "asyncit-sim/1":
            print(f"sim_sweep: unexpected summary schema "
                  f"{summary.get('schema')!r}", file=sys.stderr)
            return 2

        failures = []
        if not summary.get("ok"):
            failures.append("ok=false")
        if not summary.get("deterministic"):
            failures.append(f"{args.runs} runs did not replay "
                            "identically")
        if summary.get("converged_ranks") != args.world:
            failures.append(f"converged_ranks "
                            f"{summary.get('converged_ranks')} != "
                            f"{args.world}")
        if not summary.get("wall_ok"):
            failures.append("wall budget exceeded")
        if out.returncode != 0:
            failures.append(f"exit code {out.returncode}")
        if failures:
            print("sim_sweep: FAIL: " + "; ".join(failures),
                  file=sys.stderr)
            return 1
        print(f"sim_sweep: OK — {summary['events']} events/run, "
              f"{summary['events_per_sec']:.0f} ev/s, "
              f"{summary['virtual_seconds']:.3f} virtual s in "
              f"{summary['wall_seconds']:.3f} wall s, "
              f"peak RSS {summary['peak_rss_mb']:.1f} MB, "
              f"log hash {summary['log_hash']}")
        return 0
    finally:
        try:
            os.unlink(cfg_path)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
