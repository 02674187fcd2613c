#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all ...   # every workload in turn

Run from the repository root. The build lives in .bench_build/perfbench
(Release; incremental after the first run). Build output goes to stderr,
so the JSON result stays the last line of stdout. The metric names the
program prints are checked against BENCHMARK.json.

An untraced run (--trace 0) splits --seconds over PROCESSES program runs
and reports, per end-to-end metric, the median of their values: on a
shared host one process can run slow from start to end (see README.md,
Noise), and a median over processes keeps that out of the result. A
traced run is one process.
"""
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
PROCESSES = 3


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src", "asyncit")
    ):
        fail("the asyncit sources (CMakeLists.txt, src/asyncit) are not beside perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run_process(workload, args):
    proc = subprocess.run([BINARY, "--workload", workload] + args,
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    # Everything but the JSON line is the human-readable report.
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    sys.stdout.flush()
    if proc.returncode != 0 or not lines:
        fail(f"{workload}: perfbench exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_one(spec, workload, opts):
    traced = opts["--trace"] == "1"
    processes = 1 if traced else PROCESSES
    seconds = float(opts["--seconds"]) / processes
    results = [
        run_process(workload, ["--seed", opts["--seed"], "--seconds", repr(seconds),
                               "--trace", opts["--trace"]])
        for _ in range(processes)
    ]
    expected = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]
    for r in results:
        if sorted(r.get("metrics", {})) != sorted(expected):
            fail(f"{workload}: printed metrics differ from BENCHMARK.json")
    metrics = {
        name: {
            "value": statistics.median(r["metrics"][name]["value"] for r in results),
            "unit": results[0]["metrics"][name]["unit"],
        }
        for name in expected
    }
    combined = {
        "correct": all(r["correct"] is True for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(combined))
    sys.stdout.flush()
    return combined["correct"]


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    usage = "usage: run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>"
    if len(argv) % 2 != 0:
        fail(usage)
    opts = {"--seed": "1", "--seconds": str(spec["run_seconds"]), "--trace": "0"}
    for key, value in zip(argv[::2], argv[1::2]):
        if key not in ("--workload", "--seed", "--seconds", "--trace"):
            fail(usage)
        opts[key] = value
    if "--workload" not in opts:
        fail(usage)
    workload = opts["--workload"]
    names = [w["name"] for w in spec["workloads"]]
    if workload != "all" and workload not in names:
        fail(f"unknown workload {workload!r}; expected one of {names}")
    build()
    ok = True
    for name in names if workload == "all" else [workload]:
        ok = run_one(spec, name, opts) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
