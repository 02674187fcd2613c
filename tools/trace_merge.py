#!/usr/bin/env python3
"""Merge per-rank asyncit Chrome trace files onto one cluster timeline.

Each asyncit_node rank exports either a single `rank_<r>.trace.json`
(schema asyncit-trace/1, written at exit by obs/exporter.cpp) or — when
the streaming flusher ran (obs/streamer.hpp) — a run of windowed chunks
`rank_<r>.window_<k>.trace.json` (schema asyncit-trace/2). Windows of a
rank partition that rank's event stream exactly: stitching them in
window_seq order reproduces what the single exit dump would have held.
A rank must not present both forms in one directory (that is a torn
run) and the merge rejects it.

Event timestamps are MICROseconds on the rank's own monotonic clock,
zeroed at its recorder enable, and `otherData.epoch_realtime_ns`
records where that zero sits on CLOCK_REALTIME. Ranks on one machine
(the launch_cluster.py case) share CLOCK_REALTIME, so shifting every
rank's events by

    (epoch_realtime_ns[rank] - min over ranks) / 1000   [us]

puts all of them on a single timeline anchored at the earliest rank's
enable instant. The merged document loads directly in Perfetto /
chrome://tracing; each rank keeps its own process group (pid = rank).

Drop accounting for windowed ranks is cross-checked: each window
carries its own drop delta (`events_dropped_window`) plus the
cumulative counter (`events_dropped`), and when the full window run
survives on disk (sequences contiguous from 0) the deltas must sum to
the final cumulative value — a double-draining consumer (the bug class
obs/streamer.hpp's single-path rule exists for) fails the merge loudly.
Rotated-away windows (sequence run not starting at 0) are tolerated;
the merged document reports the missing prefix per rank.

Rank attribution is checked: every event names the rank that recorded
it (its pid), so a rank's file holding an event stamped with another
rank — a thread that recorded without setting its rank — fails the
merge.

Cross-check: pass the launcher log (or any file containing the
`ASYNCIT_NODE_START rank=R epoch_ns=E` markers asyncit_node prints at
solve start) via --log and the merge verifies each rank's trace anchor
sits within --skew-tolerance seconds of its start marker — a torn
config (mixed runs in one directory) fails loudly instead of producing
a silently misaligned timeline.

Usage:
    tools/trace_merge.py --out merged.json rank_0.trace.json rank_1...
    tools/trace_merge.py --dir /tmp/run --out merged.json [--log run.log]

Exit status: 0 on success, 1 on malformed input or failed cross-check.
"""

import argparse
import glob
import json
import os
import re
import sys

START_RE = re.compile(r"ASYNCIT_NODE_START\s+rank=(\d+)\s+epoch_ns=(\d+)")
WINDOW_RE = re.compile(r"rank_(\d+)\.window_(\d+)\.trace\.json$")


def load_trace(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    other = doc.get("otherData", {})
    if not isinstance(events, list):
        raise ValueError(f"{path}: no traceEvents array")
    if "epoch_realtime_ns" not in other:
        raise ValueError(f"{path}: otherData.epoch_realtime_ns missing "
                         "(not an asyncit-trace document?)")
    window_seq = other.get("window_seq")
    if window_seq is None and WINDOW_RE.search(os.path.basename(path)):
        raise ValueError(f"{path}: window-named file without "
                         "otherData.window_seq (not asyncit-trace/2?)")
    rank = int(other.get("rank", -1))
    foreign = sorted({ev.get("pid") for ev in events
                      if "ts" in ev and ev.get("pid") != rank},
                     key=str)
    if foreign:
        raise ValueError(f"{path}: rank {rank}'s trace holds events stamped "
                         f"with rank(s) {foreign}")
    return {
        "path": path,
        "rank": rank,
        "epoch_ns": int(other["epoch_realtime_ns"]),
        "dropped": int(other.get("events_dropped", 0)),
        "window_seq": None if window_seq is None else int(window_seq),
        "window_dropped": int(other.get("events_dropped_window", 0)),
        "events": events,
    }


def stitch_rank(rank, docs):
    """Collapse one rank's loaded docs into a single plain-shaped trace.

    Exactly one plain doc passes through untouched; a window run is
    concatenated in window_seq order, keeping the Perfetto metadata
    naming events (the ones without "ts") from the first window only so
    the stitched stream is byte-comparable to a single exit dump of the
    same events. Returns (trace, rotated_out_dropped).
    """
    plain = [d for d in docs if d["window_seq"] is None]
    windows = [d for d in docs if d["window_seq"] is not None]
    if plain and windows:
        raise ValueError(
            f"rank {rank}: both a one-shot trace ({plain[0]['path']}) and "
            f"streamed windows ({windows[0]['path']}) — mixed runs in one "
            "directory")
    if len(plain) > 1:
        raise ValueError(f"rank {rank}: duplicate one-shot traces: "
                         f"{sorted(d['path'] for d in plain)}")
    if plain:
        return plain[0], 0

    windows.sort(key=lambda d: d["window_seq"])
    seqs = [d["window_seq"] for d in windows]
    if len(set(seqs)) != len(seqs):
        raise ValueError(f"rank {rank}: duplicate window sequences {seqs}")
    if seqs != list(range(seqs[0], seqs[0] + len(seqs))):
        raise ValueError(f"rank {rank}: window sequence gap in {seqs} — a "
                         "mid-run window is missing (not just a rotated "
                         "prefix)")
    epochs = {d["epoch_ns"] for d in windows}
    if len(epochs) != 1:
        raise ValueError(f"rank {rank}: windows disagree on "
                         f"epoch_realtime_ns ({sorted(epochs)}) — mixed "
                         "runs in one directory")

    events = list(windows[0]["events"])
    for d in windows[1:]:
        events.extend(ev for ev in d["events"] if "ts" in ev)

    # The LAST window's cumulative counter is the rank's total; when the
    # whole run survived rotation the per-window deltas must account for
    # it exactly.
    dropped = windows[-1]["dropped"]
    delta_sum = sum(d["window_dropped"] for d in windows)
    if delta_sum > dropped:
        raise ValueError(
            f"rank {rank}: window drop deltas sum to {delta_sum} > "
            f"cumulative {dropped} — a consumer drained the rings twice")
    if seqs[0] == 0 and delta_sum != dropped:
        raise ValueError(
            f"rank {rank}: complete window run but drop deltas sum to "
            f"{delta_sum} != cumulative {dropped} — events were drained "
            "outside the streamer's single path")
    rotated_out = dropped - delta_sum if seqs[0] > 0 else 0

    return {
        "path": windows[0]["path"],
        "rank": rank,
        "epoch_ns": windows[0]["epoch_ns"],
        "dropped": dropped,
        "window_seq": None,
        "window_dropped": 0,
        "events": events,
        "windows": len(windows),
        "first_seq": seqs[0],
    }, rotated_out


def parse_start_markers(path):
    markers = {}
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        for line in f:
            m = START_RE.search(line)
            if m:
                markers[int(m.group(1))] = int(m.group(2))
    return markers


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("traces", nargs="*", help="per-rank trace JSON files")
    ap.add_argument("--dir", default=None,
                    help="glob rank_*.trace.json and "
                         "rank_*.window_*.trace.json from this directory")
    ap.add_argument("--out", required=True, help="merged trace output path")
    ap.add_argument("--log", default=None,
                    help="launcher log with ASYNCIT_NODE_START markers "
                         "(clock-alignment cross-check)")
    ap.add_argument("--skew-tolerance", type=float, default=30.0,
                    help="max |trace anchor - start marker| seconds "
                         "(anchor precedes the marker by the rendezvous "
                         "time; default 30)")
    args = ap.parse_args()

    paths = list(args.traces)
    if args.dir:
        # One glob: rank_*.trace.json also matches the window names;
        # load_trace + stitch_rank classify by otherData.window_seq.
        paths += sorted(glob.glob(os.path.join(args.dir,
                                               "rank_*.trace.json")))
    if not paths:
        print("trace_merge: no input traces", file=sys.stderr)
        return 1

    try:
        docs = []
        for p in paths:
            try:
                docs.append(load_trace(p))
            except json.JSONDecodeError as e:
                # A SIGKILLed rank can die mid-flush, leaving its final
                # streaming window truncated — exactly the post-mortem
                # case the flight recorder exists for. Skip ONLY
                # window-named files: losing the newest window must not
                # cost the older ones, and a gap in the middle of a run
                # still fails the stitch-time sequence check. A truncated
                # plain exit dump stays a hard error (nothing kills a
                # rank between starting and finishing that atomic write
                # except a bug worth hearing about).
                if WINDOW_RE.search(os.path.basename(p)):
                    print(f"trace_merge: skipping truncated window {p}: "
                          f"{e}", file=sys.stderr)
                    continue
                raise
        if not docs:
            print("trace_merge: no readable traces", file=sys.stderr)
            return 1
        by_rank = {}
        for d in docs:
            by_rank.setdefault(d["rank"], []).append(d)
        traces = []
        windowed_ranks = {}
        for rank in sorted(by_rank):
            stitched, rotated_out = stitch_rank(rank, by_rank[rank])
            traces.append(stitched)
            if "windows" in stitched:
                windowed_ranks[str(rank)] = {
                    "windows": stitched["windows"],
                    "first_seq": stitched["first_seq"],
                    "rotated_out_dropped": rotated_out,
                }
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"trace_merge: {e}", file=sys.stderr)
        return 1

    ranks = [t["rank"] for t in traces]

    epoch0 = min(t["epoch_ns"] for t in traces)

    if args.log:
        markers = parse_start_markers(args.log)
        for t in traces:
            if t["rank"] not in markers:
                continue  # marker from an old binary / killed before start
            skew_s = abs(t["epoch_ns"] - markers[t["rank"]]) / 1e9
            if skew_s > args.skew_tolerance:
                print(f"trace_merge: rank {t['rank']} trace anchor is "
                      f"{skew_s:.3f}s from its ASYNCIT_NODE_START marker "
                      f"(> {args.skew_tolerance}s) — mixed runs in one "
                      "directory?", file=sys.stderr)
                return 1

    merged = []
    offsets_us = {}
    for t in traces:
        shift_us = (t["epoch_ns"] - epoch0) / 1e3
        offsets_us[str(t["rank"])] = shift_us
        for ev in t["events"]:
            if "ts" in ev:
                ev = dict(ev)
                ev["ts"] = ev["ts"] + shift_us
            merged.append(ev)
    # Stable chronological order (metadata events carry no ts; sort them
    # first so Perfetto names the tracks before their samples arrive).
    merged.sort(key=lambda ev: ev.get("ts", -1.0))

    other = {
        "schema": "asyncit-trace-merged/1",
        "ranks": sorted(ranks),
        "epoch_realtime_ns": epoch0,
        "rank_offsets_us": offsets_us,
        "events_dropped": sum(t["dropped"] for t in traces),
    }
    if windowed_ranks:
        other["windowed_ranks"] = windowed_ranks
    doc = {"traceEvents": merged, "otherData": other}
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    print(f"trace_merge: {len(merged)} events from {len(traces)} ranks "
          f"-> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
