#!/usr/bin/env python3
"""Render a rank-by-rank link-delay heat-map from a cluster aggregate.

Input is the asyncit-cluster JSON scripts/launch_cluster.py aggregates
(--json-out): every reporting rank's `links` array carries one delay
histogram per (src, dst) peer link (schema asyncit-node/4, measured at
the receiver from the sender's send stamp). This tool folds those into
one world-size matrix per chosen quantile and renders it twice:

  * a fixed-width text grid on stdout (or --out-text) — the quick
    "which link is slow" look in a terminal or CI log;
  * a self-contained SVG (--out-svg) with a log-scaled color ramp and a
    legend — the artifact launch_cluster.py --heatmap uploads.

Rows are the SENDING rank, columns the RECEIVING rank. Cells with no
traffic (a rank pair that never exchanged frames, the diagonal, a
killed rank's row) render blank / gray, never as zero — absence of
measurement is not a fast link. When the same (src, dst) pair is
reported by more than one rank the sample-richer histogram wins.

Usage:
    tools/trace_heatmap.py --cluster cluster.json [--quantile p95]
                           [--out-svg heatmap.svg] [--out-text heatmap.txt]

Exit status: 0 on success (even if the matrix is empty — an all-blank
map of a traffic-less run is a valid rendering), 1 on malformed input.
"""

import argparse
import json
import sys

QUANTILES = ("p50", "p95", "p99", "max")


def collect_links(doc):
    """-> (world, {(src, dst): {count, p50, p95, p99, max}})."""
    per_rank = doc.get("per_rank")
    if not isinstance(per_rank, dict):
        raise ValueError("no per_rank section (not an asyncit-cluster "
                         "aggregate with per-rank results?)")
    links = {}
    world = 0
    for rank_str, r in per_rank.items():
        world = max(world, int(rank_str) + 1)
        for link in r.get("links") or []:
            src, dst = int(link["src"]), int(link["dst"])
            q = link.get("quantiles") or {}
            entry = {"count": int(q.get("count", 0))}
            for name in QUANTILES:
                entry[name] = float(q.get(name, 0.0))
            world = max(world, src + 1, dst + 1)
            prev = links.get((src, dst))
            if prev is None or entry["count"] > prev["count"]:
                links[(src, dst)] = entry
    return world, links


def render_text(world, links, quantile, out):
    cell = 9  # "123.4ms" fits; blank cell = measurement absent
    out.write(f"link delay {quantile} [ms], rows = src rank, "
              f"cols = dst rank\n")
    out.write(" " * 5 + "".join(f"{d:>{cell}}" for d in range(world)) + "\n")
    for src in range(world):
        row = [f"{src:>4} "]
        for dst in range(world):
            e = links.get((src, dst))
            if e is None or e["count"] == 0:
                row.append(" " * (cell - 1) + ".")
            else:
                row.append(f"{e[quantile] * 1e3:>{cell - 2}.2f}ms")
        out.write("".join(row) + "\n")


def color(frac):
    """0..1 -> cold-to-hot ramp (dark blue -> yellow -> red)."""
    frac = min(1.0, max(0.0, frac))
    if frac < 0.5:
        t = frac / 0.5
        r, g, b = int(40 + 215 * t), int(60 + 180 * t), int(160 - 100 * t)
    else:
        t = (frac - 0.5) / 0.5
        r, g, b = 255, int(240 - 200 * t), int(60 - 60 * t)
    return f"#{r:02x}{g:02x}{b:02x}"


def render_svg(world, links, quantile, path):
    import math

    values = [e[quantile] for e in links.values() if e["count"] > 0]
    lo = min(values) if values else 0.0
    hi = max(values) if values else 0.0
    # Log scale when the spread warrants it (delay tails are heavy);
    # guard lo > 0 — a 0-second quantile stays on the linear floor.
    use_log = lo > 0.0 and hi / lo > 10.0

    def frac(v):
        if hi <= lo:
            return 0.0
        if use_log:
            return math.log(v / lo) / math.log(hi / lo) if v > 0 else 0.0
        return (v - lo) / (hi - lo)

    cell = max(12, min(40, 640 // max(1, world)))
    margin = 48
    legend_h = 56
    w = margin + world * cell + 16
    h = margin + world * cell + legend_h
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" '
        f'height="{h}" font-family="monospace" font-size="10">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{margin}" y="14">link delay {quantile} '
        f'(rows src, cols dst; gray = no traffic)</text>',
    ]
    label_every = max(1, world // 16)
    for i in range(0, world, label_every):
        parts.append(f'<text x="{margin + i * cell + 2}" '
                     f'y="{margin - 4}">{i}</text>')
        parts.append(f'<text x="{margin - 4}" '
                     f'y="{margin + i * cell + cell // 2 + 3}" '
                     f'text-anchor="end">{i}</text>')
    for (src, dst), e in sorted(links.items()):
        if e["count"] == 0:
            continue
        x = margin + dst * cell
        y = margin + src * cell
        v = e[quantile]
        parts.append(
            f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
            f'fill="{color(frac(v))}">'
            f'<title>{src}-&gt;{dst}: {quantile}={v * 1e3:.3f}ms '
            f'(n={e["count"]})</title></rect>')
    # Empty cells: one background rect under the grid would hide the
    # painted ones' borders; draw the lattice on top instead.
    for i in range(world + 1):
        parts.append(f'<line x1="{margin}" y1="{margin + i * cell}" '
                     f'x2="{margin + world * cell}" '
                     f'y2="{margin + i * cell}" stroke="#ddd"/>')
        parts.append(f'<line x1="{margin + i * cell}" y1="{margin}" '
                     f'x2="{margin + i * cell}" '
                     f'y2="{margin + world * cell}" stroke="#ddd"/>')
    ly = margin + world * cell + 20
    for i in range(32):
        parts.append(f'<rect x="{margin + i * 6}" y="{ly}" width="6" '
                     f'height="12" fill="{color(i / 31.0)}"/>')
    scale = "log" if use_log else "linear"
    parts.append(f'<text x="{margin}" y="{ly + 26}">'
                 f'{lo * 1e3:.3f}ms .. {hi * 1e3:.3f}ms ({scale})</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(parts) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cluster", required=True,
                    help="asyncit-cluster aggregate JSON "
                         "(launch_cluster.py --json-out)")
    ap.add_argument("--quantile", choices=QUANTILES, default="p95")
    ap.add_argument("--out-svg", default=None, help="write SVG here")
    ap.add_argument("--out-text", default=None,
                    help="write the text grid here instead of stdout")
    args = ap.parse_args()

    try:
        with open(args.cluster, "r", encoding="utf-8") as f:
            doc = json.load(f)
        world, links = collect_links(doc)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        print(f"trace_heatmap: {e}", file=sys.stderr)
        return 1

    if args.out_text:
        with open(args.out_text, "w", encoding="utf-8") as f:
            render_text(world, links, args.quantile, f)
    else:
        render_text(world, links, args.quantile, sys.stdout)
    if args.out_svg:
        render_svg(world, links, args.quantile, args.out_svg)
        measured = sum(1 for e in links.values() if e["count"] > 0)
        print(f"trace_heatmap: {measured} measured links over "
              f"{world}x{world} ranks -> {args.out_svg}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
